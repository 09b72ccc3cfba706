"""The negative definite lattice family N_p, L_p, K_p for p in {2, 3, 5, 7}.

Start from nu disjoint A_{p-1}(-1) blocks on basis vectors D_{i,j}
(nu(p+1) = 24), adjoin the fractional class varpi built from the weight
vector k to get the overlattice N_p, cut out the index-p sublattice L_p
with the Weyl-type vector rho, and extend by an isotropic direction to
reach K_p = N_p + U. Each stage checks, in exact arithmetic, the facts
the later stages rely on, raising AssertionError or ArithmeticError that
names the failed claim, and records the identities the paper states as
computed values in fam.checks; the scenario rows of k3lat.scenarios
compare them with the claimed constants. The one search here, the
isometries of L_p trivial on disc(L_p), runs on the backtracking kernel
of k3lat.shortvec under a node budget; the genus candidate's
discriminant form is matched by its q-value counts, with no search.
"""

from fractions import Fraction

from .matrix import (
    block_diag,
    dot,
    identity_matrix,
    int_kernel,
    mat_eq,
    mat_mul,
    mat_scale,
    mat_sub,
    matrix_order,
    rank,
    row_hnf,
    transpose,
    vec_mat,
)
from .lattice import (
    Lattice,
    direct_sum,
    express_in_basis,
    gram_of_rows,
)
from .standard import cartan_matrix, cycle_coxeter_matrix, hyperbolic_plane, root_lattice
from .shortvec import (
    _fill_slots,
    disc_form_isometry,
    enumerate_vectors,
    lll_gram,
)


class UnsupportedPrime(ValueError):
    pass


K_VECTORS = {2: [1] * 8, 3: [1] * 6, 5: [1, 1, 2, 2], 7: [1, 2, 3]}
VARPI_NORMS = {2: -4, 3: -4, 5: -8, 7: -12}


class NikulinFamily:
    """All distinguished data of the family at one prime.

    Everything is held in integers over the one denominator p. p_varpi
    and p_rho are p varpi and p rho in the D-coordinate frame, where H2D
    is the orthogonal sum of negated Cartan blocks. The rows of
    p_basis_N are p times a basis of N_p in the D frame, its Gram is
    theirs over p^2, and every later vector (rho_in_N, the L_p basis,
    the K_p frame) is in integer N_p coordinates. p_dual_L is the
    integer matrix C = p G^-1 for the Gram G of L_p.
    """

    def __init__(self, p, nu, k, gram_D, p_varpi, p_rho, p_basis_N, N,
                 rho_in_N):
        self.p, self.nu, self.k = p, nu, k
        self.gram_D, self.p_varpi, self.p_rho = gram_D, p_varpi, p_rho
        self.p_basis_N = p_basis_N  # rows, D frame, times p
        self.N, self.rho_in_N = N, rho_in_N
        # filled by the later stages
        self.L_basis_in_N = self.L = self.sigma_L = self.p_dual_L = None
        self.K = self.sigma_K = self.K_eprime = None
        self.checks = {}


def _pair(gram, x, y, d=1):
    """x . y / d^2 under the integer Gram, as a Fraction: the pairing of
    x / d and y / d for integer rows x and y over the denominator d."""
    return Fraction(dot(vec_mat(x, gram), y), d * d)


def _exact_div(a, p, claim):
    """a / p for the integer a, or ArithmeticError naming claim."""
    q, r = divmod(a, p)
    if r:
        raise ArithmeticError("%s: %d is not divisible by %d" % (claim, a, p))
    return q


def build_family(p):
    """Construct N_p from the A_{p-1}(-1)^nu blocks and the class varpi.

    N_p is the row HNF of p [I; varpi], the block lattice and the class
    scaled by p into integers, over the denominator p (Cohen, GTM 138,
    §2.4)."""
    if p not in K_VECTORS:
        raise UnsupportedPrime("p must be one of 2, 3, 5, 7")
    k = K_VECTORS[p]
    nu = len(k)
    if nu * (p + 1) != 24:
        raise AssertionError("nu (p + 1) must be 24")
    m = nu * (p - 1)
    block = [[-x for x in row] for row in cartan_matrix("A", p - 1)]
    gram_D = block_diag(*[block] * nu)

    # p varpi and p rho, both integral
    p_varpi = [k[i] * j for i in range(nu) for j in range(1, p)]
    p_rho = [-p * j * (p - j) // 2 for _ in range(nu) for j in range(1, p)]

    ww = _pair(gram_D, p_varpi, p_varpi, p)
    if ww != Fraction((1 - p) * sum(x * x for x in k), p):
        raise AssertionError("varpi.varpi must be (1 - p) k.k / p")
    if ww % 2:
        raise AssertionError("overlattice class must have even norm")
    if p > 2 and any(x % p for x in p_rho):
        raise AssertionError("rho integral for odd p")
    if p == 2 and [-x for x in p_rho] != p_varpi:
        raise AssertionError("for p = 2 rho is minus varpi")

    p_basis_N = row_hnf(mat_scale(p, identity_matrix(m)) + [p_varpi])
    gram_N = gram_of_rows(p_basis_N, gram_D, p,
                          "N_p must be an integral lattice")
    N = Lattice(gram_N)
    if not N.is_even():
        raise AssertionError("N_p must be even")

    rho_in_N = express_in_basis([p_rho], p_basis_N, "rho must lie in N_p")
    fam = NikulinFamily(p=p, nu=nu, k=list(k), gram_D=gram_D,
                        p_varpi=p_varpi, p_rho=p_rho, p_basis_N=p_basis_N,
                        N=N, rho_in_N=rho_in_N[0])

    disc_orders = N.discriminant_group().cyclic_orders
    if disc_orders != [p] * (nu - 2):
        raise AssertionError("disc(N_p) must be (Z/p)^(nu - 2), got %s"
                             % disc_orders)
    fam.checks["disc_N_orders"] = disc_orders

    # no new roots appear in the overlattice
    roots_N = enumerate_vectors(N.gram, -2)
    if 2 * len(roots_N) != nu * p * (p - 1):
        raise AssertionError("N_p must have nu p (p - 1) / 2 root pairs")
    if any(x % p for row in mat_mul(roots_N, p_basis_N) for x in row):
        raise AssertionError("roots of N_p must all lie in H2D")
    return fam


def _rho_functional(fam):
    """x -> rho.x on N_p coordinates, as the integer row rho_N G_N."""
    return vec_mat(fam.rho_in_N, fam.N.gram)


def build_Lp(fam):
    """L_p = kernel of x -> rho.x mod p inside N_p; index p."""
    p = fam.p
    m = len(fam.p_basis_N)
    w = [x % p for x in _rho_functional(fam)]
    if not any(w):
        raise AssertionError("the rho functional must be onto Z/p")
    # (x, y) with w.x + p y = 0 are the x with w.x = 0 mod p, and y is
    # determined by x, so dropping it keeps a basis
    L_in_N = row_hnf([r[:m] for r in int_kernel([w + [p]])])
    gram_L = gram_of_rows(L_in_N, fam.N.gram)
    # rebase on the LLL-reduced basis, which sigma_L and every later
    # search are written in; the reduced Gram is -R
    H, R = lll_gram([[-x for x in row] for row in gram_L])[:2]
    L_in_N = mat_mul(H, L_in_N)
    L = Lattice([[-x for x in row] for row in R])
    if L.signature() != (0, fam.nu * (p - 1), 0):
        raise AssertionError("L_p must be negative definite of rank "
                             "nu (p - 1)")

    fam.L_basis_in_N = L_in_N
    fam.L = L
    fam.checks["disc_L_orders"] = L.discriminant_group().cyclic_orders
    fam.checks["L_has_no_roots"] = not enumerate_vectors(L.gram, -2)
    return L


def build_sigma(fam):
    """The blockwise Coxeter rotation sigma = (sigma_1^{k_1}, ...).

    Its order on N_p is checked to be p, so the minimal polynomial of
    its restriction sigma_L to L_p divides x^p - 1 = (x - 1) Phi_p, and
    the char poly is Phi_p^nu exactly when sigma_L fixes no vector:
    rank(sigma_L - 1) = n. Both restrictions preserve the form because
    sigma_D does.
    """
    p = fam.p
    C = cycle_coxeter_matrix(p - 1)
    blocks = []
    for k in fam.k:
        Ck = identity_matrix(p - 1)
        for _ in range(k % p):
            Ck = mat_mul(Ck, C)
        blocks.append(Ck)
    sigma_D = block_diag(*blocks)
    if not mat_eq(mat_mul(mat_mul(sigma_D, fam.gram_D), transpose(sigma_D)),
                  fam.gram_D):
        raise AssertionError("sigma must preserve the block form")

    # restrict to N_p (must be integral: sigma preserves the overlattice)
    H = fam.p_basis_N
    sigma_N = express_in_basis(mat_mul(H, sigma_D), H,
                               "sigma must preserve N_p")
    if matrix_order(sigma_N, cap=2 * p) != p:
        raise AssertionError("sigma must have order p on N_p")

    imgs = mat_mul(fam.L_basis_in_N, sigma_N)
    sigma_L = express_in_basis(imgs, fam.L_basis_in_N,
                               "sigma must preserve L_p")

    # trivial action on the discriminant group of L_p
    n = len(sigma_L)
    sigma_L_minus_1 = mat_sub(sigma_L, identity_matrix(n))
    fam.p_dual_L = _scaled_dual(fam.L, p)
    fam.checks["sigma_trivial_on_disc"] = _trivial_on_disc(
        fam.p_dual_L, sigma_L, p)

    # rho lies in L_p, and (sigma - 1)(rho / p) lands in L_p there
    rho_in_L = express_in_basis([fam.rho_in_N], fam.L_basis_in_N)
    in_L = fam.checks["rho_in_L"] = rho_in_L is not None
    fam.checks["sigma_shift_of_rho_over_p"] = in_L and not any(
        x % p for x in vec_mat(rho_in_L[0], sigma_L_minus_1))

    # char poly on L_p is Phi_p^nu: no fixed vector, and Phi_p irreducible
    power = n // (p - 1) if rank(sigma_L_minus_1) == n else 0
    if power != fam.nu:
        raise AssertionError("char poly must be Phi_p^nu")
    fam.checks["sigma_char_poly_power"] = power

    fam.sigma_L = sigma_L
    return sigma_L


def _scaled_dual(L, p):
    """The integer matrix C = p G^-1 for the Gram G of L, the Gram of the
    dual lattice scaled by p, which is integral exactly when the
    discriminant exponent divides p; otherwise ArithmeticError."""
    return express_in_basis(mat_scale(p, identity_matrix(L.rank)), L.gram,
                            "discriminant exponent must divide p")


def _trivial_on_disc(C, T, p):
    """Whether T acts trivially on the discriminant group: G^-1 (T - 1)
    is integral, that is C (T - 1) = 0 mod p for C = p G^-1."""
    shift = mat_mul(C, mat_sub(T, identity_matrix(len(T))))
    return not any(x % p for row in shift for x in row)


def aut_trivial_on_disc_search(fam, budget=None):
    """Search for all isometries of L_p acting trivially on disc(L_p).

    An isometry T is trivial on the discriminant iff C (T - 1) = 0 mod p
    for the dual form C = p G^-1 that build_sigma keeps as fam.p_dual_L,
    a condition on the columns of T. The backtracking therefore builds
    S = T^t row by row: S preserves C, each row must satisfy
    (s_i - e_i) C = 0 mod p, and transposing any complete solution gives
    a Gram isometry trivial on the discriminant.
    The pool vectors w and their negatives are bucketed once by
    (norm, w C mod p), and slot i draws from the bucket of
    (C_ii, C_i mod p), so the backtracking tests only the Gram rows.
    The kernel returns every complete filling. Past its budget, 10^6
    nodes when None, the pool enumeration or the backtracking raises
    SearchBudgetExceeded naming its stage.
    """
    if budget is None:
        budget = 10 ** 6
    n = fam.L.rank
    p = fam.p
    dual = C = fam.p_dual_L
    # rebase the dual form on its LLL basis so its diagonal is short, else
    # the pools explode; the congruence (S - 1) C = 0 mod p is covariant
    # under the unimodular change H
    H, R = lll_gram([[-x for x in row] for row in C])[:2]
    Hinv = express_in_basis(identity_matrix(n), H,
                            "an LLL transform must be unimodular")
    C = [[-x for x in row] for row in R]
    buckets = {}
    for t in sorted({C[i][i] for i in range(n)}):
        vecs = enumerate_vectors(C, t, budget=budget)
        # each pool vector with its image under C, computed once
        imgs = [vec_mat(v, C) for v in vecs]
        pool = list(zip(vecs, imgs)) + [
            ([-x for x in v], [-x for x in w]) for v, w in zip(vecs, imgs)]
        for wv, wc in pool:
            key = (t, tuple(x % p for x in wc))
            buckets.setdefault(key, []).append((wv, wc))

    def fits(i, c, chosen):
        # the bucket has (w - e_i) C in p Z^n; the Gram row remains
        wv = c[0]
        return all(dot(chosen[j][1], wv) == C[j][i] for j in range(i))

    slots = [buckets.get((C[i][i], tuple(x % p for x in C[i])), [])
             for i in range(n)]
    found, nodes = _fill_slots(slots, fits, budget, "aut search",
                               every=True)

    mats = []
    for filling in found:
        Sp = [wv for wv, _ in filling]
        T = transpose(mat_mul(mat_mul(Hinv, Sp), H))
        if not _trivial_on_disc(dual, T, p):
            raise ArithmeticError("a filling must act trivially on disc(L_p)")
        mats.append(T)
    from .groups import IsometryGroup

    # IsometryGroup checks the form. The generators are the found
    # isometries the closure so far misses, and the found set must be
    # exactly the group they generate, identity included
    def frozen(T):
        return tuple(map(tuple, T))
    gens, closed = [], {frozen(identity_matrix(n))}
    for T in mats:
        if frozen(T) not in closed:
            gens.append(T)
            closed = {frozen(x)
                      for x in IsometryGroup(fam.L, gens).elements()}
    if closed != {frozen(T) for T in mats}:
        raise ArithmeticError(
            "the isometries trivial on disc(L_p) must form a group")
    order = len(closed)
    if fam.sigma_L not in mats:
        raise ArithmeticError("sigma itself must appear in the stabilizer")
    return {"p": fam.p, "group_order": order,
            "equals_sigma_cyclic": order == fam.p, "nodes": nodes}


def build_hat_and_K(fam):
    """The even lattice K_p = N_p + U.

    K_p adds to N_p an isotropic direction f and a second direction s with
    s.s = -2, s.f = 1; the change of basis (e := s + f, f) exhibits K_p
    as N_p plus a hyperbolic plane.
    """
    m = len(fam.p_basis_N)

    # K_p in basis (i(n_1), ..., i(n_m), f, s)
    gram_K = [row[:] + [0, 0] for row in fam.N.gram]
    gram_K.append([0] * m + [0, 1])
    gram_K.append([0] * m + [1, -2])
    K = Lattice(gram_K)
    fam.K = K

    # (e := s + f, f) turns the last block into a hyperbolic plane
    T = identity_matrix(m + 2)
    T[m] = [0] * m + [1, 1]      # e = f + s
    T[m + 1] = [0] * m + [1, 0]  # f
    moved = mat_mul(mat_mul(T, gram_K), transpose(T))
    expected = [row[:] + [0, 0] for row in fam.N.gram]
    expected.append([0] * m + [0, 1])
    expected.append([0] * m + [1, 0])
    fam.checks["K_splits_off_U"] = mat_eq(moved, expected)

    s = [0] * (m + 1) + [1]
    fam.checks["s_dot_rho"] = K.bilinear(s, _flat_rho(fam))
    return K


def _flat_rho(fam):
    """rho as a K_p vector with no f component (possible since rho is
    in L_p: the f correction (rho.rho)/p is an integer multiple of f)."""
    rr = dot(_rho_functional(fam), fam.rho_in_N)
    return fam.rho_in_N + [-_exact_div(rr, fam.p, "rho.rho / p"), 0]


def _flat_L_basis(fam):
    """j(L_p) inside K_p: x + (-(rho.x)/p) f, integral exactly on L_p."""
    w = _rho_functional(fam)
    return [x + [-_exact_div(dot(w, x), fam.p, "rho.x / p on L_p"), 0]
            for x in fam.L_basis_in_N]


def Lp_complement_in_Kp(fam):
    """The orthogonal complement of L_p in K_p is U(p) on (e', f).

    e' := p s + rho + f is isotropic; the complement Gram is [[0,p],[p,0]];
    and the order-p rotation extends to K_p fixing e' and f pointwise.
    """
    p = fam.p
    m = len(fam.p_basis_N)
    gram_K = fam.K.gram
    jL = _flat_L_basis(fam)
    comp = int_kernel(mat_mul(jL, gram_K))

    f = [0] * m + [1, 0]
    eprime = _flat_rho(fam)
    eprime[m] += 1
    eprime[m + 1] += p

    # same Z-span: complement == <e', f>
    ef = [eprime, f]
    gram_ef = gram_of_rows(ef, gram_K)
    fam.checks["complement_is_Up"] = (
        express_in_basis(ef, comp) is not None
        and express_in_basis(comp, ef) is not None
        and gram_ef == [[0, p], [p, 0]])

    # extension of sigma fixing e' and f
    P = jL + ef
    B = [row + [0, 0] for row in fam.sigma_L] + identity_matrix(m + 2)[m:]
    # sig_hat = P^-1 B P, the integer solution of P X = B P, if any
    sig_hat = express_in_basis(transpose(mat_mul(B, P)), transpose(P))
    extends = sig_hat is not None
    if extends:
        sig_hat = transpose(sig_hat)
        extends = (
            mat_eq(mat_mul(mat_mul(sig_hat, gram_K), transpose(sig_hat)),
                   gram_K)
            and matrix_order(sig_hat, cap=2 * p) == p
            and vec_mat(eprime, sig_hat) == eprime
            and vec_mat(f, sig_hat) == f)
    fam.checks["sigma_extends_to_K"] = extends
    fam.sigma_K = sig_hat
    fam.K_eprime = eprime


def family(p):
    """N_p, L_p, sigma and K_p at p, each stage verified as it is built."""
    fam = build_family(p)
    build_Lp(fam)
    build_sigma(fam)
    build_hat_and_K(fam)
    Lp_complement_in_Kp(fam)
    return fam


GENUS_CANDIDATES = {
    3: lambda: direct_sum(hyperbolic_plane(), hyperbolic_plane(3),
                          hyperbolic_plane(3), root_lattice("A", 2, -1),
                          root_lattice("A", 2, -1)),
    5: lambda: direct_sum(hyperbolic_plane(), hyperbolic_plane(5),
                          hyperbolic_plane(5)),
    7: lambda: direct_sum(hyperbolic_plane(7), Lattice([[2, 1], [1, 4]])),
}


def genus_check_lambda_G(p, fam=None):
    """The listed invariant-lattice candidate has the right signature and
    its discriminant form is the opposite of disc(L_p). Both forms are
    p-elementary, so they are compared by their q-value counts, with no
    search and no budget."""
    if p not in (3, 5, 7):
        raise UnsupportedPrime("genus candidates listed for p in {3,5,7}")
    if fam is None:
        fam = family(p)
    cand = GENUS_CANDIDATES[p]()
    Dc = cand.discriminant_group()
    DL = fam.L.discriminant_group()
    match = disc_form_isometry(Dc, DL.opposite())
    return {"p": p, "candidate_rank": cand.rank,
            "candidate_signature": cand.signature(),
            "disc_orders": Dc.cyclic_orders,
            "opposite_disc_match": match}
