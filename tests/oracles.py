"""Test oracles and pin re-derivers.

Entrywise Fraction references for the integer kernels of k3lat.matrix
and k3lat.lattice (product, Faddeev-LeVerrier, Gaussian elimination
under det, rank and solve_rows, congruence diagonalization,
discriminant-form pairing), integer row-span membership, the brute-force
loops behind the closed forms of the group layer (point defects summed
over p - 1 conjugates in Z[x]/(x^p - 1) against the Dedekind sum,
characters from one change of basis per element, rational classes closed
under conjugation also when the generators commute, generation of a
finite abelian group by breadth-first closure), an
independent box enumerator to check Fincke-Pohst against, a constructive
Cartan-Dieudonne to check O^+ membership against, two independent
routes to L_G (the cyclotomic kernels of a cyclic generator, and
supplied projectors with their Frobenius-Schur checks and characters
tr(g Z)/D) to check the class-sum components against, the backtracking
isomorphism search of discriminant forms, with its generator images and
its generation test by one row HNF, to check the q-value count decision
against, and the searches that first produced the data pinned in
k3lat.realize: the A_3 + A_3 chain embedding into E8 and the
discriminant glue images. Also the
family checks that no verb runs: uniqueness of the k-vector squares, the
Hermitian orbit-sum smoke test and the whole-family integration build,
and the defect identities that no verb runs: the signature balance, the
total defect of points and surfaces, and the Noether-type count. And the
small helpers only tests use: polynomial arithmetic over Q (division,
extended Euclid, the general cyclotomic), discriminant-group arithmetic
(the class of a dual vector, linear combinations of classes), the Smith
diagonal, and E8 simple roots in the even coordinate model of R^8.
"""

from fractions import Fraction
import itertools
import math
import operator

from conftest import family
from k3lat import nikulin
from k3lat.lattice import (
    DiscriminantForm,
    Lattice,
    Sublattice,
    direct_sum,
    express_in_basis,
    gram_of_rows,
    signature_of_gram,
)
from k3lat.matrix import (
    det,
    dot,
    identity_matrix,
    int_kernel,
    inverse,
    mat_eq,
    mat_mul,
    matrix_order,
    row_hnf,
    snf,
    solve_rows,
    to_int_matrix,
    transpose,
    vec_mat,
)
from k3lat.groups import _key
from k3lat.gsignature import InvalidCharacter, defect_point
from k3lat.polys import poly_eval_matrix
from k3lat.realize import GLUE_PARTNERS, _coxeter_partner
from k3lat.shortvec import (
    _fill_slots,
    _is_canonical,
    enumerate_vectors,
)
from k3lat.standard import cartan_matrix, root_lattice


def snf_diagonal(A):
    """The diagonal of the Smith normal form, including zeros, length min(m,n)."""
    S, _ = snf(A)
    return [S[i][i] for i in range(min(len(S), len(S[0]) if S else 0))]


def e8_coordinate_simple_roots():
    """Simple roots of E8 in the even coordinate model of R^8.

    Rows pair under the standard dot product to the Cartan matrix of E8;
    half-integer entries are Fractions. A second, independent construction
    of the E8 Gram matrix.
    """
    h = Fraction(1, 2)
    return [
        [h, -h, -h, -h, -h, -h, -h, h],
        [1, 1, 0, 0, 0, 0, 0, 0],
        [-1, 1, 0, 0, 0, 0, 0, 0],
        [0, -1, 1, 0, 0, 0, 0, 0],
        [0, 0, -1, 1, 0, 0, 0, 0],
        [0, 0, 0, -1, 1, 0, 0, 0],
        [0, 0, 0, 0, -1, 1, 0, 0],
        [0, 0, 0, 0, 0, -1, 1, 0],
    ]


def snf_transforms(A):
    """(S, U, V) with U A V = S for a nondegenerate square integer A: S
    and U from k3lat's snf, and V = A^-1 U^-1 S, the one column transform
    that fits them; to_int_matrix refuses a V that is not integral."""
    S, U = snf(A)
    return S, U, to_int_matrix(mat_mul(mat_mul(inverse(A), inverse(U)), S))


def disc_reduce(D, rational_vec):
    """Class in D of a dual vector (rational source coordinates), as a
    tuple of residues against D.orders. The vector must pair integrally
    with the source lattice: with U A V = S the Smith form of the source
    Gram A, the class of y = x A is (y V)_i mod s_i over the s_i > 1."""
    S, _, V = snf_transforms(D.gram)
    y = vec_mat(rational_vec, D.gram)
    if not all(Fraction(c).denominator == 1 for c in y):
        raise ValueError("vector does not pair integrally with the lattice")
    t = vec_mat([int(c) for c in y], V)
    return tuple(t[i] % S[i][i] for i in range(len(S)) if S[i][i] > 1)


def disc_combination(D, coeffs, elems):
    """sum_j coeffs[j] * elems[j] in the group of D, as a tuple."""
    acc = [0] * len(D.orders)
    for c, e in zip(coeffs, elems):
        acc = [(a + c * x) % o for a, x, o in zip(acc, e, D.orders)]
    return tuple(acc)


def to_fraction_matrix(A):
    return [[Fraction(a) for a in row] for row in A]


def fraction_mat_mul(A, B):
    """Product reference: every entry a sum of Fraction products."""
    return [[sum((Fraction(a) * Fraction(B[t][j]) for t, a in enumerate(row)),
                 Fraction(0)) for j in range(len(B[0]) if B else 0)]
            for row in A]


def fraction_char_poly(A):
    """Faddeev-LeVerrier over Q with Fraction products throughout."""
    n = len(A)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    M = [[Fraction(0)] * n for _ in range(n)]
    AF = to_fraction_matrix(A)
    for k in range(1, n + 1):
        for i in range(n):
            M[i][i] += coeffs[n - k + 1]
        M = fraction_mat_mul(AF, M)
        coeffs[n - k] = -sum(M[i][i] for i in range(n)) / k
    return coeffs


def fraction_diagonalize(gram):
    """Congruence diagonalization over Q: (rows, norms, nullity) with
    rational rows, pivoting on the first nonzero diagonal entry and
    adding e_j to e_i when the active diagonal vanishes."""
    n = len(gram)
    M = to_fraction_matrix(gram)
    T = to_fraction_matrix(identity_matrix(n))
    active = list(range(n))
    rows, norms = [], []
    while active:
        piv = next((i for i in active if M[i][i] != 0), None)
        if piv is None:
            pair = next(((i, j) for i in active for j in active
                         if i != j and M[i][j] != 0), None)
            if pair is None:
                break
            i, j = pair
            for c in active:
                M[i][c] += M[j][c]
            for r in active:
                M[r][i] += M[r][j]
            T[i] = [a + b for a, b in zip(T[i], T[j])]
            continue
        active.remove(piv)
        d = M[piv][piv]
        rows.append(T[piv])
        norms.append(d)
        for k in active:
            f = M[k][piv] / d
            for c in active:
                M[k][c] -= f * M[piv][c]
            T[k] = [a - f * b for a, b in zip(T[k], T[piv])]
    return rows, norms, len(active)


def fraction_echelon(M, ncols):
    """Forward elimination over Q on the first ncols columns, in place.

    M is a list of Fraction rows; columns past ncols ride along. Returns
    (pivot columns, number of row swaps): afterwards row i has its pivot
    at pivots[i] with zeros below it, and rows from len(pivots) on vanish
    on the first ncols columns.
    """
    m = len(M)
    pivots = []
    swaps = 0
    for col in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if M[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            swaps += 1
        prow = M[r]
        inv = 1 / prow[col]
        support = [c for c in range(col, len(prow)) if prow[c]]
        for i in range(r + 1, m):
            row = M[i]
            if row[col]:
                f = row[col] * inv
                for c in support:
                    row[c] -= f * prow[c]
        pivots.append(col)
    return pivots, swaps


def fraction_det(A):
    """Determinant by Fraction elimination; an int whenever integral."""
    n = len(A)
    if n == 0:
        return 1
    M = to_fraction_matrix(A)
    pivots, swaps = fraction_echelon(M, n)
    if len(pivots) < n:
        return 0
    d = Fraction(-1 if swaps % 2 else 1)
    for i in range(n):
        d *= M[i][i]
    if d.denominator == 1:
        return int(d)
    return d


def fraction_rank(A):
    """Rank over Q by Fraction elimination."""
    if not A or not A[0]:
        return 0
    M = to_fraction_matrix(A)
    return len(fraction_echelon(M, len(M[0]))[0])


def fraction_solve_rows(A, B):
    """X with X A = B over Q by Fraction elimination of [A^T | B^T] and
    back-substitution, coordinates off the pivots 0; None when some row
    of B is not in the row span of A."""
    m = len(A)
    k = len(B)
    n = len(A[0]) if A else (len(B[0]) if B else 0)
    M = [[Fraction(A[i][j]) for i in range(m)]
         + [Fraction(B[t][j]) for t in range(k)] for j in range(n)]
    pivots, _ = fraction_echelon(M, m)
    r = len(pivots)
    if any(any(row[m:]) for row in M[r:]):
        return None
    X = []
    for t in range(m, m + k):
        x = [Fraction(0)] * m
        for i in range(r - 1, -1, -1):
            row = M[i]
            s = row[t]
            for col in pivots[i + 1:]:
                if row[col]:
                    s -= row[col] * x[col]
            x[pivots[i]] = s / row[pivots[i]]
        X.append(x)
    return X


def in_rowspan_z(basis, vec):
    """Whether vec lies in the integer row span of basis."""
    v = list(vec)
    for row in row_hnf(basis):
        j = next(i for i, x in enumerate(row) if x)
        if v[j] % row[j]:
            return False
        q = v[j] // row[j]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def fraction_lift_pairing(D, x, y):
    """Unreduced x . y of the rational lifts of two classes of the
    discriminant form D, summed entrywise in Fractions; mod 1 it is the
    pairing, and for x = y mod 2 the quadratic value."""
    lx, ly = D.lift(x), D.lift(y)
    n = len(D.gram)
    return sum((lx[i] * D.gram[i][j] * ly[j]
                for i in range(n) for j in range(n)), Fraction(0))


def bfs_generates(images, orders):
    """Whether images generate Z/o_1 x ... x Z/o_k, by breadth-first
    closure over the whole group."""
    zero = tuple(0 for _ in orders)
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in images:
                y = tuple((a + b) % o for a, b, o in zip(x, g, orders))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen) == math.prod(orders)


def hnf_generates(images, orders):
    """Whether images generate Z/o_1 x ... x Z/o_k: with the relation
    rows diag(o_i) they must span Z^k, so every row HNF pivot is 1."""
    k = len(orders)
    relations = [[o if i == j else 0 for j in range(k)]
                 for i, o in enumerate(orders)]
    H = row_hnf(list(images) + relations)
    return all(H[i][i] == 1 for i in range(k))


def disc_form_isometry_images(D1, D2, budget=10 ** 6):
    """Generator images (tuples in D2) of an isomorphism of finite
    discriminant forms D1 -> D2, or None, by backtracking search.

    Images match D1's generator orders, bilinear values and, for even
    sources, quadratic values; a complete filling must generate D2. The
    reference for the q-value count decision of k3lat.shortvec, on any
    finite form: budget nodes, then SearchBudgetExceeded.
    """
    if D1.orders != D2.orders or D1.even != D2.even:
        return None
    k = len(D1.orders)
    use_q = D1.even
    gens1 = [tuple(1 if i == j else 0 for j in range(k)) for i in range(k)]
    want_q = [D1.q(g) if use_q else None for g in gens1]
    want_b = [[D1.bilinear(gens1[i], gens1[j]) for j in range(k)]
              for i in range(k)]
    info = [(t, D2.element_order(t), D2.q(t) if use_q else None)
            for t in D2.elements() if any(t)]
    cands = [[t for (t, o, val) in info
              if o == need and (not use_q or val == want)]
             for need, want in zip(D1.orders, want_q)]

    def fits(i, t, chosen):
        return (all(D2.bilinear(chosen[j], t) == want_b[j][i]
                    for j in range(i))
                and D2.bilinear(t, t) == want_b[i][i]
                and (i < k - 1 or hnf_generates(chosen + [t], D2.orders)))

    found, _ = _fill_slots(cands, fits, budget, "discriminant-form isometry")
    return found[0] if found else None


def basis_characters(elements, basis):
    """(tr R, tr R^2) for each g, R the matrix of g on the G-stable row
    span of basis, from one express_in_basis solve per element."""
    out = []
    for g in elements:
        R = express_in_basis([vec_mat(row, g) for row in basis], basis)
        m = len(basis)
        out.append((sum(R[i][i] for i in range(m)),
                    sum(R[i][j] * R[j][i] for i in range(m)
                        for j in range(m))))
    return out


def cyclic_generator(group):
    """An element of order |G| if one exists, else None."""
    n = group.order()
    for g in group.elements():
        if matrix_order(g, cap=n) == n:
            return g
    return None


def cyclic_coinvariant(group):
    """L_G of a cyclic group from the saturated cyclotomic kernels
    K_d = ker Phi_d(g) of a generator g, or None outside O^+.

    The K_d are mutually orthogonal, so an invariant positive 3-plane
    splits along them and the positive parts a_d = sig_+(K_d) sum to 3.
    g acts on that plane with determinant (-1)^{a_2}, since the rotation
    parts (d >= 3) have determinant +1, so g lies in O^+ iff a_2 is even.
    L_G is the saturated span of the K_d with a_d = 0.
    """
    ambient = group.ambient
    g = cyclic_generator(group)
    N = group.order()
    comps = {}
    for d in range(1, N + 1):
        if N % d == 0:
            basis = int_kernel(transpose(poly_eval_matrix(cyclotomic(d), g)))
            if basis:
                comps[d] = basis
    assert sum(len(b) for b in comps.values()) == ambient.rank
    a_plus = {}
    for d, basis in comps.items():
        plus, _, zero = signature_of_gram(gram_of_rows(basis, ambient.gram))
        assert zero == 0
        a_plus[d] = plus
    assert sum(a_plus.values()) == 3
    if a_plus.get(2, 0) % 2:
        return None
    keep = [row for d, b in sorted(comps.items()) if not a_plus[d]
            for row in b]
    return Sublattice(ambient, keep).saturation()


def rational_classes_by_conjugation(group):
    """The rational classes of G as the orbits of the power classes
    {x^k : gcd(k, ord x) = 1} under conjugation by every generator, with
    no shortcut for commuting generators."""
    I = identity_matrix(group.ambient.rank)
    conj = [(to_int_matrix(inverse(g)), g) for g in group.generators]
    seen = set()
    classes = []
    for x in group.elements():
        if _key(x) in seen:
            continue
        powers = [x]
        while not mat_eq(powers[-1], I):
            powers.append(mat_mul(powers[-1], x))
        m = len(powers)
        orbit = {_key(p): p for k, p in enumerate(powers, 1)
                 if math.gcd(k, m) == 1}
        stack = list(orbit.values())
        while stack:
            y = stack.pop()
            for gi, g in conj:
                z = mat_mul(mat_mul(gi, y), g)
                if _key(z) not in orbit:
                    orbit[_key(z)] = z
                    stack.append(z)
        seen.update(orbit)
        classes.append(list(orbit.values()))
    return classes


def projector_character(elements, Z, D):
    """tr(g Z)/D for each g: the character of G on the image of the
    equivariant projector Z/D."""
    Zt = list(itertools.chain.from_iterable(zip(*Z)))
    return [Fraction(sum(map(operator.mul, itertools.chain.from_iterable(g),
                             Zt)), D)
            for g in elements]


def projector_coinvariant(group, projectors):
    """L_G from rational isotypic projectors, each checked to be an
    idempotent, equivariant, mutually annihilating projector onto one
    real-type isotypic piece by its Frobenius-Schur indicator and
    <chi, chi>; ValueError otherwise. L_G is the saturated span of the
    images without a positive part."""
    ambient = group.ambient
    n = ambient.rank
    F = [[list(map(Fraction, row)) for row in E] for E in projectors]
    D = math.lcm(*[x.denominator for E in F for row in E for x in row])
    Z = [[[int(x * D) for x in row] for row in E] for E in F]
    DI = [[D * x for x in row] for row in identity_matrix(n)]
    if [[sum(E[i][j] for E in Z) for j in range(n)]
            for i in range(n)] != DI:
        raise ValueError("projectors must sum to 1")
    for idx, E in enumerate(Z):
        if mat_mul(E, E) != [[D * x for x in row] for row in E]:
            raise ValueError("projector %d is not idempotent" % idx)
        for E2 in Z[idx + 1:]:
            if any(map(any, mat_mul(E, E2))):
                raise ValueError("projectors do not annihilate")
        for g in group.generators:
            if mat_mul(g, E) != mat_mul(E, g):
                raise ValueError("projector %d is not equivariant" % idx)
    elements = group.elements()
    squares = [mat_mul(g, g) for g in elements]
    keep = []
    for idx, E in enumerate(Z):
        basis = int_kernel(transpose([[a - z for a, z in zip(ra, rz)]
                                      for ra, rz in zip(DI, E)]))
        if not basis:
            continue
        # Frobenius-Schur indicator (1/|G|) sum chi(g^2) and <chi, chi>;
        # chi is rational-valued, so chi(g^-1) = chi(g)
        s = sum(projector_character(squares, E, D)) / len(elements)
        i_val = sum(c * c for c in projector_character(elements, E, D)) \
            / len(elements)
        if s <= 0 or (i_val / s).denominator != 1 or s * s != i_val:
            raise ValueError("component %d is not a single real-type "
                             "isotypic piece" % idx)
        plus, _, zero = signature_of_gram(gram_of_rows(basis, ambient.gram))
        assert zero == 0
        if not plus:
            keep.extend(basis)
    return Sublattice(ambient, keep).saturation()


# polynomial arithmetic over Q: lists of coefficients, constant term first,
# ints where possible and Fractions otherwise

def poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def poly_add(p, q):
    n = max(len(p), len(q))
    out = [0] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return poly_trim(out)


def poly_sub(p, q):
    n = max(len(p), len(q))
    out = [0] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] -= c
    return poly_trim(out)


def poly_mul(p, q):
    p = poly_trim(p)
    q = poly_trim(q)
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def poly_divmod(p, q):
    """Quotient and remainder over Q."""
    p = [Fraction(c) for c in poly_trim(p)]
    q = [Fraction(c) for c in poly_trim(q)]
    assert q, "division by the zero polynomial"
    if len(p) < len(q):
        return [], poly_trim(p)
    quot = [Fraction(0)] * (len(p) - len(q) + 1)
    lead = q[-1]
    while len(p) >= len(q) and p:
        k = len(p) - len(q)
        c = p[-1] / lead
        quot[k] = c
        for i in range(len(q)):
            p[k + i] -= c * q[i]
        p = poly_trim(p)
    return poly_trim(quot), p


def poly_exact_div(p, q):
    """Exact division for integer polynomials; asserts zero remainder."""
    quot, rem = poly_divmod(p, q)
    assert not rem, "division was not exact"
    out = []
    for c in quot:
        assert c.denominator == 1
        out.append(int(c))
    return out


_CYCLO_CACHE = {1: [-1, 1]}


def cyclotomic(d):
    """The d-th cyclotomic polynomial with integer coefficients."""
    assert d >= 1
    if d in _CYCLO_CACHE:
        return _CYCLO_CACHE[d]
    num = [0] * d + [1]
    num[0] = -1  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            num = poly_exact_div(num, cyclotomic(e))
    _CYCLO_CACHE[d] = num
    return num


def poly_xgcd(a, b):
    """(g, u, v) with u*a + v*b = g = gcd(a, b), over the rationals."""
    a = [Fraction(x) for x in poly_trim(a)]
    b = [Fraction(x) for x in poly_trim(b)]
    r0, r1 = a, b
    u0, u1 = [Fraction(1)], [Fraction(0)]
    v0, v1 = [Fraction(0)], [Fraction(1)]
    while poly_trim(r1):
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, poly_sub(u0, poly_mul(q, u1))
        v0, v1 = v1, poly_sub(v0, poly_mul(q, v1))
    return poly_trim(r0), poly_trim(u0), poly_trim(v0)


def defect_point_by_conjugates(p, q):
    """Sum over j = 1..p-1 of (1+z^j)(1+z^jq)/((1-z^j)(1-z^jq)), in
    integers in Z[x]/(x^p - 1), using 1/(1 - z^a) = -(1/p) sum_{k<p}
    k z^(ak). Reducing mod Phi_p subtracts the coefficient of x^(p-1)
    from every other one, so the sum is rational exactly when all its
    non-constant coefficients are equal."""

    def mul(a, b):
        out = [0] * p
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[(i + j) % p] += x * y
        return out

    def sum_k_zk(a):
        # sum_{k<p} k x^(ak), p times the inverse of -(1 - x^a)
        out = [0] * p
        for k in range(p):
            out[a * k % p] += k
        return out

    def one_plus(a):
        out = [1] + [0] * (p - 1)
        out[a % p] += 1
        return out

    total = [0] * p
    for j in range(1, p):
        term = mul(mul(one_plus(j), one_plus(j * q)),
                   mul(sum_k_zk(j), sum_k_zk(j * q)))
        total = [a + b for a, b in zip(total, term)]
    top = total[-1]
    assert len(set(total[1:])) == 1, "defect sum failed to be rational"
    # the two inverses contribute (-1/p)^2
    return Fraction(total[0] - top, p * p)


class DefectInput:
    """Local fixed-point data for one prime-order action.

    points: the q of each isolated point with local weights (1, q).
    surfaces: (self_intersection, euler_characteristic) per fixed surface.
    """

    def __init__(self, p, points, surfaces):
        for q in points:
            if q % p == 0:
                raise InvalidCharacter("point weight q must be a unit mod p")
        self.p, self.points, self.surfaces = p, points, surfaces


def defect_surface(p, self_int):
    """(p^2 - 1)/3 times the self-intersection: the surface defect."""
    return Fraction((p * p - 1) * self_int, 3)


def total_defect(data):
    """Sum of all point and surface defects of a DefectInput."""
    s = Fraction(0)
    for q in data.points:
        s += defect_point(data.p, q)
    for self_int, _euler in data.surfaces:
        s += defect_surface(data.p, self_int)
    return s


def signature_balance(p, sigma_N, sigma_quotient, data):
    """Check p * sigma(N/G) == sigma(N) + total defect, exactly."""
    assert data.p == p
    rhs = Fraction(sigma_N) + total_defect(data)
    lhs = Fraction(p * sigma_quotient)
    return {
        "p": p,
        "lhs": lhs,
        "rhs": rhs,
        "balanced": lhs == rhs,
        "discrepancy": lhs - rhs,
    }


def noether_identity_check(p, points, surfaces):
    """Evaluate m + (1/(p-1)) sum of point defects
    + sum over surfaces of (euler + (p+1)/3 * self_int); compare with 8.
    """
    m = len(points)
    val = Fraction(m)
    for q in points:
        val += defect_point(p, q) / (p - 1)
    for self_int, euler in surfaces:
        val += euler + Fraction((p + 1) * self_int, 3)
    return {"p": p, "value": val, "equals_8": val == 8}


def naive_enumerate_up_to(gram, bound, prune=True):
    """Box-search oracle: same output contract as fincke_pohst_up_to.

    Independent code path: coordinate boxes from the inverse Gram diagonal,
    optional pruning by Schur-complement completion bounds. With prune=False
    this is a pure brute-force scan suitable only for small ranks.
    """
    n = len(gram)
    if n == 0 or bound <= 0:
        return []
    G = to_fraction_matrix(gram)
    Ginv = inverse(G)
    bound = Fraction(bound)
    # |x_i| <= sqrt(bound * Ginv[i][i]), and floor(sqrt(W)) = isqrt(floor(W))
    boxes = [math.isqrt(math.floor(bound * Ginv[i][i])) for i in range(n)]
    completions = None
    if prune:
        # completions[k] bounds the full norm given the first k coordinates:
        # min over tails equals u * (A - B C^{-1} B^T) * u^T
        completions = {}
        for k in range(1, n):
            A = [row[:k] for row in G[:k]]
            B = [row[k:] for row in G[:k]]
            C = [row[k:] for row in G[k:]]
            Cinv = inverse(C)
            D = mat_mul(mat_mul(B, Cinv), transpose(B))
            completions[k] = [[A[i][j] - D[i][j] for j in range(k)]
                              for i in range(k)]
    out = []
    x = [0] * n

    def quad(M, v, k):
        acc = Fraction(0)
        for i in range(k):
            if v[i]:
                acc += M[i][i] * v[i] * v[i]
                for j in range(i + 1, k):
                    if v[j]:
                        acc += 2 * M[i][j] * v[i] * v[j]
        return acc

    def walk(i):
        if i == n:
            val = quad(G, x, n)
            if 0 < val <= bound and _is_canonical(x):
                out.append((tuple(x), val))
            return
        for xi in range(-boxes[i], boxes[i] + 1):
            x[i] = xi
            if prune and 0 < i + 1 < n:
                if quad(completions[i + 1], x, i + 1) > bound:
                    continue
            walk(i + 1)
        x[i] = 0

    walk(0)
    out.sort()
    return [(list(v), q) for v, q in out]


def cartan_dieudonne_o_plus(ambient, g):
    """O^+ oracle: constructive Cartan-Dieudonne over Q.

    Independent of the determinant test in k3lat.groups. Peels off one
    (or two) rational reflections per step, each fixing one more
    anisotropic vector, then restricts to that vector's orthogonal
    complement; g lies in O^+ iff the number of positive-norm reflection
    vectors is even. A reflection in v is the rank-one update
    A -> A - (A f) v with f = 2 gram v / (v gram v).
    """
    gram = to_fraction_matrix(ambient.gram)
    A = to_fraction_matrix(g)
    positive = 0
    while gram:
        n = len(gram)
        if mat_eq(A, identity_matrix(n)):
            break
        # anisotropic vector: a basis vector, or e_i + e_j on a zero diagonal
        x = [Fraction(0)] * n
        i = next((i for i in range(n) if gram[i][i] != 0), None)
        if i is None:
            i, j = next((i, j) for i in range(n) for j in range(n)
                        if i != j and gram[i][j] != 0)
            x[j] = Fraction(1)
        x[i] = Fraction(1)
        y = vec_mat(x, A)
        if y != x:
            diff = [a - b for a, b in zip(y, x)]
            if dot(vec_mat(diff, gram), diff) != 0:
                vs = [diff]
            else:
                # Q(y-x) + Q(y+x) = 4 Q(x) != 0, so the sum case applies
                vs = [[a + b for a, b in zip(y, x)], x]
            for v in vs:
                gv = vec_mat(v, gram)
                vv = dot(gv, v)
                if vv > 0:
                    positive += 1
                Af = [dot(row, gv) * 2 / vv for row in A]
                A = [[a - c * b for a, b in zip(row, v)]
                     for row, c in zip(A, Af)]
        assert vec_mat(x, A) == x
        # restrict to the orthogonal complement of x
        gx = vec_mat(x, gram)
        d = math.lcm(*[f.denominator for f in gx])
        K = int_kernel([[int(f * d) for f in gx]])
        if not K:
            break
        KF = to_fraction_matrix(K)
        # the restriction is rational: solve over Q
        A = solve_rows(KF, [vec_mat(row, A) for row in KF])
        assert A is not None
        gram = mat_mul(mat_mul(KF, gram), transpose(KF))
    return positive % 2 == 0


def find_a3a3_embedding():
    """Search E8 for the A_3 + A_3 configuration with diag(4, 4) complement.

    Deterministic scan over root chains r1 - r2 - r3 (pairings -1, -1, 0)
    and a second chain orthogonal to the first; accepts the first pair
    whose orthogonal complement admits two perpendicular norm-4 vectors
    forming a basis. Existence makes the scan terminate early.
    """
    C = cartan_matrix("E", 8)
    half = enumerate_vectors(Lattice(C), 2)
    roots = half + [[-x for x in v] for v in half]
    assert len(roots) == 240
    paired = [vec_mat(r, C) for r in roots]

    def chains(pool_idx):
        for a in pool_idx:
            for b in pool_idx:
                if dot(paired[a], roots[b]) != -1:
                    continue
                for c in pool_idx:
                    if dot(paired[b], roots[c]) == -1 and \
                            dot(paired[a], roots[c]) == 0:
                        yield a, b, c

    all_idx = range(len(roots))
    for i1, i2, i3 in chains(all_idx):
        chain1 = [roots[i1], roots[i2], roots[i3]]
        perp = [t for t in all_idx
                if all(dot(paired[t], chain1[s]) == 0 for s in range(3))]
        for j1, j2, j3 in chains(perp):
            chain2 = [roots[j1], roots[j2], roots[j3]]
            rows = [paired[t] for t in (i1, i2, i3, j1, j2, j3)]
            K = int_kernel(rows)
            if len(K) != 2:
                continue
            GK = to_int_matrix(gram_of_rows(K, C))
            found = _perpendicular_four_basis(GK)
            if found is None:
                continue
            comp = [vec_mat(found[0], K), vec_mat(found[1], K)]
            return {"chain1": chain1, "chain2": chain2, "complement": comp}
    raise AssertionError("exhaustive scan found no admissible embedding")


def _perpendicular_four_basis(GK):
    """Unimodular basis change of a binary form to diag(4, 4), or None."""
    vv = enumerate_vectors(Lattice(GK), 4)
    for a in range(len(vv)):
        ga = vec_mat(vv[a], GK)
        for b in range(a + 1, len(vv)):
            if dot(ga, vv[b]) == 0 and abs(det([vv[a], vv[b]])) == 1:
                return vv[a], vv[b]
    return None


def anti_isometry_images(D_src, D_dst, budget=10 ** 6):
    """Generator images of an anti-isometry D_src -> D_dst, or None.

    Anti means all quadratic values flip sign; found by searching for an
    isomorphism from the opposite form of D_src onto D_dst and reading
    it through the identity-on-cosets map.
    """
    Dop = D_src.opposite()
    imgs = disc_form_isometry_images(Dop, D_dst, budget=budget)
    if imgs is None:
        return None
    return [disc_combination(D_dst, disc_reduce(Dop, lift), imgs)
            for lift in D_src.lifts]


def derive_model_glue_images(p, budget=10 ** 6):
    """Recompute the glue images for p by search (pins come from here)."""
    fam = family(p)
    W = GLUE_PARTNERS[p]()
    images = anti_isometry_images(DiscriminantForm(fam.K.gram),
                                  DiscriminantForm(W.gram), budget=budget)
    assert images is not None, "no anti-isometry found for p = %d" % p
    return images


def derive_coxeter_glue_images(budget=10 ** 6):
    """Recompute the Coxeter-model glue images by search."""
    A26 = direct_sum(*[root_lattice("A", 2, -1) for _ in range(6)])
    X = _coxeter_partner()
    images = anti_isometry_images(DiscriminantForm(A26.gram),
                                  DiscriminantForm(X.gram), budget=budget)
    assert images is not None, "no anti-isometry found for the Coxeter model"
    return images


def k_vector_uniqueness(p):
    """The square multiset of k is the only one summing to 0 in F_p.

    Exhausts all multisets of nonzero squares of length nu. For p = 2
    there is nothing to check and the report says so.
    """
    if p == 2:
        return {"p": 2, "vacuous": True}
    k = nikulin.K_VECTORS[p]
    nu = len(k)
    squares = sorted({(x * x) % p for x in range(1, p)})
    target = sorted((x * x) % p for x in k)
    solutions = [list(c)
                 for c in itertools.combinations_with_replacement(squares, nu)
                 if sum(c) % p == 0]
    report = {"p": p, "vacuous": False, "solutions": solutions,
              "expected": target,
              "unique": solutions == [target]}
    assert report["unique"], report
    return report


def hermitian_pairing_smoke(fam, samples=6):
    """Orbit sums u . sigma^j u' vanish: the sesquilinear pairing built
    from the rotation takes values in the augmentation ideal."""
    n = len(fam.sigma_L)
    powers = [identity_matrix(n)]
    for _ in range(fam.p - 1):
        powers.append(mat_mul(powers[-1], fam.sigma_L))
    G = fam.L.gram
    totals = []
    for a in range(min(samples, n)):
        for b in range(min(samples, n)):
            u = [1 if t == a else 0 for t in range(n)]
            v = [1 if t == b else 0 for t in range(n)]
            totals.append(sum(dot(vec_mat(u, G), vec_mat(v, P))
                              for P in powers))
    all_zero = not any(totals)
    fam.checks["hermitian_orbit_sums_vanish"] = all_zero
    return {"p": fam.p, "pairs_checked": len(totals), "all_zero": all_zero}


def build_full(p, aut_budget=10 ** 6):
    """Build the whole family at p and record every report in fam.checks;
    returns the family object, built afresh rather than the shared cached
    one, since the reports are written into it."""
    fam = nikulin.family(p)
    k_vector_uniqueness(p)
    hermitian_pairing_smoke(fam)
    if p in (3, 5, 7):
        fam.checks["genus"] = nikulin.genus_check_lambda_G(p, fam)
    fam.checks["aut_search"] = nikulin.aut_trivial_on_disc_search(
        fam, aut_budget)
    return fam
