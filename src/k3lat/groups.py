"""Finite isometry groups of a lattice and their homological invariants.

Covers group validation/closure, fixed sublattices, the coinvariant
sublattice L_G (pointwise-fixed, cyclic, and projector-supplied modes),
module decomposition counts (t, c, r) for prime-order elements, the
direct-summand check for the regular part, and membership in O^+, the
isometries preserving the orientation of positive-definite 3-planes:
the sign of one small determinant, det(P g G P^T) for a positive-definite
basis P, which is never 0.
"""

from fractions import Fraction
from itertools import chain
import math
from operator import mul

from .matrix import (
    det,
    identity_matrix,
    int_kernel,
    is_integral,
    mat_eq,
    mat_mul,
    mat_scale,
    mat_sub,
    matrix_order,
    rank as qrank,
    rank_mod_p,
    transpose,
    vec_mat,
    zero_matrix,
)
from .lattice import (
    Sublattice,
    diagonalize,
    express_in_basis,
    signature_of_gram,
)
from .polys import cyclotomic, poly_eval_matrix


class NotAnIsometry(ValueError):
    pass


class NotFinite(ValueError):
    pass


class NeedIsotypicData(ValueError):
    pass


class UnsupportedSchurType(ValueError):
    pass


class NotAZGLattice(ValueError):
    pass


def _key(M):
    return tuple(tuple(row) for row in M)


class IsometryGroup:
    """A finite subgroup of O(ambient) given by generator matrices.

    Matrices act on row vectors from the right. Closure is computed on
    demand by breadth-first products and cached; an element cap guards
    against accidentally infinite input.
    """

    def __init__(self, ambient, generators, element_cap=10 ** 5):
        self.ambient = ambient
        self.generators = [[list(map(int, row)) for row in g]
                           for g in generators]
        self.element_cap = element_cap
        self._elements = None
        G = ambient.gram
        for g in self.generators:
            if len(g) != ambient.rank:
                raise NotAnIsometry("generator has wrong size")
            if not mat_eq(mat_mul(mat_mul(g, G), transpose(g)), G):
                raise NotAnIsometry("generator does not preserve the form")

    def elements(self):
        if self._elements is None:
            I = identity_matrix(self.ambient.rank)
            seen = {_key(I): I}
            frontier = [I]
            while frontier:
                new = []
                for a in frontier:
                    for g in self.generators:
                        prod = mat_mul(a, g)
                        k = _key(prod)
                        if k not in seen:
                            seen[k] = prod
                            new.append(prod)
                            if len(seen) > self.element_cap:
                                raise NotFinite(
                                    "group exceeds element cap %d"
                                    % self.element_cap)
                frontier = new
            self._elements = list(seen.values())
        return self._elements

    def order(self):
        return len(self.elements())

    def cyclic_generator(self):
        """An element of order |G| if one exists, else None."""
        n = self.order()
        for g in self.elements():
            if matrix_order(g, cap=n) == n:
                return g
        return None

    def fixed_sublattice(self):
        return fixed_sublattice(self.ambient, self.generators)


def fixed_sublattice(ambient, generators):
    """Saturated sublattice of vectors fixed by every generator."""
    if not generators:
        return ambient.full_sublattice()
    n = ambient.rank
    rows = []
    for g in generators:
        rows.extend(transpose(mat_sub(g, identity_matrix(n))))
    basis = int_kernel(rows)
    return Sublattice(ambient, basis)


class ZGDecomposition:
    """Summand counts of a prime-order lattice automorphism.

    t trivial (rank 1), c cyclotomic (rank p-1), r regular (rank p);
    t + c(p-1) + r*p equals the rank of the module.
    """

    def __init__(self, p, t, c, r, jordan_blocks=None):
        self.p, self.t, self.c, self.r = p, t, c, r
        self.jordan_blocks = {} if jordan_blocks is None else jordan_blocks

    def rank(self):
        return self.t + self.c * (self.p - 1) + self.r * self.p


def zg_decomposition(g, p):
    """Detect the (t, c, r) summand counts of an order-p (or 1) isometry.

    Works mod p via the Jordan partition of the nilpotent g-1 and
    cross-checks against rational kernel dimensions.
    """
    n = len(g)
    I = identity_matrix(n)
    power = g
    for _ in range(p - 1):
        power = mat_mul(power, g)
    if not mat_eq(power, I):
        raise ValueError("element does not have order dividing %d" % p)
    N = mat_sub(g, I)
    ranks = [n]
    M = I
    for _ in range(p + 1):
        M = mat_mul(M, N)
        ranks.append(rank_mod_p(M, p))
    blocks = {}
    for k in range(1, p + 1):
        m_k = ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]
        assert m_k >= 0
        if m_k:
            blocks[k] = m_k
    allowed = {1, p - 1, p}
    if any(k not in allowed for k in blocks):
        raise NotAZGLattice("Jordan block sizes %s admit no t/c/r splitting"
                            % sorted(blocks))
    dim_fix = n - qrank(N)
    if p == 2:
        r = blocks.get(2, 0)
        t = dim_fix - r
        Nplus = [[g[i][j] + I[i][j] for j in range(n)] for i in range(n)]
        c = (n - qrank(Nplus)) - r
        if t < 0 or c < 0 or t + c != blocks.get(1, 0):
            raise NotAZGLattice("mod-2 profile inconsistent with Z-structure")
    else:
        t = blocks.get(1, 0)
        c = blocks.get(p - 1, 0)
        r = blocks.get(p, 0)
        if dim_fix != t + r:
            raise NotAZGLattice("rational fixed rank disagrees with profile")
        phi_rank = n - qrank(poly_eval_matrix(cyclotomic(p), g))
        if phi_rank != (c + r) * (p - 1):
            raise NotAZGLattice("cyclotomic kernel disagrees with profile")
    dec = ZGDecomposition(p, t, c, r, blocks)
    assert dec.rank() == n
    return dec


def regular_summand_discriminant_check(ambient, g, dec):
    """For c = 0 elements: im(g-1) is a direct summand, and the complement
    of the fixed lattice has discriminant (Z/p)^r when ambient is unimodular.
    dec is the zg_decomposition of g.
    """
    p = dec.p
    if dec.c != 0:
        raise ValueError("check applies only when no cyclotomic summand occurs")
    n = ambient.rank
    N = mat_sub(g, identity_matrix(n))
    from .matrix import snf
    S, _, _ = snf(N)
    divisors = [S[i][i] for i in range(n)]
    summand = all(d in (0, 1) for d in divisors)
    report = {
        "p": p,
        "t": dec.t,
        "r": dec.r,
        "image_is_direct_summand": summand,
        "snf_divisors": sorted(d for d in divisors if d),
    }
    if abs(ambient.determinant()) == 1:
        fixed = fixed_sublattice(ambient, [g])
        comp = fixed.orthogonal_complement()
        if comp.rank:
            disc = comp.as_lattice().discriminant_group()
            orders = disc.cyclic_orders
        else:
            orders = []
        report["complement_disc_orders"] = orders
        report["disc_dimension_over_Fp"] = len(orders)
        report["disc_is_Fp_space_of_dim_r"] = (
            all(o == p for o in orders) and len(orders) == dec.r)
    return report


def spinor_plus_membership(ambient, g):
    """Whether g preserves the orientation of positive-definite 3-planes.

    Let the rows of P be an integral basis of a maximal positive-definite
    subspace, from one congruence diagonalization of the form. Then g lies
    in O^+ iff det(P g G P^T) > 0: the matrix is the Gram pairing of the
    image plane g(P) against P, and its determinant is never 0, because
    g(P) is positive definite and P^perp is negative definite, so g(P)
    meets P^perp only in 0.
    """
    G = ambient.gram
    if not mat_eq(mat_mul(mat_mul(g, G), transpose(g)), G):
        raise NotAnIsometry("matrix does not preserve the form")
    rows, norms, _ = diagonalize(G)
    P = [row for row, d in zip(rows, norms) if d > 0]
    return det(mat_mul(mat_mul(P, g), transpose(mat_mul(P, G)))) > 0


class CoinvariantResult:
    """L_G and how it was determined.

    mode is one of pointwise-fixed-3-plane, rotation-on-3-plane,
    supplied-isotypic. p_types labels the components that meet an
    invariant positive 3-plane (those with a positive part); L_G is the
    saturated span of the other components.
    """

    def __init__(self, L_G, fixed, mode, p_types):
        self.L_G, self.fixed, self.mode = L_G, fixed, mode
        self.p_types = p_types


def coinvariant_L_G(group, isotypic_data=None):
    """The coinvariant sublattice L_G of a finite isometry group on K3.

    One rule in every mode: of the Q-isotypic components of H_2, those
    with a positive part meet an invariant positive 3-plane, and L_G is
    the saturated span of the others. The components come from a
    pointwise-fixed positive 3-plane (the fixed lattice and its
    complement), from the cyclotomic kernels of a cyclic generator, or
    from caller-supplied rational isotypic projectors for non-cyclic
    groups. A cyclic group outside O^+ is refused with ValueError.
    """
    ambient = group.ambient
    if ambient.signature() != (3, 19, 0):
        raise ValueError(
            "coinvariant analysis is specific to the K3 lattice signature")
    fixed = group.fixed_sublattice()
    if fixed.rank:
        fp, fm, fz = signature_of_gram(fixed.gram())
    else:
        fp = fm = fz = 0
    if fp == 3:
        L = fixed.orthogonal_complement()
        res = CoinvariantResult(L, fixed, "pointwise-fixed-3-plane",
                                ["trivial"])
        _check_coinvariant(group, res)
        return res

    gen = group.cyclic_generator()
    if gen is not None:
        return _cyclic_coinvariant(group, gen, fixed)
    if isotypic_data is None:
        raise NeedIsotypicData(
            "non-cyclic group: supply rational isotypic projectors")
    return _projector_coinvariant(group, isotypic_data, fixed)


def _cyclic_coinvariant(group, g, fixed):
    """L_G from the saturated cyclotomic kernels K_d = ker Phi_d(g).

    The K_d are mutually orthogonal, so an invariant positive 3-plane
    splits along them and the positive parts a_d = sig_+(K_d) sum to 3.
    g acts on that plane with determinant (-1)^{a_2}, since the rotation
    parts (d >= 3) have determinant +1, so g lies in O^+ iff a_2 is even.
    """
    ambient = group.ambient
    N = group.order()
    comps = {}
    for d in range(1, N + 1):
        if N % d:
            continue
        M = poly_eval_matrix(cyclotomic(d), g)
        basis = int_kernel(transpose(M))
        if basis:
            comps[d] = basis
    assert sum(len(b) for b in comps.values()) == ambient.rank

    a_plus = {}
    for d, basis in comps.items():
        plus, minus, zero = signature_of_gram(
            mat_mul(mat_mul(basis, ambient.gram), transpose(basis)))
        assert zero == 0
        a_plus[d] = plus
    assert sum(a_plus.values()) == 3, "positive part bookkeeping failed"
    if a_plus.get(2, 0) % 2:
        raise ValueError("no orientation-compatible invariant positive "
                         "3-plane: the group does not lie in O^+")

    p_types = []
    for d, a in sorted(a_plus.items()):
        # one label per positive line (d <= 2) or positive plane (d >= 3)
        name = {1: "trivial", 2: "sign"}.get(d, "rotation(d=%d)" % d)
        p_types.extend([name] * (a if d <= 2 else a // 2))
    keep = [row for d, b in sorted(comps.items()) if not a_plus[d]
            for row in b]
    L = Sublattice(ambient, keep).saturation()
    res = CoinvariantResult(L, fixed, "rotation-on-3-plane", p_types)
    _check_coinvariant(group, res)
    return res


def _projector_coinvariant(group, projectors, fixed):
    ambient = group.ambient
    n = ambient.rank
    if any(len(E) != n or any(len(r) != n for r in E) for E in projectors):
        raise ValueError("projectors must be %d x %d matrices" % (n, n))
    F = [[list(map(Fraction, row)) for row in E] for E in projectors]
    # the checks run on the integral Z = D E, D a common denominator:
    # E E = E iff Z Z = D Z, and the other identities scale alike
    D = math.lcm(*[x.denominator for E in F for row in E for x in row])
    Z = [[[int(x * D) for x in row] for row in E] for E in F]
    DI = mat_scale(D, identity_matrix(n))
    total = [[sum(E[i][j] for E in Z) for j in range(n)] for i in range(n)]
    if not mat_eq(total, DI):
        raise ValueError("projectors must sum to 1")
    for idx, E in enumerate(Z):
        if not mat_eq(mat_mul(E, E), mat_scale(D, E)):
            raise ValueError("projector %d is not idempotent" % idx)
        for jdx in range(idx + 1, len(Z)):
            if not mat_eq(mat_mul(E, Z[jdx]), zero_matrix(n, n)):
                raise ValueError("projectors %d,%d do not annihilate"
                                 % (idx, jdx))
        for gmat in group.generators:
            if not mat_eq(mat_mul(gmat, E), mat_mul(E, gmat)):
                raise ValueError("projector %d is not equivariant" % idx)

    # E is equivariant, so G acts on its image with character
    # chi(g) = tr(g E) = tr(g Z)/D: no change of basis per element
    elements = group.elements()
    squares = [mat_mul(g, g) for g in elements]
    order = len(elements)
    keep = []
    p_types = []
    for idx, E in enumerate(Z):
        # integral saturated basis of (image of E) cap lattice
        basis = int_kernel(transpose(mat_sub(DI, E)))
        if not basis:
            continue
        # Frobenius-Schur indicator (1/|G|) sum chi(g^2)
        s = sum(_character(squares, E, D)) / order
        # <chi, chi> = (1/|G|) sum chi(g) chi(g^-1); chi is rational-valued
        # here, so chi(g^-1) = conj chi(g) = chi(g) and the sum is of chi^2
        i_val = sum(c * c for c in _character(elements, E, D)) / order
        if s <= 0:
            raise UnsupportedSchurType(
                "component %d has non-real Schur type (indicator %s)"
                % (idx, s))
        mult = i_val / s
        z = s * s / i_val
        if mult.denominator != 1 or z != 1:
            raise UnsupportedSchurType(
                "component %d is not a single real-type isotypic piece" % idx)
        plus, minus, zero = signature_of_gram(
            mat_mul(mat_mul(basis, ambient.gram), transpose(basis)))
        assert zero == 0
        if plus:
            p_types.append("component-%d" % idx)
        else:
            keep.extend(basis)
    L = Sublattice(ambient, keep).saturation()
    res = CoinvariantResult(L, fixed, "supplied-isotypic", p_types)
    _check_coinvariant(group, res)
    return res


def _character(elements, Z, D):
    """tr(g Z)/D for each g: the character of G on the image of the
    equivariant projector Z/D."""
    Zt = list(chain.from_iterable(zip(*Z)))
    return [Fraction(sum(map(mul, chain.from_iterable(g), Zt)), D)
            for g in elements]


def _check_coinvariant(group, res):
    L = res.L_G
    if L.rank == 0:
        return
    gram = L.gram()
    p, m, z = signature_of_gram(gram)
    assert p == 0 and z == 0, "L_G must be negative definite or zero"
    for g in group.generators:
        imgs = [vec_mat(row, g) for row in L.basis]
        X = express_in_basis(imgs, L.basis)
        assert X is not None and is_integral(X), "L_G must be G-invariant"
