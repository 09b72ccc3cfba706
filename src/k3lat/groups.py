"""Finite isometry groups of a lattice and their homological invariants.

Covers group validation/closure, fixed sublattices, rational classes and
the Q-isotypic components their class sums split the lattice into, the
coinvariant sublattice L_G (one rule for every finite group), the
profile (t, c, r) of a prime-order element g and the direct-summand
check of its regular part, both read off one Smith form of g - 1, and
membership in O^+, the isometries preserving the orientation of
positive-definite 3-planes: the sign of one small determinant,
det(P g G P^T) for a positive-definite basis P, which is never 0.
"""

from fractions import Fraction
import math

from . import is_prime
from .matrix import (
    char_poly,
    det,
    identity_matrix,
    int_kernel,
    mat_eq,
    mat_mul,
    mat_scale,
    mat_sub,
    matrix_order,
    snf,
    transpose,
)
from .lattice import (
    DiscriminantForm,
    diagonalize,
    express_in_basis,
    gram_of_rows,
    signature_of_gram,
)


class NotAnIsometry(ValueError):
    pass


class NotFinite(ValueError):
    pass


class IsometryGroup:
    """A finite subgroup of O(ambient) given by generator matrices.

    Matrices act on row vectors from the right. Closure is computed on
    demand by breadth-first products and cached; an element cap guards
    against accidentally infinite input. Beside the elements, identity
    first, the closure keeps the index table _table, with _table[a][j]
    the index of elements[a] * generators[j], and _words, a breadth-first
    generator word for each element.
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
            index = {tuple(map(tuple, I)): 0}
            elements, self._table, self._words = [I], [], [()]
            # the list is its own breadth-first queue: new elements join
            # its end, and row a of the table fills when the loop reaches a
            for a, x in enumerate(elements):
                row = []
                for j, g in enumerate(self.generators):
                    prod = mat_mul(x, g)
                    key = tuple(map(tuple, prod))
                    row.append(index.setdefault(key, len(elements)))
                    if row[-1] == len(elements):
                        elements.append(prod)
                        self._words.append(self._words[a] + (j,))
                self._table.append(row)
                if len(elements) > self.element_cap:
                    raise NotFinite("group exceeds element cap %d"
                                    % self.element_cap)
            self._elements = elements
        return self._elements

    def _mul(self, a, b):
        """The index of elements[a] * elements[b]: b's word, walked from a."""
        for j in self._words[b]:
            a = self._table[a][j]
        return a

    def order(self):
        return len(self.elements())

    def fixed_sublattice(self):
        """Basis rows, in row HNF, of the saturated sublattice of vectors
        fixed by every generator: the identity rows when there is none."""
        I = identity_matrix(self.ambient.rank)
        if not self.generators:
            return I
        return int_kernel([row for g in self.generators
                           for row in transpose(mat_sub(g, I))])


def jordan_blocks(p, t, c, r):
    """Size -> count of the Jordan blocks of g - 1 mod p for the profile
    (t, c, r): its summands give blocks of sizes 1, p - 1 and p."""
    blocks = {}
    for size, count in ((1, t), (p - 1, c), (p, r)):
        if count:
            blocks[size] = blocks.get(size, 0) + count
    return blocks


class ZGDecomposition:
    """Summand counts of a prime-order lattice automorphism g.

    t trivial (rank 1), c cyclotomic (rank p-1), r regular (rank p);
    t + c(p-1) + r*p equals the rank of the module. divisors are the
    nonzero Smith divisors of g - 1; jordan_blocks follow from (t, c, r).
    """

    def __init__(self, p, t, c, r, divisors):
        self.p, self.t, self.c, self.r = p, t, c, r
        self.divisors = divisors
        self.jordan_blocks = jordan_blocks(p, t, c, r)


def zg_decomposition(g, p):
    """The (t, c, r) profile of an isometry of prime order p (or 1).

    By Reiner (Curtis and Reiner, Methods of Representation Theory I,
    34) coker(g - 1) is Z^(t+r) + (Z/p)^c, so one Smith form of g - 1
    gives the profile: t + r divisors 0, c divisors p, the rest 1. Any
    other divisors raise ArithmeticError naming them.
    """
    if not is_prime(p):
        raise ValueError("p must be a prime, got %d" % p)
    if matrix_order(g, cap=p) not in (1, p):
        raise ValueError("element does not have order dividing %d" % p)
    n = len(g)
    S, _ = snf(mat_sub(g, identity_matrix(n)))
    divisors = [S[i][i] for i in range(n) if S[i][i]]
    c = divisors.count(p)
    # n - #{0} - c(p - 1) = r(p - 1), and #{0} = t + r
    r, rest = divmod(len(divisors) - c * (p - 1), p - 1)
    t = n - len(divisors) - r
    if rest or r < 0 or t < 0 or any(d not in (1, p) for d in divisors):
        raise ArithmeticError("the Smith divisors %s of g - 1 give no "
                              "t/c/r profile at p = %d" % (divisors, p))
    return ZGDecomposition(p, t, c, r, divisors)


def regular_summand_discriminant_check(coinvariant, g, dec):
    """For c = 0 elements: im(g-1) is a direct summand iff every divisor
    of dec is 1, and fixed^perp has discriminant (Z/p)^r when the ambient
    is unimodular. coinvariant is the CoinvariantResult of the group g
    generates, whose fixed^perp Gram is read; dec is zg_decomposition(g).
    """
    if dec.c != 0:
        raise ValueError("check applies only when no cyclotomic summand occurs")
    fixed, ambient = coinvariant.fixed, coinvariant.ambient
    # a saturated sublattice fixed by g with the rank t + r of ker(g - 1)
    # is the fixed lattice of g
    if not (mat_eq(mat_mul(fixed, g), fixed)
            and len(fixed) == dec.t + dec.r):
        raise ValueError("coinvariant must be the result for the group "
                         "g generates")
    report = {
        "p": dec.p,
        "t": dec.t,
        "r": dec.r,
        "image_is_direct_summand": all(d == 1 for d in dec.divisors),
    }
    if abs(ambient.determinant()) == 1:
        orders = DiscriminantForm(coinvariant.complement_gram).cyclic_orders
        report["complement_disc_orders"] = orders
        report["disc_dimension_over_Fp"] = len(orders)
        report["disc_is_Fp_space_of_dim_r"] = (
            all(o == dec.p for o in orders) and len(orders) == dec.r)
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
    """L_G and how it was determined, for callers to read.

    ambient is the group's lattice. fixed, complement and L_G are the
    basis rows, in ambient coordinates and row HNF, of the fixed
    sublattice, its orthogonal complement fixed^perp and L_G, each built
    once; fixed_gram, complement_gram and L_G_gram are their Grams, each
    computed once ([] for no rows). pieces holds the sorted (rank, sig_+)
    pairs L_G was built from: the fixed lattice and its complement, split
    into the Q-isotypic components unless the fixed lattice holds a
    positive 3-plane and no projectors came. L_G is the saturated span of
    the pieces with sig_+ = 0; unsplit, it is complement, on the same
    rows. fixed_plus is the sig_+ of the fixed lattice (0 if zero), and
    mode a label: supplied-isotypic when caller projectors were checked,
    else pointwise-fixed-3-plane when fixed_plus is 3, else
    rotation-on-3-plane.
    """

    def __init__(self, ambient, fixed, fixed_gram, complement,
                 complement_gram, L_G, L_G_gram, mode, pieces, fixed_plus):
        self.ambient = ambient
        self.fixed, self.fixed_gram = fixed, fixed_gram
        self.complement, self.complement_gram = complement, complement_gram
        self.L_G, self.L_G_gram = L_G, L_G_gram
        self.mode, self.pieces, self.fixed_plus = mode, pieces, fixed_plus


def coinvariant_L_G(group, isotypic_data=None):
    """The coinvariant sublattice L_G of a finite isometry group on K3.

    One rule: of the Q-isotypic components of H_2, those with a positive
    part meet an invariant positive 3-plane, and L_G is the saturated
    span of the others. The pieces start as the fixed lattice, the
    trivial component, and its complement. When the fixed lattice holds
    a positive 3-plane the complement is negative definite, all of it
    L_G, so the class sums split it only to check projectors, and a
    large group is never closed. Any other group is refused with
    ValueError outside O^+, and split. Optional rational projectors
    (isotypic_data) must sum to 1 and act on every component as 0 or 1;
    they play no part in computing L_G.
    """
    ambient = group.ambient
    n = ambient.rank
    if ambient.signature() != (3, 19, 0):
        raise ValueError(
            "coinvariant analysis is specific to the K3 lattice signature")
    if isotypic_data is not None and any(
            len(E) != n or any(len(r) != n for r in E) for E in isotypic_data):
        raise ValueError("projectors must be %d x %d matrices" % (n, n))
    fixed = group.fixed_sublattice()
    fixed_gram = gram_of_rows(fixed, ambient.gram)
    sigs = [signature_of_gram(fixed_gram)] if fixed else []
    fixed_plus = sigs[0][0] if sigs else 0
    if fixed_plus != 3 and not all(
            spinor_plus_membership(ambient, g) for g in group.generators):
        raise ValueError("no orientation-compatible invariant positive "
                         "3-plane: the group does not lie in O^+")
    complement = (int_kernel(mat_mul(fixed, ambient.gram)) if fixed
                  else identity_matrix(n))
    complement_gram = gram_of_rows(complement, ambient.gram)
    comps = [B for B in (fixed, complement) if B]
    split = fixed_plus != 3 or isotypic_data is not None
    if split:
        comps = isotypic_components(group, comps)
        # every class sum is the scalar |C| on the fixed lattice, so a
        # split keeps it whole and first
        sigs += [signature_of_gram(gram_of_rows(B, ambient.gram))
                 for B in comps[len(sigs):]]
    elif complement:
        sigs.append(signature_of_gram(complement_gram))
    rank, plus = sum(map(len, comps)), sum(p for p, _, _ in sigs)
    if rank != n or plus != 3 or any(z for _, _, z in sigs):
        raise AssertionError(
            "isotypic components must be nondegenerate with ranks summing "
            "to %d and sig_+ to 3, got %d and %d" % (n, rank, plus))
    if split:
        # the pieces without a positive part may span a proper sublattice;
        # its saturation has their rank, which must be their row count
        keep = [row for B, (p, _, _) in zip(comps, sigs) if not p
                for row in B]
        L = int_kernel(int_kernel(keep))
        L_gram = gram_of_rows(L, ambient.gram)
        if L and signature_of_gram(L_gram)[1] != len(L):
            raise AssertionError("L_G must be negative definite or zero")
        if len(L) != len(keep):
            raise AssertionError("the isotypic components without a "
                                 "positive part must be independent")
    else:
        # L_G is the one piece fixed^perp, which int_kernel gave
        # saturated and the sum check above found negative definite
        L, L_gram = complement, complement_gram
    if L:
        for g in group.generators:
            express_in_basis(mat_mul(L, g), L, "L_G must be G-invariant")
    if isotypic_data is not None:
        _check_projectors(isotypic_data, comps)
        mode = "supplied-isotypic"
    elif fixed_plus == 3:
        mode = "pointwise-fixed-3-plane"
    else:
        mode = "rotation-on-3-plane"
    pieces = sorted((len(B), p) for B, (p, _, _) in zip(comps, sigs))
    return CoinvariantResult(ambient, fixed, fixed_gram, complement,
                             complement_gram, L, L_gram, mode, pieces,
                             fixed_plus)


def rational_classes(group):
    """The rational classes of G, each a list of matrices.

    g and h are rationally conjugate when <g> and <h> are conjugate, so
    the class of x is the conjugation orbit of the generators x^k of <x>,
    k prime to the order of x. The orbit closes under conjugation by the
    group generators alone, since G is finite. Powers and conjugates are
    read off the closure's index table, so no matrix is multiplied or
    inverted here.
    """
    elements = group.elements()
    R, mul = group._table, group._mul
    # g_j^-1 is the a with R[a][j] = 0, the index of the identity
    ginv = [row.index(0) for row in zip(*R)]
    seen = set()
    classes = []
    for x in range(len(elements)):
        if x in seen:
            continue
        powers = [x]
        while powers[-1]:
            powers.append(mul(powers[-1], x))
        orbit = dict.fromkeys(p for k, p in enumerate(powers, 1)
                              if math.gcd(k, len(powers)) == 1)
        stack = list(orbit)
        while stack:
            y = stack.pop()
            for j, gi in enumerate(ginv):
                z = R[mul(gi, y)][j]
                if z not in orbit:
                    orbit[z] = None
                    stack.append(z)
        seen.update(orbit)
        classes.append([elements[i] for i in orbit])
    return classes


def isotypic_components(group, pieces):
    """Saturated bases of the Q-isotypic components of the ambient lattice,
    split from pieces: saturated bases of G-invariant sublattices whose
    spans sum directly to the whole space.

    The rational class sums S_C span the Galois-fixed centre of Q[G],
    which holds every central primitive idempotent (Serre, Linear
    Representations of Finite Groups, 12-13). So S_C acts on each
    component as an integer of absolute value at most |C|, and the joint
    eigenspaces of the S_C are the components. A piece that already is
    one, such as the fixed lattice, on which S_C is the scalar |C|, stays
    whole and in place; any other is split by one integer kernel per
    root of the characteristic polynomial of S_C on it.
    """
    # the first class is {1}, which splits nothing
    for C in rational_classes(group)[1:]:
        S = [[sum(col) for col in zip(*rows)] for rows in zip(*C)]
        pieces = [part for B in pieces
                  for part in _eigenspaces(B, S, len(C))]
    return pieces


def _eigenspaces(B, S, bound):
    """The span of B split by the integer eigenvalues of S, |lam| <= bound."""
    BS = mat_mul(B, S)
    # S is scalar on the span iff B S is the multiple BS[0][j] / B[0][j]
    # of B, for a nonzero B[0][j]: tested in integers, with no solve
    j = next(j for j, x in enumerate(B[0]) if x)
    if all(a * B[0][j] == BS[0][j] * b
           for ra, rb in zip(BS, B) for a, b in zip(ra, rb)):
        return [B]
    cp = char_poly(express_in_basis(
        BS, B, "a class sum must preserve each isotypic piece"))
    return [mat_mul(int_kernel(transpose(mat_sub(BS, mat_scale(lam, B)))), B)
            for lam in range(-bound, bound + 1)
            if sum(c * lam ** i for i, c in enumerate(cp)) == 0]


def _check_projectors(projectors, comps):
    """Supplied projectors must sum to 1 and act on every component as 0
    or 1, which makes each one idempotent and equivariant, and any two
    annihilate each other."""
    n = len(comps[0][0])
    F = [[list(map(Fraction, row)) for row in E] for E in projectors]
    # the checks run on the integral Z = D E, D a common denominator
    D = math.lcm(*[x.denominator for E in F for row in E for x in row])
    Z = [[[int(x * D) for x in row] for row in E] for E in F]
    total = [[sum(E[i][j] for E in Z) for j in range(n)] for i in range(n)]
    if not mat_eq(total, mat_scale(D, identity_matrix(n))):
        raise ValueError("projectors must sum to 1")
    for idx, E in enumerate(Z):
        for B in comps:
            BE = mat_mul(B, E)
            if any(map(any, BE)) and not mat_eq(BE, mat_scale(D, B)):
                if not mat_eq(mat_mul(BE, E), mat_scale(D, BE)):
                    raise ValueError("projector %d is not idempotent" % idx)
                raise ValueError("projector %d acts on the isotypic "
                                 "component of rank %d neither as 0 nor as 1"
                                 % (idx, len(B)))
