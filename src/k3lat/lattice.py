"""Integral lattices presented by Gram matrices.

A lattice here is Z^n equipped with a symmetric integer Gram matrix; basis
vectors are rows and an isometry acts on the right of a row vector. A
sublattice is its basis rows in ambient coordinates: independent and, as
int_kernel returns them, in row HNF; gram_of_rows gives its Gram. A
DiscriminantForm is the finite quadratic form on dual-quotient of a
nondegenerate even lattice; two p-elementary ones are isometric iff their
orders and q-value counts agree.
"""

from collections import Counter
from fractions import Fraction
import itertools
import math

from .matrix import (
    _solve_int,
    block_diag,
    copy_matrix,
    det,
    dot,
    identity_matrix,
    mat_mul,
    snf,
    transpose,
    vec_mat,
)


def diagonalize(gram):
    """Congruence diagonalization of an integer symmetric matrix.

    Returns (rows, norms, nullity): integer row vectors with
    rows * gram * rows^T = diag(norms), every norm a nonzero integer, and
    the dimension of the radical, so len(rows) + nullity = n. The rows
    come from an invertible change of basis, so the signs of norms are the
    inertia. Each pivot updates only the still-active block: rows and
    columns already split off are zero off the diagonal and stay so.

    The elimination is fraction-free (Bareiss). After pivots P, an active
    entry M[k][c] is the minor of gram on rows P + [k] and columns
    P + [c], and T[k] is the previous pivot prev times the rational row,
    integral by Cramer's rule; so the division by prev in each update is
    exact. The pair step e_i += e_j is a unimodular change of the basis
    that leaves the pivot rows alone, and minors are linear in rows, so
    it keeps both facts. The row of a pivot d then has norm d * prev.
    """
    n = len(gram)
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(i)):
        raise ValueError("Gram matrix must be symmetric")
    M = [row[:] for row in gram]
    T = identity_matrix(n)
    active = list(range(n))
    rows, norms = [], []
    prev = 1
    while active:
        piv = next((i for i in active if M[i][i] != 0), None)
        if piv is None:
            pair = next(((i, j) for i in active for j in active
                         if i != j and M[i][j] != 0), None)
            if pair is None:
                break
            # e_i += e_j: the new diagonal entry is 2 M[i][j] != 0
            i, j = pair
            for c in active:
                M[i][c] += M[j][c]
            for r in active:
                M[r][i] += M[r][j]
            T[i] = [a + b for a, b in zip(T[i], T[j])]
            continue
        active.remove(piv)
        d, Mp, Tp = M[piv][piv], M[piv], T[piv]
        rows.append(Tp)
        norms.append(d * prev)
        for k in active:
            Mk, f = M[k], M[k][piv]
            for c in active:
                Mk[c] = (d * Mk[c] - f * Mp[c]) // prev
            T[k] = [(d * a - f * b) // prev for a, b in zip(T[k], Tp)]
        prev = d
    return rows, norms, len(active)


def signature_of_gram(gram):
    """Inertia (n_plus, n_minus, n_zero) of an integer symmetric matrix."""
    _, norms, nullity = diagonalize(gram)
    plus = sum(1 for d in norms if d > 0)
    return plus, len(norms) - plus, nullity


def express_in_basis(rows, basis, claim=None):
    """The integer X with X * basis == rows for integer rows and basis, or
    None when a row is outside the Z-span of basis: outside its Q-span,
    or with a `_solve_int` solution y = D*x that D does not divide. With
    claim, such a row raises ArithmeticError(claim). Dependent basis rows
    raise ValueError."""
    S = _solve_int(basis, rows, independent=True)
    if S is not None:
        D, Y = S
        if not any(v % D for y in Y for v in y):
            return [[v // D for v in y] for y in Y]
    if claim is not None:
        raise ArithmeticError(claim)
    return None


class Lattice:
    """Free Z-module with a symmetric integer bilinear form."""

    def __init__(self, gram):
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise ValueError("Gram matrix must be square")
        if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(i)):
            raise ValueError("Gram matrix must be symmetric")
        self.gram = [list(map(int, row)) for row in gram]
        self.rank = n
        self._sig = None
        self._det = None
        if self.determinant() == 0:
            raise ValueError("degenerate form")

    def bilinear(self, x, y):
        return dot(vec_mat(x, self.gram), y)

    def q(self, x):
        return self.bilinear(x, x)

    def is_even(self):
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def determinant(self):
        if self._det is None:
            self._det = det(self.gram)
        return self._det

    def signature(self):
        """Inertia triple (n_plus, n_minus, n_zero)."""
        if self._sig is None:
            self._sig = signature_of_gram(self.gram)
        return self._sig

    def discriminant_group(self):
        return DiscriminantForm(self.gram)

    def __repr__(self):
        return "Lattice(rank=%d, det=%s)" % (self.rank, self.determinant())


def direct_sum(*lattices):
    return Lattice(block_diag(*[l.gram for l in lattices]))


def sublattice_index(sub_basis, sup_basis):
    """Index [sup : sub] for two bases of the same rational span."""
    C = express_in_basis(sub_basis, sup_basis,
                         "first lattice must be a subgroup of the second")
    d = det(C) if len(C) == len(sup_basis) else 0
    if d == 0:
        raise ValueError("the two bases must span the same rational space")
    return abs(d)


def gram_of_rows(rows, ambient_gram, den=1,
                 claim="the rows must span an integral lattice"):
    """The Gram matrix rows * ambient_gram * rows^T / den^2 of the integer
    rows over the common denominator den, as ints. A remainder raises
    ArithmeticError naming claim."""
    G = mat_mul(mat_mul(rows, ambient_gram), transpose(rows))
    if den == 1:
        return G
    d2 = den * den
    if any(x % d2 for row in G for x in row):
        raise ArithmeticError("%s: a Gram entry is not divisible by %d^2"
                              % (claim, den))
    return [[x // d2 for x in row] for row in G]


class DiscriminantForm:
    """Finite quadratic form on dual(L)/L for a nondegenerate even lattice.

    Elements are tuples of residues against `orders` (which form a
    divisibility chain), whose last entry is the exponent e. Generator i
    is the class of u_i / s_i, u_i the row of the SNF transform at the
    diagonal entry s_i > 1, so e times any class lifts to an integer row
    of source coordinates; `lift` returns that row. Only the values leave
    the integers: q in Q/2Z, the pairing in Q/Z and the q-value counts.
    """

    def __init__(self, gram):
        self.gram = copy_matrix(gram)
        # quadratic values mod 2 exist only for even source lattices
        self.even = all(gram[i][i] % 2 == 0 for i in range(len(gram)))
        S, U = snf(gram)
        self.orders = []
        self._gens = []  # the SNF rows u_i
        for i in range(len(gram)):
            s = S[i][i]
            if s == 0:
                raise ValueError("lattice must be nondegenerate")
            if s > 1:
                self.orders.append(s)
                self._gens.append(U[i])
        self.exponent = self.orders[-1] if self.orders else 1
        self._pair_table = None

    @property
    def cyclic_orders(self):
        return list(self.orders)

    def opposite(self):
        return DiscriminantForm([[-x for x in row] for row in self.gram])

    def _tables(self):
        # generator pairing table times the exponent e of the group, which
        # clears every denominator (b(x_i, x_j) lies in (1/gcd(s_i, s_j))Z):
        # everything downstream is integer table lookups. x_i lifts to
        # u_i/s_i, so e b(x_i, x_j) = e u_i G u_j^T/(s_i s_j)
        if self._pair_table is None:
            e = self.exponent
            P = mat_mul(mat_mul(self._gens, self.gram), transpose(self._gens))
            bil = []
            for i, (s_i, row) in enumerate(zip(self.orders, P)):
                bil.append([])
                for j, (s_j, x) in enumerate(zip(self.orders, row)):
                    b, r = divmod(e * x, s_i * s_j)
                    if r:
                        raise ArithmeticError(
                            "e * b(x_%d, x_%d) = %d/%d is not integral"
                            % (i, j, e * x, s_i * s_j))
                    bil[i].append(b)
            self._pair_table = (e, bil)
        return self._pair_table

    def bilinear(self, x, y):
        """Pairing in Q/Z, returned in [0, 1)."""
        e, bil = self._tables()
        acc = 0
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        acc += xi * yj * bil[i][j]
        return Fraction(acc % e, e)

    def q(self, x):
        """Quadratic value in Q/2Z, returned in [0, 2)."""
        if not self.even:
            raise ValueError("quadratic refinement requires an even lattice")
        e, bil = self._tables()
        acc = 0
        k = len(x)
        for i in range(k):
            if x[i]:
                acc += x[i] * x[i] * bil[i][i]
                for j in range(i + 1, k):
                    if x[j]:
                        acc += 2 * x[i] * x[j] * bil[i][j]
        return Fraction(acc % (2 * e), e)

    def lift(self, x):
        """e times a representative of the class x: the integer row
        sum_i x_i (e/s_i) u_i in source-lattice coordinates."""
        out = [0] * len(self.gram)
        for xi, s, u in zip(x, self.orders, self._gens):
            if xi:
                c = xi * (self.exponent // s)
                out = [a + c * b for a, b in zip(out, u)]
        return out

    def elements(self):
        return itertools.product(*[range(o) for o in self.orders])

    def q_value_counts(self):
        """Counter of q(x) over the group of a p-elementary form.

        With the orders it is a complete isometry invariant: for odd p
        the counts fix the rank and the discriminant square class (Serre,
        A Course in Arithmetic, IV 1.7), for p = 2 the rank, the parity
        and, through Milgram's Gauss sum, the signature mod 8 (Nikulin,
        Integral symmetric bilinear forms, 1979, 3.6). Raises ValueError
        naming the orders when the group is not p-elementary or the
        source lattice is not even.

        The group is walked one generator at a time, in the order of
        elements(): with e the table scale, e q(x + t x_j) = e q(x) +
        t^2 e q(x_j) + 2t e b(x, x_j) mod 2e, and each element carries
        e b(x, x_m) mod e for the generators m still to come, so an
        element costs O(k) table entries, not O(k^2).
        """
        p = self.orders[0] if self.orders else 2
        if any(o != p for o in self.orders) or any(
                p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise ValueError("q-value counts decide p-elementary forms "
                             "only, got orders %s" % (self.orders,))
        if not self.even:
            raise ValueError("q-value counts need an even lattice, got "
                             "orders %s" % (self.orders,))
        e, bil = self._tables()

        def extend(layer, j, o):
            # (e q(x) mod 2e, [e b(x, x_m) mod e for m >= j]) for each x
            # of layer, plus t x_j for t in range(o)
            qj, rest = bil[j][j], bil[j][j + 1:]
            for acc, pair in layer:
                for t in range(o):
                    yield ((acc + t * (t * qj + 2 * pair[0])) % (2 * e),
                           [(b + t * r) % e for b, r in zip(pair[1:], rest)])

        layer = iter([(0, [0] * len(self.orders))])
        for j, o in enumerate(self.orders):
            layer = extend(layer, j, o)
        counts = Counter(acc for acc, _ in layer)
        return Counter({Fraction(acc, e): n for acc, n in counts.items()})

    def __repr__(self):
        return "DiscriminantForm(orders=%s)" % (self.orders,)


def two_elementary_profile(D):
    """(dimension, all q integral, count of q = 0) for a 2-elementary form,
    read off D.q_value_counts(); for forms of even type (every q integral)
    the triple is complete, since the building blocks satisfy
    v + v = u + u."""
    if any(o != 2 for o in D.orders):
        raise ValueError("profile needs a 2-elementary group, got orders %s"
                         % (D.orders,))
    counts = D.q_value_counts()
    return (len(D.orders), all(v.denominator == 1 for v in counts),
            counts[0])
