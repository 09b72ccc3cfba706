"""Definite-lattice enumeration, isometry testing and the discriminant-form
decision.

Integral LLL reduction of Gram matrices, Fincke-Pohst enumeration in
integers on the reduced basis (each vector comes with its norm, read off
the enumeration's own remainder), and root-system classification: each
irreducible component's type is read off its rank and root count and
certified by one determinant, and its simple roots come in discovery
order. One isometry kernel, _isometries, serves lattice_isometry and
nikulin's automorphisms of L_p trivial on its discriminant: it reduces
the source Gram once, enumerates the target's candidates once, buckets
them by norm (and, given a prime p, by image mod p) and hands the
buckets to the slot-filling backtrack _fill_slots, which counts the
nodes and enforces the budget; it returns the first filling or every
one. Enumeration and that kernel are the budgeted searches;
discriminant forms are decided by their q-value counts, with no search.
The tests check the enumeration against an independent box enumerator
and the discriminant-form decision against a search of their own.
"""

from collections import Counter
import math

from .matrix import (
    det,
    dot,
    identity_matrix,
    mat_eq,
    mat_mul,
    rank as qrank,
    transpose,
    vec_mat,
)
from .lattice import express_in_basis, gram_of_rows, signature_of_gram
from .standard import cartan_matrix


class SearchBudgetExceeded(Exception):
    """A combinatorial search ran out of its node budget (distinct from 'no').

    stage names the search, nodes the nodes it had counted when it stopped,
    budget the limit it was given.
    """

    def __init__(self, stage, nodes, budget):
        super().__init__("%s budget %d exhausted after %d nodes"
                         % (stage, budget, nodes))
        self.stage = stage
        self.nodes = nodes
        self.budget = budget


def lll_gram(gram):
    """Integral LLL reduction of a positive definite integer Gram matrix.

    Cohen, GTM 138, Algorithm 2.6.7 with delta = 99/100, run on inner
    products only, so every quantity stays an integer. Returns
    (H, R, d, lam): H is unimodular and R = H gram H^t is the Gram matrix
    of the reduced basis; d[0] = 1 and d[k] is the determinant of the
    leading k x k block of R; lam[k][j] = d[j+1] mu_{k,j} for j < k, with
    mu the Gram-Schmidt coefficients. Raises ValueError when an entry is
    not an integer or some d[k] <= 0, i.e. the form is not positive
    definite.
    """
    n = len(gram)
    R = [[int(x) for x in row] for row in gram]
    if not mat_eq(R, gram):
        raise ValueError("Gram matrix must be integral")
    H = identity_matrix(n)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def gram_schmidt(k):
        for j in range(k + 1):
            u = R[k][j]
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u <= 0:
                raise ValueError("form is not positive definite")
            else:
                d[k + 1] = u

    def reduce(k, l):
        # b_k <- b_k - q b_l with q the integer nearest lam[k][l] / d[l+1]
        D = d[l + 1]
        if 2 * abs(lam[k][l]) <= D:
            return
        q = (2 * lam[k][l] + D) // (2 * D)
        H[k] = [a - q * b for a, b in zip(H[k], H[l])]
        Rk, Rl = R[k], R[l]
        kk = Rk[k] - 2 * q * Rk[l] + q * q * Rl[l]
        for i in range(n):
            Rk[i] -= q * Rl[i]
        Rk[k] = kk
        for i in range(n):
            R[i][k] = Rk[i]
        lam[k][l] -= q * D
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k, kmax):
        # exchange b_{k-1} and b_k; only d[k] and the lam touching them move
        H[k - 1], H[k] = H[k], H[k - 1]
        R[k - 1], R[k] = R[k], R[k - 1]
        for row in R:
            row[k - 1], row[k] = row[k], row[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        lk = lam[k][k - 1]
        B = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (B * t + lk * lam[i][k]) // d[k + 1]
        d[k] = B

    if n:
        gram_schmidt(0)
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            gram_schmidt(k)
        reduce(k, k - 1)
        lk = lam[k][k - 1]
        if 100 * d[k + 1] * d[k - 1] < 99 * d[k] * d[k] - 100 * lk * lk:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return H, R, d, lam


def _level_range(w, D, s, rem):
    """(lo, hi) with lo <= y <= hi exactly when w (D y + s)^2 <= rem.

    w, D > 0 and rem >= 0 are integers: t = D y + s fits iff
    |t| <= isqrt(rem // w).
    """
    r = math.isqrt(rem // w)
    return -((r + s) // D), (r - s) // D


def _is_canonical(vec):
    for x in vec:
        if x:
            return x > 0
    return False


def fincke_pohst_up_to(gram, bound, budget=None):
    """All x with 0 < x*gram*x^T <= bound, one per +- pair, lex sorted,
    each paired with its norm: a list of (x, x*gram*x^T).

    gram must be a positive definite integer matrix and bound an int.
    The search runs in integers on the LLL-reduced basis: with y the
    coordinates in the reduced basis, M * Q = sum_i w_i (d[i+1] y_i +
    sum_{j>i} lam[j][i] y_j)^2 for M = lcm(d[i] d[i+1]) and w_i = M /
    (d[i] d[i+1]). Only y whose last nonzero coordinate is positive are
    visited; each hit is mapped back by x = y H and signed so its first
    nonzero entry is positive. Its norm is the part of the scaled bound
    the levels used up, over M, an exact division. The budget counts coordinate assignments
    (in the reduced basis) and raises SearchBudgetExceeded.
    """
    if not gram or bound <= 0:
        return []
    return _fincke_pohst(lll_gram(gram), bound, budget)


def _fincke_pohst(reduction, bound, budget):
    """fincke_pohst_up_to for a nonempty Gram and bound > 0, given the
    lll_gram output of the Gram, so a caller that reduced it reduces it
    only once."""
    H, _, d, lam = reduction
    n = len(H)
    M = 1
    for i in range(n):
        M = math.lcm(M, d[i] * d[i + 1])
    w = [M // (d[i] * d[i + 1]) for i in range(n)]
    # the nonzero lam[j][i], j > i, that shift level i
    shifts = [[(j, lam[j][i]) for j in range(i + 1, n) if lam[j][i]]
              for i in range(n)]
    start = bound * M
    out = []
    y = [0] * n
    nodes = 0

    def hit(rem):
        x = [0] * n
        for yj, h in zip(y, H):
            if yj:
                x = [a + yj * b for a, b in zip(x, h)]
        if not _is_canonical(x):
            x = [-a for a in x]
        out.append((tuple(x), (start - rem) // M))

    def descend(i, rem, top):
        # top: every y[j], j > i, is zero, so y[i] >= 0 fixes the sign
        nonlocal nodes
        s = 0
        for j, l in shifts[i]:
            if y[j]:
                s += l * y[j]
        D = d[i + 1]
        lo, hi = _level_range(w[i], D, s, rem)
        if top:
            lo = max(lo, 0)
        for yi in range(lo, hi + 1):
            nodes += 1
            if budget is not None and nodes > budget:
                raise SearchBudgetExceeded("enumeration", nodes, budget)
            y[i] = yi
            t = D * yi + s
            if i == 0:
                if yi or not top:
                    hit(rem - w[0] * t * t)
            else:
                descend(i - 1, rem - w[i] * t * t, top and not yi)
        y[i] = 0

    descend(n - 1, start, True)
    out.sort()
    return [(list(v), q) for v, q in out]


def _definite_sign(gram):
    if not gram:
        return 1
    p, m, z = signature_of_gram(gram)
    if z == 0 and m == 0:
        return 1
    if z == 0 and p == 0:
        return -1
    raise ValueError("lattice is not definite")


def enumerate_vectors(gram, target_norm, budget=None):
    """All lattice vectors of exactly the given norm, one per +- pair.

    Deterministic lexicographic order. gram must be definite; target_norm
    must have the matching sign (or be zero, giving the empty list).
    """
    sign = _definite_sign(gram)
    if target_norm == 0:
        return []
    if (target_norm > 0) != (sign > 0):
        raise ValueError("norm sign does not match the definite form")
    work = gram if sign > 0 else [[-x for x in row] for row in gram]
    t = abs(target_norm)
    return [v for v, q in fincke_pohst_up_to(work, t, budget=budget)
            if q == t]


def has_minus_two_vector(gram, budget=None):
    """(flag, witness): does a negative definite lattice contain v.v = -2?

    Rank 0 has none; enumerate_vectors raises ValueError unless the form
    is negative definite.
    """
    if not gram:
        return False, None
    vecs = enumerate_vectors(gram, -2, budget=budget)
    if vecs:
        return True, vecs[0]
    return False, None


def min_norm_and_kissing(gram, budget=None):
    """(minimal |norm|, number of vectors attaining it, counting both signs)."""
    if not gram:
        raise ValueError("rank-0 lattice has no minimum")
    sign = _definite_sign(gram)
    work = gram if sign > 0 else [[-x for x in row] for row in gram]
    bound = 2
    while True:
        vecs = fincke_pohst_up_to(work, bound, budget=budget)
        if vecs:
            m = min(q for _, q in vecs)
            return m, 2 * sum(1 for _, q in vecs if q == m)
        bound *= 2


# roots of the irreducible simply-laced systems, both signs counted, None
# off a type's ranks (Bourbaki, Lie Groups and Lie Algebras, Ch. VI,
# Plates I-VII); at each rank the counts differ (D_3 = A_3 is why D starts
# at 4), so rank and root count fix the type
ROOT_COUNTS = {"A": lambda m: m * (m + 1),
               "D": lambda m: 2 * m * (m - 1) if m >= 4 else None,
               "E": lambda m: {6: 72, 7: 126, 8: 240}.get(m)}


class RootSystem:
    """(-2)-root data of a negative definite lattice.

    roots: one vector per +- pair. components: (label, rank) pairs, each
    type certified by its rank, root count and determinant. simple_roots:
    per component, its simple roots in discovery order.
    component_roots: per component, the vectors of roots that lie in it, a
    partition of roots. spanning: whether the roots span the ambient
    rational span.
    """

    def __init__(self, roots, components, simple_roots, component_roots,
                 spanning):
        self.roots = roots
        self.components = components
        self.simple_roots = simple_roots
        self.component_roots = component_roots
        self.spanning = spanning

    def is_empty(self):
        return not self.roots

    def __repr__(self):
        return "RootSystem(%s, spanning=%s)" % (self.components, self.spanning)


def classify_root_system(gram, budget=None):
    """Type the (-2)-vectors of a negative definite lattice.

    The simple roots are the positive roots, for a generic functional,
    that are no sum of two positive roots; they split into the connected
    components of their pairing graph, each kept in discovery order. The
    roots of a component are those pairing non-trivially with one of its
    simple roots. Its type is the one (label, rank) whose ROOT_COUNTS entry
    is its root count, certified by det of its simple roots' Gram being
    det(-Cartan); that failing, or the components missing roots, raises
    AssertionError (also under python -O) naming rank and root count.
    """
    n = len(gram)
    if n == 0:
        return RootSystem([], [], [], [], True)
    roots_half = enumerate_vectors(gram, -2, budget=budget)
    if not roots_half:
        return RootSystem([], [], [], [], False)
    roots = roots_half + [[-x for x in v] for v in roots_half]
    # generic integer functional: base-N digits can't cancel
    maxc = max(abs(x) for v in roots for x in v)
    base = 2 * maxc + 1
    weights = [base ** i for i in range(n)]
    pos = [v for v in roots if dot(v, weights) > 0]
    pos_set = set(map(tuple, pos))
    # simple: no difference with another positive root is positive (r - r
    # = 0 is no root)
    simple = [r for r in pos if not any(
        tuple(a - b for a, b in zip(r, q)) in pos_set for q in pos)]
    # pairing graph on simple roots
    images = [vec_mat(s, gram) for s in simple]
    k = len(simple)
    adj = [[j for j in range(k) if j != i and dot(images[i], simple[j])]
           for i in range(k)]
    seen = set()
    components = []
    simple_roots = []
    component_roots = []
    for i in range(k):
        if i in seen:
            continue
        comp = []
        stack = [i]
        seen.add(i)
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        comp.sort()
        part = [r for r in roots_half if any(dot(images[v], r) for v in comp)]
        m, count = len(comp), 2 * len(part)
        types = [t for t, f in ROOT_COUNTS.items() if f(m) == count]
        ordered = [simple[v] for v in comp]
        got = det(mat_mul(mat_mul(ordered, gram), transpose(ordered)))
        # det(-Cartan) = (-1)^m det(Cartan)
        if len(types) != 1 or got != (-1) ** m * det(
                cartan_matrix(types[0], m)):
            raise AssertionError("a rank %d root component with %d roots "
                                 "has no certified ADE type" % (m, count))
        components.append((types[0], m))
        simple_roots.append(ordered)
        component_roots.append(part)
    total = sum(ROOT_COUNTS[t](m) for t, m in components)
    if total != len(roots):
        raise AssertionError("root components of rank %d hold %d of the %d "
                             "roots" % (k, total, len(roots)))
    spanning = qrank(simple) == n
    return RootSystem(roots_half, components, simple_roots, component_roots,
                      spanning)


def _fill_slots(cands, fits, budget, stage, every):
    """The backtracking kernel of the searches over candidate lists.

    Slot i takes a candidate c from cands[i], in order, when
    fits(i, c, chosen) holds against the candidates chosen for the slots
    before it. One node is counted per candidate tried; past budget nodes
    SearchBudgetExceeded names stage. Returns the first complete filling,
    or every one when every is set, as a list.
    """
    chosen = []
    found = []
    nodes = 0

    def fill(i):
        nonlocal nodes
        if i == len(cands):
            found.append(list(chosen))
            return not every
        for c in cands[i]:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(stage, nodes, budget)
            if fits(i, c, chosen):
                chosen.append(c)
                if fill(i + 1):
                    return True
                chosen.pop()
        return False

    fill(0)
    return found


def _isometries(gram1, gram2, budget, stage, p=None):
    """Integer T with T * gram2 * T^t == gram1 for positive definite
    integer Grams, filled row by row in the LLL basis B of gram1.

    The candidates for row i are the vectors w of gram2, both signs, of
    norm the reduced diagonal entry i, from one Fincke-Pohst enumeration
    up to the largest such entry, with their images under gram2 from one
    mat_mul. The norm histograms of the two forms up to that bound must
    agree: they include the minimum and the kissing number. The rows
    with fewest candidates are filled first; a candidate fits when its
    pairings with the earlier rows are the reduced Gram's. A filling W
    gives T = B^-1 W, checked on the forms. Without p, the first row's
    sign is fixed by the symmetry -1 and the first T, if any, is
    returned. With p, gram2 is gram1, whose enumeration is then the
    candidates', and every T with (T - 1) gram1 = 0 mod p is returned:
    (W - B) gram1 = 0 mod p, so row i also draws only the candidates
    whose image is row i of B gram1 mod p. Past budget nodes
    SearchBudgetExceeded is raised.
    """
    n = len(gram1)
    reduction = lll_gram(gram1)
    B, G1p = reduction[:2]
    top = max(G1p[i][i] for i in range(n))
    own = _fincke_pohst(reduction, top, budget)
    cands = own if p else fincke_pohst_up_to(gram2, top, budget=budget)
    if Counter(q for _, q in own) != Counter(q for _, q in cands):
        return []

    def key(norm, image):
        return (norm, tuple(x % p for x in image)) if p else norm

    buckets = {}
    for (v, q), img in zip(cands, mat_mul([v for v, _ in cands], gram2)):
        for w, wg in ((v, img), ([-x for x in v], [-x for x in img])):
            buckets.setdefault(key(q, wg), []).append((w, wg))
    rows = mat_mul(B, gram1) if p else [None] * n
    slots = [buckets.get(key(G1p[i][i], rows[i]), []) for i in range(n)]
    perm = sorted(range(n), key=lambda i: len(slots[i]))
    Gq = [[G1p[i][j] for j in perm] for i in perm]

    def fits(slot, c, chosen):
        if p is None and slot == 0 and not _is_canonical(c[0]):
            return False  # -identity symmetry: fix the first slot's sign
        return all(dot(chosen[j][1], c[0]) == Gq[slot][j]
                   for j in range(slot))

    found = _fill_slots([slots[i] for i in perm], fits, budget, stage,
                        p is not None)
    if not found:
        return []
    Binv = express_in_basis(identity_matrix(n), B,
                            "an LLL transform must be unimodular")
    out = []
    for filling in found:
        T = mat_mul(Binv, [w for _, (w, _) in sorted(zip(perm, filling))])
        if not mat_eq(gram_of_rows(T, gram2), gram1):
            raise AssertionError("the isometry found must carry gram2 onto "
                                 "gram1")
        out.append(T)
    return out


def lattice_isometry(gram1, gram2, budget=None):
    """An integer matrix T with T * gram2 * T^t == gram1, or None.

    Both forms must be integral and definite of the same sign; the slots
    are filled in the LLL basis of gram1 (lll_gram raises ValueError on a
    non-integral Gram). None is returned only when the search space is
    exhausted; hitting the node budget, 10^7 when None, raises
    SearchBudgetExceeded instead (a timeout is not a 'no').
    """
    if budget is None:
        budget = 10 ** 7
    n = len(gram1)
    if len(gram2) != n:
        return None
    if n == 0:
        return []
    s1 = _definite_sign(gram1)
    s2 = _definite_sign(gram2)
    if s1 != s2:
        return None
    if s1 < 0:
        gram1 = [[-x for x in row] for row in gram1]
        gram2 = [[-x for x in row] for row in gram2]
    if abs(det(gram1)) != abs(det(gram2)):
        return None
    even1 = all(gram1[i][i] % 2 == 0 for i in range(n))
    even2 = all(gram2[i][i] % 2 == 0 for i in range(n))
    if even1 != even2:
        return None
    found = _isometries(gram1, gram2, budget, "isometry")
    return found[0] if found else None


def disc_form_isometry(D1, D2):
    """Whether two p-elementary discriminant forms of even lattices are
    isometric: their orders and q-value counts agree. Any other form
    raises ValueError from DiscriminantForm.q_value_counts."""
    counts = D1.q_value_counts(), D2.q_value_counts()
    return D1.orders == D2.orders and counts[0] == counts[1]
