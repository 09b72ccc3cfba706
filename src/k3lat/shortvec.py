"""Definite-lattice enumeration and isometry testing.

Fincke-Pohst enumeration with exact rational Cholesky data, root-system
classification, and two backtracking searches: lattice isometry on definite
Gram matrices and isomorphism of finite discriminant forms. The tests check
the enumeration against an independent box enumerator of their own.
"""

from fractions import Fraction
import math

from .matrix import (
    det,
    dot,
    identity_matrix,
    inverse,
    mat_eq,
    mat_mul,
    rank as qrank,
    to_fraction_matrix,
    to_int_matrix,
    transpose,
    vec_mat,
)
from .lattice import Lattice, signature_of_gram
from .standard import cartan_matrix


class SearchBudgetExceeded(Exception):
    """A combinatorial search ran out of its node budget (distinct from 'no')."""


def _floor_plus_sqrt(c, W):
    """floor(c + sqrt(W)) for exact rationals, W >= 0.

    With c = a/b and W = n/d, an integer y = k b - a satisfies y <= b sqrt(W)
    iff y <= isqrt(floor(n b^2 / d)), so the answer is all integer math.
    """
    c = Fraction(c)
    W = Fraction(W)
    assert W >= 0
    a, b = c.numerator, c.denominator
    return (a + math.isqrt(W.numerator * b * b // W.denominator)) // b


def _cholesky_data(gram):
    """Fincke-Pohst decomposition: Q(x) = sum_i q[i][i](x_i + sum_{j>i} q[i][j] x_j)^2."""
    n = len(gram)
    q = [[Fraction(x) for x in row] for row in gram]
    for i in range(n):
        assert q[i][i] > 0, "form must be positive definite"
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] -= q[k][i] * q[i][l]
    return q


def _is_canonical(vec):
    for x in vec:
        if x:
            return x > 0
    return False


def fincke_pohst_up_to(gram, bound, budget=None):
    """All x with 0 < x*gram*x^T <= bound, one per +- pair, lex sorted.

    gram must be positive definite; rational entries are fine. The budget
    counts coordinate assignments and raises SearchBudgetExceeded.
    """
    n = len(gram)
    if n == 0 or bound <= 0:
        return []
    q = _cholesky_data(gram)
    bound = Fraction(bound)
    out = []
    x = [0] * n
    nodes = 0

    def descend(i, rem):
        nonlocal nodes
        u = Fraction(0)
        for j in range(i + 1, n):
            if x[j]:
                u += q[i][j] * x[j]
        w = rem / q[i][i]
        hi = _floor_plus_sqrt(-u, w)
        lo = -_floor_plus_sqrt(u, w)
        for xi in range(lo, hi + 1):
            nodes += 1
            if budget is not None and nodes > budget:
                raise SearchBudgetExceeded("enumeration budget %d" % budget)
            x[i] = xi
            if i == 0:
                if _is_canonical(x):
                    out.append(tuple(x))
            else:
                step = xi + u
                descend(i - 1, rem - q[i][i] * step * step)
        x[i] = 0

    descend(n - 1, bound)
    out.sort()
    return [list(v) for v in out]


def _definite_sign(gram):
    if not gram:
        return 1
    p, m, z = signature_of_gram(gram)
    if z == 0 and m == 0:
        return 1
    if z == 0 and p == 0:
        return -1
    raise ValueError("lattice is not definite")


def _as_gram(L):
    return L.gram if isinstance(L, Lattice) else L


def enumerate_vectors(L, target_norm, budget=None):
    """All lattice vectors of exactly the given norm, one per +- pair.

    Deterministic lexicographic order. L must be definite; target_norm must
    have the matching sign (or be zero, giving the empty list).
    """
    gram = _as_gram(L)
    sign = _definite_sign(gram)
    if target_norm == 0:
        return []
    if (target_norm > 0) != (sign > 0):
        raise ValueError("norm sign does not match the definite form")
    work = gram if sign > 0 else [[-x for x in row] for row in gram]
    vecs = fincke_pohst_up_to(work, abs(target_norm), budget=budget)
    n = len(gram)
    out = []
    for v in vecs:
        val = sum(work[i][j] * v[i] * v[j] for i in range(n) for j in range(n))
        if val == abs(target_norm):
            out.append(v)
    return out


def has_minus_two_vector(L, budget=None):
    """(flag, witness): does a negative definite lattice contain v.v = -2?"""
    gram = _as_gram(L)
    if len(gram) == 0:
        return False, None
    p, m, z = signature_of_gram(gram)
    if p != 0 or z != 0:
        raise ValueError("lattice must be negative definite")
    vecs = enumerate_vectors(Lattice(gram), -2, budget=budget)
    if vecs:
        return True, vecs[0]
    return False, None


def min_norm_and_kissing(L, budget=None):
    """(minimal |norm|, number of vectors attaining it, counting both signs)."""
    gram = _as_gram(L)
    n = len(gram)
    assert n >= 1, "rank-0 lattice has no minimum"
    sign = _definite_sign(gram)
    work = gram if sign > 0 else [[-x for x in row] for row in gram]
    bound = 2
    while True:
        vecs = fincke_pohst_up_to(work, bound, budget=budget)
        if vecs:
            norms = [sum(work[i][j] * v[i] * v[j]
                         for i in range(n) for j in range(n)) for v in vecs]
            m = min(norms)
            return m, 2 * sum(1 for t in norms if t == m)
        bound *= 2


ROOT_COUNTS = {"A": lambda n: n * (n + 1), "D": lambda n: 2 * n * (n - 1),
               "E": lambda n: {6: 72, 7: 126, 8: 240}[n]}


class RootSystem:
    """(-2)-root data of a negative definite lattice.

    roots: one vector per +- pair. components: (label, rank) pairs.
    simple_roots: per component, ordered to match cartan_matrix(label, rank)
    exactly (so their Gram is the negated Cartan matrix). spanning: whether
    the roots span the ambient rational span.
    """

    def __init__(self, roots, components, simple_roots, spanning):
        self.roots = roots
        self.components = components
        self.simple_roots = simple_roots
        self.spanning = spanning

    def is_empty(self):
        return not self.roots

    def __repr__(self):
        return "RootSystem(%s, spanning=%s)" % (self.components, self.spanning)


def _order_component(nodes, adj):
    """Order a connected ADE Dynkin graph to our cartan_matrix numbering.

    Returns (label, rank, ordered node list). adj maps node -> set of nodes.
    """
    n = len(nodes)
    degs = {v: len(adj[v] & set(nodes)) for v in nodes}
    branch = [v for v in nodes if degs[v] >= 3]
    if any(degs[v] > 3 for v in nodes) or len(branch) > 1:
        raise ValueError("root graph is not of ADE shape")

    def walk(start, first):
        # path from start through first, away from start
        seq = [start, first]
        while True:
            nxt = [u for u in adj[seq[-1]] & set(nodes) if u != seq[-2]]
            if not nxt:
                return seq
            if len(nxt) > 1:
                raise ValueError("root graph is not of ADE shape")
            seq.append(nxt[0])

    if not branch:
        if n == 1:
            return "A", 1, list(nodes)
        ends = [v for v in nodes if degs[v] == 1]
        if len(ends) != 2:
            raise ValueError("root graph is not of ADE shape")
        start = ends[0]
        first = next(iter(adj[start] & set(nodes)))
        seq = walk(start, first)
        assert len(seq) == n
        return "A", n, seq

    b = branch[0]
    arms = []
    for first in adj[b] & set(nodes):
        seq = walk(b, first)[1:]  # exclude the branch node itself
        arms.append(seq)
    assert len(arms) == 3
    arms.sort(key=len)
    a1, a2, a3 = arms
    if len(a1) == 1 and len(a2) == 1:
        # D_n: long arm from its far end, then branch, then the two forks
        order = list(reversed(a3)) + [b] + [a2[0], a1[0]]
        return "D", n, order
    if len(a1) == 1 and len(a2) == 2:
        if len(a3) not in (2, 3, 4):
            raise ValueError("root graph is not of ADE shape")
        # E_n numbering: far/near of the 2-arm at slots 0/2, short arm slot 1
        order = [a2[1], a1[0], a2[0], b] + a3
        return "E", n, order
    raise ValueError("root graph is not of ADE shape")


def classify_root_system(L, budget=None):
    """Type the (-2)-vectors of a negative definite lattice.

    Certified output: the ordered simple roots of each component reproduce
    the negated Cartan matrix entry by entry, and the total root count
    matches the component types.
    """
    gram = _as_gram(L)
    n = len(gram)
    if n == 0:
        return RootSystem([], [], [], True)
    roots_half = enumerate_vectors(Lattice(gram), -2, budget=budget)
    if not roots_half:
        return RootSystem([], [], [], n == 0)
    roots = roots_half + [[-x for x in v] for v in roots_half]
    # generic integer functional: base-N digits can't cancel
    maxc = max(abs(x) for v in roots for x in v)
    base = 2 * maxc + 1
    weights = [base ** i for i in range(n)]
    pos = [v for v in roots if dot(v, weights) > 0]
    pos_set = set(map(tuple, pos))
    simple = []
    for r in pos:
        decomposable = False
        for q in pos:
            d = tuple(a - b for a, b in zip(r, q))
            if d != tuple([0] * n) and d in pos_set:
                decomposable = True
                break
        if not decomposable:
            simple.append(r)
    # pairing graph on simple roots
    G = to_fraction_matrix(gram)
    k = len(simple)
    adj = {i: set() for i in range(k)}
    for i in range(k):
        gi = vec_mat(simple[i], G)
        for j in range(i + 1, k):
            if dot(gi, simple[j]) != 0:
                adj[i].add(j)
                adj[j].add(i)
    seen = set()
    components = []
    simple_roots = []
    total = 0
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
        label, m, order = _order_component(comp, adj)
        ordered = [simple[v] for v in order]
        C = cartan_matrix(label, m)
        got = mat_mul(mat_mul(ordered, G), transpose(ordered))
        assert mat_eq(got, [[-x for x in row] for row in C]), \
            "simple roots do not reproduce the Cartan matrix"
        components.append((label, m))
        simple_roots.append(ordered)
        total += ROOT_COUNTS[label](m)
    assert total == len(roots), "component root counts do not add up"
    all_simple = [r for comp in simple_roots for r in comp]
    spanning = qrank(all_simple) == n
    return RootSystem(roots_half, components, simple_roots, spanning)


def _short_basis(gram, budget=None):
    """A basis of Z^n among short vectors of the form, or None.

    Greedy independent set over vectors of growing norm, then index-1 repair
    by replacing basis vectors with short vectors having a fractional
    coordinate (strictly decreases the index each round).
    """
    n = len(gram)
    bound = 2
    shorts = []
    while True:
        shorts = fincke_pohst_up_to(gram, bound, budget=budget)
        if qrank(shorts) == n:
            break
        bound *= 2
        if bound > 4 * max(gram[i][i] for i in range(n)):
            return None
    B = []
    for v in shorts:
        if qrank(B + [v]) > len(B):
            B.append(v)
        if len(B) == n:
            break
    idx = abs(det(B))
    while idx > 1:
        Binv = inverse(B)
        best = None
        for v in shorts:
            coords = vec_mat(v, Binv)
            for i, xi in enumerate(coords):
                a = abs(xi)
                if 0 < a < 1 and (best is None or a < best[0]):
                    best = (a, v, i)
        if best is None:
            return None
        B[best[2]] = best[1]
        idx = abs(det(B))
    return B


def lattice_isometry(gram1, gram2, budget=10 ** 7):
    """An integer matrix T with T * gram2 * T^t == gram1, or None.

    Both forms must be definite of the same sign. None is returned only
    when the search space is exhausted; hitting the node budget raises
    SearchBudgetExceeded instead (a timeout is not a 'no').
    """
    gram1 = _as_gram(gram1)
    gram2 = _as_gram(gram2)
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
    if min_norm_and_kissing(gram1, budget=budget) != \
            min_norm_and_kissing(gram2, budget=budget):
        return None

    B = _short_basis(gram1, budget=budget)
    if B is None:
        B = identity_matrix(n)
    G1p = mat_mul(mat_mul(B, gram1), transpose(B))

    max_norm = max(G1p[i][i] for i in range(n))
    cand1 = fincke_pohst_up_to(gram1, max_norm, budget=budget)
    cand2 = fincke_pohst_up_to(gram2, max_norm, budget=budget)

    def histogram(vs, g):
        h = {}
        for v in vs:
            t = sum(g[i][j] * v[i] * v[j] for i in range(n) for j in range(n))
            h[t] = h.get(t, 0) + 1
        return h

    if histogram(cand1, gram1) != histogram(cand2, gram2):
        return None

    # slot order: most-constrained (fewest same-norm candidates) first
    hist2 = histogram(cand2, gram2)
    perm = sorted(range(n), key=lambda i: hist2.get(G1p[i][i], 0))
    Gq = [[G1p[perm[i]][perm[j]] for j in range(n)] for i in range(n)]

    by_norm = {}
    for v in cand2:
        t = sum(gram2[i][j] * v[i] * v[j] for i in range(n) for j in range(n))
        for w in (v, [-x for x in v]):
            by_norm.setdefault(t, []).append((w, vec_mat(w, gram2)))

    chosen = []
    chosen_wg = []
    nodes = 0

    def backtrack(slot):
        nonlocal nodes
        if slot == n:
            return True
        want_norm = Gq[slot][slot]
        for w, wg in by_norm.get(want_norm, []):
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded("isometry budget %d" % budget)
            if slot == 0 and not _is_canonical(w):
                continue  # -identity symmetry: fix the first slot's sign
            ok = True
            for j in range(slot):
                if dot(chosen_wg[j], w) != Gq[slot][j]:
                    ok = False
                    break
            if not ok:
                continue
            chosen.append(w)
            chosen_wg.append(wg)
            if backtrack(slot + 1):
                return True
            chosen.pop()
            chosen_wg.pop()
        return False

    if not backtrack(0):
        return None
    W = [None] * n
    for i in range(n):
        W[perm[i]] = chosen[i]
    T = mat_mul(to_int_matrix(inverse(B)), W)
    assert mat_eq(mat_mul(mat_mul(T, gram2), transpose(T)), gram1)
    return T


def disc_form_isometry(D1, D2, budget=10 ** 6, return_images=False):
    """Isomorphism test for finite discriminant forms.

    True iff some group isomorphism matches bilinear (and quadratic, for
    even sources) values. With return_images, gives the generator images
    (tuples in D2) instead of True. Group order is capped by the budget.
    """
    if D1.orders != D2.orders:
        return None if return_images else False
    if D1.even != D2.even:
        return None if return_images else False
    k = len(D1.orders)
    if k == 0:
        return [] if return_images else True
    if D1.group_order > budget:
        raise SearchBudgetExceeded("discriminant group too large: %d"
                                   % D1.group_order)
    use_q = D1.even
    gens1 = [tuple(1 if i == j else 0 for j in range(k)) for i in range(k)]
    want_q = [D1.q(g) if use_q else None for g in gens1]
    want_b = [[D1.bilinear(gens1[i], gens1[j]) for j in range(k)]
              for i in range(k)]

    elements = [t for t in D2.elements() if any(t)]
    info = []
    for t in elements:
        o = D2.element_order(t)
        val = D2.q(t) if use_q else None
        info.append((t, o, val))
    cands = []
    for i in range(k):
        need_order = D1.orders[i]
        cands.append([t for (t, o, val) in info
                      if o == need_order and (not use_q or val == want_q[i])])

    chosen = []
    nodes = 0

    def generates(images):
        # BFS closure; images must generate the whole group
        seen = {D2.zero()}
        frontier = [D2.zero()]
        while frontier:
            nxt = []
            for x in frontier:
                for g in images:
                    y = D2.add(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
            if len(seen) == D2.group_order:
                return True
        return len(seen) == D2.group_order

    def backtrack(i):
        nonlocal nodes
        if i == k:
            return generates(chosen)
        for t in cands[i]:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded("disc isometry budget %d" % budget)
            ok = True
            for j in range(i):
                if D2.bilinear(chosen[j], t) != want_b[j][i]:
                    ok = False
                    break
            if ok and D2.bilinear(t, t) != want_b[i][i]:
                ok = False
            if not ok:
                continue
            chosen.append(t)
            if backtrack(i + 1):
                return True
            chosen.pop()
        return False

    if backtrack(0):
        return list(chosen) if return_images else True
    return None if return_images else False
