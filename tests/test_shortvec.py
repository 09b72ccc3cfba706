import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from k3lat.lattice import (
    DiscriminantForm,
    Lattice,
    direct_sum,
    gram_of_rows,
)
from k3lat.matrix import (
    det,
    identity_matrix,
    inverse,
    mat_eq,
    mat_mul,
    transpose,
    vec_mat,
)
from k3lat.shortvec import (
    ROOT_COUNTS,
    SearchBudgetExceeded,
    _level_range,
    classify_root_system,
    disc_form_isometry,
    enumerate_vectors,
    fincke_pohst_up_to,
    has_minus_two_vector,
    lattice_isometry,
    lll_gram,
    min_norm_and_kissing,
)
from k3lat.standard import cartan_matrix, hyperbolic_plane, root_lattice

from conftest import family, run_optimized
from oracles import (
    bfs_generates,
    disc_combination,
    disc_form_isometry_images,
    hnf_generates,
    naive_enumerate_up_to,
    rescale,
    to_int_matrix,
)


def _random_unimodular(rng, n, moves):
    """A product of elementary row moves and sign flips, with its inverse."""
    U = identity_matrix(n)
    for _ in range(moves):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j and rng.random() < 0.8:
            c = rng.choice([-2, -1, 1, 2])
            U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        else:
            U[i] = [-a for a in U[i]]
    return U, to_int_matrix(inverse(U))


def _gram_schmidt(R):
    """Fraction Gram-Schmidt on a Gram matrix: (B, mu) with B[k] = |b_k*|^2."""
    n = len(R)
    R = [[Fraction(x) for x in row] for row in R]
    B = [Fraction(0)] * n
    mu = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        for j in range(k):
            mu[k][j] = (R[k][j] - sum(mu[j][i] * mu[k][i] * B[i]
                                      for i in range(j))) / B[j]
        B[k] = R[k][k] - sum(mu[k][i] ** 2 * B[i] for i in range(k))
    return B, mu


def _reduction_cases():
    rng = random.Random(23)
    cases = [root_lattice(kind, n).gram for kind, n in
             [("A", 1), ("A", 4), ("D", 5), ("E", 6), ("E", 8)]]
    for _ in range(30):
        n = rng.randint(1, 6)
        U, _ = _random_unimodular(rng, n, 3 * n)
        C = rng.choice([cartan_matrix("A", n),
                        [[rng.randint(1, 3) if i == j else 0
                          for j in range(n)] for i in range(n)]])
        cases.append(mat_mul(mat_mul(U, C), transpose(U)))
    for _ in range(20):
        n = rng.randint(1, 5)
        Bm = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if det(Bm) != 0:
            cases.append(mat_mul(Bm, transpose(Bm)))
    return cases


def test_lll_gram_is_a_reduced_unimodular_change_of_basis():
    for G in _reduction_cases():
        n = len(G)
        H, R, d, lam = lll_gram(G)
        assert abs(det(H)) == 1
        assert mat_eq(R, mat_mul(mat_mul(H, G), transpose(H)))
        B, mu = _gram_schmidt(R)
        assert d[0] == 1
        for k in range(n):
            assert d[k + 1] == d[k] * B[k] == det([r[:k + 1]
                                                  for r in R[:k + 1]])
            for j in range(k):
                assert lam[k][j] == d[j + 1] * mu[k][j]
                # size reduced: |mu_kj| <= 1/2
                assert 2 * abs(lam[k][j]) <= d[j + 1], (G, k, j)
            if k:
                # Lovasz condition with delta = 99/100
                assert B[k] >= (Fraction(99, 100) - mu[k][k - 1] ** 2) \
                    * B[k - 1], (G, k)


def test_lll_gram_rejects_forms_that_are_not_positive_definite():
    for G in ([[0]], [[-2]], [[0, 1], [1, 0]], [[2, 0], [0, -2]],
              [[1, 1], [1, 1]], [[2, 1, 0], [1, 2, 0], [0, 0, -1]],
              root_lattice("E", 8, sign=-1).gram):
        with pytest.raises(ValueError):
            lll_gram(G)
        with pytest.raises(ValueError):
            fincke_pohst_up_to(G, 4)
    with pytest.raises(ValueError):
        lll_gram([[Fraction(1, 2)]])


def test_level_range_is_exactly_the_fitting_integers():
    # y is in the range iff w * (D y + s)^2 <= rem
    rng = random.Random(19)
    cases = [(1, 1, 0, 0), (3, 2, -5, 0), (1, 4, 7, 16), (5, 3, 0, 4)]
    cases += [(rng.randint(1, 30), rng.randint(1, 12),
               rng.randint(-80, 80), rng.randint(0, 5000))
              for _ in range(2000)]
    for w, D, s, rem in cases:
        lo, hi = _level_range(w, D, s, rem)
        window = range(min(lo, 0) - 3, max(hi, 0) + 4)
        fits = [y for y in window if w * (D * y + s) ** 2 <= rem]
        assert fits == list(range(lo, hi + 1)), (w, D, s, rem, lo, hi)


def _mapped(vecs, Uinv):
    out = []
    for x, q in vecs:
        v = vec_mat(x, Uinv)
        if next(a for a in v if a) < 0:
            v = [-a for a in v]
        out.append((v, q))
    return sorted(out)


def test_fincke_pohst_does_not_depend_on_the_basis():
    # vectors of U G U^t are the vectors of G times U^-1
    rng = random.Random(31)
    grams = [root_lattice(kind, n).gram for kind, n in
             [("A", 2), ("A", 5), ("D", 4), ("D", 6), ("E", 8)]]
    for G in grams:
        n = len(G)
        ref = fincke_pohst_up_to(G, 4)
        assert ref
        for _ in range(3):
            U, Uinv = _random_unimodular(rng, n, 4 * n)
            skew = mat_mul(mat_mul(U, G), transpose(U))
            assert fincke_pohst_up_to(skew, 4) == _mapped(ref, Uinv)


def test_fincke_pohst_on_L3_finds_378_short_vectors():
    G = [[-x for x in row] for row in family(3).L.gram]
    vecs = fincke_pohst_up_to(G, 4)
    assert len(vecs) == 378
    assert vecs == sorted(vecs)
    assert all(next(a for a in v if a) > 0 and q == 4 for v, q in vecs)


def test_root_counts_one_per_sign_pair():
    for kind, n, count in [("A", 2, 6), ("A", 3, 12), ("D", 4, 24),
                           ("E", 6, 72), ("E", 8, 240)]:
        L = root_lattice(kind, n, sign=-1)
        roots = enumerate_vectors(L.gram, -2)
        assert 2 * len(roots) == count
        seen = set(tuple(v) for v in roots)
        assert len(seen) == len(roots)
        for v in roots:
            assert tuple(-x for x in v) not in seen


def test_enumerate_is_deterministic():
    L = root_lattice("D", 4, sign=-1)
    a = enumerate_vectors(L.gram, -2)
    b = enumerate_vectors(L.gram, -2)
    assert a == b


def test_fincke_pohst_agrees_with_naive_enumeration():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if det(B) == 0:
            continue
        G = mat_mul(B, transpose(B))
        bound = rng.randint(1, 12)
        fp = fincke_pohst_up_to(G, bound)
        assert fp == naive_enumerate_up_to(G, bound, prune=False)
        assert fp == naive_enumerate_up_to(G, bound, prune=True)


def test_classification_round_trip():
    for kind, n in [("A", 1), ("A", 3), ("D", 4), ("D", 5),
                    ("E", 6), ("E", 7), ("E", 8)]:
        L = root_lattice(kind, n, sign=-1)
        rs = classify_root_system(L.gram)
        assert rs.components == [(kind, n)]
        assert rs.spanning


def test_classification_reducible():
    L = direct_sum(root_lattice("A", 1, sign=-1),
                   root_lattice("A", 1, sign=-1))
    rs = classify_root_system(L.gram)
    assert sorted(rs.components) == [("A", 1), ("A", 1)]
    # A1 pair inside A3: not spanning
    A3 = root_lattice("A", 3, sign=-1)
    rs2 = classify_root_system(gram_of_rows([[1, 0, 0], [0, 0, 1]], A3.gram))
    assert sorted(rs2.components) == [("A", 1), ("A", 1)]


def test_classification_of_skewed_mixed_sums():
    # planted direct sums of mixed types, each in a random unimodular basis
    rng = random.Random(2104)
    kinds = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4),
             ("D", 5), ("E", 6), ("E", 7), ("E", 8)]
    for _ in range(60):
        planted = []
        while True:
            kind = rng.choice(kinds)
            if sum(m for _, m in planted) + kind[1] > 12:
                break
            planted.append(kind)
        G = direct_sum(*[root_lattice(t, m, sign=-1)
                         for t, m in planted]).gram
        U, _ = _random_unimodular(rng, len(G), 3 * len(G))
        rs = classify_root_system(mat_mul(mat_mul(U, G), transpose(U)))
        assert sorted(rs.components) == sorted(planted)
        assert rs.spanning
        parts = [tuple(r) for part in rs.component_roots for r in part]
        assert sorted(parts) == sorted(map(tuple, rs.roots))
        assert len(set(parts)) == len(parts)
        for (t, m), part in zip(rs.components, rs.component_roots):
            assert 2 * len(part) == ROOT_COUNTS[t](m)


def test_root_type_certificate_holds_under_python_O():
    script = (
        "import k3lat.shortvec as sv\n"
        "from k3lat.standard import root_lattice\n"
        "sv.ROOT_COUNTS['A'] = lambda m: m * (m + 1) + 2\n"
        "try:\n"
        "    sv.classify_root_system(root_lattice('A', 2, -1).gram)\n"
        "    print('returned')\n"
        "except AssertionError as e:\n"
        "    print(e)\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert "rank 2" in proc.stdout and "6 roots" in proc.stdout, proc.stdout


def test_min_norm_and_kissing_e8():
    G = root_lattice("E", 8, sign=1).gram
    assert min_norm_and_kissing(G) == (2, 240)


def test_min_norm_of_rank_zero_is_refused_under_python_O():
    # the guard must not be an assert: without it the bound doubles over
    # an empty enumeration forever
    script = (
        "from k3lat.shortvec import min_norm_and_kissing\n"
        "try:\n"
        "    min_norm_and_kissing([])\n"
        "    print('accepted')\n"
        "except ValueError as e:\n"
        "    print(e)\n"
    )
    proc = run_optimized(script, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "rank-0 lattice has no minimum"


def test_lattice_isometry_positive_and_negative():
    A2 = cartan_matrix("A", 2)
    T = lattice_isometry(A2, A2)
    assert T is not None
    assert mat_eq(mat_mul(mat_mul(T, A2), transpose(T)), A2)
    assert lattice_isometry(A2, [[4, -2], [-2, 4]]) is None
    # D4 and A1^4 share rank but not determinant
    D4 = cartan_matrix("D", 4)
    A14 = [[2 if i == j else 0 for j in range(4)] for i in range(4)]
    assert lattice_isometry(D4, A14) is None


def test_lattice_isometry_skewed_basis():
    A3 = cartan_matrix("A", 3)
    U = [[1, 2, 1], [0, 1, 3], [0, 0, 1]]
    A3s = mat_mul(mat_mul(U, A3), transpose(U))
    T = lattice_isometry(A3, A3s)
    assert T is not None
    assert mat_eq(mat_mul(mat_mul(T, A3s), transpose(T)), A3)


def test_lattice_isometry_on_random_unimodular_conjugates():
    rng = random.Random(59)
    for kind, n in [("A", 1), ("A", 3), ("A", 5), ("D", 4), ("D", 5),
                    ("E", 6), ("E", 7), ("E", 8)]:
        for sign in (1, -1):
            G1 = root_lattice(kind, n, sign).gram
            for _ in range(2):
                U, _ = _random_unimodular(rng, n, 3 * n)
                G2 = mat_mul(mat_mul(U, G1), transpose(U))
                T = lattice_isometry(G1, G2)
                assert T is not None, (kind, n, sign, U)
                assert mat_eq(mat_mul(mat_mul(T, G2), transpose(T)), G1)
    # same rank, determinant 15 and parity, different minimum
    assert lattice_isometry([[2, 1], [1, 8]], [[4, 1], [1, 4]]) is None


def test_disc_form_isometry_cases():
    # Z/4 (A_3) is not p-elementary: the q-value counts refuse it, naming
    # the orders, and only the search oracle decides the pair
    A3 = cartan_matrix("A", 3)
    U = [[1, 2, 1], [0, 1, 3], [0, 0, 1]]
    A3s = mat_mul(mat_mul(U, A3), transpose(U))
    LA = root_lattice("A", 3, sign=-1)
    DA = DiscriminantForm(LA.gram)
    assert DA.orders == [4]
    DB = DiscriminantForm([[-x for x in row] for row in A3s])
    assert disc_form_isometry_images(DA, DB)
    with pytest.raises(ValueError, match=r"p-elementary .* orders \[4\]"):
        DA.q_value_counts()
    with pytest.raises(ValueError, match=r"orders \[4\]"):
        disc_form_isometry(DA, DB)
    # Z/3 of the odd lattice [3] has no quadratic refinement
    with pytest.raises(ValueError, match=r"even lattice, got orders \[3\]"):
        DiscriminantForm([[3]]).q_value_counts()
    # (Z/2, q=1/2) vs (Z/2, q=-1/2) are not isometric
    assert not disc_form_isometry(DiscriminantForm([[2]]),
                                  DiscriminantForm([[-2]]))


def _skewed_form(rng, blocks):
    """Discriminant form of the direct sum of blocks, on a basis changed by
    a random unimodular matrix, so its generators are not the blocks'."""
    G = direct_sum(*blocks).gram
    U, _ = _random_unimodular(rng, len(G), 2 * len(G))
    return DiscriminantForm(mat_mul(mat_mul(U, G), transpose(U)))


def _even_type_invariants(blocks):
    """(discriminant rank, signature mod 8) of the direct sum of blocks,
    read off the lattice, not its discriminant form: complete for
    2-elementary forms of even type (Nikulin, Integral symmetric bilinear
    forms, 1979, 3.6)."""
    L = direct_sum(*blocks)
    plus, minus, _ = L.signature()
    return len(DiscriminantForm(L.gram).orders), (plus - minus) % 8


def test_disc_form_isometry_agrees_with_rank_and_signature_mod_8():
    # even type only (every q integral), where the rank and the signature
    # mod 8 are complete: U(2) gives u (signature 0), D4(+-1) give v
    # (signature 4 mod 8), E8(+-2) gives u^4, and v + v = u + u. Random
    # sums of one or two small blocks give both outcomes. The pairs suit
    # an exhaustive search too, which takes seconds to tell groups of
    # order 64 or more apart: E8(+-2) meets only E8(+-2) or sums of four
    # small blocks with an even number of v, six times. The q-value
    # counts decide any order at once
    rng = random.Random(47)
    small = [hyperbolic_plane(2), root_lattice("D", 4),
             root_lattice("D", 4, -1)]
    e8s = [rescale(root_lattice("E", 8), 2),
           rescale(root_lattice("E", 8), -2)]
    pairs = []
    for _ in range(6):
        nv = rng.choice([0, 2, 4])
        quad = [small[0]] * (4 - nv) + \
            [rng.choice(small[1:]) for _ in range(nv)]
        rng.shuffle(quad)
        pairs.append(([rng.choice(e8s)], rng.choice([quad, [e8s[0]]])))
    seen = {True: 0, False: 0}
    while min(seen.values()) < 30:
        if not pairs:
            pairs.append(tuple([rng.choice(small)
                                for _ in range(rng.choice([1, 2]))]
                               for _ in range(2)))
        pair = pairs.pop()
        D1, D2 = (_skewed_form(rng, blocks) for blocks in pair)
        same = _even_type_invariants(pair[0]) == _even_type_invariants(
            pair[1])
        assert bool(disc_form_isometry(D1, D2)) is same, pair
        seen[same] += 1


# even lattices whose discriminant groups are (Z/p)^r, r = 1 or 2: at
# p = 2 the odd-type <1/2>, <-1/2> and the even-type u = U(2), v = D4
P_BLOCKS = {
    2: [Lattice([[2]]), Lattice([[-2]]), hyperbolic_plane(2),
        root_lattice("D", 4), root_lattice("D", 4, -1)],
    3: [root_lattice("A", 2), root_lattice("A", 2, -1), hyperbolic_plane(3)],
    5: [root_lattice("A", 4), root_lattice("A", 4, -1),
        Lattice([[2, 1], [1, -2]]), hyperbolic_plane(5)],
    7: [root_lattice("A", 6), root_lattice("A", 6, -1),
        Lattice([[2, 1], [1, 4]]), Lattice([[-2, -1], [-1, -4]]),
        hyperbolic_plane(7)],
}
# largest discriminant rank drawn at each p, so the search oracle stays
# fast also when it has to exhaust its space
P_MAX_RANK = {2: 5, 3: 3, 5: 3, 7: 3}


def _p_blocks(rng, p, r):
    """Blocks of P_BLOCKS[p] whose discriminant ranks sum to r."""
    out = []
    while r:
        block = rng.choice([b for b in P_BLOCKS[p]
                            if len(DiscriminantForm(b.gram).orders) <= r])
        out.append(block)
        r -= len(DiscriminantForm(block.gram).orders)
    return out


def test_disc_form_isometry_agrees_with_the_search_oracle():
    # 60 pairs at each p of sums of the blocks with equal discriminant
    # rank, each on a random basis; the counts decide, the search
    # confirms with images that carry q across, or exhausts its space
    rng = random.Random(71)
    for p in (2, 3, 5, 7):
        seen = {True: 0, False: 0}
        # isometric pairs of different blocks, and pairs of odd type
        rewritten = odd_type = 0
        for _ in range(60):
            r = rng.randint(1, P_MAX_RANK[p])
            pair = [_p_blocks(rng, p, r) for _ in range(2)]
            D1, D2 = (_skewed_form(rng, blocks) for blocks in pair)
            same = disc_form_isometry(D1, D2)
            images = disc_form_isometry_images(D1, D2)
            assert same is (images is not None), (p, pair)
            if same:
                for x in D1.elements():
                    assert D1.q(x) == D2.q(disc_combination(D2, x, images))
                rewritten += sorted(map(id, pair[0])) != \
                    sorted(map(id, pair[1]))
            seen[same] += 1
            odd_type += any(v.denominator == 2
                            for v in D1.q_value_counts())
        assert min(seen.values()) >= 15 and rewritten >= 5, \
            (p, seen, rewritten)
        if p == 2:
            assert odd_type >= 15, odd_type


def test_q_value_counts_match_the_element_by_element_values():
    # the forms of the test above, drawn from the same seed: the walk one
    # generator at a time gives the Counter of q over elements(), with
    # its values first seen in the same order
    rng = random.Random(71)
    sizes = set()
    for p in (2, 3, 5, 7):
        for _ in range(60):
            r = rng.randint(1, P_MAX_RANK[p])
            pair = [_p_blocks(rng, p, r) for _ in range(2)]
            for D in (_skewed_form(rng, blocks) for blocks in pair):
                counts = D.q_value_counts()
                expect = Counter(D.q(x) for x in D.elements())
                assert list(counts.items()) == list(expect.items()), \
                    (p, D.orders)
                sizes.add((p, len(D.orders)))
    assert len(sizes) == sum(P_MAX_RANK.values()), sizes
    # the trivial form of a unimodular lattice has the one value 0
    assert DiscriminantForm(hyperbolic_plane().gram).q_value_counts() == \
        Counter({Fraction(0): 1})


def test_disc_form_isometry_refuses_at_once():
    # U(2)^4 and U(2)^3 + D4(-1) share orders (2^8) but not q-value
    # counts; an exhaustive isomorphism search runs for minutes on them
    rng = random.Random(5)
    u2 = hyperbolic_plane(2)
    D1 = _skewed_form(rng, [u2] * 4)
    D2 = _skewed_form(rng, [u2] * 3 + [root_lattice("D", 4, -1)])
    t0 = time.perf_counter()
    assert D1.orders == D2.orders == [2] * 8
    assert not disc_form_isometry(D1, D2)
    assert disc_form_isometry(D1, _skewed_form(rng, [u2] * 4))
    assert time.perf_counter() - t0 < 1.0


def test_disc_form_isometry_images_transport_q():
    LA = root_lattice("A", 3, sign=-1)
    DA = DiscriminantForm(LA.gram)
    DB = DiscriminantForm(root_lattice("A", 3, sign=-1).gram)
    images = disc_form_isometry_images(DA, DB)
    assert images
    for x in DA.elements():
        assert DA.q(x) == DB.q(disc_combination(DB, x, images))


def test_generation_by_hnf_matches_breadth_first_closure():
    # k random images in Z/o_1 x ... x Z/o_k, generating and not
    rng = random.Random(23)
    for orders in ([2, 4, 12], [3] * 4, [2] * 6):
        outcomes = {True: 0, False: 0}
        for _ in range(80):
            images = [tuple(rng.randrange(o) for o in orders)
                      for _ in orders]
            expect = bfs_generates(images, orders)
            assert hnf_generates(images, orders) is expect, (orders, images)
            outcomes[expect] += 1
        assert min(outcomes.values()) >= 10, (orders, outcomes)


def test_has_minus_two_vector():
    flag, wit = has_minus_two_vector(root_lattice("A", 2, sign=-1).gram)
    assert flag and wit is not None
    L = root_lattice("A", 2, sign=-1)
    assert L.q(wit) == -2
    flag, wit = has_minus_two_vector([[-4]])
    assert not flag and wit is None


def test_budget_exhaustion_raises():
    G = root_lattice("E", 8, sign=1).gram
    with pytest.raises(SearchBudgetExceeded):
        fincke_pohst_up_to(G, 8, budget=5)


def test_budget_exhaustion_reports_stage_and_nodes():
    G = root_lattice("E", 8, sign=1).gram
    with pytest.raises(SearchBudgetExceeded) as info:
        fincke_pohst_up_to(G, 8, budget=5)
    assert (info.value.stage, info.value.nodes, info.value.budget) == \
        ("enumeration", 6, 5)
    with pytest.raises(SearchBudgetExceeded) as info:
        lattice_isometry(G, G, budget=3)
    assert info.value.budget == 3 and info.value.nodes == 4
