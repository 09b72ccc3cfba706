import math
import os
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from k3lat import is_prime
from k3lat.groups import (
    IsometryGroup,
    NotAnIsometry,
    NotFinite,
    coinvariant_L_G,
    rational_classes,
    regular_summand_discriminant_check,
    spinor_plus_membership,
    zg_decomposition,
)
from k3lat.lattice import Lattice, gram_of_rows, sublattice_index
from k3lat.matrix import (
    identity_matrix,
    inverse,
    int_kernel,
    mat_mul,
    mat_sub,
    matrix_order,
    rank,
    row_hnf,
    transpose,
    vec_mat,
)
from k3lat.polys import poly_eval_matrix
from k3lat.realize import decide_complex
from k3lat.standard import k3_lattice, reflection, reflection_general
from conftest import a4_example, run_optimized
from oracles import (
    basis_characters,
    cartan_dieudonne_o_plus,
    complement_complex_report,
    cyclic_coinvariant,
    cyclotomic,
    jordan_profile,
    projector_character,
    projector_coinvariant,
    random_unimodular,
    rational_classes_by_conjugation,
    to_int_matrix,
)

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
K3 = k3_lattice()
N = 22
I22 = identity_matrix(N)


def _swap_matrix():
    swap = [[0] * N for _ in range(N)]
    for i in range(6):
        swap[i][i] = 1
    for i in range(8):
        swap[6 + i][14 + i] = 1
        swap[14 + i][6 + i] = 1
    return swap


def _u2_twist():
    # order-4 rotation mixing the first two hyperbolic planes
    M = [[0] * N for _ in range(N)]
    M[0][2] = 1
    M[1][3] = 1
    M[2][0] = -1
    M[3][1] = -1
    for i in range(4, N):
        M[i][i] = 1
    return M


def _c3_rotation():
    # rotation in the A2(-1) plane spanned by two orthogonal-chain roots
    # of the first E8 block (basis slots 6 and 8 pair to -2, -2, 1)
    r1 = [0] * N
    r1[6] = 1
    r2 = [0] * N
    r2[8] = 1
    return mat_mul(reflection(K3.gram, r1), reflection(K3.gram, r2))


def test_group_order_and_validation():
    G = IsometryGroup(K3, [_swap_matrix()])
    assert G.order() == 2
    with pytest.raises(NotAnIsometry):
        bad = identity_matrix(N)
        bad[0][1] = 1  # shears e into f, breaks the form
        IsometryGroup(K3, [bad])


def test_infinite_group_is_rejected():
    # [[3,2],[4,3]] preserves diag(1,-2) but has infinite order
    amb = Lattice([[1, 0], [0, -2]])
    g = [[3, 2], [4, 3]]
    assert mat_mul(mat_mul(g, amb.gram), transpose(g)) == amb.gram
    with pytest.raises(NotFinite):
        IsometryGroup(amb, [g], element_cap=500).order()


def test_swap_involution_module_shape():
    swap = _swap_matrix()
    dec = zg_decomposition(swap, 2)
    assert (dec.t, dec.c, dec.r) == (6, 0, 8)
    res = coinvariant_L_G(IsometryGroup(K3, [swap]))
    rep = regular_summand_discriminant_check(res, swap, dec)
    assert rep["image_is_direct_summand"]
    assert rep["disc_is_Fp_space_of_dim_r"]


def test_spinor_values():
    root = [0] * N
    root[6] = 1
    refl_neg = reflection(K3.gram, root)
    assert spinor_plus_membership(K3, refl_neg) is True
    ef = [1, 1] + [0] * 20
    refl_pos = reflection_general(K3.gram, ef)
    assert spinor_plus_membership(K3, refl_pos) is False
    minus = [[-x for x in row] for row in I22]
    assert spinor_plus_membership(K3, minus) is False
    assert spinor_plus_membership(K3, I22) is True
    assert spinor_plus_membership(K3, _swap_matrix()) is True


def test_spinor_is_multiplicative_on_small_groups():
    root = [0] * N
    root[6] = 1
    gens = [_u2_twist(), reflection(K3.gram, root)]
    G = IsometryGroup(K3, gens)
    assert G.order() == 8
    vals = {}
    for g in G.elements():
        vals[tuple(map(tuple, g))] = spinor_plus_membership(K3, g)
    for a in G.elements():
        for b in G.elements():
            ab = mat_mul(a, b)
            expect = vals[tuple(map(tuple, a))] == vals[tuple(map(tuple, b))]
            assert vals[tuple(map(tuple, ab))] == expect


def _random_pm2_vector(rng, norm):
    # random tail in slots 2..21, then fix the norm through the first
    # hyperbolic plane: q(e + b f + tail) = 2b + q(tail), q(tail) even
    v = [0, 0] + [rng.randint(-1, 1) for _ in range(N - 2)]
    tail = K3.q(v)
    v[0] = 1
    v[1] = (norm - tail) // 2
    assert K3.q(v) == norm
    return v


def test_o_plus_matches_reflection_parity_and_cartan_dieudonne():
    # a reflection in v lies in O^+ iff v^2 < 0, so a product of them
    # does iff it uses an even number of positive vectors
    rng = random.Random(37)
    for _ in range(10):
        g = I22
        positive = 0
        for _ in range(rng.randint(1, 4)):
            norm = rng.choice((2, -2))
            positive += norm > 0
            g = mat_mul(g, reflection_general(K3.gram, _random_pm2_vector(
                rng, norm)))
        expect = positive % 2 == 0
        assert spinor_plus_membership(K3, g) is expect
        assert cartan_dieudonne_o_plus(K3, g) is expect


def _random_e8_root(rng, block):
    # a simple root of the E8(-1) block starting at slot `block`, moved by
    # a few simple reflections
    v = [0] * N
    v[block + rng.randrange(8)] = 1
    for _ in range(rng.randint(0, 3)):
        s = [0] * N
        s[block + rng.randrange(8)] = 1
        v = vec_mat(v, reflection(K3.gram, s))
    return v


def _reflection_word(rng, g, block):
    # g times a word of 1-4 reflections in E8(-1) roots of one block
    for _ in range(rng.randint(1, 4)):
        g = mat_mul(g, reflection(K3.gram, _random_e8_root(rng, block)))
    return g


def _random_finite_isometry(rng, blocks=(6, 14)):
    # g = (twist or 1) * (-1 on the first k hyperbolic planes) * words of
    # reflections in E8(-1) roots on each block; redrawn until its order
    # is at most 12
    while True:
        k = rng.randint(0, 3)
        g = [[-x if i < 2 * k else x for x in row]
             for i, row in enumerate(I22)]
        if rng.random() < 0.5:
            g = mat_mul(_u2_twist(), g)
        for block in blocks:
            g = _reflection_word(rng, g, block)
        if matrix_order(g, cap=12) is not None:
            return g


def test_cyclic_coinvariant_refuses_exactly_outside_o_plus():
    # and the class-sum L_G equals the cyclotomic-kernel oracle's
    rng = random.Random(3)
    outcomes = {"refused": 0, "pointwise-fixed-3-plane": 0,
                "rotation-on-3-plane": 0}
    while sum(outcomes.values()) < 40:
        g = _random_finite_isometry(rng)
        G = IsometryGroup(K3, [g])
        expect = cyclic_coinvariant(G)
        if spinor_plus_membership(K3, g):
            res = coinvariant_L_G(G)
            outcomes[res.mode] += 1
            assert res.L_G == expect
        else:
            assert expect is None
            with pytest.raises(ValueError, match="does not lie in O"):
                coinvariant_L_G(G)
            outcomes["refused"] += 1
    assert min(outcomes.values()) >= 3, outcomes


def test_noncyclic_products_match_the_cyclic_oracle():
    # G = <a> x <b>: a acts on U^3 + E8(-1), b is a reflection word on the
    # second E8(-1) block, a negative-definite summand. So the components
    # of G are those of <a> and <b>, and L_G = saturation(L_<a> + L_<b>)
    rng = random.Random(23)
    outcomes = {"refused": 0, "pointwise-fixed-3-plane": 0,
                "rotation-on-3-plane": 0}
    orders = set()
    while sum(outcomes.values()) < 12:
        a = _random_finite_isometry(rng, blocks=(6,))
        b = _reflection_word(rng, I22, 14)
        oa, ob = matrix_order(a, cap=12), matrix_order(b, cap=12)
        if ob is None or math.gcd(oa, ob) == 1:
            continue
        G = IsometryGroup(K3, [a, b])
        orders.add(G.order())
        La = cyclic_coinvariant(IsometryGroup(K3, [a]))
        Lb = cyclic_coinvariant(IsometryGroup(K3, [b]))
        if not (spinor_plus_membership(K3, a)
                and spinor_plus_membership(K3, b)):
            assert La is None or Lb is None
            with pytest.raises(ValueError, match="does not lie in O"):
                coinvariant_L_G(G)
            outcomes["refused"] += 1
            continue
        rows = La + Lb
        res = coinvariant_L_G(G)
        outcomes[res.mode] += 1
        assert res.L_G == int_kernel(int_kernel(rows))
    assert min(outcomes.values()) >= 2, outcomes
    assert len(orders) > 3, orders


def _differential_outcome(G):
    """Run decide_complex and the two-path oracle on G, assert they agree,
    and name the outcome."""
    try:
        expect = complement_complex_report(G)
    except ValueError as e:
        with pytest.raises(ValueError) as info:
            decide_complex(G)
        assert str(info.value) == str(e)
        return "refused"
    mode, fixed, L, pieces, metric, mwit, cx, reason, cwit = expect
    rep = decide_complex(G)
    res = rep.coinvariant
    assert (res.mode, res.fixed, res.L_G) == (mode, fixed, L)
    assert (rep.metric, rep.metric_witness, rep.complex_verdict,
            rep.complex_reason, rep.complex_witness) == (
        metric, mwit, cx, reason, cwit)
    assert res.pieces == pieces
    return "%s %s/%s" % (mode.split("-")[0], metric, cx)


def test_one_pipeline_matches_the_two_path_oracle(monkeypatch):
    # cyclic draws, <a> x <b> products and the bench input groups in
    # seeded unimodular bases, on which the fixed lattice seeds the
    # class-sum split and the complex verdict is read off it
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    from skew import Skew
    from k3lat import serialize
    rng = random.Random(3)
    groups = [IsometryGroup(K3, [_random_finite_isometry(rng)])
              for _ in range(16)]
    while len(groups) < 20:
        a = _random_finite_isometry(rng, blocks=(6,))
        b = _reflection_word(rng, I22, 14)
        if matrix_order(b, cap=12) is not None:
            groups.append(IsometryGroup(K3, [a, b]))
    for name in ("a4", "nikulin-involution", "model-prime-3", "coxeter",
                 "rotation12"):
        obj = serialize.read_json_file(os.path.join(
            ROOT, "bench", "inputs", name + "-group.json"))
        for seed in (1, 2):
            skewed = Skew(N, 12, seed).group(obj, name)
            groups.append(serialize.group_from_obj(skewed))
    outcomes = Counter(map(_differential_outcome, groups))
    want = ["pointwise yes/yes", "rotation yes/yes", "rotation yes/no",
            "pointwise no/no", "rotation no/no", "refused"]
    assert all(outcomes[k] >= 2 for k in want), outcomes


def test_coinvariant_rows_are_in_hnf_and_each_gram_is_theirs():
    # L_G, the fixed lattice and its complement are basis rows in row
    # HNF, and each stored Gram is the Gram of its rows: on the bench
    # input groups and a seeded base-changed copy of each
    from k3lat import serialize
    rng = random.Random(34)
    groups = []
    for name in ("a4", "nikulin-involution", "model-prime-3", "coxeter",
                 "rotation12"):
        G = serialize.group_from_obj(serialize.read_json_file(os.path.join(
            ROOT, "bench", "inputs", name + "-group.json")))
        U = random_unimodular(rng, N, 12)
        Uinv = to_int_matrix(inverse(U))
        skewed = Lattice(mat_mul(mat_mul(U, G.ambient.gram), transpose(U)))
        groups += [G, IsometryGroup(skewed, [mat_mul(mat_mul(U, g), Uinv)
                                             for g in G.generators])]
    for G in groups:
        res = coinvariant_L_G(G)
        assert res.ambient is G.ambient
        for rows, gram in ((res.L_G, res.L_G_gram),
                           (res.fixed, res.fixed_gram),
                           (res.complement, res.complement_gram)):
            assert rows == row_hnf(rows)
            assert gram == gram_of_rows(rows, G.ambient.gram)


def test_a_pointwise_group_beyond_the_element_cap_is_decided_unclosed():
    # the simple-root reflections of both E8(-1) blocks generate
    # W(E8) x W(E8), of order about 5 * 10^17, far above the element cap
    # of 10^5; the group fixes U^3, so L_G is the complement E8(-1)^2,
    # and its roots decide metric no without the closure
    G = IsometryGroup(K3, [_root_reflection(i) for i in range(6, 22)])
    rep = decide_complex(G)
    res = rep.coinvariant
    assert res.mode == "pointwise-fixed-3-plane"
    assert res.pieces == [(6, 3), (16, 0)]
    assert res.L_G_gram == [row[6:] for row in K3.gram[6:]]
    assert (rep.metric, rep.complex_verdict) == ("no", "no")
    assert G._elements is None


def test_a4_components_match_the_projector_oracle():
    act = a4_example()
    expect = projector_coinvariant(act.group, act.projectors)
    for projectors, mode in ((None, "rotation-on-3-plane"),
                             (act.projectors, "supplied-isotypic")):
        res = coinvariant_L_G(act.group, projectors)
        assert res.mode == mode
        assert res.pieces == [(4, 0), (18, 3)]
        assert res.L_G == expect


def _complement(Z, D):
    # D*I - Z, the integral form of 1 - E for E = Z/D
    return [[D * a - z for a, z in zip(ra, rz)] for ra, rz in zip(I22, Z)]


def test_characters_match_the_change_of_basis_traces():
    # tr(g Z)/D and tr(g^2 Z)/D against the traces of the matrices of g
    # and g^2 on the image of E = Z/D: on A_4's E and 1 - E and on the
    # Reynolds projectors (1/|G|) sum g of seeded cyclic groups and their
    # complements
    act = a4_example()
    cases = []
    for E in act.projectors:
        D = math.lcm(*[x.denominator for row in E for x in row])
        cases.append((act.group.elements(),
                      [[int(x * D) for x in row] for row in E], D))
    rng = random.Random(17)
    for _ in range(6):
        elements = IsometryGroup(K3, [_random_finite_isometry(rng)]).elements()
        Z = [[sum(col) for col in zip(*rows)] for rows in zip(*elements)]
        D = len(elements)
        cases += [(elements, Z, D), (elements, _complement(Z, D), D)]
    ranks = []
    for elements, Z, D in cases:
        basis = int_kernel(transpose(_complement(Z, D)))
        ranks.append(len(basis))
        squares = [mat_mul(g, g) for g in elements]
        expect = basis_characters(elements, basis)
        assert projector_character(elements, Z, D) == [c for c, _ in expect]
        assert projector_character(squares, Z, D) == [c2 for _, c2 in expect]
    assert ranks[:2] == [4, 18]
    assert len(set(ranks)) > 4, ranks


def test_pointwise_reflection_coinvariant():
    root = [0] * N
    root[6] = 1
    Gr = IsometryGroup(K3, [reflection(K3.gram, root)])
    res = coinvariant_L_G(Gr)
    assert res.mode == "pointwise-fixed-3-plane"
    assert len(res.L_G) == 1
    assert res.L_G_gram == [[-2]]


def test_order_twelve_rotation_coinvariant():
    g12 = mat_mul(_u2_twist(), _c3_rotation())
    G12 = IsometryGroup(K3, [g12])
    assert G12.order() == 12
    res = coinvariant_L_G(G12)
    assert res.mode == "rotation-on-3-plane"
    assert res.pieces == [(2, 0), (4, 2), (16, 1)]
    assert len(res.L_G) == 2
    gram = res.L_G_gram
    assert gram in ([[-2, 1], [1, -2]], [[-2, -1], [-1, -2]])


def test_order_four_rotation_has_zero_coinvariant():
    G4 = IsometryGroup(K3, [_u2_twist()])
    res = coinvariant_L_G(G4)
    assert res.L_G == []
    assert res.pieces == [(4, 2), (18, 1)]


def _c4_c2():
    root = [0] * N
    root[6] = 1
    return IsometryGroup(K3, [_u2_twist(), reflection(K3.gram, root)])


def test_noncyclic_group_splits_by_rational_class_sums():
    Gnc = _c4_c2()
    assert Gnc.order() == 8
    assert len(rational_classes(Gnc)) == 6
    res = coinvariant_L_G(Gnc)
    assert res.mode == "rotation-on-3-plane"
    assert res.pieces == [(1, 0), (4, 2), (17, 1)]
    assert res.L_G_gram == [[-2]]


def test_rational_classes_match_the_conjugation_closure(monkeypatch):
    # once the closure is cached (the oracle computes it) the classes are
    # index lookups: no matrix product and no inverse, and the lists and
    # their order are the conjugation closure's
    import k3lat.groups as groups
    calls = []
    rng = random.Random(3)
    cyclic = [IsometryGroup(K3, [_random_finite_isometry(rng)])
              for _ in range(8)]
    assert sorted(G.order() for G in cyclic) != [1] * len(cyclic)
    # C4 x C2, and the non-abelian A_4
    for G in cyclic + [_c4_c2(), a4_example().group]:
        expect = rational_classes_by_conjugation(G)
        with monkeypatch.context() as m:
            for name in ("express_in_basis", "mat_mul"):
                real = getattr(groups, name)
                m.setattr(groups, name, lambda *a, name=name, real=real:
                          calls.append(name) or real(*a))
            assert rational_classes(G) == expect
    assert not calls


def _e8_chains(block, length):
    # the simple-root chains of the E8(-1) block at basis slots
    # block..block+7: the paths of its Dynkin tree, read off the Gram
    slots = range(block, block + 8)
    paths = [[i] for i in slots]
    for _ in range(length - 1):
        paths = [path + [j] for path in paths for j in slots
                 if j not in path and K3.gram[path[-1]][j]]
    return paths


def _root_reflection(i):
    root = [0] * N
    root[i] = 1
    return reflection(K3.gram, root)


# (chain lengths in the two E8 blocks, with the twist, order, classes):
# S_3, S_4, S_5, S_3 x S_3, S_3 x C_4 and S_4 x C_4
WEYL_GROUPS = [((2,), False, 6, 3), ((3,), False, 24, 5),
               ((4,), False, 120, 7), ((2, 2), False, 36, 9),
               ((2,), True, 24, 9), ((3,), True, 96, 15)]


def test_rational_classes_of_weyl_groups_match_the_conjugation_closure():
    # non-abelian groups on seeded simple-root chains; the closure's
    # table and words multiply out to its elements
    rng = random.Random(26)
    for lengths, twist, order, count in WEYL_GROUPS:
        gens = [_u2_twist()] if twist else []
        for block, k in zip((6, 14), lengths):
            gens += [_root_reflection(i)
                     for i in rng.choice(_e8_chains(block, k))]
        G = IsometryGroup(K3, gens)
        elements = G.elements()
        assert len(elements) == order
        for a, row in enumerate(G._table):
            for b, g in zip(row, G.generators):
                assert elements[b] == mat_mul(elements[a], g)
        for x, word in zip(elements, G._words):
            prod = I22
            for j in word:
                prod = mat_mul(prod, G.generators[j])
            assert prod == x
        classes = rational_classes(G)
        assert classes == rational_classes_by_conjugation(G)
        assert len(classes) == count


def test_coarse_projectors_are_checked_against_the_components():
    # the Reynolds projector E and 1 - E: 1 - E spans the rank-1 and the
    # complex-type rank-4 component, which the projector oracle refuses
    Gnc = _c4_c2()
    elements = Gnc.elements()
    E = [[Fraction(sum(col), len(elements)) for col in zip(*rows)]
         for rows in zip(*elements)]
    projectors = [E, [[a - e for a, e in zip(ra, re)]
                      for ra, re in zip(I22, E)]]
    with pytest.raises(ValueError, match="real-type"):
        projector_coinvariant(Gnc, projectors)
    res = coinvariant_L_G(Gnc, projectors)
    assert res.mode == "supplied-isotypic"
    assert res.L_G == coinvariant_L_G(Gnc).L_G


def test_bad_isotypic_projectors_are_rejected():
    root = [0] * N
    root[6] = 1
    Gnc = IsometryGroup(K3, [_u2_twist(), reflection(K3.gram, root)])
    half = [[Fraction(x, 2) for x in row] for row in I22]
    P = [[0] * N for _ in range(N)]
    P[0][0] = 1
    rest = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(I22, P)]
    # I/2 + I/2 sums to 1 but is not idempotent; P is an idempotent
    # coordinate projector that the order-4 twist does not commute with
    for projectors in ([half, half], [P, rest]):
        with pytest.raises(ValueError):
            coinvariant_L_G(Gnc, projectors)


def test_projectors_of_a_pointwise_group_meet_its_components():
    # supplied projectors take the class-sum path also when the group
    # fixes a positive 3-plane pointwise: the span of L_G is the same,
    # and so are its HNF bytes
    from k3lat import serialize
    G = serialize.group_from_obj(serialize.read_json_file(os.path.join(
        ROOT, "bench", "inputs", "nikulin-involution-group.json")))
    plain = coinvariant_L_G(G)
    assert plain.mode == "pointwise-fixed-3-plane"
    res = coinvariant_L_G(G, [I22])
    assert res.mode == "supplied-isotypic"
    assert res.L_G == plain.L_G
    assert res.pieces == plain.pieces == [(8, 0), (14, 3)]
    half = [[Fraction(x, 2) for x in row] for row in I22]
    with pytest.raises(ValueError, match="projector 0 is not idempotent"):
        coinvariant_L_G(G, [half, half])


def test_projectors_of_the_wrong_size_are_rejected():
    root = [0] * N
    root[6] = 1
    Gnc = IsometryGroup(K3, [_u2_twist(), reflection(K3.gram, root)])
    with pytest.raises(ValueError, match="22 x 22"):
        coinvariant_L_G(Gnc, [identity_matrix(2)])


def test_coinvariant_certificates_hold_under_python_O():
    # a saturation that returns the whole lattice must be caught by a
    # check that names the claim, not by an assert that -O strips; the
    # outer kernel of the saturation int_kernel(int_kernel(keep)) is the
    # one call of coinvariant_L_G on rows an earlier call returned
    script = (
        "from k3lat import groups, serialize\n"
        "from k3lat.matrix import identity_matrix\n"
        "G = serialize.group_from_obj(serialize.read_json_file(%r))\n"
        "kernels = []\n"
        "def int_kernel(A, kernel=groups.int_kernel):\n"
        "    if A in kernels:\n"
        "        return identity_matrix(len(A[0]))\n"
        "    kernels.append(kernel(A))\n"
        "    return kernels[-1]\n"
        "groups.int_kernel = int_kernel\n"
        "try:\n"
        "    groups.coinvariant_L_G(G)\n"
        "    print('accepted')\n"
        "except AssertionError as e:\n"
        "    print(e)\n" % os.path.join(ROOT, "bench", "inputs",
                                       "rotation12-group.json")
    )
    proc = run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "L_G must be negative definite or zero"


def test_dependent_kept_components_are_refused_under_python_O():
    # the kept pieces are the one place L_G's rows are not independent by
    # construction: a split that repeats the first row of the rank-2
    # negative definite component of the order-12 rotation passes the
    # rank and signature sums, and the independence check must name it
    script = (
        "from k3lat import groups, serialize\n"
        "G = serialize.group_from_obj(serialize.read_json_file(%r))\n"
        "def split(group, pieces, split=groups.isotypic_components):\n"
        "    return [part for B in split(group, pieces)\n"
        "            for part in ([B[:1], B[:1]] if len(B) == 2 else [B])]\n"
        "groups.isotypic_components = split\n"
        "try:\n"
        "    groups.coinvariant_L_G(G)\n"
        "    print('accepted')\n"
        "except AssertionError as e:\n"
        "    print(e)\n" % os.path.join(ROOT, "bench", "inputs",
                                       "rotation12-group.json")
    )
    proc = run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ("the isotypic components without a "
                                   "positive part must be independent")


def test_bad_isotypic_projectors_are_rejected_under_python_O():
    # projectors come from files: their checks must not be asserts
    script = (
        "from fractions import Fraction\n"
        "from k3lat.groups import IsometryGroup, coinvariant_L_G\n"
        "from k3lat.matrix import identity_matrix\n"
        "from k3lat.standard import k3_lattice, reflection\n"
        "k3 = k3_lattice()\n"
        "twist = identity_matrix(22)\n"
        "twist[0][:4] = [0, 0, 1, 0]\n"
        "twist[1][:4] = [0, 0, 0, 1]\n"
        "twist[2][:4] = [-1, 0, 0, 0]\n"
        "twist[3][:4] = [0, -1, 0, 0]\n"
        "root = [0] * 22\n"
        "root[6] = 1\n"
        "G = IsometryGroup(k3, [twist, reflection(k3.gram, root)])\n"
        "half = [[Fraction(x, 2) for x in row]\n"
        "        for row in identity_matrix(22)]\n"
        "try:\n"
        "    coinvariant_L_G(G, [half, half])\n"
        "    print('accepted')\n"
        "except ValueError as e:\n"
        "    print(e)\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "projector 0 is not idempotent"


def test_order_three_rotation_glues_to_regular_summand():
    C3 = _c3_rotation()
    dec3 = zg_decomposition(C3, 3)
    assert (dec3.t, dec3.c, dec3.r) == (19, 0, 1)
    res3 = coinvariant_L_G(IsometryGroup(K3, [C3]))
    rep3 = regular_summand_discriminant_check(res3, C3, dec3)
    assert rep3["image_is_direct_summand"]
    assert rep3["disc_is_Fp_space_of_dim_r"]
    assert rep3["complement_disc_orders"] == [3]


def test_regular_summand_check_refuses_another_groups_result():
    swap, C3 = _swap_matrix(), _c3_rotation()
    res3 = coinvariant_L_G(IsometryGroup(K3, [C3]))
    with pytest.raises(ValueError, match="the group g generates"):
        regular_summand_discriminant_check(res3, swap,
                                           zg_decomposition(swap, 2))


def test_fixed_sublattice_is_primitive_and_pointwise():
    swap = _swap_matrix()
    F = IsometryGroup(K3, [swap]).fixed_sublattice()
    assert len(F) == 14
    assert sublattice_index(F, int_kernel(int_kernel(F))) == 1
    for v in F:
        assert [sum(v[i] * swap[i][j] for i in range(N))
                for j in range(N)] == list(v)


def _companion(poly):
    # companion matrix of a monic polynomial given in ascending order
    n = len(poly) - 1
    C = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        C[i + 1][i] = 1
    for i in range(n):
        C[i][n - 1] = -poly[i]
    return C


def _planted_shapes(rng):
    """(g, p, (t, c, r)): block sums of the planted summands, 12 draws per
    prime, in a seeded unimodular basis."""
    for p in (2, 3, 5, 7):
        for _ in range(12):
            t = rng.randint(0, 3)
            c = rng.randint(0, 2)
            r = rng.randint(0, 2)
            if t + c + r == 0:
                continue
            blocks = []
            for _ in range(t):
                blocks.append([[1]])
            for _ in range(c):
                blocks.append(_companion(cyclotomic(p)))
            for _ in range(r):
                # regular representation: cyclic permutation of Z^p
                P = [[0] * p for _ in range(p)]
                for i in range(p):
                    P[i][(i + 1) % p] = 1
                blocks.append(P)
            n = sum(len(b) for b in blocks)
            g = [[0] * n for _ in range(n)]
            at = 0
            for b in blocks:
                for i, row in enumerate(b):
                    for j, x in enumerate(row):
                        g[at + i][at + j] = x
                at += len(b)
            U = random_unimodular(rng, n, 3 * n)
            gc = to_int_matrix(mat_mul(mat_mul(U, g), inverse(U)))
            assert matrix_order(gc) in (1, p)
            yield gc, p, (t, c, r)


def _bench_prime_order_elements(rng):
    """(g, p, None): the prime-order powers g^(m/p) of each generator, of
    order m, of the bench input groups, each also in a seeded unimodular
    basis."""
    from k3lat import serialize
    for name in ("a4", "nikulin-involution", "model-prime-3", "coxeter",
                 "rotation12"):
        G = serialize.group_from_obj(serialize.read_json_file(os.path.join(
            ROOT, "bench", "inputs", name + "-group.json")))
        for g in G.generators:
            m = matrix_order(g)
            for p in filter(is_prime, range(2, m + 1)):
                if m % p:
                    continue
                h = I22
                for _ in range(m // p):
                    h = mat_mul(h, g)
                U = random_unimodular(rng, N, 12)
                yield h, p, None
                yield to_int_matrix(mat_mul(mat_mul(U, h), inverse(U))), p, None


def test_zg_decomposition_recovers_planted_shape():
    # one Smith form of g - 1 against the mod-p Jordan ladder and the
    # rational kernel ranks ker(g - 1) = t + r, ker Phi_p(g) = (c + r)(p - 1)
    rng = random.Random(77)
    cases = list(_planted_shapes(rng)) + list(_bench_prime_order_elements(rng))
    assert {p for _, p, planted in cases if planted is None} == {2, 3}
    for g, p, planted in cases:
        dec = zg_decomposition(g, p)
        tcr = (dec.t, dec.c, dec.r)
        assert planted in (None, tcr)
        assert (tcr, dec.jordan_blocks) == jordan_profile(g, p)
        n = len(g)
        assert n - rank(mat_sub(g, identity_matrix(n))) == dec.t + dec.r
        assert n - rank(poly_eval_matrix([1] * p, g)) == \
            (dec.c + dec.r) * (p - 1)


def test_zg_decomposition_names_smith_divisors_outside_0_1_p(monkeypatch):
    from k3lat import groups
    real = groups.snf

    def fake(A):
        S, U = real(A)
        S[0][0] = 3
        return S, U
    monkeypatch.setattr(groups, "snf", fake)
    with pytest.raises(ArithmeticError,
                       match=re.escape("divisors %s" % ([3] + [1] * 7))):
        zg_decomposition(_swap_matrix(), 2)


def test_zg_decomposition_refuses_a_composite_p():
    with pytest.raises(ValueError, match="p must be a prime, got 4"):
        zg_decomposition(_u2_twist(), 4)


def test_zg_decomposition_rejects_wrong_order():
    with pytest.raises(ValueError):
        zg_decomposition(_u2_twist(), 2)  # order 4, not 2
