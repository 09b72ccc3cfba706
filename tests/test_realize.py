from fractions import Fraction

import pytest

from k3lat import realize
from k3lat.groups import IsometryGroup, zg_decomposition
from k3lat.lattice import DiscriminantForm, Lattice, direct_sum
from k3lat.matrix import (
    block_diag,
    identity_matrix,
    mat_mul,
    matrix_order,
)
from k3lat.realize import (
    A3A3_EMBEDDING,
    COXETER_GLUE_IMAGES,
    MODEL_GLUE_IMAGES,
    HypothesisViolated,
    RealizabilityReport,
    TEICHMUELLER_CAVEAT,
    build_a4_example,
    build_coxeter_model,
    build_model_prime_action,
    build_nikulin_involution,
    classify_dichotomy,
    decide_complex,
    decide_metric,
    GLUE_PARTNERS,
    _coxeter_partner,
    dehn_twist_obstruction,
    glue_unimodular,
    transport_action,
)
from k3lat.standard import (
    cycle_coxeter_matrix,
    k3_lattice,
    reflection,
    root_lattice,
)
from k3lat.lattice import two_elementary_profile

from conftest import family, run_optimized
from oracles import (
    anti_isometry_images,
    derive_coxeter_glue_images,
    derive_model_glue_images,
    find_a3a3_embedding,
    fraction_mat_mul,
    fraction_overlattice,
    fraction_solve_rows,
    rational_lift,
    rescale,
    to_int_matrix,
)

K3 = k3_lattice()
N = 22


def _swap_matrix():
    swap = [[0] * N for _ in range(N)]
    for i in range(6):
        swap[i][i] = 1
    for i in range(8):
        swap[6 + i][14 + i] = 1
        swap[14 + i][6 + i] = 1
    return swap


def _c3_rotation():
    r1 = [0] * N
    r1[6] = 1
    r2 = [0] * N
    r2[8] = 1
    return mat_mul(reflection(K3.gram, r1), reflection(K3.gram, r2))


def test_trivial_group_is_doubly_realizable():
    G = IsometryGroup(K3, [identity_matrix(N)])
    rep = decide_complex(G)
    assert rep.metric == "yes"
    assert rep.complex_verdict == "yes"
    assert rep.L_G_rank == 0
    assert rep.caveat == TEICHMUELLER_CAVEAT


def test_reflection_group_fails_metric():
    root = [0] * N
    root[6] = 1
    G = IsometryGroup(K3, [reflection(K3.gram, root)])
    verdict, wit, res = decide_metric(G)
    assert verdict == "no"
    assert wit in (root, [-x for x in root])
    rep = decide_complex(G)
    assert rep.metric == "no" and rep.complex_verdict == "no"
    assert rep.complex_reason == "no-minus-two-failed"


def test_swap_involution_is_doubly_realizable():
    G = IsometryGroup(K3, [_swap_matrix()])
    rep = decide_complex(G)
    assert rep.metric == "yes"
    assert rep.complex_verdict == "yes"
    assert rep.L_G_rank == 8


def test_report_invariants_enforced():
    with pytest.raises(AssertionError):
        RealizabilityReport("no", None, "yes", "ok", None, 0)
    with pytest.raises(AssertionError):
        RealizabilityReport("maybe", None, "no", "x", None, 0)


def test_report_invariants_enforced_under_python_O():
    # the verdict invariants are checks, not asserts: -O keeps them
    script = (
        "from k3lat.realize import RealizabilityReport\n"
        "for args in [('no', None, 'yes', 'ok', None, 0),\n"
        "             ('maybe', None, 'no', 'x', None, 0),\n"
        "             ('yes', None, 'maybe', 'x', None, 0)]:\n"
        "    try:\n"
        "        RealizabilityReport(*args)\n"
        "        print('accepted')\n"
        "    except AssertionError:\n"
        "        print('raised')\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised"] * 3


def test_integrality_claims_raise_under_python_O():
    # a row outside the Z-span (outside the Q-span, or in it with a
    # denominator) fails the claim it breaks, by name, also under -O; so
    # does a row too long for the basis, which zip would truncate
    script = (
        "from k3lat.lattice import express_in_basis, sublattice_index\n"
        "from k3lat.realize import transport_action\n"
        "for f in [lambda: sublattice_index([[1, 0]], [[0, 1]]),\n"
        "          lambda: sublattice_index([[1, 0]], [[2, 0]]),\n"
        "          lambda: transport_action([[2, 0], [0, 1]],\n"
        "                                   [[0, 1], [1, 0]]),\n"
        "          lambda: express_in_basis([[1, 0, 5]], [[1, 0], [0, 1]])]:\n"
        "    try:\n"
        "        print('accepted', f())\n"
        "    except (ArithmeticError, ValueError) as e:\n"
        "        print(e)\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "first lattice must be a subgroup of the second"] * 2 + [
        "action does not preserve the glue", "all rows must have length 2"]


def test_dehn_twist_obstruction_fields():
    v = [0] * N
    v[6] = 1
    rep = dehn_twist_obstruction(v)
    assert rep["metric"] == "no"
    assert rep["obstructed"] and rep["profiles_differ"]
    assert rep["tcr"] == (20, 0, 1)
    assert rep["realizable_tcr"] == (6, 0, 8)
    assert rep["jordan_blocks"] == {1: 20, 2: 1}
    assert rep["realizable_blocks"] == {1: 6, 2: 8}


def test_dichotomy_rejects_composite_order():
    M = [[0] * N for _ in range(N)]
    M[0][2] = 1
    M[1][3] = 1
    M[2][0] = -1
    M[3][1] = -1
    for i in range(4, N):
        M[i][i] = 1
    with pytest.raises(ValueError):
        classify_dichotomy(IsometryGroup(K3, [M]))


def test_dichotomy_simple_coxeter_case():
    G = IsometryGroup(K3, [_c3_rotation()])
    rep = classify_dichotomy(G)
    assert rep.kind == "Coxeter"
    assert rep.nu == 1
    assert rep.evidence["root_components"] == [("A", 2)]
    certs = rep.evidence["coxeter_certificates"]
    assert len(certs) == 1
    assert certs[0]["char_poly_is_cyclotomic"]
    assert certs[0]["permutes_component_roots"]
    assert certs[0]["root_pairs"] == 3


def test_dichotomy_rejects_cyclotomic_summands():
    # tenth power of an E8 Coxeter element: order 3, all eigenvalues
    # primitive, so four cyclotomic summands and no regular ones
    e8m = root_lattice("E", 8, sign=-1)
    c = identity_matrix(8)
    for i in range(8):
        v = [int(k == i) for k in range(8)]
        c = mat_mul(c, reflection(e8m.gram, v))
    c10 = identity_matrix(8)
    for _ in range(10):
        c10 = mat_mul(c10, c)
    assert matrix_order(c10) == 3
    g = [[0] * N for _ in range(N)]
    for i in range(6):
        g[i][i] = 1
    for i in range(8):
        for j in range(8):
            g[6 + i][6 + j] = c10[i][j]
    for i in range(14, N):
        g[i][i] = 1
    dec = zg_decomposition(g, 3)
    assert (dec.t, dec.c, dec.r) == (14, 4, 0)
    with pytest.raises(HypothesisViolated):
        classify_dichotomy(IsometryGroup(K3, [g]))


def test_a4_example():
    ex = build_a4_example()
    assert ex.group.order() == 12
    certs = ex.certificates
    assert certs["in_O_plus"]
    assert certs["pairing_lattice_is_U3"]
    assert certs["embedding_complement_gram"] == [[4, 0], [0, 4]]
    assert certs["L_G_rank"] == 4
    assert (certs["L_G_min_norm"], certs["L_G_kissing"]) == (4, 8)
    assert certs["L_G_perpendicular_minus4_generators"] == 4
    assert certs["metric"] == "yes"
    assert certs["complex"] == "no"
    assert certs["complex_reason"] == "no-trivial-rep-in-complement"
    assert ex.projectors is not None and len(ex.projectors) == 2


def test_a4_pinned_embedding_is_rederivable():
    assert find_a3a3_embedding() == A3A3_EMBEDDING


def test_nikulin_involution_example():
    ex = build_nikulin_involution()
    certs = ex.certificates
    assert certs["order"] == 2
    assert certs["tcr"] == (6, 0, 8)
    assert certs["fixed_rank"] == 14
    assert certs["fixed_gram_matches_U3_plus_E8_minus_2"]
    assert certs["L_G_rank"] == 8
    assert certs["L_G_gram_matches_E8_minus_2"]
    assert certs["predicted_fixed_points"] == 8
    assert certs["disc_dimension_over_F2"] == 8
    assert certs["metric"] == "yes" and certs["complex"] == "yes"


def test_coxeter_model():
    ex = build_coxeter_model()
    certs = ex.certificates
    assert certs["order"] == 3
    assert certs["tcr"] == (4, 0, 6)
    assert certs["kind"] == "Coxeter"
    assert certs["nu"] == 6
    assert certs["root_components"] == [("A", 2)] * 6
    assert all(c["char_poly_is_cyclotomic"]
               for c in certs["coxeter_certificates"])


def test_small_glue_of_opposite_planes():
    # glueing A_2 to A_2(-1) along an anti-isometry of their Z/3 forms
    # produces an even unimodular lattice of signature (2, 2)
    A = root_lattice("A", 2)
    B = root_lattice("A", 2, sign=-1)
    DA = DiscriminantForm(A.gram)
    DB = DiscriminantForm(B.gram)
    images = anti_isometry_images(DA, DB)
    assert images
    lam, Bmat, embed = glue_unimodular(A, B, images, 3)
    assert lam.rank == 4
    assert lam.is_even()
    assert abs(lam.determinant()) == 1
    assert lam.signature() == (2, 2, 0)
    # the zero image does not negate q, and is refused by that identity
    with pytest.raises(ArithmeticError, match=r"q\(image of x_0\) = 0"):
        glue_unimodular(A, B, [(0,)], 3)


def _glue_inputs(model):
    """(K, W, images, p, frame action) of the glued model: the family
    model at p with sigma_K on K, or the Coxeter model."""
    if model == "coxeter":
        K = direct_sum(*[root_lattice("A", 2, -1) for _ in range(6)])
        W = _coxeter_partner()
        c = cycle_coxeter_matrix(2)
        M = block_diag(*([c] * 6 + [identity_matrix(W.rank)]))
        return K, W, COXETER_GLUE_IMAGES, 3, M
    p = int(model[1:])
    fam = family(p)
    W = GLUE_PARTNERS[p]()
    M = block_diag(fam.sigma_K, identity_matrix(W.rank))
    return fam.K, W, MODEL_GLUE_IMAGES[p], p, M


@pytest.mark.parametrize("model", ("p2", "p3", "p5", "p7", "coxeter"))
def test_integer_overlattices_match_the_fraction_path(model):
    # N_p and the glued lattice, built as p-scaled integer rows, against
    # the group generated by their Fraction rows: same basis up to the
    # factor p, same Gram, same embedding of K and transported generator
    K, W, images, p, M = _glue_inputs(model)
    if model != "coxeter":
        fam = family(p)
        m = len(fam.gram_D)
        basis, G = fraction_overlattice(
            identity_matrix(m) + [[Fraction(x, p) for x in fam.p_varpi]],
            fam.gram_D)
        assert fam.p_basis_N == [[p * x for x in row] for row in basis]
        assert fam.N.gram == G
    lam, B, embed_K = glue_unimodular(K, W, images, p)
    DK, DW = DiscriminantForm(K.gram), DiscriminantForm(W.gram)
    n = K.rank + W.rank
    rows = identity_matrix(n) + [
        rational_lift(DK, unit) + rational_lift(DW, img)
        for unit, img in zip(identity_matrix(len(images)), images)]
    basis, G = fraction_overlattice(rows, block_diag(K.gram, W.gram))
    assert B == [[p * x for x in row] for row in basis]
    assert lam.gram == G
    assert embed_K == to_int_matrix(fraction_solve_rows(
        basis, identity_matrix(n)[:K.rank]))
    assert transport_action(B, M) == to_int_matrix(fraction_solve_rows(
        basis, fraction_mat_mul(basis, M)))


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_model_pins_are_rederivable(p):
    assert derive_model_glue_images(p) == MODEL_GLUE_IMAGES[p]


def test_coxeter_pins_are_rederivable():
    assert derive_coxeter_glue_images() == COXETER_GLUE_IMAGES


def test_two_elementary_profile_of_E8_minus_2():
    e82 = rescale(root_lattice("E", 8, sign=-1), 2)
    D = DiscriminantForm(e82.gram)
    dim, even, zeros = two_elementary_profile(D)
    assert (dim, even) == (8, True)
    # even 2-elementary forms of dimension 2k have 2^(2k-1) +- 2^(k-1)
    # zeros of q; the plus sign is the one realized here
    assert zeros == 2 ** 7 + 2 ** 3 == 136


def test_model_prime_action_p3_summary():
    ex = build_model_prime_action(3)
    certs = ex.certificates
    assert certs["p"] == 3
    assert certs["ambient_even_unimodular"]
    assert certs["ambient_signature"] == (3, 19, 0)
    assert certs["K_embedded_primitively"]
    assert certs["order"] == 3
    assert certs["in_O_plus"]
    assert certs["tcr"] == (4, 0, 6)
    assert certs["fixed_sig_plus"] == 3
    assert certs["euler_prediction"] == 6
    assert certs["euler_equals_nu"]
    assert certs["L_G_rank"] == 12
    assert certs["L_G_disc_orders"] == [3] * 6
    assert certs["L_G_certification"] == "isometry"
    assert certs["dichotomy_kind"] == "Nikulin"
    assert certs["fixed_matches_genus_candidate"]
    assert certs["metric"] == "yes" and certs["complex"] == "yes"


@pytest.mark.parametrize("build", [
    lambda: build_model_prime_action(3), build_nikulin_involution,
    build_coxeter_model], ids=["model-prime-3", "nikulin-involution",
                               "coxeter-model"])
def test_builder_computes_each_lattice_invariant_once(monkeypatch, build):
    # the fixed lattice, its complement and the Z[G] profile of the
    # generator are built once and read from there on; the complement is
    # built inside coinvariant_L_G, once per call
    calls = {}

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    count(IsometryGroup, "fixed_sublattice")
    # the builders, decide_metric and classify_dichotomy call these
    # through their bindings in realize
    count(realize, "coinvariant_L_G")
    count(realize, "zg_decomposition")
    build()
    assert calls == {"fixed_sublattice": 1, "coinvariant_L_G": 1,
                     "zg_decomposition": 1}


def test_nikulin_involution_scenario_compares_grams_not_lattices(
        monkeypatch):
    # U^3 + E8(-2) is compared by its Gram, built with block_diag: the
    # Lattice objects are the K3 lattice (U, E8(-1) and their sum) and
    # one U and one E8(-1) for each of the two comparisons
    from k3lat.scenarios import run_scenario
    inits = []
    real = Lattice.__init__

    def counted(self, gram):
        inits.append(len(gram))
        real(self, gram)
    monkeypatch.setattr(Lattice, "__init__", counted)
    run_scenario("nikulin-involution")
    assert len(inits) <= 7, inits


def test_model_prime_action_rejects_other_primes():
    with pytest.raises(ValueError, match="no embedding data"):
        build_model_prime_action(11)
