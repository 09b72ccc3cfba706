from collections import Counter
from fractions import Fraction
import random

import pytest

from k3lat import nikulin

from k3lat.lattice import (
    DiscriminantForm,
    Lattice,
    direct_sum,
    gram_of_rows,
    sublattice_index,
)
from k3lat.matrix import (
    block_diag,
    identity_matrix,
    inverse,
    mat_add,
    mat_mul,
    mat_scale,
    matrix_order,
    transpose,
)
from k3lat.nikulin import (
    K_VECTORS,
    VARPI_NORMS,
    UnsupportedPrime,
    _flat_rho,
    _pair,
    _scaled_dual,
    _trivial_on_disc,
    aut_trivial_on_disc_search,
    genus_check_lambda_G,
)
from k3lat.shortvec import (
    enumerate_vectors,
    lattice_isometry,
    lll_gram,
    min_norm_and_kissing,
)
from k3lat.standard import hyperbolic_plane, root_lattice

from conftest import family, run_optimized
from oracles import (
    base_changed_gram,
    build_full,
    fraction_trivial_on_disc,
    hermitian_pairing_smoke,
    in_rowspan_z,
    k_vector_uniqueness,
    naive_enumerate_up_to,
    rational_lift,
    rescale,
    to_fraction_matrix,
    to_int_matrix,
)

PRIMES = (2, 3, 5, 7)


@pytest.mark.parametrize("p", PRIMES)
def test_distinguished_vector_norms(p):
    fam = family(p)
    assert fam.nu * (p + 1) == 24
    rho = [Fraction(x, p) for x in fam.p_rho]
    varpi = [Fraction(x, p) for x in fam.p_varpi]
    assert _pair(fam.gram_D, rho, rho) == -2 * (p - 1) * p
    assert _pair(fam.gram_D, varpi, varpi) == VARPI_NORMS[p]
    assert fam.k == K_VECTORS[p]
    assert (p, fam.nu) in {(2, 8), (3, 6), (5, 4), (7, 3)}


@pytest.mark.parametrize("p", PRIMES)
def test_overlattice_and_kernel_indices(p):
    fam = family(p)
    m = fam.nu * (p - 1)
    # N_p contains the orthogonal sum of the Cartan blocks with index p
    # (both scaled by p, as fam.p_basis_N holds N_p)
    unit_rows = identity_matrix(m)
    from k3lat.lattice import express_in_basis
    coords = express_in_basis(mat_scale(p, unit_rows), fam.p_basis_N)
    assert coords is not None
    assert sublattice_index(coords, unit_rows) == p
    # L_p is the kernel of pairing against rho mod p, again index p
    assert sublattice_index(fam.L_basis_in_N, unit_rows) == p
    # rho itself lies in the kernel
    assert in_rowspan_z(fam.L_basis_in_N, fam.rho_in_N)


@pytest.mark.parametrize("p", PRIMES)
def test_discriminant_shapes(p):
    fam = family(p)
    DN = fam.N.discriminant_group()
    assert DN.cyclic_orders == fam.checks["disc_N_orders"]
    DL = fam.L.discriminant_group()
    assert DL.cyclic_orders == [p] * fam.nu


@pytest.mark.parametrize("p", PRIMES)
def test_L_has_no_roots(p):
    fam = family(p)
    assert enumerate_vectors(fam.L.gram, -2) == []
    assert fam.checks["L_has_no_roots"]


@pytest.mark.parametrize("p", PRIMES)
def test_sigma_order_and_disc_action(p):
    fam = family(p)
    assert matrix_order(fam.sigma_L) == p
    GL = fam.L.gram
    assert mat_mul(mat_mul(fam.sigma_L, GL), transpose(fam.sigma_L)) == GL
    # trivial action on the discriminant group: (sigma - 1) maps the dual
    # into the lattice itself
    DL = fam.L.discriminant_group()
    S = to_fraction_matrix(fam.sigma_L)
    for unit in identity_matrix(len(DL.orders)):
        lift = rational_lift(DL, unit)
        moved = [sum(lift[i] * S[i][j] for i in range(len(S)))
                 for j in range(len(S))]
        diff = [a - b for a, b in zip(moved, lift)]
        assert all(x.denominator == 1 for x in diff)
    assert fam.checks["sigma_trivial_on_disc"]
    assert fam.checks["sigma_char_poly_power"]


@pytest.mark.parametrize("p", PRIMES)
def test_K_frame_identities(p):
    fam = family(p)
    GK = fam.K.gram
    m = len(fam.N.gram)
    # s.rho = 2(p-1) with rho carried into the K frame
    jrho = _flat_rho(fam)
    s = [0] * len(GK)
    s[m + 1] = 1
    assert _pair(GK, s, jrho) == 2 * (p - 1)
    # (p s + rho)^2 = -2p
    v = [p * a + b for a, b in zip(s, jrho)]
    assert _pair(GK, v, v) == -2 * p
    # e' is isotropic and pairs with f by p
    e = fam.K_eprime
    assert _pair(GK, e, e) == 0
    f = [0] * len(GK)
    f[m] = 1
    assert _pair(GK, f, e) == p
    assert fam.checks["K_splits_off_U"]
    assert fam.checks["s_dot_rho"] == 2 * (p - 1)
    assert fam.checks["complement_is_Up"]
    assert fam.checks["sigma_extends_to_K"]
    # sigma_K is an isometry of K of order p
    assert mat_mul(mat_mul(fam.sigma_K, GK), transpose(fam.sigma_K)) == GK
    assert matrix_order(fam.sigma_K) == p


@pytest.mark.parametrize("p", PRIMES)
def test_complement_of_L_in_K_is_p_scaled_plane(p):
    fam = family(p)
    GK = fam.K.gram
    m = len(fam.N.gram)
    f = [0] * len(GK)
    f[m] = 1
    rows = [fam.K_eprime, f]
    C = gram_of_rows(rows, GK)
    assert to_int_matrix(to_fraction_matrix(C)) == [[0, p], [p, 0]]


def test_k_vector_uniqueness():
    assert k_vector_uniqueness(2)["vacuous"]
    for p in (3, 5, 7):
        rep = k_vector_uniqueness(p)
        assert rep["unique"]
        assert rep["solutions"] == [rep["expected"]]


@pytest.mark.parametrize("p", (2, 3))
def test_disc_trivial_automorphisms_exhaust_to_sigma(p):
    fam = family(p)
    rep = aut_trivial_on_disc_search(fam)
    assert rep["group_order"] == p
    assert rep["equals_sigma_cyclic"]


@pytest.mark.parametrize("p, order", ((5, 10), (7, 21)))
def test_disc_trivial_automorphisms_outgrow_sigma(p, order):
    # at p = 5 and 7 the group is D_10 and C_7 x| C_3, with sigma of
    # index 2 and 3
    rep = aut_trivial_on_disc_search(family(p))
    assert rep["group_order"] == order
    assert not rep["equals_sigma_cyclic"]


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_Lp_basis_is_LLL_reduced(p):
    # build_Lp rebases on the LLL basis, so reducing again changes nothing;
    # every basis vector has norm -4, the minimum of the root-free L_p
    H, R = lll_gram([[-x for x in row] for row in family(p).L.gram])[:2]
    assert H == identity_matrix(len(H))
    assert [R[i][i] for i in range(len(R))] == [4] * len(R)


def test_L2_is_E8_negated_twice():
    fam = family(2)
    target = rescale(root_lattice("E", 8, sign=-1), 2)
    T = lattice_isometry(fam.L.gram, target.gram)
    assert T is not None
    assert mat_mul(mat_mul(T, target.gram), transpose(T)) == fam.L.gram


def test_disc_N2_matches_three_scaled_planes():
    fam = family(2)
    DN = fam.N.discriminant_group()
    U2 = rescale(hyperbolic_plane(), 2)
    DU = direct_sum(U2, U2, U2).discriminant_group()
    assert DN.cyclic_orders == DU.cyclic_orders == [2] * 6
    dn = sorted(DN.q(x) for x in DN.elements())
    du = sorted(DU.q(x) for x in DU.elements())
    assert dn == du


def test_E8_minus_2_disc_differs_from_scaled_points():
    e82 = rescale(root_lattice("E", 8, sign=-1), 2)
    D1 = DiscriminantForm(e82.gram)
    # rescaling A_1(-1) by 2 gives <-4> summands with cyclic order 4,
    # so the group shapes already disagree
    pts4 = direct_sum(*[rescale(root_lattice("A", 1, sign=-1), 2)
                        for _ in range(8)])
    assert D1.cyclic_orders == [2] * 8
    assert DiscriminantForm(pts4.gram).cyclic_orders == [4] * 8
    # eight plain <-2> summands give the same group but an odd-type form:
    # every q value there is a half-integer, while E8(-2) only takes
    # integral ones
    pts2 = direct_sum(*[root_lattice("A", 1, sign=-1) for _ in range(8)])
    D2 = DiscriminantForm(pts2.gram)
    assert D2.cyclic_orders == D1.cyclic_orders == [2] * 8
    assert all(D1.q(x).denominator == 1 for x in D1.elements())
    assert any(D2.q(x).denominator == 2 for x in D2.elements())


def test_L3_minimum_and_kissing_with_independent_enumerator():
    fam = family(3)
    assert min_norm_and_kissing(fam.L.gram) == (4, 756)
    neg = [[-x for x in row] for row in fam.L.gram]
    vecs = naive_enumerate_up_to(neg, 4, prune=True)
    norms = sorted(set(_pair(neg, v, v) for v, _ in vecs if any(v)))
    assert norms == [4]
    assert 2 * sum(1 for v, _ in vecs if any(v)) == 756


@pytest.mark.parametrize("p", (3, 5, 7))
def test_genus_of_invariant_part(p):
    fam = family(p)
    rep = genus_check_lambda_G(p, fam=fam)
    nu = fam.nu
    assert rep["candidate_rank"] == 22 - nu * (p - 1)
    assert rep["candidate_signature"] == (3, 19 - nu * (p - 1), 0)
    assert rep["opposite_disc_match"]
    with pytest.raises(UnsupportedPrime):
        genus_check_lambda_G(2)


def test_hermitian_orbit_sums_vanish():
    fam = family(3)
    rep = hermitian_pairing_smoke(fam)
    assert rep["all_zero"]
    assert rep["pairs_checked"] > 0


def test_build_full_integration_p3():
    fam = build_full(3)
    assert fam.checks["aut_search"]["group_order"] == 3
    assert fam.checks["hermitian_orbit_sums_vanish"]
    assert fam.L.rank == 12


def _p_elementary_gram(rng, p):
    """A seeded even lattice with p-elementary discriminant: a few blocks
    A_{p-1}(-1), U(p) and U, in a skewed basis."""
    blocks = [rng.choice([root_lattice("A", p - 1, -1).gram,
                          hyperbolic_plane(p).gram,
                          hyperbolic_plane().gram])
              for _ in range(rng.randint(2, 4))]
    return Lattice(base_changed_gram(rng, block_diag(*blocks), 8))


def test_disc_triviality_congruence_matches_the_fraction_test():
    # C (T - 1) = 0 mod p for C = p G^-1 against G^-1 (T - 1) integral in
    # Fractions, on L_p and on seeded p-elementary lattices; T = 1 + G Y
    # is always trivial, a random integer T mostly not
    rng = random.Random(2917)
    cases = [(family(p).L, p, [family(p).sigma_L]) for p in PRIMES]
    cases += [(_p_elementary_gram(rng, p), p, []) for p in PRIMES
              for _ in range(3)]
    seen = Counter()
    for L, p, known in cases:
        G, n = L.gram, L.rank
        C = _scaled_dual(L, p)
        assert C == to_int_matrix(
            [[p * x for x in row] for row in inverse(G)])
        for T in known:
            assert _trivial_on_disc(C, T, p)
            assert fraction_trivial_on_disc(G, T)
        for trial in range(6):
            Y = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            if trial % 2 == 0:
                T = mat_add(identity_matrix(n), mat_mul(G, Y))
            else:
                T = Y
            got = _trivial_on_disc(C, T, p)
            assert got == fraction_trivial_on_disc(G, T), (p, trial)
            assert got or trial % 2
            seen[got] += 1
    assert seen[True] >= 10 and seen[False] >= 10, seen


def test_scaled_dual_refuses_an_exponent_not_dividing_p():
    # disc(A_3) is Z/4 and disc(A_2(-1) + U(2)) is Z/3 x (Z/2)^2
    for gram, p in ((root_lattice("A", 3, -1).gram, 2),
                    (block_diag(root_lattice("A", 2, -1).gram,
                                hyperbolic_plane(2).gram), 3)):
        with pytest.raises(ArithmeticError,
                           match="discriminant exponent must divide p"):
            _scaled_dual(Lattice(gram), p)


def test_scaled_dual_refuses_an_exponent_not_dividing_p_under_python_O():
    # a raise, which -O keeps; build_sigma solves for C = p G^-1 of L_p
    # here once, and the aut search reads it from the family
    code = (
        "from k3lat.nikulin import _scaled_dual\n"
        "from k3lat.standard import root_lattice\n"
        "try:\n"
        "    print('accepted', _scaled_dual(root_lattice('A', 3, -1), 2))\n"
        "except ArithmeticError as exc:\n"
        "    print('raised', exc)\n"
    )
    proc = run_optimized(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == \
        "raised discriminant exponent must divide p"


@pytest.mark.parametrize("drop", (0, -1))
def test_aut_search_refuses_a_found_set_that_is_not_a_group(monkeypatch,
                                                            drop):
    # with one filling lost, the closure of the rest is larger than the
    # found set
    fill = nikulin._fill_slots

    def lossy(*args, **kwargs):
        found, nodes = fill(*args, **kwargs)
        del found[drop]
        return found, nodes
    monkeypatch.setattr(nikulin, "_fill_slots", lossy)
    with pytest.raises(ArithmeticError, match="must form a group"):
        aut_trivial_on_disc_search(family(3))
