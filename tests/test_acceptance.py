"""Acceptance gate: one test per published criterion.

Each test prints a single ACCEPTANCE NN PASS/FAIL line (visible through
pytest's capture) and then asserts both the result and its runtime limit.
All comparisons are exact; no tolerances appear anywhere.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from k3lat.groups import IsometryGroup, spinor_plus_membership, zg_decomposition
from k3lat.gsignature import defect_point, max_defect_check
from k3lat.lattice import (
    DiscriminantForm,
    Lattice,
    direct_sum,
    express_in_basis,
    gram_of_rows,
    signature_of_gram,
    sublattice_index,
)
from k3lat.matrix import (
    det,
    identity_matrix,
    inverse,
    mat_mul,
    mat_scale,
    matrix_order,
    transpose,
)
from k3lat.nikulin import VARPI_NORMS, _flat_rho, _pair, genus_check_lambda_G
from k3lat.realize import (
    build_a4_example,
    build_nikulin_involution,
    dehn_twist_obstruction,
)
from k3lat.shortvec import (
    disc_form_isometry,
    enumerate_vectors,
    fincke_pohst_up_to,
    lattice_isometry,
    min_norm_and_kissing,
)
from k3lat.standard import hyperbolic_plane, k3_lattice, reflection, root_lattice

from conftest import family
from oracles import (
    cyclotomic,
    in_rowspan_z,
    naive_enumerate_up_to,
    random_unimodular,
    rational_lift,
    rescale,
    snf_diagonal,
    to_fraction_matrix,
    to_int_matrix,
)

NU = {2: 8, 3: 6, 5: 4, 7: 3}

def _report(capsys, num, desc, ok, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    with capsys.disabled():
        print("ACCEPTANCE %02d %s %s (%.2fs, limit %ds)"
              % (num, status, desc, elapsed, limit))
    assert ok, "criterion %d failed" % num
    assert elapsed < limit, "criterion %d overran: %.2fs" % (num, elapsed)


def test_criterion_01_defect_closure(capsys):
    t0 = time.perf_counter()
    ok = True
    for p, nu in NU.items():
        ok = ok and nu * defect_point(p, p - 1) == (p - 1) * (nu * p - 16)
        ok = ok and 24 - nu * p == nu
    _report(capsys, 1, "defect closure at the four equality cases",
            ok, time.perf_counter() - t0, 1)


def test_criterion_02_defect_maxima(capsys):
    t0 = time.perf_counter()
    ok = True
    values = {3: Fraction(2, 3), 5: Fraction(4), 7: Fraction(10)}
    for p, val in values.items():
        rep = max_defect_check(p)
        ok = ok and rep["max_at"] == p - 1
        ok = ok and rep["max_value"] == val == Fraction((p - 1) * (p - 2), 3)
        ok = ok and rep["strictly_maximal"]
        ok = ok and set(rep["table"]) == set(range(1, p))
    _report(capsys, 2, "strict defect maxima at q = p-1",
            ok, time.perf_counter() - t0, 1)


def test_criterion_03_family_identities(capsys):
    t0 = time.perf_counter()
    ok = True
    for p, nu in NU.items():
        fam = family(p)
        m = nu * (p - 1)
        rho = [Fraction(x, p) for x in fam.p_rho]
        varpi = [Fraction(x, p) for x in fam.p_varpi]
        ok = ok and _pair(fam.gram_D, rho, rho, 1) == -2 * (p - 1) * p
        ok = ok and _pair(fam.gram_D, varpi, varpi, 1) == VARPI_NORMS[p]
        unit_rows = identity_matrix(m)
        # the block lattice in N_p, both scaled by p
        coords = express_in_basis(mat_scale(p, unit_rows), fam.p_basis_N)
        ok = ok and coords is not None
        ok = ok and sublattice_index(coords, unit_rows) == p
        ok = ok and sublattice_index(fam.L_basis_in_N, unit_rows) == p
        ok = ok and in_rowspan_z(fam.L_basis_in_N, fam.rho_in_N)
        DL = DiscriminantForm(fam.L.gram)
        ok = ok and DL.orders == [p] * nu
        ok = ok and enumerate_vectors(fam.L.gram, -2) == []
        ok = ok and matrix_order(fam.sigma_L, cap=2 * p) == p
        GL = fam.L.gram
        ok = ok and mat_mul(mat_mul(fam.sigma_L, GL),
                            transpose(fam.sigma_L)) == GL
        S = to_fraction_matrix(fam.sigma_L)
        for unit in identity_matrix(nu):
            lift = rational_lift(DL, unit)
            moved = [sum(lift[i] * S[i][j] for i in range(m))
                     for j in range(m)]
            ok = ok and all((a - b).denominator == 1
                            for a, b in zip(moved, lift))
    _report(capsys, 3, "family identities at p = 2, 3, 5, 7",
            ok, time.perf_counter() - t0, 60)


def test_criterion_04_identifications(capsys):
    t0 = time.perf_counter()
    fam2 = family(2)
    e8m2 = rescale(root_lattice("E", 8, sign=-1), 2)
    T = lattice_isometry(fam2.L.gram, e8m2.gram)
    ok = T is not None and abs(det(T)) == 1
    ok = ok and mat_mul(mat_mul(T, e8m2.gram), transpose(T)) == fam2.L.gram

    DN = DiscriminantForm(fam2.N.gram)
    u2 = hyperbolic_plane(2)
    DU = DiscriminantForm(direct_sum(u2, u2, u2).gram)
    ok = ok and bool(disc_form_isometry(DN, DU))

    a1m2 = direct_sum(*[Lattice([[-4]]) for _ in range(8)])
    ok = ok and DiscriminantForm(e8m2.gram).orders \
        != DiscriminantForm(a1m2.gram).orders

    fam3 = family(3)
    ok = ok and min_norm_and_kissing(fam3.L.gram) == (4, 756)
    neg = [[-x for x in row] for row in fam3.L.gram]
    vecs = [v for v, _ in naive_enumerate_up_to(neg, 4, prune=True)
            if any(v)]
    ok = ok and all(_pair(neg, v, v, 1) == 4 for v in vecs)
    ok = ok and 2 * len(vecs) == 756
    _report(capsys, 4, "explicit identifications at p = 2 and p = 3",
            ok, time.perf_counter() - t0, 120)


def test_criterion_05_K_relations(capsys):
    for p in NU:
        family(p)
    t0 = time.perf_counter()
    ok = True
    for p, nu in NU.items():
        fam = family(p)
        GK = fam.K.gram
        m = nu * (p - 1)
        n = len(GK)
        # K = N + U by the explicit rows (e_i, s + f, f)
        rows = identity_matrix(n)[:m]
        s_plus_f = [0] * n
        s_plus_f[m] = 1
        s_plus_f[m + 1] = 1
        f = [0] * n
        f[m] = 1
        block = gram_of_rows(rows + [s_plus_f, f], GK)
        ok = ok and [row[m:] for row in block[:m]] == [[0, 0]] * m
        ok = ok and [row[:m] for row in block[m:]] == [[0] * m] * 2
        ok = ok and [row[m:] for row in block[m:]] == [[0, 1], [1, 0]]
        ok = ok and [row[:m] for row in block[:m]] == fam.N.gram
        jrho = _flat_rho(fam)
        s = [0] * n
        s[m + 1] = 1
        ok = ok and _pair(GK, s, jrho, 1) == 2 * (p - 1)
        v = [p * a + b for a, b in zip(s, jrho)]
        ok = ok and _pair(GK, v, v, 1) == -2 * p
        e = fam.K_eprime
        ok = ok and _pair(GK, e, e, 1) == 0
        comp = gram_of_rows([e, f], GK)
        ok = ok and to_int_matrix(to_fraction_matrix(comp)) \
            == [[0, p], [p, 0]]
        ok = ok and mat_mul(mat_mul(fam.sigma_K, GK),
                            transpose(fam.sigma_K)) == GK
        ok = ok and matrix_order(fam.sigma_K, cap=2 * p) == p
        SK = fam.sigma_K
        ok = ok and [sum(e[i] * SK[i][j] for i in range(n))
                     for j in range(n)] == list(e)
        ok = ok and [sum(f[i] * SK[i][j] for i in range(n))
                     for j in range(n)] == f
    _report(capsys, 5, "K-frame relations at p = 2, 3, 5, 7",
            ok, time.perf_counter() - t0, 10)


def test_criterion_06_genus_checks(capsys):
    for p in (3, 5, 7):
        family(p)
    t0 = time.perf_counter()
    ok = True
    for p in (3, 5, 7):
        fam = family(p)
        nu = fam.nu
        rep = genus_check_lambda_G(p)
        ok = ok and rep["candidate_rank"] == 22 - nu * (p - 1)
        ok = ok and rep["candidate_signature"] == (3, 19 - nu * (p - 1), 0)
        ok = ok and rep["opposite_disc_match"]
    _report(capsys, 6, "invariant-lattice genus candidates at p = 3, 5, 7",
            ok, time.perf_counter() - t0, 60)


def test_criterion_07_a4_example(capsys):
    t0 = time.perf_counter()
    ex = build_a4_example()
    certs = ex.certificates
    ok = ex.group.order() == 12
    ok = ok and all(spinor_plus_membership(ex.group.ambient, g)
                    for g in ex.group.generators)
    ok = ok and certs["L_G_rank"] == 4
    ok = ok and certs["L_G_min_norm"] == 4
    ok = ok and certs["L_G_perpendicular_minus4_generators"] == 4
    ok = ok and certs["metric"] == "yes"
    ok = ok and certs["complex"] == "no"
    _report(capsys, 7, "alternating-group example verdicts",
            ok, time.perf_counter() - t0, 30)


def test_criterion_08_nikulin_involution(capsys):
    t0 = time.perf_counter()
    ex = build_nikulin_involution()
    certs = ex.certificates
    g = ex.group.generators[0]
    dec = zg_decomposition(g, 2)
    ok = (dec.t, dec.c, dec.r) == (6, 0, 8)
    ok = ok and certs["predicted_fixed_points"] == 8
    ok = ok and certs["fixed_gram_matches_U3_plus_E8_minus_2"]
    ok = ok and certs["L_G_gram_matches_E8_minus_2"]
    ok = ok and certs["image_is_direct_summand"]
    ok = ok and certs["disc_dimension_over_F2"] == 8
    ok = ok and certs["metric"] == "yes" and certs["complex"] == "yes"
    _report(capsys, 8, "involution profile, fixed lattice, coinvariant",
            ok, time.perf_counter() - t0, 30)


def test_criterion_09_dehn_twist(capsys):
    t0 = time.perf_counter()
    v = [0] * 22
    v[6] = 1
    rep = dehn_twist_obstruction(v)
    ok = rep["metric"] == "no"
    ok = ok and rep["witness"] in (v, [-x for x in v])
    ok = ok and rep["jordan_blocks"].get(2) == 1
    ok = ok and rep["realizable_blocks"] == {1: 6, 2: 8}
    ok = ok and rep["profiles_differ"] and rep["obstructed"]
    _report(capsys, 9, "squared Dehn twist obstruction",
            ok, time.perf_counter() - t0, 5)


def _random_symmetric(rng, n, lo=-5, hi=5):
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            A[i][j] = A[j][i] = rng.randint(lo, hi)
    return A


def _companion(poly):
    n = len(poly) - 1
    C = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        C[i + 1][i] = 1
    for i in range(n):
        C[i][n - 1] = -poly[i]
    return C


def test_criterion_10_property_suites(capsys):
    t0 = time.perf_counter()
    ok = True

    # SNF / discriminant order == |det|, rank <= 6, 200 cases
    rng = random.Random(101)
    done = 0
    while done < 200:
        n = rng.randint(1, 6)
        G = _random_symmetric(rng, n)
        d = det(G)
        if d == 0:
            continue
        done += 1
        prod = 1
        for x in snf_diagonal(G):
            prod *= x
        ok = ok and abs(prod) == abs(d)
        ok = ok and math.prod(DiscriminantForm(G).orders) == abs(d)

    # short-vector enumeration vs the naive oracle, rank <= 4, 100 cases
    rng = random.Random(202)
    done = 0
    while done < 100:
        n = rng.randint(1, 4)
        B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if det(B) == 0:
            continue
        done += 1
        G = mat_mul(B, transpose(B))
        bound = rng.randint(1, 10)
        fp = fincke_pohst_up_to(G, bound)
        ok = ok and fp == naive_enumerate_up_to(G, bound, prune=True)
        if n <= 3:
            # the unpruned box blows up on skewed rank-4 grams; keep the
            # fully naive variant where the box stays small
            ok = ok and fp == naive_enumerate_up_to(G, bound, prune=False)

    # signature additivity under direct sums, 100 cases
    rng = random.Random(303)
    for _ in range(100):
        a = _random_symmetric(rng, rng.randint(1, 4))
        b = _random_symmetric(rng, rng.randint(1, 4))
        both = [row + [0] * len(b) for row in a] + \
               [[0] * len(a) + row for row in b]
        pa, ma, za = signature_of_gram(a)
        pb, mb, zb = signature_of_gram(b)
        ok = ok and signature_of_gram(both) == (pa + pb, ma + mb, za + zb)

    # planted module shapes recovered by the decomposition, 50 per prime
    for p in (2, 3, 5, 7):
        rng = random.Random(1000 + p)
        done = 0
        while done < 50:
            t = rng.randint(0, 3)
            c = rng.randint(0, 2)
            r = rng.randint(0, 2)
            if c + r == 0:
                continue
            done += 1
            blocks = [[[1]]] * t + [_companion(cyclotomic(p))] * c
            for _ in range(r):
                P = [[0] * p for _ in range(p)]
                for i in range(p):
                    P[i][(i + 1) % p] = 1
                blocks.append(P)
            n = sum(len(bl) for bl in blocks)
            g = [[0] * n for _ in range(n)]
            at = 0
            for bl in blocks:
                for i, row in enumerate(bl):
                    for j, x in enumerate(row):
                        g[at + i][at + j] = x
                at += len(bl)
            U = random_unimodular(rng, n, 3 * n)
            gc = to_int_matrix(mat_mul(mat_mul(U, g), inverse(U)))
            dec = zg_decomposition(gc, p)
            ok = ok and (dec.t, dec.c, dec.r) == (t, c, r)

    # spinor multiplicativity on closed groups of order up to 48
    k3 = k3_lattice()
    M = [[0] * 22 for _ in range(22)]
    M[0][2] = 1
    M[1][3] = 1
    M[2][0] = -1
    M[3][1] = -1
    for i in range(4, 22):
        M[i][i] = 1
    r6 = [0] * 22
    r6[6] = 1
    r7 = [0] * 22
    r7[7] = 1
    groups = [
        IsometryGroup(k3, [reflection(k3.gram, r6),
                           reflection(k3.gram, r7)]),   # order 6
        IsometryGroup(k3, [M, reflection(k3.gram, r6)]),  # order 8
        build_a4_example().group,                         # order 12
    ]
    for G in groups:
        ok = ok and G.order() <= 48
        elems = list(G.elements())
        vals = {tuple(map(tuple, g)): spinor_plus_membership(k3, g)
                for g in elems}
        for a in elems:
            for b in elems:
                expect = vals[tuple(map(tuple, a))] \
                    == vals[tuple(map(tuple, b))]
                got = vals[tuple(map(tuple, mat_mul(a, b)))]
                ok = ok and got == expect

    _report(capsys, 10, "randomized property suites (fixed seeds)",
            ok, time.perf_counter() - t0, 120)
