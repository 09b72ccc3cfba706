import random
from fractions import Fraction

import pytest

from k3lat.lattice import Lattice, direct_sum
from k3lat.matrix import det, mat_eq, mat_mul, transpose
from k3lat.shortvec import (
    SearchBudgetExceeded,
    _floor_plus_sqrt,
    _short_basis,
    classify_root_system,
    disc_form_isometry,
    enumerate_vectors,
    fincke_pohst_up_to,
    has_minus_two_vector,
    lattice_isometry,
    min_norm_and_kissing,
)
from k3lat.standard import cartan_matrix, root_lattice

from oracles import naive_enumerate_up_to


def test_root_counts_one_per_sign_pair():
    for kind, n, count in [("A", 2, 6), ("A", 3, 12), ("D", 4, 24),
                           ("E", 6, 72), ("E", 8, 240)]:
        L = root_lattice(kind, n, sign=-1)
        roots = enumerate_vectors(L, -2)
        assert 2 * len(roots) == count
        seen = set(tuple(v) for v in roots)
        assert len(seen) == len(roots)
        for v in roots:
            assert tuple(-x for x in v) not in seen


def test_enumerate_is_deterministic():
    L = root_lattice("D", 4, sign=-1)
    a = enumerate_vectors(L, -2)
    b = enumerate_vectors(L, -2)
    assert a == b


def test_floor_plus_sqrt_is_the_largest_fitting_integer():
    # k fits when k <= c + sqrt(W), i.e. k - c <= 0 or (k - c)^2 <= W
    def fits(k, c, W):
        return k - c <= 0 or (k - c) ** 2 <= W

    rng = random.Random(19)
    cases = [(0, 0), (Fraction(-7, 2), 0), (3, 16), (Fraction(1, 3), 4)]
    cases += [(Fraction(rng.randint(-60, 60), rng.randint(1, 12)),
               Fraction(rng.randint(0, 400), rng.randint(1, 30)))
              for _ in range(2000)]
    for c, W in cases:
        m = _floor_plus_sqrt(c, W)
        assert fits(m, c, W) and not fits(m + 1, c, W), (c, W, m)


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
    sub = A3.sublattice([[1, 0, 0], [0, 0, 1]])
    rs2 = classify_root_system(sub.as_lattice().gram)
    assert sorted(rs2.components) == [("A", 1), ("A", 1)]


def test_min_norm_and_kissing_e8():
    G = root_lattice("E", 8, sign=1).gram
    assert min_norm_and_kissing(G) == (2, 240)


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


def test_disc_form_isometry_cases():
    A3 = cartan_matrix("A", 3)
    U = [[1, 2, 1], [0, 1, 3], [0, 0, 1]]
    A3s = mat_mul(mat_mul(U, A3), transpose(U))
    LA = root_lattice("A", 3, sign=-1)
    DA = LA.discriminant_group()
    assert DA.cyclic_orders == [4]
    DB = Lattice([[-x for x in row] for row in A3s]).discriminant_group()
    assert disc_form_isometry(DA, DB)
    # (Z/2, q=1/2) vs (Z/2, q=-1/2) are not isometric
    assert not disc_form_isometry(Lattice([[2]]).discriminant_group(),
                                  Lattice([[-2]]).discriminant_group())


def test_disc_form_isometry_images_transport_q():
    LA = root_lattice("A", 3, sign=-1)
    DA = LA.discriminant_group()
    DB = root_lattice("A", 3, sign=-1).discriminant_group()
    images = disc_form_isometry(DA, DB, return_images=True)
    assert images
    for x in DA.elements():
        y = DB.zero()
        for xi, img in zip(x, images):
            y = DB.add(y, DB.scale(xi, img))
        assert DA.q(x) == DB.q(y)


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


def test_short_basis_is_unimodular_change():
    U = [[1, 5, 3], [0, 1, 7], [0, 0, 1]]
    A3 = cartan_matrix("A", 3)
    skew = mat_mul(mat_mul(U, A3), transpose(U))
    B = _short_basis(skew)
    assert B is not None and abs(det(B)) == 1
    newG = mat_mul(mat_mul(B, skew), transpose(B))
    assert max(newG[i][i] for i in range(3)) <= max(skew[i][i]
                                                    for i in range(3))
