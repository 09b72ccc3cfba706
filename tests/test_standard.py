import pytest

from k3lat.lattice import gram_of_rows
from k3lat.matrix import char_poly, det, mat_mul, matrix_order, transpose
from k3lat.standard import (
    NotAMinusTwoVector,
    UnsupportedRootSystem,
    cartan_matrix,
    cycle_coxeter_matrix,
    hyperbolic_plane,
    k3_lattice,
    reflection,
    root_lattice,
)

from oracles import e8_coordinate_simple_roots


def test_cartan_determinants():
    for n in range(1, 7):
        assert det(cartan_matrix("A", n)) == n + 1
    for n in range(4, 8):
        assert det(cartan_matrix("D", n)) == 4
    assert det(cartan_matrix("E", 6)) == 3
    assert det(cartan_matrix("E", 7)) == 2
    assert det(cartan_matrix("E", 8)) == 1
    with pytest.raises(UnsupportedRootSystem):
        cartan_matrix("F", 4)


def test_root_lattice_signs():
    a2 = root_lattice("A", 2)
    assert a2.signature() == (2, 0, 0)
    a2m = root_lattice("A", 2, sign=-1)
    assert a2m.signature() == (0, 2, 0)
    assert a2m.gram == [[-2, 1], [1, -2]]


def test_k3_lattice_shape():
    k3 = k3_lattice()
    assert k3.rank == 22
    assert k3.is_even()
    assert abs(k3.determinant()) == 1
    assert k3.signature() == (3, 19, 0)
    # three hyperbolic planes in front, two copies of the E8 gram behind
    assert k3.gram[0][1] == 1 and k3.gram[0][0] == 0
    assert k3.gram[6][6] == -2
    assert k3.gram[14][14] == -2


def test_e8_coordinate_roots_realize_cartan():
    # a second, independent construction of the E8 Gram matrix: simple
    # roots written in the even coordinate model of R^8 must pair under
    # the plain dot product to the Cartan matrix
    roots = e8_coordinate_simple_roots()
    dots = [[sum(a * b for a, b in zip(u, v)) for v in roots]
            for u in roots]
    assert dots == cartan_matrix("E", 8)


def test_reflection_fixes_and_negates():
    e8m = root_lattice("E", 8, sign=-1)
    v = [1, 0, 0, 0, 0, 0, 0, 0]
    R = reflection(e8m.gram, v)
    assert mat_mul(R, R) == [[int(i == j) for j in range(8)]
                             for i in range(8)]
    img = [sum(v[i] * R[i][j] for i in range(8)) for j in range(8)]
    assert img == [-x for x in v]
    assert mat_mul(mat_mul(R, e8m.gram), transpose(R)) == e8m.gram
    with pytest.raises(NotAMinusTwoVector):
        reflection(e8m.gram, [0] * 8)
    with pytest.raises(NotAMinusTwoVector):
        reflection(hyperbolic_plane().gram, [1, 1])


def test_cycle_coxeter_order_and_isometry():
    for n in (1, 2, 3, 4, 7):
        M = cycle_coxeter_matrix(n)
        assert matrix_order(M, cap=12) == n + 1
        assert char_poly(M) == [1] * (n + 1)
        an = root_lattice("A", n, sign=-1)
        assert mat_mul(mat_mul(M, an.gram), transpose(M)) == an.gram


def test_coxeter_element_type_a_only():
    # the type-A Coxeter element is the cycle matrix; the A_2 one is what
    # the rank-22 Coxeter model uses
    assert matrix_order(cycle_coxeter_matrix(3), cap=12) == 4
    assert cycle_coxeter_matrix(2) == [[0, 1], [-1, -1]]


def test_product_of_simple_reflections_has_coxeter_order():
    # multiplying the eight simple reflections of E8(-1) gives an element
    # of order 30, the E8 Coxeter number
    e8m = root_lattice("E", 8, sign=-1)
    c = [[int(i == j) for j in range(8)] for i in range(8)]
    for i in range(8):
        v = [int(k == i) for k in range(8)]
        c = mat_mul(c, reflection(e8m.gram, v))
    assert matrix_order(c, cap=60) == 30
    assert mat_mul(mat_mul(c, e8m.gram), transpose(c)) == e8m.gram


def test_gram_of_rows_on_standard_frames():
    k3 = k3_lattice()
    rows = [[0] * 22 for _ in range(2)]
    rows[0][0] = 1
    rows[1][1] = 1
    assert gram_of_rows(rows, k3.gram) == [[0, 1], [1, 0]]
