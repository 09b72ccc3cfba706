from collections import Counter
from fractions import Fraction
import itertools
import math
import random

import pytest

from k3lat.lattice import (
    DiscriminantForm,
    Lattice,
    diagonalize,
    direct_sum,
    express_in_basis,
    gram_of_rows,
    signature_of_gram,
    sublattice_index,
)
from k3lat.matrix import (
    det,
    identity_matrix,
    int_kernel,
    mat_mul,
    rank,
    row_hnf,
    vec_mat,
)
from k3lat.standard import hyperbolic_plane, k3_lattice, root_lattice
from oracles import (
    base_changed_gram,
    disc_reduce,
    fraction_diagonalize,
    fraction_lift,
    fraction_lift_pairing,
    rational_lift,
    rescale,
    span_intersection,
)


def _random_symmetric(rng, n, lo=-4, hi=4):
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            A[i][j] = A[j][i] = rng.randint(lo, hi)
    return A


def test_signature_known_lattices():
    assert hyperbolic_plane().signature() == (1, 1, 0)
    assert root_lattice("E", 8, sign=-1).signature() == (0, 8, 0)
    assert k3_lattice().signature() == (3, 19, 0)
    assert signature_of_gram([[0, 1], [1, 0]]) == (1, 1, 0)
    assert signature_of_gram([[0, 0], [0, 3]]) == (1, 0, 1)


def test_signature_counts_match_sylvester():
    # p + m + z == n and p - m tracks the diagonalized form
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 5)
        G = _random_symmetric(rng, n)
        p, m, z = signature_of_gram(G)
        assert p + m + z == n
        assert (z == 0) == (det(G) != 0)
        if z == 0:
            sign = 1 if det(G) > 0 else -1
            assert sign == (-1) ** m
        # the diagonalizing rows are independent and orthogonal
        rows, norms, nullity = diagonalize(G)
        assert nullity == z and len(rows) == p + m == rank(G)
        assert rank(rows) == len(rows)
        assert gram_of_rows(rows, G) == [
            [norms[i] if i == j else 0 for j in range(len(rows))]
            for i in range(len(rows))]


def test_diagonalize_matches_fraction_oracle():
    # zero diagonals force the e_i += e_j step
    rng = random.Random(37)
    for trial in range(150):
        n = rng.randint(1, 7)
        G = _random_symmetric(rng, n, -3, 3)
        if trial % 2:
            for i in range(n):
                G[i][i] = 0
        rows, norms, nullity = diagonalize(G)
        assert all(isinstance(x, int) for row in rows for x in row)
        assert all(isinstance(d, int) and d for d in norms)
        assert gram_of_rows(rows, G) == [
            [norms[i] if i == j else 0 for j in range(len(rows))]
            for i in range(len(rows))]
        assert rank(rows) == len(rows) == rank(G)
        _, ref_norms, ref_nullity = fraction_diagonalize(G)
        assert nullity == ref_nullity
        assert sorted(d > 0 for d in norms) == sorted(d > 0 for d in ref_norms)


def test_discriminant_group_order_is_abs_det():
    rng = random.Random(41)
    done = 0
    while done < 50:
        n = rng.randint(1, 4)
        G = _random_symmetric(rng, n)
        if det(G) == 0:
            continue
        done += 1
        assert math.prod(DiscriminantForm(G).orders) == abs(det(G))


def test_discriminant_form_known_values():
    a1 = root_lattice("A", 1)
    D = DiscriminantForm(a1.gram)
    assert D.orders == [2]
    gen = [1]
    assert D.q(gen) == Fraction(1, 2)

    e8 = root_lattice("E", 8)
    assert DiscriminantForm(e8.gram).orders == []
    assert abs(e8.determinant()) == 1 and e8.is_even()

    u2 = rescale(hyperbolic_plane(), 2)
    D2 = DiscriminantForm(u2.gram)
    assert D2.orders == [2, 2]
    vals = sorted(D2.q(x) for x in D2.elements())
    assert vals == [Fraction(0), Fraction(0), Fraction(0), Fraction(1)]


def test_disc_form_q_and_bilinear_match_fraction_reference():
    # seeded even Grams plus fixed ones with noncyclic and mixed-order
    # groups; q on every element, the pairing on seeded pairs
    rng = random.Random(53)
    grams = [rescale(hyperbolic_plane(), 2).gram,
             root_lattice("D", 4).gram, root_lattice("A", 3, -1).gram,
             direct_sum(root_lattice("A", 2),
                        rescale(hyperbolic_plane(), 6)).gram]
    while len(grams) < 40:
        n = rng.randint(1, 4)
        G = _random_symmetric(rng, n)
        for i in range(n):
            G[i][i] = 2 * rng.randint(-3, 3)
        if det(G) != 0 and abs(det(G)) <= 300:
            grams.append(G)
    for G in grams:
        D = DiscriminantForm(G)
        elems = list(D.elements())
        for x in elems:
            got = D.q(x)
            assert type(got) is Fraction
            assert got == fraction_lift_pairing(D, x, x) % 2
        for _ in range(30):
            x, y = rng.choice(elems), rng.choice(elems)
            got = D.bilinear(x, y)
            assert type(got) is Fraction
            assert got == fraction_lift_pairing(D, x, y) % 1


def test_integer_lift_is_exponent_times_the_fraction_lift():
    # seeded even Grams in skewed bases plus fixed ones with noncyclic and
    # mixed-order groups: lift(x) is e times the Fraction lift, an integer
    # row in e times the dual, and over e it reduces back to x
    rng = random.Random(59)
    grams = [rescale(hyperbolic_plane(), 2).gram, root_lattice("D", 4).gram,
             direct_sum(root_lattice("A", 1), root_lattice("A", 3)).gram,
             direct_sum(root_lattice("A", 2, -1),
                        rescale(hyperbolic_plane(), 6)).gram,
             direct_sum(root_lattice("A", 2, -1),
                        root_lattice("A", 2, -1)).gram]
    while len(grams) < 25:
        n = rng.randint(2, 4)
        G = _random_symmetric(rng, n)
        for i in range(n):
            G[i][i] = 2 * rng.randint(-3, 3)
        if det(G) != 0 and abs(det(G)) <= 200:
            grams.append(G)
    kinds = Counter()
    for G in grams:
        G = base_changed_gram(rng, G, 6)
        D = DiscriminantForm(G)
        e = D.exponent
        assert e == math.lcm(*D.orders)
        kinds["noncyclic"] += len(D.orders) > 1
        kinds["mixed"] += len(set(D.orders)) > 1
        for t, x in enumerate(itertools.islice(D.elements(), 200)):
            v = D.lift(x)
            assert all(type(a) is int for a in v)
            assert v == [e * a for a in fraction_lift(D, x)]
            assert not any(a % e for a in vec_mat(v, G))
            if t < 12:
                assert disc_reduce(D, rational_lift(D, x)) == tuple(x)
    assert kinds["noncyclic"] >= 5 and kinds["mixed"] >= 3, kinds


def test_discriminant_opposite_negates_q():
    a3 = root_lattice("A", 3)
    D = DiscriminantForm(a3.gram)
    O = D.opposite()
    assert D.orders == O.orders == [4]
    # q values of the opposite are the negatives mod 2Z, as multisets
    dv = sorted(D.q(x) % 2 for x in D.elements())
    ov = sorted((-O.q(x)) % 2 for x in O.elements())
    assert dv == ov


def test_reduce_and_lift_round_trip():
    a3 = root_lattice("A", 3)
    D = DiscriminantForm(a3.gram)
    for x in D.elements():
        v = rational_lift(D, x)
        assert disc_reduce(D, v) == tuple(x)


def test_direct_sum_and_rescale():
    L = direct_sum(hyperbolic_plane(), root_lattice("A", 2, sign=-1))
    assert L.rank == 4
    assert L.signature() == (1, 3, 0)
    assert L.determinant() == -3
    M = rescale(L, 3)
    assert M.determinant() == (3 ** 4) * -3
    assert M.gram[0][1] == 3


def test_sublattice_saturation_and_complement():
    k3 = k3_lattice()
    # index-2 subgroup of the first hyperbolic plane
    S = [[2, 0] + [0] * 20, [0, 1] + [0] * 20]
    sat = int_kernel(int_kernel(S))
    assert sublattice_index(S, sat) == 2
    assert sat == identity_matrix(22)[:2]
    assert int_kernel(int_kernel(sat)) == sat
    comp = int_kernel(mat_mul(sat, k3.gram))
    assert len(comp) == 20
    assert int_kernel(int_kernel(comp)) == comp
    assert signature_of_gram(gram_of_rows(comp, k3.gram)) == (2, 18, 0)


def test_sublattice_index_and_group_generated_by():
    big = identity_matrix(3)
    small = [[2, 0, 0], [0, 3, 0], [0, 0, 1]]
    assert sublattice_index(small, big) == 6
    # the group generated by dependent rows, as its row HNF basis
    gens = row_hnf([[2, 0], [0, 2], [1, 1]])
    assert gens == [[1, 1], [0, 2]]
    assert sublattice_index(gens, identity_matrix(2)) == 2
    # read over the denominator 2, as nikulin and realize hold their
    # overlattices, the same rows are Z^2 + Z (1/2, 1/2), of index 2 over
    # Z^2, integral for the form 2 I and not for I
    assert sublattice_index([[2, 0], [0, 2]], gens) == 2
    assert gram_of_rows(gens, [[2, 0], [0, 2]], 2, "integral") == [
        [1, 1], [1, 2]]
    with pytest.raises(ArithmeticError, match="integral"):
        gram_of_rows(gens, identity_matrix(2), 2, "integral")


def test_span_intersection():
    b1 = [[1, 0, 0], [0, 1, 0]]
    b2 = [[0, 1, 0], [0, 0, 1]]
    I = span_intersection(b1, b2)
    assert len(I) == 1
    v = I[0]
    assert v[0] == 0 and v[2] == 0 and abs(v[1]) == 1


def test_express_in_basis():
    basis = [[1, 1, 0], [0, 1, 1]]
    rows = [[1, 2, 1], [2, 2, 0]]
    X = express_in_basis(rows, basis)
    assert X == [[1, 1], [2, 0]]
    assert express_in_basis([[1, 0, 0]], basis) is None


def test_gram_of_rows_is_restriction():
    e8 = root_lattice("E", 8, sign=-1)
    rows = [[1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0]]
    G = gram_of_rows(rows, e8.gram)
    assert G[0][0] == -2 and G[1][1] == -2
    assert G[0][1] == G[1][0] == e8.gram[0][2]


def test_even_unimodular_checks():
    u = hyperbolic_plane()
    assert u.is_even() and abs(u.determinant()) == 1
    k3 = k3_lattice()
    assert k3.is_even() and abs(k3.determinant()) == 1
    odd = Lattice([[1]])
    assert not odd.is_even()
