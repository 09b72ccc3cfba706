import math
import random
from fractions import Fraction

from k3lat.matrix import matrix_order
from k3lat.polys import poly_eval_matrix
from oracles import (
    cyclotomic,
    poly_divmod,
    poly_exact_div,
    poly_mul,
    poly_sub,
    poly_trim,
    poly_xgcd,
)


def test_cyclotomic_primes_are_all_ones():
    for p in (2, 3, 5, 7, 11, 13):
        assert cyclotomic(p) == [1] * p


def test_cyclotomic_product_over_divisors():
    # prod_{d | n} Phi_d(x) == x^n - 1
    for n in (1, 2, 3, 4, 6, 8, 12, 15):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = poly_mul(prod, cyclotomic(d))
        target = [-1] + [0] * (n - 1) + [1]
        assert prod == target


def test_euler_phi_matches_cyclotomic_degree():
    for d in (1, 2, 3, 4, 5, 6, 9, 10, 12, 30):
        phi = sum(math.gcd(k, d) == 1 for k in range(1, d + 1))
        assert len(cyclotomic(d)) - 1 == phi


def test_divmod_round_trip():
    rng = random.Random(9)
    for _ in range(50):
        p = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 6))]
        q = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))]
        if not any(q):
            continue
        quo, rem = poly_divmod(p, q)
        back = poly_mul(quo, q)
        assert poly_sub(poly_sub(p, back), rem) in ([], [0])
        prod = poly_mul(p, q)
        assert poly_exact_div(prod, q) == poly_trim(p)


def test_eval_and_matrix_eval_agree_on_scalars():
    p = [3, -1, 0, 2]
    for t in (-2, 0, 1, 5):
        assert poly_eval_matrix(p, [[t]]) == [[3 - t + 2 * t ** 3]]


def test_cyclotomic_annihilates_rotation():
    rot = [[0, -1], [1, -1]]
    assert matrix_order(rot, cap=12) == 3
    assert poly_eval_matrix(cyclotomic(3), rot) == [[0, 0], [0, 0]]


def test_poly_xgcd_bezout():
    a = poly_mul([1, 1], [2, 0, 1])      # (x+1)(x^2+2)
    b = poly_mul([1, 1], [-1, 1])        # (x+1)(x-1)
    g, s, t = poly_xgcd(a, b)
    lhs = poly_sub(poly_mul(s, [Fraction(c) for c in a]),
                   poly_mul([Fraction(-1)], poly_mul(t, [Fraction(c) for c in b])))
    assert poly_sub(lhs, g) in ([], [0])
    # gcd is x+1 up to a scalar
    assert len(g) == 2
    assert g[1] != 0 and g[0] / g[1] == 1
