import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from k3lat.lattice import express_in_basis
from k3lat.matrix import (
    char_poly,
    det,
    hnf_basis,
    identity_matrix,
    int_kernel,
    inverse,
    is_integral,
    mat_eq,
    mat_mul,
    mat_sub,
    matrix_order,
    rank,
    rank_mod_p,
    snf_diagonal,
    solve_right,
    to_int_matrix,
    vec_mat,
)
from oracles import fraction_char_poly, fraction_mat_mul, to_fraction_matrix


def _det_by_elimination(A):
    """Fraction Gaussian elimination, written independently of det()."""
    M = [[Fraction(x) for x in row] for row in A]
    n = len(M)
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            sign = -sign
        for r in range(col + 1, n):
            f = M[r][col] / M[col][col]
            M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    out = Fraction(sign)
    for i in range(n):
        out *= M[i][i]
    return out


def test_det_matches_elimination_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert Fraction(det(A)) == _det_by_elimination(A)


def test_inverse_round_trips():
    rng = random.Random(5)
    tried = 0
    while tried < 30:
        n = rng.randint(1, 5)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if det(A) == 0:
            continue
        tried += 1
        Ainv = inverse(A)
        assert mat_eq(mat_mul(A, Ainv), identity_matrix(n))
        assert mat_eq(mat_mul(Ainv, A), identity_matrix(n))


def test_inverse_is_a_two_sided_inverse_and_rejects_singular():
    rng = random.Random(13)
    tried = singular = 0
    while tried < 30 or singular < 10:
        n = rng.randint(1, 5)
        A = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.4:
            # a row that is a combination of two others
            A[-1] = [a - 2 * b for a, b in zip(A[0], A[1 % (n - 1)])]
        if det(A) == 0:
            singular += 1
            with pytest.raises(ZeroDivisionError):
                inverse(A)
            continue
        tried += 1
        assert mat_eq(mat_mul(inverse(A), A), identity_matrix(n))


def _rows(rng, k, n, lo=-3, hi=3):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(k)]


def test_express_in_basis_batch_equals_solve_right_per_row():
    rng = random.Random(29)
    outcomes = set()
    for trial in range(90):
        n = rng.randint(1, 5)
        basis = _rows(rng, rng.randint(1, 4), n)
        if trial % 3 == 0:
            # rank-deficient: one more row inside the span of the others
            basis.append([a - b for a, b in zip(basis[0], basis[-1])])
        elif trial % 3 == 1:
            basis = [[Fraction(x, rng.randint(1, 4)) for x in row]
                     for row in basis]
        m = len(basis)
        k = rng.randint(1, 4)
        rows = [[sum(c[i] * basis[i][j] for i in range(m))
                 for j in range(n)] for c in _rows(rng, k, m)]
        if trial % 2:
            rows[rng.randrange(k)] = _rows(rng, 1, n)[0]
        per_row = [solve_right(basis, r) for r in rows]
        X = express_in_basis(rows, basis)
        in_span = [rank(basis + [r]) == rank(basis) for r in rows]
        if all(in_span):
            assert X == per_row
            assert mat_eq(mat_mul(X, to_fraction_matrix(basis)),
                          to_fraction_matrix(rows))
        else:
            assert X is None
            assert all((x is None) == (not ok)
                       for x, ok in zip(per_row, in_span))
        outcomes.add((trial % 3, X is None))
    assert len(outcomes) == 6, outcomes


def _row_space_size(A, p):
    """Number of distinct F_p-combinations of the rows of A."""
    n = len(A[0])
    span = set()
    for c in itertools.product(range(p), repeat=len(A)):
        span.add(tuple(sum(ci * row[j] for ci, row in zip(c, A)) % p
                       for j in range(n)))
    return len(span)


def test_rank_mod_p_matches_row_space_count():
    rng = random.Random(31)
    dropped = 0
    for p in (2, 3, 5, 7):
        planted = [[[p, 0], [0, 1]], [[1, 2], [3, 6 + p]],
                   [[1, 1, 0], [0, 1, 1], [1, 0, p - 1]]]
        randoms = [_rows(rng, rng.randint(1, 3), rng.randint(1, 3), -9, 9)
                   for _ in range(15)]
        for A in planted + randoms:
            r = rank_mod_p(A, p)
            assert p ** r == _row_space_size(A, p)
            assert r <= rank(A)
            dropped += r < rank(A)
        for A in planted:
            assert rank_mod_p(A, p) < rank(A)
    assert dropped >= 12


def test_solve_right_row_convention():
    # solve_right finds a row vector x with x A = b
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 4)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        x0 = [rng.randint(-5, 5) for _ in range(n)]
        b = [sum(x0[i] * A[i][j] for i in range(n)) for j in range(n)]
        x = solve_right(A, b)
        assert x is not None
        got = [sum(x[i] * Fraction(A[i][j]) for i in range(n))
               for j in range(n)]
        assert got == [Fraction(v) for v in b]
    assert solve_right([[0, 0], [0, 0]], [1, 0]) is None


def test_char_poly_ascending_and_at_integers():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        cp = char_poly(A)
        assert cp[-1] == 1 and len(cp) == n + 1
        for t in (-2, -1, 0, 1, 2, 3):
            tIA = [[t * (i == j) - A[i][j] for j in range(n)]
                   for i in range(n)]
            direct = _det_by_elimination(tIA)
            via = sum(Fraction(c) * t ** k for k, c in enumerate(cp))
            assert via == direct


def test_snf_diagonal_divisibility_and_det():
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randint(1, 5)
        A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        d = snf_diagonal(A)
        for i in range(len(d) - 1):
            if d[i] and d[i + 1]:
                assert d[i + 1] % d[i] == 0
        prod = 1
        for x in d:
            prod *= x
        assert abs(prod) == abs(det(A))


def test_int_kernel_dimension_membership_saturation():
    rng = random.Random(23)
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(2, 5)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        K = int_kernel(A)
        for v in K:
            assert all(sum(row[j] * v[j] for j in range(n)) == 0
                       for row in A)
        assert len(K) == n - rank(A)
        if K:
            # saturated subgroup: every elementary divisor is 1
            assert all(abs(x) == 1 for x in snf_diagonal(K) if x)


def test_hnf_basis_spans_same_row_group():
    rows = [[2, 4, 0], [0, 6, 2], [2, 10, 2]]
    H = hnf_basis(rows)
    assert rank(H) == rank(rows)
    for r in rows:
        x = solve_right(H, r)
        assert x is not None
        assert all(v.denominator == 1 for v in x)
    for h in H:
        x = solve_right(rows, h)
        assert x is not None
        assert all(v.denominator == 1 for v in x)


def test_matrix_order_known_cases():
    assert matrix_order(identity_matrix(4)) == 1
    minus = [[-1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert matrix_order(minus) == 2
    rot = [[0, -1], [1, -1]]
    assert matrix_order(rot) == 3
    shear = [[1, 1], [0, 1]]
    assert matrix_order(shear, cap=50) is None


def test_integrality_round_trip():
    A = [[Fraction(4, 2), Fraction(1)], [Fraction(0), Fraction(-3)]]
    assert is_integral(A)
    assert to_int_matrix(A) == [[2, 1], [0, -3]]
    assert not is_integral([[Fraction(1, 2)]])
    assert mat_sub(identity_matrix(2), identity_matrix(2)) == [[0, 0], [0, 0]]
    assert to_fraction_matrix([[1]]) == [[Fraction(1)]]


def _entry(rng, rational):
    """An int, or a Fraction with a signed denominator when rational."""
    x = rng.randint(-5, 5)
    if rational and rng.random() < 0.5:
        return Fraction(x, rng.choice([-7, -3, -2, 1, 2, 3, 5, 6, 35]))
    return x


def _matrix(rng, m, n, rational):
    return [[_entry(rng, rational) for _ in range(n)] for _ in range(m)]


def test_mat_mul_and_vec_mat_match_fraction_reference():
    rng = random.Random(71)
    shapes = [(1, 5, 1), (5, 1, 4), (1, 1, 1), (3, 4, 2), (4, 4, 4),
              (6, 3, 5)]
    for trial in range(60):
        m, k, n = shapes[trial % len(shapes)]
        A = _matrix(rng, m, k, trial % 3 != 0)
        B = _matrix(rng, k, n, trial % 3 != 1)
        P = mat_mul(A, B)
        assert P == fraction_mat_mul(A, B)
        has_fraction = any(isinstance(x, Fraction)
                           for M in (A, B) for row in M for x in row)
        assert all(isinstance(x, Fraction) == has_fraction
                   for row in P for x in row)
        for row in A:
            assert vec_mat(row, B) == fraction_mat_mul([row], B)[0]
    assert mat_mul([], [[1, 2]]) == []
    assert mat_mul([[], []], []) == [[], []]
    assert mat_mul([[Fraction(1, 2)], [3]], [[], ]) == [[], []]
    assert vec_mat([], []) == []


def test_char_poly_matches_fraction_faddeev_leverrier():
    rng = random.Random(73)
    for trial in range(30):
        n = rng.randint(1, 6)
        A = _matrix(rng, n, n, trial % 2 == 1)
        cp = char_poly(A)
        assert cp == fraction_char_poly(A)
        assert all(isinstance(c, int) for c in cp if Fraction(c).denominator == 1)
    assert char_poly([]) == [1]


def test_char_poly_rejects_a_corrupted_trace_under_python_O():
    # corrupt every product's (0, 0) entry: the exactness check tr % k
    # must fire even when asserts are stripped
    code = (
        "import k3lat.matrix as m\n"
        "orig = m.mat_mul\n"
        "def bad(A, B):\n"
        "    P = orig(A, B)\n"
        "    P[0][0] += 1\n"
        "    return P\n"
        "m.mat_mul = bad\n"
        "try:\n"
        "    m.char_poly([[1, 2], [3, 4]])\n"
        "except ArithmeticError as exc:\n"
        "    print('raised', exc)\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised"), proc.stdout
