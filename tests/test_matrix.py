import itertools
import json
import math
import os
import random
from collections import Counter
from fractions import Fraction

import pytest

from k3lat.lattice import express_in_basis
from k3lat.matrix import (
    char_poly,
    det,
    identity_matrix,
    int_kernel,
    inverse,
    mat_eq,
    mat_mul,
    mat_sub,
    matrix_order,
    rank,
    row_hnf,
    solve_right,
    solve_rows,
    transpose,
    vec_mat,
)
from conftest import a4_example, run_optimized
from oracles import (
    fraction_char_poly,
    fraction_det,
    fraction_mat_mul,
    fraction_rank,
    fraction_solve_rows,
    is_integral,
    rank_mod_p,
    snf_diagonal,
    snf_transforms,
    to_fraction_matrix,
    to_int_matrix,
)


def test_det_matches_elimination_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert Fraction(det(A)) == fraction_det(A)


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
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
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


def _in_z_span(basis, row):
    """HNF oracle: row lies in the Z-span of basis iff adjoining it leaves
    the row HNF unchanged."""
    return row_hnf(basis + [row]) == row_hnf(basis)


def test_express_in_basis_decides_z_span_membership_like_hnf():
    rng = random.Random(29)
    outcomes = set()
    for trial in range(120):
        n = rng.randint(1, 5)
        basis = _rows(rng, rng.randint(1, n), n)
        if trial % 3 == 1:
            # a sublattice of larger index: each row times 1 to 4
            basis = [[c * x for x in row]
                     for c, row in zip(_rows(rng, 1, len(basis), 1, 4)[0],
                                       basis)]
        elif trial % 3 == 2:
            # one more row inside the Q-span of the others
            basis.append([a - b for a, b in zip(basis[0], basis[-1])])
        m = len(basis)
        if rank(basis) < m:
            with pytest.raises(ValueError, match="independent"):
                express_in_basis(_rows(rng, 1, n), basis)
            outcomes.add("dependent")
            continue

        def combination(primitive):
            c = _rows(rng, 1, m)[0]
            row = [sum(ci * b[j] for ci, b in zip(c, basis))
                   for j in range(n)]
            g = math.gcd(*row)
            return [x // g for x in row] if primitive and g > 1 else row
        # an integer combination, the primitive vector on its line (in the
        # Q-span, and in the Z-span only when the divisor cancels) and an
        # arbitrary row
        rows = [combination(False), combination(True), _rows(rng, 1, n)[0]]
        for row in rows:
            in_z = _in_z_span(basis, row)
            in_q = rank(basis + [row]) == m
            X = express_in_basis([row], basis)
            assert (X is not None) == in_z, (basis, row)
            if X is not None:
                assert all(type(x) is int for x in X[0])
                assert mat_mul(X, basis) == [row]
            outcomes.add((trial % 3, in_z, in_q))
        X = express_in_basis(rows, basis)
        if all(_in_z_span(basis, row) for row in rows):
            assert mat_mul(X, basis) == rows
        else:
            assert X is None
    assert {(0, True, True), (0, False, True), (0, False, False),
            (1, True, True), (1, False, True), (1, False, False),
            "dependent"} <= outcomes, outcomes


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
            direct = fraction_det(tIA)
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


def test_row_hnf_spans_same_row_group():
    rows = [[2, 4, 0], [0, 6, 2], [2, 10, 2]]
    H = row_hnf(rows)
    assert rank(H) == rank(rows)
    for r in rows:
        x = solve_right(H, r)
        assert x is not None
        assert all(v.denominator == 1 for v in x)
    for h in H:
        x = solve_right(rows, h)
        assert x is not None
        assert all(v.denominator == 1 for v in x)


INPUTS = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                      "inputs")
BENCH_GROUPS = ("a4", "coxeter", "model-prime-3", "nikulin-involution",
                "rotation12")


def _unimodular(n, moves, rng):
    """(U, U^-1) for a product of moves seeded elementary row moves."""
    U, Uinv = identity_matrix(n), identity_matrix(n)
    for _ in range(moves):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        U[i] = [a + s * b for a, b in zip(U[i], U[j])]
        for row in Uinv:
            row[j] -= s * row[i]
    return U, Uinv


def _elementary_divisor_product(A):
    """Product of the nonzero Smith invariants: the gcd of the minors of
    size rank(A), the index of the row span of A in its saturation."""
    return math.prod(x for x in snf_diagonal(A) if x)


def _assert_canonical_hnf(H, A):
    """H is in row HNF and spans the same Z-module as the rows of A."""
    last = -1
    for k, row in enumerate(H):
        c = next(j for j, x in enumerate(row) if x)
        assert c > last and row[c] > 0, (k, row)
        assert all(0 <= H[i][c] < row[c] for i in range(k)), (k, c)
        last = c
    # the rows of A lie in the Z-span of the independent rows H, and the
    # two modules have the same rank and covolume, so they are equal
    assert len(H) == rank(A)
    X = solve_rows(H, A) if H else []
    assert X is not None and is_integral(X)
    assert _elementary_divisor_product(H) == _elementary_divisor_product(A)


def _kernel_inputs():
    """Seeded (name, integer matrix A, Gram or None) triples: A = (g - 1)^T
    for the generators g of the bench groups, as given and conjugated by
    24- and 200-move unimodular base changes, with the ambient Gram in the
    same basis; and 24-move conjugates U D V of small random D."""
    rng = random.Random(1000)
    for name in BENCH_GROUPS:
        with open(os.path.join(INPUTS, name + "-group.json")) as fh:
            obj = json.load(fh)
        n = obj["ambient"]["rank"]
        for moves in (0, 24, 200):
            U, Uinv = _unimodular(n, moves, rng)
            gram = mat_mul(mat_mul(U, obj["ambient"]["gram"]), transpose(U))
            for k, g in enumerate(obj["generators"]):
                h = mat_mul(mat_mul(U, g), Uinv)
                yield ("%s g%d, %d moves" % (name, k, moves),
                       [[h[j][i] - (i == j) for j in range(n)]
                        for i in range(n)], gram)
    for trial in range(24):
        m = rng.randint(2, 6)
        n = m if trial % 2 else rng.randint(2, 6)
        D = [[rng.randint(-4, 4) if rng.random() < 0.6 else 0
              for _ in range(n)] for _ in range(m)]
        yield ("random %d" % trial,
               mat_mul(mat_mul(_unimodular(m, 24, rng)[0], D),
                       _unimodular(n, 24, rng)[0]), None)


def _assert_smith_form(A):
    S, U, V = snf_transforms(A)
    n = len(A)
    assert mat_mul(mat_mul(U, A), V) == S
    assert abs(det(U)) == abs(det(V)) == 1
    d = [S[i][i] for i in range(n)]
    assert S == [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    assert all(x > 0 for x in d)
    assert all(d[i + 1] % d[i] == 0 for i in range(n - 1))


def test_kernels_on_skewed_inputs():
    # row_hnf is the canonical basis of the row span, int_kernel a
    # saturated HNF basis of the kernel, and snf's S and U extend to a
    # Smith form U A V = S with an integral unimodular V
    for name, A, gram in _kernel_inputs():
        _assert_canonical_hnf(row_hnf(A), A)
        K = int_kernel(A)
        assert len(K) == len(A[0]) - rank(A), name
        assert not any(any(row) for row in mat_mul(A, transpose(K))), name
        assert K == row_hnf(K), name
        assert all(x == 1 for x in snf_diagonal(K)), name
        if gram is not None and K:
            # the vectors fixed by a finite-order isometry span a
            # nondegenerate sublattice
            _assert_smith_form(mat_mul(mat_mul(K, gram), transpose(K)))
        elif gram is None and len(A) == len(A[0]) and det(A):
            _assert_smith_form(A)


def test_matrix_order_known_cases():
    assert matrix_order(identity_matrix(4), cap=12) == 1
    minus = [[-1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert matrix_order(minus, cap=12) == 2
    rot = [[0, -1], [1, -1]]
    assert matrix_order(rot, cap=12) == 3
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
    # integer operands give integer products; the plain loop also
    # multiplies Fraction operands exactly, without any common-denominator
    # scaling
    rng = random.Random(71)
    shapes = [(1, 5, 1), (5, 1, 4), (1, 1, 1), (3, 4, 2), (4, 4, 4),
              (6, 3, 5)]
    for trial in range(60):
        m, k, n = shapes[trial % len(shapes)]
        A = _matrix(rng, m, k, trial % 3 == 1)
        B = _matrix(rng, k, n, trial % 3 == 2)
        P = mat_mul(A, B)
        assert P == fraction_mat_mul(A, B)
        if trial % 3 == 0:
            assert all(type(x) is int for row in P for x in row)
        for row in A:
            assert vec_mat(row, B) == fraction_mat_mul([row], B)[0]
    # sparse operands, whose zero entries the product skips: signed
    # permutations, block diagonals, matrices with zero rows and columns,
    # and the elements of the A_4 example with and without its projector
    sparse = []
    for trial in range(18):
        rational = trial % 2 == 1
        if trial % 3 == 0:
            s = rng.sample(range(6), 6)
            M = [[rng.choice((1, -1)) if j == s[i] else 0 for j in range(6)]
                 for i in range(6)]
        elif trial % 3 == 1:
            cut = rng.randint(1, 5)
            M = [[_entry(rng, rational) if (i < cut) == (j < cut) else 0
                  for j in range(6)] for i in range(6)]
        else:
            M = _matrix(rng, 6, 6, rational)
            zero_rows = rng.sample(range(6), 2)
            zero_cols = rng.sample(range(6), 2)
            M = [[0 if i in zero_rows or j in zero_cols else x
                  for j, x in enumerate(row)] for i, row in enumerate(M)]
        sparse.append(M)
    act = a4_example()
    elements = act.group.elements()
    pairs = [(A, B) for A in sparse for B in sparse]
    pairs += [(elements[i], elements[j]) for i, j in ((1, 2), (5, 7), (11, 3))]
    pairs += [(elements[4], act.projectors[0]),
              (act.projectors[1], elements[9])]
    for A, B in pairs:
        assert mat_mul(A, B) == fraction_mat_mul(A, B)
        assert vec_mat(A[-1], B) == fraction_mat_mul(A[-1:], B)[0]
    assert mat_mul([], [[1, 2]]) == []
    assert mat_mul([[], []], []) == [[], []]
    assert mat_mul([[Fraction(1, 2)], [3]], [[], ]) == [[], []]
    assert vec_mat([], []) == []


def test_char_poly_matches_fraction_faddeev_leverrier():
    rng = random.Random(73)
    for trial in range(30):
        n = rng.randint(1, 6)
        A = _matrix(rng, n, n, False)
        cp = char_poly(A)
        assert cp == fraction_char_poly(A)
        assert all(type(c) is int for c in cp)
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
    proc = run_optimized(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised"), proc.stdout


def _combination(rng, A, n):
    """A random integer combination of the rows of A (the zero row of
    width n when A has none)."""
    out = [0] * n
    for row in A:
        c = _entry(rng, False)
        out = [x + c * a for x, a in zip(out, row)]
    return out


def test_elimination_matches_fraction_oracle():
    """det, rank, solve_rows and inverse on integer matrices against the
    Fraction elimination they replaced: same values, same types, and
    X A = B."""
    rng = random.Random(89)
    seen = Counter()
    for trial in range(1200):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        if trial % 3 == 0:
            n = m
        if trial % 4 == 0 and min(m, n) > 1:
            # a product through a narrower middle has deficient rank
            k = rng.randint(1, min(m, n) - 1)
            C, E = _matrix(rng, m, k, False), _matrix(rng, k, n, False)
            A = [[sum(c * e for c, e in zip(row, col)) for col in zip(*E)]
                 for row in C]
        else:
            A = _matrix(rng, m, n, False)
        r = rank(A)
        assert r == fraction_rank(A) and type(r) is int
        seen["square" if m == n else "rectangular"] += 1
        seen["rank-deficient"] += r < min(m, n)
        seen["empty"] += m * n == 0
        seen["1x1"] += m == n == 1
        if m == n:
            d = det(A)
            want = fraction_det(A)
            assert d == want and type(d) is type(want), (A, d, want)
            want = fraction_solve_rows(A, identity_matrix(n))
            if want is None:
                with pytest.raises(ZeroDivisionError):
                    inverse(A)
            else:
                Ainv = inverse(A)
                assert Ainv == want
                assert all(type(x) is Fraction for row in Ainv for x in row)
        B = [_combination(rng, A, n)
             for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.5:
            B.insert(rng.randint(0, len(B)), _matrix(rng, 1, n, False)[0])
        X = solve_rows(A, B)
        assert X == fraction_solve_rows(A, B), (A, B)
        if X is None:
            seen["outside the row span"] += 1
            continue
        assert len(X) == len(B)
        assert all(type(x) is Fraction for row in X for x in row)
        assert all(len(row) == m for row in X)
        if m:
            assert mat_mul(X, A) == B
        else:
            assert not any(any(b) for b in B)
    assert sum(seen[k] for k in ("square", "rectangular")) == 1200
    for kind in ("square", "rectangular", "rank-deficient", "empty", "1x1",
                 "outside the row span"):
        assert seen[kind] >= 30, seen


def test_elimination_rejects_a_remainder_under_python_O():
    # the kernels take integers only: rational entries that reach them
    # leave remainders, and the exactness checks of the Bareiss step and
    # of the back-substitution must fire with asserts stripped; so must
    # the shape checks, where zip would truncate a mismatched operand
    code = (
        "from fractions import Fraction as F\n"
        "import k3lat.matrix as m\n"
        "A = [[F(1, 2), F(1, 3), 0], [F(1, 5), 1, F(1, 7)], [0, F(1, 3), 1]]\n"
        "for call in (lambda: m.det(A),\n"
        "             lambda: m.solve_rows([[F(2, 3)]], [[F(1, 2)]]),\n"
        "             lambda: m.det([[1, 2, 3], [4, 5, 6]]),\n"
        "             lambda: m.mat_mul([[1, 2]], [[1], [2], [3]]),\n"
        "             lambda: m.dot([1, 2], [1, 2, 3]),\n"
        "             lambda: m.vec_mat([1, 1], [[1, 2], [3, 4], [5, 6]])):\n"
        "    try:\n"
        "        print('accepted', call())\n"
        "    except (ArithmeticError, ValueError) as exc:\n"
        "        print('raised', exc)\n"
    )
    proc = run_optimized(code)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 6, proc.stdout
    assert lines[0].startswith("raised Bareiss:"), lines[0]
    assert lines[1].startswith("raised back-substitution:"), lines[1]
    assert lines[2:] == [
        "raised det needs a square matrix, got 2 rows of lengths [3]",
        "raised mat_mul: 1 x 2 times 3 x 1",
        "raised dot: vectors of lengths 2 and 3",
        "raised vec_mat: vector of length 2 times 3 x 2"], lines


def test_non_integral_entry_is_refused_also_under_python_O():
    # integer coordinates of a row outside the Z-span raise the claim,
    # also when asserts are stripped: x [2 0; 0 3] = [1 7] is solved by
    # x = (1/2, 7/3) over Q only, which must not be truncated
    claim = "the row must lie in the lattice"
    with pytest.raises(ArithmeticError, match=claim):
        express_in_basis([[1, 7]], [[2, 0], [0, 3]], claim)
    code = (
        "from k3lat.lattice import express_in_basis\n"
        "try:\n"
        "    X = express_in_basis([[1, 7]], [[2, 0], [0, 3]], %r)\n"
        "    print('accepted', X)\n"
        "except ArithmeticError as exc:\n"
        "    print('raised', exc)\n" % claim
    )
    proc = run_optimized(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised " + claim
