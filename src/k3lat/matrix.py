"""Exact integer matrix routines used by the lattice layer.

Everything here works with plain lists of lists. The kernels take
integer matrices only, and Fractions appear only in the output of the
rational solve `solve_rows`, which `solve_right` and `inverse` wrap. A
rational vector elsewhere in the package is an integer row over a
known denominator. Vectors are rows throughout the package: a matrix
acts on the right of a row vector, so composition of actions reads left
to right.

`mat_mul` builds row i of A*B from the rows of B weighted by the nonzero
entries of row i of A. `det`, `rank` and `_solve_int` share one
fraction-free (Bareiss) elimination, `_echelon`, and `_solve_int`
returns y = D*x for x A = b in integers: `solve_rows` divides y by D
into Fractions, and `lattice.express_in_basis` into integer coordinates
or None. `char_poly` runs Faddeev-LeVerrier with one exact integer
division per coefficient.

Over Z, `row_hnf` returns the canonical Hermite basis of a row span and
builds no transform. `int_kernel` reads the kernel lattice off one
`row_hnf` of the rows [col_j(A) | e_j], and `snf` returns the Smith form
with its row transform U alone, whose rows are the discriminant-form
lifts of `lattice`.
"""

from fractions import Fraction
from itertools import chain


def zero_matrix(m, n):
    return [[0] * n for _ in range(m)]


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def block_diag(*mats):
    """The square matrix with the square matrices mats along its diagonal."""
    n = sum(len(M) for M in mats)
    out = []
    off = 0
    for M in mats:
        for row in M:
            out.append([0] * off + list(row) + [0] * (n - off - len(M)))
        off += len(M)
    return out


def copy_matrix(A):
    return [row[:] for row in A]


def transpose(A):
    if not A:
        return []
    return [list(col) for col in zip(*A)]


def mat_mul(A, B):
    """A * B for integer matrices, summed over the nonzero entries of A."""
    if A and B and len(A[0]) != len(B):
        raise ValueError("mat_mul: %d x %d times %d x %d"
                         % (len(A), len(A[0]), len(B), len(B[0])))
    if not A:
        return []
    if not B:
        return [[] for _ in A]
    n = len(B[0])
    P = []
    for row in A:
        acc = [0] * n
        for a, brow in zip(row, B):
            if a:
                acc = [x + a * y for x, y in zip(acc, brow)]
        P.append(acc)
    return P


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(c, A):
    return [[c * a for a in row] for row in A]


def mat_eq(A, B):
    if len(A) != len(B):
        return False
    return all(len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
               for ra, rb in zip(A, B))


def vec_mat(x, A):
    """Row vector times matrix."""
    if len(x) != len(A):
        raise ValueError("vec_mat: vector of length %d times %d x %d"
                         % (len(x), len(A), len(A[0]) if A else 0))
    n = len(A[0]) if A else 0
    out = [0] * n
    for xi, row in zip(x, A):
        if xi:
            for j in range(n):
                out[j] += xi * row[j]
    return out


def dot(x, y):
    if len(x) != len(y):
        raise ValueError("dot: vectors of lengths %d and %d"
                         % (len(x), len(y)))
    return sum(a * b for a, b in zip(x, y))


def _echelon(M, ncols):
    """Fraction-free (Bareiss) forward elimination on the first ncols
    columns of the integer rows M, in place.

    Columns past ncols ride along. Returns (pivot columns, number of row
    swaps): afterwards row i has its pivot at pivots[i] with zeros below
    it, and rows from len(pivots) on vanish on the first ncols columns.
    Below the pivot rows, an entry in column c is the minor of the input
    on the pivot rows plus its own row and the pivot columns plus c, so
    the division by the previous pivot in each update is exact (Bareiss,
    Math. Comp. 22, 1968), and the last pivot is the minor on the pivot
    rows and columns. A remainder raises ArithmeticError.
    """
    m = len(M)
    pivots = []
    swaps = 0
    prev = 1
    for col in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if M[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            swaps += 1
        prow = M[r][col:]
        p = prow[0]
        for i in range(r + 1, m):
            row = M[i]
            f = row[col]
            if f:
                num = [p * a - f * b for a, b in zip(row[col:], prow)]
            else:
                num = [p * a for a in row[col:]]
            if prev != 1:
                q = [x // prev for x in num]
                # floor remainders all share the sign of prev, so they
                # vanish exactly when their sum does
                if sum(num) != prev * sum(q):
                    x = next(x for x in num if x % prev)
                    raise ArithmeticError(
                        "Bareiss: entry %d in row %d at pivot column %d is "
                        "not divisible by the previous pivot %d"
                        % (x, i, col, prev))
                num = q
            row[col:] = num
        pivots.append(col)
        prev = p
    return pivots, swaps


def det(A):
    """Determinant of an integer matrix: the signed last Bareiss pivot."""
    n = len(A)
    if n == 0:
        return 1
    if any(len(row) != n for row in A):
        raise ValueError("det needs a square matrix, got %d rows of lengths "
                         "%s" % (n, sorted({len(row) for row in A})))
    M = copy_matrix(A)
    pivots, swaps = _echelon(M, n)
    if len(pivots) < n:
        return 0
    return -M[-1][-1] if swaps % 2 else M[-1][-1]


def inverse(A):
    """Inverse of an integer matrix, as a Fraction matrix. Raises
    ZeroDivisionError if singular."""
    X = solve_rows(A, identity_matrix(len(A)))
    if X is None:
        raise ZeroDivisionError("matrix is singular")
    return X


def rank(A):
    """Rank over Q of an integer matrix: the number of its Bareiss pivots."""
    if not A or not A[0]:
        return 0
    return len(_echelon(copy_matrix(A), len(A[0]))[0])


def _solve_int(A, B, independent=False):
    """(D, Y) with Y A = D B in integers, or None when some row of B is
    not in the row span of A. So X = Y / D solves X A = B; coordinates
    off the pivots are 0, and with independent, dependent rows of A raise
    ValueError. A and B are integer matrices, and one elimination of
    [A^T | B^T] serves every row of B.
    D is its last pivot, the minor of the pivot rows and columns, so y =
    D*x is integral by Cramer's rule and back-substitution runs on y.
    """
    m = len(A)
    n = len(A[0]) if A else (len(B[0]) if B else 0)
    if any(len(row) != n for row in chain(A, B)):
        raise ValueError("all rows must have length %d" % n)
    M = [list(col) for col in zip(*A, *B)]
    pivots, _ = _echelon(M, m)
    r = len(pivots)
    if independent and r < m:
        raise ValueError("basis rows must be independent")
    if any(any(row[m:]) for row in M[r:]):
        return None
    D = M[r - 1][pivots[-1]] if r else 1
    later = [[c for c in pivots[i + 1:] if M[i][c]] for i in range(r)]
    Y = []
    for t in range(m, m + len(B)):
        y = [0] * m
        for i in range(r - 1, -1, -1):
            row = M[i]
            s = D * row[t] - sum([row[c] * y[c] for c in later[i]])
            q, rem = divmod(s, row[pivots[i]])
            if rem:
                raise ArithmeticError(
                    "back-substitution: %d in row %d is not divisible by "
                    "the pivot %d" % (s, i, row[pivots[i]]))
            y[pivots[i]] = q
        Y.append(y)
    return D, Y


def solve_rows(A, B):
    """Solve X A = B over Q for a matrix X, given integer A and B, or
    return None: X = Y / D with (D, Y) from `_solve_int`, one Fraction
    per entry."""
    S = _solve_int(A, B)
    if S is None:
        return None
    D, Y = S
    return [[Fraction(v, D) for v in y] for y in Y]


def solve_right(A, b):
    """Solve x A = b over Q for a row vector x, or return None.

    A may be rectangular; any solution is returned when one exists.
    """
    X = solve_rows(A, [b])
    return None if X is None else X[0]


def rank_mod_p(A, p):
    """Rank of an integer matrix over F_p."""
    M = [[x % p for x in row] for row in A]
    m = len(M)
    n = len(M[0]) if M else 0
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if M[i][col]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = pow(M[r][col], -1, p)
        M[r] = [(x * inv) % p for x in M[r]]
        for i in range(r + 1, m):
            if M[i][col]:
                f = M[i][col]
                M[i] = [(x - f * y) % p for x, y in zip(M[i], M[r])]
        r += 1
        if r == m:
            break
    return r


def row_hnf(A):
    """Row Hermite normal form: the canonical basis of the row span of the
    integer matrix A over Z.

    Returns the nonzero rows of the HNF, in row echelon form with positive
    pivots and every entry above a pivot reduced into [0, pivot), so two
    matrices with the same row span get the same rows. No transform is
    kept. Each column is cleared below its pivot by Euclid's algorithm run
    on all its rows at once: the row with the least nonzero entry reduces
    every other one to a remainder of at most half its entry, so the
    entries stay small also on badly skewed inputs.
    """
    H = [list(map(int, row)) for row in A]
    m = len(H)
    row = 0
    for col in range(len(H[0]) if H else 0):
        live = [i for i in range(row, m) if H[i][col]]
        if not live:
            continue
        while len(live) > 1:
            piv = min(live, key=lambda i: abs(H[i][col]))
            prow = H[piv]
            p = prow[col]
            for i in live:
                if i != piv:
                    # the nearest integer to H[i][col] / p
                    q = (2 * H[i][col] + p) // (2 * p)
                    H[i] = [a - q * b for a, b in zip(H[i], prow)]
            live = [i for i in live if H[i][col]]
        H[row], H[live[0]] = H[live[0]], H[row]
        if H[row][col] < 0:
            H[row] = [-x for x in H[row]]
        # reduce entries above the pivot into [0, pivot)
        prow = H[row]
        p = prow[col]
        for i in range(row):
            q = H[i][col] // p
            if q:
                H[i] = [a - q * b for a, b in zip(H[i], prow)]
        row += 1
        if row == m:
            break
    return H[:row]


def int_kernel(A):
    """Basis of the integer solutions x (rows) of A * x^T = 0, in row HNF.

    One row HNF of the rows [col_j(A) | e_j], j < n (Cohen, GTM 138,
    §2.4): the rows it returns come from these by a unimodular transform,
    so the ones whose A-part vanishes have e-parts spanning the kernel
    over Z, which is therefore saturated in Z^n, and they come last and
    already form its HNF.
    """
    if not A or not A[0]:
        return []
    m, n = len(A), len(A[0])
    H = row_hnf([list(col) + [int(i == j) for i in range(n)]
                 for j, col in enumerate(zip(*A))])
    return [row[m:] for row in H if not any(row[:m])]


def snf(A):
    """Smith normal form with its row transform.

    Returns (S, U) with U unimodular and U*A*V == S for some unimodular V,
    S diagonal with nonnegative entries satisfying s1 | s2 | ... along the
    diagonal. No pivot choice reads V, so it is not built.
    """
    if not A:
        return [], []
    m, n = len(A), len(A[0])
    S = [list(map(int, row)) for row in A]
    U = identity_matrix(m)

    def add_row(src, dst, q):
        # row dst -= q * row src
        S[dst] = [a - q * b for a, b in zip(S[dst], S[src])]
        U[dst] = [a - q * b for a, b in zip(U[dst], U[src])]

    t = 0
    size = min(m, n)
    while t < size:
        # locate the minimal-abs nonzero entry in the trailing block
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = S[i][j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        S[i], S[t] = S[t], S[i]
        U[i], U[t] = U[t], U[i]
        for row in S:
            row[j], row[t] = row[t], row[j]
        dirty = False
        for i in range(t + 1, m):
            if S[i][t]:
                add_row(t, i, S[i][t] // S[t][t])
                if S[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if S[t][j]:
                q = S[t][j] // S[t][t]
                for row in S:
                    row[j] -= q * row[t]
                if S[t][j]:
                    dirty = True
        if dirty:
            continue  # smaller remainders appeared, repick the pivot
        # pivot must divide the rest of the block
        p = S[t][t]
        offender = next((i for i in range(t + 1, m)
                         if any(S[i][j] % p for j in range(t + 1, n))), None)
        if offender is not None:
            add_row(offender, t, -1)  # fold the offending row into the pivot row
            continue
        if p < 0:
            S[t] = [-x for x in S[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return S, U


def char_poly(A):
    """Characteristic polynomial det(x*I - A) of an integer matrix by
    Faddeev-LeVerrier.

    Returns integer coefficients [c0, c1, ..., cn] with cn == 1. In the
    recursion c_{n-k} = -tr(M_k)/k is an exact integer division; a
    remainder raises ArithmeticError.
    """
    n = len(A)
    coeffs = [0] * n + [1]
    M = zero_matrix(n, n)
    for k in range(1, n + 1):
        # M_k = A * (M_{k-1} + c_{n-k+1} I)
        ck = coeffs[n - k + 1]
        for i in range(n):
            M[i][i] += ck
        M = mat_mul(A, M)
        tr = sum(M[i][i] for i in range(n))
        if tr % k:
            raise ArithmeticError(
                "Faddeev-LeVerrier: trace %d of M_%d is not divisible by %d"
                % (tr, k, k))
        coeffs[n - k] = -tr // k
    return coeffs


def matrix_order(M, cap=10000):
    """Multiplicative order of a square integer matrix, or None past cap."""
    n = len(M)
    I = identity_matrix(n)
    P = copy_matrix(M)
    k = 1
    while k <= cap:
        if mat_eq(P, I):
            return k
        P = mat_mul(P, M)
        k += 1
    return None
