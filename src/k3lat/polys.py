"""Univariate polynomial helpers: arithmetic over Q, cyclotomics, matrix
evaluation and the extended Euclidean algorithm.

Polynomials are lists of coefficients, constant term first. Coefficients are
ints where possible and Fractions otherwise.
"""

from fractions import Fraction

from .matrix import identity_matrix, mat_mul, mat_scale, mat_add, zero_matrix


def poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def poly_add(p, q):
    n = max(len(p), len(q))
    out = [0] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return poly_trim(out)


def poly_sub(p, q):
    n = max(len(p), len(q))
    out = [0] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] -= c
    return poly_trim(out)


def poly_mul(p, q):
    p = poly_trim(p)
    q = poly_trim(q)
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def poly_divmod(p, q):
    """Quotient and remainder over Q."""
    p = [Fraction(c) for c in poly_trim(p)]
    q = [Fraction(c) for c in poly_trim(q)]
    assert q, "division by the zero polynomial"
    if len(p) < len(q):
        return [], poly_trim(p)
    quot = [Fraction(0)] * (len(p) - len(q) + 1)
    lead = q[-1]
    while len(p) >= len(q) and p:
        k = len(p) - len(q)
        c = p[-1] / lead
        quot[k] = c
        for i in range(len(q)):
            p[k + i] -= c * q[i]
        p = poly_trim(p)
    return poly_trim(quot), p


def poly_exact_div(p, q):
    """Exact division for integer polynomials; asserts zero remainder."""
    quot, rem = poly_divmod(p, q)
    assert not rem, "division was not exact"
    out = []
    for c in quot:
        assert c.denominator == 1
        out.append(int(c))
    return out


def poly_eval_matrix(p, M):
    """Evaluate p at a square matrix by Horner's rule."""
    n = len(M)
    acc = zero_matrix(n, n)
    for c in reversed(p):
        acc = mat_mul(acc, M)
        if c:
            acc = mat_add(acc, mat_scale(c, identity_matrix(n)))
    return acc


_CYCLO_CACHE = {1: [-1, 1]}


def cyclotomic(d):
    """The d-th cyclotomic polynomial with integer coefficients."""
    assert d >= 1
    if d in _CYCLO_CACHE:
        return _CYCLO_CACHE[d]
    num = [0] * d + [1]
    num[0] = -1  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            num = poly_exact_div(num, cyclotomic(e))
    _CYCLO_CACHE[d] = num
    return num


def poly_xgcd(a, b):
    """(g, u, v) with u*a + v*b = g = gcd(a, b), over the rationals."""
    a = [Fraction(x) for x in poly_trim(a)]
    b = [Fraction(x) for x in poly_trim(b)]
    r0, r1 = a, b
    u0, u1 = [Fraction(1)], [Fraction(0)]
    v0, v1 = [Fraction(0)], [Fraction(1)]
    while poly_trim(r1):
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, poly_sub(u0, poly_mul(q, u1))
        v0, v1 = v1, poly_sub(v0, poly_mul(q, v1))
    return poly_trim(r0), poly_trim(u0), poly_trim(v0)
