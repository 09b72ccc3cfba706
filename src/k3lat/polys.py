"""Evaluation of a univariate polynomial at a square matrix.

Polynomials are lists of coefficients, constant term first. The only
polynomial k3lat evaluates is Phi_p at a prime p, 1 + x + ... + x^(p-1),
which its callers write out as [1] * p.
"""

from .matrix import identity_matrix, mat_mul, mat_scale, mat_add, zero_matrix


def poly_eval_matrix(p, M):
    """Evaluate p at a square matrix by Horner's rule."""
    n = len(M)
    acc = zero_matrix(n, n)
    for c in reversed(p):
        acc = mat_mul(acc, M)
        if c:
            acc = mat_add(acc, mat_scale(c, identity_matrix(n)))
    return acc
