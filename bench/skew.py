"""Seeded unimodular base changes and the integer checks on them.

A skew of `moves` is a product U of that many elementary row moves
(add +-1 times one row to another), drawn from a seeded generator. U
turns a user's input into one written in a basis the program's example
constructors never pre-reduced: Gram G' = U G U^T, isometry g' = U g U^-1 and
projector E' = U E U^-1. Everything here is exact integer or Fraction
arithmetic written for the benchmark; none of it calls k3lat.
"""

import random
from fractions import Fraction


def mat_mul(A, B):
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def norm(v, gram):
    n = len(v)
    return sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))


def unimodular(n, moves, rng):
    """(U, U^-1) for a product of `moves` elementary moves on n rows."""
    U, Uinv = identity(n), identity(n)
    for _ in range(moves):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        U[i] = [a + s * b for a, b in zip(U[i], U[j])]
        for row in Uinv:
            row[j] -= s * row[i]
    return U, Uinv


class Skew:
    """One seeded base change of rank n. `checks` collects (name, passed)
    for U * U^-1 = I and for every object conjugated so far."""

    def __init__(self, n, moves, seed):
        self.U, self.Uinv = unimodular(n, moves, random.Random(seed))
        self.checks = [("U-times-U-inverse-is-I",
                        mat_mul(self.U, self.Uinv) == identity(n))]
        self.max_entry = max(abs(x) for row in self.U for x in row)

    def gram(self, G):
        return mat_mul(mat_mul(self.U, G), transpose(self.U))

    def conj(self, M):
        return mat_mul(mat_mul(self.U, M), self.Uinv)

    def group(self, obj, name):
        """Conjugate a serialized group; check every generator is an
        isometry of the new Gram."""
        G = self.gram(obj["ambient"]["gram"])
        gens = [self.conj(g) for g in obj["generators"]]
        self.checks.append(("%s-generators-preserve-gram" % name, all(
            mat_mul(mat_mul(g, G), transpose(g)) == G for g in gens)))
        return {"ambient": {"rank": len(G), "gram": G}, "generators": gens}

    def isotypic(self, obj, name):
        """Conjugate serialized projectors; check they still sum to 1."""
        Es = [self.conj([[Fraction(x) for x in row] for row in E])
              for E in obj["projectors"]]
        n = len(self.U)
        total = [[sum(E[i][j] for E in Es) for j in range(n)]
                 for i in range(n)]
        self.checks.append(("%s-projectors-sum-to-1" % name,
                            total == identity(n)))
        return {"projectors": [[[str(x) for x in row] for row in E]
                               for E in Es]}

    def lattice(self, obj):
        return {"rank": obj["rank"], "gram": self.gram(obj["gram"])}
