"""Equivariant signature-defect arithmetic for prime-order actions.

A point defect is a Dedekind sum. With z = exp(2 pi i k/p), the factor
(1+z)/(1-z) is i cot(pi k/p), so the sum over the nontrivial p-th roots
of unity of (1+z)(1+z^q)/((1-z)(1-z^q)) is -sum_k cot(pi k/p)
cot(pi k q/p) = -4p s(q, p), and s(q, p) = sum_r ((r/p)) ((qr/p)) with
the sawtooth ((x)) = x - floor(x) - 1/2 (Rademacher and Grosswald,
Dedekind Sums, 1972; Hirzebruch and Zagier, The Atiyah-Singer theorem
and elementary number theory, 1974). Its lattice check raises
ArithmeticError, so it survives python -O. Also houses the
maximal-defect statement and fixed-point-count predictions.
"""

from fractions import Fraction


class InvalidCharacter(ValueError):
    pass


class RankOverflow(ValueError):
    pass


class FixedPointPrediction:
    def __init__(self, p, nu, euler, quotient_signature, total_defect,
                 moduli_dimension):
        self.p, self.nu, self.euler = p, nu, euler
        self.quotient_signature = quotient_signature
        self.total_defect = total_defect
        self.moduli_dimension = moduli_dimension


def defect_point(p, q):
    """Exact Sum over nontrivial p-th roots of unity of
    (1+z)(1+z^q) / ((1-z)(1-z^q)); the local defect of an isolated
    fixed point with rotation weights (1, q).
    """
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        raise ValueError("p must be a prime, got %d" % p)
    q = q % p
    if q == 0:
        raise InvalidCharacter("q must be a unit mod p")
    # -4p s(q, p), with ((r/p)) = (2r - p)/(2p) for 0 < r < p
    val = Fraction(-sum((2 * r - p) * (2 * (q * r % p) - p)
                        for r in range(1, p)), p)
    if (val * 3 * (p - 1)).denominator != 1:
        raise ArithmeticError("defect_point(%d, %d): 3(p-1) * %s is not an "
                              "integer" % (p, q, val))
    return val


def defect_table(p):
    """q -> defect_point(p, q) for every unit q mod p."""
    return {q: defect_point(p, q) for q in range(1, p)}


def max_defect_check(p):
    """Whether the point defect is strictly maximal at q = p-1, where it
    should equal (p-1)(p-2)/3: the report of an exhaustive evaluation over
    all units, with the argmax of the table as max_at."""
    if p <= 2:
        raise ValueError("max_defect_check needs an odd prime, got %r"
                         % (p,))
    table = defect_table(p)
    top = table[p - 1]
    return {
        "p": p,
        "table": table,
        "max_at": max(table, key=table.get),
        "max_value": top,
        "max_matches_formula": top == Fraction((p - 1) * (p - 2), 3),
        "strictly_maximal": all(v < top for q, v in table.items()
                                if q != p - 1),
    }


def fixed_point_predictions(p, nu):
    """Numerical predictions for an order-p action whose fixed locus is
    nu isolated points."""
    if nu * (p - 1) > 19:
        raise RankOverflow("nu(p-1) = %d exceeds 19" % (nu * (p - 1)))
    return FixedPointPrediction(
        p=p,
        nu=nu,
        euler=24 - nu * p,
        quotient_signature=nu * (p - 1) - 16,
        total_defect=Fraction((p - 1) * (nu * p - 16)),
        moduli_dimension=3 * (2 * nu - 5),
    )
