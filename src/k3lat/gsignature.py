"""Equivariant signature-defect arithmetic for prime-order actions.

A point defect is one field trace: the sum over the nontrivial p-th
roots of unity z of (1+z)(1+z^q)/((1-z)(1-z^q)) is Tr_{Q(z)/Q} of that
element, reduced once in Q[x]/Phi_p(x), and the trace of sum a_k x^k is
p*a_0 - sum a_k, since Tr(1) = p - 1 and Tr(z^k) = -1 for 0 < k < p.
Its exactness checks raise ArithmeticError, so they survive python -O.
Also houses the signature balance, the maximal-defect statement, the
adjunction style point/surface count identity, and fixed-point-count
predictions.
"""

from fractions import Fraction

from .polys import (cyclotomic, poly_add, poly_divmod, poly_mul, poly_sub,
                    poly_trim, poly_xgcd)


class InvalidCharacter(ValueError):
    pass


class RankOverflow(ValueError):
    pass


class DefectInput:
    """Local fixed-point data for one prime-order action.

    points: the q of each isolated point with local weights (1, q).
    surfaces: (self_intersection, euler_characteristic) per fixed surface.
    """

    def __init__(self, p, points, surfaces):
        for q in points:
            if q % p == 0:
                raise InvalidCharacter("point weight q must be a unit mod p")
        self.p, self.points, self.surfaces = p, points, surfaces


class FixedPointPrediction:
    def __init__(self, p, nu, euler, quotient_signature, total_defect,
                 moduli_dimension):
        self.p, self.nu, self.euler = p, nu, euler
        self.quotient_signature = quotient_signature
        self.total_defect = total_defect
        self.moduli_dimension = moduli_dimension


def _phi_reduce(poly, phi):
    return poly_divmod(poly, phi)[1]


def _phi_inverse(poly, phi, p, q):
    g, u, _ = poly_xgcd(poly, phi)
    if len(poly_trim(g)) != 1:
        raise ArithmeticError("defect_point(%d, %d): (1-x)(1-x^%d) is not "
                              "invertible mod Phi_%d" % (p, q, q, p))
    c = g[0]
    return [x / c for x in u]


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
    if p == 2:
        return Fraction(0)
    phi = cyclotomic(p)
    xq = [0] * q + [1]
    num = _phi_reduce(poly_mul([1, 1], poly_add([1], xq)), phi)
    den = _phi_reduce(poly_mul([1, -1], poly_sub([1], xq)), phi)
    alpha = _phi_reduce(poly_mul(num, _phi_inverse(den, phi, p, q)), phi)
    val = Fraction(p * alpha[0] - sum(alpha)) if alpha else Fraction(0)
    if (val * 3 * (p - 1)).denominator != 1:
        raise ArithmeticError("defect_point(%d, %d): 3(p-1) * %s is not an "
                              "integer" % (p, q, val))
    return val


def defect_surface(p, self_int):
    """(p^2 - 1)/3 times the self-intersection: the surface defect."""
    return Fraction((p * p - 1) * self_int, 3)


def defect_table(p):
    """q -> defect_point(p, q) for every unit q mod p."""
    return {q: defect_point(p, q) for q in range(1, p)}


def total_defect(data):
    """Sum of all point and surface defects of a DefectInput."""
    s = Fraction(0)
    for q in data.points:
        s += defect_point(data.p, q)
    for self_int, _euler in data.surfaces:
        s += defect_surface(data.p, self_int)
    return s


def signature_balance(p, sigma_N, sigma_quotient, data):
    """Check p * sigma(N/G) == sigma(N) + total defect, exactly."""
    assert data.p == p
    rhs = Fraction(sigma_N) + total_defect(data)
    lhs = Fraction(p * sigma_quotient)
    return {
        "p": p,
        "lhs": lhs,
        "rhs": rhs,
        "balanced": lhs == rhs,
        "discrepancy": lhs - rhs,
    }


def max_defect_check(p):
    """Whether the point defect is strictly maximal at q = p-1, where it
    should equal (p-1)(p-2)/3: the report of an exhaustive evaluation over
    all units, with the argmax of the table as max_at."""
    assert p > 2, "needs an odd prime"
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


def noether_identity_check(p, points, surfaces):
    """Evaluate m + (1/(p-1)) sum of point defects
    + sum over surfaces of (euler + (p+1)/3 * self_int); compare with 8.
    """
    m = len(points)
    val = Fraction(m)
    for q in points:
        val += defect_point(p, q) / (p - 1)
    for self_int, euler in surfaces:
        val += euler + Fraction((p + 1) * self_int, 3)
    return {"p": p, "value": val, "equals_8": val == 8}


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
