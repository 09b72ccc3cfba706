import cmath
from fractions import Fraction

import pytest

from k3lat.gsignature import (
    InvalidCharacter,
    RankOverflow,
    defect_point,
    defect_table,
    fixed_point_predictions,
    max_defect_check,
)
from conftest import run_optimized
from oracles import (
    DefectInput,
    defect_point_by_conjugates,
    defect_surface,
    noether_identity_check,
    signature_balance,
    total_defect,
)


def _defect_point_float(p, q):
    z = cmath.exp(2j * cmath.pi / p)
    s = 0.0
    for j in range(1, p):
        zj = z ** j
        zjq = z ** (j * q)
        s += ((1 + zj) * (1 + zjq) / ((1 - zj) * (1 - zjq))).real
    return s


PRIMES_BELOW_100 = [p for p in range(2, 100)
                    if all(p % d for d in range(2, p))]


def test_defect_point_matches_float_oracle():
    # the Dedekind sum against the defect sum in floating point, for every
    # prime p < 100 and every unit q
    for p in PRIMES_BELOW_100:
        for q in range(1, p):
            exact = defect_point(p, q)
            assert isinstance(exact, Fraction)
            approx = _defect_point_float(p, q)
            assert abs(float(exact) - approx) < 1e-9 * max(1, abs(approx))
    assert defect_point(2, 1) == 0


def test_defect_point_trace_matches_the_sum_of_conjugates():
    # the Dedekind sum against the p - 1 terms of the defect sum, each
    # multiplied out in integers in Z[x]/(x^p - 1) and read in Q[x]/Phi_p
    for p in (3, 5, 7, 11, 13, 17, 19):
        for q in range(1, p):
            assert defect_point(p, q) == defect_point_by_conjugates(p, q)


def test_defect_checks_raise_under_python_O():
    # a value off the lattice (1/(3(p-1)))Z must fire the check with
    # asserts stripped: shadow the builtin sum inside the module so the
    # Dedekind sum comes out as 1, and defect_point(5, 1) as -1/5
    code = (
        "import k3lat.gsignature as g\n"
        "def run():\n"
        "    try:\n"
        "        print('accepted', g.defect_point(5, 1))\n"
        "    except ArithmeticError as exc:\n"
        "        print('raised', exc)\n"
        "run()\n"
        "g.sum = lambda terms: 1\n"
        "run()\n"
    )
    proc = run_optimized(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "accepted -4",
        "raised defect_point(5, 1): 3(p-1) * -1/5 is not an integer",
    ], proc.stdout


def test_defect_point_is_symmetric_in_q_and_inverse():
    for p in (5, 7, 11):
        for q in range(1, p):
            qinv = pow(q, -1, p)
            assert defect_point(p, q) == defect_point(p, qinv)


def test_defect_table_p3_frozen():
    assert defect_table(3) == {1: Fraction(-2, 3), 2: Fraction(2, 3)}


def test_invalid_characters_rejected():
    with pytest.raises(InvalidCharacter):
        defect_point(5, 5)
    with pytest.raises(InvalidCharacter):
        defect_point(3, 0)
    with pytest.raises(InvalidCharacter):
        DefectInput(5, points=[1, 10], surfaces=[])


def test_defect_point_needs_a_prime():
    for p in (-3, 0, 1, 4, 9):
        with pytest.raises(ValueError, match="p must be a prime"):
            defect_point(p, 1)


def test_defect_surface_scale():
    assert defect_surface(3, 1) == Fraction(8, 3)
    assert defect_surface(5, -2) == Fraction(-16)
    assert defect_surface(7, 0) == 0


def test_max_defect_values():
    for p, value in [(3, Fraction(2, 3)), (5, Fraction(4)), (7, Fraction(10))]:
        rep = max_defect_check(p)
        assert rep["max_at"] == p - 1
        assert rep["max_value"] == value
        assert rep["max_matches_formula"]
        assert rep["strictly_maximal"]
        assert set(rep["table"]) == set(range(1, p))


def test_signature_balance_on_known_point_configurations():
    cases = [
        (2, -16, -8, [1] * 8),
        (3, -16, -4, [2] * 6),
        (5, -16, 0, [4] * 4),
        (7, -16, 2, [6] * 3),
    ]
    for p, s_total, s_quot, points in cases:
        data = DefectInput(p, points=points, surfaces=[])
        rep = signature_balance(p, s_total, s_quot, data)
        assert rep["balanced"], rep
        assert rep["discrepancy"] == 0


def test_total_defect_closure():
    for p, nu in [(2, 8), (3, 6), (5, 4), (7, 3)]:
        data = DefectInput(p, points=[p - 1] * nu, surfaces=[])
        assert total_defect(data) == (p - 1) * (nu * p - 16)


def test_noether_identity_on_point_configurations():
    for p, nu in [(3, 6), (5, 4), (7, 3)]:
        rep = noether_identity_check(p, [p - 1] * nu, [])
        assert rep["equals_8"], rep
        assert rep["value"] == 8


def test_fixed_point_predictions_fields():
    pred = fixed_point_predictions(3, 6)
    assert pred.euler == 24 - 18 == 6
    assert pred.quotient_signature == -4
    assert pred.moduli_dimension == 21
    pred5 = fixed_point_predictions(5, 4)
    assert pred5.euler == 4
    assert pred5.quotient_signature == 0
    assert pred5.total_defect == 16
    with pytest.raises(RankOverflow):
        fixed_point_predictions(3, 10)
