"""Exact-arithmetic toolkit for isometry groups of the K3 lattice.

The package computes coinvariant lattices, realizability verdicts, the
prime-order Nikulin/Coxeter dichotomy, signature-defect arithmetic for
cyclic quotient singularities, and the one-lattice-per-prime family of
fixed-point-free examples, all over Z and Q with no floating point.

The schema tag and the value conversion of the reports live here, so the
front end (k3lat.cli) and the scenario pipelines (k3lat.scenarios) share
them without either importing the other.
"""

__version__ = "0.1.0"

# the schema tag of every report envelope
SCHEMA = "k3lat/1"


def jsonable(v):
    # Fractions, like any value JSON has no type for, become strings
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): jsonable(x) for k, x in v.items()}
    return str(v)
