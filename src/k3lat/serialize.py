"""Structured text formats for lattices, groups, projectors and reports.

All formats are JSON with deterministic key order, so emitting the same
object twice gives byte-identical files. Integer entries stay plain
decimal integers; rational entries (isotypic projectors) are exact
fraction strings such as "3/4" or "2". Parsing is strict: shape or type
errors raise SerializationError with a message, and syntax errors keep
the line and column of the offending byte.

A lattice is the object {"rank": n, "gram": G}, G an n x n symmetric
nondegenerate integer matrix as a list of rows. Other keys are ignored,
so files that carry older metadata next to the Gram still load. A group
is {"ambient": lattice, "generators": [M, ...]}, each M an n x n integer
matrix acting on row vectors. The lattice and group codecs import their
classes when they run, so writing a report loads json and fractions
alone.
"""

import json
from fractions import Fraction


class SerializationError(ValueError):
    def __init__(self, message, lineno=None, colno=None):
        super().__init__(message)
        self.lineno = lineno
        self.colno = colno


def dumps_canonical(obj):
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def loads(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SerializationError(
            "parse error at line %d column %d: %s" % (e.lineno, e.colno,
                                                      e.msg),
            lineno=e.lineno, colno=e.colno)


def read_json_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def write_json_file(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(obj))


def _require(cond, message):
    if not cond:
        raise SerializationError(message)


def _int_matrix(obj, what, rows, cols):
    _require(isinstance(obj, list) and obj, "%s must be a nonempty list" % what)
    _require(all(isinstance(r, list) for r in obj), "%s rows must be lists" % what)
    n = len(obj[0])
    _require(all(len(r) == n for r in obj), "%s rows must have equal length" % what)
    for r in obj:
        for x in r:
            _require(isinstance(x, int) and not isinstance(x, bool),
                     "%s entries must be integers" % what)
    _require(len(obj) == rows, "%s must have %d rows" % (what, rows))
    _require(n == cols, "%s must have %d columns" % (what, cols))
    return [list(r) for r in obj]


def lattice_to_obj(L):
    return {"rank": L.rank, "gram": [list(r) for r in L.gram]}


def lattice_from_obj(obj):
    from .lattice import Lattice
    _require(isinstance(obj, dict), "lattice must be an object")
    _require("rank" in obj and "gram" in obj, "lattice needs rank and gram")
    n = obj["rank"]
    _require(isinstance(n, int) and n > 0, "rank must be a positive integer")
    gram = _int_matrix(obj["gram"], "gram", rows=n, cols=n)
    _require(all(gram[i][j] == gram[j][i] for i in range(n)
                 for j in range(n)), "gram must be symmetric")
    return Lattice(gram)


def group_to_obj(G):
    return {"ambient": lattice_to_obj(G.ambient),
            "generators": [[list(r) for r in g] for g in G.generators]}


def group_from_obj(obj):
    from .groups import IsometryGroup
    _require(isinstance(obj, dict), "group must be an object")
    _require("ambient" in obj and "generators" in obj,
             "group needs ambient and generators")
    ambient = lattice_from_obj(obj["ambient"])
    gens_obj = obj["generators"]
    _require(isinstance(gens_obj, list) and gens_obj,
             "generators must be a nonempty list")
    gens = [_int_matrix(g, "generator %d" % i, rows=ambient.rank,
                        cols=ambient.rank) for i, g in enumerate(gens_obj)]
    return IsometryGroup(ambient, gens)


def _fraction_str(x):
    return str(Fraction(x))


def _fraction_from(s, what):
    _require(isinstance(s, (str, int)), "%s entries must be fraction strings" % what)
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise SerializationError("%s entry %r is not a fraction" % (what, s))


def isotypic_to_obj(projectors):
    return {"projectors": [[[_fraction_str(x) for x in row] for row in E]
                           for E in projectors]}


def isotypic_from_obj(obj):
    _require(isinstance(obj, dict) and "projectors" in obj,
             "isotypic data needs projectors")
    ps = obj["projectors"]
    _require(isinstance(ps, list) and ps, "projectors must be a nonempty list")
    out = []
    for k, E in enumerate(ps):
        what = "projector %d" % k
        _require(isinstance(E, list) and E and
                 all(isinstance(r, list) for r in E), "%s must be a matrix" % what)
        n = len(E[0])
        _require(all(len(r) == n for r in E), "%s rows must have equal length" % what)
        out.append([[_fraction_from(x, what) for x in row] for row in E])
    return out
