"""Every top-level def or class of src/k3lat is named somewhere else in
src/k3lat, and every public method of its classes is read as an
attribute somewhere in src/k3lat, so no library code is reached only by
the tests; no check of src/k3lat is an assert statement, which python -O
strips; and every top-level def or class of tests/oracles.py is named by
a test module or by another oracle. Read from the syntax trees alone:
nothing is imported or run."""

import ast
import os

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(TESTS, os.pardir, "src", "k3lat")

# named only from outside src/k3lat, each for one reason
ALLOWED = {
    ("matrix", "inverse"): "a per-layer name of BENCHMARK.json",
    ("matrix", "solve_right"): "a per-layer name of BENCHMARK.json",
    ("polys", "poly_eval_matrix"): "a per-layer name of BENCHMARK.json",
    ("realize", "build_coxeter_model"): "bench/make_inputs.py imports it",
}


def _names(node):
    """Every identifier node names: variables, attributes, imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


def _trees(directory=SRC):
    """(module name, syntax tree) of each module of directory."""
    for fname in sorted(os.listdir(directory)):
        if fname.endswith(".py"):
            with open(os.path.join(directory, fname)) as fh:
                yield fname[:-len(".py")], ast.parse(fh.read(), fname)


def test_every_top_level_definition_is_named_elsewhere_in_the_package():
    defined = []     # (module, name, node)
    named = []       # (node, identifiers) per top-level statement
    for mod, tree in _trees():
        for node in tree.body:
            named.append((node, _names(node)))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((mod, node.name, node))
    # a definition naming itself (recursion) does not reach it
    unreached = sorted(
        (mod, name) for mod, name, node in defined
        if not any(name in ids for other, ids in named if other is not node))
    assert unreached == sorted(ALLOWED), unreached


def test_every_public_method_is_read_as_an_attribute_in_the_package():
    methods = []     # (module, class, method)
    read = set()     # every attribute name read anywhere in src/k3lat
    for mod, tree in _trees():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods += [(mod, node.name, sub.name) for sub in node.body
                            if isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_")]
        read.update(sub.attr for sub in ast.walk(tree)
                    if isinstance(sub, ast.Attribute))
    unread = sorted(m for m in methods if m[2] not in read)
    assert unread == [], unread


def test_no_assert_statement_in_the_package():
    # a failed check raises an exception naming its claim, under -O too
    asserts = sorted((mod, sub.lineno) for mod, tree in _trees()
                     for sub in ast.walk(tree) if isinstance(sub, ast.Assert))
    assert asserts == [], asserts


def test_every_oracle_is_named_by_a_test_or_another_oracle():
    trees = dict(_trees(TESTS))
    oracles = trees.pop("oracles")
    named = set().union(*map(_names, trees.values()))
    unnamed = sorted(
        node.name for node in oracles.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in named
        and not any(node.name in _names(other)
                    for other in oracles.body if other is not node))
    assert unnamed == [], unnamed
