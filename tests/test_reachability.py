"""Every top-level def or class of src/k3lat is named somewhere else in
src/k3lat, so no library code is reached only by the tests. Read from
the syntax trees alone: nothing is imported or run."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "k3lat")

# named only from outside src/k3lat, each for one reason
ALLOWED = {
    ("matrix", "solve_right"): "a per-layer name of BENCHMARK.json",
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


def test_every_top_level_definition_is_named_elsewhere_in_the_package():
    defined = []     # (module, name, node)
    named = []       # (node, identifiers) per top-level statement
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(SRC, fname)) as fh:
            tree = ast.parse(fh.read(), fname)
        for node in tree.body:
            named.append((node, _names(node)))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((fname[:-len(".py")], node.name, node))
    # a definition naming itself (recursion) does not reach it
    unreached = sorted(
        (mod, name) for mod, name, node in defined
        if not any(name in ids for other, ids in named if other is not node))
    assert unreached == sorted(ALLOWED), unreached
