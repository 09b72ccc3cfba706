"""matrix.inverse, the solve that returns Fractions, is called in
src/k3lat from Lattice.gram_inverse alone, the one inverse that is
rational. Coordinates and unimodular inverses come from
lattice.express_in_basis, in integers. Read from the syntax trees alone:
nothing is imported or run."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "k3lat")


def _inverse_names(tree, module):
    """The local names bound to matrix.inverse in a module."""
    names = {"inverse"} if module == "matrix" else set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "matrix":
            names.update(a.asname or a.name for a in node.names
                         if a.name == "inverse")
    return names


def _references(node, names, scope, out):
    """Append the qualified name of the definition enclosing each use of
    one of names, or of an attribute .inverse, below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            _references(child, names, scope + [child.name], out)
            continue
        if (isinstance(child, ast.Name) and child.id in names) or (
                isinstance(child, ast.Attribute) and child.attr == "inverse"):
            out.append(".".join(scope))
        _references(child, names, scope, out)


def test_inverse_is_called_only_by_gram_inverse():
    uses = []
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        module = fname[:-len(".py")]
        with open(os.path.join(SRC, fname)) as fh:
            tree = ast.parse(fh.read(), fname)
        found = []
        _references(tree, _inverse_names(tree, module), [], found)
        uses += ["%s.%s" % (module, where) for where in found]
    assert uses == ["lattice.Lattice.gram_inverse"], uses
