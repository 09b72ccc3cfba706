"""A rational vector in src/k3lat is an integer row over a known
denominator. Fractions appear only where a rational value is the
answer: the solve `matrix.solve_rows` and the values of a discriminant
form. Read from the syntax trees alone: nothing is imported or run."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "k3lat")


def _tree(module):
    with open(os.path.join(SRC, module + ".py")) as fh:
        return ast.parse(fh.read(), module)


def _uses(node, name, scope, out):
    """Append the qualified name of the definition enclosing each use of
    the identifier name below node, as a variable or an attribute."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            _uses(child, name, scope + [child.name], out)
            continue
        if (isinstance(child, ast.Name) and child.id == name) or (
                isinstance(child, ast.Attribute) and child.attr == name):
            out.append(".".join(scope))
        _uses(child, name, scope, out)


def _where(module, name):
    found = []
    _uses(_tree(module), name, [], found)
    return sorted(set(found))


def test_no_module_imports_or_calls_inverse_or_to_int_matrix():
    modules = sorted(f[:-len(".py")] for f in os.listdir(SRC)
                     if f.endswith(".py"))
    imported, called = [], []
    for module in modules:
        tree = _tree(module)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported += ["%s: %s" % (module, a.name) for a in node.names
                             if a.name in ("inverse", "to_int_matrix")]
            elif isinstance(node, ast.Call):
                f = node.func
                fname = f.id if isinstance(f, ast.Name) else (
                    f.attr if isinstance(f, ast.Attribute) else None)
                if fname in ("inverse", "to_int_matrix"):
                    called.append("%s: %s" % (module, fname))
    assert (imported, called) == ([], []), (imported, called)
    # matrix keeps inverse, a per-layer name of the benchmark, and no
    # to_int_matrix at all
    defined = {n.name for n in _tree("matrix").body
               if isinstance(n, ast.FunctionDef)}
    assert "inverse" in defined and "to_int_matrix" not in defined


def test_matrix_names_fraction_only_in_solve_rows():
    assert _where("matrix", "Fraction") == ["solve_rows"]


def test_lattice_names_fraction_only_in_the_discriminant_form_values():
    assert _where("lattice", "Fraction") == [
        "DiscriminantForm.bilinear", "DiscriminantForm.q",
        "DiscriminantForm.q_value_counts"]
