import os
import subprocess
import sys
from fractions import Fraction

import pytest

from k3lat.groups import IsometryGroup
from k3lat.lattice import Lattice
from k3lat.serialize import (
    SerializationError,
    dumps_canonical,
    group_from_obj,
    group_to_obj,
    isotypic_from_obj,
    isotypic_to_obj,
    lattice_from_obj,
    lattice_to_obj,
    loads,
    read_json_file,
    sublattice_from_obj,
    sublattice_to_obj,
    write_json_file,
)
from k3lat.standard import hyperbolic_plane, k3_lattice, root_lattice


def test_lattice_round_trip():
    L = root_lattice("A", 2, sign=-1)
    obj = lattice_to_obj(L)
    back = lattice_from_obj(obj)
    assert back.gram == L.gram
    assert back.rank == 2


def test_named_lattice_keeps_name_and_distinguished():
    U = hyperbolic_plane()
    obj = lattice_to_obj(U)
    back = lattice_from_obj(obj)
    assert back.name == "U"
    assert back.distinguished["e"] == [1, 0]
    assert back.distinguished["f"] == [0, 1]


def test_sublattice_round_trip():
    k3 = k3_lattice()
    S = k3.sublattice([[1, 0] + [0] * 20, [0, 1] + [0] * 20])
    obj = sublattice_to_obj(S)
    back = sublattice_from_obj(obj)
    assert back.basis == S.basis
    assert back.gram() == S.gram()


def test_group_round_trip():
    k3 = k3_lattice()
    swap = [[0] * 22 for _ in range(22)]
    for i in range(6):
        swap[i][i] = 1
    for i in range(8):
        swap[6 + i][14 + i] = 1
        swap[14 + i][6 + i] = 1
    G = IsometryGroup(k3, [swap])
    obj = group_to_obj(G)
    back = group_from_obj(obj)
    assert back.order() == 2
    assert back.generators == [swap]


def test_isotypic_round_trip():
    P = [[[Fraction(1, 3), Fraction(0)], [Fraction(0), Fraction(1)]]]
    obj = isotypic_to_obj(P)
    back = isotypic_from_obj(obj)
    assert back == P


def test_canonical_dumps_is_fixed_point():
    L = root_lattice("D", 4, sign=-1)
    text = dumps_canonical(lattice_to_obj(L))
    assert text.endswith("\n")
    assert dumps_canonical(loads(text)) == text


def test_file_round_trip(tmp_path):
    path = str(tmp_path / "lat.json")
    L = root_lattice("A", 3)
    write_json_file(path, lattice_to_obj(L))
    obj = read_json_file(path)
    assert lattice_from_obj(obj).gram == L.gram


def test_parse_error_carries_position():
    with pytest.raises(SerializationError) as exc:
        loads('{"rank": 2,,}')
    msg = str(exc.value)
    assert "line" in msg and "column" in msg


def test_bad_shapes_rejected():
    with pytest.raises(SerializationError):
        lattice_from_obj({"rank": 2, "gram": [[0, 1], [1]]})
    with pytest.raises(SerializationError):
        lattice_from_obj({"rank": 2, "gram": [[0, 1], [2, 0]]})
    with pytest.raises(SerializationError):
        lattice_from_obj({"rank": 3, "gram": [[2]]})
    with pytest.raises(SerializationError):
        lattice_from_obj({"rank": 1, "gram": [["x"]]})
    with pytest.raises(SerializationError):
        lattice_from_obj({"gram": [[2]]})


def test_bad_fraction_rejected():
    with pytest.raises(SerializationError):
        isotypic_from_obj({"projectors": [[["1/0"]]]})
    with pytest.raises(SerializationError):
        isotypic_from_obj({"projectors": [[["woof"]]]})


def test_group_from_obj_validates_isometries():
    bad = {
        "ambient": lattice_to_obj(hyperbolic_plane()),
        "generators": [[[1, 1], [0, 1]]],
    }
    with pytest.raises((SerializationError, ValueError)):
        group_from_obj(bad)


def test_dependent_sublattice_basis_is_refused_also_under_python_O():
    # independence is a check, not an assert: -O keeps it
    obj = sublattice_to_obj(hyperbolic_plane().full_sublattice())
    obj["basis"] = [[1, 2], [2, 4]]
    with pytest.raises(ValueError, match="independent"):
        sublattice_from_obj(obj)
    script = (
        "from k3lat.serialize import sublattice_from_obj\n"
        "try:\n"
        "    sublattice_from_obj(%r)\n"
        "    print('accepted')\n"
        "except ValueError as exc:\n"
        "    print('raised', exc)\n" % (obj,)
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised"), proc.stdout
    assert "independent" in proc.stdout
