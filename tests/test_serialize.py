import os
import random
from fractions import Fraction

import pytest

from k3lat.groups import IsometryGroup
from k3lat.lattice import Lattice
from k3lat.matrix import (
    inverse,
    mat_mul,
    transpose,
)
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
    write_json_file,
)
from k3lat.standard import hyperbolic_plane, k3_lattice, root_lattice

from conftest import run_optimized
from oracles import random_unimodular, to_int_matrix

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src")
INPUTS = os.path.join(ROOT, "bench", "inputs")


def test_lattice_round_trip():
    L = root_lattice("A", 2, sign=-1)
    obj = lattice_to_obj(L)
    back = lattice_from_obj(obj)
    assert back.gram == L.gram
    assert back.rank == 2


def test_lattice_is_written_as_rank_and_gram_alone():
    obj = lattice_to_obj(k3_lattice())
    assert sorted(obj) == ["gram", "rank"]
    assert obj["rank"] == 22 and obj["gram"] == k3_lattice().gram


def test_legacy_lattice_keys_are_ignored_on_load():
    # this file also carries the name, labels and distinguished table of
    # the K3 basis, which older versions wrote next to the Gram
    obj = read_json_file(os.path.join(INPUTS, "a4-group.json"))["ambient"]
    assert {"name", "labels", "distinguished"} <= set(obj)
    assert lattice_from_obj(obj).gram == k3_lattice().gram


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


def _round_trip(to_obj, from_obj, x):
    text = dumps_canonical(to_obj(x))
    assert dumps_canonical(loads(text)) == text
    return from_obj(loads(text))


def test_seeded_groups_and_projectors_survive_the_round_trip():
    # the bench input groups and the A_4 projectors, each base-changed by
    # seeded unimodular U: gram U G U^T, generators U g U^-1, projectors
    # U E U^-1
    rng = random.Random(29)
    names = ("a4", "nikulin-involution", "model-prime-3", "coxeter",
             "rotation12")
    groups = [group_from_obj(read_json_file(os.path.join(
        INPUTS, name + "-group.json"))) for name in names]
    projectors = isotypic_from_obj(read_json_file(os.path.join(
        INPUTS, "a4-isotypic.json")))
    for k in range(2 * len(names)):
        G = groups[k % len(names)]
        U = random_unimodular(rng, 22, 66)
        Ui = to_int_matrix(inverse(U))
        gram = mat_mul(mat_mul(U, G.ambient.gram), transpose(U))
        gens = [mat_mul(mat_mul(U, g), Ui) for g in G.generators]
        skewed = IsometryGroup(Lattice(gram), gens)
        back = _round_trip(group_to_obj, group_from_obj, skewed)
        assert back.ambient.gram == gram
        assert back.generators == gens
        P = [mat_mul(mat_mul(U, E), Ui) for E in projectors]
        assert _round_trip(isotypic_to_obj, isotypic_from_obj, P) == P
