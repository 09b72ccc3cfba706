import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from k3lat import serialize
from k3lat.cli import main
from k3lat.scenarios import SCENARIOS
from k3lat.standard import hyperbolic_plane, k3_lattice


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_scenario_defect_table(capsys):
    code, out, _ = _run(capsys, ["scenario", "defect-table"])
    assert code == 0
    assert "PASS" in out and "failed: 0" in out


def test_scenario_dehn_twist_structured(capsys):
    code, out, _ = _run(capsys, ["--format", "structured",
                                 "scenario", "dehn-twist"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "k3lat/1"
    assert doc["kind"] == "scenario"
    assert doc["scenario"] == "dehn-twist"
    assert all(c["status"] == "pass" for c in doc["checks"])
    for c in doc["checks"]:
        assert set(c) >= {"name", "status", "expected", "computed", "anchor"}


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "bench", "golden")


@pytest.mark.parametrize("name", sorted(
    f[:-len(".json")] for f in os.listdir(GOLDEN) if f.endswith(".json")))
def test_structured_scenario_matches_its_golden_bytes(capsys, name):
    code, out, _ = _run(capsys, ["--format", "structured", "scenario", name])
    assert code == 0
    with open(os.path.join(GOLDEN, name + ".json"), "rb") as f:
        assert out.encode() == f.read()


def test_structured_output_is_deterministic(capsys):
    code1, out1, _ = _run(capsys, ["--format", "structured",
                                   "scenario", "defect-table"])
    code2, out2, _ = _run(capsys, ["--format", "structured",
                                   "scenario", "defect-table"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_unknown_scenario_fails_with_listing(capsys):
    code, _, err = _run(capsys, ["scenario", "bogus"])
    assert code == 2
    assert "unknown scenario" in err
    for name in SCENARIOS:
        assert name in err


def test_scenario_names_are_exactly_the_published_set():
    assert sorted(SCENARIOS) == sorted([
        "a4-example", "nikulin-involution",
        "nikulin-family-p2", "nikulin-family-p3",
        "nikulin-family-p5", "nikulin-family-p7",
        "defect-table", "dehn-twist", "genus-check",
        "model-prime-3", "model-prime-5", "model-prime-7",
    ])


def test_compute_defect(capsys):
    code, out, _ = _run(capsys, ["compute", "defect", "--p", "7", "--q", "6"])
    assert code == 0
    assert out.strip().splitlines()[-1] == "10"
    code, out, _ = _run(capsys, ["compute", "defect", "--p", "3", "--q", "1"])
    assert code == 0
    assert out.strip().splitlines()[-1] == "-2/3"


def test_compute_without_its_inputs_exits_2(capsys):
    # a missing option is a usage error naming it, never a traceback
    for argv, message in (
            (["defect", "--q", "1"], "compute defect requires --p and --q"),
            (["signature"], "compute signature requires --lattice"),
            (["disc"], "compute disc requires --lattice"),
            (["enumerate", "--norm", "-2"],
             "compute enumerate requires --lattice")):
        code, out, err = _run(capsys, ["compute"] + argv)
        assert (code, out, err) == (2, "", "error: %s\n" % message), argv


def test_unknown_compute_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_compute_signature_and_disc(tmp_path, capsys):
    path = str(tmp_path / "k3.json")
    serialize.write_json_file(path, serialize.lattice_to_obj(k3_lattice()))
    code, out, _ = _run(capsys, ["compute", "signature", "--lattice", path])
    assert code == 0
    assert "3 19 0" in out
    code, out, _ = _run(capsys, ["compute", "disc", "--lattice", path])
    assert code == 0

    u2 = str(tmp_path / "u2.json")
    serialize.write_json_file(
        u2, serialize.lattice_to_obj(hyperbolic_plane(2)))
    code, out, _ = _run(capsys, ["compute", "disc", "--lattice", u2])
    assert code == 0
    assert "2 2" in out


def test_parse_error_exits_2(tmp_path, capsys):
    path = str(tmp_path / "broken.json")
    with open(path, "w") as fh:
        fh.write('{"rank": 2,,}')
    code, _, err = _run(capsys, ["compute", "signature", "--lattice", path])
    assert code == 2
    assert "line" in err and "column" in err


def test_missing_file_exits_2(capsys):
    code, _, err = _run(capsys, ["compute", "signature", "--lattice", "/no/such.json"])
    assert code == 2
    assert "cannot read" in err


def test_dichotomy_off_the_k3_signature_exits_2(tmp_path, capsys):
    # the order-3 rotation of A_2: the coinvariant analysis refuses the
    # lattice before the fixed-lattice hypothesis is read off it
    path = str(tmp_path / "a2.json")
    with open(path, "w") as fh:
        json.dump({"ambient": {"rank": 2, "gram": [[2, -1], [-1, 2]]},
                   "generators": [[[0, 1], [-1, -1]]]}, fh)
    code, _, err = _run(capsys, ["dichotomy", "--group", path])
    assert code == 2
    assert "specific to the K3 lattice signature" in err


def test_decide_needs_group(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decide"])
    assert exc.value.code == 2
    assert "--group" in capsys.readouterr().err


def test_decide_noncyclic_group_without_projectors(tmp_path, capsys):
    # C4 x C2 needs no projector data: its rank-1 L_G holds a root
    from k3lat.groups import IsometryGroup
    from k3lat.standard import reflection
    k3 = k3_lattice()
    M = [[0] * 22 for _ in range(22)]
    M[0][2] = 1
    M[1][3] = 1
    M[2][0] = -1
    M[3][1] = -1
    for i in range(4, 22):
        M[i][i] = 1
    root = [0] * 22
    root[6] = 1
    G = IsometryGroup(k3, [M, reflection(k3.gram, root)])
    path = str(tmp_path / "grp.json")
    serialize.write_json_file(path, serialize.group_to_obj(G))
    code, out, _ = _run(capsys, ["--format", "structured", "decide",
                                 "--group", path])
    assert code == 0
    doc = json.loads(out)
    assert (doc["metric"], doc["L_G_rank"]) == ("no", 1)


def test_decide_checks_projectors_of_a_pointwise_group(tmp_path, capsys):
    # the involution fixes a positive 3-plane pointwise; supplied
    # projectors still meet the isotypic components, so I/2 + I/2 is
    # refused as for any other group
    group = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                         "inputs", "nikulin-involution-group.json")
    half = [[Fraction(int(i == j), 2) for j in range(22)] for i in range(22)]
    path = str(tmp_path / "half.json")
    serialize.write_json_file(path, serialize.isotypic_to_obj([half, half]))
    code, _, err = _run(capsys, ["decide", "--group", group,
                                 "--isotypic", path])
    assert code == 2
    assert "projector 0 is not idempotent" in err


def test_example_emission_round_trip(tmp_path, capsys):
    out_dir = str(tmp_path)
    code, out, _ = _run(capsys, ["example", "nikulin-involution",
                                 "--out", out_dir])
    assert code == 0
    group_path = str(tmp_path / "nikulin-involution-group.json")
    code2, out2, _ = _run(capsys, ["decide", "--group", group_path])
    assert code2 == 0
    assert "yes" in out2


def test_bad_budget_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("K3R_BUDGET", "soon")
    code, _, err = _run(capsys, ["compute", "defect", "--p", "3", "--q", "1"])
    assert code == 2
    assert "K3R_BUDGET" in err


def test_budget_exhaustion_is_inconclusive(capsys):
    group = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                         "inputs", "nikulin-involution-group.json")
    argv = ["--budget", "1", "decide", "--group", group]
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    assert "status: inconclusive" in out and "stage: enumeration" in out
    assert "nodes: 2" in out and "budget: 1" in out
    code1, out1, _ = _run(capsys, ["--format", "structured"] + argv)
    code2, out2, _ = _run(capsys, ["--format", "structured"] + argv)
    assert code1 == code2 == 0 and out1 == out2
    doc = json.loads(out1)
    assert doc["status"] == "inconclusive" and doc["verb"] == "decide"
    assert (doc["stage"], doc["nodes"], doc["budget"]) == \
        ("enumeration", 2, 1)


def test_family_scenarios_at_small_budgets_pass_or_are_inconclusive(capsys):
    # each budget runs out in one fixed stage (None: the run completes);
    # an exhausted search reads as inconclusive, never as a failed check.
    # The aut search fills its slots in at most 102 nodes, fewer than any
    # pool enumeration spends, so enumeration is the stage that runs out
    # budget 0 is a budget like any other, not the library default
    stages = [
        ("nikulin-family-p2", {0: "enumeration", 10: "enumeration",
                               1000: None, 3000: None, 10000: None}),
        ("nikulin-family-p3", {0: "enumeration", 10: "enumeration",
                               1000: "enumeration", 3000: None, 10000: None,
                               100000: None}),
        # discriminant forms are decided by q-value counts, with no budget
        ("genus-check", {100: None}),
    ]
    for name, by_budget in stages:
        for budget, stage in by_budget.items():
            code, out, err = _run(capsys, [
                "--format", "structured", "--budget", str(budget),
                "scenario", name])
            assert code == 0 and err == "", (name, budget, err)
            doc = json.loads(out)
            if stage is None:
                assert "status" not in doc, (name, budget, doc)
                assert all(c["status"] == "pass" for c in doc["checks"])
                continue
            assert (doc["status"], doc["stage"], doc["budget"],
                    doc["nodes"]) == ("inconclusive", stage, budget,
                                      budget + 1)


def test_orientation_check_reports_the_computed_value(capsys, monkeypatch):
    # the builders record what the O^+ test returns; a false value must
    # surface as a failed check naming both values, not as a crash
    monkeypatch.setattr("k3lat.realize.spinor_plus_membership",
                        lambda ambient, g: False)
    code, out, _ = _run(capsys, ["--format", "structured",
                                 "scenario", "a4-example"])
    assert code == 1
    doc = json.loads(out)
    failed = [c for c in doc["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == ["generators-orientation"]
    assert failed[0]["expected"] is True and failed[0]["computed"] is False


def _env():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    path = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return dict(os.environ, PYTHONPATH=path)


def _main_in_subprocess(argv, optimize, prelude=""):
    """Run prelude, then exit with k3lat.cli.main(argv), in a fresh
    interpreter; under python -O when optimize is set. Output is bytes."""
    script = ("import sys\n%s\nfrom k3lat.cli import main\n"
              "sys.exit(main(%r))\n" % (prelude, argv))
    flags = ["-O"] if optimize else []
    return subprocess.run([sys.executable] + flags + ["-c", script],
                          capture_output=True, timeout=300, env=_env())


# one scenario per builder whose report fields the rows compare
@pytest.mark.parametrize("scenario", [
    "a4-example", "nikulin-involution", "nikulin-family-p3",
    "model-prime-3", "dehn-twist", "defect-table", "genus-check"])
def test_structured_report_is_unchanged_under_python_O(capsys, scenario):
    argv = ["--format", "structured", "scenario", scenario]
    code, plain, _ = _run(capsys, argv)
    proc = _main_in_subprocess(argv, optimize=True)
    assert code == proc.returncode == 0
    assert proc.stdout == plain.encode()


# a corrupted computed value per builder, and the one row that reads it
CORRUPTIONS = {
    "a4-example": ("perpendicular-generators", """
import k3lat.realize as r
real = r.enumerate_vectors
r.enumerate_vectors = lambda lat, norm: real(lat, norm)[:-1]
"""),
    "nikulin-involution": ("image-direct-summand", """
import k3lat.realize as r
real = r.regular_summand_discriminant_check
def fake(*args):
    rep = real(*args)
    rep["image_is_direct_summand"] = False
    return rep
r.regular_summand_discriminant_check = fake
"""),
    # a root of L_3 where the enumeration of its (-2)-vectors finds none
    "nikulin-family-p3": ("L-root-free", """
import k3lat.nikulin as n
real = n.enumerate_vectors
def fake(gram, norm, budget=None):
    return real(gram, norm, budget) or [[1] + [0] * (len(gram) - 1)]
n.enumerate_vectors = fake
"""),
    "model-prime-3": ("dichotomy-kind", """
import k3lat.realize as r
real = r.classify_dichotomy
def fake(*args, **kwargs):
    rep = real(*args, **kwargs)
    rep.kind = "Coxeter"
    return rep
r.classify_dichotomy = fake
"""),
    "dehn-twist": ("witness", """
import k3lat.realize as r
real = r.decide_metric
def fake(group):
    verdict, wit, res = real(group)
    return verdict, [2 * x for x in wit], res
r.decide_metric = fake
"""),
}


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
@pytest.mark.parametrize("scenario", sorted(CORRUPTIONS))
def test_corrupted_value_fails_exactly_its_row(scenario, optimize):
    name, prelude = CORRUPTIONS[scenario]
    proc = _main_in_subprocess(["--format", "structured", "scenario",
                                scenario], optimize, prelude)
    assert proc.returncode == 1, proc.stderr
    doc = json.loads(proc.stdout)
    assert [c["name"] for c in doc["checks"]
            if c["status"] == "fail"] == [name]


def test_corrupted_glue_pin_fails_by_name_under_python_O():
    # a glue image that breaks the anti-isometry is refused by the
    # identity it breaks, not by a stripped assert or a later remainder
    prelude = ("import k3lat.realize as r\n"
               "r.MODEL_GLUE_IMAGES[3][0] = (0, 0, 0, 1)\n")
    proc = _main_in_subprocess(["scenario", "model-prime-3"], True, prelude)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == b""
    assert proc.stderr == (b"error: internal check failed: glue map: "
                           b"b(images of x_0, x_1) = 1/3 is not "
                           b"-b(x_0, x_1) = 2/3 mod 1\n")


def test_aut_search_missing_an_element_fails_by_name_under_python_O():
    # a search that drops one filling leaves a set that is not closed
    # under products, which the closure check refuses with asserts off
    prelude = """
import k3lat.nikulin as n
real = n._fill_slots
def fake(*args, **kwargs):
    found, nodes = real(*args, **kwargs)
    return found[:-1], nodes
n._fill_slots = fake
"""
    proc = _main_in_subprocess(["scenario", "nikulin-family-p3"], True,
                               prelude)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == b""
    assert proc.stderr == (b"error: internal check failed: the isometries "
                           b"trivial on disc(L_p) must form a group\n")


def test_example_exits_1_on_a_failed_check(tmp_path):
    _, prelude = CORRUPTIONS["nikulin-involution"]
    proc = _main_in_subprocess(["example", "nikulin-involution", "--out",
                                str(tmp_path)], False, prelude)
    assert proc.returncode == 1
    assert b"'image_is_direct_summand': False" in proc.stdout
    assert proc.stderr.startswith(b"error: check image-direct-summand failed")


def test_internal_assert_is_not_reported_as_bad_input(capsys, monkeypatch):
    # a corrupted pin trips a check that guards a builder step: exit 1
    # naming the claim, the same under python -O
    from k3lat import realize
    pin = realize.A3A3_EMBEDDING
    first, second = pin["complement"]
    monkeypatch.setitem(pin, "complement", [[2 * x for x in first], second])
    code, out, err = _run(capsys, ["scenario", "a4-example"])
    assert (code, out) == (1, "")
    assert err == ("error: internal check failed: complement rows must "
                   "span the kernel\n")
    monkeypatch.undo()
    a, b, c = pin["chain1"]
    monkeypatch.setitem(pin, "chain1", [b, a, c])
    code, out, err = _run(capsys, ["scenario", "a4-example"])
    assert (code, out) == (1, "")
    assert err == ("error: internal check failed: the chain1 rows must "
                   "have the A_3 Gram in E8\n")
    proc = _main_in_subprocess(["scenario", "a4-example"], True, """
from k3lat import realize
a, b, c = realize.A3A3_EMBEDDING["chain1"]
realize.A3A3_EMBEDDING["chain1"] = [b, a, c]
""")
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == err.encode()
    # an exactness check raises ArithmeticError, reported the same way
    monkeypatch.undo()
    from k3lat.lattice import express_in_basis
    monkeypatch.setattr(realize, "build_a4_example",
                        lambda: express_in_basis([[1]], [[2]],
                                                 "1/2 must be an integer"))
    code, out, err = _run(capsys, ["scenario", "a4-example"])
    assert (code, out) == (1, "")
    assert err == "error: internal check failed: 1/2 must be an integer\n"


# modules a verb must not load when it does not call them
LAZY = ("dataclasses", "fractions", "json", "k3lat.scenarios",
        "k3lat.serialize", "k3lat.matrix", "k3lat.lattice", "k3lat.standard",
        "k3lat.shortvec", "k3lat.realize", "k3lat.nikulin",
        "k3lat.gsignature", "k3lat.groups", "k3lat.polys")
# what reading a lattice file loads
LATTICE_FILE = {"json", "fractions", "k3lat.serialize", "k3lat.matrix",
                "k3lat.lattice"}
# the layers under the builders of realize and nikulin
LIBRARY = {"fractions", "k3lat.matrix", "k3lat.lattice", "k3lat.standard",
           "k3lat.shortvec"}
REALIZE = LIBRARY | {"k3lat.realize", "k3lat.groups", "k3lat.polys"}


def _loaded_by(argv):
    """The LAZY modules that `import k3lat.cli` and then, when argv is
    given, main(argv) load into a fresh interpreter."""
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "from k3lat.cli import main\n"
              "code = main(%r) if %r else 0\n"
              "sys.stderr.write(' '.join(m for m in %r\n"
              "                          if m in set(sys.modules) - before))\n"
              "sys.exit(code)\n" % (argv, argv, LAZY))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120,
                          env=_env())
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def test_scenarios_leave_the_front_end_unloaded():
    # under `python -m k3lat.cli` the front end runs as __main__, so a
    # scenarios module importing k3lat.cli would run cli.py a second time
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, k3lat.scenarios\n"
                               "sys.exit('k3lat.cli' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env=_env())
    assert proc.returncode == 0, proc.stderr


def test_verbs_load_only_the_modules_they_call():
    inputs = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                          "inputs")
    # the front end alone: no library module, no fractions, no json
    assert _loaded_by(None) == set()
    assert _loaded_by(["compute", "defect", "--p", "7", "--q", "6"]) == \
        {"k3lat.gsignature", "fractions"}
    e8 = os.path.join(inputs, "e8-minus-1.json")
    assert _loaded_by(["compute", "signature", "--lattice", e8]) == \
        LATTICE_FILE
    assert _loaded_by(["compute", "enumerate", "--lattice", e8,
                       "--norm", "-2"]) == \
        LATTICE_FILE | {"k3lat.shortvec", "k3lat.standard"}
    # the aut search of these two closes its result in groups
    for family in ("nikulin-family-p2", "nikulin-family-p3"):
        assert _loaded_by(["scenario", family]) == \
            LIBRARY | {"k3lat.scenarios", "k3lat.nikulin", "k3lat.groups",
                       "k3lat.polys"}
    assert _loaded_by(["scenario", "defect-table"]) == \
        {"k3lat.scenarios", "k3lat.gsignature", "fractions"}
    # a structured report costs json and serialize, not the lattice layer
    assert _loaded_by(["--format", "structured", "scenario",
                       "defect-table"]) == \
        {"k3lat.scenarios", "k3lat.gsignature", "fractions", "json",
         "k3lat.serialize"}
    involution = os.path.join(inputs, "nikulin-involution-group.json")
    assert _loaded_by(["decide", "--group", involution]) == \
        REALIZE | {"json", "k3lat.serialize"}
    model = os.path.join(inputs, "model-prime-3-group.json")
    assert _loaded_by(["dichotomy", "--group", model]) == \
        REALIZE | {"json", "k3lat.serialize"}
