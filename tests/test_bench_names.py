"""The per-layer metric names of BENCHMARK.json resolve against the
functions the trace wraps, so moving or renaming a named function fails
here rather than as a KeyError of `bench/run.py --trace 1`."""

import importlib
import json
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "bench"))

import run  # noqa: E402
import traced  # noqa: E402


def test_every_per_layer_name_resolves_to_a_traced_function():
    functions = {}
    for m in traced.MODULES:
        mod = importlib.import_module("%s.%s" % (traced.PACKAGE, m))
        for key, _, _, _ in traced._targets(mod):
            functions[key] = {"calls": 0}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    missing = []
    for name in names:
        if name.startswith("trace."):
            continue
        try:
            run._layer_value(name, functions)
        except KeyError:
            missing.append(name)
    assert not missing, missing
