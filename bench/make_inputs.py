"""Write the benchmark's base inputs and golden scenario reports.

Run once from the repository root, at the commit whose reports are the
reference:

    PYTHONPATH=src python3 bench/make_inputs.py

The base inputs are the group and lattice files the skewed-inputs
workload conjugates by a seeded unimodular matrix. The golden reports are
the structured `k3lat scenario` output of every scenario the benchmark
runs; any later byte difference counts as a failed check. The expected
verdicts in inputs/answers.json are written by hand and are not produced
here.
"""

import os
import subprocess
import sys

from k3lat import serialize
from k3lat.matrix import mat_mul
from k3lat.realize import build_coxeter_model
from k3lat.standard import k3_lattice, reflection, root_lattice

from run import FAMILY_SWEEP, GOLDEN, GROUP_ACTIONS, INPUTS



def _k3lat(*args):
    return subprocess.run([sys.executable, "-m", "k3lat.cli", "--format",
                           "structured", *args], check=True,
                          capture_output=True, text=True).stdout


def _order12_rotation():
    """u2 twist (order 4 on the first two hyperbolic planes) times an
    order-3 rotation in an A2(-1) plane of the first E8(-1) block."""
    k3 = k3_lattice()
    twist = [[0] * 22 for _ in range(22)]
    twist[0][2] = twist[1][3] = 1
    twist[2][0] = twist[3][1] = -1
    for i in range(4, 22):
        twist[i][i] = 1
    r1, r2 = [0] * 22, [0] * 22
    r1[6] = r2[8] = 1
    c3 = mat_mul(reflection(k3.gram, r1), reflection(k3.gram, r2))
    return {"ambient": {"rank": 22, "gram": k3.gram},
            "generators": [mat_mul(twist, c3)]}


def main():
    for args in (["a4"], ["nikulin-involution"], ["prime-p", "--p", "3"]):
        _k3lat("example", *args, "--out", INPUTS)
    coxeter = build_coxeter_model().group
    serialize.write_json_file(os.path.join(INPUTS, "coxeter-group.json"),
                              serialize.group_to_obj(coxeter))
    serialize.write_json_file(os.path.join(INPUTS, "rotation12-group.json"),
                              _order12_rotation())
    e8 = root_lattice("E", 8, -1)
    serialize.write_json_file(os.path.join(INPUTS, "e8-minus-1.json"),
                              {"rank": 8, "gram": e8.gram})
    for name in FAMILY_SWEEP + GROUP_ACTIONS:
        with open(os.path.join(GOLDEN, name + ".json"), "w") as fh:
            fh.write(_k3lat("scenario", name))


if __name__ == "__main__":
    main()
