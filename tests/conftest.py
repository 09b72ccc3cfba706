"""Shared test state: each family lattice and the A_4 example are built
once per test run, and run_optimized runs a script under python -O.

Building the four families takes several seconds, so the test modules and
the pin re-derivers in oracles.py share one cached nikulin.family.
"""

import functools
import os
import subprocess
import sys

from k3lat import nikulin, realize

family = functools.cache(nikulin.family)
a4_example = functools.cache(realize.build_a4_example)

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")


def run_optimized(code, timeout=60):
    """The finished `python -O -c code` on this checkout's k3lat: -O
    strips asserts, so a check that still fires there is not one."""
    return subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=SRC))
