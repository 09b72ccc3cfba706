"""Shared test state: each family lattice and the A_4 example are built
once per test run.

Building the four families takes several seconds, so the test modules and
the pin re-derivers in oracles.py share one cached nikulin.family.
"""

import functools

from k3lat import nikulin, realize

family = functools.cache(nikulin.family)
a4_example = functools.cache(realize.build_a4_example)
