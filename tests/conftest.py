"""Shared test state: each family lattice is built once per test run.

Building the four families takes several seconds, so the test modules and
the pin re-derivers in oracles.py share one cached nikulin.family.
"""

import functools

from k3lat import nikulin

family = functools.cache(nikulin.family)
