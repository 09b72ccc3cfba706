"""Shared test state: each family lattice is built once per test run.

Building L_7 alone takes tens of seconds, so the test modules and the pin
re-derivers in oracles.py share one cached nikulin.family.
"""

import functools

from k3lat import nikulin

family = functools.cache(nikulin.family)
