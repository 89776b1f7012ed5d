"""Hypothesis draws the same examples on every run of the same code.

``derandomize`` seeds each test's search from the test itself, and
turns off the example database, so no failure found in an earlier run
is replayed from a local ``.hypothesis`` directory either.
"""
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
