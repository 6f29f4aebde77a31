"""Test-wide hypothesis settings.

Examples are derandomized, so every run draws the same ones, and there is no
example database. Hypothesis still caches the constants it reads from the
source; that cache goes to a temporary directory removed at exit, so test runs
write nothing into the tree.
"""

import tempfile

from hypothesis import configuration, settings

_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_HOME.name)

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
