"""Shared test settings: one hypothesis profile for the whole suite.

Examples are derived from each test's name, not drawn at random, and no
example database is kept, so every run checks the same cases. Hypothesis
still caches the constants it collects from the source in its storage
directory; that directory is a temporary one, removed when the run ends, so
a test run writes nothing into the tree.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_storage.name)
