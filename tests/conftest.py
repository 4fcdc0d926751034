"""Test-wide settings: one hypothesis profile for every property test.

Each property draws the same examples on every run (derandomize), keeps
no example database on disk, and has no deadline, since the first call of
a test may pay numpy's and scipy's warm-up.  A test still sets its own
``max_examples``.
"""

from hypothesis import settings

settings.register_profile("qspeed", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("qspeed")
