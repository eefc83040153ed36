"""Suite-wide settings: hypothesis draws the same examples on every run.

derandomize fixes the examples, and no example database is read or kept,
so a run does not depend on the runs before it.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
