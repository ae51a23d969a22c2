"""Suite-wide test settings.

Hypothesis draws the same examples on every run (derandomize) and keeps no
example database, so runs are comparable. It still writes its caches (the
constants it collects from the source, Unicode tables) under `.hypothesis/`,
which is gitignored.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
