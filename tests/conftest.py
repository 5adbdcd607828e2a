"""Settings shared by the whole suite.

Hypothesis draws each property test's examples from a seed derived from
the test itself (``derandomize``), so every run of one tree tests the same
examples in about the same time, whatever ``--hypothesis-seed`` says.  The
tests' own ``@settings`` (example counts, deadlines) still apply.
"""

from hypothesis import settings

settings.register_profile("hforge", derandomize=True)
settings.load_profile("hforge")
