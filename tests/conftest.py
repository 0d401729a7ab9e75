"""Hypothesis profiles: `ci` derandomizes the property tests for CI runs.

Select one with the HYPOTHESIS_PROFILE environment variable; without it,
hypothesis keeps its default profile.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
