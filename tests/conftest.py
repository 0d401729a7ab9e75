"""Hypothesis profiles, and the tolerance the inference paths are held to.

Select a profile with the HYPOTHESIS_PROFILE environment variable: `ci`
derandomizes the property tests for CI runs; without it, hypothesis keeps
its default profile.

INFERENCE_ATOL is the absolute tolerance, on probabilities and log
probabilities, within which an inference path (both branches of
`l0_probs_many`, `s0_sample_batch`, `compute_agents`) must match its per-row
reference: `l0_score` for L0, and for L2 `counter_l2` in `test_rsa`, which
builds one Counter-based S1 table per replicate from the same alternatives.
Training's gradient path is held to bit identity instead.
"""

import os

from hypothesis import settings

INFERENCE_ATOL = 1e-12

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
