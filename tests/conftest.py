"""Hypothesis profiles, and the tolerance the inference paths are held to.

Select a profile with the HYPOTHESIS_PROFILE environment variable: `ci`
derandomizes the property tests for CI runs; without it, hypothesis keeps
its default profile.

INFERENCE_ATOL is the absolute tolerance, on probabilities and log
probabilities, within which an inference path (both branches of
`l0_probs_many` and the `encode_prefixes` tree under them,
`s0_log_probs_batch`, `s0_sample_batch`, `compute_agents`) must match its
per-row reference: `l0_score` for L0; `s0_log_prob`, or decoding each row
through `step_logits`, for S0; and for L2 `counter_l2` in `test_rsa`, which
builds one Counter-based S1 table per replicate from the same alternatives.
Training's gradient path is held to bit identity instead.

`checkpoint_meta`, `write_checkpoint` and `read_checkpoint` build and read
checkpoint files from raw parts, without `pragref`, so the tests pin the
on-disk layout that `training.save_model` writes and `training.load_model`
reads.
"""

import json
import os

import numpy as np
from hypothesis import settings

INFERENCE_ATOL = 1e-12


def checkpoint_meta(arrays: dict, config: dict) -> dict:
    """The `__meta__` record of a checkpoint holding `arrays` and `config`."""
    return {"format_version": 1, "arrays": {k: list(v.shape) for k, v in arrays.items()},
            "config": config}


def write_checkpoint(path, arrays: dict, meta) -> None:
    """An npz archive of `arrays`, plus `meta` as a JSON string under `__meta__`
    unless meta is None; the file lands at exactly `path`."""
    extra = {} if meta is None else {"__meta__": np.array(json.dumps(meta))}
    with open(path, "wb") as fh:
        np.savez(fh, **extra, **arrays)


def read_checkpoint(path) -> tuple[dict, dict]:
    """The arrays and the `__meta__` record of a checkpoint file."""
    with np.load(path, allow_pickle=False) as npz:
        meta = json.loads(str(npz["__meta__"]))
        return {k: npz[k] for k in npz.files if k != "__meta__"}, meta

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
