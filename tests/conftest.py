"""Hypothesis profiles, and the tolerances that inference and training are held to.

Select a profile with the HYPOTHESIS_PROFILE environment variable: `ci`
derandomizes the property tests for CI runs; without it, hypothesis keeps
its default profile.

INFERENCE_ATOL is the absolute tolerance, on probabilities and log
probabilities, within which an inference path (both branches of
`l0_probs_many` and the `encode_prefixes` tree under them; the S0 chunk
loop under `s0_log_probs_batch` and `s0_sample_utterances`;
`compute_agents`) must match its per-row reference:
`l0_score` for L0; `s0_log_prob`, or decoding each row through
`step_logits`, for S0; and for L2 `counter_l2` in `test_rsa`, which builds
one Counter-based S1 table per replicate from the same alternatives.
Training is held to the tape, not to bits: each model's explicit loss and
gradient (`listener._l0_losses_and_grads`, `speaker._s0_losses_and_grads`)
match the tape's losses to INFERENCE_ATOL and its gradients to GRAD_RTOL
(`TestExplicitGradient` in `test_listener` and `test_speaker`).

`traced_peak` measures the tracemalloc peak of one call, which the
allocation guards (the sampler's, the density grid's and the gradient
scan's) bound.

`checkpoint_meta`, `write_checkpoint` and `read_checkpoint` build and read
checkpoint files from raw parts, without `pragref`, so the tests pin the
on-disk layout that `training.save_model` writes and `training.load_model`
reads.
"""

import json
import os
import tracemalloc

import numpy as np
from hypothesis import settings

INFERENCE_ATOL = 1e-12

# Each parameter's gradient from an explicit backward (speaker's and
# listener's _losses_and_grads) may differ from the tape's by this share of
# the tape gradient's largest entry. The two sum the same terms in other
# orders.
GRAD_RTOL = 1e-12


def traced_peak(fn, *args):
    """fn(*args) and the tracemalloc peak of that call, in bytes; numpy
    reports its array buffers to tracemalloc, so they count."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
