"""Span tracing of `pragref` from outside the program.

`Tracer.install` replaces the public functions of every `pragref` module, a
few named methods, and every other module's imported reference to them, with
wrappers that record a span (name, start, end, parent) and per-layer counts.
Spans stay in memory until `write_spans`. `uninstall` puts the originals back.
Only the traced process is affected; the program's files are not touched.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("colorspace", "corpus", "training", "nnsubstrate", "listener",
          "speaker", "rsa", "metrics")

# Methods traced besides each module's public functions: (module, class, method).
METHODS = (
    ("nnsubstrate", "Tensor", "backward"),
    ("nnsubstrate", "Adam", "step"),
    ("nnsubstrate", "Adadelta", "step"),
    ("listener", "ListenerModel", "scores"),
    ("speaker", "SpeakerModel", "encode"),
    ("speaker", "SpeakerModel", "step_logits"),
    ("metrics", "BaseSpeakerSampler", "sample_texts"),
    ("metrics", "PragmaticSpeakerSampler", "sample_texts"),
)

# Generators: counted, not timed, since their frames outlive each call.
GENERATORS = {"training.same_length_batches"}


class Tracer:
    """Spans and counts of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._open: list[tuple[int, str]] = []
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def inside(self, name: str) -> bool:
        return any(n == name for _, n in self._open)

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self._open[-1][1] if self._open else None

    def _timed(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1][0] if self._open else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self._open.append((index, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = (name, start, end, parent)
                self.counts[name + ".calls"] += 1
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return wrapper

    # -- installing --------------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {layer: sys.modules[f"pragref.{layer}"] for layer in LAYERS}
        originals = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (f"{layer}.{attr}", obj)
        wrapped = {}
        for key, (name, fn) in originals.items():
            if name in GENERATORS:
                wrapped[key] = _counted_batches(self, fn)
            else:
                wrapped[key] = self._timed(name, fn, AFTER.get(name))
        # Rebind every module-level reference, including `from .x import f`.
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._replace(mod, attr, wrapped[id(obj)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            name = f"{layer}.{cls_name}.{meth}"
            self._replace(cls, meth, self._timed(name, cls.__dict__[meth], AFTER.get(name)))
        tensor = modules["nnsubstrate"].Tensor
        init = tensor.__dict__["__init__"]

        def counted_init(obj, *args, **kwargs):
            self.counts["nnsubstrate.tensors_created"] += 1
            init(obj, *args, **kwargs)

        self._replace(tensor, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- summaries ---------------------------------------------------------------

    def busy(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds per layer not covered by a child span, over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name.split(".", 1)[0]] += end - start - covered
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


# Callers whose batches are training batches, for `training.batch_fill`.
TRAINING_LOOPS = ("listener.train_l0", "speaker.train_s0")


def _counted_batches(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(lengths, order, batch_size):
        training = tracer.current() in TRAINING_LOOPS
        for batch in fn(lengths, order, batch_size):
            tracer.counts["training.same_length_batches.batches"] += 1
            if training:
                tracer.counts["training.train_rows"] += len(batch)
                tracer.counts["training.train_capacity"] += batch_size
            yield batch
    return wrapper


def _after_l0_probs_many(tracer, args, kwargs, result):
    tracer.counts["listener.l0_probs_many.rows"] += len(result)
    if tracer.inside("rsa.compute_agents"):
        tracer.counts["rsa.l0_rows"] += len(result)


def _after_s0_log_probs_batch(tracer, args, kwargs, result):
    tracer.counts["speaker.s0_log_probs_batch.rows"] += len(result)


def _after_s0_sample_batch(tracer, args, kwargs, result):
    eos = args[0].vocab.eos_id
    tracer.counts["speaker.s0_sample_batch.tokens"] += sum(len(ids) for ids, _ in result)
    tracer.counts["speaker.s0_sample_batch.empty_rows"] += sum(
        ids == (eos,) for ids, _ in result)


AFTER = {
    "listener.l0_probs_many": _after_l0_probs_many,
    "speaker.s0_log_probs_batch": _after_s0_log_probs_batch,
    "speaker.s0_sample_batch": _after_s0_sample_batch,
}


# Per-layer metrics: (name, unit, better). Counts and seconds are per round.
_SPAN_SECONDS = (
    "colorspace.sample_contexts", "colorspace.ciede2000_lab",
    "colorspace.fourier_features_array", "corpus.template_emission",
    "corpus.load_raw", "corpus.filter_trials", "corpus.preprocess",
    "nnsubstrate.Tensor.backward", "nnsubstrate.Adadelta.step",
    "nnsubstrate.Adam.step", "nnsubstrate.clip_global_norm",
    "nnsubstrate.lstm_step", "nnsubstrate.quad_scores", "nnsubstrate.softmax_xent",
    "listener.evaluate_l0", "speaker.dev_token_perplexity", "rsa.compute_agents",
    "rsa.neural_l1", "rsa.neural_l2", "metrics.evaluate_probs",
    "metrics.BaseSpeakerSampler.sample_texts",
    "metrics.PragmaticSpeakerSampler.sample_texts", "metrics.behavior_metrics",
)
_SPAN_CALLS = (
    "colorspace.ciede2000_lab", "colorspace.fourier_features_array",
    "corpus.template_emission", "corpus.nearest_basic_term", "corpus.preprocess",
    "nnsubstrate.lstm_step", "listener.l0_probs_many", "speaker.s0_sample_batch",
    "speaker.s0_log_probs_batch",
)

PER_LAYER = (
    [(f"{n}.s", "s", "lower") for n in _SPAN_SECONDS]
    + [(f"{n}.calls", "count", "lower") for n in _SPAN_CALLS]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("training.same_length_batches.batches", "count", "lower"),
        ("training.batch_fill", "ratio", "higher"),
        ("nnsubstrate.tensors_created", "count", "lower"),
        ("listener.l0_probs_many.rows_per_s", "rows/s", "higher"),
        ("speaker.s0_sample_batch.tokens_per_s", "tokens/s", "higher"),
        ("speaker.s0_sample_batch.empty_rows", "count", "lower"),
        ("speaker.s0_log_probs_batch.rows_per_s", "rows/s", "higher"),
        ("rsa.l0_rows_per_trial", "rows", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_pct", "%", "lower"),
        ("trace.spans", "count", "lower"),
    ]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int, untraced_s: float,
                  traced_s: float) -> dict[str, float]:
    """Every PER_LAYER value from one traced phase of `rounds` rounds.

    `untraced_s` and `traced_s` are the median round times of the same rounds
    run without and with tracing. A layer that a workload never calls reads 0.
    """
    busy = tracer.busy()
    self_s = tracer.self_times()
    c = tracer.counts
    out = {f"{n}.s": busy.get(n, 0.0) / rounds for n in _SPAN_SECONDS}
    out.update({f"{n}.calls": c[f"{n}.calls"] / rounds for n in _SPAN_CALLS})
    out.update({f"{layer}.self_s": self_s.get(layer, 0.0) / rounds
                for layer in LAYERS})
    out.update({
        "training.same_length_batches.batches":
            c["training.same_length_batches.batches"] / rounds,
        "training.batch_fill": _ratio(c["training.train_rows"],
                                      c["training.train_capacity"]),
        "nnsubstrate.tensors_created": c["nnsubstrate.tensors_created"] / rounds,
        "listener.l0_probs_many.rows_per_s": _ratio(
            c["listener.l0_probs_many.rows"], busy.get("listener.l0_probs_many", 0.0)),
        "speaker.s0_sample_batch.tokens_per_s": _ratio(
            c["speaker.s0_sample_batch.tokens"], busy.get("speaker.s0_sample_batch", 0.0)),
        "speaker.s0_sample_batch.empty_rows": c["speaker.s0_sample_batch.empty_rows"] / rounds,
        "speaker.s0_log_probs_batch.rows_per_s": _ratio(
            c["speaker.s0_log_probs_batch.rows"], busy.get("speaker.s0_log_probs_batch", 0.0)),
        "rsa.l0_rows_per_trial": _ratio(c["rsa.l0_rows"], c["rsa.compute_agents.calls"]),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_pct": 100.0 * _ratio(traced_s - untraced_s, untraced_s),
        "trace.spans": len(tracer.spans) / rounds,
    })
    return out
