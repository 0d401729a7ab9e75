"""Shared training-loop plumbing for the two base models, and their checkpoint format.

`save_model` and `load_model` are the one way to store and restore a trained
model, and the only code that knows the file layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .corpus import Vocabulary
from .errors import MissingCheckpoint, NonFiniteDevScore, require_count
from .nnsubstrate import GRAD_CLIP, Parameter, zero_gradients

CHECKPOINT_FORMAT_VERSION = 1

# Dimensions a checkpoint records; the feature width is always FOURIER_DIM.
_DIMS = ("embed_dim", "hidden_dim")


@dataclass
class TrainConfig:
    """Knobs for one training run.

    The optimizers are fixed: ADADELTA at ADADELTA_LR for the listener, Adam
    at ADAM_LR for the speaker, each of whose step() clips the gradients to a
    global norm of GRAD_CLIP (constants of `nnsubstrate`). Epochs and batch
    size are declared defaults, not tuned, and integers of at least 1; the
    seed is an integer of at least 0.
    """

    epochs: int = 10
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        require_count("epochs", self.epochs)
        require_count("batch_size", self.batch_size)
        require_count("seed", self.seed, minimum=0)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    dev_accuracy: float | None = None
    dev_perplexity: float | None = None
    max_grad_norm: float = 0.0  # largest pre-clip global gradient norm
    clipped_steps: int = 0      # steps whose norm exceeded GRAD_CLIP


@dataclass
class TrainingReport:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1

    def best(self) -> EpochStats | None:
        for e in self.epochs:
            if e.epoch == self.best_epoch:
                return e
        return None


def same_length_batches(lengths: np.ndarray, order: np.ndarray,
                        batch_size: int):
    """Yield index arrays of equal-length rows, at most batch_size each.

    `order` fixes the shuffle; a stable sort on length inside that order keeps
    batching deterministic. A batch_size below 1 raises ValueError.
    """
    require_count("batch_size", batch_size)
    by_len = order[np.argsort(lengths[order], kind="stable")]
    start = 0
    n = len(by_len)
    while start < n:
        length = lengths[by_len[start]]
        end = start
        while end < n and lengths[by_len[end]] == length and end - start < batch_size:
            end += 1
        yield by_len[start:end]
        start = end


def fit(optimizer, lengths: np.ndarray, batch_grad, dev,
        config: TrainConfig) -> TrainingReport:
    """Minibatch training; optimizer.params are left holding the best-dev epoch.

    batch_grad(rows) takes equal-length rows, sets each parameter's .grad to
    the gradient of their summed loss over a normalizer (rows or tokens), and
    returns the per-row losses (an ndarray) and the normalizer; then
    optimizer.step() clips, updates and returns the pre-clip global norm.
    dev() gives a key to maximize and the EpochStats dev fields. A key that
    is not finite raises NonFiniteDevScore naming its epoch, and leaves the
    parameters as that epoch trained them. Any finite key beats -inf, so
    epoch 1 always takes the first snapshot.
    """
    params = optimizer.params
    rng = np.random.default_rng(config.seed)
    report = TrainingReport()
    best_key = -np.inf
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(lengths))
        total_loss = 0.0
        total_count = 0
        max_grad_norm = 0.0
        clipped = 0
        for batch in same_length_batches(lengths, order, config.batch_size):
            losses, normalizer = batch_grad(batch)
            total_loss += float(losses.sum())
            total_count += normalizer
            grad_norm = optimizer.step()
            max_grad_norm = max(max_grad_norm, float(grad_norm))
            clipped += int(grad_norm > GRAD_CLIP)
            zero_gradients(params)
        key, dev_stats = dev()
        if not np.isfinite(key):
            raise NonFiniteDevScore(f"epoch {epoch} gave the dev score {key}, which is "
                                    f"not finite")
        report.epochs.append(EpochStats(epoch, total_loss / total_count, **dev_stats,
                                        max_grad_norm=max_grad_norm, clipped_steps=clipped))
        if key > best_key:
            best_key = key
            best = snapshot_params(params)
            report.best_epoch = epoch
    restore_params(params, best)
    return report


def snapshot_params(params: list[Parameter]) -> dict[str, np.ndarray]:
    return {p.name: p.data.copy() for p in params}


def restore_params(params: list[Parameter], snapshot: dict[str, np.ndarray]) -> None:
    """Copy name-keyed arrays into params' own arrays (np.copyto), so each
    p.data keeps its identity and place in memory.

    Names and shapes must match and values be finite; every check runs
    before the first copy, so a rejected snapshot leaves every parameter as
    it was.
    """
    names = {p.name for p in params}
    if set(snapshot) != names:
        raise ValueError(f"missing parameters {sorted(names - set(snapshot))}, "
                         f"unexpected {sorted(set(snapshot) - names)}")
    for p in params:
        if snapshot[p.name].shape != p.data.shape:
            raise ValueError(f"parameter {p.name!r} has shape {snapshot[p.name].shape}, "
                             f"expected {p.data.shape}")
        if not np.all(np.isfinite(snapshot[p.name])):
            raise ValueError(f"parameter {p.name!r} has non-finite values")
    for p in params:
        np.copyto(p.data, snapshot[p.name])


def save_model(model, path) -> None:
    """Write a base model's parameters, vocabulary and dimensions to exactly `path`.

    The file is an npz archive: each parameter's float64 array under its
    name, and under `__meta__` the JSON string of {"format_version":
    CHECKPOINT_FORMAT_VERSION, "arrays": {name: shape}, "config": {"model":
    model.kind, "vocab": [token, ...], "embed_dim": int, "hidden_dim": int}}.
    """
    arrays = {p.name: p.data for p in model.parameters()}
    meta = {"format_version": CHECKPOINT_FORMAT_VERSION,
            "arrays": {k: list(v.shape) for k, v in arrays.items()},
            "config": {"model": model.kind, "vocab": model.vocab.id_to_token,
                       **{k: getattr(model, k) for k in _DIMS}}}
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.array(json.dumps(meta)), **arrays)


def _entry(record: dict, key: str, where: str, kind: type):
    """record[key]; ValueError naming the key unless it holds a `kind`."""
    if not isinstance(record.get(key), kind):
        raise ValueError(f"checkpoint {where} has no {key!r} {kind.__name__}")
    return record[key]


def load_model(cls, path):
    """Rebuild a model of class cls from a checkpoint written by save_model.

    Raises MissingCheckpoint if no file is at `path`, and a ValueError naming
    the fault for a file that is not an npz archive; a missing `__meta__`, or
    one that is not a JSON object of this format version; a meta record with
    no "arrays" or "config" object; an array that the record names and the
    file lacks, or of another shape; a config with no "vocab" list, or one
    that Vocabulary rejects (tokens that are not distinct strings), another
    "model" than cls.kind, or a dimension that is not an integer of at least
    1; and, from restore_params, a parameter that is missing, unexpected,
    mis-shaped or not finite.
    """
    try:
        npz = np.load(path, allow_pickle=False)
    except FileNotFoundError as e:
        raise MissingCheckpoint(f"no checkpoint at {path}") from e
    except (EOFError, ValueError) as e:  # empty, or neither npz nor npy
        raise ValueError(f"{path} is not an npz archive") from e
    if not isinstance(npz, np.lib.npyio.NpzFile):
        raise ValueError(f"{path} is not an npz archive")
    with npz:
        if "__meta__" not in npz.files:
            raise ValueError(f"{path} has no '__meta__' record")
        meta = json.loads(str(npz["__meta__"]))
        if not isinstance(meta, dict):
            raise ValueError(f"{path}: '__meta__' is not a JSON object")
        if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format: {meta.get('format_version')}")
        arrays = {k: npz[k].astype(np.float64) for k in npz.files if k != "__meta__"}
    for name, shape in _entry(meta, "arrays", "meta", dict).items():
        if name not in arrays:
            raise ValueError(f"checkpoint array {name!r} is missing from the file")
        if list(arrays[name].shape) != shape:
            raise ValueError(f"checkpoint array {name!r} has shape {arrays[name].shape}, "
                             f"expected {shape}")
    config = _entry(meta, "config", "meta", dict)
    if config.get("model") != cls.kind:
        raise ValueError(f"not a {cls.kind} checkpoint: {config.get('model')!r}")
    for k in _DIMS:
        require_count(k, config.get(k))
    model = cls.create(Vocabulary(_entry(config, "vocab", "config", list)),
                       np.random.default_rng(0), **{k: config[k] for k in _DIMS})
    restore_params(model.parameters(), arrays)
    return model
