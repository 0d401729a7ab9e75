"""Shared training-loop plumbing and checkpoint save/restore for the two base models."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import Vocabulary
from .nnsubstrate import (Parameter, clip_global_norm, load_checkpoint, save_checkpoint,
                          zero_gradients)

GRAD_CLIP = 5.0
_DIMS = ("embed_dim", "hidden_dim", "feature_dim")


@dataclass
class TrainConfig:
    """Knobs for one training run.

    The optimizers are fixed: ADADELTA at learning rate 0.2 for the listener,
    Adam at 0.004 for the speaker, both clipped to a global gradient norm of
    GRAD_CLIP = 5.0. Epochs and batch size are declared defaults, not tuned.
    """

    epochs: int = 10
    batch_size: int = 32
    seed: int = 0


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
    batching deterministic.
    """
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


def _fit(optimizer, lengths: np.ndarray, batch_loss, dev,
         config: TrainConfig) -> TrainingReport:
    """Minibatch training; optimizer.params are left holding the best-dev epoch.

    batch_loss(rows) gives the per-row losses of equal-length rows and the
    normalizer of their sum (rows or tokens); dev() gives a key to maximize
    and the EpochStats dev fields.
    """
    params = optimizer.params
    rng = np.random.default_rng(config.seed)
    report = TrainingReport()
    best_key = -np.inf
    best = snapshot_params(params)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(lengths))
        total_loss = 0.0
        total_count = 0
        max_grad_norm = 0.0
        clipped = 0
        for batch in same_length_batches(lengths, order, config.batch_size):
            losses, normalizer = batch_loss(batch)
            (losses.sum() * (1.0 / normalizer)).backward()
            total_loss += float(losses.data.sum())
            total_count += normalizer
            grad_norm = clip_global_norm(params, GRAD_CLIP)
            max_grad_norm = max(max_grad_norm, float(grad_norm))
            clipped += int(grad_norm > GRAD_CLIP)
            optimizer.step()
            zero_gradients(params)
        key, dev_stats = dev()
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
    """Copy name-keyed arrays into params; every name and shape must match."""
    names = {p.name for p in params}
    if set(snapshot) != names:
        raise ValueError(f"missing parameters {sorted(names - set(snapshot))}, "
                         f"unexpected {sorted(set(snapshot) - names)}")
    for p in params:
        if snapshot[p.name].shape != p.data.shape:
            raise ValueError(f"parameter {p.name!r} has shape {snapshot[p.name].shape}, "
                             f"expected {p.data.shape}")
    for p in params:
        p.data = snapshot[p.name].copy()


def save_model(model, path) -> None:
    """Write a base model's parameters, vocabulary and dimensions."""
    save_checkpoint(path, snapshot_params(model.parameters()),
                    {"model": model.kind, "vocab": model.vocab.id_to_token,
                     **{k: getattr(model, k) for k in _DIMS}})


def load_model(cls, path):
    """Rebuild a model of class cls from a checkpoint written by save_model."""
    arrays, config = load_checkpoint(path)
    if config.get("model") != cls.kind:
        raise ValueError(f"not a {cls.kind} checkpoint: {config.get('model')!r}")
    model = cls.create(Vocabulary(config["vocab"]), np.random.default_rng(0),
                       **{k: config[k] for k in _DIMS})
    restore_params(model.parameters(), arrays)
    return model
