"""The neural base listener: utterance -> quadratic-form scorer over color space.

An LSTM encodes the (listener-preprocessed) utterance; an affine map turns the
final hidden state into the parameters (mu, Sigma) of the score function

    score(f) = -(f - mu)^T Sigma (f - mu)

over 54-dimensional color features f. The three context colors' scores are
normalized in log space to give the distribution over targets. Sigma is an
unconstrained square matrix: it is not forced negative definite, and the
context-normalized distribution is valid regardless.
"""

from __future__ import annotations

import numpy as np

from .colorspace import FOURIER_DIM, Color, fourier_features_array
from .corpus import ContextTrial, Vocabulary, preprocess
from .errors import EmptyUtterance
from .metrics import _scores
from .nnsubstrate import (
    Adadelta,
    LstmCellParams,
    Parameter,
    Tensor,
    embed,
    log_softmax,
    no_grad,
    quad_scores,
    run_lstm,
    softmax_xent,
)
from .training import (
    TrainConfig,
    TrainingReport,
    _fit,
    load_model,
    same_length_batches,
    save_model,
)


class ListenerModel:
    """Parameters of the base listener (embedding, LSTM, output map)."""

    kind = "listener"

    def __init__(self, vocab: Vocabulary, embedding: Parameter, cell: LstmCellParams,
                 out_w: Parameter, out_b: Parameter):
        self.vocab = vocab
        self.embedding = embedding
        self.cell = cell
        self.out_w = out_w
        self.out_b = out_b
        self.embed_dim = embedding.data.shape[1]
        self.hidden_dim = cell.hidden_dim
        self.feature_dim = int(round(np.sqrt(out_w.data.shape[1] + 0.25) - 0.5))

    @classmethod
    def create(cls, vocab: Vocabulary, rng: np.random.Generator,
               embed_dim: int = 100, hidden_dim: int = 100,
               feature_dim: int = FOURIER_DIM) -> "ListenerModel":
        out_dim = feature_dim + feature_dim * feature_dim
        scale = 1.0 / np.sqrt(hidden_dim)
        return cls(
            vocab,
            Parameter("embedding", rng.normal(0.0, 0.01, (len(vocab), embed_dim))),
            LstmCellParams.create("lstm", embed_dim, hidden_dim, rng),
            Parameter("out_w", rng.uniform(-scale, scale, (hidden_dim, out_dim))),
            Parameter("out_b", np.zeros(out_dim)),
        )

    def parameters(self) -> list[Parameter]:
        return [self.embedding, *self.cell.parameters(), self.out_w, self.out_b]

    def encode_tokens(self, tokens: list[str]) -> list[int]:
        return self.vocab.encode(tokens)

    def mu_sigma(self, ids: np.ndarray) -> tuple[Tensor, Tensor]:
        """Scorer parameters for a batch of same-length id rows (B, T)."""
        ids = np.atleast_2d(ids)
        batch, steps = ids.shape
        inputs = [embed(ids[:, t], self.embedding) for t in range(steps)]
        h, _ = run_lstm(inputs, self.cell, batch)
        out = h @ self.out_w + self.out_b
        f = self.feature_dim
        mu = out.narrow(1, 0, f)
        sigma = out.narrow(1, f, f * f).reshape(batch, f, f)
        return mu, sigma

    def scores(self, ids: np.ndarray, feats: np.ndarray) -> Tensor:
        """Raw quadratic-form scores (B, K) for candidate features (B, K, F)."""
        mu, sigma = self.mu_sigma(ids)
        return quad_scores(feats, mu, sigma)

    def save(self, path) -> None:
        save_model(self, path)

    @classmethod
    def load(cls, path) -> "ListenerModel":
        return load_model(cls, path)


def context_features(colors: tuple[Color, Color, Color]) -> np.ndarray:
    return fourier_features_array(np.stack([c.as_array() for c in colors]))


@no_grad()
def l0_score(model: ListenerModel, tokens: list[str],
             colors: tuple[Color, Color, Color]) -> np.ndarray:
    """Distribution over the three context colors given listener-mode tokens."""
    if not tokens:
        raise EmptyUtterance("listener got an utterance with no tokens")
    ids = np.array([model.encode_tokens(tokens)])
    feats = context_features(colors)[None, :, :]
    scores = model.scores(ids, feats)
    return np.exp(log_softmax(scores.data[0]))


# Distinct utterances per mu/Sigma batch, and rows per gathered Sigma block:
# memory stays near one 512-row batch whatever the number of utterances.
_L0_UTTERANCE_BATCH = 512
_L0_ROW_BLOCK = 128


@no_grad()
def l0_probs_many(model: ListenerModel, id_seqs: list[list[int]],
                  feats: np.ndarray) -> np.ndarray:
    """Batched listener distributions for many utterances.

    feats is either one context (3, F), shared by all rows, or per-row
    contexts (B, 3, F). The LSTM and output map run once per distinct id
    sequence, in same-length groups; every row is then scored against its own
    context. Returns (B, 3).
    """
    index: dict[tuple[int, ...], int] = {}
    inverse = np.array([index.setdefault(tuple(s), len(index)) for s in id_seqs],
                       dtype=int)
    distinct = list(index)
    lengths = np.array([len(s) for s in distinct])
    if np.any(lengths == 0):
        raise EmptyUtterance("empty token sequence in batch")
    out = np.empty((len(id_seqs), 3))
    order = np.argsort(inverse, kind="stable")  # rows grouped by utterance
    starts = np.searchsorted(inverse[order], np.arange(len(distinct) + 1))
    shared = feats.ndim == 2
    for group in same_length_batches(lengths, np.arange(len(distinct)),
                                     batch_size=_L0_UTTERANCE_BATCH):
        mu, sigma = model.mu_sigma(np.array([distinct[i] for i in group]))
        rows = np.concatenate([order[starts[u]:starts[u + 1]] for u in group])
        slot = np.repeat(np.arange(len(group)), starts[group + 1] - starts[group])
        for lo in range(0, len(rows), _L0_ROW_BLOCK):
            r, k = rows[lo:lo + _L0_ROW_BLOCK], slot[lo:lo + _L0_ROW_BLOCK]
            f = feats[None] if shared else feats[r]
            scores = quad_scores(f, Tensor(mu.data[k]), Tensor(sigma.data[k]))
            out[r] = np.exp(log_softmax(scores.data))
    return out


def trial_listener_ids(model: ListenerModel, trial: ContextTrial) -> list[int]:
    return model.encode_tokens(preprocess(trial.speaker_texts, "listener"))


def train_l0(model: ListenerModel, train_trials: list[ContextTrial],
             dev_trials: list[ContextTrial], config: TrainConfig) -> TrainingReport:
    """Minimize cross-entropy of the target index; keep the best-dev epoch.

    Trains with ADADELTA at learning rate 0.2, clipping gradients to a global
    norm of 5.0. The model is left holding the best-dev-accuracy parameters.
    """
    ids = [np.array(trial_listener_ids(model, t)) for t in train_trials]
    for i, row in enumerate(ids):
        if not row.size:
            raise EmptyUtterance(f"training trial {i} has a listener text with no tokens")
    feats = np.stack([context_features(t.colors) for t in train_trials])
    targets = np.array([t.target_index for t in train_trials])

    def batch_loss(batch):
        scores = model.scores(np.stack([ids[i] for i in batch]), feats[batch])
        return softmax_xent(scores, targets[batch])[0], len(batch)

    def dev():
        acc, ppl = evaluate_l0(model, dev_trials)
        return acc, {"dev_accuracy": acc, "dev_perplexity": ppl}

    return _fit(Adadelta(model.parameters()), np.array([len(s) for s in ids]),
                batch_loss, dev, config)


def evaluate_l0(model: ListenerModel,
                trials: list[ContextTrial]) -> tuple[float, float]:
    """(accuracy, perplexity) of the base listener on a trial list."""
    probs = l0_probs_many(model, [trial_listener_ids(model, t) for t in trials],
                          np.stack([context_features(t.colors) for t in trials]))
    return _scores(probs, np.array([t.target_index for t in trials]))


@no_grad()
def density_grid(model: ListenerModel, tokens: list[str], h_bins: int = 90,
                 s_bins: int = 50, v_bins: int = 50) -> np.ndarray:
    """Log marginal scorer density over (hue, saturation), summed over value.

    The HSV lattice uses cell centers; each point maps to RGB and then to
    feature space, where exp(score) is accumulated over the value axis in log
    space. The result is shifted so its maximum cell is 0.
    """
    from .colorspace import _hsv_to_rgb_arrays

    if not tokens:
        raise EmptyUtterance("density grid needs a non-empty utterance")
    h = (np.arange(h_bins) + 0.5) * (360.0 / h_bins)
    s = (np.arange(s_bins) + 0.5) / s_bins
    v = (np.arange(v_bins) + 0.5) / v_bins
    hh, ss, vv = np.meshgrid(h, s, v, indexing="ij")
    r, g, b = _hsv_to_rgb_arrays(hh.ravel(), ss.ravel(), vv.ravel())
    feats = fourier_features_array(np.stack([r, g, b], axis=-1))

    mu, sigma = model.mu_sigma(np.array([model.encode_tokens(tokens)]))
    d = feats - mu.data[0]
    scores = -np.einsum("nf,fe,ne->n", d, sigma.data[0], d)
    scores = scores.reshape(h_bins, s_bins, v_bins)
    shift = scores.max()
    with np.errstate(divide="ignore"):
        marginal = np.log(np.exp(scores - shift).sum(axis=2)) + shift
    return marginal - marginal.max()
