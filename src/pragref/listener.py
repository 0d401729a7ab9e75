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

from .colorspace import FOURIER_DIM, Color, fourier_features_array, hsv_to_rgb_arrays
from .corpus import ContextTrial, Vocabulary, preprocess
from .errors import EmptyUtterance
from .nnsubstrate import (
    Adadelta,
    LstmCellParams,
    Parameter,
    Tensor,
    embed,
    log_softmax,
    lstm_cell,
    padded_ids,
    quad_form,
    quad_scores,
    run_lstm,
    softmax_xent,
)
from .training import TrainConfig, TrainingReport, fit


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

    @classmethod
    def create(cls, vocab: Vocabulary, rng: np.random.Generator,
               embed_dim: int = 100, hidden_dim: int = 100) -> "ListenerModel":
        out_dim = FOURIER_DIM + FOURIER_DIM * FOURIER_DIM
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

    def encode(self, ids: np.ndarray) -> Tensor:
        """Final LSTM hidden states (B, hidden) of same-length id rows (B, T)."""
        ids = np.atleast_2d(ids)
        batch, steps = ids.shape
        inputs = [embed(ids[:, t], self.embedding) for t in range(steps)]
        h, _ = run_lstm(inputs, self.cell, batch)
        return h

    def encode_prefixes(self, seqs: list[tuple[int, ...]]) -> np.ndarray:
        """Final LSTM hidden states (U, hidden) of distinct non-empty id sequences.

        Forward only, on plain arrays. The ids are checked up front: an empty
        sequence raises EmptyUtterance and an id outside the vocabulary
        IndexOutOfRange. The sequences form a prefix tree: position t makes
        one lstm_cell call over every distinct prefix of length t + 1, from
        its parent prefix's state, and each sequence takes the state at its
        last position. The gates gather each prefix's last word's row of an
        embedding W_x + b table, built once per call, and add the parent's
        h W_h, skipped at the root, where h is zero. The states match
        ListenerModel.encode to within rounding, not bit for bit, as its sums
        group differently.
        """
        padded, lengths = padded_ids(seqs, len(self.vocab))
        table = self.embedding.data @ self.cell.w_x.data + self.cell.bias.data
        out = np.empty((len(seqs), self.hidden_dim))
        node = np.zeros(len(seqs), dtype=np.int64)  # each sequence's prefix so far
        hc = np.zeros((2, 1, self.hidden_dim))
        for t in range(padded.shape[1]):
            alive = np.flatnonzero(lengths > t)
            keys, node[alive] = np.unique(node[alive] * len(self.vocab) + padded[alive, t],
                                          return_inverse=True)
            parent, tokens = np.divmod(keys, len(self.vocab))
            gates = table[tokens]
            if t:
                gates += hc[0, parent] @ self.cell.w_h.data
            hc = lstm_cell(gates, hc[1, parent])[0]
            ends = alive[lengths[alive] == t + 1]
            out[ends] = hc[0, node[ends]]
        return out

    def head(self, h: Tensor) -> tuple[Tensor, Tensor]:
        """Scorer parameters mu (B, F) and Sigma (B, F, F) of hidden states (B, hidden)."""
        out = h @ self.out_w + self.out_b
        f = FOURIER_DIM
        mu = out.narrow(1, 0, f)
        sigma = out.narrow(1, f, f * f).reshape(h.shape[0], f, f)
        return mu, sigma

    def head_arrays(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """head, forward only on plain arrays: mu (B, F) and Sigma (B, F, F) views.

        The operations of head in its order, so the values equal head's.
        """
        out = states @ self.out_w.data
        out += self.out_b.data
        f = FOURIER_DIM
        return out[:, :f], out[:, f:].reshape(len(states), f, f)

    def scores(self, ids: np.ndarray, feats: np.ndarray) -> Tensor:
        """Raw quadratic-form scores (B, K) for candidate features (B, K, F)."""
        mu, sigma = self.head(self.encode(ids))
        return quad_scores(feats, mu, sigma)


def context_features(colors: tuple[Color, Color, Color]) -> np.ndarray:
    """Feature rows (3, F) of one context's colors, in their stored order."""
    return fourier_features_array(colors)


def l0_score(model: ListenerModel, tokens: list[str],
             colors: tuple[Color, Color, Color]) -> np.ndarray:
    """Distribution over the three context colors given listener-mode tokens.

    The per-row reference: it runs the training graph on one row.
    """
    if not tokens:
        raise EmptyUtterance("listener got an utterance with no tokens")
    ids = np.array([model.vocab.encode(tokens)])
    feats = context_features(colors)[None, :, :]
    scores = model.scores(ids, feats)
    return np.exp(log_softmax(scores.data[0]))


# Distinct utterances per head block, and rows per gathered Sigma block, of
# the per-row branch: memory stays near one block whatever the number of rows.
_L0_BLOCK = 128


def _shared_context_probs(model: ListenerModel, states: np.ndarray,
                          feats: np.ndarray) -> np.ndarray:
    """Distributions (U, 3) of encoded utterances (U, hidden) over one context (3, F).

    With mu = h A + a and Sigma = h B + b (B read as hidden F x F blocks), the
    score -(f_k - mu)^T Sigma (f_k - mu) of candidate k is

        -f_k^T Sigma f_k + mu^T (Sigma + Sigma^T) f_k - mu^T Sigma mu,

    and the last term is the same for every k, so it drops out of the
    softmax. The head is folded with the context once: h @ weights + bias
    gives, per utterance, [mu | (Sigma + Sigma^T) f_k | f_k^T Sigma f_k] for
    the three k. The contractions of B with f_k on both sides are matrix
    products over the head's weights, and no F x F Sigma is formed per
    utterance.
    """
    f = FOURIER_DIM
    w = model.out_w.data.reshape(-1, f + 1, f)  # per hidden unit: [A row; B block]
    b = model.out_b.data.reshape(f + 1, f)
    left = np.matmul(feats, w[:, 1:])           # (hidden, 3, F): f_k^T B_j
    sym = left + np.matmul(w[:, 1:], feats.T).transpose(0, 2, 1)  # (B_j + B_j^T) f_k
    left_b = feats @ b[1:]
    weights = np.concatenate([w[:, 0], sym.reshape(len(w), -1),
                              np.einsum("jke,ke->jk", left, feats)], axis=1)
    bias = np.concatenate([b[0], (left_b + (b[1:] @ feats.T).T).ravel(),
                           np.einsum("ke,ke->k", left_b, feats)])
    folded = states @ weights + bias
    mu, sym, quad = folded[:, :f], folded[:, f:4 * f], folded[:, 4 * f:]
    scores = np.einsum("uf,ukf->uk", mu, sym.reshape(-1, 3, f)) - quad
    return np.exp(log_softmax(scores))


def _per_row_probs(model: ListenerModel, states: np.ndarray, inverse: np.ndarray,
                   feats: np.ndarray) -> np.ndarray:
    """Distributions (N, 3) of the rows: row i is states[inverse[i]] on feats[i]."""
    out = np.empty((len(inverse), 3))
    order = np.argsort(inverse, kind="stable")  # rows grouped by utterance
    starts = np.searchsorted(inverse[order], np.arange(len(states) + 1))
    for lo in range(0, len(states), _L0_BLOCK):
        hi = min(lo + _L0_BLOCK, len(states))
        mu, sigma = model.head_arrays(states[lo:hi])
        rows = order[starts[lo]:starts[hi]]
        for j in range(0, len(rows), _L0_BLOCK):
            r = rows[j:j + _L0_BLOCK]
            k = inverse[r] - lo
            out[r] = np.exp(log_softmax(quad_form(feats[r], mu[k], sigma[k])[0]))
    return out


def l0_probs_many(model: ListenerModel, id_seqs: list[list[int]],
                  feats: np.ndarray) -> np.ndarray:
    """Batched listener distributions for many utterances.

    feats is either one context (3, F), shared by all rows, or per-row
    contexts (len(id_seqs), 3, F); any other shape raises ValueError. Returns
    (len(id_seqs), 3). Each distinct id sequence is scored once, and every
    distinct utterance is encoded in one prefix tree
    (ListenerModel.encode_prefixes), which raises EmptyUtterance for an empty
    sequence and IndexOutOfRange for an id outside the vocabulary.

    One shared context: the quadratic form is folded into the head once for
    the context, dropping the target-independent mu^T Sigma mu term
    (_shared_context_probs).

    Per-row contexts (evaluate_l0, training's dev scoring, the pragmatic
    speaker sampler): the head (head_arrays) runs on blocks of _L0_BLOCK
    consecutive distinct utterances, whatever their lengths, and each row is
    scored against its own context by quad_form, in blocks of as many rows.
    These are the floats of ListenerModel.head on the same blocks and of
    quad_scores on each row. Folding the head per context (about 3.5 MFLOP
    per context at hidden 100) would cost far more than the per-row
    quadratic form (about 20 kFLOP per row) here.

    No Tensor is made. The prefix tree rounds differently from
    ListenerModel.encode, and the fold from the quadratic form, so both
    branches match l0_score on each row to within 1e-12, not bit for bit.
    """
    f = FOURIER_DIM
    if feats.shape not in ((3, f), (len(id_seqs), 3, f)):
        raise ValueError(f"expected features of shape (3, {f}) or "
                         f"({len(id_seqs)}, 3, {f}), got {feats.shape}")
    index: dict[tuple[int, ...], int] = {}
    inverse = np.array([index.setdefault(tuple(s), len(index)) for s in id_seqs],
                       dtype=int)
    states = model.encode_prefixes(list(index))
    if feats.ndim == 2:
        return _shared_context_probs(model, states, feats)[inverse]
    return _per_row_probs(model, states, inverse, feats)


def accuracy_perplexity(probs: np.ndarray, targets: np.ndarray) -> tuple[float, float]:
    """(accuracy, perplexity) of distributions (N, 3) for target indices (N,).

    Argmax ties go to the lowest index; target probabilities floor at 1e-300.
    Raises ValueError unless probs has shape (len(targets), 3).
    """
    if probs.shape != (len(targets), 3):
        raise ValueError(f"expected probs of shape ({len(targets)}, 3), got {probs.shape}")
    acc = float((probs.argmax(axis=1) == targets).mean())
    p_t = np.maximum(probs[np.arange(len(targets)), targets], 1e-300)
    return acc, float(np.exp(-np.log(p_t).mean()))


def trial_listener_ids(model: ListenerModel, trial: ContextTrial) -> list[int]:
    return model.vocab.encode(preprocess(trial.speaker_texts, "listener"))


def _listener_inputs(model: ListenerModel, trials: list[ContextTrial]):
    """Id rows, context features (N, 3, F) and target indices of a nonempty trial list."""
    if not trials:
        raise ValueError("expected at least one trial, got an empty list")
    return ([trial_listener_ids(model, t) for t in trials],
            fourier_features_array([t.colors for t in trials]),
            np.array([t.target_index for t in trials]))


def train_l0(model: ListenerModel, train_trials: list[ContextTrial],
             dev_trials: list[ContextTrial], config: TrainConfig) -> TrainingReport:
    """Minimize cross-entropy of the target index; keep the best-dev epoch.

    Trains with ADADELTA at ADADELTA_LR, clipping gradients to a global norm
    of GRAD_CLIP (constants of `nnsubstrate`). The model is left holding the
    best-dev-accuracy parameters. Dev inputs are built once and scored after
    every epoch as evaluate_l0 scores them.
    """
    id_rows, feats, targets = _listener_inputs(model, train_trials)
    ids = [np.array(row) for row in id_rows]
    for i, row in enumerate(ids):
        if not row.size:
            raise EmptyUtterance(f"training trial {i} has a listener text with no tokens")
    dev_ids, dev_feats, dev_targets = _listener_inputs(model, dev_trials)

    def batch_loss(batch):
        scores = model.scores(np.stack([ids[i] for i in batch]), feats[batch])
        return softmax_xent(scores, targets[batch])[0], len(batch)

    def dev():
        acc, ppl = accuracy_perplexity(l0_probs_many(model, dev_ids, dev_feats), dev_targets)
        return acc, {"dev_accuracy": acc, "dev_perplexity": ppl}

    return fit(Adadelta(model.parameters()), np.array([len(s) for s in ids]),
               batch_loss, dev, config)


def evaluate_l0(model: ListenerModel,
                trials: list[ContextTrial]) -> tuple[float, float]:
    """(accuracy, perplexity) of the base listener on a trial list."""
    ids, feats, targets = _listener_inputs(model, trials)
    return accuracy_perplexity(l0_probs_many(model, ids, feats), targets)


def density_grid(model: ListenerModel, tokens: list[str], h_bins: int = 90,
                 s_bins: int = 50, v_bins: int = 50) -> np.ndarray:
    """Log marginal scorer density over (hue, saturation), summed over value.

    The HSV lattice uses cell centers; each point maps to RGB and then to
    feature space, where exp(score) is accumulated over the value axis in log
    space. The result is shifted so its maximum cell is 0.

    Forward only, on plain arrays: the utterance is encoded by
    encode_prefixes, which rounds differently from ListenerModel.encode, and
    scored by head_arrays and quad_form. The grid matches the graph path
    (ListenerModel.head, then quad_scores on each hue row) to within
    1e-12, not bit for bit.
    """
    if not tokens:
        raise EmptyUtterance("density grid needs a non-empty utterance")
    h = (np.arange(h_bins) + 0.5) * (360.0 / h_bins)
    s = (np.arange(s_bins) + 0.5) / s_bins
    v = (np.arange(v_bins) + 0.5) / v_bins
    ss, vv = (a.ravel() for a in np.meshgrid(s, v, indexing="ij"))

    mu, sigma = model.head_arrays(model.encode_prefixes([model.vocab.encode(tokens)]))
    # one hue row at a time: the features and quad_form's temporaries hold
    # s_bins * v_bins points, not the whole lattice
    rows = []
    for hue in h:
        rgb = np.stack(hsv_to_rgb_arrays(hue, ss, vv), axis=-1)
        rows.append(quad_form(fourier_features_array(rgb)[None], mu, sigma)[0][0])
    scores = np.stack(rows).reshape(h_bins, s_bins, v_bins)
    shift = scores.max()
    with np.errstate(divide="ignore"):
        marginal = np.log(np.exp(scores - shift).sum(axis=2)) + shift
    return marginal - marginal.max()
