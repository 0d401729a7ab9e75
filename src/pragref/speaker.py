"""The neural base speaker: context encoder + description decoder.

The three context colors (distractors first, target last) run through an LSTM
encoder over their feature vectors; the encoder's final cell state is the
context vector. The decoder LSTM receives [context vector ; previous-token
embedding] at every step and predicts the next token through an affine map
and softmax over the vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .colorspace import FOURIER_DIM, Color, fourier_features_array
from .corpus import EOS, ContextTrial, Vocabulary, preprocess
from .nnsubstrate import (
    Adam,
    LstmCellParams,
    Parameter,
    Tensor,
    concat,
    embed,
    lstm_step,
    no_grad,
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

MAX_DECODE_LEN = 20
SAMPLE_BATCH = 1024


@dataclass
class UtteranceSample:
    """One sampled description: speaker-mode tokens ending with </s>."""

    tokens: list[str]
    log_prob: float


class SpeakerModel:
    """Parameters of the base speaker (encoder, embedding, decoder, output)."""

    kind = "speaker"

    def __init__(self, vocab: Vocabulary, encoder: LstmCellParams,
                 embedding: Parameter, decoder: LstmCellParams,
                 out_w: Parameter, out_b: Parameter):
        self.vocab = vocab
        self.encoder = encoder
        self.embedding = embedding
        self.decoder = decoder
        self.out_w = out_w
        self.out_b = out_b
        self.embed_dim = embedding.data.shape[1]
        self.hidden_dim = encoder.hidden_dim
        self.feature_dim = encoder.input_dim

    @classmethod
    def create(cls, vocab: Vocabulary, rng: np.random.Generator,
               embed_dim: int = 100, hidden_dim: int = 100,
               feature_dim: int = FOURIER_DIM) -> "SpeakerModel":
        scale = 1.0 / np.sqrt(hidden_dim)
        return cls(
            vocab,
            LstmCellParams.create("encoder", feature_dim, hidden_dim, rng),
            Parameter("embedding", rng.normal(0.0, 0.01, (len(vocab), embed_dim))),
            LstmCellParams.create("decoder", hidden_dim + embed_dim, hidden_dim, rng),
            Parameter("out_w", rng.uniform(-scale, scale, (hidden_dim, len(vocab)))),
            Parameter("out_b", np.zeros(len(vocab))),
        )

    def parameters(self) -> list[Parameter]:
        return [*self.encoder.parameters(), self.embedding,
                *self.decoder.parameters(), self.out_w, self.out_b]

    def encode(self, feats: np.ndarray) -> Tensor:
        """Context vector for (B, 3, F) features already ordered target-last.

        Returns the encoder's final cell state.
        """
        if feats.ndim != 3:
            raise ValueError(f"expected (B, 3, F) features, got {feats.shape}")
        inputs = [Tensor(feats[:, i, :]) for i in range(feats.shape[1])]
        _, c = run_lstm(inputs, self.encoder, feats.shape[0])
        return c

    def step_logits(self, ctx: Tensor, token_ids: np.ndarray,
                    h: Tensor, c: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """One decoder step: previous tokens (B,) -> next-token logits (B, V)."""
        x = concat([ctx, embed(token_ids, self.embedding)], axis=1)
        h2, c2 = lstm_step(x, h, c, self.decoder)
        return h2 @ self.out_w + self.out_b, h2, c2

    def save(self, path) -> None:
        save_model(self, path)

    @classmethod
    def load(cls, path) -> "SpeakerModel":
        return load_model(cls, path)


# Stored-order indices of [distractor, distractor, target] per target index.
_TARGET_LAST_ORDER = np.array([[1, 2, 0], [0, 2, 1], [0, 1, 2]])


def target_last_features(rgb: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Feature rows (N, 3, F) for [distractor, distractor, target] per context.

    rgb holds each context's colors in stored order, (N, 3, 3); targets (N,)
    the target index of each. Distractors keep their stored order.
    """
    rgb = np.asarray(rgb, dtype=np.float64)
    targets = np.asarray(targets)
    if rgb.ndim != 3 or rgb.shape[1:] != (3, 3):
        raise ValueError(f"expected (N, 3, 3) colors, got {rgb.shape}")
    if targets.shape != (rgb.shape[0],):
        raise ValueError(f"expected {rgb.shape[0]} target indices, got shape {targets.shape}")
    if targets.size and (targets.min() < 0 or targets.max() > 2):
        raise ValueError("target indices must be 0, 1 or 2")
    order = _TARGET_LAST_ORDER[targets]
    return fourier_features_array(rgb[np.arange(len(rgb))[:, None], order])


def contexts_target_last_features(contexts) -> np.ndarray:
    """target_last_features of (color triple, target index) pairs, (N, 3, F)."""
    pairs = list(contexts)
    rgb = np.array([[(c.r, c.g, c.b) for c in colors] for colors, _ in pairs],
                   dtype=np.float64).reshape(-1, 3, 3)
    return target_last_features(rgb, np.array([t for _, t in pairs], dtype=int))


def reorder_target_last(colors: tuple[Color, Color, Color],
                        target_index: int) -> np.ndarray:
    """Feature rows for [distractor, distractor, target] in stored order."""
    return contexts_target_last_features([(colors, target_index)])[0]


@no_grad()
def encode_context(model: SpeakerModel, colors: tuple[Color, Color, Color],
                   target_index: int) -> np.ndarray:
    """The context vector h: encoder final cell state, target fed last."""
    return model.encode(reorder_target_last(colors, target_index)[None]).data[0]


def _teacher_forced_losses(model: SpeakerModel, feats: np.ndarray,
                           ids: np.ndarray) -> Tensor:
    """Summed per-sequence NLL (B,) for same-length id rows ending in EOS."""
    batch, steps = ids.shape
    ctx = model.encode(feats)
    h = Tensor(np.zeros((batch, model.hidden_dim)))
    c = Tensor(np.zeros((batch, model.hidden_dim)))
    prev = np.full(batch, model.vocab.bos_id)
    total = None
    for t in range(steps):
        logits, h, c = model.step_logits(ctx, prev, h, c)
        losses, _ = softmax_xent(logits, ids[:, t])
        total = losses if total is None else total + losses
        prev = ids[:, t]
    return total


@no_grad()
def s0_log_prob(model: SpeakerModel, tokens: list[str],
                colors: tuple[Color, Color, Color], target_index: int) -> float:
    """Teacher-forced log probability of a token sequence ending with </s>."""
    if not tokens or tokens[-1] != EOS:
        raise ValueError("speaker tokens must end with the end token </s>")
    ids = np.array([model.vocab.encode(tokens)])
    feats = reorder_target_last(colors, target_index)[None]
    return -float(_teacher_forced_losses(model, feats, ids).data[0])


@no_grad()
def s0_log_probs_batch(model: SpeakerModel, id_seqs: list[list[int]],
                       feats: np.ndarray) -> np.ndarray:
    """Batched log probabilities; feats (B, 3, F) target-last per row."""
    n = len(id_seqs)
    out = np.empty(n)
    lengths = np.array([len(s) for s in id_seqs])
    for group in same_length_batches(lengths, np.arange(n), batch_size=512):
        ids = np.array([id_seqs[i] for i in group])
        out[group] = -_teacher_forced_losses(model, feats[group], ids).data
    return out


@no_grad()
def s0_sample_batch(model: SpeakerModel, feats: np.ndarray,
                    rng: np.random.Generator, temperature: float = 1.0,
                    rows: np.ndarray | None = None) -> list[tuple[tuple[int, ...], float]]:
    """Ancestral sampling for (B, 3, F) contexts; returns (ids, log_prob) rows.

    temperature scales the sampling distribution only; recorded log_prob is
    always the model's own. temperature=0 decodes greedily. Rows that reach
    MAX_DECODE_LEN get </s> forced, with its model log probability included.

    rows, when given, maps each output row to a context of feats: the encoder
    runs once per context of feats, (K, 3, F), and the batch has len(rows)
    rows, sampled as feats[rows] would be.

    Only live rows are decoded: once a row emits </s>, later steps leave it
    out of the decoder, the softmax and the sampler. Every sampled step still
    draws one uniform per row of the whole batch and uses the live rows'
    draws, so the random stream, and with it every result, is the same as
    decoding every row until the last one ends.
    """
    eos = model.vocab.eos_id
    ctx = model.encode(feats)
    if rows is not None:
        ctx = Tensor(ctx.data[rows])
    batch = ctx.data.shape[0]
    h = Tensor(np.zeros((batch, model.hidden_dim)))
    c = Tensor(np.zeros((batch, model.hidden_dim)))
    prev = np.full(batch, model.vocab.bos_id)
    live = np.arange(batch)  # rows not yet ended; ctx, h, c and prev hold theirs
    ids = np.full((batch, MAX_DECODE_LEN), eos)
    log_probs = np.zeros(batch)
    for step in range(MAX_DECODE_LEN):
        logits, h, c = model.step_logits(ctx, prev, h, c)
        z = logits.data - logits.data.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        # recorded log_prob uses the model's own distribution; the sampling
        # distribution additionally masks <s>, which is an input-only symbol
        z_sample = z.copy()
        z_sample[:, model.vocab.bos_id] = -np.inf
        if step == MAX_DECODE_LEN - 1:
            chosen = np.full(len(live), eos)
        elif temperature <= 0.0:
            chosen = z_sample.argmax(axis=1)
        else:
            zt = z_sample / temperature
            pt = np.exp(zt - zt.max(axis=1, keepdims=True))
            pt /= pt.sum(axis=1, keepdims=True)
            u = rng.random((batch, 1))[live]
            chosen = (pt.cumsum(axis=1) < u).sum(axis=1)
            chosen = np.minimum(chosen, pt.shape[1] - 1)
        ids[live, step] = chosen  # each live row holds exactly `step` ids so far
        log_probs[live] += logp[np.arange(len(live)), chosen]
        going = chosen != eos
        if not going.any():
            break
        if not going.all():
            live, chosen = live[going], chosen[going]
            ctx, h, c = (Tensor(t.data[going]) for t in (ctx, h, c))
        prev = chosen
    # every row ends at its first </s>, chosen or forced at MAX_DECODE_LEN
    return [(tuple(row[:row.index(eos) + 1]), lp)
            for row, lp in zip(ids.tolist(), log_probs.tolist())]


def s0_sample_utterances(model: SpeakerModel, feats: np.ndarray,
                         rng: np.random.Generator,
                         per_context: int = 1) -> list[tuple[str, ...]]:
    """per_context descriptions of each (N, 3, F) context, context-major.

    The N * per_context rows are sampled SAMPLE_BATCH at a time; each batch
    encodes its contexts once. Rows are speaker-mode tokens without </s>, so
    a bare </s> gives (); each distinct id sequence is decoded once.
    """
    total = len(feats) * per_context
    decoded: dict[tuple[int, ...], tuple[str, ...]] = {}
    out = []
    for lo in range(0, total, SAMPLE_BATCH):
        hi = min(lo + SAMPLE_BATCH, total)
        first, last = lo // per_context, (hi - 1) // per_context
        batch = s0_sample_batch(model, feats[first:last + 1], rng,
                                rows=np.arange(lo, hi) // per_context - first)
        for ids, _ in batch:
            tokens = decoded.get(ids)
            if tokens is None:
                tokens = decoded[ids] = tuple(model.vocab.decode(list(ids))[:-1])
            out.append(tokens)
    return out


def s0_sample(model: SpeakerModel, colors: tuple[Color, Color, Color],
              target_index: int, rng: np.random.Generator,
              temperature: float = 1.0) -> UtteranceSample:
    """Sample one description of the target; log_prob is the model's own."""
    feats = reorder_target_last(colors, target_index)[None]
    ids, lp = s0_sample_batch(model, feats, rng, temperature)[0]
    return UtteranceSample(model.vocab.decode(list(ids)), lp)


def trial_speaker_ids(model: SpeakerModel, trial: ContextTrial) -> list[int]:
    tokens = preprocess(trial.speaker_texts, "speaker") + [EOS]
    return model.vocab.encode(tokens)


def train_s0(model: SpeakerModel, train_trials: list[ContextTrial],
             dev_trials: list[ContextTrial], config: TrainConfig) -> TrainingReport:
    """Minimize per-token cross-entropy; keep the best-dev-perplexity epoch.

    Trains with Adam at learning rate 0.004, clipping gradients to a global
    norm of 5.0. The model is left holding the best-dev-perplexity parameters.
    """
    ids = [np.array(trial_speaker_ids(model, t)) for t in train_trials]
    lengths = np.array([len(s) for s in ids])
    feats = contexts_target_last_features((t.colors, t.target_index) for t in train_trials)

    def batch_loss(batch):
        losses = _teacher_forced_losses(model, feats[batch],
                                        np.stack([ids[i] for i in batch]))
        return losses, int(lengths[batch].sum())

    def dev():
        ppl = dev_token_perplexity(model, dev_trials)
        return -ppl, {"dev_perplexity": ppl}

    return _fit(Adam(model.parameters()), lengths, batch_loss, dev, config)


def dev_token_perplexity(model: SpeakerModel, trials: list[ContextTrial]) -> float:
    """exp(mean per-token NLL) over a trial list, end tokens included."""
    id_seqs = [trial_speaker_ids(model, t) for t in trials]
    feats = contexts_target_last_features((t.colors, t.target_index) for t in trials)
    log_probs = s0_log_probs_batch(model, id_seqs, feats)
    n_tokens = sum(len(s) for s in id_seqs)
    return float(np.exp(-log_probs.sum() / n_tokens))
