"""The neural base speaker: context encoder + description decoder.

The three context colors (the distractors in lexicographic RGB order, then the
target) run through an LSTM encoder over their feature vectors; the encoder's
final cell state is the context vector. The decoder LSTM receives [context
vector ; previous-token embedding] at every step and predicts the next token
through an affine map and softmax over the vocabulary.
"""

from __future__ import annotations

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
    log_softmax,
    lstm_cell,
    lstm_step,
    padded_ids,
    run_lstm,
    softmax_xent,
)
from .training import TrainConfig, TrainingReport, fit

MAX_DECODE_LEN = 20
SAMPLE_BATCH = 1024


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

    @classmethod
    def create(cls, vocab: Vocabulary, rng: np.random.Generator,
               embed_dim: int = 100, hidden_dim: int = 100) -> "SpeakerModel":
        scale = 1.0 / np.sqrt(hidden_dim)
        return cls(
            vocab,
            LstmCellParams.create("encoder", FOURIER_DIM, hidden_dim, rng),
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

    def encode_contexts(self, feats: np.ndarray) -> np.ndarray:
        """encode, forward only on plain arrays: context vectors (B, hidden).

        The operations of encode in its order, except that h W_h is skipped
        at step 0, where h is zero, so the result equals encode's.
        """
        if feats.ndim != 3:
            raise ValueError(f"expected (B, 3, F) features, got {feats.shape}")
        cell = self.encoder
        h, c = np.zeros((2, len(feats), self.hidden_dim))
        for i in range(feats.shape[1]):
            gates = feats[:, i, :] @ cell.w_x.data
            if i:
                gates += h @ cell.w_h.data
            gates += cell.bias.data
            h, c = lstm_cell(gates, c)[0]
        return c

    def step_logits(self, ctx: Tensor, token_ids: np.ndarray,
                    h: Tensor, c: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """One decoder step: previous tokens (B,) -> next-token logits (B, V)."""
        x = concat([ctx, embed(token_ids, self.embedding)], axis=1)
        h2, c2 = lstm_step(x, h, c, self.decoder)
        return h2 @ self.out_w + self.out_b, h2, c2


# Stored-order indices of [distractor, distractor, target] per target index.
_TARGET_LAST_ORDER = np.array([[1, 2, 0], [0, 2, 1], [0, 1, 2]])


def target_last_features(rgb: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Feature rows (N, 3, F) for [distractor, distractor, target] per context.

    rgb (N, 3, 3) holds each context's colors in stored order and targets
    (N,) the target index of each; lists of color triples and of ints work.
    The distractors go in lexicographic order of their RGB triples, so the
    rows do not depend on the stored color order.
    """
    rgb = np.asarray(rgb, dtype=np.float64)
    targets = np.asarray(targets)
    if targets.size == 0:  # no contexts, as two empty lists give
        rgb, targets = rgb.reshape(0, 3, 3), targets.astype(int)
    if rgb.ndim != 3 or rgb.shape[1:] != (3, 3):
        raise ValueError(f"expected (N, 3, 3) colors, got {rgb.shape}")
    if targets.shape != (rgb.shape[0],):
        raise ValueError(f"expected {rgb.shape[0]} target indices, got shape {targets.shape}")
    if targets.size and (targets.min() < 0 or targets.max() > 2):
        raise ValueError("target indices must be 0, 1 or 2")
    n = np.arange(len(rgb))
    order = _TARGET_LAST_ORDER[targets]
    diff = rgb[n, order[:, 0]] - rgb[n, order[:, 1]]  # sign of the first channel that differs
    swap = diff[n, np.argmax(diff != 0.0, axis=1)] > 0.0
    order[swap, :2] = order[swap, 1::-1]
    return fourier_features_array(rgb[n[:, None], order])


def reorder_target_last(colors: tuple[Color, Color, Color],
                        target_index: int) -> np.ndarray:
    """Feature rows for [distractor, distractor, target], as target_last_features."""
    return target_last_features([colors], [target_index])[0]


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


def s0_log_prob(model: SpeakerModel, tokens: list[str],
                colors: tuple[Color, Color, Color], target_index: int) -> float:
    """Teacher-forced log probability of a token sequence ending with </s>.

    The per-row reference: it runs the training graph on one row.
    """
    if not tokens or tokens[-1] != EOS:
        raise ValueError("speaker tokens must end with the end token </s>")
    ids = np.array([model.vocab.encode(tokens)])
    feats = reorder_target_last(colors, target_index)[None]
    return -float(_teacher_forced_losses(model, feats, ids).data[0])


def _decoder_tables(model: SpeakerModel, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decoder's input gate terms per context of feats and per word.

    The decoder input [context ; embedding] is never formed. The context's
    half of the decoder's W_x and the gate bias are applied once per context
    of feats (K, 3, F), giving (K, 4 hidden), and the embedding's half once
    per call, giving a (V, 4 hidden) table.
    """
    cell, split = model.decoder, model.hidden_dim
    ctx = model.encode_contexts(feats) @ cell.w_x.data[:split] + cell.bias.data
    return ctx, model.embedding.data @ cell.w_x.data[split:]


def _decoder_step(model: SpeakerModel, ctx: np.ndarray, words: np.ndarray,
                  prev: np.ndarray, hc: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """One forward-only decoder step of B rows; returns their next state and logits (B, V).

    ctx (B, 4 hidden) holds each row's context gate terms, words[prev] its
    previous word's (words is _decoder_tables' word table, gathered here so
    that no gathered copy outlives the sum), and hc its (2, B, hidden)
    state [h; c], None at step 0, where the state is zero and h W_h is
    skipped.
    """
    if hc is None:
        gates = words[prev]
        gates += ctx
        c = np.zeros((len(gates), model.hidden_dim))
    else:
        gates = hc[0] @ model.decoder.w_h.data
        gates += ctx
        gates += words[prev]
        c = hc[1]
    hc = lstm_cell(gates, c)[0]
    logits = hc[0] @ model.out_w.data
    logits += model.out_b.data
    return hc, logits


def s0_log_probs_batch(model: SpeakerModel, id_seqs: list[list[int]],
                       feats: np.ndarray) -> np.ndarray:
    """Teacher-forced log probabilities (N,) of id rows ending in </s>.

    feats (N, 3, F) holds each row's context, target-last. The ids are
    checked once, up front: an empty row raises EmptyUtterance, an id
    outside the vocabulary IndexOutOfRange, and a row whose last id is not
    </s> ValueError, as in s0_log_prob.

    Forward only, on s0_sample_batch's kernels: the rows are sorted by
    length, longest first, so the rows still decoding at any step are a
    prefix of the order. Each pass takes at most SAMPLE_BATCH of them,
    encodes their contexts once, and walks the steps once, gathering
    log_softmax at each row's next id. The sums round differently from
    step_logits, so each row matches s0_log_prob to within 1e-12, not bit
    for bit.
    """
    padded, lengths = padded_ids(id_seqs, len(model.vocab))
    unended = padded[np.arange(len(lengths)), lengths - 1] != model.vocab.eos_id
    if unended.any():
        raise ValueError(f"id row {int(unended.argmax())} does not end with the end "
                         f"token </s>")
    if feats.shape != (len(lengths), 3, FOURIER_DIM):
        raise ValueError(f"expected features of shape ({len(lengths)}, 3, {FOURIER_DIM}), "
                         f"got {feats.shape}")
    order = np.argsort(-lengths, kind="stable")
    out = np.empty(len(order))
    for lo in range(0, len(order), SAMPLE_BATCH):
        rows = order[lo:lo + SAMPLE_BATCH]
        ctx, words = _decoder_tables(model, feats[rows])
        lens, ids = lengths[rows], padded[rows]
        total = np.zeros(len(rows))
        prev = np.full(len(rows), model.vocab.bos_id)
        hc = None
        for t in range(lens[0]):
            live = np.count_nonzero(lens > t)  # the first `live` rows
            hc, logits = _decoder_step(model, ctx[:live], words, prev[:live],
                                       None if hc is None else hc[:, :live])
            logits -= logits.max(axis=1, keepdims=True)  # log_softmax, at the targets only
            picked = logits[np.arange(live), ids[:live, t]]
            np.exp(logits, out=logits)
            total[:live] += picked - np.log(logits.sum(axis=1))
            prev = ids[:, t]
        out[rows] = total
    return out


def s0_sample_batch(model: SpeakerModel, feats: np.ndarray, rng: np.random.Generator,
                    rows: np.ndarray | None = None) -> list[tuple[tuple[int, ...], float]]:
    """Ancestral sampling for (B, 3, F) contexts; returns (ids, log_prob) rows.

    Each row's ids end at its first </s>, and log_prob is the model's log
    probability of them. The sampling distribution masks <s>, an input-only
    symbol; log_prob does not. Rows that reach MAX_DECODE_LEN get </s>
    forced, with its model log probability included.

    rows, when given, maps each output row to a context of feats: the encoder
    runs once per context of feats, (K, 3, F), and the batch has len(rows)
    rows, sampled as feats[rows] would be. rows must be 1-D indices into feats.

    The decoder runs once per node, a distinct (context, prefix) that one or
    more live rows share: the step-0 nodes are the distinct contexts of rows,
    and a row leaves the nodes once it emits </s>. The decoder step, the
    softmax and the cumulative sampling distribution are computed per node.
    Every sampled step still draws one uniform per row of the whole batch,
    and each live row compares its own draw with its node's distribution, so
    the random stream is the same as decoding every row on its own until the
    last one ends. The rows that go on are regrouped by (node, chosen token)
    into the next step's nodes.

    Forward only, on plain arrays: the encoder is encode_contexts, and each
    step adds a node's rows of the decoder tables (_decoder_tables) to
    h W_h before lstm_cell. The sums therefore round differently from
    step_logits, the training path: log probabilities agree with decoding
    every row through step_logits to within 1e-12, and the ids are the same
    unless a draw falls within that rounding of a boundary of the cumulative
    distribution.
    """
    eos, vocab_size = model.vocab.eos_id, len(model.vocab)
    rows = np.arange(len(feats)) if rows is None else np.asarray(rows)
    if rows.ndim != 1 or not (rows.size == 0 or np.issubdtype(rows.dtype, np.integer)):
        raise ValueError(f"rows must be a 1-D array of context indices, got shape "
                         f"{rows.shape} and dtype {rows.dtype}")
    if rows.size and (rows.min() < 0 or rows.max() >= len(feats)):
        raise ValueError(f"rows must index the {len(feats)} contexts of feats, "
                         f"got indices from {rows.min()} to {rows.max()}")
    batch = len(rows)
    if batch == 0:
        return []
    nodes, node_of = np.unique(rows, return_inverse=True)  # node of each live row
    ctx, words = _decoder_tables(model, feats)
    ctx = ctx[nodes]
    hc = None
    prev = np.full(len(ctx), model.vocab.bos_id)
    live = np.arange(batch)  # rows not yet ended
    ids = np.full((batch, MAX_DECODE_LEN), eos)
    log_probs = np.zeros(batch)
    for step in range(MAX_DECODE_LEN):
        hc, logits = _decoder_step(model, ctx, words, prev, hc)
        z = logits - logits.max(axis=1, keepdims=True)
        logp = log_softmax(z)  # z's maximum is 0, so its shift leaves z as it is
        if step == MAX_DECODE_LEN - 1:
            chosen = np.full(len(live), eos)
        else:
            z[:, model.vocab.bos_id] = -np.inf
            cum = np.exp(z - z.max(axis=1, keepdims=True))
            cum /= cum.sum(axis=1, keepdims=True)
            cum = cum.cumsum(axis=1)
            u = rng.random((batch, 1))[live]
            chosen = np.minimum((cum[node_of] < u).sum(axis=1), cum.shape[1] - 1)
        ids[live, step] = chosen  # each live row holds exactly `step` ids so far
        log_probs[live] += logp[node_of, chosen]
        going = chosen != eos
        if not going.any():
            break
        live = live[going]
        keys, node_of = np.unique(node_of[going] * vocab_size + chosen[going],
                                  return_inverse=True)
        parent, prev = np.divmod(keys, vocab_size)
        ctx, hc = ctx[parent], hc[:, parent]
    return [(tuple(row[:row.index(eos) + 1]), lp)
            for row, lp in zip(ids.tolist(), log_probs.tolist())]


def s0_sample_utterances(model: SpeakerModel, feats: np.ndarray, rng: np.random.Generator,
                         per_context: int = 1) -> tuple[list[tuple[str, ...]], np.ndarray]:
    """Sample per_context descriptions of each (N, 3, F) context and dedupe them.

    The N * per_context rows are context-major and sampled SAMPLE_BATCH at a
    time; each batch encodes its contexts once. Returns the distinct
    non-empty descriptions (speaker-mode tokens without </s>) in order of
    first draw, and each row's index into them, -1 for a bare </s>. Each
    distinct id sequence is decoded once.
    """
    total = len(feats) * per_context
    index: dict[tuple[int, ...], int] = {(model.vocab.eos_id,): -1}
    types: list[tuple[str, ...]] = []
    row_types = np.empty(total, dtype=int)
    for lo in range(0, total, SAMPLE_BATCH):
        hi = min(lo + SAMPLE_BATCH, total)
        first, last = lo // per_context, (hi - 1) // per_context
        batch = s0_sample_batch(model, feats[first:last + 1], rng,
                                rows=np.arange(lo, hi) // per_context - first)
        for row, (ids, _) in enumerate(batch, lo):
            t = index.get(ids)
            if t is None:
                t = index[ids] = len(types)
                types.append(tuple(model.vocab.decode(list(ids))[:-1]))
            row_types[row] = t
    return types, row_types


def trial_speaker_ids(model: SpeakerModel, trial: ContextTrial) -> list[int]:
    tokens = preprocess(trial.speaker_texts, "speaker") + [EOS]
    return model.vocab.encode(tokens)


def _speaker_inputs(model: SpeakerModel, trials: list[ContextTrial]):
    """Id rows ending in </s> and target-last features (N, 3, F) of a nonempty trial list."""
    if not trials:
        raise ValueError("expected at least one trial, got an empty list")
    return ([trial_speaker_ids(model, t) for t in trials],
            target_last_features([t.colors for t in trials], [t.target_index for t in trials]))


def _token_perplexity(model: SpeakerModel, id_seqs: list[list[int]],
                      feats: np.ndarray) -> float:
    log_probs = s0_log_probs_batch(model, id_seqs, feats)
    n_tokens = sum(len(s) for s in id_seqs)
    return float(np.exp(-log_probs.sum() / n_tokens))


def train_s0(model: SpeakerModel, train_trials: list[ContextTrial],
             dev_trials: list[ContextTrial], config: TrainConfig) -> TrainingReport:
    """Minimize per-token cross-entropy; keep the best-dev-perplexity epoch.

    Trains with Adam at ADAM_LR, clipping gradients to a global norm of
    GRAD_CLIP (constants of `nnsubstrate`). The model is left holding the
    best-dev-perplexity parameters. Dev inputs are built once and scored after
    every epoch as dev_token_perplexity scores them.
    """
    id_rows, feats = _speaker_inputs(model, train_trials)
    ids = [np.array(row) for row in id_rows]
    lengths = np.array([len(s) for s in ids])
    dev_ids, dev_feats = _speaker_inputs(model, dev_trials)

    def batch_loss(batch):
        losses = _teacher_forced_losses(model, feats[batch],
                                        np.stack([ids[i] for i in batch]))
        return losses, int(lengths[batch].sum())

    def dev():
        ppl = _token_perplexity(model, dev_ids, dev_feats)
        return -ppl, {"dev_perplexity": ppl}

    return fit(Adam(model.parameters()), lengths, batch_loss, dev, config)


def dev_token_perplexity(model: SpeakerModel, trials: list[ContextTrial]) -> float:
    """exp(mean per-token NLL) over a trial list, end tokens included."""
    return _token_perplexity(model, *_speaker_inputs(model, trials))
