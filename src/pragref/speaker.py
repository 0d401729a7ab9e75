"""The neural base speaker: context encoder + description decoder.

The three context colors (the distractors in lexicographic RGB order, then the
target) run through an LSTM encoder over their feature vectors; the encoder's
final cell state is the context vector. The decoder LSTM receives [context
vector ; previous-token embedding] at every step and predicts the next token
through an affine map and softmax over the vocabulary.
"""

from __future__ import annotations

import itertools

import numpy as np

from .colorspace import FOURIER_DIM, Color, fourier_features_array
from .corpus import EOS, ContextTrial, Vocabulary, preprocess
from .errors import require_count
from .nnsubstrate import (
    Adam,
    LstmCellParams,
    Parameter,
    Tensor,
    check_id_rows,
    concat,
    embed,
    lstm_bptt,
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
        for step in self._encoder_steps(feats):
            c = step[0][1]
            del step  # so that the next step is computed with this one freed
        return c

    def _encoder_steps(self, feats: np.ndarray):
        """Yield lstm_cell's outputs at each step of encode_contexts, holding
        none of them past the request for the next."""
        if feats.ndim != 3:
            raise ValueError(f"expected (B, 3, F) features, got {feats.shape}")
        cell = self.encoder
        h, c = np.zeros((2, len(feats), self.hidden_dim))
        for i in range(feats.shape[1]):
            gates = feats[:, i, :] @ cell.w_x.data
            if i:
                gates += h @ cell.w_h.data
            gates += cell.bias.data
            step = lstm_cell(gates, c)
            h, c = step[0]
            yield step
            del step

    def step_logits(self, ctx: Tensor, token_ids: np.ndarray,
                    h: Tensor, c: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """One decoder step: previous tokens (B,) -> next-token logits (B, V)."""
        x = concat([ctx, embed(token_ids, self.embedding)], axis=1)
        h2, c2 = lstm_step(x, h, c, self.decoder)
        return h2 @ self.out_w + self.out_b, h2, c2


# Stored-order indices of [distractor, distractor, target] per target index.
_TARGET_LAST_ORDER = np.array([[1, 2, 0], [0, 2, 1], [0, 1, 2]])


def target_last_order(rgb: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Stored-order color indices (N, 3) of [distractor, distractor, target] per context.

    rgb (N, 3, 3) holds each context's colors in stored order and targets
    (N,) the target index of each; lists of color triples and of ints work.
    The distractors go in lexicographic order of their RGB triples, so the
    order picks the same colors whatever the stored order.
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
    return order


def target_last_features(rgb: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Feature rows (N, 3, F) for [distractor, distractor, target] per context,
    the colors of rgb (N, 3, 3) in target_last_order, so the rows do not
    depend on the stored color order."""
    rgb = np.asarray(rgb, dtype=np.float64)
    order = target_last_order(rgb, targets)
    n = np.arange(len(order))
    return fourier_features_array(rgb.reshape(len(n), 3, 3)[n[:, None], order])


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


def _s0_losses_and_grads(model: SpeakerModel, feats: np.ndarray, ids: np.ndarray,
                         scale: float) -> np.ndarray:
    """_teacher_forced_losses (B,) of id rows ids (B, T) with target-last
    contexts feats (B, 3, F), with every parameter's .grad set to the gradient
    of scale times their sum. It builds no Tensor. An id outside the
    vocabulary raises IndexOutOfRange (check_id_rows) before any .grad is
    set, as _teacher_forced_losses' embed does.

    Forward: the encoder's steps as encode_contexts runs them; the decoder's
    context half of W_x and its bias once per batch, its word half for all
    steps in one product, and the output layer and log-softmax over all steps
    at once. Backward: explicit backpropagation through time, each weight
    gradient one product over the steps. The sums round differently from the
    tape's, so both outputs match it to within rounding, not bit for bit.
    """
    check_id_rows(ids, len(model.vocab))
    enc, dec, split = model.encoder, model.decoder, model.hidden_dim
    batch, n_steps = ids.shape
    enc_steps = list(model._encoder_steps(feats))
    ctx = enc_steps[-1][0][1]
    prev = np.concatenate([np.full(batch, model.vocab.bos_id), ids[:, :-1].T.ravel()])
    emb = model.embedding.data[prev]
    w_ctx, w_word = dec.w_x.data[:split], dec.w_x.data[split:]
    ctx_gates = ctx @ w_ctx
    ctx_gates += dec.bias.data
    gates = (emb @ w_word).reshape(n_steps, batch, -1)
    dec_steps = []
    for t in range(n_steps):
        gates[t] += ctx_gates
        if t:
            gates[t] += dec_steps[-1][0][0] @ dec.w_h.data
        dec_steps.append(lstm_cell(gates[t], dec_steps[-1][0][1] if t else 0.0))
    hs = np.stack([step[0][0] for step in dec_steps])
    flat_hs = hs.reshape(-1, split)

    logits = flat_hs @ model.out_w.data
    logits += model.out_b.data
    logits -= logits.max(axis=1, keepdims=True)
    rows, targets = np.arange(ids.size), ids.T.ravel()  # time-major, as prev
    picked = logits[rows, targets]
    probs = np.exp(logits, out=logits)
    sums = probs.sum(axis=1)
    losses = (np.log(sums) - picked).reshape(n_steps, batch).sum(axis=0)
    d_logits = probs  # scale * (softmax - one-hot), in place
    d_logits *= (scale / sums)[:, None]
    d_logits[rows, targets] -= scale

    model.out_w.grad = flat_hs.T @ d_logits
    model.out_b.grad = d_logits.sum(axis=0)
    d_dec = lstm_bptt(dec_steps, dec.w_h.data,
                      (d_logits @ model.out_w.data.T).reshape(hs.shape), 0.0)
    flat_dec = d_dec.reshape(ids.size, -1)
    d_ctx_gates = d_dec.sum(axis=0)
    dec.w_x.grad = np.concatenate([ctx.T @ d_ctx_gates, emb.T @ flat_dec])
    dec.w_h.grad = flat_hs[:-batch].T @ flat_dec[batch:]
    dec.bias.grad = d_ctx_gates.sum(axis=0)
    model.embedding.grad = np.zeros_like(model.embedding.data)
    np.add.at(model.embedding.grad, prev, flat_dec @ w_word.T)

    d_enc = lstm_bptt(enc_steps, enc.w_h.data, np.zeros((len(enc_steps),) + ctx.shape),
                      d_ctx_gates @ w_ctx.T)
    flat_enc = d_enc.reshape(-1, d_enc.shape[-1])
    enc.w_x.grad = feats.transpose(1, 0, 2).reshape(len(flat_enc), -1).T @ flat_enc
    enc.w_h.grad = np.concatenate([step[0][0] for step in enc_steps[:-1]]).T @ flat_enc[batch:]
    enc.bias.grad = flat_enc.sum(axis=0)
    return losses


def s0_log_prob(model: SpeakerModel, tokens: list[str],
                colors: tuple[Color, Color, Color], target_index: int) -> float:
    """Teacher-forced log probability of a token sequence ending with </s>.

    The per-row tape reference: it runs _teacher_forced_losses, the Tensor
    graph that train_s0's gradients are held to, on one row.
    """
    if not tokens or tokens[-1] != EOS:
        raise ValueError("speaker tokens must end with the end token </s>")
    ids = np.array([model.vocab.encode(tokens)])
    feats = reorder_target_last(colors, target_index)[None]
    return -float(_teacher_forced_losses(model, feats, ids).data[0])


def _check_features(feats: np.ndarray, contexts: int | None = None) -> None:
    """ValueError naming the shape unless feats is (contexts, 3, F), with any
    number of contexts when contexts is None."""
    shape = feats.shape
    if len(shape) != 3 or shape[1:] != (3, FOURIER_DIM) or contexts not in (None, shape[0]):
        want = "K" if contexts is None else contexts
        raise ValueError(f"expected features of shape ({want}, 3, {FOURIER_DIM}), got {shape}")


def _context_terms(model: SpeakerModel, feats: np.ndarray, contexts: list[int]) -> np.ndarray:
    """The decoder's context gate terms (len(contexts), 4 hidden) of the
    contexts of feats (K, 3, F) that the list contexts names.

    The decoder input [context ; embedding] is never formed: the context's
    half of the decoder's W_x and the gate bias are applied per context, the
    embedding's half per word (_s0_chunks' word table). Each distinct context
    is encoded once, in order of first use, so a list without repeats gets
    the encoded rows with no gathered copy.
    """
    first = {c: i for i, c in enumerate(dict.fromkeys(contexts))}
    cell = model.decoder
    terms = model.encode_contexts(feats[list(first)]) @ cell.w_x.data[:model.hidden_dim]
    terms += cell.bias.data
    return terms if len(first) == len(contexts) else terms[[first[c] for c in contexts]]


def _split_matmul(a: np.ndarray, w: np.ndarray, split: int) -> np.ndarray:
    """a @ w, with a's rows [:split] and [split:] multiplied as batches of their own.

    BLAS may round a row differently with the number of rows beside it, so
    each group gets the floats of its product alone.
    """
    if not 0 < split < len(a):
        return a @ w
    out = np.empty((len(a), w.shape[1]))
    np.matmul(a[:split], w, out=out[:split])
    np.matmul(a[split:], w, out=out[split:])
    return out


def _decoder_step(model: SpeakerModel, ctx: np.ndarray, words: np.ndarray,
                  prev: np.ndarray, hc: np.ndarray | None = None, split: int = 0
                  ) -> tuple[np.ndarray, np.ndarray]:
    """One forward-only decoder step of B rows; returns their next state and logits (B, V).

    ctx (B, 4 hidden) holds each row's context gate terms, words[prev] its
    previous word's (words is the word table of _s0_chunks, gathered here so
    that no gathered copy outlives the sum), and hc its (2, B, hidden)
    state [h; c], None at step 0, where the state is zero and h W_h is
    skipped. The first `split` rows and the rest go through the matrix
    products as separate batches (_split_matmul).
    """
    if hc is None:
        gates = words[prev]
        gates += ctx
        c = np.zeros((len(gates), model.hidden_dim))
    else:
        gates = _split_matmul(hc[0], model.decoder.w_h.data, split)
        gates += ctx
        gates += words[prev]
        c = hc[1]
    hc = lstm_cell(gates, c)[0]
    logits = _split_matmul(hc[0], model.out_w.data, split)
    logits += model.out_b.data
    return hc, logits


def _decode(model: SpeakerModel, tables: tuple[np.ndarray, np.ndarray],
            rng: np.random.Generator | None, node_of: np.ndarray, forced: np.ndarray,
            lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decoder-step loop: ancestral sampling of len(node_of) rows and
    teacher-forced scoring of the forced id rows, in the same decoder steps.

    forced (F, L) holds id rows padded after their lengths (F,), longest
    first. tables holds the context gate terms of the step-0 rows
    (_context_terms), one per forced row, then one per step-0 node of the
    sampled rows, and the word table; node_of (B,) maps each sampled row to
    its node. Pass tables as a temporary: _decode then holds the only
    reference to the step-0 rows, which are freed as the nodes regroup.
    Returns the sampled ids (B, MAX_DECODE_LEN), </s> after each row's first
    </s>, and the forced rows' log probabilities (F,).

    Sampling runs once per node, a distinct (context, prefix) that one or
    more live rows share; a row leaves the nodes once it emits </s>. The
    cumulative sampling distribution, which masks <s>, an input-only symbol,
    is computed per node. Every sampled step still draws one uniform per row
    of the whole batch, and each live row compares its own draw with its
    node's distribution, so the random stream is the same as decoding every
    row on its own until the last one ends. The rows that go on are
    regrouped by (node, chosen token) into the next step's nodes. Rows that
    reach MAX_DECODE_LEN get </s> forced.

    Each step runs _decoder_step once over the forced rows still scoring (a
    prefix, since they are sorted longest first) followed by the nodes,
    split between the two in the matrix products, so neither group's floats
    depend on the other's rows. The forced rows read their log probabilities
    off the same logits and draw no uniform: the random stream and every
    sampled row are those of sampling alone, and the scores those of scoring
    alone. The loop runs until the last sampled row and the longest forced
    row have ended.
    """
    ctx, words = tables
    del tables
    eos, bos, vocab_size = model.vocab.eos_id, model.vocab.bos_id, len(model.vocab)
    batch = len(node_of)
    live = np.arange(batch)  # sampled rows not yet ended
    ids = np.full((batch, MAX_DECODE_LEN), eos)
    scores = np.zeros(len(lengths))
    scoring = len(lengths)  # the first `scoring` forced rows are still scoring
    prev = np.full(len(ctx), bos)
    hc = None
    for step in itertools.count():
        hc, logits = _decoder_step(model, ctx, words, prev, hc, scoring)
        logits -= logits.max(axis=1, keepdims=True)  # log_softmax is logits - log of the exp sum
        if scoring:
            held = logits[:scoring]
            picked = held[np.arange(scoring), forced[:scoring, step]]
            scores[:scoring] += picked - np.log(np.exp(held, out=held).sum(axis=1))
        if live.size:
            if step == MAX_DECODE_LEN - 1:
                chosen = np.full(len(live), eos)
            else:
                z = logits[scoring:]
                z[:, bos] = -np.inf
                cum = np.exp(z - z.max(axis=1, keepdims=True))
                cum /= cum.sum(axis=1, keepdims=True)
                cum = cum.cumsum(axis=1)
                u = rng.random((batch, 1))[live]
                chosen = np.minimum((cum[node_of] < u).sum(axis=1), cum.shape[1] - 1)
            ids[live, step] = chosen  # each live row holds exactly `step` ids so far
            going = chosen != eos
            live = live[going]
            keys, node_of = np.unique(node_of[going] * vocab_size + chosen[going],
                                      return_inverse=True)
            parent, node_prev = np.divmod(keys, vocab_size)
        scored, scoring = scoring, int(np.count_nonzero(lengths > step + 1))
        if live.size and scoring:
            keep = np.concatenate([np.arange(scoring), scored + parent])
            prev = np.concatenate([forced[:scoring, step], node_prev])
        elif live.size:
            keep, prev = scored + parent, node_prev
        elif scoring:
            keep, prev = slice(scoring), forced[:scoring, step]
        else:
            return ids, scores
        ctx, hc = ctx[keep], hc[:, keep]


def _s0_chunks(model: SpeakerModel, feats: np.ndarray, rng: np.random.Generator | None,
               sampled: np.ndarray, scored: np.ndarray, forced: np.ndarray,
               lengths: np.ndarray):
    """The S0 chunk loop, the one caller of _decode.

    sampled (S,) gives the context in feats (K, 3, F) of each row to sample,
    and scored (R,) that of each id row of forced (R, L) to score, whose
    lengths (R,) run longest first. Each chunk takes the next SAMPLE_BATCH
    rows of each and encodes each context they use once, the scored rows'
    first (_context_terms); the word table is built once per call. Yields
    per chunk the slice it took of both, and _decode's sampled ids and scores.
    """
    words = model.embedding.data @ model.decoder.w_x.data[model.hidden_dim:]
    for lo in range(0, max(len(sampled), len(scored)), SAMPLE_BATCH):
        chunk = slice(lo, lo + SAMPLE_BATCH)
        nodes, node_of = np.unique(sampled[chunk], return_inverse=True)
        step0 = scored[chunk].tolist() + nodes.tolist()
        # the step-0 terms go in as a temporary, for _decode to free as the nodes regroup
        yield (chunk, *_decode(model, (_context_terms(model, feats, step0), words), rng,
                               node_of, forced[chunk], lengths[chunk]))


def _ended_ids(model: SpeakerModel, id_seqs: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """padded_ids of id rows that must end in </s>; ValueError names the first that does not."""
    padded, lengths = padded_ids(id_seqs, len(model.vocab))
    unended = padded[np.arange(len(lengths)), lengths - 1] != model.vocab.eos_id
    if unended.any():
        raise ValueError(f"id row {int(unended.argmax())} does not end with the end "
                         f"token </s>")
    return padded, lengths


def s0_log_probs_batch(model: SpeakerModel, id_seqs: list[list[int]],
                       feats: np.ndarray) -> np.ndarray:
    """Teacher-forced log probabilities (N,) of id rows ending in </s>.

    feats (N, 3, F) holds each row's context, target-last. The ids are
    checked once, up front: an empty row raises EmptyUtterance, an id
    outside the vocabulary IndexOutOfRange, and a row whose last id is not
    </s> ValueError, as in s0_log_prob.

    Forward only, in the S0 chunk loop (_s0_chunks) with no sampled rows:
    the rows are sorted by length, longest first, so the rows still decoding
    at any step are a prefix of the order. Each chunk takes at most
    SAMPLE_BATCH of them, encodes their contexts once, and walks the steps
    once, gathering log_softmax at each row's next id. The sums round
    differently from step_logits, so each row matches s0_log_prob to within
    1e-12, not bit for bit.
    """
    padded, lengths = _ended_ids(model, id_seqs)
    _check_features(feats, len(lengths))
    order = np.argsort(-lengths, kind="stable")
    out = np.empty(len(order))
    for chunk, _, scores in _s0_chunks(model, feats, None, order[:0], order,
                                       padded[order], lengths[order]):
        out[order[chunk]] = scores
    return out


def _type_indices(model: SpeakerModel, ids: np.ndarray, index: dict[tuple[int, ...], int],
                  types: list[tuple[str, ...]]) -> list[int]:
    """Each sampled id row's index into types, -1 for a bare </s>.

    ids holds _decode's sampled rows; each is cut after its first </s>.
    index maps the id rows seen so far to their types and starts as
    {(</s>,): -1}; an unseen row is decoded once, to speaker-mode tokens
    without </s>, and appended to types.
    """
    eos = model.vocab.eos_id
    out = []
    for row in ids.tolist():
        key = tuple(row[:row.index(eos) + 1])
        t = index.get(key)
        if t is None:
            t = index[key] = len(types)
            types.append(tuple(model.vocab.decode(list(key))[:-1]))
        out.append(t)
    return out


def s0_sample_utterances(model: SpeakerModel, feats: np.ndarray,
                         rng: np.random.Generator | None, per_context: int = 1,
                         score: list[int] | None = None
                         ) -> tuple[list[tuple[str, ...]], np.ndarray, np.ndarray | None]:
    """Sample per_context descriptions of each target-last context of feats
    (K, 3, F), dedupe them, and score the id row `score` under each context.

    Returns the distinct non-empty descriptions (speaker-mode tokens without
    </s>) in order of first draw; each of the K * per_context rows' index
    into them, context-major, -1 for a bare </s>; and the log probabilities
    (K,) of score, which must end in </s>, or None without score. Each
    distinct id sequence is decoded once. rng may be None only when nothing
    is sampled (per_context 0, or no contexts); otherwise None raises
    ValueError.

    Ancestral sampling in the S0 chunk loop (_s0_chunks), </s> forced at
    MAX_DECODE_LEN; the sampling distribution masks <s>, an input-only
    symbol. The decoder runs once per distinct (context, prefix) that live
    rows share, and the random stream is the same as decoding every row on
    its own. The scored rows draw no uniform: their scores equal
    s0_log_probs_batch([score] * K, feats) bit for bit for K up to
    SAMPLE_BATCH, and the draws equal those without score while the
    K * per_context rows fit one chunk. The sums round differently from
    step_logits, the tape's decoder step, so the ids are those of decoding
    each row through it unless a draw falls within that rounding of a
    boundary of the cumulative distribution.
    """
    require_count("per_context", per_context, minimum=0)
    _check_features(feats)
    if rng is None and per_context and len(feats):
        raise ValueError(f"sampling {per_context} per context needs a random generator, "
                         f"got rng=None")
    forced, lengths = _ended_ids(model, [] if score is None else [score])
    contexts = np.arange(len(feats))
    index: dict[tuple[int, ...], int] = {(model.vocab.eos_id,): -1}
    types: list[tuple[str, ...]] = []
    row_types = np.empty(len(feats) * per_context, dtype=int)
    log_probs = np.empty(len(feats) * len(lengths))
    for chunk, ids, scores in _s0_chunks(
            model, feats, rng, contexts.repeat(per_context), contexts.repeat(len(lengths)),
            forced.repeat(len(feats), axis=0), lengths.repeat(len(feats))):
        row_types[chunk] = _type_indices(model, ids, index, types)
        log_probs[chunk] = scores
    return types, row_types, None if score is None else log_probs


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

    Trains with Adam at ADAM_LR, whose step() clips the gradients to a global
    norm of GRAD_CLIP (constants of `nnsubstrate`). Each batch's losses and
    gradients come from _s0_losses_and_grads, off the tape, so a run matches
    a tape-trained one to within rounding, not bit for bit. The model is left
    holding the best-dev-perplexity parameters. Dev inputs are built once and
    scored after every epoch as dev_token_perplexity scores them.
    """
    id_rows, feats = _speaker_inputs(model, train_trials)
    ids = [np.array(row) for row in id_rows]
    lengths = np.array([len(s) for s in ids])
    dev_ids, dev_feats = _speaker_inputs(model, dev_trials)

    def batch_grad(batch):
        n_tokens = int(lengths[batch].sum())
        losses = _s0_losses_and_grads(model, feats[batch], np.stack([ids[i] for i in batch]),
                                      1.0 / n_tokens)
        return losses, n_tokens

    def dev():
        ppl = _token_perplexity(model, dev_ids, dev_feats)
        return -ppl, {"dev_perplexity": ppl}

    return fit(Adam(model.parameters()), lengths, batch_grad, dev, config)


def dev_token_perplexity(model: SpeakerModel, trials: list[ContextTrial]) -> float:
    """exp(mean per-token NLL) over a trial list, end tokens included."""
    return _token_perplexity(model, *_speaker_inputs(model, trials))
