"""Pragmatic reasoning: the exact recursive oracle and the neural agents.

The exact oracle works over a finite lexicon (truth table, costs, prior) in
rational arithmetic whenever the rationality exponent is integral and costs
are zero, so textbook examples reproduce exactly. The neural agents derive a
pragmatic speaker from the base listener by normalizing over a sampled
alternative multiset, and pragmatic listeners by inverting speakers through
Bayes' rule; geometric blends mix the resulting distributions.

One S0 entry, `s0_sample_utterances`, serves the sampled alternatives of
L2, built in one body by `compute_agents`, the pragmatic speaker sampler in
`metrics`, and the teacher-forced scoring of L1; L2 and the sampler both
weigh L0 by S1_ALPHA. Its chunk loop draws many rows per distinct context
and runs the decoder once per distinct (context, prefix) that live rows
share; the draws are deduped into utterance types, with -1 marking a bare
end token, which the listener cannot score. Each chunk encodes the contexts
its rows use once. `compute_agents` makes one S0 call per trial, and the
observed utterance's three scored rows ride in its first chunk's decoder
steps. `listener_ids_for` converts each distinct token to listener ids once per
call. `l0_probs_many` then runs the listener's LSTM once per distinct prefix
of the types, in a prefix tree. For L2 every type is scored against the one
context, whose feature rows L0 and S0 share: the quadratic form is folded
into the listener head once per context, and the target-independent
mu^T Sigma mu term is dropped. The pragmatic speaker sampler scores each row
against its own context, running the head on blocks of distinct types
whatever their lengths.

Every inference path is held to a tolerance, not to bits, and every
inference LSTM runs forward only on plain arrays. The S0 chunk loop, under
`s0_sample_utterances` and `s0_log_probs_batch`, applies its input weights
once per context and once per word; the listener's prefix
tree, under both L0 branches, gathers its input gates from one embedding
table per call and shares one tree across lengths. They round differently
from their per-row references (`step_logits` and `s0_log_prob`, `l0_score`,
`ListenerModel.scores` on one row), and `compute_agents` matches a per-row
evaluation to within 1e-12 in every probability, and in every sampled
utterance unless a draw falls within that rounding of a sampling boundary.
Within the loop, scored and sampled rows go through separate matrix
products, so L1 equals `neural_l1` bit for bit and sharing the steps moves
no sampled utterance. At `nnsubstrate.PARALLEL_ROWS` rows or more, the
encoder's rows and the sampled rows split into two halves on two threads,
each half its own product; the halves depend on row counts alone, so a run
on one CPU gives the same bits as one on two. At the paper's sizes,
`compute_agents` samples 192 rows per call, below the split; the samplers in
`metrics` reach it. A half's product may round a row differently from a product
over all the rows, within the same 1e-12. The per-row L0 branch, which
`evaluate_l0`, training's dev scoring and the pragmatic speaker sampler use,
runs the listener's head and `quad_form` on plain arrays with the floats of
`ListenerModel.head` and `quad_scores`: `quad_form` makes one BLAS product
per row, so a row scored in a block keeps the bits of its one-row call. Only
its prefix-tree states round differently, and it is held to the same 1e-12.
Where the head's mu is far larger than the color features, `l0_score`'s own
rounding nears that tolerance: it forms f - mu and sums products of order
|mu|^2 |Sigma|, which the fold never does.

Both base models train off the tape (`listener._l0_losses_and_grads` and
`speaker._s0_losses_and_grads`), and each batch's losses and gradients are
held to a tolerance against the tape's (`ListenerModel.scores` with
`softmax_xent`, and `_teacher_forced_losses`, with their backward passes):
the losses to 1e-12, and each gradient to 1e-12 of its parameter's largest
tape-gradient entry. A training run is therefore held to the tape's to
within rounding, not to bits. The clip that opens each optimizer step sums
each gradient's self-dot in the BLAS library's own order of additions (a
threaded BLAS may split it), so the clip scale, and every parameter after
it, agrees across BLAS builds and thread counts to within rounding.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .colorspace import Color
from .corpus import EOS, preprocess, speaker_tokens_to_listener_tokens
from .errors import VacuousUtterance, require_count
from .listener import ListenerModel, context_features, l0_probs_many
from .speaker import SpeakerModel, s0_sample_utterances, target_last_order

PROB_FLOOR = 1e-12
S1_ALPHA = 0.544  # pragmatic-speaker exponent over sampled alternatives

Utterance = tuple[str, ...]


# -- exact oracle ---------------------------------------------------------------


def _as_number(x):
    """Exact Fraction for ints and rational strings, float otherwise."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    return float(x)


@dataclass
class Lexicon:
    """Finite truth-table semantics with utterance costs and a referent prior."""

    utterances: list[str]
    truth: list[list[int]]
    costs: list[float] = field(default_factory=list)
    prior: list = field(default_factory=list)
    referents: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.truth or not self.truth[0]:
            raise ValueError(f"truth must hold at least one utterance row and one referent "
                             f"column, got {self.truth!r}")
        n_ref = len(self.truth[0])
        if any(len(row) != n_ref for row in self.truth):
            raise ValueError("ragged truth table")
        if len(self.truth) != len(self.utterances):
            raise ValueError("truth table rows must match utterances")
        for u, row in enumerate(self.truth):
            for r, value in enumerate(row):
                if value not in (0, 1):
                    raise ValueError(f"truth[{u}][{r}] is {value!r}; a truth value must be "
                                     f"0 or 1")
        for name, values, n, per in (("costs", self.costs, len(self.utterances), "utterance"),
                                     ("prior", self.prior, n_ref, "referent"),
                                     ("referents", self.referents, n_ref, "referent")):
            if values and len(values) != n:
                raise ValueError(f"{name} must hold one entry per {per} ({n}), "
                                 f"got {len(values)}")
        for u, cost in enumerate(self.costs):
            if not math.isfinite(cost):
                raise ValueError(f"costs entry {u} is {cost!r}; a cost must be finite")
        if not self.costs:
            self.costs = [0.0] * len(self.utterances)
        if not self.prior:
            self.prior = [Fraction(1, n_ref)] * n_ref
        else:
            self.prior = [_as_number(p) for p in self.prior]
        for r, p in enumerate(self.prior):
            if not math.isfinite(p) or p < 0:
                raise ValueError(f"prior entry {r} is {p}; a prior probability must be "
                                 f"finite and non-negative")
        if not self.referents:
            self.referents = [f"r{i + 1}" for i in range(n_ref)]
        total = sum(self.prior)
        if abs(float(total) - 1.0) > 1e-9:
            raise ValueError("prior must sum to 1")

    @property
    def n_referents(self) -> int:
        return len(self.truth[0])

    def utterance_index(self, u) -> int:
        return u if isinstance(u, int) else self.utterances.index(u)

    @classmethod
    def from_json(cls, path) -> "Lexicon":
        """The lexicon in a JSON file: utterances, truth, and optional costs, prior, referents."""
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        return cls(utterances=list(obj["utterances"]),
                   truth=[list(map(int, row)) for row in obj["truth"]],
                   costs=[float(c) for c in obj.get("costs", [])],
                   prior=list(obj.get("prior", [])),
                   referents=list(obj.get("referents", [])))


def _normalize(weights):
    total = sum(weights)
    if total == 0:
        raise VacuousUtterance("no support to normalize over")
    if isinstance(total, Fraction):
        return [w / total for w in weights]
    return [float(w) / float(total) for w in weights]


def _speaker_weight(l0_val, alpha: float, cost: float):
    """exp(alpha*log l0 - cost); exact when alpha is integral and cost 0."""
    if l0_val == 0:
        return Fraction(0) if isinstance(l0_val, Fraction) else 0.0
    if isinstance(l0_val, Fraction) and float(alpha).is_integer() and cost == 0:
        return l0_val ** int(alpha)
    return float(l0_val) ** float(alpha) * math.exp(-cost)


def exact_l0(lex: Lexicon, u) -> list:
    """Literal listener: proportional to truth value times prior."""
    ui = lex.utterance_index(u)
    weights = [lex.truth[ui][t] * lex.prior[t] for t in range(lex.n_referents)]
    if sum(weights) == 0:
        raise VacuousUtterance(f"utterance {lex.utterances[ui]!r} is true of nothing")
    return _normalize(weights)


def exact_s1(lex: Lexicon, t: int, alpha: float = 1.0) -> list:
    """Pragmatic speaker: soft-max of informativity minus cost.

    Utterances whose literal listener puts zero mass on t (including vacuous
    utterances) get probability zero.
    """
    weights = []
    for ui in range(len(lex.utterances)):
        try:
            l0_val = exact_l0(lex, ui)[t]
        except VacuousUtterance:
            l0_val = 0
        weights.append(_speaker_weight(l0_val, alpha, lex.costs[ui]))
    if sum(weights) == 0:
        raise VacuousUtterance(f"no utterance identifies referent {t}")
    return _normalize(weights)


def exact_l2(lex: Lexicon, u, alpha: float = 1.0) -> list:
    """Pragmatic listener over the pragmatic speaker, via Bayes' rule."""
    return _invert_speaker(lex, u, lambda t: exact_s1(lex, t, alpha))


def exact_s0(lex: Lexicon, t: int) -> list:
    """Literal speaker: truth-gated, cost-weighted choice among utterances."""
    zero_cost = all(c == 0 for c in lex.costs)
    weights = []
    for ui in range(len(lex.utterances)):
        truth = lex.truth[ui][t]
        if zero_cost:
            weights.append(Fraction(truth))
        else:
            weights.append(truth * math.exp(-lex.costs[ui]))
    if sum(weights) == 0:
        raise VacuousUtterance(f"no utterance is true of referent {t}")
    return _normalize(weights)


def exact_l1(lex: Lexicon, u) -> list:
    """Pragmatic listener over the literal speaker."""
    return _invert_speaker(lex, u, lambda t: exact_s0(lex, t))


def _invert_speaker(lex: Lexicon, u, speaker) -> list:
    """Bayes' rule: P(t | u) ~ speaker(t)[u] * prior(t); vacuous referents get 0."""
    ui = lex.utterance_index(u)
    weights = []
    for t in range(lex.n_referents):
        try:
            s_val = speaker(t)[ui]
        except VacuousUtterance:
            s_val = 0
        weights.append(s_val * lex.prior[t])
    return _normalize(weights)


# -- configuration ----------------------------------------------------------------


@dataclass
class PragmaticsConfig:
    """All pragmatic-reasoning knobs in one place; the blend weights must be finite."""

    m: int = 8                    # speaker samples per target index
    n: int = 8                    # alternative-set replicates to average
    beta_a: float = 0.492         # blend weight of L0 against L1
    beta_b: float = -0.15         # blend weight of L0 against L2
    gamma: float = 0.491          # final blend weight of La against Lb

    def __post_init__(self):
        require_count("m", self.m)
        require_count("n", self.n)
        for name in ("beta_a", "beta_b", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")


# -- neural pragmatic agents --------------------------------------------------------


def s1_table_from_probs(l0_probs: np.ndarray, counts: np.ndarray,
                        alpha: float) -> np.ndarray:
    """Pragmatic-speaker tables: column-normalized count * L0^alpha weights.

    l0_probs (T, 3) holds L0 for each utterance type; counts (..., T) the
    multiplicity of each type in one or more alternative multisets, 0 for a
    type a multiset lacks. Returns (..., T, 3), each column summing to 1 over
    types. Invariant to scaling an L0 column.
    """
    powered = np.maximum(l0_probs, 1e-300) ** alpha
    weighted = counts[..., None] * powered
    return weighted / weighted.sum(axis=-2, keepdims=True)


def listener_ids_for(model: ListenerModel, utterances: list[Utterance]) -> list[list[int]]:
    """Listener ids of speaker-mode utterances, converting each distinct token once.

    speaker_tokens_to_listener_tokens re-tokenizes token by token, so an
    utterance's ids are its tokens' ids concatenated.
    """
    token_ids: dict[str, list[int]] = {}
    out = []
    for u in utterances:
        row: list[int] = []
        for tok in u:
            ids = token_ids.get(tok)
            if ids is None:
                ids = token_ids[tok] = model.vocab.encode(
                    speaker_tokens_to_listener_tokens([tok]))
            row.extend(ids)
        out.append(row)
    return out


def _as_speaker_utterance(u) -> Utterance:
    """Raw text or token sequence -> speaker-mode token tuple (no end token)."""
    if isinstance(u, str):
        return tuple(preprocess(u, "speaker"))
    tokens = tuple(u)
    return tokens[:-1] if tokens and tokens[-1] == EOS else tokens


def _trial_features(colors: tuple[Color, Color, Color]) -> tuple[np.ndarray, np.ndarray]:
    """A context's feature rows, computed once: L0's (3, F) in stored order,
    and S0's (3, 3, F), the same rows gathered in target_last_order for each
    target index."""
    feats = context_features(colors)
    return feats, feats[target_last_order([colors] * 3, np.arange(3))]


def _speaker_ids(model: SpeakerModel, observed: Utterance) -> list[int]:
    return model.vocab.encode(list(observed) + [EOS])


def _l1(log_probs: np.ndarray) -> np.ndarray:
    """L1 from S0's log probabilities (3,) of the utterance under each target."""
    shifted = log_probs - log_probs.max()
    probs = np.exp(shifted)
    return probs / probs.sum()


def neural_l1(s0_model: SpeakerModel, u,
              colors: tuple[Color, Color, Color]) -> np.ndarray:
    """Speaker-based listener: score u under each candidate target, normalize.

    compute_agents' L1 without its samples: the same features and the same
    S0 call (s0_sample_utterances), so the two are equal bit for bit.
    Identical context colors give the uniform distribution by symmetry.
    """
    ids = _speaker_ids(s0_model, _as_speaker_utterance(u))
    return _l1(s0_sample_utterances(s0_model, _trial_features(colors)[1], None, 0, ids)[2])


def blend(p: np.ndarray, q: np.ndarray, w: float) -> np.ndarray:
    """Renormalized geometric mixture p^w * q^(1-w), floored at 1e-12.

    p and q are distributions over the last axis: one (3,) or a batch (N, 3),
    each row renormalized on its own.
    """
    log_p = np.log(np.maximum(np.asarray(p, dtype=np.float64), PROB_FLOOR))
    log_q = np.log(np.maximum(np.asarray(q, dtype=np.float64), PROB_FLOOR))
    mix = w * log_p + (1.0 - w) * log_q
    mix -= mix.max(axis=-1, keepdims=True)
    out = np.exp(mix)
    return out / out.sum(axis=-1, keepdims=True)


def compute_agents(l0_model: ListenerModel, s0_model: SpeakerModel, u,
                   colors: tuple[Color, Color, Color], cfg: PragmaticsConfig,
                   rng: np.random.Generator) -> dict[str, np.ndarray]:
    """All six listener distributions for one trial, sharing intermediate work.

    L2 is the pragmatic listener over sampled alternative sets, averaged n
    times. Per replicate: draw m speaker samples per target index, add the
    observed utterance, form the pragmatic speaker over that multiset at
    exponent S1_ALPHA, and renormalize its observed-utterance row across
    targets. The n replicate distributions are averaged arithmetically.

    The context's three feature rows are computed once: L0 scores against
    them as stored, and S0 reads them gathered target-last. One S0 call
    (s0_sample_utterances) draws the 3 * n * m samples, SAMPLE_BATCH rows
    per chunk, each chunk encoding the target-last contexts its rows use
    once, and scores the observed utterance under each target for L1 in the
    first chunk's decoder steps. The m rows of target t, replicate r start at row
    (t * n + r) * m. Since the three targets share one batch, the random
    stream, and so L2 for a given seed, differs from drawing each target's
    rows in a batch of its own; scoring L1 draws nothing from it. Each
    distinct utterance, the observed one included, is scored by L0 once, and
    the n replicate S1 tables are built together from an (n, types) count
    matrix. L0 is the observed row of that L0 table: its speaker-mode tokens,
    re-tokenized for the listener, are the listener-mode tokens of the text.
    L1 equals neural_l1 bit for bit.
    """
    feats, s0_feats = _trial_features(colors)
    observed = _as_speaker_utterance(u)
    types, row_types, log_probs = s0_sample_utterances(
        s0_model, s0_feats, rng, cfg.n * cfg.m, _speaker_ids(s0_model, observed))
    if observed not in types:
        types.append(observed)
    obs = types.index(observed)
    probs = l0_probs_many(l0_model, listener_ids_for(l0_model, types), feats)
    # rows are target-major, then replicate, then sample; count per replicate
    rep_types = row_types.reshape(3, cfg.n, cfg.m).transpose(1, 0, 2).reshape(cfg.n, -1)
    counts = np.zeros((cfg.n, len(types)))
    reps, kept = np.nonzero(rep_types >= 0)
    np.add.at(counts, (reps, rep_types[reps, kept]), 1.0)
    counts[:, obs] += 1.0
    s1_rows = s1_table_from_probs(probs, counts, S1_ALPHA)[:, obs]
    l0 = probs[obs]
    l1 = _l1(log_probs)
    l2 = (s1_rows / s1_rows.sum(axis=1, keepdims=True)).mean(axis=0)
    la = blend(l0, l1, cfg.beta_a)
    lb = blend(l0, l2, cfg.beta_b)
    le = blend(la, lb, cfg.gamma)
    return {"l0": l0, "l1": l1, "l2": l2, "la": la, "lb": lb, "le": le}
