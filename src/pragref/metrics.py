"""Listener evaluation and behavioral analysis of speakers.

Listener agents are scored by accuracy (argmax matches the target, ties to
the lowest index) and perplexity, exp of the mean negative log probability of
the true target; a uniform three-way guesser scores exactly 3.

Speaker behavior is summarized by per-condition means of five surface
metrics over the non-empty descriptions, next to the share of empty ones.
Comparative/superlative detection uses suffix heuristics rather
than a part-of-speech tagger, and term specificity comes from the bundled
color-term depth table (see data/color_term_depths.csv; schema: term,depth)
rather than a lexical database; reports carry a header noting this.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .colorspace import (
    Color,
    Condition,
    classify_conditions,
    fourier_features_array,
    sample_contexts,
)
from .corpus import ContextTrial, preprocess
from .listener import accuracy_perplexity, l0_probs_many
from .rsa import S1_ALPHA, listener_ids_for
from .speaker import s0_sample_utterances, target_last_features

HEURISTICS_NOTE = ("comparatives/superlatives via suffix heuristics; "
                   "specificity via bundled color-term depth table")

_SPECIFICITY_THRESHOLD = 7
S1_POOL_SIZE = 24  # base-speaker candidates per context in the S1 sampler


# -- listener evaluation -------------------------------------------------------


@dataclass
class ConditionStats:
    n: int
    accuracy: float
    perplexity: float


@dataclass
class EvalReport:
    accuracy: float
    perplexity: float
    n_trials: int
    per_condition: dict[str, ConditionStats] = field(default_factory=dict)


def _conditions(trials: list[ContextTrial]) -> list[Condition]:
    """Each trial's condition: the stored one, else its `classify_conditions` label.

    Every trial with no stored condition is labelled in one call, at the
    module thresholds `colorspace.THRESHOLDS`.
    """
    unlabelled = [t.colors for t in trials if t.condition is None]
    found = iter(classify_conditions(np.array(unlabelled)) if unlabelled else [])
    return [t.condition or next(found) for t in trials]


def evaluate_probs(probs: np.ndarray, trials: list[ContextTrial]) -> EvalReport:
    """Score precomputed per-trial distributions (N, 3); N must be at least 1.

    Trials with no stored condition are labelled by `classify_conditions`.
    """
    if not trials:
        raise ValueError("cannot score zero trials")
    targets = np.array([t.target_index for t in trials])
    acc, ppl = accuracy_perplexity(probs, targets)
    report = EvalReport(acc, ppl, len(trials))
    conditions = np.array([c.value for c in _conditions(trials)])
    for cond in sorted(set(conditions)):
        mask = conditions == cond
        c_acc, c_ppl = accuracy_perplexity(probs[mask], targets[mask])
        report.per_condition[cond] = ConditionStats(int(mask.sum()), c_acc, c_ppl)
    return report


@dataclass
class HumanAccuracyReport:
    per_condition: dict[str, float]
    n_missing_click: int


def human_accuracy(trials: list[ContextTrial]) -> HumanAccuracyReport:
    """Per-condition fraction of clicks on the target.

    Trials without a click are counted and excluded; conditions with no
    clickable trials are omitted from the result rather than reported as 0.
    Clicked trials with no stored condition are labelled by
    `classify_conditions`.
    """
    clicked = [t for t in trials if t.clicked_index is not None]
    hits: dict[str, int] = {}
    totals: dict[str, int] = {}
    for t, cond in zip(clicked, _conditions(clicked)):
        totals[cond.value] = totals.get(cond.value, 0) + 1
        hits[cond.value] = hits.get(cond.value, 0) + (t.clicked_index == t.target_index)
    return HumanAccuracyReport(
        {c: hits[c] / totals[c] for c in sorted(totals)}, len(trials) - len(clicked))


# -- speaker behavior -----------------------------------------------------------


def _load_depth_table() -> dict[str, int]:
    path = resources.files("pragref.data") / "color_term_depths.csv"
    with path.open(encoding="utf-8") as fh:
        return {row["term"]: int(row["depth"]) for row in csv.DictReader(fh)}


_DEPTHS: dict[str, int] | None = None


def term_depth(token: str) -> int | None:
    """Specificity depth of a token, normalizing -er/-est/-ish variants.

    Candidates tried in order: the token itself, its stem, stem+'e' (bluish ->
    blue), and the stem with a doubled final consonant collapsed (reddish ->
    red). Returns None for tokens outside the table.
    """
    global _DEPTHS
    if _DEPTHS is None:
        _DEPTHS = _load_depth_table()
    candidates = [token]
    for suf in ("est", "ish", "er"):
        if token.endswith(suf) and len(token) - len(suf) >= 3:
            stem = token[: -len(suf)]
            candidates += [stem, stem + "e"]
            if len(stem) >= 2 and stem[-1] == stem[-2]:
                candidates.append(stem[:-1])
            break
    for cand in candidates:
        if cand in _DEPTHS:
            return _DEPTHS[cand]
    return None


@dataclass
class UtteranceFlags:
    comparative: bool
    superlative: bool
    negative: bool
    high_specificity: bool


def utterance_flags(text: str) -> UtteranceFlags:
    """Surface-pattern flags for one utterance (speaker-mode tokens)."""
    tokens = preprocess(text, "speaker")
    comparative = superlative = negative = high_spec = False
    for tok in tokens:
        if (tok.endswith("er") and len(tok) - 2 >= 3) or tok in ("more", "less"):
            comparative = True
        if tok.endswith("est") or tok in ("most", "least"):
            superlative = True
        if tok == "not":
            negative = True
        depth = term_depth(tok)
        if depth is not None and depth > _SPECIFICITY_THRESHOLD:
            high_spec = True
    return UtteranceFlags(comparative, superlative, negative, high_spec)


@dataclass
class ConditionBehavior:
    n: int
    chars: float
    words: float
    comparatives_pct: float
    high_specificity_pct: float
    negatives_pct: float
    superlatives_pct: float
    empty_pct: float


@dataclass
class BehaviorReport:
    per_condition: dict[str, ConditionBehavior]
    note: str = HEURISTICS_NOTE


def behavior_metrics(items: list[tuple[str, Condition]]) -> BehaviorReport:
    """Per-condition means of the five surface metrics, and the empty share.

    items: (raw utterance text, condition) pairs. Character and word counts
    use the raw text; flags use speaker-mode tokens. n counts every item, but
    the means cover only non-empty descriptions (0.0 when none is), so a
    speaker's empty samples show in empty_pct rather than shortening its
    descriptions. Each distinct text is measured once per call.
    """
    measured: dict[str, tuple[int, int, UtteranceFlags] | None] = {}
    buckets: dict[str, list[tuple[int, int, UtteranceFlags] | None]] = {}
    for text, cond in items:
        if text not in measured:
            words = len(text.split())
            measured[text] = (len(text), words, utterance_flags(text)) if words else None
        buckets.setdefault(cond.value, []).append(measured[text])
    per_condition = {}
    for cond, all_rows in sorted(buckets.items()):
        rows = [r for r in all_rows if r is not None]
        n = len(all_rows)
        k = len(rows) or 1  # every mean is 0.0 when all descriptions are empty
        per_condition[cond] = ConditionBehavior(
            n=n,
            chars=sum(r[0] for r in rows) / k,
            words=sum(r[1] for r in rows) / k,
            comparatives_pct=100.0 * sum(r[2].comparative for r in rows) / k,
            high_specificity_pct=100.0 * sum(r[2].high_specificity for r in rows) / k,
            negatives_pct=100.0 * sum(r[2].negative for r in rows) / k,
            superlatives_pct=100.0 * sum(r[2].superlative for r in rows) / k,
            empty_pct=100.0 * (n - len(rows)) / n,
        )
    return BehaviorReport(per_condition)


def behavior_metrics_for_trials(trials: list[ContextTrial]) -> BehaviorReport:
    """behavior_metrics of each trial's text under its condition, as evaluate_probs labels it."""
    return behavior_metrics([(t.combined_text(), cond)
                             for t, cond in zip(trials, _conditions(trials))])


# -- speaker comparison -----------------------------------------------------------


Context = tuple[tuple[Color, Color, Color], int, Condition]


def _speaker_features(contexts: list[Context]) -> np.ndarray:
    """The speaker's target-last feature rows (N, 3, F) of the contexts."""
    return target_last_features([c for c, _, _ in contexts], [t for _, t, _ in contexts])


class BaseSpeakerSampler:
    """Samples descriptions straight from the base speaker."""

    name = "s0"

    def __init__(self, model):
        self.model = model

    def sample_texts(self, contexts: list[Context],
                     rng: np.random.Generator) -> list[str]:
        types, row_types = s0_sample_utterances(self.model, _speaker_features(contexts), rng)
        return [" ".join(types[t]) if t >= 0 else "" for t in row_types.tolist()]


class PragmaticSpeakerSampler:
    """Samples an S0 candidate pool and reweights it by listener informativity.

    For each context, S1_POOL_SIZE samples are drawn from the base speaker for
    the actual target; candidate i is then chosen with probability
    proportional to L0(target | candidate_i)^S1_ALPHA. A context whose whole
    pool is bare end tokens gets "".
    """

    name = "s1"

    def __init__(self, l0_model, s0_model):
        self.l0_model = l0_model
        self.s0_model = s0_model

    def sample_texts(self, contexts: list[Context],
                     rng: np.random.Generator) -> list[str]:
        types, row_types = s0_sample_utterances(self.s0_model, _speaker_features(contexts), rng,
                                                S1_POOL_SIZE)
        pool = [r[r >= 0].tolist() for r in row_types.reshape(-1, S1_POOL_SIZE)]
        sizes = [len(cands) for cands in pool]

        # score every non-empty candidate against its own context
        type_ids = listener_ids_for(self.l0_model, types)
        flat_ids = [type_ids[t] for cands in pool for t in cands]
        probs = np.zeros((0, 3))
        if flat_ids:
            feats = fourier_features_array([c for c, _, _ in contexts])
            probs = l0_probs_many(self.l0_model, flat_ids, np.repeat(feats, sizes, axis=0))

        texts: list[str] = []
        for cands, scored, (_, target, _) in zip(pool, np.split(probs, np.cumsum(sizes)[:-1]),
                                                 contexts):
            if not cands:
                texts.append("")
                continue
            weights = np.maximum(scored[:, target], 1e-300) ** S1_ALPHA
            pick = rng.choice(len(cands), p=weights / weights.sum())
            texts.append(" ".join(types[cands[pick]]))
        return texts


def compare_speakers(s0_sampler, s1_sampler, contexts: list[Context],
                     seed: int = 0) -> dict[str, BehaviorReport]:
    """Behavioral reports for two speakers on the same contexts, side by side."""
    out = {}
    for k, sampler in enumerate((s0_sampler, s1_sampler)):
        rng = np.random.default_rng([seed, k])
        texts = sampler.sample_texts(contexts, rng)
        out[sampler.name] = behavior_metrics(
            [(text, cond) for text, (_, _, cond) in zip(texts, contexts)])
    return out


def condition_mix_contexts(n_per_condition: int, rng: np.random.Generator) -> list[Context]:
    """Synthetic evaluation contexts, n per condition, via the sampler."""
    contexts: list[Context] = []
    for cond in Condition:
        cols, targets = sample_contexts(cond, n_per_condition, rng)
        contexts += [(tuple(Color(*c) for c in ctx), target, cond)
                     for ctx, target in zip(cols.tolist(), targets.tolist())]
    return contexts
