"""Corpus ingestion, preprocessing, vocabularies, splits, and a synthetic fallback.

The canonical interchange format is JSON-lines, one trial per line:

    {"game_id": str, "round": int, "colors": [[r,g,b],[r,g,b],[r,g,b]],
     "target_index": 0|1|2, "condition": "far"|"split"|"close" (optional),
     "speaker_text": [str, ...], "clicked_index": int|null}

Colors are normalized floats in listener order. When no released corpus is
available, `synth_corpus` produces trials from a hand-coded template speaker
over a small color-term lexicon, which doubles as an exactly enumerable
generative model for oracle computations.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .colorspace import (
    Color,
    Condition,
    ciede2000_lab,
    classify_conditions,
    sample_contexts,
    srgb_to_lab,
)
from .errors import MissingField, ParseError, require_count

SPLIT_NAMES = ("train", "dev", "test")
SIGMA_MULT = 4.0  # message-length cutoff, in standard deviations above the mean
TRIALS_PER_GAME = 30  # rounds per synthetic game (dyad)


@dataclass
class ContextTrial:
    """One reference-game round.

    colors holds three `Color` tuples in listener order: numpy reads them as
    a (3, 3) context, and a list of trials' colors as (N, 3, 3). condition is
    None when the source gave no label.
    """

    game_id: str
    round: int
    colors: tuple[Color, Color, Color]
    target_index: int
    speaker_texts: list[str]
    condition: Condition | None = None
    clicked_index: int | None = None

    def combined_text(self) -> str:
        """Speaker messages for the round concatenated in order."""
        return " ".join(self.speaker_texts)


# -- preprocessing ------------------------------------------------------------

_SUFFIXES = ("est", "ish", "er")  # "est" before "er" so "darkest" strips once


def _split_word_punct(word: str) -> list[str]:
    """Split leading/trailing punctuation characters into their own tokens."""
    lead = []
    while word and not word[0].isalnum():
        lead.append(word[0])
        word = word[1:]
    trail = []
    while word and not word[-1].isalnum():
        trail.append(word[-1])
        word = word[:-1]
    return lead + ([word] if word else []) + list(reversed(trail))


def _split_suffixes(word: str) -> list[str]:
    """Peel trailing -er/-est/-ish while the stem keeps length >= 3 and ends
    in a letter or digit (so re-tokenizing the output changes nothing)."""
    suffixes: list[str] = []
    while True:
        for suf in _SUFFIXES:
            if (word.endswith(suf) and len(word) - len(suf) >= 3
                    and word[-len(suf) - 1].isalnum()):
                suffixes.append(suf)
                word = word[: -len(suf)]
                break
        else:
            break
    return [word] + list(reversed(suffixes))


def preprocess(utterances: str | list[str], mode: str = "listener") -> list[str]:
    """Lowercase and tokenize one round's speaker text.

    Splits punctuation into separate tokens. In listener mode the endings
    -er/-est/-ish are additionally split off as standalone suffix tokens
    (speaker mode keeps words unsegmented so model samples round-trip
    cleanly). A word that is exactly <unk> stays one token, as
    speaker_tokens_to_listener_tokens keeps it. Messages are joined in order.
    """
    if mode not in ("listener", "speaker"):
        raise ValueError(f"unknown preprocessing mode {mode!r}")
    if isinstance(utterances, str):
        utterances = [utterances]
    tokens: list[str] = []
    for text in utterances:
        for word in text.lower().split():
            for piece in [word] if word == UNK else _split_word_punct(word):
                if mode == "listener" and piece and piece[0].isalnum():
                    tokens.extend(_split_suffixes(piece))
                else:
                    tokens.append(piece)
    return tokens


# -- vocabulary ---------------------------------------------------------------


UNK, BOS, EOS = "<unk>", "<s>", "</s>"


@dataclass
class Vocabulary:
    """Dense token-id map with reserved <unk>, <s>, </s> entries.

    Every token must be a distinct string: ValueError names the first that
    is not a string or that repeats, which would otherwise map to its last id.
    """

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False)

    def __post_init__(self):
        if self.id_to_token[:3] != [UNK, BOS, EOS]:
            raise ValueError(f"vocabulary must start with {UNK}, {BOS}, {EOS}")
        self.token_to_id = {}
        for i, t in enumerate(self.id_to_token):
            if not isinstance(t, str):
                raise ValueError(f"vocabulary token {i} is not a string: {t!r}")
            if self.token_to_id.setdefault(t, i) != i:
                raise ValueError(f"vocabulary token {t!r} repeats: ids "
                                 f"{self.token_to_id[t]} and {i}")

    def __len__(self) -> int:
        return len(self.id_to_token)

    @property
    def unk_id(self) -> int:
        return 0

    @property
    def bos_id(self) -> int:
        return 1

    @property
    def eos_id(self) -> int:
        return 2

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.token_to_id.get(t, 0) for t in tokens]

    def decode(self, ids: list[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]


def build_vocab(train_token_seqs: list[list[str]]) -> Vocabulary:
    """Vocabulary over training tokens; frequency <= 1 maps to <unk>."""
    counts = Counter(t for seq in train_token_seqs for t in seq)
    kept = sorted(t for t, n in counts.items() if n >= 2 and t not in (UNK, BOS, EOS))
    return Vocabulary([UNK, BOS, EOS] + kept)


def speaker_tokens_to_listener_tokens(tokens: list[str]) -> list[str]:
    """Re-tokenize speaker-mode output (endings unsegmented) for the listener.

    Reserved tokens pass through unchanged so model samples never get shredded
    by punctuation splitting.
    """
    out: list[str] = []
    for tok in tokens:
        if tok in (UNK, BOS, EOS):
            if tok == UNK:
                out.append(tok)
            continue
        out.extend(preprocess(tok, "listener"))
    return out


# -- ingestion ----------------------------------------------------------------


@dataclass
class RejectedRow:
    line: int
    reason: str


@dataclass
class LoadResult:
    trials: list[ContextTrial]
    rejects: list[RejectedRow]


_REQUIRED_FIELDS = ("game_id", "round", "colors", "target_index", "speaker_text")


def _is_int(value) -> bool:
    """Whether a JSON value is an integer, not a bool, a float or a string."""
    return isinstance(value, int) and not isinstance(value, bool)


def _channel(value) -> float:
    """A JSON color channel as a float; a bool, a string or null is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"channel {value!r} is not a number")
    return float(value)


def _parse_row(obj: dict, line_no: int) -> ContextTrial:
    for key in _REQUIRED_FIELDS:
        if key not in obj:
            raise MissingField(f"missing field {key!r}", line_no)
    colors = obj["colors"]
    if not isinstance(colors, list) or len(colors) != 3:
        raise ParseError(f"expected 3 colors, got {len(colors) if isinstance(colors, list) else colors!r}",
                         line_no)
    try:
        # a JSON float needs no cast; every other channel goes through _channel
        triple = tuple(Color(*[ch if type(ch) is float else _channel(ch) for ch in c])
                       for c in colors)
    except (TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"bad color value: {e}", line_no)
    target = obj["target_index"]
    if not _is_int(target) or target not in (0, 1, 2):
        raise ParseError(f"target_index {target!r} not in 0..2", line_no)
    if not _is_int(obj["round"]):
        raise ParseError(f"round {obj['round']!r} is not an integer", line_no)
    texts = obj["speaker_text"]
    if isinstance(texts, str):
        texts = [texts]
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise ParseError("speaker_text must be a string or list of strings", line_no)
    if not any(t.split() for t in texts):  # preprocess would return no token
        raise ParseError("speaker text empty after preprocessing", line_no)
    condition = obj.get("condition")  # null or missing: no label
    if condition is not None:
        try:
            condition = Condition.from_label(condition)
        except ValueError:
            raise ParseError(f"unknown condition {condition!r}", line_no)
    clicked = obj.get("clicked_index")
    if clicked is not None and not (_is_int(clicked) and clicked in (0, 1, 2)):
        raise ParseError(f"clicked_index {clicked!r} not in 0..2", line_no)
    if not isinstance(obj["game_id"], str):
        raise ParseError(f"game_id {obj['game_id']!r} is not a string", line_no)
    return ContextTrial(
        game_id=obj["game_id"],
        round=obj["round"],
        colors=triple,
        target_index=target,
        speaker_texts=texts,
        condition=condition,
        clicked_index=clicked,
    )


def load_raw(path, strict: bool = False) -> LoadResult:
    """Parse a JSON-lines corpus file.

    Malformed rows are collected into the rejects report rather than silently
    dropped; with strict=True the first bad row raises ParseError instead.
    A row whose speaker text `preprocess` would turn into no token is
    malformed. That happens exactly when no message has a word under
    `str.split`: in either mode every such word yields at least one token,
    and lowercasing neither makes nor removes whitespace. So the check splits
    on whitespace and never tokenizes. A null or missing `condition` means no
    label; any other value must name a condition, ignoring case.
    """
    trials: list[ContextTrial] = []
    rejects: list[RejectedRow] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                try:
                    obj = json.loads(raw)
                except json.JSONDecodeError as e:
                    raise ParseError(f"invalid JSON: {e.msg}", line_no)
                if not isinstance(obj, dict):
                    raise ParseError("row is not a JSON object", line_no)
                trials.append(_parse_row(obj, line_no))
            except ParseError as e:
                if strict:
                    raise
                rejects.append(RejectedRow(line_no, str(e)))
    return LoadResult(trials, rejects)


def dump_trials(trials: list[ContextTrial], path) -> None:
    """Write trials back out in the canonical JSON-lines format."""
    with open(path, "w", encoding="utf-8") as fh:
        for t in trials:
            fh.write(json.dumps({
                "game_id": t.game_id,
                "round": t.round,
                "colors": t.colors,
                "target_index": t.target_index,
                "condition": t.condition.value if t.condition else None,
                "speaker_text": t.speaker_texts,
                "clicked_index": t.clicked_index,
            }) + "\n")


# -- filtering ----------------------------------------------------------------


@dataclass
class FilterResult:
    trials: list[ContextTrial]
    excluded_messages: int
    excluded_trials: int
    excluded_games: int
    word_cutoff: float


def filter_trials(trials: list[ContextTrial],
                  min_rounds: int | None = None) -> FilterResult:
    """Drop over-long messages and (optionally) incomplete games.

    The length cutoff is mean + SIGMA_MULT * std of per-message word counts,
    computed over the raw input corpus. A trial is dropped when its surviving
    messages would preprocess to no token, which by `load_raw`'s rule means
    none of them has a word: none survives, or only whitespace ones do. Games
    with fewer than min_rounds rounds are dropped entirely when min_rounds is
    given, as an integer of at least 1.
    """
    if min_rounds is not None:
        require_count("min_rounds", min_rounds)
    words = [[len(m.split()) for m in t.speaker_texts] for t in trials]
    lengths = np.array([n for counts in words for n in counts], dtype=np.float64)
    if lengths.size == 0:
        return FilterResult([], 0, 0, 0, 0.0)
    cutoff = float(lengths.mean() + SIGMA_MULT * lengths.std())

    dropped_games = set()
    if min_rounds is not None:
        rounds_per_game = Counter(t.game_id for t in trials)
        dropped_games = {g for g, n in rounds_per_game.items() if n < min_rounds}

    kept: list[ContextTrial] = []
    excluded_messages = 0
    excluded_trials = 0
    for t, counts in zip(trials, words):
        if t.game_id in dropped_games:
            continue
        msgs = [m for m, n in zip(t.speaker_texts, counts) if n <= cutoff]
        excluded_messages += len(t.speaker_texts) - len(msgs)
        if not any(n for n in counts if n <= cutoff):
            excluded_trials += 1
            continue
        if len(msgs) != len(t.speaker_texts):
            t = ContextTrial(t.game_id, t.round, t.colors, t.target_index,
                             msgs, t.condition, t.clicked_index)
        kept.append(t)
    return FilterResult(kept, excluded_messages, excluded_trials,
                        len(dropped_games), cutoff)


# -- splits -------------------------------------------------------------------


@dataclass
class SplitSpec:
    """Assignment of every dyad (game) to exactly one split."""

    assignment: dict[str, str]

    def split_of(self, trial: ContextTrial) -> str:
        return self.assignment[trial.game_id]


def split_by_dyad(trials: list[ContextTrial],
                  fractions: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3),
                  seed: int = 0) -> SplitSpec:
    """Deterministic dyad-level split; trial counts track the fractions.

    fractions must be three finite, non-negative numbers that sum to 1;
    anything else raises ValueError.
    """
    if (len(fractions) != 3 or not all(math.isfinite(f) and f >= 0 for f in fractions)
            or abs(sum(fractions) - 1.0) > 1e-9):
        raise ValueError(f"fractions must be three finite, non-negative numbers that sum "
                         f"to 1, got {tuple(fractions)!r}")
    game_sizes = Counter(t.game_id for t in trials)
    games = sorted(game_sizes)
    order = np.random.default_rng(seed).permutation(len(games))
    total = len(trials)
    targets = [f * total for f in fractions]
    filled = [0.0, 0.0, 0.0]
    assignment: dict[str, str] = {}
    for gi in order:
        game = games[gi]
        deficits = [targets[i] - filled[i] for i in range(3)]
        pick = int(np.argmax(deficits))
        assignment[game] = SPLIT_NAMES[pick]
        filled[pick] += game_sizes[game]
    return SplitSpec(assignment)


def apply_split(trials: list[ContextTrial], spec: SplitSpec) -> dict[str, list[ContextTrial]]:
    out: dict[str, list[ContextTrial]] = {name: [] for name in SPLIT_NAMES}
    for t in trials:
        out[spec.split_of(t)].append(t)
    return out


# -- synthetic template corpus -------------------------------------------------

# Prototype anchors for the template speaker's basic color terms.
BASIC_COLOR_ANCHORS: dict[str, tuple[float, float, float]] = {
    "red": (0.90, 0.10, 0.10),
    "orange": (1.00, 0.55, 0.05),
    "yellow": (1.00, 0.95, 0.10),
    "green": (0.10, 0.70, 0.15),
    "teal": (0.05, 0.55, 0.55),
    "blue": (0.10, 0.25, 0.85),
    "purple": (0.55, 0.15, 0.75),
    "pink": (0.95, 0.55, 0.75),
    "brown": (0.45, 0.28, 0.10),
    "gray": (0.50, 0.50, 0.50),
    "black": (0.05, 0.05, 0.05),
    "white": (0.95, 0.95, 0.95),
}

_ANCHOR_TERMS = list(BASIC_COLOR_ANCHORS)
_ANCHOR_LAB = srgb_to_lab(np.array([BASIC_COLOR_ANCHORS[t] for t in _ANCHOR_TERMS]))

# Per-condition form weights for the template speaker: bare term, shaded
# term, comparative, superlative, negation. Verbosity and superlative use
# rise far < split < close by construction. Forms whose predicates fail on a
# trial donate their mass to the always-available shaded form, so emission
# odds between candidate targets stay bounded instead of renormalizing.
_FORM_WEIGHTS = {
    Condition.FAR: {"base": 0.68, "shade": 0.26, "comparative": 0.04,
                    "superlative": 0.02, "negation": 0.0},
    Condition.SPLIT: {"base": 0.22, "shade": 0.40, "comparative": 0.22,
                      "superlative": 0.06, "negation": 0.10},
    Condition.CLOSE: {"base": 0.05, "shade": 0.36, "comparative": 0.22,
                      "superlative": 0.12, "negation": 0.25},
}
_SUP_MARGIN = 0.08
_CMP_MARGIN = 0.08

# Simulated listener click accuracy per condition.
_CLICK_ACCURACY = {Condition.FAR: 0.97, Condition.SPLIT: 0.90, Condition.CLOSE: 0.83}


# Colors per block in `nearest_basic_terms`; it bounds the (block, 12)
# distance temporaries, which for a whole corpus would raise peak memory.
_TERM_BLOCK = 256


def nearest_basic_terms(rgb: np.ndarray) -> list[str]:
    """The basic term nearest each of N colors, shape (N, 3), by CIEDE2000.

    Each color converts to Lab as its own (1, 3) row: a one-row product gives
    the bits of converting that color alone, while one (N, 3) product can
    differ in the last bit. CIEDE2000 is elementwise, so a color's term does
    not depend on the other colors in the call. Ties go to the earlier term
    in BASIC_COLOR_ANCHORS. Works in blocks of _TERM_BLOCK colors.
    """
    rgb = np.asarray(rgb, dtype=np.float64)
    if rgb.ndim != 2 or rgb.shape[1] != 3:
        raise ValueError(f"expected colors of shape (N, 3), got {rgb.shape}")
    rows = rgb[:, None, :]
    nearest = np.empty(len(rgb), dtype=np.intp)
    for start in range(0, len(rgb), _TERM_BLOCK):
        lab = srgb_to_lab(rows[start:start + _TERM_BLOCK])
        nearest[start:start + _TERM_BLOCK] = np.argmin(ciede2000_lab(lab, _ANCHOR_LAB), axis=1)
    return [_ANCHOR_TERMS[i] for i in nearest]


def template_emission(colors: tuple[Color, Color, Color], target_index: int,
                      condition: Condition) -> tuple[list[tuple[str, ...]], np.ndarray]:
    """The template speaker's exact utterance distribution for one trial.

    Returns parallel lists of token tuples and probabilities. Every utterance
    is true of the target under the template lexicon: the shade word comes
    from the target's own HSV value, its largest channel; "darker"/"darkest"
    fire only for dark-side targets that some/every other color exceeds in
    value (mirrored for light); negations name a distractor's basic term,
    never the target's, one enumerated option per distinct term. Only this
    entry point makes an array, with the bits of numpy's `w / w.sum()`: numpy
    sums fewer than 8 floats left to right, as the in-order total does (an
    emission has at most 6; Python 3.12's `sum` compensates, so it is unused).
    """
    rgb = np.array(colors, dtype=np.float64)
    utterances, probs = _template_emission(nearest_basic_terms(rgb), rgb.max(axis=1).tolist(),
                                           target_index, condition)
    return utterances, np.array(probs)


def _template_emission(terms: list[str], values: list[float], target_index: int,
                       condition: Condition) -> tuple[list[tuple[str, ...]], list[float]]:
    """template_emission given each color's nearest basic term and HSV value,
    the probabilities as Python floats, each weight over the in-order total."""
    base = terms[target_index]
    v_t = values[target_index]
    v_others = [values[i] for i in range(3) if i != target_index]
    shade = "dark" if v_t < 0.5 else "light"
    weights = _FORM_WEIGHTS[condition]

    # each form has its own tokens, and every weight set here is positive (the
    # table's one 0, FAR's negation, goes to the fallback)
    options = {(base,): weights["base"]}
    fallback = weights["shade"]

    if shade == "dark" and max(v_others) > v_t + _CMP_MARGIN:
        options[("darker", base)] = weights["comparative"]
    elif shade == "light" and min(v_others) < v_t - _CMP_MARGIN:
        options[("lighter", base)] = weights["comparative"]
    else:
        fallback += weights["comparative"]

    if shade == "dark" and v_t <= min(v_others) - _SUP_MARGIN:
        options[("darkest", base)] = weights["superlative"]
    elif shade == "light" and v_t >= max(v_others) + _SUP_MARGIN:
        options[("lightest", base)] = weights["superlative"]
    else:
        fallback += weights["superlative"]

    other_terms = sorted({terms[i] for i in range(3) if i != target_index} - {base})
    if other_terms and weights["negation"] > 0:
        for term in other_terms:
            options[("not", "the", term, "one")] = weights["negation"] / len(other_terms)
    else:
        fallback += weights["negation"]

    options[(shade, base)] = fallback

    total = list(accumulate(options.values()))[-1]
    return list(options), [w / total for w in options.values()]


def synth_corpus(n_trials: int, rng: np.random.Generator) -> list[ContextTrial]:
    """Generate a synthetic corpus with an equal condition mix.

    Contexts come from the rejection sampler; utterances from the template
    speaker; listener clicks are simulated at fixed per-condition accuracy.
    Games hold TRIALS_PER_GAME consecutive trials. Raises ValueError if
    n_trials is negative, not an integer, or a bool; 0 gives no trial.
    A description is the `bisect_right` of one `rng.random()` in the
    cumulative probabilities over their last entry, and a missed click the
    other index `rng.integers(0, 2)`: the stream and draws of
    `Generator.choice(n, p=probs)` and `Generator.choice(others)`.
    """
    require_count("n_trials", n_trials, minimum=0)
    counts = [n_trials // 3] * 3
    for i in range(n_trials - sum(counts)):
        counts[i] += 1

    rows: list[tuple[Condition, tuple[Color, Color, Color], int]] = []
    sampled: list[np.ndarray] = []
    for cond, n in zip(Condition, counts):
        if n == 0:
            continue
        cols, targets = sample_contexts(cond, n, rng)
        sampled.append(cols)
        rows += [(cond, tuple(Color(*c) for c in ctx), target)
                 for ctx, target in zip(cols.tolist(), targets.tolist())]
    rgb = np.concatenate(sampled).reshape(-1, 3) if rows else np.empty((0, 3))
    terms = nearest_basic_terms(rgb)
    values = rgb.max(axis=1).tolist()

    order = rng.permutation(len(rows))
    trials: list[ContextTrial] = []
    for pos, ri in enumerate(order):
        cond, triple, target = rows[ri]
        utterances, probs = _template_emission(terms[3 * ri:3 * ri + 3],
                                               values[3 * ri:3 * ri + 3], target, cond)
        cdf = list(accumulate(probs))
        tokens = utterances[bisect_right([c / cdf[-1] for c in cdf], rng.random())]
        clicked = (target if rng.random() < _CLICK_ACCURACY[cond]
                   else [i for i in range(3) if i != target][rng.integers(0, 2)])
        trials.append(ContextTrial(
            game_id=f"g{pos // TRIALS_PER_GAME:04d}",
            round=pos % TRIALS_PER_GAME + 1,
            colors=triple,
            target_index=target,
            speaker_texts=[" ".join(tokens)],
            condition=cond,
            clicked_index=clicked,
        ))
    return trials


def template_bayes_accuracy(trials: list[ContextTrial]) -> float:
    """Accuracy of the Bayes-optimal listener for the template generator.

    For each candidate target the emission distribution is enumerated exactly,
    under the condition `classify_conditions` gives the context. That pairwise
    label does not depend on the target, so every candidate gets the same
    one. The posterior over targets is the normalized utterance likelihood
    under a uniform target prior, in Python floats with `template_emission`'s
    bits. Ties, all-zero ones too, resolve to the lowest index.

    Every color is named in one `nearest_basic_terms` call and every context
    labelled in one `classify_conditions` call; each color's HSV value is its
    largest channel. Raises ValueError for no trials, and
    PerceptibilityViolation as `classify_conditions` does.
    """
    if not trials:
        raise ValueError("template_bayes_accuracy needs at least one trial")
    rgb = np.array([t.colors for t in trials], dtype=np.float64)
    terms = nearest_basic_terms(rgb.reshape(-1, 3))
    values = rgb.max(axis=2).tolist()
    conditions = classify_conditions(rgb)
    correct = 0
    for k, t in enumerate(trials):
        observed = tuple(preprocess(t.combined_text(), "speaker"))
        likelihood = []
        for cand in range(3):
            utterances, probs = _template_emission(terms[3 * k:3 * k + 3], values[k], cand,
                                                   conditions[k])
            likelihood.append(probs[utterances.index(observed)] if observed in utterances else 0.0)
        correct += likelihood.index(max(likelihood)) == t.target_index
    return correct / len(trials)
