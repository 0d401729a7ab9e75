import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pragref.colorspace import (
    Color,
    Condition,
    ConditionThresholds,
    ciede2000_lab,
    classify_conditions,
    sample_contexts,
    srgb_to_lab,
)
from pragref.corpus import (
    BASIC_COLOR_ANCHORS,
    ContextTrial,
    Vocabulary,
    apply_split,
    build_vocab,
    dump_trials,
    filter_trials,
    load_raw,
    nearest_basic_terms,
    preprocess,
    speaker_tokens_to_listener_tokens,
    split_by_dyad,
    synth_corpus,
    template_bayes_accuracy,
    template_emission,
)
from pragref.errors import ParseError, PerceptibilityViolation


def make_trial(game="g0", rnd=1, text="blue", target=0):
    return ContextTrial(game, rnd, (Color(0, 0, 1), Color(1, 0, 0), Color(0, 1, 0)),
                        target, [text])


class TestPreprocess:
    def test_listener_suffix_split(self):
        assert preprocess("Darker blue.", "listener") == ["dark", "er", "blue", "."]

    def test_speaker_keeps_endings(self):
        assert preprocess("bluish", "speaker") == ["bluish"]
        assert preprocess("Darker blue.", "speaker") == ["darker", "blue", "."]

    def test_punctuation_split(self):
        assert preprocess("blue, not teal", "listener") == ["blue", ",", "not", "teal"]

    @pytest.mark.parametrize("mode", ["listener", "speaker"])
    def test_unk_stays_whole(self, mode):
        # only <unk>: speaker_tokens_to_listener_tokens drops <s> and </s>
        assert preprocess("Dark <UNK> blue", mode) == ["dark", "<unk>", "blue"]
        assert preprocess("<unk>, <s>", mode) == ["<", "unk", ">", ",", "<", "s", ">"]

    def test_short_stems_kept(self):
        assert preprocess("her best dish", "listener") == ["her", "best", "dish"]

    def test_multiple_messages_concatenated(self):
        assert preprocess(["dark blue", "no wait teal"], "speaker") == \
            ["dark", "blue", "no", "wait", "teal"]

    @given(st.lists(st.text(alphabet="abest rih.,!", min_size=1, max_size=12),
                    min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    @example(["aa.ish"])
    @example(["ab,est"])
    def test_idempotent_on_own_output(self, texts):
        for mode in ("listener", "speaker"):
            once = preprocess(texts, mode)
            again = preprocess(" ".join(once), mode)
            assert once == again


    # Unicode whitespace (ideographic space, file separator, line separator,
    # no-break space), punctuation-only words and -er/-est/-ish words
    _PIECES = st.sampled_from([" ", "\t", "\n", "\u3000", "\x1c", "\u2028", "\xa0",
                               ".", ",!", "?", "-'", "Darker", "bluest", "greenish",
                               "er", "est", "ish", "a", "tEal", "İ"])

    @given(st.lists(st.lists(_PIECES, max_size=6).map("".join), max_size=4))
    @settings(max_examples=300, deadline=None)
    @example(["\u3000\x1c", "\u2028\xa0"])
    @example(["", "?"])
    def test_empty_exactly_when_no_message_has_a_word(self, texts):
        # the rule load_raw and filter_trials use in place of tokenizing
        for mode in ("listener", "speaker"):
            assert bool(preprocess(texts, mode)) == any(t.split() for t in texts)

    @given(st.text())
    @settings(max_examples=300, deadline=None)
    def test_speaker_tokens_retokenize_to_listener_tokens(self, text):
        # the pragmatic agents read L0 of an observed text off its
        # speaker-mode tokens re-tokenized for the listener
        assert speaker_tokens_to_listener_tokens(preprocess(text, "speaker")) == \
            preprocess(text, "listener")


class TestVocabulary:
    def test_min_count(self):
        vocab = build_vocab([["blue", "blue", "teal"], ["dark"], ["dark"]])
        assert "blue" in vocab.token_to_id
        assert "dark" in vocab.token_to_id
        assert "teal" not in vocab.token_to_id  # seen once -> unk
        assert vocab.encode(["teal"]) == [vocab.unk_id]

    def test_unseen_token_is_unk(self):
        vocab = build_vocab([["blue", "blue"]])
        assert vocab.encode(["magenta"]) == [vocab.unk_id]

    def test_ids_dense_and_reserved(self):
        vocab = build_vocab([["b", "b", "a", "a"]])
        assert vocab.id_to_token[:3] == ["<unk>", "<s>", "</s>"]
        assert sorted(vocab.token_to_id.values()) == list(range(len(vocab)))

    def test_encode_decode_round_trip(self):
        vocab = build_vocab([["blue", "blue", "dark", "dark"]])
        tokens = ["dark", "blue"]
        assert vocab.decode(vocab.encode(tokens)) == tokens

    def test_reserved_prefix_required(self):
        with pytest.raises(ValueError):
            Vocabulary(["<s>", "<unk>", "</s>", "blue"])

    @pytest.mark.parametrize("tokens, message", [
        (["<unk>", "<s>", "</s>", 7, "a"], "token 3 is not a string: 7"),
        (["<unk>", "<s>", "</s>", "a", None, 2.5], "token 4 is not a string: None"),
        (["<unk>", "<s>", "</s>", b"a"], "token 3 is not a string: b'a'"),
        (["<unk>", "<s>", "</s>", "a", "b", "a", "b"], "token 'a' repeats: ids 3 and 5"),
        (["<unk>", "<s>", "</s>", "a", "</s>"], "token '</s>' repeats: ids 2 and 4"),
        (["<unk>", "<s>", "</s>", "a", "a", 7], "token 'a' repeats: ids 3 and 4"),
    ])
    def test_tokens_must_be_distinct_strings(self, tokens, message):
        # the first fault in id order is named
        with pytest.raises(ValueError, match=message):
            Vocabulary(tokens)


class TestLoadRaw:
    def _write(self, tmp_path, rows):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(rows) + "\n")
        return path

    def _row(self, **overrides):
        row = {"game_id": "g1", "round": 1,
               "colors": [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]],
               "target_index": 0, "condition": "far",
               "speaker_text": ["blue"], "clicked_index": 0}
        row.update(overrides)
        return json.dumps(row)

    def test_well_formed(self, tmp_path):
        path = self._write(tmp_path, [self._row(round=i) for i in range(1, 4)])
        result = load_raw(path)
        assert len(result.trials) == 3
        assert not result.rejects
        assert result.trials[0].condition is Condition.FAR

    def test_two_colors_rejected(self, tmp_path):
        path = self._write(tmp_path, [
            self._row(),
            self._row(colors=[[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]),
        ])
        result = load_raw(path)
        assert len(result.trials) == 1
        assert len(result.rejects) == 1
        assert result.rejects[0].line == 2
        assert "3 colors" in result.rejects[0].reason

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        result = load_raw(path)
        assert result.trials == [] and result.rejects == []

    def test_missing_field_and_bad_json(self, tmp_path):
        row = json.loads(self._row())
        del row["target_index"]
        path = self._write(tmp_path, [json.dumps(row), "{not json"])
        result = load_raw(path)
        assert len(result.rejects) == 2
        assert "target_index" in result.rejects[0].reason

    def test_strict_raises(self, tmp_path):
        path = self._write(tmp_path, ["{not json"])
        with pytest.raises(ParseError):
            load_raw(path, strict=True)

    @pytest.mark.parametrize("condition, stored", [("FAR", Condition.FAR),
                                                   ("Close", Condition.CLOSE),
                                                   (None, None), ("missing", None)])
    def test_condition_label_or_none(self, tmp_path, condition, stored):
        row = json.loads(self._row(condition=condition))
        if condition == "missing":
            del row["condition"]
        result = load_raw(self._write(tmp_path, [json.dumps(row)]))
        assert not result.rejects
        assert result.trials[0].condition is stored

    @pytest.mark.parametrize("field, value", [("condition", "medium"), ("round", "first"),
                                              ("round", 1.5), ("target_index", True),
                                              ("target_index", 2.0),
                                              ("clicked_index", False),
                                              ("game_id", None), ("game_id", ["g1"]),
                                              ("game_id", True), ("game_id", 7),
                                              ("condition", ""), ("condition", False),
                                              ("condition", 0), ("condition", []),
                                              ("condition", {})])
    def test_bad_field_value_rejected(self, tmp_path, field, value):
        path = self._write(tmp_path, [self._row(), self._row(**{field: value})])
        result = load_raw(path)
        assert len(result.trials) == 1
        assert [r.line for r in result.rejects] == [2]
        assert field.split("_")[0] in result.rejects[0].reason
        with pytest.raises(ParseError, match="line 2") as e:
            load_raw(path, strict=True)
        assert e.value.line == 2

    @pytest.mark.parametrize("text", ["   ", "\u3000\x1c\u2028\xa0", ["", " \t"], ["\n"], []])
    def test_whitespace_text_rejected(self, tmp_path, text):
        path = self._write(tmp_path, [self._row(speaker_text=text), self._row()])
        result = load_raw(path)
        assert len(result.trials) == 1
        assert [(r.line, r.reason) for r in result.rejects] == \
            [(1, "line 1: speaker text empty after preprocessing")]

    @pytest.mark.parametrize("text, stored", [("?", ["?"]), (["", "?"], ["", "?"]),
                                              (["\u3000", "ok"], ["\u3000", "ok"])])
    def test_text_with_one_word_accepted(self, tmp_path, text, stored):
        result = load_raw(self._write(tmp_path, [self._row(speaker_text=text)]))
        assert not result.rejects
        assert result.trials[0].speaker_texts == stored

    @pytest.mark.parametrize("color, reason", [([0.1, 1.3, 0.3], "channel g=1.3 outside"),
                                               ([0.1, 0.2, float("nan")], "channel b=nan"),
                                               ([0.1, 0.2], "missing"),
                                               ([0.1, "red", 0.3], "red"),
                                               (["0.5", 0.2, 0.1], "'0.5' is not a number"),
                                               ([0.5, True, 0.1], "True is not a number"),
                                               ([0.5, None, 0.1], "None is not a number"),
                                               ([0.5, 10 ** 400, 0.1], "too large")])
    def test_bad_color_rejected(self, tmp_path, color, reason):
        colors = [[0.4, 0.5, 0.6], color, [0.7, 0.8, 0.9]]
        path = self._write(tmp_path, [self._row(), self._row(), self._row(colors=colors)])
        result = load_raw(path)
        assert len(result.trials) == 2
        assert [r.line for r in result.rejects] == [3]
        assert "bad color value" in result.rejects[0].reason
        assert reason in result.rejects[0].reason
        with pytest.raises(ParseError, match="line 3") as e:
            load_raw(path, strict=True)
        assert e.value.line == 3

    def test_dump_round_trip(self, tmp_path):
        trials = synth_corpus(9, np.random.default_rng(0))
        path = tmp_path / "out.jsonl"
        dump_trials(trials, path)
        back = load_raw(path)
        assert not back.rejects
        assert back.trials == trials
        assert all(type(c) is Color for t in back.trials for c in t.colors)


class TestFilterTrials:
    def test_long_message_excluded(self):
        trials = [make_trial(text="blue") for _ in range(50)]
        trials.append(make_trial(game="g9", text=" ".join(["word"] * 200)))
        result = filter_trials(trials)
        assert result.excluded_messages == 1
        assert result.excluded_trials == 1
        assert len(result.trials) == 50

    def test_whitespace_trials_excluded(self):
        trials = [make_trial(text="blue") for _ in range(50)]
        trials.append(make_trial(game="g8", text="\u3000 \xa0"))
        # the only message with a word is over the cutoff
        trials.append(ContextTrial("g9", 1, trials[0].colors, 0,
                                   ["  ", " ".join(["word"] * 200), "\n"]))
        trials.append(make_trial(game="g10", text="?"))
        result = filter_trials(trials)
        assert result.excluded_messages == 1
        assert result.excluded_trials == 2
        assert len(result.trials) == 51 and result.trials[-1].game_id == "g10"

    def test_all_short_unchanged(self):
        trials = [make_trial(rnd=i, text="dark blue") for i in range(10)]
        result = filter_trials(trials)
        assert len(result.trials) == 10
        assert result.excluded_messages == 0

    def test_incomplete_games_dropped(self):
        trials = [make_trial(game="full", rnd=i) for i in range(1, 11)]
        trials += [make_trial(game="partial", rnd=i) for i in range(1, 3)]
        result = filter_trials(trials, min_rounds=10)
        assert result.excluded_games == 1
        assert all(t.game_id == "full" for t in result.trials)

    @pytest.mark.parametrize("min_rounds", [0, -1, 2.5, True, "3"])
    @pytest.mark.parametrize("trials", [1, 0])
    def test_bad_min_rounds_raises(self, min_rounds, trials):
        # "3" raised a bare TypeError; -1 and True were accepted
        with pytest.raises(ValueError, match=r"^min_rounds must be an integer of at least 1"):
            filter_trials([make_trial()] * trials, min_rounds=min_rounds)


class TestSplitByDyad:
    def test_three_games_one_each(self):
        trials = [make_trial(game=g, rnd=i) for g in "abc" for i in range(5)]
        spec = split_by_dyad(trials, seed=1)
        assert sorted(spec.assignment.values()) == ["dev", "test", "train"]

    def test_deterministic(self):
        trials = [make_trial(game=f"g{i}", rnd=j) for i in range(20) for j in range(3)]
        a = split_by_dyad(trials, seed=42).assignment
        b = split_by_dyad(trials, seed=42).assignment
        assert a == b

    def test_no_dyad_straddles(self):
        trials = [make_trial(game=f"g{i % 7}", rnd=j) for i in range(7) for j in range(4)]
        spec = split_by_dyad(trials, seed=3)
        splits = apply_split(trials, spec)
        games_in = {name: {t.game_id for t in ts} for name, ts in splits.items()}
        for a in games_in:
            for b in games_in:
                if a != b:
                    assert not (games_in[a] & games_in[b])

    @pytest.mark.parametrize("fractions", [(1.5, -0.5, 0.0), (math.nan, 0.5, 0.5),
                                           (math.inf, -math.inf, 1.0), (0.5, 0.5)])
    def test_bad_fractions_raise(self, fractions):
        # each puts every game into train or fails on an index without the check
        trials = synth_corpus(90, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"^fractions must be three finite, non-negative"):
            split_by_dyad(trials, fractions)

    def test_sizes_track_fractions(self):
        rng = np.random.default_rng(0)
        trials = []
        for i in range(300):
            n_rounds = int(rng.integers(8, 12))
            trials += [make_trial(game=f"g{i}", rnd=j) for j in range(n_rounds)]
        spec = split_by_dyad(trials, fractions=(0.5, 0.25, 0.25), seed=9)
        splits = apply_split(trials, spec)
        total = len(trials)
        for name, frac in zip(("train", "dev", "test"), (0.5, 0.25, 0.25)):
            assert abs(len(splits[name]) / total - frac) < 0.02


class TestSynthCorpus:
    @pytest.mark.parametrize("n", [-1, 2.5, 3.0, True, "3", None])
    def test_bad_size_rejected(self, n):
        with pytest.raises(ValueError, match=r"^n_trials must be an integer of at least 0"):
            synth_corpus(n, np.random.default_rng(0))

    def test_zero_trials(self):
        assert synth_corpus(0, np.random.default_rng(0)) == []
        assert synth_corpus(np.int64(0), np.random.default_rng(0)) == []

    def test_three_trials_one_per_condition(self):
        trials = synth_corpus(3, np.random.default_rng(1))
        assert Counter(t.condition for t in trials) == \
            {Condition.FAR: 1, Condition.SPLIT: 1, Condition.CLOSE: 1}

    def test_far_mostly_single_basic_term(self):
        trials = synth_corpus(300, np.random.default_rng(2))
        far = [t for t in trials if t.condition is Condition.FAR]
        single = sum(1 for t in far
                     if len(preprocess(t.combined_text(), "speaker")) == 1)
        assert single / len(far) > 0.6

    def test_utterance_true_of_target(self):
        # template predicates: shade/superlative words match the target's HSV
        # value; negated terms never name the target's own basic term
        trials = synth_corpus(240, np.random.default_rng(3))
        for t in trials:
            tokens = preprocess(t.combined_text(), "speaker")
            v_t = max(t.colors[t.target_index])
            vs = [max(c) for c in t.colors]
            base = nearest_basic_terms(np.array([t.colors[t.target_index]]))[0]
            if "darkest" in tokens:
                assert v_t == min(vs)
            if "lightest" in tokens:
                assert v_t == max(vs)
            if "not" in tokens:
                assert base not in tokens
            if tokens[-1] == base and len(tokens) == 1:
                assert nearest_basic_terms(np.array([t.colors[t.target_index]]))[0] == base

    def test_emission_probabilities_normalized(self):
        trials = synth_corpus(30, np.random.default_rng(4))
        for t in trials:
            utterances, probs = template_emission(t.colors, t.target_index, t.condition)
            assert probs.sum() == pytest.approx(1.0)
            assert len(set(utterances)) == len(utterances)

    def test_bayes_oracle_beats_chance(self):
        trials = synth_corpus(300, np.random.default_rng(5))
        acc = template_bayes_accuracy(trials)
        assert acc > 0.6

    def test_bayes_oracle_names_each_color_once(self, monkeypatch):
        trials = synth_corpus(60, np.random.default_rng(7))

        def per_candidate(trials):
            # one template_emission per candidate target, as the oracle defines
            correct = 0
            for t in trials:
                observed = tuple(preprocess(t.combined_text(), "speaker"))
                likelihood = np.zeros(3)
                for cand in range(3):
                    utterances, probs = template_emission(
                        t.colors, cand, classify_conditions(np.array([t.colors]))[0])
                    likelihood[cand] = dict(zip(utterances, probs)).get(observed, 0.0)
                correct += int(np.argmax(likelihood)) == t.target_index
            return correct / len(trials)

        want = per_candidate(trials)
        calls = []
        monkeypatch.setattr("pragref.corpus.nearest_basic_terms",
                            lambda rgb: calls.append(len(rgb)) or nearest_basic_terms(rgb))
        assert template_bayes_accuracy(trials) == want
        assert calls == [3 * len(trials)]

    def test_clicks_present_and_valid(self):
        trials = synth_corpus(60, np.random.default_rng(6))
        assert all(t.clicked_index in (0, 1, 2) for t in trials)

    def test_bayes_oracle_needs_trials(self):
        with pytest.raises(ValueError, match="at least one trial"):
            template_bayes_accuracy([])


# -- batched lookups against the per-colour and per-trial code they replaced ------

ANCHOR_TERMS = list(BASIC_COLOR_ANCHORS)
ANCHOR_LAB = srgb_to_lab(np.array(list(BASIC_COLOR_ANCHORS.values())))
_PAIRS = np.array([(0, 1), (0, 2), (1, 2)])


def per_color_term(c):
    """Reference: the one-colour term lookup before batching."""
    return ANCHOR_TERMS[int(np.argmin(ciede2000_lab(srgb_to_lab(np.asarray(c)), ANCHOR_LAB)))]


def per_trial_condition(colors, th=ConditionThresholds()):
    """Reference: the per-trial labeller before batching."""
    lab = srgb_to_lab(np.asarray(colors))
    dists = ciede2000_lab(lab[_PAIRS[:, 0]], lab[_PAIRS[:, 1]])
    if np.any(dists < th.epsilon):
        raise PerceptibilityViolation(f"pairwise distance {dists.min():.3f}")
    if np.all(dists > th.theta_dist):
        return Condition.FAR
    if np.all(dists <= th.theta_dist):
        return Condition.CLOSE
    return Condition.SPLIT


def per_trial_emission(colors, terms, target_index, condition):
    """Reference: the template speaker reading each colour's HSV value per call."""
    weights = {
        Condition.FAR: {"base": 0.68, "shade": 0.26, "comparative": 0.04,
                        "superlative": 0.02, "negation": 0.0},
        Condition.SPLIT: {"base": 0.22, "shade": 0.40, "comparative": 0.22,
                          "superlative": 0.06, "negation": 0.10},
        Condition.CLOSE: {"base": 0.05, "shade": 0.36, "comparative": 0.22,
                          "superlative": 0.12, "negation": 0.25},
    }[condition]
    base = terms[target_index]
    target = colors[target_index]
    shade = "dark" if max(target) < 0.5 else "light"
    v_t = max(target)
    v_others = [max(colors[i]) for i in range(3) if i != target_index]
    options = {}

    def add(tokens, weight):
        if weight > 0:
            options[tokens] = options.get(tokens, 0.0) + weight

    add((base,), weights["base"])
    fallback = weights["shade"]
    if shade == "dark" and any(v > v_t + 0.08 for v in v_others):
        add(("darker", base), weights["comparative"])
    elif shade == "light" and any(v < v_t - 0.08 for v in v_others):
        add(("lighter", base), weights["comparative"])
    else:
        fallback += weights["comparative"]
    if shade == "dark" and v_t <= min(v_others) - 0.08:
        add(("darkest", base), weights["superlative"])
    elif shade == "light" and v_t >= max(v_others) + 0.08:
        add(("lightest", base), weights["superlative"])
    else:
        fallback += weights["superlative"]
    other_terms = sorted({terms[i] for i in range(3) if i != target_index} - {base})
    if other_terms and weights["negation"] > 0:
        for term in other_terms:
            add(("not", "the", term, "one"), weights["negation"] / len(other_terms))
    else:
        fallback += weights["negation"]
    add((shade, base), fallback)
    utterances = list(options)
    probs = np.array([options[u] for u in utterances])
    return utterances, probs / probs.sum()


def per_trial_synth_corpus(n_trials, rng, trials_per_game=30):
    """Reference: synth_corpus naming each colour inside the emission loop."""
    counts = [n_trials // 3] * 3
    for i in range(n_trials - sum(counts)):
        counts[i] += 1
    rows = []
    for cond, n in zip(Condition, counts):
        if n:
            cols, targets = sample_contexts(cond, n, rng)
            rows += [(cond, tuple(Color(*cols[i, j]) for j in range(3)), int(targets[i]))
                     for i in range(n)]
    trials = []
    for pos, ri in enumerate(rng.permutation(len(rows))):
        cond, triple, target = rows[ri]
        utterances, probs = per_trial_emission(triple, [per_color_term(c) for c in triple],
                                               target, cond)
        tokens = utterances[rng.choice(len(utterances), p=probs)]
        if rng.random() < {Condition.FAR: 0.97, Condition.SPLIT: 0.90,
                           Condition.CLOSE: 0.83}[cond]:
            clicked = target
        else:
            clicked = int(rng.choice([i for i in range(3) if i != target]))
        trials.append(ContextTrial(f"g{pos // trials_per_game:04d}", pos % trials_per_game + 1,
                                   triple, target, [" ".join(tokens)], cond, clicked))
    return trials


def per_trial_oracle(trials):
    """Reference: the Bayes oracle's predictions, one lookup per colour and trial."""
    preds = []
    for t in trials:
        observed = tuple(preprocess(t.combined_text(), "speaker"))
        terms = [per_color_term(c) for c in t.colors]
        likelihood = np.zeros(3)
        for cand in range(3):
            utterances, probs = per_trial_emission(t.colors, terms, cand,
                                                   per_trial_condition(t.colors))
            likelihood[cand] = dict(zip(utterances, probs)).get(observed, 0.0)
        preds.append(int(np.argmax(likelihood)) if likelihood.sum() else 0)
    return preds


def _colors(rgb):
    return [Color(*c) for c in rgb]


class TestBatchedTerms:
    def test_random_colors(self):
        rgb = np.random.default_rng(0).random((3000, 3))
        assert nearest_basic_terms(rgb) == [per_color_term(c) for c in _colors(rgb)]

    def test_anchors_name_themselves(self):
        rgb = np.array(list(BASIC_COLOR_ANCHORS.values()))
        assert nearest_basic_terms(rgb) == ANCHOR_TERMS
        assert [nearest_basic_terms(np.array([c]))[0] for c in _colors(rgb)] == ANCHOR_TERMS

    def test_greys_and_cube_corners(self):
        greys = np.repeat(np.linspace(0.0, 1.0, 257)[:, None], 3, axis=1)
        corners = np.array([(r, g, b) for r in (0, 1) for g in (0, 1) for b in (0, 1)], float)
        rgb = np.concatenate([greys, corners])
        want = [per_color_term(c) for c in _colors(rgb)]
        assert nearest_basic_terms(rgb) == want
        assert [nearest_basic_terms(np.array([c]))[0] for c in _colors(rgb)] == want

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 513])
    def test_block_edges(self, n):
        rgb = np.random.default_rng(n).random((n, 3))
        want = [per_color_term(c) for c in _colors(rgb)]
        assert nearest_basic_terms(rgb) == want
        assert nearest_basic_terms(rgb[::-1]) == want[::-1]
        assert [nearest_basic_terms(np.array([c]))[0] for c in _colors(rgb[:20])] == want[:20]

    def test_each_color_converts_alone(self, monkeypatch):
        # a last-bit change in Lab seldom flips a term, so pin the Lab rows
        # the lookup hands to CIEDE2000, and its blocks of 256 colours
        seen = []

        def spy(lab1, lab2):
            seen.append(lab1.reshape(-1, 3).copy())
            return ciede2000_lab(lab1, lab2)

        monkeypatch.setattr("pragref.corpus.ciede2000_lab", spy)
        rgb = np.random.default_rng(11).random((600, 3))
        nearest_basic_terms(rgb)
        assert [len(lab) for lab in seen] == [256, 256, 88]
        assert np.array_equal(np.concatenate(seen), np.array([srgb_to_lab(c) for c in rgb]))

    def test_empty(self):
        assert nearest_basic_terms(np.empty((0, 3))) == []

    @pytest.mark.parametrize("shape", [(3,), (2, 4), (2, 3, 3)])
    def test_bad_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="shape"):
            nearest_basic_terms(np.full(shape, 0.5))

    @pytest.mark.parametrize("n,seed", [(0, 0), (1, 1), (2, 2), (7, 3), (301, 4), (302, 5),
                                        (900, 12)])
    def test_synth_corpus_matches_per_trial(self, n, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = synth_corpus(n, rng)
        assert got == per_trial_synth_corpus(n, ref_rng)
        assert len(got) == n
        # the same draws consume the same stream
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("seed", [8, 9])
    def test_emission_matches_per_trial(self, seed):
        # every candidate target under every condition, including grey and
        # tied-value colours, against the per-call HSV conversion
        trials = synth_corpus(301, np.random.default_rng(seed))
        contexts = [t.colors for t in trials]
        contexts.append((Color(0.5, 0.5, 0.5), Color(0.2, 0.5, 0.1), Color(0.0, 0.0, 0.5)))
        contexts.append((Color(0.46, 0.1, 0.1), Color(0.1, 0.54, 0.1), Color(0.1, 0.1, 0.62)))
        for colors in contexts:
            terms = [per_color_term(c) for c in colors]
            for cand in range(3):
                for cond in Condition:
                    got = template_emission(colors, cand, cond)
                    want = per_trial_emission(colors, terms, cand, cond)
                    assert got[0] == want[0]
                    assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("seed", [8, 9])
    def test_bayes_oracle_matches_per_trial(self, seed):
        trials = synth_corpus(301, np.random.default_rng(seed))
        # texts no candidate emits: every likelihood is 0, and index 0 is predicted
        for k in (0, 1, 2, 3, 4, 5):
            trials[k] = replace(trials[k], speaker_texts=["zzz"], target_index=k % 3)
        preds = per_trial_oracle(trials)
        assert preds[:6] == [0] * 6
        want = [p == t.target_index for p, t in zip(preds, trials)]
        assert template_bayes_accuracy(trials) == sum(want) / len(trials)
        assert [template_bayes_accuracy([t]) for t in trials[:90]] == [float(w) for w in want[:90]]

    def test_bayes_oracle_names_the_violating_trial(self):
        trials = synth_corpus(5, np.random.default_rng(10))
        bad = trials[3]
        trials[3] = ContextTrial(bad.game_id, bad.round, (bad.colors[0],) * 3, 0,
                                 bad.speaker_texts, bad.condition, bad.clicked_index)
        with pytest.raises(PerceptibilityViolation, match="context 3"):
            template_bayes_accuracy(trials)
