import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pragref.colorspace import Color, Condition, classify_condition, rgb_to_hsv
from pragref.corpus import (
    ContextTrial,
    Vocabulary,
    apply_split,
    build_vocab,
    dump_trials,
    filter_trials,
    load_raw,
    nearest_basic_term,
    preprocess,
    speaker_tokens_to_listener_tokens,
    split_by_dyad,
    synth_corpus,
    template_bayes_accuracy,
    template_emission,
)
from pragref.errors import ParseError


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

    def test_dump_round_trip(self, tmp_path):
        trials = synth_corpus(9, np.random.default_rng(0))
        path = tmp_path / "out.jsonl"
        dump_trials(trials, path)
        back = load_raw(path)
        assert not back.rejects
        assert len(back.trials) == 9
        assert back.trials[3].speaker_texts == trials[3].speaker_texts
        assert back.trials[3].condition is trials[3].condition


class TestFilterTrials:
    def test_long_message_excluded(self):
        trials = [make_trial(text="blue") for _ in range(50)]
        trials.append(make_trial(game="g9", text=" ".join(["word"] * 200)))
        result = filter_trials(trials)
        assert result.excluded_messages == 1
        assert result.excluded_trials == 1
        assert len(result.trials) == 50

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
            v_t = rgb_to_hsv(t.colors[t.target_index]).v
            vs = [rgb_to_hsv(c).v for c in t.colors]
            base = nearest_basic_term(t.colors[t.target_index])
            if "darkest" in tokens:
                assert v_t == min(vs)
            if "lightest" in tokens:
                assert v_t == max(vs)
            if "not" in tokens:
                assert base not in tokens
            if tokens[-1] == base and len(tokens) == 1:
                assert nearest_basic_term(t.colors[t.target_index]) == base

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
                        t.colors, cand, classify_condition(t.colors, cand))
                    likelihood[cand] = dict(zip(utterances, probs)).get(observed, 0.0)
                correct += int(np.argmax(likelihood)) == t.target_index
            return correct / len(trials)

        want = per_candidate(trials)
        calls = []
        monkeypatch.setattr("pragref.corpus.nearest_basic_term",
                            lambda c: calls.append(c) or nearest_basic_term(c))
        assert template_bayes_accuracy(trials) == want
        assert len(calls) == 3 * len(trials)

    def test_clicks_present_and_valid(self):
        trials = synth_corpus(60, np.random.default_rng(6))
        assert all(t.clicked_index in (0, 1, 2) for t in trials)
