import dataclasses

import numpy as np
import pytest

from pragref import metrics
from pragref.colorspace import Color, Condition, classify_conditions
from pragref.corpus import (
    ContextTrial,
    build_vocab,
    speaker_tokens_to_listener_tokens,
    synth_corpus,
)
from pragref.listener import ListenerModel, l0_score
from pragref.metrics import (
    S1_POOL_SIZE,
    BaseSpeakerSampler,
    PragmaticSpeakerSampler,
    behavior_metrics,
    behavior_metrics_for_trials,
    compare_speakers,
    condition_mix_contexts,
    evaluate_probs,
    human_accuracy,
    term_depth,
    utterance_flags,
)
from pragref.speaker import SpeakerModel, target_last_features
from test_speaker import live_row_sample_batch

COLORS = (Color(0.9, 0.1, 0.1), Color(0.1, 0.2, 0.8), Color(0.2, 0.9, 0.3))


def make_trials(n=30, seed=0):
    return synth_corpus(n, np.random.default_rng(seed))


class TestEvaluate:
    def test_uniform_agent(self):
        trials = make_trials(60)
        report = evaluate_probs(np.full((60, 3), 1 / 3), trials)
        assert abs(report.accuracy - 1 / 3) < 0.25
        assert report.perplexity == pytest.approx(3.0, abs=1e-9)
        assert report.n_trials == 60

    def test_oracle_agent(self):
        trials = make_trials(30)
        report = evaluate_probs(np.eye(3)[[t.target_index for t in trials]], trials)
        assert report.accuracy == 1.0
        assert report.perplexity == pytest.approx(1.0)

    def test_per_condition_breakdown(self):
        trials = make_trials(90)
        report = evaluate_probs(np.full((90, 3), 1 / 3), trials)
        assert set(report.per_condition) == {"far", "split", "close"}
        assert sum(s.n for s in report.per_condition.values()) == 90

    def test_zero_trials_raise(self):
        with pytest.raises(ValueError):
            evaluate_probs(np.zeros((0, 3)), [])

    @pytest.mark.parametrize("shape", [(6, 4), (1, 3), (6, 3, 1), (6,)])
    def test_wrong_shape_raises(self, shape):
        # a (6, 4) array used to score silently and a (1, 3) one to die with
        # a bare IndexError
        with pytest.raises(ValueError, match="expected probs of shape \\(6, 3\\)"):
            evaluate_probs(np.full(shape, 0.25), make_trials(6))

    def test_ties_break_to_lowest_index(self):
        trial = ContextTrial("g", 1, COLORS, 1, ["blue"], Condition.FAR, 1)
        report = evaluate_probs(np.full((1, 3), 1 / 3), [trial])
        assert report.accuracy == 0.0  # argmax tie -> index 0, target is 1

    def test_accuracy_invariant_under_consistent_relabeling(self):
        trials = make_trials(40)
        probs = np.stack([np.random.default_rng(7).dirichlet(np.ones(3))
                          for _ in trials])
        base = evaluate_probs(probs, trials)

        perm = [2, 0, 1]
        inv = np.argsort(perm)
        permuted_trials = [
            ContextTrial(t.game_id, t.round,
                         tuple(t.colors[perm[i]] for i in range(3)),
                         int(inv[t.target_index]), t.speaker_texts, t.condition,
                         None if t.clicked_index is None else int(inv[t.clicked_index]))
            for t in trials
        ]
        permuted_probs = probs[:, perm]
        again = evaluate_probs(permuted_probs, permuted_trials)
        assert again.accuracy == base.accuracy
        assert again.perplexity == pytest.approx(base.perplexity)


class TestHumanAccuracy:
    def test_all_correct(self):
        trials = [ContextTrial("g", i, COLORS, 0, ["blue"], Condition.FAR, 0)
                  for i in range(5)]
        report = human_accuracy(trials)
        assert report.per_condition == {"far": 1.0}

    def test_missing_clicks_excluded(self):
        trials = [ContextTrial("g", 1, COLORS, 0, ["blue"], Condition.FAR, 0),
                  ContextTrial("g", 2, COLORS, 0, ["blue"], Condition.FAR, None)]
        report = human_accuracy(trials)
        assert report.n_missing_click == 1
        assert report.per_condition == {"far": 1.0}

    def test_empty_bucket_absent(self):
        trials = [ContextTrial("g", 1, COLORS, 0, ["blue"], Condition.FAR, 0)]
        report = human_accuracy(trials)
        assert "close" not in report.per_condition

    def test_synthetic_rates_near_design(self):
        trials = make_trials(3000, seed=3)
        report = human_accuracy(trials)
        assert report.per_condition["far"] == pytest.approx(0.97, abs=0.03)
        assert report.per_condition["split"] == pytest.approx(0.90, abs=0.04)
        assert report.per_condition["close"] == pytest.approx(0.83, abs=0.04)


class TestUnstoredConditions:
    """Trials with no stored condition take the label classify_conditions gives."""

    ROTATE = {Condition.FAR: Condition.SPLIT, Condition.SPLIT: Condition.CLOSE,
              Condition.CLOSE: Condition.FAR}

    def _mixed(self):
        # every third trial keeps a stored label, rotated so that it differs
        # from the computed one; the rest store none, and every fifth has no click
        trials = make_trials(90, seed=8)
        computed = classify_conditions(np.array([t.colors for t in trials]))
        mixed, want = [], []
        for i, (t, label) in enumerate(zip(trials, computed)):
            stored = self.ROTATE[label] if i % 3 == 0 else None
            mixed.append(dataclasses.replace(
                t, condition=stored, clicked_index=None if i % 5 == 0 else t.clicked_index))
            want.append(stored or label)
        assert len(set(want)) == 3
        return mixed, want

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(metrics, "classify_conditions",
                            lambda colors: calls.append(len(colors)) or
                            classify_conditions(colors))
        return calls

    def test_evaluate_probs(self, calls):
        trials, want = self._mixed()
        probs = np.random.default_rng(3).dirichlet(np.ones(3), size=len(trials))
        report = evaluate_probs(probs, trials)
        assert calls == [60]
        targets = np.array([t.target_index for t in trials])
        labels = np.array([c.value for c in want])
        for cond in ("far", "split", "close"):
            mask = labels == cond
            stats = report.per_condition[cond]
            assert stats.n == mask.sum()
            assert stats.accuracy == np.mean(probs[mask].argmax(axis=1) == targets[mask])

    def test_human_accuracy(self, calls):
        trials, want = self._mixed()
        report = human_accuracy(trials)
        assert calls == [48]  # the unlabelled trials with a click
        assert report.n_missing_click == 18
        for cond in Condition:
            hits = [t.clicked_index == t.target_index for t, c in zip(trials, want)
                    if c is cond and t.clicked_index is not None]
            assert report.per_condition[cond.value] == sum(hits) / len(hits)

    def test_behavior_metrics_for_trials(self, calls):
        trials, want = self._mixed()
        report = behavior_metrics_for_trials(trials)
        assert calls == [60]
        assert report == behavior_metrics([(t.combined_text(), c)
                                           for t, c in zip(trials, want)])

    def test_stored_labels_need_no_call(self, calls):
        trials = make_trials(30, seed=9)
        evaluate_probs(np.full((30, 3), 1 / 3), trials)
        human_accuracy(trials)
        behavior_metrics_for_trials(trials)
        assert calls == []


class TestUtteranceFlags:
    def test_darker_blue(self):
        flags = utterance_flags("darker blue")
        assert flags.comparative and not flags.superlative and not flags.negative

    def test_not_the_bluest_one(self):
        flags = utterance_flags("not the bluest one")
        assert flags.negative and flags.superlative

    def test_more_less_most_least(self):
        assert utterance_flags("more blue").comparative
        assert utterance_flags("least green").superlative

    def test_specificity(self):
        assert not utterance_flags("dark blue").high_specificity
        assert utterance_flags("teal").high_specificity
        assert utterance_flags("deep magenta , purple with some pink").high_specificity

    def test_term_depth_normalization(self):
        assert term_depth("blue") == 7
        assert term_depth("bluish") == 7
        assert term_depth("reddish") == 7
        assert term_depth("teal") == 8
        assert term_depth("magenta") == 9
        assert term_depth("the") is None

    def test_short_er_words_not_comparative(self):
        assert not utterance_flags("her").comparative


class TestBehaviorMetrics:
    def test_basic_means(self):
        items = [("blue", Condition.FAR), ("dark blue", Condition.FAR),
                 ("not the bluest one", Condition.CLOSE)]
        report = behavior_metrics(items)
        far = report.per_condition["far"]
        assert far.n == 2
        assert far.words == pytest.approx(1.5)
        assert far.chars == pytest.approx((4 + 9) / 2)
        close = report.per_condition["close"]
        assert close.superlatives_pct == 100.0
        assert close.negatives_pct == 100.0

    def test_empty_descriptions_counted_apart(self):
        items = [("", Condition.FAR), ("dark blue", Condition.FAR),
                 ("  ", Condition.FAR), ("bluest", Condition.FAR),
                 ("", Condition.CLOSE)]
        report = behavior_metrics(items)
        far = report.per_condition["far"]
        assert far.n == 4
        assert far.empty_pct == 50.0
        assert far.words == pytest.approx(1.5)
        assert far.chars == pytest.approx((9 + 6) / 2)
        assert far.superlatives_pct == 50.0
        close = report.per_condition["close"]
        assert close.n == 1 and close.empty_pct == 100.0
        assert (close.chars, close.words, close.comparatives_pct, close.high_specificity_pct,
                close.negatives_pct, close.superlatives_pct) == (0.0,) * 6

    def test_repeated_texts_measured_once(self, monkeypatch):
        texts = ["dark blue", "", "bluest", "  ", "not the redder one", "\u3000", "teal"]
        conditions = list(Condition)
        items = [(texts[i * 5 % 7], conditions[i % 3]) for i in range(60)]
        # each item measured on its own, as the means are documented
        want = {}
        for cond in sorted({c.value for _, c in items}):
            all_texts = [t for t, c in items if c.value == cond]
            said = [t for t in all_texts if t.split()]
            flags = [utterance_flags(t) for t in said]
            k = len(said) or 1
            want[cond] = metrics.ConditionBehavior(
                n=len(all_texts), chars=sum(len(t) for t in said) / k,
                words=sum(len(t.split()) for t in said) / k,
                comparatives_pct=100.0 * sum(f.comparative for f in flags) / k,
                high_specificity_pct=100.0 * sum(f.high_specificity for f in flags) / k,
                negatives_pct=100.0 * sum(f.negative for f in flags) / k,
                superlatives_pct=100.0 * sum(f.superlative for f in flags) / k,
                empty_pct=100.0 * (len(all_texts) - len(said)) / len(all_texts))
        measured = []
        monkeypatch.setattr(metrics, "utterance_flags",
                            lambda text: measured.append(text) or utterance_flags(text))
        assert behavior_metrics(items).per_condition == want
        assert sorted(measured) == sorted(t for t in texts if t.split())

    def test_deterministic(self):
        trials = make_trials(200, seed=5)
        items = [(t.combined_text(), t.condition) for t in trials]
        a = behavior_metrics(items)
        b = behavior_metrics(items)
        assert a == b

    def test_synthetic_word_monotonicity(self):
        trials = make_trials(1500, seed=6)
        report = behavior_metrics([(t.combined_text(), t.condition) for t in trials])
        words = [report.per_condition[c].words for c in ("far", "split", "close")]
        assert words[0] < words[1] < words[2]
        sups = [report.per_condition[c].superlatives_pct
                for c in ("far", "split", "close")]
        assert sups[0] < sups[1] < sups[2]


class TestCompareSpeakers:
    def _models(self, seed=0):
        vocab = build_vocab([["blue", "blue", "dark", "dark", "red", "red"]])
        rng = np.random.default_rng(seed)
        l0 = ListenerModel.create(vocab, rng, embed_dim=8, hidden_dim=6)
        s0 = SpeakerModel.create(vocab, rng, embed_dim=8, hidden_dim=6)
        return l0, s0

    def test_alpha_zero_matches_base_in_expectation(self, monkeypatch):
        # alpha=0 makes the reweighting uniform over the pool, so S1 sampling
        # has exactly the S0 distribution; compare pooled means within
        # sampling error (untrained models produce high-variance lengths)
        monkeypatch.setattr(metrics, "S1_ALPHA", 0.0)
        monkeypatch.setattr(metrics, "S1_POOL_SIZE", 6)
        l0, s0 = self._models()
        contexts = condition_mix_contexts(150, np.random.default_rng(1))
        reports = compare_speakers(BaseSpeakerSampler(s0), PragmaticSpeakerSampler(l0, s0),
                                   contexts, seed=4)

        def pooled(report, attr):
            stats = report.per_condition.values()
            return sum(getattr(s, attr) * s.n for s in stats) / sum(s.n for s in stats)

        assert abs(pooled(reports["s0"], "words") - pooled(reports["s1"], "words")) < 0.8
        assert abs(pooled(reports["s0"], "chars") - pooled(reports["s1"], "chars")) < 5.0

    def test_reports_cover_all_conditions(self, monkeypatch):
        monkeypatch.setattr(metrics, "S1_POOL_SIZE", 4)
        l0, s0 = self._models(seed=2)
        contexts = condition_mix_contexts(5, np.random.default_rng(2))
        reports = compare_speakers(BaseSpeakerSampler(s0), PragmaticSpeakerSampler(l0, s0),
                                   contexts, seed=0)
        assert set(reports) == {"s0", "s1"}
        for rep in reports.values():
            assert set(rep.per_condition) == {"far", "split", "close"}


def reference_samples(s0, feats, rng, batch):
    """Speaker-mode samples of every row, batch rows at a time, each row
    decoded on its own (live_row_sample_batch)."""
    return [tuple(s0.vocab.decode(list(ids))[:-1])
            for lo in range(0, len(feats), batch)
            for ids in live_row_sample_batch(s0, feats[lo:lo + batch], rng)]


def reference_s1_texts(l0, s0, contexts, rng, alpha, pool_size, batch):
    """S1 texts with every pool row encoded and every candidate scored alone."""
    feats = np.repeat(target_last_features([c for c, _, _ in contexts],
                                           [t for _, t, _ in contexts]), pool_size, axis=0)
    samples = reference_samples(s0, feats, rng, batch)
    texts = []
    for i, (colors, target, _) in enumerate(contexts):
        cands = [c for c in samples[i * pool_size:(i + 1) * pool_size] if c]
        if not cands:
            texts.append("")
            continue
        # a sampled <unk> stays one token, as speaker_tokens_to_listener_tokens keeps it
        scored = np.array([l0_score(l0, speaker_tokens_to_listener_tokens(list(c)),
                                    colors)[target] for c in cands])
        weights = np.maximum(scored, 1e-300) ** alpha
        texts.append(" ".join(cands[rng.choice(len(cands), p=weights / weights.sum())]))
    return texts


class TestSamplersMatchReference:
    @pytest.fixture(autouse=True)
    def small_batches(self, monkeypatch):
        # 10-row sampling batches cut through the 4-row pools
        monkeypatch.setattr("pragref.speaker.SAMPLE_BATCH", 10)

    def _models(self):
        vocab = build_vocab([["blue", "blue", "dark", "dark", "red", "red", "teal", "teal"]])
        rng = np.random.default_rng(21)
        return (ListenerModel.create(vocab, rng, embed_dim=8, hidden_dim=6),
                SpeakerModel.create(vocab, rng, embed_dim=8, hidden_dim=6))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_base_sampler(self, seed):
        _, s0 = self._models()
        contexts = condition_mix_contexts(9, np.random.default_rng(seed))
        feats = target_last_features([c for c, _, _ in contexts], [t for _, t, _ in contexts])
        want = [" ".join(u) for u in reference_samples(s0, feats, np.random.default_rng(seed),
                                                       10)]
        assert BaseSpeakerSampler(s0).sample_texts(contexts, np.random.default_rng(seed)) == want

    @pytest.mark.parametrize("seed,alpha", [(0, 0.544), (1, 2.0), (2, 0.0), (0, 40.0)])
    def test_pragmatic_sampler(self, monkeypatch, seed, alpha):
        # pools of 24 reach numpy's 8-accumulator sum of the pick weights
        monkeypatch.setattr(metrics, "S1_ALPHA", alpha)
        l0, s0 = self._models()
        contexts = condition_mix_contexts(7, np.random.default_rng(seed))
        for pool_size in (4, S1_POOL_SIZE):
            monkeypatch.setattr(metrics, "S1_POOL_SIZE", pool_size)
            got = PragmaticSpeakerSampler(l0, s0).sample_texts(contexts,
                                                               np.random.default_rng(seed))
            want = reference_s1_texts(l0, s0, contexts, np.random.default_rng(seed), alpha,
                                      pool_size, 10)
            assert got == want and any(got), pool_size
