import math

import numpy as np
import pytest

from pragref.colorspace import Color
from pragref.corpus import EOS, build_vocab, preprocess, synth_corpus
from pragref.errors import MissingCheckpoint
from pragref.nnsubstrate import Tensor, load_checkpoint, save_checkpoint
from pragref.speaker import (
    MAX_DECODE_LEN,
    SpeakerModel,
    _teacher_forced_losses,
    dev_token_perplexity,
    encode_context,
    reorder_target_last,
    s0_log_prob,
    s0_log_probs_batch,
    s0_sample,
    s0_sample_batch,
    s0_sample_utterances,
    target_last_features,
    train_s0,
)
from pragref.training import TrainConfig, same_length_batches

COLORS = (Color(0.9, 0.1, 0.1), Color(0.1, 0.2, 0.8), Color(0.2, 0.9, 0.3))


def tiny_model(seed=0, feature_dim=54):
    vocab = build_vocab([["blue", "blue", "dark", "dark", "red", "red"]])
    return SpeakerModel.create(vocab, np.random.default_rng(seed),
                               embed_dim=8, hidden_dim=6, feature_dim=feature_dim)


def graph_sample_batch(model, feats, rng, temperature):
    """s0_sample_batch with the autograd graph built and per-row bookkeeping."""
    batch = feats.shape[0]
    ctx = model.encode(feats)
    h = Tensor(np.zeros((batch, model.hidden_dim)))
    c = Tensor(np.zeros((batch, model.hidden_dim)))
    prev = np.full(batch, model.vocab.bos_id)
    alive = np.ones(batch, dtype=bool)
    seqs = [[] for _ in range(batch)]
    log_probs = np.zeros(batch)
    eos = model.vocab.eos_id
    for step in range(MAX_DECODE_LEN):
        logits, h, c = model.step_logits(ctx, prev, h, c)
        assert logits.requires_grad
        z = logits.data - logits.data.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        z_sample = z.copy()
        z_sample[:, model.vocab.bos_id] = -np.inf
        if step == MAX_DECODE_LEN - 1:
            chosen = np.full(batch, eos)
        elif temperature <= 0.0:
            chosen = z_sample.argmax(axis=1)
        else:
            zt = z_sample / temperature
            pt = np.exp(zt - zt.max(axis=1, keepdims=True))
            pt /= pt.sum(axis=1, keepdims=True)
            u = rng.random((batch, 1))
            chosen = np.minimum((pt.cumsum(axis=1) < u).sum(axis=1), pt.shape[1] - 1)
        for i in range(batch):
            if alive[i]:
                seqs[i].append(int(chosen[i]))
                log_probs[i] += logp[i, chosen[i]]
        alive &= chosen != eos
        if not alive.any():
            break
        prev = np.where(alive, chosen, eos)
    return [(tuple(s), float(lp)) for s, lp in zip(seqs, log_probs)]


class TestEncodeContext:
    def test_target_fed_last(self):
        feats = reorder_target_last(COLORS, 0)
        from pragref.colorspace import fourier_features
        assert np.allclose(feats[2], fourier_features(COLORS[0]))
        assert np.allclose(feats[0], fourier_features(COLORS[1]))

    def test_zero_weight_encoder_gives_zero(self):
        model = tiny_model()
        for p in model.encoder.parameters():
            p.data[:] = 0.0
        assert np.allclose(encode_context(model, COLORS, 1), 0.0)

    def test_matches_hand_recurrence_1dim(self):
        # 1-dim encoder over a 2-dim feature space, scalar recomputation
        vocab = build_vocab([["a", "a"]])
        model = SpeakerModel.create(vocab, np.random.default_rng(3),
                                    embed_dim=2, hidden_dim=1, feature_dim=54)
        wx, wh, b = (model.encoder.w_x.data, model.encoder.w_h.data,
                     model.encoder.bias.data)

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        feats = reorder_target_last(COLORS, 2)
        h = c = 0.0
        for row in feats:
            pre = row @ wx + h * wh[0] + b
            i, f, o = sig(pre[0]), sig(pre[1]), sig(pre[2])
            g = math.tanh(pre[3])
            c = f * c + i * g
            h = o * math.tanh(c)
        got = encode_context(model, COLORS, 2)
        assert abs(float(got[0]) - c) < 1e-12


class TestTargetLastFeatures:
    RGB = np.array([[c.r, c.g, c.b] for c in COLORS])

    @pytest.mark.parametrize("target", [0, 1, 2])
    def test_matches_per_context(self, target):
        got = target_last_features(self.RGB[None], np.array([target]))
        assert np.array_equal(got[0], reorder_target_last(COLORS, target))

    def test_mixed_targets(self):
        rng = np.random.default_rng(12)
        rgb = rng.random((40, 3, 3))
        targets = rng.integers(0, 3, 40)
        want = np.stack([reorder_target_last(tuple(Color(*row) for row in ctx), t)
                         for ctx, t in zip(rgb, targets)])
        assert np.array_equal(target_last_features(rgb, targets), want)

    @pytest.mark.parametrize("targets", [[0, 1], [0], [0, 3, 1], [-1, 0, 2]])
    def test_bad_targets_raise(self, targets):
        with pytest.raises(ValueError):
            target_last_features(np.repeat(self.RGB[None], 3, axis=0), np.array(targets))


class TestLogProb:
    def test_requires_end_token(self):
        with pytest.raises(ValueError):
            s0_log_prob(tiny_model(), ["blue"], COLORS, 0)

    def test_single_end_token(self):
        model = tiny_model()
        lp = s0_log_prob(model, [EOS], COLORS, 0)
        assert lp < 0.0
        assert np.isfinite(lp)

    def test_chain_rule_additivity(self):
        # total log prob equals the sum of stepwise conditionals, computed
        # by brute force over per-step distributions
        model = tiny_model(seed=1)
        tokens = ["dark", "blue", EOS]
        lp = s0_log_prob(model, tokens, COLORS, 1)

        from pragref.nnsubstrate import Tensor, log_softmax
        feats = reorder_target_last(COLORS, 1)[None]
        ctx = model.encode(feats)
        h = Tensor(np.zeros((1, model.hidden_dim)))
        c = Tensor(np.zeros((1, model.hidden_dim)))
        prev = np.array([model.vocab.bos_id])
        total = 0.0
        for tok in model.vocab.encode(tokens):
            logits, h, c = model.step_logits(ctx, prev, h, c)
            total += log_softmax(logits.data)[0, tok]
            prev = np.array([tok])
        assert lp == pytest.approx(total, abs=1e-12)

    def test_batch_forward_only_matches_graph_forward(self):
        model = tiny_model(seed=8)
        rng = np.random.default_rng(6)
        id_seqs = [list(rng.integers(0, len(model.vocab), size=rng.integers(1, 5)))
                   + [model.vocab.eos_id] for _ in range(30)]
        feats = rng.standard_normal((30, 3, 54))
        got = s0_log_probs_batch(model, id_seqs, feats)
        lengths = np.array([len(s) for s in id_seqs])
        want = np.empty(30)
        for group in same_length_batches(lengths, np.arange(30), batch_size=512):
            losses = _teacher_forced_losses(model, feats[group],
                                            np.array([id_seqs[i] for i in group]))
            assert losses.requires_grad
            want[group] = -losses.data
        assert np.array_equal(got, want)

    def test_one_token_distributions_normalize(self):
        # sum over all single-token utterances of exp(step prob) == 1
        model = tiny_model(seed=2)
        total = 0.0
        for tok in model.vocab.id_to_token:
            from pragref.nnsubstrate import Tensor, log_softmax
            feats = reorder_target_last(COLORS, 0)[None]
            ctx = model.encode(feats)
            h = Tensor(np.zeros((1, model.hidden_dim)))
            c = Tensor(np.zeros((1, model.hidden_dim)))
            logits, _, _ = model.step_logits(ctx, np.array([model.vocab.bos_id]), h, c)
            total += float(np.exp(log_softmax(logits.data)[0, model.vocab.token_to_id[tok]]))
        assert total == pytest.approx(1.0, abs=1e-9)


class TestSampling:
    def test_greedy_deterministic(self):
        model = tiny_model(seed=4)
        a = s0_sample(model, COLORS, 0, np.random.default_rng(0), temperature=0.0)
        b = s0_sample(model, COLORS, 0, np.random.default_rng(99), temperature=0.0)
        assert a.tokens == b.tokens

    def test_sample_log_prob_consistent(self):
        model = tiny_model(seed=5)
        rng = np.random.default_rng(8)
        for _ in range(10):
            s = s0_sample(model, COLORS, 2, rng)
            assert s.tokens[-1] == EOS
            assert len(s.tokens) <= 20
            recomputed = s0_log_prob(model, s.tokens, COLORS, 2)
            assert recomputed == pytest.approx(s.log_prob, abs=1e-9)

    @pytest.mark.parametrize("temperature", [1.0, 0.0])
    def test_forward_only_matches_graph_forward(self, temperature):
        model = tiny_model(seed=9)
        feats = np.random.default_rng(2).standard_normal((50, 3, 54))
        got = s0_sample_batch(model, feats, np.random.default_rng(3), temperature)
        want = graph_sample_batch(model, feats, np.random.default_rng(3), temperature)
        assert got == want
        assert all(type(i) is int for ids, _ in got for i in ids)
        assert all(type(lp) is float for _, lp in got)

    def test_truncated_rows_match_graph_forward(self):
        model = tiny_model(seed=6)
        model.out_b.data[model.vocab.eos_id] = -3.0
        feats = np.random.default_rng(4).standard_normal((30, 3, 54))
        got = s0_sample_batch(model, feats, np.random.default_rng(5))
        assert any(len(ids) == MAX_DECODE_LEN for ids, _ in got)
        assert got == graph_sample_batch(model, feats, np.random.default_rng(5), 1.0)

    @staticmethod
    def _decoded_rows(model, feats, rng, temperature=1.0):
        """Sampled rows, and the rows the decoder ran summed over its steps."""
        sizes = []
        step_logits = model.step_logits

        def counting(ctx, token_ids, h, c):
            sizes.append(len(token_ids))
            return step_logits(ctx, token_ids, h, c)

        model.step_logits = counting
        rows = s0_sample_batch(model, feats, rng, temperature)
        return rows, sum(sizes)

    @pytest.mark.parametrize("temperature", [1.0, 0.0])
    def test_decodes_only_live_rows(self, temperature):
        model = tiny_model(seed=9)
        feats = np.random.default_rng(2).standard_normal((50, 3, 54))
        rows, row_steps = self._decoded_rows(model, feats, np.random.default_rng(3),
                                             temperature)
        assert row_steps == sum(len(ids) for ids, _ in rows)

    def test_truncated_rows_decode_only_live_rows(self):
        model = tiny_model(seed=6)
        model.out_b.data[model.vocab.eos_id] = -3.0
        feats = np.random.default_rng(4).standard_normal((30, 3, 54))
        rows, row_steps = self._decoded_rows(model, feats, np.random.default_rng(5))
        lengths = [len(ids) for ids, _ in rows]
        assert MAX_DECODE_LEN in lengths and min(lengths) < MAX_DECODE_LEN
        assert row_steps == sum(lengths)

    @pytest.mark.parametrize("temperature", [1.0, 0.5, 0.0])
    def test_row_map_matches_gathered_features(self, temperature):
        model = tiny_model(seed=9)
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((4, 3, 54))
        rows = rng.integers(0, 4, 50)
        got = s0_sample_batch(model, feats, np.random.default_rng(3), temperature, rows=rows)
        want = s0_sample_batch(model, feats[rows], np.random.default_rng(3), temperature)
        assert [ids for ids, _ in got] == [ids for ids, _ in want]
        assert np.allclose([lp for _, lp in got], [lp for _, lp in want], rtol=0, atol=1e-12)

    def test_row_map_encodes_each_context_once(self):
        model = tiny_model(seed=9)
        encoded = []
        encode = model.encode

        def counting(feats):
            encoded.append(len(feats))
            return encode(feats)

        model.encode = counting
        feats = np.random.default_rng(8).standard_normal((3, 3, 54))
        rows = s0_sample_batch(model, feats, np.random.default_rng(1),
                               rows=np.repeat(np.arange(3), 16))
        assert encoded == [3] and len(rows) == 48

    def test_merged_targets_equal_separate_calls_greedy(self):
        # at temperature 0 the draws are unused, so one batch over the three
        # targets must decode exactly what three batches of their own do
        model = tiny_model(seed=10)
        feats = np.stack([reorder_target_last(COLORS, t) for t in range(3)])
        merged = s0_sample_batch(model, feats, np.random.default_rng(0), 0.0,
                                 rows=np.repeat(np.arange(3), 5))
        separate = [row for t in range(3)
                    for row in s0_sample_batch(model, np.repeat(feats[t:t + 1], 5, axis=0),
                                               np.random.default_rng(0), 0.0)]
        assert [ids for ids, _ in merged] == [ids for ids, _ in separate]
        assert np.allclose([lp for _, lp in merged], [lp for _, lp in separate],
                           rtol=0, atol=1e-12)

    def test_utterances_per_context_match_repeated_contexts(self, monkeypatch):
        # 6-row batches cut through some 4-row pools and end with others
        monkeypatch.setattr("pragref.speaker.SAMPLE_BATCH", 6)
        model = tiny_model(seed=11)
        feats = np.random.default_rng(9).standard_normal((5, 3, 54))
        want = s0_sample_utterances(model, np.repeat(feats, 4, axis=0),
                                    np.random.default_rng(4))
        encoded = []
        encode = model.encode

        def counting(batch_feats):
            encoded.append(len(batch_feats))
            return encode(batch_feats)

        model.encode = counting
        got = s0_sample_utterances(model, feats, np.random.default_rng(4), per_context=4)
        assert len(got) == 20 and got == want
        # rows 0-5, 6-11, 12-17 and 18-19 span contexts 0-1, 1-2, 3-4 and 4
        assert encoded == [2, 2, 2, 1]

    def test_truncation_forces_end_token(self):
        model = tiny_model(seed=6)
        # make </s> essentially unreachable by sampling: bias it far down
        model.out_b.data[model.vocab.eos_id] = -100.0
        s = s0_sample(model, COLORS, 0, np.random.default_rng(1))
        assert len(s.tokens) == 20
        assert s.tokens[-1] == EOS
        assert s0_log_prob(model, s.tokens, COLORS, 0) == pytest.approx(
            s.log_prob, abs=1e-9)


class TestTrainS0:
    def test_perplexity_decreases_early(self):
        rng = np.random.default_rng(10)
        trials = synth_corpus(150, rng)
        vocab = build_vocab([preprocess(t.combined_text(), "speaker") for t in trials])
        model = SpeakerModel.create(vocab, rng, embed_dim=12, hidden_dim=12)
        before = dev_token_perplexity(model, trials[:50])
        report = train_s0(model, trials[50:], trials[:50], TrainConfig(epochs=3, seed=1))
        ppls = [e.dev_perplexity for e in report.epochs]
        assert ppls[-1] < before
        assert min(ppls) == pytest.approx(dev_token_perplexity(model, trials[:50]),
                                          rel=1e-9)

    def test_overfit_ten_trials(self):
        rng = np.random.default_rng(11)
        trials = synth_corpus(10, rng)
        vocab = build_vocab([preprocess(t.combined_text(), "speaker") for t in trials]
                            * 2)  # keep all tokens despite tiny corpus
        model = SpeakerModel.create(vocab, rng, embed_dim=16, hidden_dim=24)
        train_s0(model, trials, trials, TrainConfig(epochs=60, batch_size=4, seed=2))
        ppl = dev_token_perplexity(model, trials)
        assert ppl < 1.35

    def test_gradient_norms_recorded(self):
        rng = np.random.default_rng(10)
        trials = synth_corpus(60, rng)
        vocab = build_vocab([preprocess(t.combined_text(), "speaker") for t in trials])
        model = SpeakerModel.create(vocab, rng, embed_dim=8, hidden_dim=6)
        report = train_s0(model, trials, trials[:20], TrainConfig(epochs=2, seed=1))
        lengths = np.array([len(preprocess(t.combined_text(), "speaker")) + 1
                            for t in trials])
        n_batches = len(list(same_length_batches(lengths, np.arange(len(trials)), 32)))
        for e in report.epochs:
            assert np.isfinite(e.max_grad_norm) and e.max_grad_norm > 0
            assert 0 <= e.clipped_steps <= n_batches

    def test_checkpoint_round_trip(self, tmp_path):
        model = tiny_model(seed=7)
        path = tmp_path / "s0.npz"
        model.save(path)
        loaded = SpeakerModel.load(path)
        a = s0_log_prob(model, ["blue", EOS], COLORS, 0)
        b = s0_log_prob(loaded, ["blue", EOS], COLORS, 0)
        assert a == b

    def test_checkpoint_path_without_suffix(self, tmp_path):
        model = tiny_model(seed=7)
        path = tmp_path / "s0ck"
        model.save(path)
        loaded = SpeakerModel.load(path)
        for p, q in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(p.data, q.data)

    def test_checkpoint_missing_file_raises(self, tmp_path):
        with pytest.raises(MissingCheckpoint):
            SpeakerModel.load(tmp_path / "absent.npz")

    def test_checkpoint_mismatched_arrays_raise(self, tmp_path):
        model = tiny_model(seed=7)
        path = tmp_path / "s0.npz"
        model.save(path)
        arrays, config = load_checkpoint(path)

        missing = tmp_path / "missing.npz"
        save_checkpoint(missing, {k: v for k, v in arrays.items() if k != "decoder.w_h"},
                        config)
        with pytest.raises(ValueError, match="decoder.w_h"):
            SpeakerModel.load(missing)

        # one more vocabulary entry than embedding and output rows
        grown = tmp_path / "grown.npz"
        save_checkpoint(grown, arrays, {**config, "vocab": config["vocab"] + ["teal"]})
        with pytest.raises(ValueError, match="embedding"):
            SpeakerModel.load(grown)
