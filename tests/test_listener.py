import dataclasses

import numpy as np
import pytest

from pragref.colorspace import Color, fourier_features
from pragref.corpus import build_vocab, synth_corpus, preprocess
from pragref.errors import EmptyUtterance, MissingCheckpoint
from pragref.listener import (
    ListenerModel,
    context_features,
    density_grid,
    evaluate_l0,
    l0_probs_many,
    l0_score,
    train_l0,
)
from pragref.nnsubstrate import load_checkpoint, log_softmax, save_checkpoint
from pragref.training import TrainConfig, same_length_batches


def tiny_model(seed=0, feature_dim=54):
    vocab = build_vocab([["blue", "blue", "dark", "dark", "red", "red"]])
    return ListenerModel.create(vocab, np.random.default_rng(seed),
                                embed_dim=8, hidden_dim=6, feature_dim=feature_dim)


def rig_constant_output(model, mu, sigma):
    """Make the output map ignore the utterance: constant (mu, Sigma)."""
    model.out_w.data[:] = 0.0
    model.out_b.data[:] = np.concatenate([mu, sigma.ravel()])


class TestL0Score:
    def test_mu_at_color_wins(self):
        model = tiny_model()
        colors = (Color(0.9, 0.1, 0.1), Color(0.1, 0.2, 0.8), Color(0.2, 0.9, 0.3))
        rig_constant_output(model, fourier_features(colors[2]), np.eye(54) * 3.0)
        probs = l0_score(model, ["blue"], colors)
        assert probs.argmax() == 2
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_identical_colors_uniform(self):
        model = tiny_model()
        c = Color(0.3, 0.5, 0.7)
        probs = l0_score(model, ["dark", "blue"], (c, c, c))
        assert np.allclose(probs, 1 / 3, atol=1e-12)

    def test_empty_utterance_raises(self):
        with pytest.raises(EmptyUtterance):
            l0_score(tiny_model(), [], (Color(0, 0, 0),) * 3)

    def test_permuting_colors_permutes_distribution(self):
        model = tiny_model()
        colors = (Color(0.9, 0.1, 0.1), Color(0.1, 0.2, 0.8), Color(0.2, 0.9, 0.3))
        p = l0_score(model, ["red"], colors)
        q = l0_score(model, ["red"], (colors[1], colors[2], colors[0]))
        assert np.allclose(p[[1, 2, 0]], q, atol=1e-12)

    def test_valid_even_with_indefinite_sigma(self):
        model = tiny_model()
        sigma = np.diag(np.concatenate([np.full(27, 5.0), np.full(27, -5.0)]))
        colors = (Color(0.9, 0.1, 0.1), Color(0.1, 0.2, 0.8), Color(0.2, 0.9, 0.3))
        rig_constant_output(model, np.zeros(54), sigma)
        probs = l0_score(model, ["blue"], colors)
        assert np.all(np.isfinite(probs))
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(probs >= 0)

    def test_forward_only_matches_graph_forward(self):
        rng = np.random.default_rng(12)
        model = ListenerModel.create(tiny_model().vocab, rng, embed_dim=8, hidden_dim=6)
        id_seqs = [list(rng.integers(0, len(model.vocab), size=rng.integers(1, 5)))
                   for _ in range(40)]
        feats = rng.standard_normal((40, 3, 54))
        want = np.empty((40, 3))
        lengths = np.array([len(s) for s in id_seqs])
        for group in same_length_batches(lengths, np.arange(40), batch_size=512):
            scores = model.scores(np.array([id_seqs[i] for i in group]), feats[group])
            assert scores.requires_grad
            want[group] = np.exp(log_softmax(scores.data))
        assert np.array_equal(l0_probs_many(model, id_seqs, feats), want)

    @staticmethod
    def _per_row(model, id_seqs, feats):
        return np.stack([np.exp(log_softmax(model.scores(np.array([ids]), f[None]).data[0]))
                         for ids, f in zip(id_seqs, feats)])

    @pytest.mark.parametrize("blocks", [(512, 128), (3, 2)])
    def test_duplicate_rows_match_per_row(self, monkeypatch, blocks):
        monkeypatch.setattr("pragref.listener._L0_UTTERANCE_BATCH", blocks[0])
        monkeypatch.setattr("pragref.listener._L0_ROW_BLOCK", blocks[1])
        rng = np.random.default_rng(13)
        model = ListenerModel.create(tiny_model().vocab, rng, embed_dim=8, hidden_dim=6)
        pool = [list(rng.integers(0, len(model.vocab), size=rng.integers(1, 4)))
                for _ in range(9)]
        id_seqs = [pool[i] for i in rng.integers(0, len(pool), 60)]
        feats = rng.standard_normal((60, 3, 54))
        got = l0_probs_many(model, id_seqs, feats)
        assert np.allclose(got, self._per_row(model, id_seqs, feats), rtol=0, atol=1e-12)
        shared = l0_probs_many(model, id_seqs, feats[0])
        want = self._per_row(model, id_seqs, np.repeat(feats[:1], 60, axis=0))
        assert np.allclose(shared, want, rtol=0, atol=1e-12)

    def test_encodes_each_distinct_utterance_once(self):
        model = tiny_model()
        encoded = []
        mu_sigma = model.mu_sigma

        def counting(ids):
            encoded.extend(map(tuple, ids.tolist()))
            return mu_sigma(ids)

        model.mu_sigma = counting
        ids = [[3], [4, 3], [3], [5], [4, 3], [3]]
        l0_probs_many(model, ids, np.random.default_rng(0).standard_normal((3, 54)))
        assert sorted(encoded) == [(3,), (4, 3), (5,)]

    def test_batched_matches_single(self):
        model = tiny_model()
        colors = (Color(0.9, 0.1, 0.1), Color(0.1, 0.2, 0.8), Color(0.2, 0.9, 0.3))
        seqs = [["blue"], ["dark", "blue"], ["red"]]
        ids = [model.encode_tokens(s) for s in seqs]
        batched = l0_probs_many(model, ids, context_features(colors))
        for i, s in enumerate(seqs):
            assert np.allclose(batched[i], l0_score(model, s, colors), atol=1e-12)


class TestTrainL0:
    def test_zero_epochs_near_chance(self):
        rng = np.random.default_rng(0)
        trials = synth_corpus(90, rng)
        model = ListenerModel.create(build_vocab(
            [preprocess(t.combined_text(), "listener") for t in trials]),
            rng, embed_dim=8, hidden_dim=6)
        acc, ppl = evaluate_l0(model, trials)
        assert abs(acc - 1 / 3) < 0.25
        assert abs(ppl - 3.0) < 0.5

    def test_overfits_small_corpus(self):
        rng = np.random.default_rng(1)
        trials = synth_corpus(60, rng)
        vocab = build_vocab([preprocess(t.combined_text(), "listener") for t in trials])
        model = ListenerModel.create(vocab, rng, embed_dim=16, hidden_dim=16)
        report = train_l0(model, trials, trials, TrainConfig(epochs=12, seed=2))
        acc, _ = evaluate_l0(model, trials)
        assert acc > 0.5
        assert report.best_epoch > 0
        assert len(report.epochs) == 12

    def test_gradient_norms_recorded(self):
        rng = np.random.default_rng(1)
        trials = synth_corpus(60, rng)
        vocab = build_vocab([preprocess(t.combined_text(), "listener") for t in trials])
        model = ListenerModel.create(vocab, rng, embed_dim=8, hidden_dim=6)
        report = train_l0(model, trials, trials[:20], TrainConfig(epochs=2, seed=2))
        lengths = np.array([len(preprocess(t.combined_text(), "listener"))
                            for t in trials])
        n_batches = len(list(same_length_batches(lengths, np.arange(len(trials)), 32)))
        for e in report.epochs:
            assert np.isfinite(e.max_grad_norm) and e.max_grad_norm > 0
            assert 0 <= e.clipped_steps <= n_batches

    def test_training_reproducible(self):
        rng_trials = np.random.default_rng(3)
        trials = synth_corpus(30, rng_trials)
        vocab = build_vocab([preprocess(t.combined_text(), "listener") for t in trials])

        def run():
            model = ListenerModel.create(vocab, np.random.default_rng(7),
                                         embed_dim=8, hidden_dim=6)
            train_l0(model, trials, trials[:10], TrainConfig(epochs=2, seed=5))
            return model

        a, b = run(), run()
        for p, q in zip(a.parameters(), b.parameters()):
            assert np.array_equal(p.data, q.data)

    def test_empty_utterance_raises_before_training(self):
        trials = synth_corpus(30, np.random.default_rng(4))
        trials[17] = dataclasses.replace(trials[17], speaker_texts=[""])
        vocab = build_vocab([preprocess(t.combined_text(), "listener") for t in trials])
        model = ListenerModel.create(vocab, np.random.default_rng(0),
                                     embed_dim=8, hidden_dim=6)
        before = [p.data.copy() for p in model.parameters()]
        with pytest.raises(EmptyUtterance, match="trial 17"):
            train_l0(model, trials, trials[:5], TrainConfig(epochs=1))
        for p, q in zip(model.parameters(), before):
            assert np.array_equal(p.data, q)


class TestDensityGrid:
    def test_uniform_scorer_all_zero(self):
        model = tiny_model()
        rig_constant_output(model, np.zeros(54), np.zeros((54, 54)))
        grid = density_grid(model, ["blue"], h_bins=12, s_bins=8, v_bins=6)
        assert grid.shape == (12, 8)
        assert np.allclose(grid, 0.0, atol=1e-12)

    def test_peak_near_green_hue(self):
        # interior green: channel values 0/1 alias under the periodic features
        model = tiny_model()
        green = fourier_features(Color(0.1, 0.8, 0.2))
        rig_constant_output(model, green, np.eye(54) * 40.0)
        grid = density_grid(model, ["blue"], h_bins=36, s_bins=10, v_bins=10)
        hue_of_max = (np.unravel_index(grid.argmax(), grid.shape)[0] + 0.5) * 10.0
        assert 90.0 <= hue_of_max <= 150.0

    def test_matches_direct_summation(self):
        model = tiny_model(seed=4)
        grid = density_grid(model, ["dark", "red"], h_bins=10, s_bins=7, v_bins=5)

        # independent direct 3-D summation over the same lattice
        from pragref.colorspace import _hsv_to_rgb_arrays, fourier_features_array
        h = (np.arange(10) + 0.5) * 36.0
        s = (np.arange(7) + 0.5) / 7
        v = (np.arange(5) + 0.5) / 5
        hh, ss, vv = np.meshgrid(h, s, v, indexing="ij")
        r, g, b = _hsv_to_rgb_arrays(hh.ravel(), ss.ravel(), vv.ravel())
        feats = fourier_features_array(np.stack([r, g, b], axis=-1))
        mu, sigma = model.mu_sigma(np.array([model.encode_tokens(["dark", "red"])]))
        d = feats - mu.data[0]
        scores = -np.einsum("nf,fe,ne->n", d, sigma.data[0], d).reshape(10, 7, 5)
        direct = np.log(np.exp(scores).sum(axis=2))
        direct -= direct.max()
        assert np.allclose(grid, direct, atol=1e-9)


class TestCheckpointRoundTrip:
    def test_save_load_preserves_scores(self, tmp_path):
        model = tiny_model(seed=5)
        colors = (Color(0.9, 0.1, 0.1), Color(0.1, 0.2, 0.8), Color(0.2, 0.9, 0.3))
        before = l0_score(model, ["dark", "blue"], colors)
        path = tmp_path / "l0.npz"
        model.save(path)
        loaded = ListenerModel.load(path)
        after = l0_score(loaded, ["dark", "blue"], colors)
        assert np.allclose(before, after, atol=0)
        assert loaded.vocab.id_to_token == model.vocab.id_to_token

    def test_path_without_suffix(self, tmp_path):
        model = tiny_model(seed=5)
        path = tmp_path / "l0ck"
        model.save(path)
        loaded = ListenerModel.load(path)
        for p, q in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(p.data, q.data)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(MissingCheckpoint):
            ListenerModel.load(tmp_path / "absent.npz")

    def test_mismatched_arrays_raise(self, tmp_path):
        model = tiny_model(seed=5)
        path = tmp_path / "l0.npz"
        model.save(path)
        arrays, config = load_checkpoint(path)

        missing = tmp_path / "missing.npz"
        save_checkpoint(missing, {k: v for k, v in arrays.items() if k != "out_b"}, config)
        with pytest.raises(ValueError, match="out_b"):
            ListenerModel.load(missing)

        # one more vocabulary entry than embedding rows
        grown = tmp_path / "grown.npz"
        save_checkpoint(grown, arrays, {**config, "vocab": config["vocab"] + ["teal"]})
        with pytest.raises(ValueError, match="embedding"):
            ListenerModel.load(grown)
