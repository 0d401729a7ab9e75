import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    GRAD_RTOL,
    INFERENCE_ATOL,
    checkpoint_meta,
    read_checkpoint,
    traced_peak,
    write_checkpoint,
)
from pragref.colorspace import Color, fourier_features_array, hsv_to_rgb_arrays
from pragref.corpus import build_vocab, synth_corpus, preprocess
from pragref.errors import EmptyUtterance, IndexOutOfRange, MissingCheckpoint, NonFiniteGradient
from pragref.listener import (
    ListenerModel,
    context_features,
    density_grid,
    evaluate_l0,
    l0_probs_many,
    l0_score,
    train_l0,
)
from pragref import listener
from pragref.nnsubstrate import (
    Tensor,
    fd_gradient,
    gradcheck_rel_error,
    log_softmax,
    quad_scores,
    softmax_xent,
)
from pragref.training import TrainConfig, load_model, same_length_batches, save_model


def tiny_model(seed=0):
    vocab = build_vocab([["blue", "blue", "dark", "dark", "red", "red"]])
    return ListenerModel.create(vocab, np.random.default_rng(seed), embed_dim=8, hidden_dim=6)


def rig_constant_output(model, mu, sigma):
    """Make the output map ignore the utterance: constant (mu, Sigma)."""
    model.out_w.data[:] = 0.0
    model.out_b.data[:] = np.concatenate([mu, sigma.ravel()])


class TestL0Score:
    def test_mu_at_color_wins(self):
        model = tiny_model()
        colors = (Color(0.9, 0.1, 0.1), Color(0.1, 0.2, 0.8), Color(0.2, 0.9, 0.3))
        rig_constant_output(model, fourier_features_array(colors[2]), np.eye(54) * 3.0)
        probs = l0_score(model, ["blue"], colors)
        assert probs.argmax() == 2
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_identical_colors_uniform(self):
        model = tiny_model()
        c = Color(0.3, 0.5, 0.7)
        probs = l0_score(model, ["dark", "blue"], (c, c, c))
        assert np.allclose(probs, 1 / 3, atol=INFERENCE_ATOL)

    def test_empty_utterance_raises(self):
        with pytest.raises(EmptyUtterance):
            l0_score(tiny_model(), [], (Color(0, 0, 0),) * 3)

    def test_permuting_colors_permutes_distribution(self):
        model = tiny_model()
        colors = (Color(0.9, 0.1, 0.1), Color(0.1, 0.2, 0.8), Color(0.2, 0.9, 0.3))
        p = l0_score(model, ["red"], colors)
        q = l0_score(model, ["red"], (colors[1], colors[2], colors[0]))
        assert np.allclose(p[[1, 2, 0]], q, atol=INFERENCE_ATOL)

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
        assert np.allclose(l0_probs_many(model, id_seqs, feats), want, rtol=0,
                           atol=INFERENCE_ATOL)

    @staticmethod
    def _per_row(model, id_seqs, feats):
        return np.stack([np.exp(log_softmax(model.scores(np.array([ids]), f[None]).data[0]))
                         for ids, f in zip(id_seqs, feats)])

    @pytest.mark.parametrize("block", [128, 3])
    def test_duplicate_rows_match_per_row(self, monkeypatch, block):
        monkeypatch.setattr(listener, "_L0_BLOCK", block)
        rng = np.random.default_rng(13)
        model = ListenerModel.create(tiny_model().vocab, rng, embed_dim=8, hidden_dim=6)
        pool = [list(rng.integers(0, len(model.vocab), size=rng.integers(1, 4)))
                for _ in range(9)]
        id_seqs = [pool[i] for i in rng.integers(0, len(pool), 60)]
        feats = rng.standard_normal((60, 3, 54))
        got = l0_probs_many(model, id_seqs, feats)
        assert np.allclose(got, self._per_row(model, id_seqs, feats), rtol=0, atol=INFERENCE_ATOL)
        shared = l0_probs_many(model, id_seqs, feats[0])
        want = self._per_row(model, id_seqs, np.repeat(feats[:1], 60, axis=0))
        assert np.allclose(shared, want, rtol=0, atol=INFERENCE_ATOL)

    def test_encodes_each_distinct_utterance_once(self):
        model = tiny_model()
        encoded = []
        encode_prefixes = model.encode_prefixes

        def counting(seqs):
            encoded.extend(seqs)
            return encode_prefixes(seqs)

        model.encode_prefixes = counting
        ids = [[3], [4, 3], [3], [5], [4, 3], [3]]
        l0_probs_many(model, ids, np.random.default_rng(0).standard_normal((3, 54)))
        assert sorted(encoded) == [(3,), (4, 3), (5,)]

    @staticmethod
    def _lstm_rows(monkeypatch):
        """Rows of every listener step l0_probs_many takes, deduped per call."""
        calls = []
        cell = listener.lstm_cell

        def counting(gates, c):
            inputs = np.column_stack([gates, c])
            calls.append((len(inputs), len(np.unique(inputs, axis=0))))
            return cell(gates, c)

        monkeypatch.setattr(listener, "lstm_cell", counting)
        return calls

    @pytest.mark.parametrize("shape", [(3, 54), (3, 3, 54)])
    @pytest.mark.parametrize("row, error", [
        ([], EmptyUtterance), ([-1], IndexOutOfRange), ([3, -1], IndexOutOfRange),
        ([6], IndexOutOfRange), ([4, 10**6], IndexOutOfRange)])
    def test_bad_id_rows_raise_typed_errors(self, row, error, shape):
        # the vocabulary has 6 ids; an id of -1 would read another prefix's state
        ids = [[3, 4], [5], row]
        with pytest.raises(error, match="id row 2"):
            l0_probs_many(tiny_model(), ids, np.zeros(shape))

    def test_encodes_each_distinct_prefix_once(self, monkeypatch):
        model = tiny_model()
        calls = self._lstm_rows(monkeypatch)
        ids = [[3, 4, 5], [3, 4, 0], [3, 5], [3, 4], [5], [4], [3, 4, 5], [5]]
        l0_probs_many(model, ids, np.random.default_rng(0).standard_normal((3, 54)))
        prefixes = {tuple(s[:j]) for s in ids for j in range(1, len(s) + 1)}
        # one call per position, one row per distinct prefix of that length
        assert calls == [(3, 3), (2, 2), (2, 2)]
        assert sum(n for _, n in calls) == len(prefixes)

    @pytest.mark.parametrize("shape", [(3, 54), (3, 3, 54)])
    def test_both_feature_shapes_encode_one_tree(self, monkeypatch, shape):
        # a prefix alone at its position runs as one row, and an utterance
        # alone at its length joins the others' tree
        calls = self._lstm_rows(monkeypatch)
        ids = [[3, 4], [3, 5], [4, 4, 4]]
        l0_probs_many(tiny_model(), ids, np.random.default_rng(0).standard_normal(shape))
        assert calls == [(2, 2), (3, 3), (1, 1)]

    def test_blocks_span_lengths_and_stay_bounded(self, monkeypatch):
        # 300 distinct utterances of lengths 1 to 4 fill three head blocks,
        # not one per length; a block bounds the head's and quad_form's rows
        heads, quads = [], []
        head, quad = ListenerModel.head_arrays, listener.quad_form
        monkeypatch.setattr(ListenerModel, "head_arrays",
                            lambda self, h: heads.append(len(h)) or head(self, h))
        monkeypatch.setattr(listener, "quad_form",
                            lambda f, mu, sigma: quads.append(len(f)) or quad(f, mu, sigma))
        rng = np.random.default_rng(14)
        pool = list(dict.fromkeys(tuple(rng.integers(0, 6, size=rng.integers(1, 5)))
                                  for _ in range(2000)))[:300]
        id_seqs = [pool[i] for i in rng.integers(0, len(pool), 700)] + pool
        l0_probs_many(tiny_model(), id_seqs, rng.standard_normal((len(id_seqs), 3, 54)))
        assert heads == [128, 128, 44]
        assert max(quads) <= listener._L0_BLOCK and sum(quads) == len(id_seqs)

    @pytest.mark.parametrize("block", [128, 7])
    def test_per_row_branch_is_graph_head_and_quad_scores(self, monkeypatch, block):
        # the prefix tree's states, then ListenerModel.head on the branch's
        # blocks of distinct utterances and quad_scores on each row: same bits
        monkeypatch.setattr(listener, "_L0_BLOCK", block)
        rng = np.random.default_rng(15)
        model = ListenerModel.create(tiny_model().vocab, rng, embed_dim=8, hidden_dim=6)
        pool = list(dict.fromkeys(tuple(rng.integers(0, 6, size=rng.integers(1, 5)))
                                  for _ in range(200)))
        id_seqs = [pool[i] for i in rng.integers(0, len(pool), 150)]
        feats = rng.standard_normal((len(id_seqs), 3, 54))
        distinct = list(dict.fromkeys(id_seqs))
        states = model.encode_prefixes(distinct)
        heads = [model.head(Tensor(states[lo:lo + block]))
                 for lo in range(0, len(distinct), block)]
        want = np.empty((len(id_seqs), 3))
        for i, seq in enumerate(id_seqs):
            block_index, k = divmod(distinct.index(seq), block)
            mu, sigma = heads[block_index]
            scores = quad_scores(feats[i][None], Tensor(mu.data[[k]]), Tensor(sigma.data[[k]]))
            want[i] = np.exp(log_softmax(scores.data[0]))
        assert np.array_equal(l0_probs_many(model, id_seqs, feats), want)

    @given(seqs=st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=5),
                         min_size=1, max_size=40),
           block=st.sampled_from([128, 3, 1]), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_prefix_tree_matches_per_row_reference(self, seqs, block, seed):
        model = ListenerModel.create(tiny_model().vocab, np.random.default_rng(seed % 5),
                                     embed_dim=8, hidden_dim=6)
        feats = np.random.default_rng(seed).standard_normal((len(seqs), 3, 54))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(listener, "_L0_BLOCK", block)
            got = l0_probs_many(model, seqs, feats)
            assert np.allclose(got, self._per_row(model, seqs, feats), rtol=0,
                               atol=INFERENCE_ATOL)
            got = l0_probs_many(model, seqs, feats[0])
            want = self._per_row(model, seqs, np.repeat(feats[:1], len(seqs), axis=0))
            assert np.allclose(got, want, rtol=0, atol=INFERENCE_ATOL)

    @given(rgb=st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 3), min_size=3, max_size=3),
           seqs=st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=5),
                         min_size=1, max_size=12),
           rig=st.sampled_from([1.0, 10.0, 100.0, "indefinite"]), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=80, deadline=None)
    def test_shared_context_matches_l0_score(self, rgb, seqs, rig, seed):
        # hidden states of order 0.1 and out_w scaled up to x100 give scores
        # up to about 1e4. With hidden states near 1 as well, l0_score's own
        # rounding, against exact arithmetic, reached 8e-12, and the fold's
        # 2e-13. The biases are not symmetric, so both sides of Sigma count.
        rng = np.random.default_rng(seed)
        model = ListenerModel.create(tiny_model().vocab, rng, embed_dim=8, hidden_dim=6)
        model.embedding.data *= 10.0
        if rig == "indefinite":
            sigma = np.diag(np.concatenate([np.full(27, 5.0), np.full(27, -5.0)]))
            rig_constant_output(model, rng.uniform(-1, 1, 54),
                                sigma + rng.normal(0.0, 1.0, (54, 54)))
        else:
            model.out_w.data *= rig
            model.out_b.data[:] = rng.normal(0.0, 0.1, model.out_b.data.shape)
        colors = tuple(Color(*c) for c in rgb)
        got = l0_probs_many(model, seqs, context_features(colors))
        want = np.stack([l0_score(model, model.vocab.decode(s), colors) for s in seqs])
        assert np.allclose(got, want, rtol=0, atol=INFERENCE_ATOL)

    @pytest.mark.parametrize("shape", [(2, 54), (3, 53), (5, 3, 54), (7, 3, 54), (6, 2, 54),
                                       (6, 3, 54, 1)])
    def test_bad_feature_shapes_raise(self, shape):
        ids = [[3]] * 6
        with pytest.raises(ValueError, match="features"):
            l0_probs_many(tiny_model(), ids, np.zeros(shape))

    @pytest.mark.parametrize("shape", [(3, 54), (0, 3, 54)])
    def test_no_utterances_give_no_rows(self, shape):
        assert l0_probs_many(tiny_model(), [], np.zeros(shape)).shape == (0, 3)

    def test_batched_matches_single(self):
        model = tiny_model()
        colors = (Color(0.9, 0.1, 0.1), Color(0.1, 0.2, 0.8), Color(0.2, 0.9, 0.3))
        seqs = [["blue"], ["dark", "blue"], ["red"]]
        ids = [model.vocab.encode(s) for s in seqs]
        batched = l0_probs_many(model, ids, context_features(colors))
        for i, s in enumerate(seqs):
            assert np.allclose(batched[i], l0_score(model, s, colors), atol=INFERENCE_ATOL)


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

    @pytest.mark.parametrize("empty", ["train", "dev"])
    def test_empty_trial_list_raises_before_training(self, empty):
        trials = synth_corpus(30, np.random.default_rng(4))
        vocab = build_vocab([preprocess(t.combined_text(), "listener") for t in trials])
        model = ListenerModel.create(vocab, np.random.default_rng(0),
                                     embed_dim=8, hidden_dim=6)
        before = [p.data.copy() for p in model.parameters()]
        lists = {"train": trials, "dev": trials[:5], empty: []}
        with pytest.raises(ValueError, match="at least one trial"):
            train_l0(model, lists["train"], lists["dev"], TrainConfig(epochs=1))
        for p, q in zip(model.parameters(), before):
            assert np.array_equal(p.data, q)

    def test_evaluating_no_trials_raises(self):
        with pytest.raises(ValueError, match="at least one trial"):
            evaluate_l0(tiny_model(), [])


class TestDensityGrid:
    def test_memory_stays_near_one_hue_row(self):
        # at the default 90 x 50 x 50 lattice the features of every point
        # would take 97 MB at once; one hue row's take about 1 MB
        model = tiny_model(seed=2)
        grid, peak = traced_peak(density_grid, model, ["blue"])
        assert grid.shape == (90, 50)
        assert peak < 32 * 2 ** 20

    def test_uniform_scorer_all_zero(self):
        model = tiny_model()
        rig_constant_output(model, np.zeros(54), np.zeros((54, 54)))
        grid = density_grid(model, ["blue"], h_bins=12, s_bins=8, v_bins=6)
        assert grid.shape == (12, 8)
        assert np.allclose(grid, 0.0, atol=INFERENCE_ATOL)

    def test_peak_near_green_hue(self):
        # interior green: channel values 0/1 alias under the periodic features
        model = tiny_model()
        green = fourier_features_array(Color(0.1, 0.8, 0.2))
        rig_constant_output(model, green, np.eye(54) * 40.0)
        grid = density_grid(model, ["blue"], h_bins=36, s_bins=10, v_bins=10)
        hue_of_max = (np.unravel_index(grid.argmax(), grid.shape)[0] + 0.5) * 10.0
        assert 90.0 <= hue_of_max <= 150.0

    def test_matches_direct_summation(self):
        model = tiny_model(seed=4)
        grid = density_grid(model, ["dark", "red"], h_bins=10, s_bins=7, v_bins=5)

        # independent direct 3-D summation over the same lattice
        h = (np.arange(10) + 0.5) * 36.0
        s = (np.arange(7) + 0.5) / 7
        v = (np.arange(5) + 0.5) / 5
        hh, ss, vv = np.meshgrid(h, s, v, indexing="ij")
        r, g, b = hsv_to_rgb_arrays(hh.ravel(), ss.ravel(), vv.ravel())
        feats = fourier_features_array(np.stack([r, g, b], axis=-1))
        mu, sigma = model.head(model.encode(np.array([model.vocab.encode(["dark", "red"])])))
        d = feats - mu.data[0]
        scores = -np.einsum("nf,fe,ne->n", d, sigma.data[0], d).reshape(10, 7, 5)
        direct = np.log(np.exp(scores).sum(axis=2))
        direct -= direct.max()
        assert np.allclose(grid, direct, atol=1e-9)

    def test_matches_graph_path(self):
        # the graph encoder and head, then quad_scores on each hue row
        model = ListenerModel.create(tiny_model().vocab, np.random.default_rng(16),
                                     embed_dim=8, hidden_dim=6)
        model.out_w.data *= 10.0
        tokens = ["dark", "blue", "red"]
        grid = density_grid(model, tokens, h_bins=12, s_bins=9, v_bins=7)
        mu, sigma = model.head(model.encode(np.array([model.vocab.encode(tokens)])))
        h = (np.arange(12) + 0.5) * 30.0
        ss, vv = (a.ravel() for a in np.meshgrid((np.arange(9) + 0.5) / 9,
                                                 (np.arange(7) + 0.5) / 7, indexing="ij"))
        scores = np.stack([
            quad_scores(fourier_features_array(np.stack(hsv_to_rgb_arrays(hue, ss, vv),
                                                         axis=-1))[None], mu, sigma).data[0]
            for hue in h]).reshape(12, 9, 7)
        shift = scores.max()
        want = np.log(np.exp(scores - shift).sum(axis=2)) + shift
        assert np.allclose(grid, want - want.max(), rtol=0, atol=INFERENCE_ATOL)


class TestCheckpointRoundTrip:
    def test_save_load_preserves_scores(self, tmp_path):
        model = tiny_model(seed=5)
        colors = (Color(0.9, 0.1, 0.1), Color(0.1, 0.2, 0.8), Color(0.2, 0.9, 0.3))
        before = l0_score(model, ["dark", "blue"], colors)
        path = tmp_path / "l0.npz"
        save_model(model, path)
        loaded = load_model(ListenerModel, path)
        after = l0_score(loaded, ["dark", "blue"], colors)
        assert np.allclose(before, after, atol=0)
        assert loaded.vocab.id_to_token == model.vocab.id_to_token

    def test_path_without_suffix(self, tmp_path):
        model = tiny_model(seed=5)
        path = tmp_path / "l0ck"
        save_model(model, path)
        loaded = load_model(ListenerModel, path)
        for p, q in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(p.data, q.data)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(MissingCheckpoint):
            load_model(ListenerModel, tmp_path / "absent.npz")

    def test_mismatched_arrays_raise(self, tmp_path):
        model = tiny_model(seed=5)
        path = tmp_path / "l0.npz"
        save_model(model, path)
        arrays, meta = read_checkpoint(path)
        config = meta["config"]

        missing = tmp_path / "missing.npz"
        kept = {k: v for k, v in arrays.items() if k != "out_b"}
        write_checkpoint(missing, kept, checkpoint_meta(kept, config))
        with pytest.raises(ValueError, match="out_b"):
            load_model(ListenerModel, missing)

        # one more vocabulary entry than embedding rows
        grown = tmp_path / "grown.npz"
        write_checkpoint(grown, arrays,
                         checkpoint_meta(arrays, {**config, "vocab": config["vocab"] + ["teal"]}))
        with pytest.raises(ValueError, match="embedding"):
            load_model(ListenerModel, grown)


# -- L0's gradient off the tape, against the tape ----------------------------------

# _l0_losses_and_grads against the tape (ListenerModel.scores, softmax_xent and
# their backward), to conftest's GRAD_RTOL. Over 30,000 random cases like
# test_matches_tape's, the largest share was 4.8e-13, at gain 4. There the
# 2,970-wide head and near-saturated softmaxes amplify the rounding in which
# the two forwards differ: lengths up to 20 gave 9.3e-13, and standard-normal
# features in place of colour features gave 1.07e-12 in one case of 30,000.


def tape_losses_and_grads(model, ids, feats, targets, scale):
    """_l0_losses_and_grads' outputs, computed on the tape."""
    losses = softmax_xent(model.scores(ids, feats), targets)[0]
    (losses.sum() * scale).backward()
    return losses.data


def gradients_of(fn, model, ids, feats, targets, scale):
    """fn's losses and the gradients it leaves, by parameter name; clears them."""
    losses = fn(model, ids, feats, targets, scale)
    grads = {p.name: p.grad for p in model.parameters()}
    for p in model.parameters():
        p.grad = None
    return losses, grads


def random_batch(model, rng, batch, length, fill):
    """batch id rows of `length`, random ids ("random") or every id <unk>
    ("unk"); the features of random contexts; and random target indices."""
    if fill == "unk":
        ids = np.full((batch, length), model.vocab.token_to_id["<unk>"])
    else:
        ids = rng.integers(0, len(model.vocab), size=(batch, length))
    return (ids, fourier_features_array(rng.uniform(size=(batch, 3, 3))),
            rng.integers(0, 3, batch))


def random_model(seed, embed_dim, hidden_dim, gain):
    model = ListenerModel.create(tiny_model().vocab, np.random.default_rng(seed),
                                 embed_dim=embed_dim, hidden_dim=hidden_dim)
    for p in model.parameters():
        p.data *= gain
    return model


class TestExplicitGradient:
    """_l0_losses_and_grads, train_l0's loss and gradient, against the tape."""

    @given(seed=st.integers(0, 2 ** 16), batch=st.integers(1, 5), length=st.integers(1, 12),
           embed_dim=st.integers(1, 5), hidden_dim=st.integers(1, 5),
           gain=st.sampled_from([1.0, 4.0]), fill=st.sampled_from(["random", "unk"]))
    @example(seed=0, batch=3, length=1, embed_dim=3, hidden_dim=2, gain=1.0, fill="random")
    @example(seed=1, batch=4, length=20, embed_dim=4, hidden_dim=3, gain=4.0, fill="random")
    @example(seed=2, batch=2, length=5, embed_dim=2, hidden_dim=4, gain=1.0, fill="unk")
    @settings(max_examples=40, deadline=None)
    def test_matches_tape(self, seed, batch, length, embed_dim, hidden_dim, gain, fill):
        rng = np.random.default_rng(seed)
        model = random_model(seed, embed_dim, hidden_dim, gain)
        ids, feats, targets = random_batch(model, rng, batch, length, fill)
        scale = 1.0 / batch
        got, grads = gradients_of(listener._l0_losses_and_grads, model, ids, feats, targets,
                                  scale)
        want, tape = gradients_of(tape_losses_and_grads, model, ids, feats, targets, scale)
        assert np.allclose(got, want, rtol=0, atol=INFERENCE_ATOL)
        for name, g in tape.items():
            assert grads[name].shape == g.shape, name
            assert np.abs(grads[name] - g).max() <= GRAD_RTOL * np.abs(g).max(), name

    def test_one_step_rows_give_no_recurrent_gradient(self):
        rng = np.random.default_rng(3)
        model = random_model(3, 4, 3, 1.0)
        ids, feats, targets = random_batch(model, rng, 5, 1, "random")
        _, grads = gradients_of(listener._l0_losses_and_grads, model, ids, feats, targets, 0.2)
        assert np.array_equal(grads["lstm.w_h"], np.zeros((3, 12)))
        assert np.abs(grads["lstm.w_x"]).max() > 0

    def test_central_differences(self):
        rng = np.random.default_rng(5)
        model = tiny_model(seed=5)
        ids, feats, targets = random_batch(model, rng, 4, 5, "random")
        _, grads = gradients_of(listener._l0_losses_and_grads, model, ids, feats, targets,
                                0.25)

        def loss():
            probs = l0_probs_many(model, ids.tolist(), feats)
            return -0.25 * float(np.log(probs[np.arange(4), targets]).sum())

        for p in model.parameters():
            coords = rng.choice(p.data.size, size=min(p.data.size, 12), replace=False)
            numeric = fd_gradient(loss, p.data, indices=coords)
            assert gradcheck_rel_error(grads[p.name], numeric, indices=coords) < 1e-4, p.name

    def test_losses_match_batched_scorer(self):
        rng = np.random.default_rng(6)
        model = tiny_model(seed=6)
        for length in (1, 3, 20):
            ids, feats, targets = random_batch(model, rng, 6, length, "random")
            losses = listener._l0_losses_and_grads(model, ids, feats, targets, 1.0)
            probs = l0_probs_many(model, ids.tolist(), feats)
            assert np.allclose(losses, -np.log(probs[np.arange(6), targets]), rtol=0,
                               atol=INFERENCE_ATOL)

    def test_builds_no_tensor(self, monkeypatch):
        # test_nnsubstrate's test_no_two_parameter_gradients_share_memory checks
        # that the gradients are separate arrays
        rng = np.random.default_rng(7)
        model = tiny_model(seed=7)
        ids, feats, targets = random_batch(model, rng, 3, 4, "random")
        made = []
        init = Tensor.__init__
        monkeypatch.setattr(Tensor, "__init__",
                            lambda self, *a, **k: made.append(1) or init(self, *a, **k))
        listener._l0_losses_and_grads(model, ids, feats, targets, 1.0)
        assert made == []
        assert all(p.grad.shape == p.data.shape for p in model.parameters())

    @pytest.mark.parametrize("bad", [-1, 6, 10 ** 6])
    def test_out_of_range_id_raises(self, bad):
        # the vocabulary has 6 ids; -1 would read the last embedding row silently
        model = tiny_model(seed=8)
        ids, feats, targets = random_batch(model, np.random.default_rng(8), 3, 4, "random")
        ids[1, 2] = bad
        with pytest.raises(IndexOutOfRange, match=f"id row 1 holds id {bad}"):
            listener._l0_losses_and_grads(model, ids, feats, targets, 1.0)
        assert all(p.grad is None for p in model.parameters())

    def test_training_matches_tape_training(self, monkeypatch):
        trials = synth_corpus(90, np.random.default_rng(9))
        vocab = build_vocab([preprocess(t.combined_text(), "listener") for t in trials])
        config = TrainConfig(epochs=2, batch_size=8, seed=9)

        def run():
            model = ListenerModel.create(vocab, np.random.default_rng(9), embed_dim=9,
                                         hidden_dim=7)
            return train_l0(model, trials[20:], trials[:20], config), model

        ours, model = run()
        monkeypatch.setattr(listener, "_l0_losses_and_grads", tape_losses_and_grads)
        tape, tape_model = run()
        assert ours.best_epoch == tape.best_epoch
        for a, b in zip(ours.epochs, tape.epochs):
            assert (a.epoch, a.clipped_steps) == (b.epoch, b.clipped_steps)
            for field in ("train_loss", "dev_accuracy", "dev_perplexity", "max_grad_norm"):
                assert getattr(a, field) == pytest.approx(getattr(b, field), rel=1e-9), field
        for p, q in zip(model.parameters(), tape_model.parameters()):
            assert np.allclose(p.data, q.data, rtol=0, atol=1e-9), p.name

    # one entry of each parameter; the embedding's is in the row of the first
    # training utterance's first token
    @pytest.mark.parametrize("name", ["embedding", "lstm.w_x", "lstm.w_h", "lstm.bias", "out_w",
                                      "out_b"])
    def test_poisoned_parameter_raises(self, name):
        trials = synth_corpus(30, np.random.default_rng(10))
        vocab = build_vocab([preprocess(t.combined_text(), "listener") for t in trials])
        model = ListenerModel.create(vocab, np.random.default_rng(10), embed_dim=6,
                                     hidden_dim=5)
        param = next(p for p in model.parameters() if p.name == name)
        row = listener.trial_listener_ids(model, trials[0])[0] if name == "embedding" else 0
        param.data[row, ...] = np.nan
        with pytest.raises(NonFiniteGradient):
            train_l0(model, trials, trials[:5], TrainConfig(epochs=1))
