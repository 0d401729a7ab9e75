import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    GRAD_RTOL,
    INFERENCE_ATOL,
    checkpoint_meta,
    read_checkpoint,
    set_cpus,
    traced_peak,
    write_checkpoint,
)
from pragref import nnsubstrate, speaker
from pragref.colorspace import Color, Condition, fourier_features_array
from pragref.corpus import EOS, build_vocab, preprocess, synth_corpus
from pragref.errors import EmptyUtterance, IndexOutOfRange, MissingCheckpoint, NonFiniteGradient
from pragref.listener import ListenerModel, density_grid, evaluate_l0, l0_probs_many
from pragref.metrics import BaseSpeakerSampler, PragmaticSpeakerSampler
from pragref.nnsubstrate import Tensor, fd_gradient, gradcheck_rel_error
from pragref.rsa import PragmaticsConfig, compute_agents
from pragref.speaker import (
    MAX_DECODE_LEN,
    SpeakerModel,
    _teacher_forced_losses,
    dev_token_perplexity,
    feature_rows,
    reorder_target_last,
    s0_log_prob,
    s0_log_probs_batch,
    s0_sample_utterances,
    target_last_features,
    target_last_order,
    train_s0,
)
from pragref.training import TrainConfig, load_model, same_length_batches, save_model

COLORS = (Color(0.9, 0.1, 0.1), Color(0.1, 0.2, 0.8), Color(0.2, 0.9, 0.3))


def tiny_model(seed=0):
    vocab = build_vocab([["blue", "blue", "dark", "dark", "red", "red"]])
    return SpeakerModel.create(vocab, np.random.default_rng(seed), embed_dim=8, hidden_dim=6)


def sampled_rows(model, feats, rng, per_context=1):
    """The id rows that s0_sample_utterances draws, context-major, each ending in </s>."""
    types, row_types, _ = s0_sample_utterances(model, feats, rng, per_context)
    return [tuple(model.vocab.encode([*(types[t] if t >= 0 else ()), EOS]))
            for t in row_types.tolist()]


def sample_one(model, target, rng):
    """One sampled description of COLORS[target], as speaker tokens ending in </s>."""
    (ids,) = sampled_rows(model, reorder_target_last(COLORS, target)[None], rng)
    return model.vocab.decode(list(ids))


def scored_alone(model, tokens, target):
    """The sampler's score of tokens under COLORS[target], in a call that samples nothing."""
    feats = reorder_target_last(COLORS, target)[None]
    return s0_sample_utterances(model, feats, None, 0, [model.vocab.encode(tokens)])[2][0]


def scaled_model(seed, scale):
    """tiny_model with its logits multiplied by scale: 0.0 gives a uniform speaker."""
    model = tiny_model(seed)
    model.out_w.data *= scale
    model.out_b.data *= scale
    return model


def graph_sample_batch(model, feats, rng):
    """The sampler's id rows with the autograd graph built and per-row bookkeeping."""
    batch = feats.shape[0]
    ctx = model.encode(feats)
    h = Tensor(np.zeros((batch, model.hidden_dim)))
    c = Tensor(np.zeros((batch, model.hidden_dim)))
    prev = np.full(batch, model.vocab.bos_id)
    alive = np.ones(batch, dtype=bool)
    seqs = [[] for _ in range(batch)]
    eos = model.vocab.eos_id
    for step in range(MAX_DECODE_LEN):
        logits, h, c = model.step_logits(ctx, prev, h, c)
        assert logits.requires_grad
        z = logits.data - logits.data.max(axis=1, keepdims=True)
        z_sample = z.copy()
        z_sample[:, model.vocab.bos_id] = -np.inf
        if step == MAX_DECODE_LEN - 1:
            chosen = np.full(batch, eos)
        else:
            pt = np.exp(z_sample - z_sample.max(axis=1, keepdims=True))
            pt /= pt.sum(axis=1, keepdims=True)
            u = rng.random((batch, 1))
            chosen = np.minimum((pt.cumsum(axis=1) < u).sum(axis=1), pt.shape[1] - 1)
        for i in range(batch):
            if alive[i]:
                seqs[i].append(int(chosen[i]))
        alive &= chosen != eos
        if not alive.any():
            break
        prev = np.where(alive, chosen, eos)
    return [tuple(s) for s in seqs]


def decoder_calls(monkeypatch):
    """Input rows (context and word gate terms, then h and c past step 0) of
    every decoder step the sampler or the scorer takes."""
    calls = []
    step = speaker._decoder_step

    def counting(model, ctx, words, prev, hc=None, split=0):
        calls.append(np.column_stack([ctx, words[prev], *([] if hc is None else hc)]))
        return step(model, ctx, words, prev, hc, split)

    monkeypatch.setattr(speaker, "_decoder_step", counting)
    return calls


def encoder_calls(model):
    """Number of contexts of every encoder pass model makes from here on
    (SpeakerModel._encoder_pass, which the sampler's context terms run)."""
    encoded = []
    encode = model._encoder_pass

    def counting(feats):
        encoded.append(len(feats))
        return encode(feats)

    model._encoder_pass = counting
    return encoded


def live_row_sample_batch(model, feats, rng, rows=None):
    """The sampler's id rows, decoding every live row as its own decoder row;
    rows, when given, maps each row to a context of feats."""
    eos = model.vocab.eos_id
    ctx = model.encode(feats)
    if rows is not None:
        ctx = Tensor(ctx.data[rows])
    batch = ctx.data.shape[0]
    h = Tensor(np.zeros((batch, model.hidden_dim)))
    c = Tensor(np.zeros((batch, model.hidden_dim)))
    prev = np.full(batch, model.vocab.bos_id)
    live = np.arange(batch)
    ids = np.full((batch, MAX_DECODE_LEN), eos)
    for step in range(MAX_DECODE_LEN):
        logits, h, c = model.step_logits(ctx, prev, h, c)
        z = logits.data - logits.data.max(axis=1, keepdims=True)
        z_sample = z.copy()
        z_sample[:, model.vocab.bos_id] = -np.inf
        if step == MAX_DECODE_LEN - 1:
            chosen = np.full(len(live), eos)
        else:
            pt = np.exp(z_sample - z_sample.max(axis=1, keepdims=True))
            pt /= pt.sum(axis=1, keepdims=True)
            u = rng.random((batch, 1))[live]
            chosen = np.minimum((pt.cumsum(axis=1) < u).sum(axis=1), pt.shape[1] - 1)
        ids[live, step] = chosen
        going = chosen != eos
        if not going.any():
            break
        if not going.all():
            live, chosen = live[going], chosen[going]
            ctx, h, c = (Tensor(t.data[going]) for t in (ctx, h, c))
        prev = chosen
    return [tuple(row[:row.index(eos) + 1]) for row in ids.tolist()]


class TestEncodeContext:
    def test_target_fed_last(self):
        feats = reorder_target_last(COLORS, 0)
        assert np.allclose(feats[2], fourier_features_array(COLORS[0]))
        assert np.allclose(feats[0], fourier_features_array(COLORS[1]))

    def test_zero_weight_encoder_gives_zero(self):
        model = tiny_model()
        for p in model.encoder.parameters():
            p.data[:] = 0.0
        assert np.allclose(model.encode(reorder_target_last(COLORS, 1)[None]).data, 0.0)

    def test_matches_hand_recurrence_1dim(self):
        # 1-dim encoder over the 54 features, scalar recomputation
        vocab = build_vocab([["a", "a"]])
        model = SpeakerModel.create(vocab, np.random.default_rng(3), embed_dim=2, hidden_dim=1)
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
        got = model.encode(feats[None]).data[0]
        assert abs(float(got[0]) - c) < INFERENCE_ATOL

    def test_forward_only_encoder_equals_graph_encoder(self):
        # skipping h W_h where h is zero leaves every sum as encode forms it,
        # and the context terms are one product of encode's rows
        model = tiny_model(seed=4)
        feats = np.random.default_rng(5).standard_normal((40, 3, 54))
        w, b = model.decoder.w_x.data[:model.hidden_dim], model.decoder.bias.data
        assert np.array_equal(model._encoder_pass(feats), model.encode(feats).data @ w + b)


class TestTargetLastFeatures:
    RGB = np.array(COLORS)

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

    def test_distractors_in_rgb_order(self):
        rng = np.random.default_rng(13)
        rgb = rng.random((60, 3, 3))
        rgb[:20, 1, 0] = rgb[:20, 0, 0]  # first channels tie
        rgb[:10, 1, 1] = rgb[:10, 0, 1]  # first two channels tie
        rgb[50:, 1] = rgb[50:, 0]        # equal colors
        targets = rng.integers(0, 3, 60)
        want = []
        for ctx, t in zip(rgb, targets):
            d = sorted(tuple(ctx[i]) for i in range(3) if i != t)
            want.append(fourier_features_array(np.array(d + [tuple(ctx[t])])))
        assert np.array_equal(target_last_features(rgb, targets), np.stack(want))

    @pytest.mark.parametrize("perm", [(1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)])
    def test_rows_do_not_depend_on_stored_order(self, perm):
        rng = np.random.default_rng(14)
        rgb = rng.random((50, 3, 3))
        targets = rng.integers(0, 3, 50)
        moved = np.argsort(perm)[targets]  # where each target lands
        assert np.array_equal(target_last_features(rgb[:, perm], moved),
                              target_last_features(rgb, targets))

    def test_color_lists_read_as_arrays(self):
        # lists of Color triples are read channel by channel; both feature
        # arrays come from one feature pass and match featurizing each order
        rng = np.random.default_rng(16)
        rgb, targets = rng.random((30, 3, 3)), rng.integers(0, 3, 30)
        rgb[::5, 1] = rgb[::5, 0]  # equal distractors or target
        contexts = [tuple(Color(*color) for color in ctx) for ctx in rgb.tolist()]
        stored, target_last = feature_rows(contexts, targets.tolist())
        assert np.array_equal(stored, fourier_features_array(rgb))
        assert np.array_equal(target_last, target_last_features(rgb, targets))
        assert np.array_equal(target_last, target_last_features(contexts, targets))
        n = np.arange(30)[:, None]
        assert np.array_equal(target_last,
                              fourier_features_array(rgb[n, target_last_order(rgb, targets)]))

    @pytest.mark.parametrize("contexts", [
        [[(0.1, 0.2, 0.3)] * 2],                             # two colors
        [[(0.1, 0.2, 0.3)] * 4, [(0.1, 0.2, 0.3)] * 2],      # four and two: 18 channels
        [[(0.1, 0.2), (0.1, 0.2, 0.3, 0.4), (0.1, 0.2, 0.3)]],  # 2, 4 and 3 channels
    ])
    def test_malformed_color_lists_raise(self, contexts):
        with pytest.raises(ValueError, match="3 colors of 3 channels"):
            target_last_features(contexts, [0] * len(contexts))

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
        assert lp == pytest.approx(total, abs=INFERENCE_ATOL)

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
        assert np.allclose(got, want, rtol=0, atol=INFERENCE_ATOL)

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


def scoring_inputs(model, rng, lengths):
    """Random id rows ending in </s> of the given lengths, and random contexts:
    (id rows, color triples, target indices, target-last features)."""
    eos = model.vocab.eos_id
    id_seqs = [[int(i) for i in rng.integers(0, len(model.vocab), n - 1)] + [eos]
               for n in lengths]
    colors = [tuple(Color(*rgb) for rgb in rng.random((3, 3))) for _ in lengths]
    targets = rng.integers(0, 3, len(lengths))
    return id_seqs, colors, targets, target_last_features(colors, targets)


def per_row_log_probs(model, id_seqs, colors, targets):
    """s0_log_prob of each row on its own."""
    return np.array([s0_log_prob(model, model.vocab.decode(ids), c, t)
                     for ids, c, t in zip(id_seqs, colors, targets)])


class TestBatchScoring:
    """s0_log_probs_batch matches s0_log_prob row by row, in length-sorted passes."""

    @pytest.mark.parametrize("lengths", [
        [3, 1, 7, 2, 2, 5, 1, 4, 6, 3, 1, 2],            # mixed lengths
        [MAX_DECODE_LEN] * 4 + [1, MAX_DECODE_LEN, 2],    # rows as long as the sampler's
        [5],                                              # one-row batches
        [1],
    ])
    def test_matches_per_row_log_prob(self, lengths):
        model = tiny_model(seed=12)
        id_seqs, colors, targets, feats = scoring_inputs(
            model, np.random.default_rng(len(lengths)), lengths)
        got = s0_log_probs_batch(model, id_seqs, feats)
        assert got.shape == (len(lengths),)
        assert np.allclose(got, per_row_log_probs(model, id_seqs, colors, targets),
                           rtol=0, atol=INFERENCE_ATOL)

    def test_passes_of_at_most_sample_batch_rows(self, monkeypatch):
        monkeypatch.setattr("pragref.speaker.SAMPLE_BATCH", 4)
        model = tiny_model(seed=13)
        lengths = [2, 6, 1, 3, 3, 8, 1, 2, 5, 4, 1]
        id_seqs, colors, targets, feats = scoring_inputs(model, np.random.default_rng(3),
                                                         lengths)
        encoded, steps = encoder_calls(model), decoder_calls(monkeypatch)
        got = s0_log_probs_batch(model, id_seqs, feats)
        assert np.allclose(got, per_row_log_probs(model, id_seqs, colors, targets),
                           rtol=0, atol=INFERENCE_ATOL)
        # one encoder pass per batch of contexts, one decoder step per live
        # row and step; passes take the longest rows first: 8 6 5 4, 3 3 2 2, 1 1 1
        assert encoded == [4, 4, 3]
        assert [len(rows) for rows in steps] == ([4, 4, 4, 4, 3, 2, 1, 1] + [4, 4, 2]
                                                 + [3])
        assert sum(map(len, steps)) == sum(lengths)

    @pytest.mark.parametrize("batch", [1024, 3])
    def test_rows_do_not_depend_on_order(self, monkeypatch, batch):
        monkeypatch.setattr("pragref.speaker.SAMPLE_BATCH", batch)
        model = tiny_model(seed=14)
        rng = np.random.default_rng(8)
        id_seqs, _, _, feats = scoring_inputs(model, rng, rng.integers(1, 9, 20))
        got = s0_log_probs_batch(model, id_seqs, feats)
        perm = rng.permutation(20)
        permuted = s0_log_probs_batch(model, [id_seqs[i] for i in perm], feats[perm])
        assert np.allclose(permuted, got[perm], rtol=0, atol=INFERENCE_ATOL)

    def test_no_rows_give_no_log_probs(self):
        assert s0_log_probs_batch(tiny_model(), [], np.zeros((0, 3, 54))).shape == (0,)

    @pytest.mark.parametrize("row, error", [
        ([], EmptyUtterance), ([-1, 2], IndexOutOfRange), ([3, -1], IndexOutOfRange),
        ([6, 2], IndexOutOfRange), ([2, 10**6], IndexOutOfRange), ([3.5, 2], TypeError),
        ([True, 2], TypeError), ([3, np.float64(2.0)], TypeError)])
    def test_bad_id_rows_raise_typed_errors(self, row, error):
        # the vocabulary has 6 ids; an id of -1 would read the last word's row,
        # 3.5 would be read as 3 and True as 1
        model = tiny_model()
        id_seqs = [[3, 2], row, [4, 2]]
        with pytest.raises(error, match="id row 1"):
            s0_log_probs_batch(model, id_seqs, np.zeros((3, 3, 54)))

    def test_a_flat_score_row_raises_naming_it(self):
        # one flat row for two contexts, where each context takes a row of its own
        with pytest.raises(TypeError, match="id row 0 is 3, not a sequence of ids"):
            s0_sample_utterances(tiny_model(), np.zeros((2, 3, 54)), None, 0, [3, 2])

    def test_rows_must_end_with_end_token(self):
        # as s0_log_prob does: scoring such a row would give a prefix's probability
        with pytest.raises(ValueError, match="id row 1 does not end"):
            s0_log_probs_batch(tiny_model(), [[3, 2], [3, 4], [2]], np.zeros((3, 3, 54)))

    def test_mis_shaped_features_raise(self):
        with pytest.raises(ValueError, match="expected features"):
            s0_log_probs_batch(tiny_model(), [[2], [3, 2]], np.zeros((3, 3, 54)))


def test_inference_lstms_construct_no_tensor(monkeypatch):
    # every inference entry point runs on plain arrays; s0_log_prob, the
    # graph reference, shows that the count sees the Tensors it makes
    model = tiny_model(seed=3)
    l0 = ListenerModel.create(model.vocab, np.random.default_rng(3), embed_dim=8, hidden_dim=6)
    id_seqs, colors, targets, feats = scoring_inputs(model, np.random.default_rng(1), [3, 1, 4])
    trials = synth_corpus(6, np.random.default_rng(4))
    contexts = [(c, int(t), Condition.FAR) for c, t in zip(colors, targets)]
    made = []
    init = Tensor.__init__

    def counting(self, *args, **kwargs):
        made.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting)
    s0_log_prob(model, ["blue", EOS], COLORS, 0)
    assert made
    made.clear()
    s0_log_probs_batch(model, id_seqs, feats)
    s0_sample_utterances(model, feats, np.random.default_rng(2), 2, [id_seqs[0]] * 3)
    l0.encode_prefixes([(3, 4), (3,), (5, 4, 3)])
    listener_ids = [[3, 4], [3], [5, 4, 3]]
    l0_probs_many(l0, listener_ids, fourier_features_array(COLORS))
    l0_probs_many(l0, listener_ids, fourier_features_array(colors))
    evaluate_l0(l0, trials)
    density_grid(l0, ["blue"], h_bins=4, s_bins=3, v_bins=2)
    dev_token_perplexity(model, trials)
    compute_agents(l0, model, ("dark", "blue"), COLORS, PragmaticsConfig(m=2, n=2),
                   np.random.default_rng(5))
    BaseSpeakerSampler(model).sample_texts(contexts, np.random.default_rng(6))
    PragmaticSpeakerSampler(l0, model).sample_texts(contexts, np.random.default_rng(7))
    assert made == []


class TestSampling:
    def test_sample_log_prob_consistent(self):
        # the sampler's score of a sample is s0_log_prob's
        model = tiny_model(seed=5)
        rng = np.random.default_rng(8)
        for _ in range(10):
            tokens = sample_one(model, 2, rng)
            assert tokens[-1] == EOS
            assert len(tokens) <= 20
            recomputed = s0_log_prob(model, tokens, COLORS, 2)
            assert recomputed == pytest.approx(scored_alone(model, tokens, 2), abs=1e-9)

    @pytest.mark.parametrize("scale", [1.0, 0.0])
    def test_forward_only_matches_graph_forward(self, scale):
        model = scaled_model(9, scale)
        feats = np.random.default_rng(2).standard_normal((50, 3, 54))
        got = sampled_rows(model, feats, np.random.default_rng(3))
        assert got == graph_sample_batch(model, feats, np.random.default_rng(3))

    def test_truncated_rows_match_graph_forward(self):
        model = tiny_model(seed=6)
        model.out_b.data[model.vocab.eos_id] = -3.0
        feats = np.random.default_rng(4).standard_normal((30, 3, 54))
        got = sampled_rows(model, feats, np.random.default_rng(5))
        assert any(len(ids) == MAX_DECODE_LEN for ids in got)
        assert got == graph_sample_batch(model, feats, np.random.default_rng(5))

    @pytest.mark.parametrize("scale", [1.0, 0.0])
    def test_decodes_only_live_rows(self, monkeypatch, scale):
        model = scaled_model(9, scale)
        feats = np.random.default_rng(2).standard_normal((50, 3, 54))
        calls = decoder_calls(monkeypatch)
        rows = sampled_rows(model, feats, np.random.default_rng(3))
        assert sum(map(len, calls)) == sum(map(len, rows))

    def test_truncated_rows_decode_only_live_rows(self, monkeypatch):
        model = tiny_model(seed=6)
        model.out_b.data[model.vocab.eos_id] = -3.0
        feats = np.random.default_rng(4).standard_normal((30, 3, 54))
        calls = decoder_calls(monkeypatch)
        lengths = list(map(len, sampled_rows(model, feats, np.random.default_rng(5))))
        assert MAX_DECODE_LEN in lengths and min(lengths) < MAX_DECODE_LEN
        assert sum(map(len, calls)) == sum(lengths)

    @pytest.mark.parametrize("scale", [1.0, 0.5, 0.0])
    def test_row_map_matches_gathered_features(self, scale):
        # per_context rows of a context draw as the same context repeated
        model = scaled_model(9, scale)
        feats = np.random.default_rng(7).standard_normal((4, 3, 54))
        got = sampled_rows(model, feats, np.random.default_rng(3), per_context=12)
        assert got == sampled_rows(model, np.repeat(feats, 12, axis=0), np.random.default_rng(3))

    def test_row_map_encodes_each_context_once(self):
        model = tiny_model(seed=9)
        encoded = encoder_calls(model)
        feats = np.random.default_rng(8).standard_normal((3, 3, 54))
        rows = sampled_rows(model, feats, np.random.default_rng(1), per_context=16)
        assert encoded == [3] and len(rows) == 48

    def test_utterances_per_context_match_repeated_contexts(self, monkeypatch):
        # 6-row batches cut through some 4-row pools and end with others
        monkeypatch.setattr("pragref.speaker.SAMPLE_BATCH", 6)
        model = tiny_model(seed=11)
        feats = np.random.default_rng(9).standard_normal((5, 3, 54))
        want = s0_sample_utterances(model, np.repeat(feats, 4, axis=0),
                                    np.random.default_rng(4))
        encoded = encoder_calls(model)
        got = s0_sample_utterances(model, feats, np.random.default_rng(4), per_context=4)
        assert len(got[1]) == 20 and got[0] == want[0] and np.array_equal(got[1], want[1])
        # rows 0-5, 6-11, 12-17 and 18-19 span contexts 0-1, 1-2, 3-4 and 4
        assert encoded == [2, 2, 2, 1]

    def test_utterances_are_deduped_types_in_first_draw_order(self, monkeypatch):
        model = tiny_model(seed=11)
        model.out_b.data[model.vocab.eos_id] = 1.0  # some bare </s> rows
        feats = np.random.default_rng(9).standard_normal((6, 3, 54))
        rows = live_row_sample_batch(model, feats, np.random.default_rng(4),
                                     rows=np.repeat(np.arange(6), 5))
        decode_calls = []
        decode = model.vocab.decode

        def counting(ids):
            decode_calls.append(tuple(ids))
            return decode(ids)

        monkeypatch.setattr(model.vocab, "decode", counting)
        types, row_types, _ = s0_sample_utterances(model, feats, np.random.default_rng(4),
                                                   per_context=5)
        samples = [tuple(decode(list(ids))[:-1]) for ids in rows]
        assert types == list(dict.fromkeys(u for u in samples if u))
        assert row_types.tolist() == [types.index(u) if u else -1 for u in samples]
        assert () in samples and len(types) < len([u for u in samples if u])
        # one decode per distinct id sequence; a bare </s> needs none
        assert sorted(decode_calls) == sorted(set(rows) - {(model.vocab.eos_id,)})

    def test_truncation_forces_end_token(self):
        model = tiny_model(seed=6)
        # make </s> essentially unreachable by sampling: bias it far down
        model.out_b.data[model.vocab.eos_id] = -100.0
        tokens = sample_one(model, 0, np.random.default_rng(1))
        assert len(tokens) == 20
        assert tokens[-1] == EOS
        assert s0_log_prob(model, tokens, COLORS, 0) == pytest.approx(
            scored_alone(model, tokens, 0), abs=1e-9)

    @pytest.mark.parametrize("per_context", [-1, 2.5, True, "2", None])
    def test_bad_per_context_raises(self, per_context):
        # -1 and 2.5 failed inside numpy, and True drew one row per context
        feats = np.random.default_rng(0).standard_normal((3, 3, 54))
        with pytest.raises(ValueError, match="per_context must be an integer"):
            s0_sample_utterances(tiny_model(), feats, np.random.default_rng(0), per_context)

    @pytest.mark.parametrize("shape", [(3, 3, 50), (3, 54), (3, 2, 54), (3, 3, 54, 1)])
    def test_mis_shaped_features_raise(self, shape):
        # (3, 3, 50) failed inside matmul with a gufunc message
        with pytest.raises(ValueError, match=rf"shape \(K, 3, 54\), got \({shape[0]}, "):
            s0_sample_utterances(tiny_model(), np.zeros(shape), np.random.default_rng(0))

    @pytest.mark.parametrize("per_context", [1, 3])
    def test_sampling_without_a_generator_raises(self, per_context):
        # it failed at the first sampled step, inside _decode, with an
        # AttributeError on None.random
        feats = np.random.default_rng(0).standard_normal((2, 3, 54))
        with pytest.raises(ValueError, match="rng=None"):
            s0_sample_utterances(tiny_model(), feats, None, per_context)
        with pytest.raises(ValueError, match="rng=None"):
            s0_sample_utterances(tiny_model(), feats, None, per_context, [[3, 2]] * 2)

    def test_no_contexts_need_no_generator(self):
        types, row_types, _ = s0_sample_utterances(tiny_model(), np.zeros((0, 3, 54)), None, 3)
        assert types == [] and row_types.shape == (0,)


class TestSharedPrefixSampling:
    """The sampler decodes each (context, prefix) once, and matches decoding
    every row on its own through step_logits."""

    @given(n_contexts=st.integers(1, 4),
           picks=st.lists(st.integers(0, 3), min_size=1, max_size=8),
           per_context=st.integers(0, 6), truncate=st.booleans(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_row_maps_match_live_row_reference(self, n_contexts, picks, per_context,
                                               truncate, seed):
        # contexts repeat: picks gathers the rows of feats from n_contexts distinct ones
        model = tiny_model(seed=seed % 7)
        if truncate:
            model.out_b.data[model.vocab.eos_id] = -3.0
        distinct = np.random.default_rng(seed).standard_normal((n_contexts, 3, 54))
        feats = distinct[np.array(picks) % n_contexts]
        got = sampled_rows(model, feats, np.random.default_rng(seed), per_context)
        assert got == live_row_sample_batch(model, feats, np.random.default_rng(seed),
                                            rows=np.repeat(np.arange(len(feats)), per_context))

    def test_truncated_rows_with_repeats_match_reference(self):
        model = tiny_model(seed=6)
        model.out_b.data[model.vocab.eos_id] = -3.0
        feats = np.random.default_rng(4).standard_normal((3, 3, 54))
        got = sampled_rows(model, feats, np.random.default_rng(5), per_context=20)
        lengths = list(map(len, got))
        assert MAX_DECODE_LEN in lengths and min(lengths) < MAX_DECODE_LEN
        assert got == live_row_sample_batch(model, feats, np.random.default_rng(5),
                                            rows=np.repeat(np.arange(3), 20))

    @pytest.mark.parametrize("scale", [1.0, 0.5, 0.0])
    @pytest.mark.parametrize("truncate", [False, True])
    def test_decoder_runs_once_per_context_prefix(self, monkeypatch, scale, truncate):
        model = scaled_model(9, scale)
        if truncate:
            model.out_b.data[model.vocab.eos_id] = -3.0
        feats = np.random.default_rng(7).standard_normal((4, 3, 54))
        calls = decoder_calls(monkeypatch)
        out = sampled_rows(model, feats, np.random.default_rng(3), per_context=20)
        assert all(len(np.unique(inputs, axis=0)) == len(inputs) for inputs in calls)
        states = {(r // 20, ids[:j]) for r, ids in enumerate(out) for j in range(len(ids))}
        assert sum(map(len, calls)) == len(states)
        assert len(states) < sum(map(len, out))

    def test_single_context_runs_as_one_row(self, monkeypatch):
        model = tiny_model(seed=9)
        feats = np.random.default_rng(7).standard_normal((1, 3, 54))
        calls = decoder_calls(monkeypatch)
        got = sampled_rows(model, feats, np.random.default_rng(3), per_context=5)
        assert len(calls[0]) == 1  # five rows share the one step-0 node
        assert got == live_row_sample_batch(model, feats, np.random.default_rng(3),
                                            rows=np.zeros(5, dtype=int))

    def test_empty_row_map_gives_no_rows(self):
        feats = np.random.default_rng(0).standard_normal((3, 3, 54))
        for got in (s0_sample_utterances(tiny_model(), feats, np.random.default_rng(0), 0),
                    s0_sample_utterances(tiny_model(), feats[:0], np.random.default_rng(0))):
            assert got[0] == [] and got[1].shape == (0,) and got[2] is None


class TestSampleAndScore:
    """s0_sample_utterances with score: its draws without score, and
    s0_log_probs_batch's scores of the score rows, from one chunk loop."""

    @pytest.mark.parametrize("per_context, truncate", [(0, False), (1, False), (6, False),
                                                       (6, True)])
    def test_matches_sampler_and_scorer(self, per_context, truncate):
        model = tiny_model(seed=15)
        if truncate:
            model.out_b.data[model.vocab.eos_id] = -3.0
        feats = np.random.default_rng(10).standard_normal((4, 3, 54))
        ids = model.vocab.encode(["dark", "blue", "red", EOS])
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        types, row_types, log_probs = s0_sample_utterances(model, feats, rng, per_context,
                                                           [ids] * 4)
        want_types, want_rows, unscored = s0_sample_utterances(model, feats, ref_rng,
                                                               per_context)
        assert types == want_types and np.array_equal(row_types, want_rows)
        assert unscored is None and rng.random() == ref_rng.random()
        assert np.array_equal(log_probs, s0_log_probs_batch(model, [ids] * 4, feats))

    def test_no_samples_use_no_generator(self):
        model = tiny_model(seed=16)
        feats = np.random.default_rng(12).standard_normal((3, 3, 54))
        types, row_types, log_probs = s0_sample_utterances(model, feats, None, 0, [[3, 2]] * 3)
        assert types == [] and row_types.shape == (0,)
        assert np.array_equal(log_probs, s0_log_probs_batch(model, [[3, 2]] * 3, feats))


    @pytest.mark.parametrize("split", [3, 0, 7])
    def test_split_rows_get_the_floats_of_their_own_batch(self, split):
        # at hidden 100 and 9 output columns, OpenBLAS rounds a row of a
        # product differently with the rows beside it; the split keeps each
        # group's floats those of decoding it alone
        vocab = build_vocab([["blue", "dark", "red", "teal", "dull", "green"] * 2])
        model = SpeakerModel.create(vocab, np.random.default_rng(3), embed_dim=16,
                                    hidden_dim=100)
        rng = np.random.default_rng(4)
        ctx, words = rng.standard_normal((7, 400)), rng.standard_normal((9, 400))
        prev, hc = rng.integers(0, 9, 7), np.tanh(rng.standard_normal((2, 7, 100)))
        hc_all, logits = speaker._decoder_step(model, ctx, words, prev, hc, split)
        for rows in (slice(0, split), slice(split, 7)):
            hc_part, part = speaker._decoder_step(model, ctx[rows], words, prev[rows],
                                                  hc[:, rows])
            assert np.array_equal(logits[rows], part) and np.array_equal(hc_all[:, rows], hc_part)

    @pytest.mark.parametrize("ids, error", [([3, 4], ValueError), ([3, 9, 2], IndexOutOfRange),
                                            ([], EmptyUtterance)])
    def test_bad_id_rows_raise(self, ids, error):
        feats = np.random.default_rng(0).standard_normal((3, 3, 54))
        with pytest.raises(error):
            s0_sample_utterances(tiny_model(), feats, np.random.default_rng(0), 2, [ids] * 3)

    def test_target_last_order_gathers_the_features(self):
        rng = np.random.default_rng(15)
        rgb = rng.random((40, 3, 3))
        rgb[::4, 1, 0] = rgb[::4, 2, 0]  # distractors that tie on the first channel
        targets = rng.integers(0, 3, 40)
        order = target_last_order(rgb, targets)
        assert np.array_equal(order[:, 2], targets)
        assert all(sorted(row) == [0, 1, 2] for row in order.tolist())
        rows = fourier_features_array(rgb)
        assert np.array_equal(rows[np.arange(40)[:, None], order],
                              target_last_features(rgb, targets))


class TestChunks:
    """The S0 chunk loop: each chunk takes SAMPLE_BATCH sampled and SAMPLE_BATCH
    scored rows and encodes each context they use once, the scored rows' first."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr("pragref.speaker.SAMPLE_BATCH", 5)

    @staticmethod
    def encoded_contexts(model, feats):
        """The indices into feats of the contexts of every encoder pass model
        makes from here on; feats' rows must be distinct."""
        passes = []
        encode = model._encoder_pass

        def recording(batch):
            passes.append([int(np.flatnonzero((feats == row).all(axis=(1, 2)))[0])
                           for row in batch])
            return encode(batch)

        model._encoder_pass = recording
        return passes

    def test_each_chunk_encodes_the_contexts_it_uses(self, monkeypatch):
        # 5-row chunks cut the 3 x 4 sampled rows; the 3 scored rows ride in the first
        model = tiny_model(seed=17)
        feats = np.random.default_rng(13).standard_normal((3, 3, 54))
        ids = model.vocab.encode(["blue", EOS])
        passes, steps = self.encoded_contexts(model, feats), decoder_calls(monkeypatch)
        _, row_types, log_probs = s0_sample_utterances(model, feats, np.random.default_rng(14),
                                                       4, [ids] * 3)
        # sampled rows 0-4, 5-9 and 10-11 use contexts 0-1, 1-2 and 2
        assert passes == [[0, 1, 2], [1, 2], [2]] and len(row_types) == 12
        assert np.array_equal(log_probs, s0_log_probs_batch(model, [ids] * 3, feats))
        # the first chunk's first step decodes the 3 scored rows and its 2 nodes
        assert len(steps[0]) == 3 + 2

    @pytest.mark.parametrize("contexts, per_context, score, want", [
        (7, 2, True, [[0, 1, 2, 3, 4], [5, 6, 2, 3, 4], [5, 6]]),
        (7, 0, True, [[0, 1, 2, 3, 4], [5, 6]]),
        (2, 6, True, [[0, 1], [0, 1], [1]]),
        (12, 1, True, [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9], [10, 11]]),
        (4, 3, False, [[0, 1], [1, 2, 3], [3]]),
    ])
    def test_encoder_passes_follow_the_chunk_rule(self, contexts, per_context, score, want):
        model = tiny_model(seed=18)
        feats = np.random.default_rng(contexts).standard_normal((contexts, 3, 54))
        passes = self.encoded_contexts(model, feats)
        _, _, log_probs = s0_sample_utterances(model, feats, np.random.default_rng(1), per_context,
                                               [[3, 2]] * contexts if score else None)
        assert passes == want
        if score:
            assert np.array_equal(log_probs, s0_log_probs_batch(model, [[3, 2]] * contexts,
                                                                feats))

    def test_scorer_equals_its_chunk_by_chunk_result(self):
        model = tiny_model(seed=19)
        lengths = [2, 6, 1, 3, 3, 8, 1, 2, 5, 4, 1, 7]
        id_seqs, _, _, feats = scoring_inputs(model, np.random.default_rng(20), lengths)
        order = np.argsort(-np.array(lengths), kind="stable")
        want = np.empty(len(lengths))
        for lo in range(0, len(order), 5):
            rows = order[lo:lo + 5]
            want[rows] = s0_log_probs_batch(model, [id_seqs[i] for i in rows], feats[rows])
        assert np.array_equal(s0_log_probs_batch(model, id_seqs, feats), want)

    @pytest.mark.parametrize("contexts, per_context", [(5, 1), (2, 2), (1, 5), (3, 1), (4, 0)])
    def test_draws_with_score_equal_draws_without(self, contexts, per_context):
        model = tiny_model(seed=21)
        feats = np.random.default_rng(22).standard_normal((contexts, 3, 54))
        ids = model.vocab.encode(["dark", "red", "blue", EOS])
        rng, ref_rng = np.random.default_rng(23), np.random.default_rng(23)
        types, row_types, _ = s0_sample_utterances(model, feats, rng, per_context,
                                                   [ids] * contexts)
        want_types, want_rows, _ = s0_sample_utterances(model, feats, ref_rng, per_context)
        assert types == want_types and np.array_equal(row_types, want_rows)
        assert rng.random() == ref_rng.random()

    def test_score_is_checked_without_contexts(self, monkeypatch):
        # an unended row raises before any context is decoded
        def decode(*args):
            raise AssertionError("the score rows were decoded before they were checked")

        monkeypatch.setattr(speaker, "_decode", decode)
        feats = np.random.default_rng(0).standard_normal((1, 3, 54))
        with pytest.raises(ValueError, match="does not end"):
            s0_sample_utterances(tiny_model(), feats, None, 0, [[3, 4]])

    @pytest.mark.parametrize("rows", [0, 2, 4])
    def test_score_rows_must_match_the_contexts(self, rows):
        feats = np.random.default_rng(0).standard_normal((3, 3, 54))
        with pytest.raises(ValueError, match=f"got 3 contexts for {rows} score rows"):
            s0_sample_utterances(tiny_model(), feats, np.random.default_rng(0), 1,
                                 [[3, 2]] * rows)


# tracemalloc peak, in MiB, of sampling 1,024 contexts at default dimensions.
# It reads about 12.9 with _decode building the step-0 context terms into a
# local that each regroup rebinds, and read 16.48 when a variable of the
# caller held them through the steps.
SAMPLER_PEAK_MIB = 15.0


def _default_size_inputs():
    """A speaker at default dimensions and 1,024 target-last contexts."""
    trials = synth_corpus(300, np.random.default_rng(0))
    vocab = build_vocab([preprocess(t.combined_text(), "speaker") for t in trials])
    model = SpeakerModel.create(vocab, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    return model, target_last_features(rng.random((1024, 3, 3)), rng.integers(0, 3, 1024))


def test_sampler_frees_the_step0_rows_as_nodes_regroup():
    # tracemalloc traces every thread, the worker's halves included
    model, feats = _default_size_inputs()
    _, peak = traced_peak(s0_sample_utterances, model, feats, np.random.default_rng(3))
    assert peak < SAMPLER_PEAK_MIB * 2 ** 20


@pytest.mark.parametrize("serial", ["one_cpu", "whole_rows", "apart", "mixed"])
def test_two_thread_split_equals_the_serial_run(serial, monkeypatch):
    # 1,024 contexts split the encoder's rows and the sampled rows of the
    # decoder steps into halves on two threads; the scored rows run as one
    # range of their own
    model, feats = _default_size_inputs()
    score = [model.vocab.encode(["dark", "blue", EOS])] * len(feats)
    if serial == "mixed":  # one row per context, of lengths 1 to 7, sorted longest first
        rng, eos = np.random.default_rng(4), model.vocab.eos_id
        score = [rng.integers(0, len(model.vocab), n - 1).tolist() + [eos]
                 for n in rng.integers(1, 8, len(feats))]

    def run(score=score):
        return (s0_sample_utterances(model, feats, np.random.default_rng(3), 1, score),
                model._encoder_pass(feats))

    if serial in ("apart", "mixed"):
        # the draws of sampling alone and the scores of scoring alone, with
        # the sampled rows split on two threads or inline on one CPU
        for cpus in (2, 1):
            set_cpus(monkeypatch, cpus)
            (types, row_types, log_probs), _ = run()
            (want_types, want_rows, unscored), _ = run(None)
            assert types == want_types and len(types) > 20 and unscored is None
            assert np.array_equal(row_types, want_rows)
            assert np.array_equal(log_probs, s0_log_probs_batch(model, score, feats))
        return
    set_cpus(monkeypatch, 2)
    (types, row_types, log_probs), contexts = run()
    if serial == "one_cpu":  # the same halves, inline
        set_cpus(monkeypatch, 1)
    else:  # one product over all the rows
        monkeypatch.setattr(nnsubstrate, "PARALLEL_ROWS", 10 ** 6)
    (types_1, row_types_1, log_probs_1), contexts_1 = run()
    assert types == types_1 and len(types) > 20
    assert np.array_equal(row_types, row_types_1)
    assert np.array_equal(log_probs, log_probs_1)
    assert np.array_equal(contexts, contexts_1)


@pytest.mark.parametrize("contexts", [257, 300, 1000, 1024])
def test_context_terms_split_equals_the_serial_product(contexts, monkeypatch):
    # the decoder's context terms are computed in the encoder's two halves,
    # which run inline on one CPU; each half's rows are its own product of
    # the encoded contexts. OpenBLAS may round a row of a product differently
    # with the rows beside it (its Haswell kernels at two threads did, by
    # 2e-16, at 257 rows), so the one product over all rows is matched to
    # within the inference tolerance
    model, feats = _default_size_inputs()
    feats = np.concatenate([feats, feats[:contexts - len(feats)]])[:contexts]
    assert contexts >= nnsubstrate.PARALLEL_ROWS
    cell = model.decoder
    w, b = cell.w_x.data[:model.hidden_dim], cell.bias.data
    encoded, mid = model.encode(feats).data, contexts // 2
    got = {}
    for cpus in (2, 1):
        set_cpus(monkeypatch, cpus)
        got[cpus] = speaker._context_terms(model, feats, list(range(contexts)))
    assert np.array_equal(got[2], got[1])
    assert np.array_equal(got[2], np.concatenate([encoded[:mid] @ w, encoded[mid:] @ w]) + b)
    assert np.allclose(got[2], encoded @ w + b, rtol=0.0, atol=INFERENCE_ATOL)


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

    @pytest.mark.parametrize("empty", ["train", "dev"])
    def test_empty_trial_list_raises_before_training(self, empty):
        # no dev trials would give NaN perplexities and restore the initial
        # parameters; no training trials, a division by zero after training
        trials = synth_corpus(30, np.random.default_rng(4))
        vocab = build_vocab([preprocess(t.combined_text(), "speaker") for t in trials])
        model = SpeakerModel.create(vocab, np.random.default_rng(0), embed_dim=8, hidden_dim=6)
        lists = {"train": trials, "dev": trials[:5], empty: []}
        with pytest.raises(ValueError, match="at least one trial"):
            train_s0(model, lists["train"], lists["dev"], TrainConfig(epochs=2))

    def test_perplexity_of_no_trials_raises(self):
        with pytest.raises(ValueError, match="at least one trial"):
            dev_token_perplexity(tiny_model(), [])

    def test_checkpoint_round_trip(self, tmp_path):
        model = tiny_model(seed=7)
        path = tmp_path / "s0.npz"
        save_model(model, path)
        loaded = load_model(SpeakerModel, path)
        a = s0_log_prob(model, ["blue", EOS], COLORS, 0)
        b = s0_log_prob(loaded, ["blue", EOS], COLORS, 0)
        assert a == b

    def test_checkpoint_path_without_suffix(self, tmp_path):
        model = tiny_model(seed=7)
        path = tmp_path / "s0ck"
        save_model(model, path)
        loaded = load_model(SpeakerModel, path)
        for p, q in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(p.data, q.data)

    def test_checkpoint_missing_file_raises(self, tmp_path):
        with pytest.raises(MissingCheckpoint):
            load_model(SpeakerModel, tmp_path / "absent.npz")

    def test_checkpoint_mismatched_arrays_raise(self, tmp_path):
        model = tiny_model(seed=7)
        path = tmp_path / "s0.npz"
        save_model(model, path)
        arrays, meta = read_checkpoint(path)
        config = meta["config"]

        missing = tmp_path / "missing.npz"
        kept = {k: v for k, v in arrays.items() if k != "decoder.w_h"}
        write_checkpoint(missing, kept, checkpoint_meta(kept, config))
        with pytest.raises(ValueError, match="decoder.w_h"):
            load_model(SpeakerModel, missing)

        # one more vocabulary entry than embedding and output rows
        grown = tmp_path / "grown.npz"
        write_checkpoint(grown, arrays,
                         checkpoint_meta(arrays, {**config, "vocab": config["vocab"] + ["teal"]}))
        with pytest.raises(ValueError, match="embedding"):
            load_model(SpeakerModel, grown)


# -- S0's gradient off the tape, against the tape ----------------------------------

# _s0_losses_and_grads against the tape (_teacher_forced_losses and its
# backward), to conftest's GRAD_RTOL; over 400 random cases like
# test_matches_tape's, the largest share was 7.4e-15.


def tape_losses_and_grads(model, feats, ids, scale):
    """_s0_losses_and_grads' outputs, computed on the tape."""
    losses = _teacher_forced_losses(model, feats, ids)
    (losses.sum() * scale).backward()
    return losses.data


def gradients_of(fn, model, feats, ids, scale):
    """fn's losses and the gradients it leaves, by parameter name; clears them."""
    losses = fn(model, feats, ids, scale)
    grads = {p.name: p.grad for p in model.parameters()}
    for p in model.parameters():
        p.grad = None
    return losses, grads


def random_rows(model, rng, batch, length, fill):
    """batch id rows of `length` ending in </s>: random ids other than <s>
    ("random") or every id before the end <unk> ("unk")."""
    vocab = model.vocab
    if fill == "unk":
        ids = np.full((batch, length), vocab.token_to_id["<unk>"])
    else:
        allowed = [i for i in range(len(vocab)) if i != vocab.bos_id]
        ids = rng.choice(allowed, size=(batch, length))
    ids[:, -1] = vocab.eos_id
    return ids


def random_model(seed, embed_dim, hidden_dim, gain):
    model = SpeakerModel.create(tiny_model().vocab, np.random.default_rng(seed),
                                embed_dim=embed_dim, hidden_dim=hidden_dim)
    for p in model.parameters():
        p.data *= gain
    return model


class TestExplicitGradient:
    """_s0_losses_and_grads, train_s0's loss and gradient, against the tape."""

    @given(seed=st.integers(0, 2 ** 16), batch=st.integers(1, 5),
           length=st.integers(1, MAX_DECODE_LEN), embed_dim=st.integers(1, 5),
           hidden_dim=st.integers(1, 5), gain=st.sampled_from([1.0, 4.0]),
           fill=st.sampled_from(["random", "unk"]))
    @example(seed=0, batch=1, length=1, embed_dim=3, hidden_dim=2, gain=1.0, fill="random")
    @example(seed=1, batch=3, length=MAX_DECODE_LEN, embed_dim=4, hidden_dim=3, gain=4.0,
             fill="random")
    @example(seed=2, batch=2, length=5, embed_dim=2, hidden_dim=4, gain=1.0, fill="unk")
    @settings(max_examples=40, deadline=None)
    def test_matches_tape(self, seed, batch, length, embed_dim, hidden_dim, gain, fill):
        rng = np.random.default_rng(seed)
        model = random_model(seed, embed_dim, hidden_dim, gain)
        ids = random_rows(model, rng, batch, length, fill)
        feats = rng.standard_normal((batch, 3, 54))
        scale = 1.0 / ids.size
        got, grads = gradients_of(speaker._s0_losses_and_grads, model, feats, ids, scale)
        want, tape = gradients_of(tape_losses_and_grads, model, feats, ids, scale)
        assert np.allclose(got, want, rtol=0, atol=INFERENCE_ATOL)
        for name, g in tape.items():
            assert grads[name].shape == g.shape, name
            assert np.abs(grads[name] - g).max() <= GRAD_RTOL * np.abs(g).max(), name

    def test_central_differences(self):
        rng = np.random.default_rng(3)
        model = tiny_model(seed=3)
        ids = random_rows(model, rng, 4, 6, "random")
        feats = rng.standard_normal((4, 3, 54))
        _, grads = gradients_of(speaker._s0_losses_and_grads, model, feats, ids, 0.25)

        def loss():
            return -0.25 * float(s0_log_probs_batch(model, ids.tolist(), feats).sum())

        for p in model.parameters():
            coords = rng.choice(p.data.size, size=min(p.data.size, 12), replace=False)
            numeric = fd_gradient(loss, p.data, indices=coords)
            assert gradcheck_rel_error(grads[p.name], numeric, indices=coords) < 1e-4, p.name

    def test_losses_match_batched_scorer(self):
        rng = np.random.default_rng(4)
        model = tiny_model(seed=4)
        for length in (1, 3, MAX_DECODE_LEN):
            ids = random_rows(model, rng, 6, length, "random")
            feats = rng.standard_normal((6, 3, 54))
            losses = speaker._s0_losses_and_grads(model, feats, ids, 1.0)
            assert np.allclose(losses, -s0_log_probs_batch(model, ids.tolist(), feats),
                               rtol=0, atol=INFERENCE_ATOL)

    def test_builds_no_tensor(self, monkeypatch):
        # test_nnsubstrate's test_no_two_parameter_gradients_share_memory checks
        # that the gradients are separate arrays
        rng = np.random.default_rng(5)
        model = tiny_model(seed=5)
        ids = random_rows(model, rng, 3, 4, "random")
        feats = rng.standard_normal((3, 3, 54))
        made = []
        init = Tensor.__init__
        monkeypatch.setattr(Tensor, "__init__",
                            lambda self, *a, **k: made.append(1) or init(self, *a, **k))
        speaker._s0_losses_and_grads(model, feats, ids, 1.0)
        assert made == []
        assert all(p.grad.shape == p.data.shape for p in model.parameters())

    @pytest.mark.parametrize("bad", [-1, 6, 10 ** 6])
    def test_out_of_range_id_raises(self, bad):
        # the vocabulary has 6 ids; -1 would read the last embedding row silently
        model = tiny_model(seed=8)
        assert len(model.vocab) == 6
        rng = np.random.default_rng(8)
        ids = random_rows(model, rng, 3, 4, "random")
        ids[1, 2] = bad
        with pytest.raises(IndexOutOfRange,
                           match=f"id row 1 holds id {bad}, outside the vocabulary of 6"):
            speaker._s0_losses_and_grads(model, rng.standard_normal((3, 3, 54)), ids, 1.0)
        assert all(p.grad is None for p in model.parameters())

    def test_training_matches_tape_training(self, monkeypatch):
        trials = synth_corpus(90, np.random.default_rng(6))
        vocab = build_vocab([preprocess(t.combined_text(), "speaker") for t in trials])
        config = TrainConfig(epochs=2, batch_size=8, seed=6)

        def run():
            model = SpeakerModel.create(vocab, np.random.default_rng(6), embed_dim=9,
                                        hidden_dim=7)
            return train_s0(model, trials[20:], trials[:20], config), model

        ours, model = run()
        monkeypatch.setattr(speaker, "_s0_losses_and_grads", tape_losses_and_grads)
        tape, tape_model = run()
        assert ours.best_epoch == tape.best_epoch
        for a, b in zip(ours.epochs, tape.epochs):
            assert (a.epoch, a.clipped_steps) == (b.epoch, b.clipped_steps)
            for field in ("train_loss", "dev_perplexity", "max_grad_norm"):
                assert getattr(a, field) == pytest.approx(getattr(b, field), rel=1e-9), field
        for p, q in zip(model.parameters(), tape_model.parameters()):
            assert np.allclose(p.data, q.data, rtol=0, atol=1e-9), p.name

    # one entry of each parameter; the embedding's is in the row of <s>, every
    # row's first input
    @pytest.mark.parametrize("name,row", [("encoder.w_x", 0), ("encoder.bias", 0),
                                          ("embedding", 1), ("decoder.w_h", 0), ("out_b", 0)])
    def test_poisoned_parameter_raises(self, name, row):
        trials = synth_corpus(30, np.random.default_rng(7))
        vocab = build_vocab([preprocess(t.combined_text(), "speaker") for t in trials])
        model = SpeakerModel.create(vocab, np.random.default_rng(7), embed_dim=6, hidden_dim=5)
        assert model.vocab.bos_id == 1
        next(p for p in model.parameters() if p.name == name).data[row, ...] = np.nan
        with pytest.raises(NonFiniteGradient):
            train_s0(model, trials, trials[:5], TrainConfig(epochs=1))
