import dataclasses
from collections import Counter
from fractions import Fraction as F
from importlib import resources
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import INFERENCE_ATOL
from pragref.colorspace import Color
from pragref.corpus import build_vocab, preprocess
from pragref.errors import VacuousUtterance
from pragref.listener import ListenerModel, l0_score
from pragref.nnsubstrate import log_softmax
from pragref.rsa import (
    Lexicon,
    PragmaticsConfig,
    S1_ALPHA,
    blend,
    compute_agents,
    exact_l0,
    exact_l1,
    exact_l2,
    exact_s0,
    exact_s1,
    listener_ids_for,
    neural_l1,
    s1_table_from_probs,
)
from pragref import speaker
from pragref.speaker import (
    SpeakerModel,
    _teacher_forced_losses,
    s0_log_probs_batch,
    s0_sample_utterances,
    target_last_features,
)
from test_speaker import live_row_sample_batch

COLORS = (Color(0.22, 0.52, 0.78), Color(0.0, 0.98, 0.99), Color(0.62, 0.39, 0.38))


@pytest.fixture
def demo_lexicon():
    # blue true of {1,2}; teal of {2}; dull of {1,3}; uniform prior, zero costs
    return Lexicon(utterances=["blue", "teal", "dull"],
                   truth=[[1, 1, 0], [0, 1, 0], [1, 0, 1]])


def stub_alternatives(monkeypatch, types, row_types):
    """Make every alternative draw return these types and row type indices;
    the observed utterance is still scored, by the same pass with no samples."""
    def stub(model, feats, rng, per_context, score):
        scores = s0_sample_utterances(model, feats, rng, 0, score)[2]
        return list(types), np.array(row_types, dtype=int), scores

    monkeypatch.setattr("pragref.rsa.s0_sample_utterances", stub)


def graph_l0_probs(model, id_seqs, feats):
    """l0_probs_many one row at a time through ListenerModel.scores."""
    feats = np.broadcast_to(feats, (len(id_seqs), 3, feats.shape[-1]))
    return np.array([np.exp(log_softmax(model.scores(np.array([ids]), f[None]).data[0]))
                     for ids, f in zip(id_seqs, feats)])


def graph_s0_log_probs(model, id_seqs, feats):
    """s0_log_probs_batch one row at a time through _teacher_forced_losses."""
    return np.array([-_teacher_forced_losses(model, feats[i:i + 1], np.array([ids])).data[0]
                     for i, ids in enumerate(id_seqs)])


def graph_sample_utterances(model, feats, rng, per_context, score):
    """s0_sample_utterances from per-row references, for rows that fit one
    chunk: live_row_sample_batch's draws, deduped, and graph_s0_log_probs."""
    rows = live_row_sample_batch(model, feats, rng,
                                 rows=np.repeat(np.arange(len(feats)), per_context))
    samples = [tuple(model.vocab.decode(list(ids))[:-1]) for ids in rows]
    types = list(dict.fromkeys(u for u in samples if u))
    row_types = np.array([types.index(u) if u else -1 for u in samples])
    return types, row_types, graph_s0_log_probs(model, [score] * len(feats), feats)


def models(seed=0):
    vocab = build_vocab([["blue", "blue", "dark", "dark", "red", "red",
                          "teal", "teal", "dull", "dull"]])
    rng = np.random.default_rng(seed)
    l0 = ListenerModel.create(vocab, rng, embed_dim=8, hidden_dim=6)
    s0 = SpeakerModel.create(vocab, rng, embed_dim=8, hidden_dim=6)
    return l0, s0


class TestExactOracle:
    def test_l0_blue_exact(self, demo_lexicon):
        assert exact_l0(demo_lexicon, "blue") == [F(1, 2), F(1, 2), F(0)]

    def test_l0_teal_exact(self, demo_lexicon):
        assert exact_l0(demo_lexicon, "teal") == [F(0), F(1), F(0)]

    def test_l0_true_of_all_uniform(self):
        lex = Lexicon(utterances=["thing"], truth=[[1, 1, 1]])
        assert exact_l0(lex, "thing") == [F(1, 3)] * 3

    def test_l0_vacuous(self):
        lex = Lexicon(utterances=["nothing"], truth=[[0, 0, 0]])
        with pytest.raises(VacuousUtterance):
            exact_l0(lex, "nothing")

    def test_s1_middle_referent(self, demo_lexicon):
        # alpha=1, zero costs: blue 1/3, teal 2/3
        assert exact_s1(demo_lexicon, 1) == [F(1, 3), F(2, 3), F(0)]

    def test_s1_third_referent_deterministic(self, demo_lexicon):
        assert exact_s1(demo_lexicon, 2) == [F(0), F(0), F(1)]

    def test_s1_alpha_zero_uniform_over_true(self, demo_lexicon):
        assert exact_s1(demo_lexicon, 0, alpha=0.0) == [F(1, 2), F(0), F(1, 2)]

    def test_l2_blue_exact(self, demo_lexicon):
        assert exact_l2(demo_lexicon, "blue") == [F(3, 5), F(2, 5), F(0)]

    def test_l2_dull_exact(self, demo_lexicon):
        assert exact_l2(demo_lexicon, "dull") == [F(1, 3), F(0), F(2, 3)]

    def test_l2_single_referent_point_mass(self):
        lex = Lexicon(utterances=["it"], truth=[[1]])
        assert exact_l2(lex, "it") == [F(1)]

    def test_l1_blue(self, demo_lexicon):
        # enumerating s0 then Bayes gives (1/2, 1/2, 0)
        assert exact_l1(demo_lexicon, "blue") == [F(1, 2), F(1, 2), F(0)]

    def test_l1_cost_shift_invariance(self, demo_lexicon):
        base = exact_l1(dataclasses.replace(demo_lexicon, costs=[0.3, 0.9, 0.1]), "blue")
        shifted = exact_l1(dataclasses.replace(demo_lexicon, costs=[1.3, 1.9, 1.1]), "blue")
        assert np.allclose([float(x) for x in base], [float(x) for x in shifted])

    def test_l1_single_utterance_prior_restricted(self):
        lex = Lexicon(utterances=["word"], truth=[[1, 0, 1]],
                      prior=["1/2", "1/4", "1/4"])
        assert exact_l1(lex, "word") == [F(2, 3), F(0), F(1, 3)]

    def test_demo_lexicon_file(self):
        path = resources.files("pragref.data") / "demo_lexicon.json"
        lex = Lexicon.from_json(str(path))
        assert exact_l2(lex, "blue") == [F(3, 5), F(2, 5), F(0)]

    @pytest.mark.parametrize("kwargs, field", [
        ({"prior": ["1/2", "1/4", "1/4"]}, "prior"),   # three entries for two referents
        ({"prior": ["1"]}, "prior"),
        ({"costs": [0.5]}, "costs"),                   # one cost for two utterances
        ({"costs": [0.1, 0.2, 0.3]}, "costs"),
        ({"referents": ["r1"]}, "referents"),
    ])
    def test_mis_sized_fields_raise(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must hold one entry per"):
            Lexicon(utterances=["a", "b"], truth=[[1, 1], [0, 1]], **kwargs)

    @pytest.mark.parametrize("utterances, truth", [([], []), (["a"], [[]])])
    def test_empty_truth_table_raises(self, utterances, truth):
        with pytest.raises(ValueError, match="^truth must hold"):
            Lexicon(utterances=utterances, truth=truth)


class TestPragmaticsConfig:
    def test_paper_defaults(self):
        cfg = PragmaticsConfig()
        assert (cfg.m, cfg.n) == (8, 8)
        assert cfg.beta_a == pytest.approx(0.492)
        assert cfg.beta_b == pytest.approx(-0.15)
        assert cfg.gamma == pytest.approx(0.491)
        assert S1_ALPHA == pytest.approx(0.544)

    def test_validation(self):
        with pytest.raises(ValueError):
            PragmaticsConfig(m=0)

    @pytest.mark.parametrize("kwargs", [{"beta_a": float("nan")}, {"beta_b": float("inf")},
                                        {"gamma": float("-inf")},
                                        {"gamma": float("nan"), "beta_b": float("inf")}])
    def test_non_finite_blend_weights_raise(self, kwargs):
        # a NaN or infinite weight would make lb and le rows of NaN
        with pytest.raises(ValueError, match="must be finite"):
            PragmaticsConfig(m=2, n=2, **kwargs)

    @pytest.mark.parametrize("kwargs", [{"m": 2.5}, {"n": 2.5}, {"m": 3.0}, {"n": True}])
    def test_non_integer_counts_raise(self, kwargs):
        with pytest.raises(ValueError, match="must be an integer"):
            PragmaticsConfig(**kwargs)

    def test_numpy_integer_counts_accepted(self):
        cfg = PragmaticsConfig(m=np.int64(2), n=np.int32(3))
        assert (cfg.m, cfg.n) == (2, 3)


class TestNeuralS1:
    def test_singleton_alt_probability_one(self, monkeypatch):
        # every sample a bare end token: the multiset is the observed alone
        l0, s0 = models()
        cfg = PragmaticsConfig(m=2, n=3)
        stub_alternatives(monkeypatch, [], [-1] * (3 * cfg.n * cfg.m))
        tables = s1_table_from_probs(np.array([[0.2, 0.5, 0.3]]), np.ones((cfg.n, 1)), S1_ALPHA)
        assert tables.shape == (3, 1, 3)
        assert np.allclose(tables[:, 0], 1.0)
        # so S1 gives the observed utterance 1 for every target, and L2 is uniform
        l2 = compute_agents(l0, s0, ("blue",), COLORS, cfg, np.random.default_rng(0))["l2"]
        assert np.allclose(l2, 1 / 3, rtol=0, atol=INFERENCE_ATOL)

    def test_duplicate_doubles_mass(self):
        probs = np.array([[0.5, 0.2, 0.3], [0.4, 0.5, 0.6]])
        single = s1_table_from_probs(probs, np.array([1.0, 1.0]), alpha=0.7)
        doubled = s1_table_from_probs(probs, np.array([2.0, 1.0]), alpha=0.7)
        ratio = doubled[0] / single[0]
        # unnormalized first-row mass doubles; verify against direct recompute
        direct = 2 * probs[0] ** 0.7 / (2 * probs[0] ** 0.7 + probs[1] ** 0.7)
        assert np.allclose(doubled[0], direct)
        assert np.all(ratio > 1.0)

    def test_column_scale_invariance(self):
        rng = np.random.default_rng(0)
        probs = rng.random((5, 3))
        counts = rng.integers(1, 4, 5).astype(float)
        base = s1_table_from_probs(probs, counts, alpha=0.544)
        scaled_input = probs.copy()
        scaled_input[:, 1] *= 7.5
        scaled = s1_table_from_probs(scaled_input, counts, alpha=0.544)
        assert np.allclose(base, scaled)

    def test_columns_normalize(self, monkeypatch):
        l0, s0 = models(seed=2)
        cfg = PragmaticsConfig(m=1, n=2)
        types, row_types = [("dark", "blue"), ("red",)], [0, 1, 0, -1, 0, 1]
        stub_alternatives(monkeypatch, types, row_types)
        # replicate 0 draws dark blue for every target, replicate 1 red twice;
        # each adds the observed blue once
        counts = np.array([[3.0, 0.0, 1.0], [0.0, 2.0, 1.0]])
        probs = np.stack([l0_score(l0, preprocess(" ".join(k), "listener"), COLORS)
                          for k in types + [("blue",)]])
        tables = s1_table_from_probs(probs, counts, S1_ALPHA)
        assert tables.shape == (2, 3, 3)
        assert np.allclose(tables.sum(axis=1), 1.0, atol=1e-9)
        l2 = compute_agents(l0, s0, ("blue",), COLORS, cfg, np.random.default_rng(0))["l2"]
        assert np.allclose(l2, counter_l2(l0, ("blue",), COLORS, cfg, types, row_types),
                           rtol=0, atol=INFERENCE_ATOL)

    def test_stacked_counts_match_one_table_each(self):
        rng = np.random.default_rng(1)
        probs = rng.random((6, 3))
        counts = rng.integers(0, 4, (5, 6)).astype(float)
        counts[:, 0] += 1
        stacked = s1_table_from_probs(probs, counts, alpha=0.8)
        for k in range(len(counts)):
            keep = counts[k] > 0
            want = s1_table_from_probs(probs[keep], counts[k][keep], alpha=0.8)
            assert np.allclose(stacked[k][keep], want, rtol=0, atol=1e-15)
            assert np.all(stacked[k][~keep] == 0)


def counter_l2(l0_model, u, colors, cfg, types, row_types):
    """L2 over given alternatives with one Counter-built S1 table per replicate."""
    observed = tuple(preprocess(u, "speaker")) if isinstance(u, str) else tuple(u)
    rows = np.asarray(row_types).reshape(3, cfg.n, cfg.m)
    out = np.zeros(3)
    for r in range(cfg.n):
        counts = Counter(types[t] for t in rows[:, r].ravel() if t >= 0)
        counts[observed] += 1
        kinds = list(counts)
        probs = np.stack([l0_score(l0_model, preprocess(" ".join(k), "listener"), colors)
                          for k in kinds])
        table = s1_table_from_probs(probs, np.array([counts[k] for k in kinds], dtype=float),
                                    S1_ALPHA)
        s1_row = table[kinds.index(observed)]
        out += s1_row / s1_row.sum()
    return out / cfg.n


class TestNeuralL2:
    def test_degenerate_alt_gives_uniform(self, monkeypatch):
        # when every alternative equals the observed utterance, all S1
        # ratios are 1 and the formula forces the uniform distribution
        l0, s0 = models(seed=3)
        cfg = PragmaticsConfig(m=2, n=1)
        stub_alternatives(monkeypatch, [("blue",)], [0] * (3 * cfg.n * cfg.m))
        dist = compute_agents(l0, s0, ("blue",), COLORS, cfg, np.random.default_rng(0))["l2"]
        assert np.allclose(dist, 1 / 3, atol=1e-9)

    @pytest.mark.parametrize("u", ["dark blue", "teal", ("red",)])
    def test_matches_per_replicate_counter(self, monkeypatch, u):
        l0, s0 = models(seed=12)
        cfg = PragmaticsConfig(m=4, n=5)
        types = [("dark", "blue"), ("red",), ("teal",), ("dull", "red"), ("blue",)]
        row_types = np.random.default_rng(6).integers(-1, len(types), 3 * cfg.n * cfg.m)
        stub_alternatives(monkeypatch, types, row_types)
        got = compute_agents(l0, s0, u, COLORS, cfg, np.random.default_rng(0))["l2"]
        want = counter_l2(l0, u, COLORS, cfg, types, row_types)
        assert np.allclose(got, want, rtol=0, atol=INFERENCE_ATOL)

    def test_samples_every_target_in_one_draw(self, monkeypatch):
        # one decoder-step loop over the three target-last contexts, n*m rows each
        l0, s0 = models(seed=13)
        calls = []
        decode = speaker._decode

        def recording(model, tables, rng, node_of, forced, lengths):
            calls.append((len(tables[0]), node_of.tolist(), len(forced)))
            return decode(model, tables, rng, node_of, forced, lengths)

        monkeypatch.setattr("pragref.speaker._decode", recording)
        cfg = PragmaticsConfig(m=3, n=4)
        compute_agents(l0, s0, "dark blue", COLORS, cfg, np.random.default_rng(2))
        assert len(calls) == 1
        step0_rows, rows, scored = calls[0]
        assert (step0_rows, scored) == (3 + 3, 3)  # L1's three rows, then one node per target
        assert rows == [t for t in range(3) for _ in range(cfg.n * cfg.m)]

    def test_sums_to_one_random_models(self):
        l0, s0 = models(seed=4)
        cfg = PragmaticsConfig(m=3, n=2)
        dist = compute_agents(l0, s0, "dark blue", COLORS, cfg, np.random.default_rng(1))["l2"]
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(dist >= 0)

    def test_deterministic_given_seed(self):
        l0, s0 = models(seed=5)
        cfg = PragmaticsConfig(m=4, n=3)
        a = compute_agents(l0, s0, "blue", COLORS, cfg, np.random.default_rng(11))
        b = compute_agents(l0, s0, "blue", COLORS, cfg, np.random.default_rng(11))
        assert all(np.array_equal(a[k], b[k]) for k in a)


class TestNeuralL1:
    def test_identical_colors_uniform(self):
        _, s0 = models(seed=6)
        c = Color(0.4, 0.5, 0.6)
        dist = neural_l1(s0, "dark blue", (c, c, c))
        assert np.allclose(dist, 1 / 3, atol=INFERENCE_ATOL)

    def test_normalized(self):
        _, s0 = models(seed=7)
        dist = neural_l1(s0, "red", COLORS)
        assert dist.sum() == pytest.approx(1.0, abs=INFERENCE_ATOL)

    def test_scores_without_a_generator(self, monkeypatch):
        # neural_l1 passes rng=None, which the sampler takes only when it
        # draws nothing
        _, s0 = models(seed=7)
        calls = []
        sample = speaker.s0_sample_utterances

        def recording(model, feats, rng, per_context, score):
            calls.append((rng, per_context))
            return sample(model, feats, rng, per_context, score)

        monkeypatch.setattr("pragref.rsa.s0_sample_utterances", recording)
        dist = neural_l1(s0, "red", COLORS)
        assert calls == [(None, 0)]
        assert dist.shape == (3,) and dist.sum() == pytest.approx(1.0, abs=INFERENCE_ATOL)


class TestListenerIds:
    # a sampler's text is its tokens joined by spaces; read back as a listener
    # text, it must give the ids that the agents score its tokens with
    @pytest.mark.parametrize("tokens", [("dark", "<unk>", "blue"), ("<unk>",),
                                        ("<unk>", "darker", "<unk>"),
                                        ("bluish", "<unk>", "teal,"), ("dull.", "<unk>")])
    def test_text_reads_back_as_its_tokens(self, tokens):
        l0, _ = models()
        ids = listener_ids_for(l0, [tokens])[0]
        assert l0.vocab.encode(preprocess(" ".join(tokens), "listener")) == ids


CHANNEL = st.floats(0.0, 1.0, allow_nan=False)
RGB = st.tuples(CHANNEL, CHANNEL, CHANNEL)


class TestPermutationSymmetry:
    """Permuting a context's colors permutes L0 and L1 with them."""

    MODELS = models(seed=8)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(RGB, min_size=3, max_size=3),
           st.permutations(range(3)),
           st.sampled_from(["blue", "dark red", "teal dull blue"]))
    def test_l0_and_l1_follow_the_colors(self, rgb, perm, text):
        l0, s0 = self.MODELS
        colors = tuple(Color(*c) for c in rgb)
        moved = tuple(colors[i] for i in perm)
        tokens = preprocess(text, "listener")
        assert np.allclose(l0_score(l0, tokens, moved), l0_score(l0, tokens, colors)[perm],
                           rtol=0, atol=INFERENCE_ATOL)
        assert np.allclose(neural_l1(s0, text, moved), neural_l1(s0, text, colors)[perm],
                           rtol=0, atol=INFERENCE_ATOL)

    @pytest.mark.parametrize("perm", list(permutations(range(3))))
    def test_distractors_share_a_first_channel(self, perm):
        # the order is decided by a later channel when the first ones tie
        _, s0 = self.MODELS
        colors = (Color(0.5, 0.7, 0.1), Color(0.5, 0.2, 0.9), Color(0.9, 0.1, 0.3))
        moved = tuple(colors[i] for i in perm)
        assert np.allclose(neural_l1(s0, "red", moved), neural_l1(s0, "red", colors)[list(perm)],
                           rtol=0, atol=INFERENCE_ATOL)


class TestBlend:
    def test_w_one_is_p(self):
        p = np.array([0.6, 0.3, 0.1])
        q = np.array([0.2, 0.5, 0.3])
        assert np.allclose(blend(p, q, 1.0), p, atol=1e-9)

    def test_w_zero_is_q(self):
        p = np.array([0.6, 0.3, 0.1])
        q = np.array([0.2, 0.5, 0.3])
        assert np.allclose(blend(p, q, 0.0), q, atol=1e-9)

    def test_negative_weight_hand_computed(self):
        # w=-1: q^2/p = (.25/.6, .25/.4), normalized = (0.4, 0.6)
        out = blend(np.array([0.6, 0.4]), np.array([0.5, 0.5]), -1.0)
        assert np.allclose(out, [0.4, 0.6], atol=INFERENCE_ATOL)

    def test_argmax_endpoints(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.dirichlet(np.ones(3))
            q = rng.dirichlet(np.ones(3))
            assert blend(p, q, 1.0).argmax() == p.argmax()
            assert blend(p, q, 0.0).argmax() == q.argmax()


    @staticmethod
    def _blend_one(p, q, w):
        """One distribution's blend, normalized over the whole array."""
        mix = w * np.log(np.maximum(p, 1e-12)) + (1.0 - w) * np.log(np.maximum(q, 1e-12))
        out = np.exp(mix - mix.max())
        return out / out.sum()

    @settings(max_examples=80, deadline=None)
    @given(rows=st.integers(1, 6), w=st.floats(-1e3, 1e3), sparse=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_every_row_normalizes_for_any_weight(self, rows, w, sparse, seed):
        # sparse draws put near-zero mass on some colors, below the floor
        rng = np.random.default_rng(seed)
        alpha = np.full(3, 0.05 if sparse else 1.0)
        p, q = rng.dirichlet(alpha, rows), rng.dirichlet(alpha, rows)
        out = blend(p, q, w)
        assert out.shape == (rows, 3) and np.all(out >= 0)
        assert np.allclose(out.sum(axis=1), 1.0, rtol=0, atol=INFERENCE_ATOL)
        for i in range(rows):
            assert np.array_equal(out[i], blend(p[i], q[i], w))
            assert np.array_equal(blend(p[i], q[i], w), self._blend_one(p[i], q[i], w))


class TestComputeAgents:
    def test_all_agents_valid(self):
        l0, s0 = models(seed=8)
        cfg = PragmaticsConfig(m=2, n=2)
        agents = compute_agents(l0, s0, "dark blue", COLORS, cfg,
                                np.random.default_rng(3))
        assert set(agents) == {"l0", "l1", "l2", "la", "lb", "le"}
        for dist in agents.values():
            assert dist.shape == (3,)
            assert dist.sum() == pytest.approx(1.0, abs=1e-9)

    def test_forward_only_matches_graph_forward(self, monkeypatch):
        l0, s0 = models(seed=9)
        cfg = PragmaticsConfig(m=3, n=2)
        texts = ["dark blue", "red", "teal", "dull blue"]
        got = [compute_agents(l0, s0, u, COLORS, cfg, np.random.default_rng(4))
               for u in texts]
        # per-row references that build the autograd graph, through
        # ListenerModel.scores, _teacher_forced_losses and step_logits
        monkeypatch.setattr("pragref.rsa.l0_probs_many", graph_l0_probs)
        monkeypatch.setattr("pragref.rsa.s0_sample_utterances", graph_sample_utterances)
        want = [compute_agents(l0, s0, u, COLORS, cfg, np.random.default_rng(4))
                for u in texts]
        for a, b in zip(got, want):
            assert a.keys() == b.keys()
            assert all(np.allclose(a[k], b[k], rtol=0, atol=INFERENCE_ATOL) for k in a)

    @pytest.mark.parametrize("u", ["dark blue", "Bluish, not the darkest one!",
                                   "red teal dull", ("dark", "blue", "</s>"),
                                   ("unseen", "reddish")])
    def test_l0_and_l1_match_direct_agents(self, u):
        # L0 is read off the alternatives table; it must equal scoring the
        # listener-mode text alone, as L1 must equal neural_l1; L2 is the
        # same for the same seed
        l0, s0 = models(seed=10)
        cfg = PragmaticsConfig(m=4, n=3)
        agents = compute_agents(l0, s0, u, COLORS, cfg, np.random.default_rng(5))
        tokens = preprocess(u, "listener") if isinstance(u, str) else \
            preprocess(" ".join(u[:-1] if u[-1] == "</s>" else u), "listener")
        assert np.allclose(agents["l0"], l0_score(l0, tokens, COLORS), rtol=0, atol=INFERENCE_ATOL)
        assert np.array_equal(agents["l1"], neural_l1(s0, u, COLORS))
        again = compute_agents(l0, s0, u, COLORS, cfg, np.random.default_rng(5))
        assert np.array_equal(agents["l2"], again["l2"])


def l1_from_batch_scorer(s0, u, colors):
    """L1 normalized from s0_log_probs_batch over the three target-last contexts."""
    tokens = preprocess(u, "speaker") if isinstance(u, str) else list(u)
    ids = s0.vocab.encode(tokens + ["</s>"])
    log_probs = s0_log_probs_batch(s0, [ids] * 3, target_last_features([colors] * 3, range(3)))
    probs = np.exp(log_probs - log_probs.max())
    return probs / probs.sum()


class TestOneSpeakerPass:
    """compute_agents samples S0 and scores L1 in one pass over the three contexts."""

    @pytest.mark.parametrize("eos_bias", [None, -3.0])
    @pytest.mark.parametrize("u", ["dark blue", "red"])
    def test_alternatives_pin_the_random_stream(self, monkeypatch, u, eos_bias):
        # -3 on </s> makes long rows, some cut at MAX_DECODE_LEN
        l0, s0 = models(seed=15)
        if eos_bias is not None:
            s0.out_b.data[s0.vocab.eos_id] = eos_bias
        cfg = PragmaticsConfig(m=3, n=4)
        seen = []

        def recording(*args):
            types, row_types, scores = s0_sample_utterances(*args)
            seen.append((list(types), row_types.copy()))
            return types, row_types, scores

        monkeypatch.setattr("pragref.rsa.s0_sample_utterances", recording)
        rng = np.random.default_rng(21)
        compute_agents(l0, s0, u, COLORS, cfg, rng)
        ref_rng = np.random.default_rng(21)
        want_types, want_rows, _ = s0_sample_utterances(
            s0, target_last_features([COLORS] * 3, np.arange(3)), ref_rng, cfg.n * cfg.m)
        (types, row_types), = seen
        assert types == want_types and len(types) > 1
        assert np.array_equal(row_types, want_rows)
        # scoring the observed utterance drew no uniform
        assert rng.random() == ref_rng.random()

    def test_forced_rows_outlive_the_samples(self, monkeypatch):
        l0, s0 = models(seed=16)
        s0.out_b.data[s0.vocab.eos_id] = 4.0  # short samples
        u = "dark blue red teal dull blue dark red"
        cfg = PragmaticsConfig(m=4, n=3)
        agents = compute_agents(l0, s0, u, COLORS, cfg, np.random.default_rng(6))
        types, _, _ = s0_sample_utterances(s0, target_last_features([COLORS] * 3, np.arange(3)),
                                           np.random.default_rng(6), cfg.n * cfg.m)
        assert max(map(len, types), default=0) < len(u.split())
        assert np.array_equal(agents["l1"], neural_l1(s0, u, COLORS))
        assert np.array_equal(agents["l1"], l1_from_batch_scorer(s0, u, COLORS))

    @pytest.mark.parametrize("u", ["magenta chartreuse", ("zzz",)])
    def test_out_of_vocabulary_utterance(self, u):
        l0, s0 = models(seed=17)
        cfg = PragmaticsConfig(m=2, n=3)
        agents = compute_agents(l0, s0, u, COLORS, cfg, np.random.default_rng(7))
        assert np.array_equal(agents["l1"], neural_l1(s0, u, COLORS))
        assert np.array_equal(agents["l1"], l1_from_batch_scorer(s0, u, COLORS))

    def test_one_encoder_pass_and_one_word_table(self, monkeypatch):
        l0, s0 = models(seed=18)
        encoded, words = [], []
        encode, decode = s0.encode_contexts, speaker._decode

        def counting_encode(feats):
            encoded.append(len(feats))
            return encode(feats)

        def recording_decode(model, tables, *args):
            words.append(tables[1])
            return decode(model, tables, *args)

        s0.encode_contexts = counting_encode
        monkeypatch.setattr(speaker, "_decode", recording_decode)
        compute_agents(l0, s0, "dark blue", COLORS, PragmaticsConfig(), np.random.default_rng(8))
        assert encoded == [3] and len(words) == 1
        # over two chunks, each encodes the contexts it uses; the word table is built once
        monkeypatch.setattr(speaker, "SAMPLE_BATCH", 100)
        encoded.clear()
        words.clear()
        compute_agents(l0, s0, "dark blue", COLORS, PragmaticsConfig(), np.random.default_rng(8))
        assert encoded == [3, 2] and len(words) == 2 and words[0] is words[1]
