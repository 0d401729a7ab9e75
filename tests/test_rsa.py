from fractions import Fraction as F
from importlib import resources

import numpy as np
import pytest

from pragref.colorspace import Color
from pragref.corpus import build_vocab
from pragref.errors import VacuousUtterance
from pragref.listener import ListenerModel
from pragref.rsa import (
    AlternativeSet,
    Lexicon,
    NeuralS1Table,
    PragmaticsConfig,
    blend,
    compute_agents,
    exact_l0,
    exact_l1,
    exact_l2,
    exact_s0,
    exact_s1,
    neural_l1,
    neural_l2,
    neural_s1,
    s1_table_from_probs,
)
from pragref.listener import l0_probs_many
from pragref.speaker import SpeakerModel, s0_log_probs_batch, s0_sample_batch

COLORS = (Color(0.22, 0.52, 0.78), Color(0.0, 0.98, 0.99), Color(0.62, 0.39, 0.38))


@pytest.fixture
def demo_lexicon():
    # blue true of {1,2}; teal of {2}; dull of {1,3}; uniform prior, zero costs
    return Lexicon(utterances=["blue", "teal", "dull"],
                   truth=[[1, 1, 0], [0, 1, 0], [1, 0, 1]])


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
        # alpha=1, kappa=0: blue 1/3, teal 2/3
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
        base = exact_l1(demo_lexicon, "blue", kappa=[0.3, 0.9, 0.1])
        shifted = exact_l1(demo_lexicon, "blue", kappa=[1.3, 1.9, 1.1])
        assert np.allclose([float(x) for x in base], [float(x) for x in shifted])

    def test_l1_single_utterance_prior_restricted(self):
        lex = Lexicon(utterances=["word"], truth=[[1, 0, 1]],
                      prior=["1/2", "1/4", "1/4"])
        assert exact_l1(lex, "word") == [F(2, 3), F(0), F(1, 3)]

    def test_demo_lexicon_file(self):
        path = resources.files("pragref.data") / "demo_lexicon.json"
        lex = Lexicon.from_json(str(path))
        assert exact_l2(lex, "blue") == [F(3, 5), F(2, 5), F(0)]


class TestPragmaticsConfig:
    def test_paper_defaults(self):
        cfg = PragmaticsConfig()
        assert (cfg.m, cfg.n) == (8, 8)
        assert cfg.beta_a == pytest.approx(0.492)
        assert cfg.beta_b == pytest.approx(-0.15)
        assert cfg.gamma == pytest.approx(0.491)
        assert cfg.alpha_neural == pytest.approx(0.544)

    def test_validation(self):
        with pytest.raises(ValueError):
            PragmaticsConfig(m=0)
        with pytest.raises(ValueError):
            PragmaticsConfig(alpha=-1)


class TestNeuralS1:
    def test_singleton_alt_probability_one(self):
        l0, _ = models()
        alt = AlternativeSet.from_samples([], observed=("blue",))
        table = neural_s1(l0, ("blue",), alt, COLORS)
        assert np.allclose(table.prob_of(("blue",)), 1.0)

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

    def test_columns_normalize(self):
        l0, _ = models(seed=2)
        alt = AlternativeSet.from_samples(
            [("dark", "blue"), ("red",), ("dark", "blue")], observed=("blue",))
        table = neural_s1(l0, ("blue",), alt, COLORS)
        assert np.allclose(table.probs.sum(axis=0), 1.0, atol=1e-9)


class TestNeuralL2:
    def test_degenerate_alt_gives_uniform(self, monkeypatch):
        # when every alternative equals the observed utterance, all S1
        # ratios are 1 and the formula forces the uniform distribution
        l0, s0 = models(seed=3)
        monkeypatch.setattr("pragref.rsa._sample_alternatives",
                            lambda model, colors, m, n, rng: [[("blue",)] * (3 * m)
                                                              for _ in range(n)])
        cfg = PragmaticsConfig(m=2, n=1)
        dist = neural_l2(l0, s0, ("blue",), COLORS, cfg, np.random.default_rng(0))
        assert np.allclose(dist, 1 / 3, atol=1e-9)

    def test_sums_to_one_random_models(self):
        l0, s0 = models(seed=4)
        cfg = PragmaticsConfig(m=3, n=2)
        dist = neural_l2(l0, s0, "dark blue", COLORS, cfg, np.random.default_rng(1))
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(dist >= 0)

    def test_deterministic_given_seed(self):
        l0, s0 = models(seed=5)
        cfg = PragmaticsConfig(m=4, n=3)
        a = neural_l2(l0, s0, "blue", COLORS, cfg, np.random.default_rng(11))
        b = neural_l2(l0, s0, "blue", COLORS, cfg, np.random.default_rng(11))
        assert np.array_equal(a, b)


class TestNeuralL1:
    def test_identical_colors_uniform(self):
        _, s0 = models(seed=6)
        c = Color(0.4, 0.5, 0.6)
        dist = neural_l1(s0, "dark blue", (c, c, c))
        assert np.allclose(dist, 1 / 3, atol=1e-12)

    def test_normalized(self):
        _, s0 = models(seed=7)
        dist = neural_l1(s0, "red", COLORS)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)


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
        assert np.allclose(out, [0.4, 0.6], atol=1e-12)

    def test_argmax_endpoints(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.dirichlet(np.ones(3))
            q = rng.dirichlet(np.ones(3))
            assert blend(p, q, 1.0).argmax() == p.argmax()
            assert blend(p, q, 0.0).argmax() == q.argmax()


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
        # the undecorated scorers and sampler build the autograd graph
        for fn in (l0_probs_many, s0_log_probs_batch, s0_sample_batch):
            monkeypatch.setattr(f"pragref.rsa.{fn.__name__}", fn.__wrapped__)
        want = [compute_agents(l0, s0, u, COLORS, cfg, np.random.default_rng(4))
                for u in texts]
        for a, b in zip(got, want):
            assert a.keys() == b.keys()
            assert all(np.array_equal(a[k], b[k]) for k in a)
