import colorsys
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pragref import colorspace
from pragref.colorspace import (
    Color,
    Condition,
    ConditionThresholds,
    ciede2000_lab,
    classify_conditions,
    fourier_features_array,
    hsv_to_rgb_arrays,
    pairwise_distances,
    sample_contexts,
    srgb_to_lab,
)
from pragref.errors import PerceptibilityViolation, SamplingBudgetExceeded
from pragref.metrics import condition_mix_contexts

# Published CIEDE2000 verification pairs (Sharma, Wu & Dalal): Lab1, Lab2, dE00.
SHARMA_PAIRS = [
    ((50.0000, 2.6772, -79.7751), (50.0000, 0.0000, -82.7485), 2.0425),
    ((50.0000, 3.1571, -77.2803), (50.0000, 0.0000, -82.7485), 2.8615),
    ((50.0000, 2.8361, -74.0200), (50.0000, 0.0000, -82.7485), 3.4412),
    ((50.0000, -1.3802, -84.2814), (50.0000, 0.0000, -82.7485), 1.0000),
    ((50.0000, -1.1848, -84.8006), (50.0000, 0.0000, -82.7485), 1.0000),
    ((50.0000, -0.9009, -85.5211), (50.0000, 0.0000, -82.7485), 1.0000),
    ((50.0000, 0.0000, 0.0000), (50.0000, -1.0000, 2.0000), 2.3669),
    ((50.0000, -1.0000, 2.0000), (50.0000, 0.0000, 0.0000), 2.3669),
    ((50.0000, 2.4900, -0.0010), (50.0000, -2.4900, 0.0009), 7.1792),
    ((50.0000, 2.4900, -0.0010), (50.0000, -2.4900, 0.0010), 7.1792),
    ((50.0000, 2.4900, -0.0010), (50.0000, -2.4900, 0.0011), 7.2195),
    ((50.0000, 2.4900, -0.0010), (50.0000, -2.4900, 0.0012), 7.2195),
    ((50.0000, -0.0010, 2.4900), (50.0000, 0.0010, -2.4900), 4.8045),
    ((50.0000, -0.0010, 2.4900), (50.0000, 0.0011, -2.4900), 4.7461),
    ((50.0000, -0.0010, 2.4900), (50.0000, 0.0012, -2.4900), 4.7461),
    ((50.0000, 2.5000, 0.0000), (50.0000, 0.0000, -2.5000), 4.3065),
    ((50.0000, 2.5000, 0.0000), (73.0000, 25.0000, -18.0000), 27.1492),
    ((50.0000, 2.5000, 0.0000), (61.0000, -5.0000, 29.0000), 22.8977),
    ((50.0000, 2.5000, 0.0000), (56.0000, -27.0000, -3.0000), 31.9030),
    ((50.0000, 2.5000, 0.0000), (58.0000, 24.0000, 15.0000), 19.4535),
    ((50.0000, 2.5000, 0.0000), (50.0000, 3.1736, 0.5854), 1.0000),
    ((50.0000, 2.5000, 0.0000), (50.0000, 3.2972, 0.0000), 1.0000),
    ((50.0000, 2.5000, 0.0000), (50.0000, 1.8634, 0.5757), 1.0000),
    ((50.0000, 2.5000, 0.0000), (50.0000, 3.2592, 0.3350), 1.0000),
    ((60.2574, -34.0099, 36.2677), (60.4626, -34.1751, 39.4387), 1.2644),
    ((63.0109, -31.0961, -5.8663), (62.8187, -29.7946, -4.0864), 1.2630),
    ((61.2901, 3.7196, -5.3901), (61.4292, 2.2480, -4.9620), 1.8731),
    ((35.0831, -44.1164, 3.7933), (35.0232, -40.0716, 1.5901), 1.8645),
    ((22.7233, 20.0904, -46.6940), (23.0331, 14.9730, -42.5619), 2.0373),
    ((36.4612, 47.8580, 18.3852), (36.2715, 50.5065, 21.2231), 1.4146),
    ((90.8027, -2.0831, 1.4410), (91.1528, -1.6435, 0.0447), 1.4441),
    ((90.9257, -0.5406, -0.9208), (88.6381, -0.8985, -0.7239), 1.5381),
    ((6.7747, -0.2908, -2.4247), (5.8714, -0.0985, -2.2286), 0.6377),
    ((2.0776, 0.0795, -1.1350), (0.9033, -0.0636, -0.5514), 0.9082),
]

unit = st.floats(0.0, 1.0, allow_nan=False)
# channels that hit the ends of [0, 1] often, where the phases are whole turns
channel = st.one_of(st.sampled_from([0.0, 1.0]), unit)


def hsv_to_rgb(h, s, v):
    """One point through hsv_to_rgb_arrays, as a tuple of floats."""
    return tuple(float(ch) for ch in hsv_to_rgb_arrays(h, s, v))


def distance(a, b):
    """CIEDE2000 distance between two RGB colors."""
    return float(pairwise_distances(np.array([[a, b, b]]))[0, 0])


class TestHsv:
    def test_black(self):
        assert hsv_to_rgb(0.0, 0.0, 0.0) == (0.0, 0.0, 0.0)

    def test_pure_red(self):
        assert hsv_to_rgb(0.0, 1.0, 1.0) == (1.0, 0.0, 0.0)

    def test_hand_computed_point(self):
        # max=b=0.75, min=0.25, delta=0.5: h=60*(4+(r-g)/delta)=210, s=2/3, v=0.75
        assert hsv_to_rgb(210.0, 2.0 / 3.0, 0.75) == pytest.approx((0.25, 0.5, 0.75),
                                                                   abs=1e-12)

    @given(unit, unit, unit)
    @example(1.0, 0.0, 2.0 ** -52)  # the standard library rounds this hue up to 1.0
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, r, g, b):
        # the standard library's hexcone, with hue as a fraction of a turn
        h, s, v = colorsys.rgb_to_hsv(r, g, b)
        back = hsv_to_rgb(360.0 * h, s, v)
        assert back == pytest.approx((r, g, b), abs=1e-9)
        assert v == max(r, g, b)
        assert 0.0 <= h <= 1.0

    def test_channel_validation(self):
        for name, channels in (("r", (1.2, 0, 0)), ("g", (0, -0.1, 0)), ("b", (0, 0, math.nan))):
            with pytest.raises(ValueError, match=f"channel {name}=.* outside"):
                Color(*channels)
        # namedtuple's own constructors go through the same check
        with pytest.raises(ValueError, match="channel r=2 outside"):
            Color._make([2, 0, 0])
        with pytest.raises(ValueError, match="channel r=-5 outside"):
            Color(0.1, 0.2, 0.3)._replace(r=-5)
        assert Color(0.1, 0.2, 0.3)._replace(g=0.5) == Color._make([0.1, 0.5, 0.3])

    def test_numpy_reads_colors_as_rows(self):
        c = Color(0.1, 0.2, 0.3)
        assert (c.r, c.g, c.b) == c == (0.1, 0.2, 0.3)
        assert np.asarray(c).shape == (3,)
        assert np.asarray((c, c, c)).shape == (3, 3)
        assert np.array([(c, c, c)] * 4).shape == (4, 3, 3)


class TestColor:
    @pytest.mark.parametrize("channels", [(0.0, 1.0, -0.0), (0, 1, 0), (True, False, True),
                                          (1, 0.5, False)])
    def test_in_range_kept_as_given(self, channels):
        for c in (Color(*channels), Color._make(channels),
                  Color(0.5, 0.5, 0.5)._replace(r=channels[0], g=channels[1], b=channels[2])):
            assert type(c) is Color
            assert c == channels
            assert [type(v) for v in c] == [type(v) for v in channels]
            assert [math.copysign(1, v) for v in c] == [math.copysign(1, v) for v in channels]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1e-300, 1 + 2 ** -52])
    @pytest.mark.parametrize("index", range(3))
    def test_out_of_range_names_channel(self, index, value):
        name = Color._fields[index]
        channels = [0.5, 0.5, 0.5]
        channels[index] = value
        message = re.escape(f"channel {name}={value!r} outside [0, 1]")
        with pytest.raises(ValueError, match=message):
            Color(*channels)
        with pytest.raises(ValueError, match=message):
            Color._make(channels)
        with pytest.raises(ValueError, match=message):
            Color(0.5, 0.5, 0.5)._replace(**{name: value})

    def test_first_bad_channel_named(self):
        with pytest.raises(ValueError, match="channel g=2 outside"):
            Color(0.5, 2, math.nan)

    @pytest.mark.parametrize("index", range(3))
    def test_string_channel_type_error(self, index):
        channels = [0.5, 0.5, 0.5]
        channels[index] = "0.5"
        with pytest.raises(TypeError):
            Color(*channels)


class TestConditionLabel:
    @pytest.mark.parametrize("label, cond", [("far", Condition.FAR), ("SPLIT", Condition.SPLIT),
                                             ("Close", Condition.CLOSE)])
    def test_any_case(self, label, cond):
        assert Condition.from_label(label) is cond

    @pytest.mark.parametrize("label", ["", "medium", " far", None, False, 0, 2, [], {}, b"far"])
    def test_anything_else_value_error(self, label):
        with pytest.raises(ValueError):
            Condition.from_label(label)


class TestCiede2000:
    @pytest.mark.parametrize("lab1,lab2,expected", SHARMA_PAIRS)
    def test_published_pairs(self, lab1, lab2, expected):
        got = float(ciede2000_lab(np.array(lab1), np.array(lab2)))
        assert got == pytest.approx(expected, abs=1e-4)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(0)
        a = rng.random((1000, 3))
        b = rng.random((1000, 3))
        lab_a, lab_b = srgb_to_lab(a), srgb_to_lab(b)
        d_ab = ciede2000_lab(lab_a, lab_b)
        d_ba = ciede2000_lab(lab_b, lab_a)
        assert np.allclose(d_ab, d_ba, atol=1e-12)
        assert np.all(d_ab >= 0)

    def test_zero_iff_identical_lab(self):
        for rgb in ((0.2, 0.4, 0.9), Color(0.3, 0.7, 0.2)):
            lab = srgb_to_lab(np.asarray(rgb))
            assert float(ciede2000_lab(lab, lab)) == 0.0
            assert distance(rgb, rgb) == 0.0


class TestFourierFeatures:
    def test_zero_phase(self):
        f = fourier_features_array(Color(0, 0, 0))
        assert f.shape == (54,)
        assert np.allclose(f[:27], 1.0)
        assert np.allclose(f[27:], 0.0)

    def test_half_period(self):
        # triple (1,0,0) at rgb (0.5,0.5,0.5): phase pi -> cos=-1, sin~0
        f = fourier_features_array(Color(0.5, 0.5, 0.5))
        i = 9  # lexicographic index of (1,0,0)
        assert f[i] == pytest.approx(-1.0, abs=1e-12)
        assert f[27 + i] == pytest.approx(0.0, abs=1e-12)

    def test_hand_evaluated_triple(self):
        # (j,k,l)=(1,2,1) on (0.2,0.4,0.8): phase = 2*pi*1.8
        f = fourier_features_array(Color(0.2, 0.4, 0.8))
        i = 9 + 2 * 3 + 1  # index of (1,2,1)
        assert f[i] == pytest.approx(math.cos(2 * math.pi * 1.8), abs=1e-12)
        assert f[27 + i] == pytest.approx(math.sin(2 * math.pi * 1.8), abs=1e-12)

    @given(unit, unit, unit)
    @settings(max_examples=100, deadline=None)
    def test_range_and_periodicity(self, r, g, b):
        f = fourier_features_array(Color(r, g, b))
        assert np.all(np.abs(f) <= 1.0 + 1e-12)
        shifted = fourier_features_array(np.array([(r + 1.0) % 1.0, g, b]))
        assert np.allclose(f, shifted, atol=1e-9)

    @given(channel, channel, channel)
    @example(0.0, 0.0, 0.0)
    @example(1.0, 1.0, 1.0)
    @example(0.0, 1.0, 0.5)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_direct_formula(self, r, g, b):
        # the phasor products against one cosine and one sine per phase; most
        # of the gap is the direct formula's rounding of phases up to 12 pi
        got = fourier_features_array(Color(r, g, b))
        assert np.abs(got - direct_fourier_features(r, g, b)).max() <= 1e-13

    @pytest.mark.parametrize("shape", [(1, 3), (7, 3), (40, 3, 3), (3, 5, 3)])
    def test_rows_equal_one_color_calls(self, shape):
        rgb = np.random.default_rng(sum(shape)).random(shape)
        rgb.reshape(-1, 3)[::4] = np.round(rgb.reshape(-1, 3)[::4] * 2) / 2  # 0, 0.5 and 1
        got = fourier_features_array(rgb)
        assert got.shape == shape[:-1] + (54,)
        for index in np.ndindex(shape[:-1]):
            assert np.array_equal(got[index], fourier_features_array(rgb[index]))

    @pytest.mark.parametrize("rgb", [np.zeros(2), np.zeros((3, 4)), np.zeros((3, 3, 1)),
                                     np.float64(0.5)])
    def test_wrong_channel_count_raises(self, rgb):
        with pytest.raises(ValueError, match="rgb"):
            fourier_features_array(rgb)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [(0, 0), (2, 1), (1, 2)])
    def test_non_finite_channel_raises(self, value, at):
        rgb = np.full((3, 3), 0.25)
        rgb[at] = value
        with pytest.raises(ValueError, match="rgb"):
            fourier_features_array(rgb)


def direct_fourier_features(r: float, g: float, b: float) -> np.ndarray:
    """The features as their definition gives them: the cosines, then the
    sines, of 2 pi (j r + k g + l b) for (j, k, l) in {0, 1, 2}^3
    lexicographic, one phase at a time."""
    phases = [2.0 * math.pi * (j * r + k * g + l * b)
              for j, k, l in itertools.product(range(3), repeat=3)]
    return np.array([math.cos(p) for p in phases] + [math.sin(p) for p in phases])


def _triple_at_lab_distances(seed, lo, hi, tries=20000):
    """Find a random color triple whose pairwise dE00 all fall in (lo, hi]."""
    rng = np.random.default_rng(seed)
    for _ in range(tries):
        cols = tuple(Color(*rng.random(3)) for _ in range(3))
        if all(lo < x <= hi for x in pairwise_distances(np.array([cols]))[0]):
            return cols
    raise AssertionError("no triple found")


class TestClassifyCondition:
    def test_far_from_measured_distances(self):
        # fixed triple whose pairwise distances are all far above theta
        cols = (Color(1, 0, 0), Color(0, 1, 0), Color(0, 0, 1))
        assert pairwise_distances(np.array([cols])).min() > 20
        assert classify_conditions(np.array([cols])) == [Condition.FAR]

    def test_split_one_near_one_far(self):
        base = Color(0.2, 0.4, 0.6)
        near = Color(0.2, 0.48, 0.66)     # small perturbation
        far = Color(0.9, 0.1, 0.1)
        assert 5 < distance(base, near) <= 20
        assert distance(base, far) > 20 and distance(near, far) > 20
        assert classify_conditions(np.array([(base, near, far)])) == [Condition.SPLIT]

    def test_close_by_definition(self):
        cols = _triple_at_lab_distances(seed=3, lo=5, hi=20)
        assert classify_conditions(np.array([cols])) == [Condition.CLOSE]

    def test_distractor_swap_invariance(self):
        rng = np.random.default_rng(11)
        found = 0
        while found < 50:
            cols = tuple(Color(*rng.random(3)) for _ in range(3))
            try:
                lab = classify_conditions(np.array([cols]))[0]
            except PerceptibilityViolation:
                continue
            swapped = (cols[0], cols[2], cols[1])
            assert classify_conditions(np.array([swapped]))[0] is lab
            found += 1

    def test_epsilon_violation(self):
        a = Color(0.5, 0.5, 0.5)
        b = Color(0.5, 0.5, 0.505)
        assert distance(a, b) < 5
        with pytest.raises(PerceptibilityViolation):
            classify_conditions(np.array([(a, b, Color(1, 0, 0))]))


class TestSampleContext:
    @pytest.mark.parametrize("cond", list(Condition))
    def test_postcondition(self, cond):
        colors, targets = sample_contexts(cond, 25, np.random.default_rng(5))
        assert classify_conditions(colors) == [cond] * 25
        assert set(targets.tolist()) <= {0, 1, 2}

    def test_resampling_property(self):
        # 10^4-sample re-classification check, batched for speed
        rng = np.random.default_rng(7)
        for cond in Condition:
            cols, _ = sample_contexts(cond, 10_000 // 3, rng)
            for i in range(0, len(cols), 997):  # spot re-check, one context per call
                assert classify_conditions(cols[i:i + 1]) == [cond]

    def test_budget_exceeded(self, monkeypatch):
        monkeypatch.setattr(colorspace, "MAX_ATTEMPTS", 3)
        rng = np.random.default_rng(0)
        with pytest.raises(SamplingBudgetExceeded):
            sample_contexts(Condition.CLOSE, 1, rng)

    @pytest.mark.parametrize("n", [-1, 2.5, 3.0, True, "3", None])
    def test_bad_size_rejected(self, n):
        with pytest.raises(ValueError, match=r"^n must be an integer of at least 0"):
            sample_contexts(Condition.FAR, n, np.random.default_rng(0))

    @pytest.mark.parametrize("cond", list(Condition))
    def test_zero_size_empty(self, cond):
        rng = np.random.default_rng(0)
        colors, targets = sample_contexts(cond, np.int64(0), rng)
        assert colors.shape == (0, 3, 3) and targets.shape == (0,)
        assert rng.random() == np.random.default_rng(0).random()

    def test_close_evaluates_fewer_than_two_pairs_per_candidate(self, monkeypatch):
        # the first pair rules most candidates out, so the other two are
        # computed for few of them; labelling every pair costs three
        drawn, pairs = [], []
        to_lab, de00 = colorspace.srgb_to_lab, colorspace.ciede2000_lab

        def count_candidates(rgb):
            drawn.append(len(rgb))
            return to_lab(rgb)

        def count_pairs(lab1, lab2):
            d = de00(lab1, lab2)
            pairs.append(d.size)
            return d

        monkeypatch.setattr(colorspace, "srgb_to_lab", count_candidates)
        monkeypatch.setattr(colorspace, "ciede2000_lab", count_pairs)
        colors, _ = sample_contexts(Condition.CLOSE, 50, np.random.default_rng(0))
        assert len(colors) == 50 and sum(drawn) > 0
        assert sum(pairs) < 2 * sum(drawn)

    def test_far_channel_mean_symmetry(self):
        rng = np.random.default_rng(13)
        cols, _ = sample_contexts(Condition.FAR, 100_000 // 3, rng)
        mean = cols.mean()
        assert abs(mean - 0.5) < 0.02


# -- batched labels against the per-trial code they replaced ---------------------

_PAIRS = np.array([(0, 1), (0, 2), (1, 2)])


def per_trial_distances(colors):
    """Reference: one context's pairwise distances from a (3, 3) conversion."""
    lab = srgb_to_lab(np.asarray(colors))
    return ciede2000_lab(lab[_PAIRS[:, 0]], lab[_PAIRS[:, 1]])


def per_trial_condition(colors, th=ConditionThresholds()):
    """Reference: the per-trial labeller before batching."""
    dists = per_trial_distances(colors)
    if np.any(dists < th.epsilon):
        raise PerceptibilityViolation(f"pairwise distance {dists.min():.3f}")
    if np.all(dists > th.theta_dist):
        return Condition.FAR
    if np.all(dists <= th.theta_dist):
        return Condition.CLOSE
    return Condition.SPLIT


def reference_sample_contexts(cond, n, rng, th=ConditionThresholds(), max_attempts=10 ** 6):
    """Reference: the rejection sampler with its own Lab pairs and labelling rule."""
    want = {Condition.FAR: 0, Condition.SPLIT: 1, Condition.CLOSE: 2}[cond]
    out_colors, out_targets, got, attempts = np.empty((n, 3, 3)), np.empty(n, dtype=int), 0, 0
    batch = max(256, min(65536, 4 * n))
    while got < n:
        if attempts >= max_attempts * n:
            raise SamplingBudgetExceeded(cond.value)
        m = min(batch, max_attempts * n - attempts)
        cand = rng.random((m, 3, 3))
        targets = rng.integers(0, 3, size=m)
        attempts += m
        lab = srgb_to_lab(cand)
        dists = ciede2000_lab(lab[:, _PAIRS[:, 0], :], lab[:, _PAIRS[:, 1], :])
        codes = np.ones(m, dtype=int)
        codes[np.all(dists > th.theta_dist, axis=1)] = 0
        codes[np.all(dists <= th.theta_dist, axis=1)] = 2
        codes[np.any(dists < th.epsilon, axis=1)] = -1
        ok = codes == want
        take = min(int(ok.sum()), n - got)
        sel = np.flatnonzero(ok)[:take]
        out_colors[got:got + take] = cand[sel]
        out_targets[got:got + take] = targets[sel]
        got += take
    return out_colors, out_targets


def _triples(colors):
    return [tuple(Color(*row) for row in ctx) for ctx in colors]


class TestBatchedLabels:
    def test_one_row_products_match_one_color(self):
        # the premise of the batched term lookup: (N, 1, 3) rows convert with
        # the bits of a lone (3,) color
        rgb = np.random.default_rng(3).random((5000, 3))
        rows = srgb_to_lab(rgb[:, None, :])[:, 0]
        assert np.array_equal(rows, np.array([srgb_to_lab(c) for c in rgb]))

    def test_pairwise_distances_match_per_trial(self):
        colors = np.random.default_rng(4).random((3000, 3, 3))
        want = np.array([per_trial_distances(t) for t in _triples(colors)])
        assert np.array_equal(pairwise_distances(colors), want)

    def test_labels_match_per_trial(self):
        th = ConditionThresholds()
        colors = np.random.default_rng(5).random((3000, 3, 3))
        keep = np.all(pairwise_distances(colors) >= th.epsilon, axis=1)
        colors = colors[keep]
        want = [per_trial_condition(t) for t in _triples(colors)]
        assert len(set(want)) == 3
        assert classify_conditions(colors) == want

    def test_custom_thresholds(self, monkeypatch):
        th = ConditionThresholds(theta_dist=40.0, epsilon=10.0)
        monkeypatch.setattr(colorspace, "THRESHOLDS", th)
        colors = np.random.default_rng(6).random((600, 3, 3))
        colors = colors[np.all(pairwise_distances(colors) >= th.epsilon, axis=1)]
        assert classify_conditions(colors) == [per_trial_condition(t, th)
                                               for t in _triples(colors)]

    def test_violation_names_first_bad_context(self):
        rng = np.random.default_rng(7)
        colors, _ = sample_contexts(Condition.FAR, 6, rng)
        for i in (4, 2):
            colors[i, 1] = colors[i, 0]
        with pytest.raises(PerceptibilityViolation, match=r"context 2\b"):
            classify_conditions(colors)
        with pytest.raises(PerceptibilityViolation, match="context 0"):
            classify_conditions(colors[2:3])
        assert classify_conditions(colors[:2]) == [Condition.FAR] * 2

    def test_empty_batch(self):
        assert classify_conditions(np.empty((0, 3, 3))) == []

    @pytest.mark.parametrize("colors", [
        np.full((3, 3), 0.5),
        np.full((2, 3, 4), 0.5),
        np.full((2, 2, 3), 0.5),
        np.array([[[0.1, 0.2, 0.3], [0.9, 0.9, 0.9], [1.5, 0.0, 0.0]]]),
        np.array([[[0.1, 0.2, 0.3], [0.9, 0.9, 0.9], [np.nan, 0.0, 0.0]]]),
    ])
    def test_bad_contexts_rejected(self, colors):
        with pytest.raises(ValueError):
            classify_conditions(colors)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 50, 400])
    def test_sample_contexts_match_reference(self, seed, n, monkeypatch):
        for th, cond in itertools.product(
                (ConditionThresholds(), ConditionThresholds(theta_dist=40.0, epsilon=10.0)),
                Condition):
            monkeypatch.setattr(colorspace, "THRESHOLDS", th)
            rng, ref_rng = np.random.default_rng([seed, n]), np.random.default_rng([seed, n])
            got = sample_contexts(cond, n, rng)
            want = reference_sample_contexts(cond, n, ref_rng, th)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("th", [ConditionThresholds(),
                                    ConditionThresholds(theta_dist=40.0, epsilon=10.0)])
    def test_first_pair_exclusion_is_necessary(self, th, monkeypatch):
        # a distance excludes a code exactly when every row holding it in
        # pair (0, 1) gets another code, whatever its other two pairs are
        monkeypatch.setattr(colorspace, "THRESHOLDS", th)
        d = np.array([0.0, np.nextafter(th.epsilon, 0), th.epsilon,
                      np.nextafter(th.epsilon, np.inf), (th.epsilon + th.theta_dist) / 2,
                      np.nextafter(th.theta_dist, 0), th.theta_dist,
                      np.nextafter(th.theta_dist, np.inf), 2 * th.theta_dist, np.inf])
        others = np.array([th.epsilon, th.theta_dist, 2 * th.theta_dist])
        rest = np.array([(a, b) for a in others for b in others])
        rows = np.column_stack((np.repeat(d, len(rest)), np.tile(rest, (len(d), 1))))
        codes = colorspace._classify_batch(rows).reshape(len(d), len(rest))
        for code in (0, 1, 2):
            excluded = colorspace._first_pair_excludes(d, code)
            assert excluded.dtype == bool and excluded.shape == d.shape
            assert np.array_equal(excluded, np.all(codes != code, axis=1))

    def test_nan_never_excluded(self):
        d = np.array([np.nan, 10.0])
        for code in (0, 1, 2):
            assert not colorspace._first_pair_excludes(d, code)[0]
        # the labelling rule calls a NaN row split, so its sampler must keep it
        assert colorspace._classify_batch(np.array([[np.nan, 30.0, 30.0]])).tolist() == [1]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_condition_mix_contexts_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        want = []
        for cond in Condition:
            cols, targets = reference_sample_contexts(cond, 40, rng)
            want += [(triple, int(t), cond) for triple, t in zip(_triples(cols), targets)]
        assert condition_mix_contexts(40, np.random.default_rng(seed)) == want
