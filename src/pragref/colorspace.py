"""Colors, perceptual distance, and condition-constrained context sampling.

A color is a `Color`, a tuple of normalized sRGB channels (r, g, b): numpy
reads one as a (3,) row, a context of three as (3, 3) and a list of contexts
as (N, 3, 3), and the functions below take such arrays. Perceptual distance
is CIEDE2000 over CIE Lab (sRGB, D65 white point). Referent feature vectors
are a 54-dimensional trigonometric expansion of the RGB coordinates.
Reference-game contexts are three colors plus a target index, labeled
far/split/close by pairwise distance against the module's THRESHOLDS.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import PerceptibilityViolation, SamplingBudgetExceeded, require_count, require_rows

FOURIER_DIM = 54

# sRGB -> XYZ (D65) matrix and white point.
_SRGB_TO_XYZ = np.array([
    [0.4124564, 0.3575761, 0.1804375],
    [0.2126729, 0.7151522, 0.0721750],
    [0.0193339, 0.1191920, 0.9503041],
])
_D65 = np.array([0.95047, 1.0, 1.08883])


class Color(namedtuple("Color", "r g b")):
    """A referent: the tuple (r, g, b) of normalized RGB channels, each in [0, 1].

    numpy reads it as a (3,) row, and a triple of colors as a (3, 3) context.
    The constructor rejects a channel outside [0, 1] or NaN, naming it, and
    so do `_make` and `_replace`, which go through it.
    """

    __slots__ = ()

    def __new__(cls, r, g, b):
        # one chained comparison for the common case; the loop runs only to
        # name the channel that failed it
        if not (0.0 <= r <= 1.0 and 0.0 <= g <= 1.0 and 0.0 <= b <= 1.0):
            for name, v in zip(cls._fields, (r, g, b)):
                if not 0.0 <= v <= 1.0:
                    raise ValueError(f"channel {name}={v!r} outside [0, 1]")
        return tuple.__new__(cls, (r, g, b))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Condition(enum.Enum):
    """Context difficulty class, keyed to pairwise CIEDE2000 distances."""

    FAR = "far"
    SPLIT = "split"
    CLOSE = "close"

    @classmethod
    def from_label(cls, label: str) -> "Condition":
        """The condition named by `label`, ignoring case; ValueError for any other value."""
        if not isinstance(label, str):
            raise ValueError(f"condition label {label!r} is not a string")
        return cls(label.lower())


@dataclass(frozen=True)
class ConditionThresholds:
    """Distance threshold theta and perceptibility floor epsilon, in dE00 units."""

    theta_dist: float = 20.0
    epsilon: float = 5.0

    def __post_init__(self):
        if not (0 < self.epsilon < self.theta_dist):
            raise ValueError("require 0 < epsilon < theta_dist")


THRESHOLDS = ConditionThresholds()  # the theta and epsilon of every label and sample
MAX_ATTEMPTS = 10 ** 6  # the sampler's attempt budget per requested context


def hsv_to_rgb_arrays(h: np.ndarray, s: np.ndarray, v: np.ndarray):
    """Elementwise hexcone HSV to RGB arrays (r, g, b); h in degrees, s and v in [0, 1]."""
    h6 = (np.asarray(h, dtype=np.float64) % 360.0) / 60.0
    i = np.floor(h6).astype(int) % 6
    f = h6 - np.floor(h6)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return r, g, b


def srgb_to_lab(rgb: np.ndarray) -> np.ndarray:
    """Convert normalized sRGB (..., 3) to CIE Lab under D65.

    Uses the standard sRGB transfer curve and the CIE 1976 Lab cube-root
    encoding with the linear segment for small ratios.
    """
    rgb = np.asarray(rgb, dtype=np.float64)
    linear = np.where(rgb <= 0.04045, rgb / 12.92, ((rgb + 0.055) / 1.055) ** 2.4)
    xyz = linear @ _SRGB_TO_XYZ.T
    ratio = xyz / _D65
    eps = (6.0 / 29.0) ** 3
    f = np.where(ratio > eps, np.cbrt(ratio), ratio / (3.0 * (6.0 / 29.0) ** 2) + 4.0 / 29.0)
    lab = np.empty_like(xyz)
    lab[..., 0] = 116.0 * f[..., 1] - 16.0
    lab[..., 1] = 500.0 * (f[..., 0] - f[..., 1])
    lab[..., 2] = 200.0 * (f[..., 1] - f[..., 2])
    return lab


def ciede2000_lab(lab1: np.ndarray, lab2: np.ndarray) -> np.ndarray:
    """CIEDE2000 color difference between Lab coordinates (..., 3).

    Implements the published formula including the hue-rotation and
    compensation branch rules; hue handling follows the piecewise mean/
    difference definitions (degrees), with the degenerate C1'*C2' == 0 case
    mapped to zero hue difference and summed mean hue.
    """
    lab1 = np.asarray(lab1, dtype=np.float64)
    lab2 = np.asarray(lab2, dtype=np.float64)
    L1, a1, b1 = lab1[..., 0], lab1[..., 1], lab1[..., 2]
    L2, a2, b2 = lab2[..., 0], lab2[..., 1], lab2[..., 2]

    C1 = np.hypot(a1, b1)
    C2 = np.hypot(a2, b2)
    C_bar = (C1 + C2) / 2.0
    c7 = C_bar ** 7
    G = 0.5 * (1.0 - np.sqrt(c7 / (c7 + 25.0 ** 7)))
    a1p = (1.0 + G) * a1
    a2p = (1.0 + G) * a2
    C1p = np.hypot(a1p, b1)
    C2p = np.hypot(a2p, b2)

    h1p = np.degrees(np.arctan2(b1, a1p)) % 360.0
    h2p = np.degrees(np.arctan2(b2, a2p)) % 360.0
    h1p = np.where(C1p == 0.0, 0.0, h1p)
    h2p = np.where(C2p == 0.0, 0.0, h2p)

    dLp = L2 - L1
    dCp = C2p - C1p

    degenerate = (C1p * C2p) == 0.0
    dh = h2p - h1p
    dh = np.where(dh > 180.0, dh - 360.0, dh)
    dh = np.where(dh < -180.0, dh + 360.0, dh)
    dh = np.where(degenerate, 0.0, dh)
    dHp = 2.0 * np.sqrt(C1p * C2p) * np.sin(np.radians(dh) / 2.0)

    Lp_bar = (L1 + L2) / 2.0
    Cp_bar = (C1p + C2p) / 2.0

    hsum = h1p + h2p
    habs = np.abs(h1p - h2p)
    hp_bar = np.where(habs <= 180.0, hsum / 2.0,
                      np.where(hsum < 360.0, (hsum + 360.0) / 2.0, (hsum - 360.0) / 2.0))
    hp_bar = np.where(degenerate, hsum, hp_bar)

    T = (1.0
         - 0.17 * np.cos(np.radians(hp_bar - 30.0))
         + 0.24 * np.cos(np.radians(2.0 * hp_bar))
         + 0.32 * np.cos(np.radians(3.0 * hp_bar + 6.0))
         - 0.20 * np.cos(np.radians(4.0 * hp_bar - 63.0)))
    d_theta = 30.0 * np.exp(-(((hp_bar - 275.0) / 25.0) ** 2))
    cp7 = Cp_bar ** 7
    RC = 2.0 * np.sqrt(cp7 / (cp7 + 25.0 ** 7))
    SL = 1.0 + 0.015 * (Lp_bar - 50.0) ** 2 / np.sqrt(20.0 + (Lp_bar - 50.0) ** 2)
    SC = 1.0 + 0.045 * Cp_bar
    SH = 1.0 + 0.015 * Cp_bar * T
    RT = -np.sin(np.radians(2.0 * d_theta)) * RC

    tL = dLp / SL
    tC = dCp / SC
    tH = dHp / SH
    return np.sqrt(tL ** 2 + tC ** 2 + tH ** 2 + RT * tC * tH)


def fourier_features_array(rgb: np.ndarray) -> np.ndarray:
    """Trigonometric features of RGB colors (..., 3): 27 cosines then 27 sines (..., 54).

    For each frequency triple (j,k,l) in {0,1,2}^3 (lexicographic), the phase
    is 2*pi*(j*r + k*g + l*b). Every entry lies in [-1, 1]; features are
    1-periodic per channel. The features come from products of unit phasors
    (_phasor_features), not from 54 trigonometric calls per color; each entry
    is within 1e-13 of the cosine or sine of its phase (7.9e-15 was the
    largest difference seen). Each color's row is computed on its own, so a
    row has the same bits whatever else the call holds. A last axis other
    than 3, or a channel that is not finite, raises ValueError.
    """
    rgb = np.asarray(rgb, dtype=np.float64)
    if rgb.shape[-1:] != (3,):
        raise ValueError(f"rgb must hold 3 channels on its last axis, got shape {rgb.shape}")
    require_rows("rgb", rgb, np.isfinite(rgb), "holds a channel that is not finite")
    return _phasor_features(rgb * (2.0 * np.pi))


def _phasor_features(phase: np.ndarray) -> np.ndarray:
    """cos then sin (..., 54) of j p0 + k p1 + l p2 for each (j,k,l) in
    {0,1,2}^3 (lexicographic), from per-channel phases (p0, p1, p2) (..., 3).

    exp(i (j p0 + k p1 + l p2)) = w z2^l with w = z0^j z1^k and z = exp(i p)
    each channel's unit phasor. So each row takes three phasors and their
    squares, then the nine products w, and then the 27 products w z2^l as
    one real matrix product: the nine w as (re, im) rows times the two 2x3
    blocks [re z2^l; -im z2^l] and [im z2^l; re z2^l] give re(w z2^l), the
    cosines, and im(w z2^l), the sines, in the output's order. No temporary
    is as large as the output.
    """
    p = phase.reshape(-1, 3)
    powers = np.empty(p.shape + (3,), dtype=np.complex128)  # (rows, channel, power)
    powers[..., 0] = 1.0
    z = np.exp(1j * p, out=powers[..., 1])
    np.multiply(z, z, out=powers[..., 2])
    w = powers[:, 0, :, None] * powers[:, 1, None, :]
    b = powers[:, 2]
    cols = np.empty((len(p), 4, 3))
    cols[:, 0] = cols[:, 3] = b.real
    cols[:, 2] = b.imag
    np.negative(b.imag, out=cols[:, 1])
    out = np.matmul(w.view(np.float64).reshape(-1, 1, 9, 2), cols.reshape(-1, 2, 2, 3))
    return out.reshape(phase.shape[:-1] + (FOURIER_DIM,))


_PAIRS = np.array([(0, 1), (0, 2), (1, 2)])


def pairwise_distances(colors: np.ndarray) -> np.ndarray:
    """CIEDE2000 distances of the pairs (0, 1), (0, 2), (1, 2) of each context.

    `colors` holds n contexts of three RGB colors, shape (n, 3, 3); the result
    has shape (n, 3). Each context's distances carry the bits that converting
    that context alone gives: the Lab conversion multiplies a (3, 3) block per
    context whatever n is, and CIEDE2000 is elementwise.
    """
    lab = srgb_to_lab(colors)
    return ciede2000_lab(lab[:, _PAIRS[:, 0]], lab[:, _PAIRS[:, 1]])


def _classify_batch(dists: np.ndarray) -> np.ndarray:
    """Condition codes for (n, 3) pairwise-distance rows: the one labelling rule.

    Returns integer codes 0=far (every pair beyond theta), 2=close (every pair
    within theta), 1=split (any other pattern); rows with a pair closer than
    epsilon get code -1 so callers can reject them. Theta and epsilon are
    THRESHOLDS'.
    """
    th = THRESHOLDS
    far = np.all(dists > th.theta_dist, axis=1)
    close = np.all(dists <= th.theta_dist, axis=1)
    codes = np.ones(len(dists), dtype=int)
    codes[far] = 0
    codes[close] = 2
    codes[np.any(dists < th.epsilon, axis=1)] = -1
    return codes


def _first_pair_excludes(d: np.ndarray, code: int) -> np.ndarray:
    """Where one pair's distance d alone rules out `code` under `_classify_batch`.

    A necessary condition of each code: far needs every pair beyond theta, close
    every pair in [epsilon, theta], and split no pair below epsilon. Each test
    is a comparison that is False for NaN, so a NaN distance is never excluded
    here and is labelled by `_classify_batch` as before. Change this together
    with the labelling rule.
    """
    th = THRESHOLDS
    if code == 0:
        return d <= th.theta_dist
    if code == 2:
        return (d > th.theta_dist) | (d < th.epsilon)
    return d < th.epsilon


# Conditions by the codes of `_classify_batch`, and back.
_CONDITIONS = (Condition.FAR, Condition.SPLIT, Condition.CLOSE)
_CONDITION_CODES = {c: i for i, c in enumerate(_CONDITIONS)}


def classify_conditions(colors: np.ndarray) -> list[Condition]:
    """Label n contexts far/split/close by their pairwise CIEDE2000 distances.

    `colors` has shape (n, 3, 3), RGB channels in [0, 1]; theta and epsilon
    are THRESHOLDS'. Far: all three pairwise distances exceed theta. Close:
    all three are within theta. Split: any other pattern. The rule looks at
    pairs, not at the target, so a context whose target is far from both
    distractors can be split.

    Raises PerceptibilityViolation naming the first context with a pair
    closer than epsilon, and ValueError for another shape or a channel
    outside [0, 1].
    """
    colors = np.asarray(colors, dtype=np.float64)
    if colors.ndim != 3 or colors.shape[1:] != (3, 3):
        raise ValueError(f"expected contexts of shape (n, 3, 3), got {colors.shape}")
    if not np.all((colors >= 0.0) & (colors <= 1.0)):
        raise ValueError("RGB channels must lie in [0, 1]")
    dists = pairwise_distances(colors)
    codes = _classify_batch(dists)
    bad = np.flatnonzero(codes < 0)
    if bad.size:
        i = int(bad[0])
        raise PerceptibilityViolation(
            f"context {i}: pairwise distance {dists[i].min():.3f} below "
            f"epsilon={THRESHOLDS.epsilon}")
    return [_CONDITIONS[c] for c in codes]


def sample_contexts(cond: Condition, n: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Rejection-sample n contexts of one condition.

    Returns (colors, targets): colors has shape (n, 3, 3) with rows uniform
    over the RGB cube, targets shape (n,). Target indices are drawn uniformly
    before the accept/reject test, which labels at THRESHOLDS. Raises
    SamplingBudgetExceeded if the total attempt budget (MAX_ATTEMPTS per
    requested context) runs out, and ValueError if n is negative, not an
    integer, or a bool; n = 0 gives empty arrays.

    Each batch of candidates is converted to Lab at once, and the distance of
    the pair (0, 1) is computed for every candidate. Only the candidates that
    this one distance does not rule out (`_first_pair_excludes`) get their
    pairs (0, 2) and (1, 2) computed and are labelled by `_classify_batch`.
    The random stream, the accepted contexts and their targets are those of
    labelling every pair of every candidate.
    """
    require_count("n", n, minimum=0)
    want = _CONDITION_CODES[cond]
    out_colors = np.empty((n, 3, 3))
    out_targets = np.empty(n, dtype=int)
    got = 0
    attempts = 0
    budget = MAX_ATTEMPTS * n
    batch = max(256, min(65536, 4 * n))
    while got < n:
        if attempts >= budget:
            raise SamplingBudgetExceeded(
                f"no {cond.value} context accepted in {attempts} attempts")
        m = min(batch, budget - attempts)
        cand = rng.random((m, 3, 3))
        targets = rng.integers(0, 3, size=m)
        attempts += m
        # fancy-indexed (m, 1, 3) and (k, 2, 3) copies lay out each pair as
        # pairwise_distances does, so every channel slice has its strides
        lab = srgb_to_lab(cand)
        first = ciede2000_lab(lab[:, [0]], lab[:, [1]])[:, 0]
        live = np.flatnonzero(~_first_pair_excludes(first, want))
        rest = ciede2000_lab(lab[live[:, None], [0, 1]], lab[live[:, None], [2, 2]])
        dists = np.column_stack((first[live], rest))
        sel = live[_classify_batch(dists) == want][:n - got]
        take = len(sel)
        if take:
            out_colors[got:got + take] = cand[sel]
            out_targets[got:got + take] = targets[sel]
            got += take
    return out_colors, out_targets
