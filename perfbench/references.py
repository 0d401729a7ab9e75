"""Reference computations made apart from the program under test.

Everything here is written from the published definitions with numpy and the
standard library, so the workloads can check `pragref` against it:

- the CIEDE2000 verification pairs of Sharma, Wu & Dalal (2005),
- sRGB (D65) to CIE Lab,
- the far/split/close labelling rule of Monroe et al. (2017),
- central differences of a scalar loss over sampled parameter coordinates,
- the renormalized geometric blend of two distributions.
"""

from __future__ import annotations

import numpy as np

# Sharma, Wu & Dalal (2005), Table 1: Lab1, Lab2 and the published dE00.
SHARMA_PAIRS = (
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
)

# The published values carry four decimals.
SHARMA_TOLERANCE = 5e-5


class CheckFailed(AssertionError):
    """A program output disagreed with a reference or a required property."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_ciede2000(ciede2000_lab) -> None:
    """The program's CIEDE2000 must reproduce every published pair, both ways."""
    lab1 = np.array([p[0] for p in SHARMA_PAIRS])
    lab2 = np.array([p[1] for p in SHARMA_PAIRS])
    want = np.array([p[2] for p in SHARMA_PAIRS])
    for got in (ciede2000_lab(lab1, lab2), ciede2000_lab(lab2, lab1)):
        err = np.abs(np.asarray(got) - want)
        require(np.all(err <= SHARMA_TOLERANCE),
                f"ciede2000_lab misses Sharma pair {int(err.argmax()) + 1} by {err.max():.2e}")


# sRGB primaries to XYZ under D65 (IEC 61966-2-1) and the D65 white point.
_M = np.array([[0.4124564, 0.3575761, 0.1804375],
               [0.2126729, 0.7151522, 0.0721750],
               [0.0193339, 0.1191920, 0.9503041]])
_WHITE = np.array([0.95047, 1.0, 1.08883])


def srgb_to_lab(rgb: np.ndarray) -> np.ndarray:
    """CIE 1976 Lab of normalized sRGB rows (..., 3), D65 white."""
    rgb = np.asarray(rgb, dtype=np.float64)
    lin = np.where(rgb > 0.04045, ((rgb + 0.055) / 1.055) ** 2.4, rgb / 12.92)
    t = np.einsum("ij,...j->...i", _M, lin) / _WHITE
    delta = 6.0 / 29.0
    f = np.where(t > delta ** 3, np.cbrt(t), t / (3 * delta ** 2) + 4.0 / 29.0)
    return np.stack([116.0 * f[..., 1] - 16.0,
                     500.0 * (f[..., 0] - f[..., 1]),
                     200.0 * (f[..., 1] - f[..., 2])], axis=-1)


PAIRS = ((0, 1), (0, 2), (1, 2))


def condition_labels(colors: np.ndarray, ciede2000_lab, theta: float,
                     epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Labels of (n, 3, 3) contexts by the pairwise rule, and the closest pair.

    Far: every pair farther than theta. Close: every pair within theta.
    Split: the rest. Distances come from `ciede2000_lab` (checked against the
    Sharma pairs first) on Lab coordinates computed here.
    """
    lab = srgb_to_lab(colors)
    d = np.stack([ciede2000_lab(lab[:, i], lab[:, j]) for i, j in PAIRS], axis=1)
    labels = np.full(len(d), "split", dtype=object)
    labels[np.all(d > theta, axis=1)] = "far"
    labels[np.all(d <= theta, axis=1)] = "close"
    return labels, d.min(axis=1) if len(d) else np.zeros(0)


def central_differences(loss, param: np.ndarray, coords: np.ndarray,
                        eps: float = 1e-5) -> np.ndarray:
    """(loss(x + eps e_i) - loss(x - eps e_i)) / 2 eps at flat indices `coords`.

    `loss` is a no-argument callable that reads `param` in place.
    """
    out = np.empty(len(coords))
    flat = param.reshape(-1)
    for k, i in enumerate(coords):
        keep = flat[i]
        flat[i] = keep + eps
        hi = loss()
        flat[i] = keep - eps
        lo = loss()
        flat[i] = keep
        out[k] = (hi - lo) / (2.0 * eps)
    return out


# Central differences of a loss near 1 carry rounding errors near 1e-11;
# this floor keeps them from counting where a parameter's gradient is ~0.
GRADIENT_FLOOR = 1e-6


def gradient_mismatch(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst |a - n| over the checked coordinates, as a share of the largest |n|.

    Scaling by the largest entry, not entry by entry, keeps the rounding
    error of central differences on near-zero entries from counting.
    """
    return float(np.max(np.abs(analytic - numeric))
                 / (np.max(np.abs(numeric)) + GRADIENT_FLOOR))


def geometric_blend(p: np.ndarray, q: np.ndarray, w: float,
                    floor: float = 1e-12) -> np.ndarray:
    """p^w q^(1-w), renormalized, with both inputs floored at `floor`."""
    mix = np.maximum(p, floor) ** w * np.maximum(q, floor) ** (1.0 - w)
    return mix / mix.sum()
