"""Whole-plane forms of the package's strip-wise and per-plane kernels, for
the tests.

The package builds SSIM maps and the synthetic world in row strips, window
sums one plane at a time, and encodes one channel at a time.  These are the
forms they replace: one pass over every row, the window sums of x and x^2
stacked into one array, and all channels at once.  Each must equal its
package counterpart bit for bit.
"""

import math

import numpy as np

from outpaint.flow import _bilinear
from outpaint.grids import ChannelGrid
from outpaint.metrics import _C1
from outpaint.refselect import _C2, _C3, STRUCTURE_WINDOW, _window_cov, _window_sums


def stacked_frame_moments(a):
    """``refselect._frame_moments`` with the window sums of x and x^2 taken
    together, through ``np.stack([x, x * x])``."""
    n = STRUCTURE_WINDOW * STRUCTURE_WINDOW
    mean = a.mean()
    x = a - mean
    s_x, s_xx = _window_sums(_window_sums(np.stack([x, x * x]), 2), 1)
    var = (s_xx - s_x * s_x / n) / (n - 1)
    return mean, x, s_x, np.sqrt(np.maximum(var, 0.0))


def whole_plane_ssim(a: ChannelGrid, b: ChannelGrid) -> float:
    """``metrics.ssim_full`` with each channel's moments and SSIM map built
    over the whole plane at once."""
    n = STRUCTURE_WINDOW * STRUCTURE_WINDOW
    per_channel = []
    for ca, cb in zip(a.data, b.data):
        ma, mb = stacked_frame_moments(ca), stacked_frame_moments(cb)
        cov = _window_cov(ma, mb)
        (mean_a, _, s_x, sd_a), (mean_b, _, s_y, sd_b) = ma, mb
        mu_a, mu_b = mean_a + s_x / n, mean_b + s_y / n
        lum = (2.0 * mu_a * mu_b + _C1) / (mu_a**2 + mu_b**2 + _C1)
        con = (2.0 * sd_a * sd_b + _C2) / (sd_a**2 + sd_b**2 + _C2)
        stru = (cov + _C3) / (sd_a * sd_b + _C3)
        per_channel.append(float(np.mean(lum * con * stru)))
    return float(np.mean(per_channel))


def whole_plane_value_noise(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """``synthetic._value_noise`` as one whole-plane pass: each octave and
    the per-pixel noise are drawn and summed over all rows at once."""
    acc = np.zeros((h, w))
    ys, xs = np.ogrid[0:h, 0:w]
    for scale, weight in ((16, 0.5), (8, 0.3), (4, 0.2)):
        lat_h = math.ceil(h / scale) + 1
        lat_w = math.ceil(w / scale) + 1
        lattice = rng.random((lat_h, lat_w))
        acc += weight * _bilinear(lattice, ys / scale, xs / scale)[0]
    acc += 0.10 * rng.random((h, w))
    lo, hi = acc.min(), acc.max()
    return (acc - lo) / (hi - lo)


def all_channel_encode(frame: ChannelGrid, s: int) -> np.ndarray:
    """``synthetic.stand_in_encode`` over all channels at once, with a
    (C, H, W) deltas temporary."""
    c, h, w = frame.data.shape
    blocks = frame.data.reshape(c, h // s, s, w // s, s)
    anchors = frame.data[:, ::s, ::s]
    deltas = blocks - anchors[:, :, None, :, None]
    return anchors + deltas.mean(axis=(2, 4), dtype=np.float64)
