"""Quality metrics: PSNR and full three-term SSIM, for values on [0, 1].

SSIM here is the standard luminance * contrast * structure product over
8x8 stride-1 windows with unbiased (N-1) moments; the structure factor is
the same term reference selection uses, with the same constants.

``ssim_full`` builds each channel's SSIM map in strips of ``_STRIP_ROWS``
output rows, each read from those rows and the STRUCTURE_WINDOW - 1 rows
below them.  Every strip is centred on the whole plane's mean, so its
moments are the whole plane's in its rows, bit for bit.  The strips are
written into one whole map and one ``np.mean`` runs over it, so the result
is the whole-plane computation's to the last bit, while the temporaries
are strip-sized.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import BinaryMask, ChannelGrid
from .refselect import _C2, _C3, STRUCTURE_WINDOW, _centred_moments, _window_moments

# luminance regularizer for dynamic range L=1: C1 = (0.01 L)^2
_C1 = 0.01**2

# output rows of the SSIM map built per strip.  Each strip costs ~80 numpy
# calls, so frames of up to 135 rows, such as the paper's 96-row frames, are
# one strip; on 1080x1920 frames a call's temporaries peak at ~50 MB, not the
# ~170 MB of one whole-plane strip.
_STRIP_ROWS = 128


def _planes(grid: ChannelGrid) -> np.ndarray:
    if not isinstance(grid, ChannelGrid):
        raise ValueError(f"metrics need a channel grid, got {type(grid).__name__}")
    return grid.data


def _psnr_db(mse: float) -> float:
    """10 log10(1 / MSE) in dB, for a peak of 1; +inf for a zero MSE."""
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def psnr(a: ChannelGrid, b: ChannelGrid) -> float:
    """PSNR in dB over every cell and channel; +inf for identical inputs."""
    pa, pb = _planes(a), _planes(b)
    if pa.shape != pb.shape:
        raise ValueError("grids must share dimensions")
    diff = pa - pb
    return _psnr_db(float(np.mean(np.square(diff, out=diff))))


def psnr_masked(a: ChannelGrid, b: ChannelGrid, mask: BinaryMask) -> float:
    """PSNR restricted to cells where ``mask`` is True (every channel counts).

    An empty mask, like identical inputs, yields the +inf sentinel.
    """
    pa, pb = _planes(a), _planes(b)
    if pa.shape != pb.shape:
        raise ValueError("grids must share dimensions")
    if mask.data.shape != pa.shape[1:]:
        raise ValueError("mask must match grid dimensions")
    cells = mask.data
    mse = float(np.mean((pa[:, cells] - pb[:, cells]) ** 2)) if cells.any() else 0.0
    return _psnr_db(mse)


def _ssim_map(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """SSIM of every STRUCTURE_WINDOW-sized window of two (H, W) planes,
    built in strips of _STRIP_ROWS output rows."""
    w = STRUCTURE_WINDOW
    out = np.empty((ca.shape[0] - w + 1, ca.shape[1] - w + 1))
    mean_a, mean_b = ca.mean(), cb.mean()
    for r in range(0, out.shape[0], _STRIP_ROWS):
        rows = slice(r, r + _STRIP_ROWS + w - 1)
        mu_a, mu_b, sd_a, sd_b, cov = _window_moments(
            _centred_moments(ca[rows], mean_a), _centred_moments(cb[rows], mean_b)
        )
        lum = (2.0 * mu_a * mu_b + _C1) / (mu_a**2 + mu_b**2 + _C1)
        con = (2.0 * sd_a * sd_b + _C2) / (sd_a**2 + sd_b**2 + _C2)
        stru = (cov + _C3) / (sd_a * sd_b + _C3)
        out[r : r + _STRIP_ROWS] = lum * con * stru
    return out


def ssim_full(a: ChannelGrid, b: ChannelGrid) -> float:
    """Mean SSIM over all STRUCTURE_WINDOW-sized windows, averaged across
    channels."""
    w = STRUCTURE_WINDOW
    pa, pb = _planes(a), _planes(b)
    if pa.shape != pb.shape:
        raise ValueError("grids must share dimensions")
    if pa.shape[1] < w or pa.shape[2] < w:
        raise ValueError(f"grid smaller than the {w}x{w} local window")
    per_channel = [float(np.mean(_ssim_map(ca, cb))) for ca, cb in zip(pa, pb)]
    return float(np.mean(per_channel))
