"""Quality metrics: PSNR and full three-term SSIM.

SSIM here is the standard luminance * contrast * structure product over
8x8 stride-1 windows with unbiased (N-1) moments; the structure factor is
the same term reference selection uses.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import BinaryMask, ChannelGrid, ScalarGrid
from .refselect import STRUCTURE_WINDOW, _window_moments


def _planes(grid: ChannelGrid | ScalarGrid) -> np.ndarray:
    if isinstance(grid, ScalarGrid):
        return grid.data[None]
    if isinstance(grid, ChannelGrid):
        return grid.data
    raise ValueError(f"metrics need a channel or scalar grid, got {type(grid).__name__}")


def psnr(a: ChannelGrid | ScalarGrid, b: ChannelGrid | ScalarGrid, peak: float = 1.0) -> float:
    """10 log10(peak^2 / MSE) in dB; +inf for identical inputs."""
    pa, pb = _planes(a), _planes(b)
    if pa.shape != pb.shape:
        raise ValueError("grids must share dimensions")
    if peak <= 0.0:
        raise ValueError("peak must be positive")
    mse = float(np.mean((pa - pb) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def psnr_masked(
    a: ChannelGrid | ScalarGrid,
    b: ChannelGrid | ScalarGrid,
    mask: BinaryMask,
    peak: float = 1.0,
) -> float:
    """PSNR restricted to cells where ``mask`` is 1 (every channel counts).

    An empty mask, like identical inputs, yields the +inf sentinel.
    """
    pa, pb = _planes(a), _planes(b)
    if pa.shape != pb.shape:
        raise ValueError("grids must share dimensions")
    if mask.data.shape != pa.shape[1:]:
        raise ValueError("mask must match grid dimensions")
    cells = mask.data == 1.0
    if not cells.any():
        return math.inf
    mse = float(np.mean((pa[:, cells] - pb[:, cells]) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def ssim_full(
    a: ChannelGrid | ScalarGrid,
    b: ChannelGrid | ScalarGrid,
    dynamic_range: float = 1.0,
    window: int = STRUCTURE_WINDOW,
) -> float:
    """Mean SSIM over all windows, averaged across channels."""
    pa, pb = _planes(a), _planes(b)
    if pa.shape != pb.shape:
        raise ValueError("grids must share dimensions")
    if pa.shape[1] < window or pa.shape[2] < window:
        raise ValueError(f"grid smaller than the {window}x{window} local window")
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2
    c3 = c2 / 2.0
    per_channel = []
    for ca, cb in zip(pa, pb):
        mu_a, mu_b, sd_a, sd_b, cov = _window_moments(ca, cb, window)
        lum = (2.0 * mu_a * mu_b + c1) / (mu_a**2 + mu_b**2 + c1)
        con = (2.0 * sd_a * sd_b + c2) / (sd_a**2 + sd_b**2 + c2)
        stru = (cov + c3) / (sd_a * sd_b + c3)
        per_channel.append(float(np.mean(lum * con * stru)))
    return float(np.mean(per_channel))
