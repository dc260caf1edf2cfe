"""Reference-chain construction by greedy structural-correlation search.

The chain is grown inside a sliding temporal window: from the current
reference the next one is the candidate with the LOWEST structure-term
score (least redundant content), ties broken toward the largest index so
the window advances as far as possible.  When fewer than a full window of
candidates remains, the final frame is appended and the chain is done.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grids import ChannelGrid

# BT.601 luma weights.
_LUMA = (0.299, 0.587, 0.114)

# SSIM regularizers for dynamic range L=1, shared with metrics.ssim_full:
# C2 = (0.03 L)^2 and the structure term's C3 = C2/2.
STRUCTURE_WINDOW = 8
_C2 = 0.03**2
_C3 = _C2 / 2.0


@dataclass(frozen=True)
class ReferenceChain:
    """Strictly increasing frame indices, always containing 0 and N-1.

    ``window`` is the selection window size m; consecutive gaps never
    exceed it.
    """

    indices: tuple[int, ...]
    window: int
    num_frames: int

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if self.num_frames < 1 or self.window < 1:
            raise ValueError("num_frames and window must be >= 1")
        if not idx or idx[0] != 0 or idx[-1] != self.num_frames - 1:
            raise ValueError("chain must start at 0 and end at the last frame")
        gaps = np.diff(idx)
        if len(idx) > 1 and (gaps <= 0).any():
            raise ValueError("chain indices must be strictly increasing")
        if len(idx) > 1 and gaps.max() > self.window:
            raise ValueError(f"chain gap {gaps.max()} exceeds window {self.window}")

    def __len__(self) -> int:
        return len(self.indices)


def to_grayscale(frame: ChannelGrid) -> np.ndarray:
    """BT.601 luma of an RGB frame with values in [0, 1], as an (H, W) array."""
    if frame.channels != 3:
        raise ValueError(f"expected 3 channels, got {frame.channels}")
    if frame.data.min() < 0.0 or frame.data.max() > 1.0:
        raise ValueError("frame values must lie in [0, 1]")
    r, g, b = frame.data
    return _LUMA[0] * r + _LUMA[1] * g + _LUMA[2] * b


def _window_sums(p: np.ndarray, axis: int) -> np.ndarray:
    """Sums of STRUCTURE_WINDOW consecutive entries along ``axis`` (>= 0),
    which shrinks by STRUCTURE_WINDOW - 1.  Three rounds of pairwise addition
    double the run length 1 -> 2 -> 4 -> 8, so every sum adds only nearby
    values: its rounding error is local, and equal entries sum exactly."""
    head = (slice(None),) * axis
    length = 1
    while length < STRUCTURE_WINDOW:
        k = p.shape[axis]
        p = p[head + (slice(0, k - length),)] + p[head + (slice(length, k),)]
        length *= 2
    return p


def _window_moments(a: np.ndarray, b: np.ndarray):
    """Per-window means, std deviations and covariance (unbiased, N-1) over
    every stride-1 STRUCTURE_WINDOW x STRUCTURE_WINDOW window.

    Each plane's mean is subtracted first, so the one-pass forms
    var = (sum x^2 - (sum x)^2 / n) / (n - 1) and
    cov = (sum xy - sum x sum y / n) / (n - 1) cancel only window-sized
    terms; a constant window gets zero variance exactly.
    """
    n = STRUCTURE_WINDOW * STRUCTURE_WINDOW
    mean_a, mean_b = a.mean(), b.mean()
    x = a - mean_a
    y = b - mean_b
    sums = _window_sums(_window_sums(np.stack([x, y, x * x, y * y, x * y]), 2), 1)
    s_x, s_y, s_xx, s_yy, s_xy = sums
    var_a = (s_xx - s_x * s_x / n) / (n - 1)
    var_b = (s_yy - s_y * s_y / n) / (n - 1)
    cov = (s_xy - s_x * s_y / n) / (n - 1)
    sd_a = np.sqrt(np.maximum(var_a, 0.0))
    sd_b = np.sqrt(np.maximum(var_b, 0.0))
    return mean_a + s_x / n, mean_b + s_y / n, sd_a, sd_b, cov


def ssim_structure_score(a: np.ndarray, b: np.ndarray) -> float:
    """Mean structure term (cov + C3) / (sd_a * sd_b + C3) over all stride-1
    STRUCTURE_WINDOW-sized patches of two (H, W) planes, such as two
    ``to_grayscale`` results.  Result lies in [-1, 1]; two constant patches
    score 1 because the C3 regularizer dominates both moments."""
    w = STRUCTURE_WINDOW
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"need two 2-D planes, got {a.ndim}-D and {b.ndim}-D")
    if a.shape != b.shape:
        raise ValueError("planes must share dimensions")
    if a.shape[0] < w or a.shape[1] < w:
        raise ValueError(f"plane smaller than the {w}x{w} local window")
    _, _, sd_a, sd_b, cov = _window_moments(a, b)
    return float(np.mean((cov + _C3) / (sd_a * sd_b + _C3)))


def build_reference_chain(frames: Sequence[ChannelGrid], m: int) -> ReferenceChain:
    """Greedy chain over ``frames`` with window size ``m``.

    Scores are computed on grayscale frames; each step picks the candidate
    with the minimum structure score against the current reference
    (largest index on ties).  Once fewer than ``m`` candidates remain the
    last frame is appended.
    """
    n = len(frames)
    if n == 0:
        raise ValueError("empty frame sequence")
    if m < 1:
        raise ValueError("window must be >= 1")
    grays = [to_grayscale(f) for f in frames]
    indices = [0]
    current = 0
    while current < n - 1:
        if n - 1 - current < m:
            indices.append(n - 1)
            break
        candidates = range(current + 1, min(current + m, n - 1) + 1)
        scores = [ssim_structure_score(grays[current], grays[j]) for j in candidates]
        best = min(scores)
        # ties break toward the largest candidate index
        chosen = max(j for j, s in zip(candidates, scores) if s == best)
        indices.append(chosen)
        current = chosen
    return ReferenceChain(tuple(indices), window=m, num_frames=n)


def nearest_refs(chain: ReferenceChain, i: int) -> tuple[int, int]:
    """Nearest chain members on each side of frame ``i`` (both ``i`` when it
    is itself a reference)."""
    if not 0 <= i < chain.num_frames:
        raise ValueError(f"frame index {i} out of range")
    idx = chain.indices
    past = idx[bisect_right(idx, i) - 1]
    future = idx[bisect_left(idx, i)]
    return past, future
