"""Reference-chain construction by greedy structural-correlation search.

The chain is grown inside a sliding temporal window: from the current
reference the next one is the candidate with the LOWEST structure-term
score (least redundant content), ties broken toward the largest index so
the window advances as far as possible.  When fewer than a full window of
candidates remains, the final frame is appended and the chain is done.

The windowed moments split into a per-frame part and a per-pair part: a
plane's mean, its centred values x, their window sums s_x and the window
std deviations depend on that plane alone (``_frame_moments``); only the
covariance's window sum of x * y needs both (``_window_cov``).  The
per-frame part of a strip of rows, centred on the whole plane's mean
(``_centred_moments``), is the whole plane's moments in those rows, bit for
bit; ``metrics.ssim_full`` builds its strips that way.

The chain reads its frames once, in order, into one sliding window: the
current reference and the frames read after it, each held as its gray plane
until it is scored and as its moments from then on.  When the window holds
m + 1 frames, the candidates are turned into moments and scored one at a
time, in index order.  A candidate that scores no higher than every one
before it moves the step to it or beyond, so the moments of all candidates
before it are dropped at once; the chosen candidate and those after it keep
theirs for the next window.  Each frame's moments are built at most once,
and the chain holds at most m + 1 frames, one form each.  On a pan, where
every candidate scores below the one before it, only three moments tuples
are alive at once: the reference's, the best so far and the one being
scored.  A candidate pair costs one window-sum plane.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import count
from typing import Iterable

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


def _gray(j: int, frame: ChannelGrid) -> np.ndarray:
    """``to_grayscale`` of frame ``j``; a ValueError names the frame."""
    try:
        return to_grayscale(frame)
    except ValueError as exc:
        raise ValueError(f"frame {j}: {exc}") from exc


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


def _plane_sums(p: np.ndarray) -> np.ndarray:
    """Sums of ``p`` over every stride-1 STRUCTURE_WINDOW x STRUCTURE_WINDOW
    window of an (H, W) plane: along each row, then down each column."""
    return _window_sums(_window_sums(p, 1), 0)


def _frame_moments(a: np.ndarray):
    """Per-frame moments of an (H, W) plane: its mean, the centred plane
    x = a - mean, and over every stride-1 STRUCTURE_WINDOW x STRUCTURE_WINDOW
    window the sum s_x of x and the unbiased (N-1) std deviation.

    Subtracting the plane's mean first lets the one-pass form
    var = (sum x^2 - (sum x)^2 / n) / (n - 1) cancel only window-sized
    terms; a constant window gets zero variance exactly.
    """
    if a.shape[0] < STRUCTURE_WINDOW or a.shape[1] < STRUCTURE_WINDOW:
        h, w = a.shape
        raise ValueError(f"plane is {h}x{w}, smaller than the {STRUCTURE_WINDOW}x{STRUCTURE_WINDOW} local window")
    return _centred_moments(a, a.mean())


def _moments(j: int, plane: np.ndarray):
    """``_frame_moments`` of frame ``j``'s gray plane; a ValueError names the frame."""
    try:
        return _frame_moments(plane)
    except ValueError as exc:
        raise ValueError(f"frame {j}: {exc}") from exc


def _centred_moments(a: np.ndarray, mean: float):
    """``_frame_moments`` of rows ``a`` of a plane whose mean is ``mean``.
    Every window sum is built from the rows it covers only, so a strip of at
    least STRUCTURE_WINDOW rows gets the whole plane's moments in its rows."""
    n = STRUCTURE_WINDOW * STRUCTURE_WINDOW
    x = a - mean
    s_x = _plane_sums(x)
    var = (_plane_sums(x * x) - s_x * s_x / n) / (n - 1)
    return mean, x, s_x, np.sqrt(np.maximum(var, 0.0))


def _window_cov(ma, mb) -> np.ndarray:
    """Per-window unbiased covariance of two planes from their
    ``_frame_moments``: the one moment that needs both, one window-sum plane."""
    n = STRUCTURE_WINDOW * STRUCTURE_WINDOW
    _, x, s_x, _ = ma
    _, y, s_y, _ = mb
    if x.shape != y.shape:
        raise ValueError("planes must share dimensions")
    return (_plane_sums(x * y) - s_x * s_y / n) / (n - 1)


def _window_moments(ma, mb):
    """Per-window means, std deviations and covariance (unbiased, N-1) of
    two planes over every stride-1 STRUCTURE_WINDOW x STRUCTURE_WINDOW
    window, from their ``_frame_moments``."""
    n = STRUCTURE_WINDOW * STRUCTURE_WINDOW
    cov = _window_cov(ma, mb)
    (mean_a, _, s_x, sd_a), (mean_b, _, s_y, sd_b) = ma, mb
    return mean_a + s_x / n, mean_b + s_y / n, sd_a, sd_b, cov


def _structure_score(ma, mb) -> float:
    """Mean structure term of two planes from their ``_frame_moments``."""
    sd_a, sd_b = ma[3], mb[3]
    return float(np.mean((_window_cov(ma, mb) + _C3) / (sd_a * sd_b + _C3)))


def ssim_structure_score(a: np.ndarray, b: np.ndarray) -> float:
    """Mean structure term (cov + C3) / (sd_a * sd_b + C3) over all stride-1
    STRUCTURE_WINDOW-sized patches of two (H, W) planes, such as two
    ``to_grayscale`` results.  Result lies in [-1, 1]; two constant patches
    score 1 because the C3 regularizer dominates both moments."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"need two 2-D planes, got {a.ndim}-D and {b.ndim}-D")
    if a.shape != b.shape:
        raise ValueError("planes must share dimensions")
    return _structure_score(_frame_moments(a), _frame_moments(b))


def build_reference_chain(frames: Iterable[ChannelGrid], m: int) -> ReferenceChain:
    """Greedy chain over ``frames`` with window size ``m``.

    Scores are computed on grayscale frames; each step picks the candidate
    with the minimum structure score against the current reference
    (largest index on ties).  Once fewer than ``m`` candidates remain the
    last frame is appended.  ``frames`` is read once, in order, into a
    window holding the current reference and the frames read after it, as
    gray planes until scored and as moments afterwards.  When it holds
    ``m + 1`` frames, the candidates become moments and are scored one at a
    time, in index order.  A candidate scoring no higher than all before it
    drops their moments: the step reaches it or beyond, so none of them can
    be picked.  The entries before the chosen one are dropped at the step;
    the chosen one and those after it keep their moments.  So the chain
    builds each frame's moments at most once and holds at most ``m + 1``
    frames' planes, and a candidate pair costs one covariance window-sum
    plane.  An invalid frame raises ValueError naming its index.
    """
    if m < 1:
        raise ValueError("window must be >= 1")
    window = []  # frame `current` and those after it: moments, then gray planes
    scored = 0  # entries of `window` that are moments
    indices = [0]
    current = 0
    # map() binds no name to a frame, so each is freed once its gray plane
    # is built.  The loop unbinds each plane once the window has it, and
    # counts frames by `current` and the window's length: enumerate() would
    # keep the newest gray plane in its reused result tuple, beside that
    # plane's moments.
    for plane in map(_gray, count(), frames):
        window.append(plane)
        del plane
        if len(window) <= m:
            continue
        if not scored:
            window[0] = _moments(current, window[0])
        best = math.inf
        for k in range(1, m + 1):
            if k >= scored:
                window[k] = _moments(current + k, window[k])
            score = _structure_score(window[0], window[k])
            # ties break toward the largest candidate index, so the step
            # reaches k or beyond: the candidates before k are never picked
            if score <= best:
                best, step = score, k
                window[1:k] = [None] * (k - 1)
        current += step
        indices.append(current)
        del window[:step]
        scored = len(window)
    if not window:
        raise ValueError("empty frame sequence")
    # fewer than m candidates remain, and every frame has been read
    n = current + len(window)
    if current < n - 1:
        indices.append(n - 1)
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
