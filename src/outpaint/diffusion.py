"""Noise schedule, forward diffusion, and the deterministic (DDIM, eta = 0)
sampler with sliding-window averaged noise predictions.

Two different "t"s appear in this module and are kept apart by name:
``timestep`` is the diffusion step (1-based, 1..T) and ``start`` is a
position in the video sequence.

A latent sequence is one float64 array of shape (N, C, h, w), frame-major;
the denoisers, windowed_epsilon and reverse_sample take and return such
arrays.  Denoisers receive the noisy target sequence and a condition
sequence (the propagated latents) as separate arguments; that stands in for
channel concatenation and keeps the noising of target and condition
independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .grids import _frozen
from .seeding import seeded_generator


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-timestep beta with the cumulative alpha_bar = prod(1 - beta)."""

    beta: np.ndarray

    def __post_init__(self):
        beta = _frozen(self.beta)
        if beta.ndim != 1 or beta.size < 1:
            raise ValueError("beta must be a non-empty 1-D array")
        if (beta <= 0.0).any() or (beta >= 1.0).any():
            raise ValueError("every beta must lie in (0, 1)")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha_bar", _frozen(np.cumprod(1.0 - beta)))

    @property
    def timesteps(self) -> int:
        return self.beta.size

    def _check(self, timestep: int) -> int:
        if not 1 <= timestep <= self.timesteps:
            raise ValueError(f"timestep {timestep} outside 1..{self.timesteps}")
        return timestep - 1

    def alpha_bar_at(self, timestep: int) -> float:
        return float(self.alpha_bar[self._check(timestep)])

    def alpha_bar_before(self, timestep: int) -> float:
        """Cumulative product one step earlier; 1 for the first step."""
        i = self._check(timestep)
        return 1.0 if i == 0 else float(self.alpha_bar[i - 1])


BETA_FIRST = 1e-4
BETA_LAST = 0.02


def make_schedule(timesteps: int) -> NoiseSchedule:
    """Linear beta schedule over ``timesteps`` steps, from ``BETA_FIRST`` at
    timestep 1 to ``BETA_LAST`` at timestep T."""
    if timesteps < 1:
        raise ValueError("need at least one timestep")
    return NoiseSchedule(np.linspace(BETA_FIRST, BETA_LAST, timesteps))


def forward_noise(
    z0: np.ndarray, timestep: int, noise: np.ndarray, schedule: NoiseSchedule
) -> np.ndarray:
    """Z_t = sqrt(abar_t) * Z_0 + sqrt(1 - abar_t) * eps, elementwise."""
    if z0.shape != noise.shape:
        raise ValueError(f"forward_noise: shapes differ ({z0.shape} vs {noise.shape})")
    ab = schedule.alpha_bar_at(timestep)
    return np.sqrt(ab) * z0 + np.sqrt(1.0 - ab) * noise


class Denoiser(Protocol):
    """Predicts the injected noise for a noisy target sequence.

    ``noisy`` and ``condition`` are float64 arrays of shape (n, C, h, w) for
    the n frames of one window; the result has the same shape.  ``start`` is
    the sequence position of the window's first frame and is always passed;
    a denoiser that sees only its window, as a video model does, ignores it.
    """

    def predict(
        self, noisy: np.ndarray, condition: np.ndarray, timestep: int, start: int
    ) -> np.ndarray: ...


class ZeroDenoiser:
    def predict(self, noisy, condition, timestep, start):
        return np.zeros_like(noisy)


@dataclass(frozen=True)
class ConstantDenoiser:
    value: float

    def predict(self, noisy, condition, timestep, start):
        return np.full_like(noisy, self.value)


class OracleDenoiser:
    """Knows the clean (N, C, h, w) sequence; inverts the forward process exactly."""

    def __init__(self, clean: np.ndarray, schedule: NoiseSchedule):
        self.clean = clean
        self.schedule = schedule

    def predict(self, noisy, condition, timestep, start):
        clean = self.clean[start : start + len(noisy)]
        if start < 0 or clean.shape != noisy.shape:
            raise ValueError("oracle clean sequence does not match")
        ab = self.schedule.alpha_bar_at(timestep)
        return (noisy - np.sqrt(ab) * clean) / np.sqrt(1.0 - ab)


def resolve_denoiser(name: str) -> Denoiser:
    """The denoiser a name alone describes: "zero" or "constant:<c>", c a
    finite number.  The oracle also needs the clean sequence, so a pipeline
    run builds its ``OracleDenoiser`` from the scene's ground truth instead."""
    if name == "zero":
        return ZeroDenoiser()
    if name.startswith("constant:"):
        try:
            c = float(name.split(":", 1)[1])
        except ValueError:
            c = np.nan
        if not np.isfinite(c):
            raise ValueError(f"bad constant denoiser spec {name!r}")
        return ConstantDenoiser(c)
    raise ValueError(f"unknown denoiser {name!r}")


def plan_windows(frame_count: int, length: int, stride: int) -> tuple[tuple[int, int], ...]:
    """Overlapping windows ``((start, end), ...)`` covering [0, frame_count):
    [k*stride, k*stride + length), the last clamped to the end."""
    if frame_count < 1:
        raise ValueError("need at least one frame")
    if length < 1:
        raise ValueError("window length must be >= 1")
    if not 1 <= stride <= length:
        raise ValueError("stride must satisfy 1 <= stride <= length (gaps otherwise)")
    windows = []
    k = 0
    while True:
        start = k * stride
        end = min(start + length, frame_count)
        windows.append((start, end))
        if start + length >= frame_count:
            break
        k += 1
    return tuple(windows)


def windowed_epsilon(
    denoiser: Denoiser,
    noisy: np.ndarray,
    condition: np.ndarray,
    timestep: int,
    plan: tuple[tuple[int, int], ...],
) -> np.ndarray:
    """Per-frame average of the denoiser's predictions over every window
    ``(start, end)`` of ``plan`` containing the frame.  Each window must lie
    inside [0, N) and every frame must be in one.  Windows are evaluated in
    plan order so the floating-point sum is deterministic; each ``predict``
    gets the position of its window's first frame as ``start``.  The result
    is a new array, which the caller may update in place."""
    if noisy.shape != condition.shape:
        raise ValueError(f"noisy {noisy.shape} and condition {condition.shape} differ")
    n = len(noisy)
    counts = np.zeros(n, dtype=np.int64)
    for start, end in plan:
        if not 0 <= start < end <= n:
            raise ValueError(f"window [{start}, {end}) outside the {n} frames")
        counts[start:end] += 1
    if (counts == 0).any():
        holes = np.flatnonzero(counts == 0).tolist()
        raise ValueError(f"plan leaves frames uncovered: {holes}")
    sums = np.zeros_like(noisy)
    for start, end in plan:
        pred = denoiser.predict(noisy[start:end], condition[start:end], timestep, start)
        if pred.shape != sums[start:end].shape:
            raise ValueError(f"denoiser returned {pred.shape} for window [{start}, {end})")
        sums[start:end] += pred
        del pred  # one window's prediction alive at a time
    sums /= counts[:, None, None, None]
    return sums


def reverse_sample(
    denoiser: Denoiser,
    condition: np.ndarray,
    schedule: NoiseSchedule,
    seed: int,
    plan: tuple[tuple[int, int], ...],
) -> np.ndarray:
    """Deterministic reverse sampling (DDIM, eta = 0) from seeded Gaussian
    noise.

    At each timestep t = T..1, with eps the windowed_epsilon estimate over
    the windows of ``plan`` (see plan_windows):
    X0 = (Z_t - sqrt(1-abar_t) * eps) / sqrt(abar_t), then
    Z_{t-1} = sqrt(abar_{t-1}) * X0 + sqrt(1-abar_{t-1}) * eps, with
    abar_0 = 1, so the result is the last step's X0.  ``condition`` and the
    result are (N, C, h, w) arrays.

    The only draw is the initial state: one ``standard_normal`` of shape
    (N, C, h, w), which equals N per-frame draws in frame order.  The update
    runs in place on the state and on the array windowed_epsilon returns,
    and identical (seed, schedule, denoiser, condition, plan) reproduce the
    output bit for bit.

    ``condition`` is read, never copied.  One eps is alive at a time: each
    step's is released before windowed_epsilon builds the next, so beyond
    the condition the sampler holds two sequences (the state and eps) and
    one window's prediction.
    """
    if condition.ndim != 4 or len(condition) < 1:
        raise ValueError(f"condition must be a non-empty (N, C, h, w) array: {condition.shape}")
    z = seeded_generator(seed, "reverse-sample").standard_normal(condition.shape)
    for timestep in range(schedule.timesteps, 0, -1):
        eps = windowed_epsilon(denoiser, z, condition, timestep, plan)
        ab = schedule.alpha_bar_at(timestep)
        ab_prev = schedule.alpha_bar_before(timestep)
        eps *= np.sqrt(1.0 - ab)
        z -= eps
        z /= np.sqrt(ab)
        eps *= np.sqrt(1.0 - ab_prev) / np.sqrt(1.0 - ab)
        z *= np.sqrt(ab_prev)
        z += eps
        del eps
    return z
