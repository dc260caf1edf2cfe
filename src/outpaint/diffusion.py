"""Noise schedule, forward diffusion, ancestral sampling, and the
sliding-window averaged-noise sampler.

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

from .seeding import seeded_generator


def _frozen64(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-timestep beta with derived alpha and cumulative alpha_bar."""

    beta: np.ndarray

    def __post_init__(self):
        beta = _frozen64(self.beta)
        if beta.ndim != 1 or beta.size < 1:
            raise ValueError("beta must be a non-empty 1-D array")
        if (beta <= 0.0).any() or (beta >= 1.0).any():
            raise ValueError("every beta must lie in (0, 1)")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha", _frozen64(1.0 - beta))
        object.__setattr__(self, "alpha_bar", _frozen64(np.cumprod(1.0 - beta)))

    @property
    def timesteps(self) -> int:
        return self.beta.size

    def _check(self, timestep: int) -> int:
        if not 1 <= timestep <= self.timesteps:
            raise ValueError(f"timestep {timestep} outside 1..{self.timesteps}")
        return timestep - 1

    def beta_at(self, timestep: int) -> float:
        return float(self.beta[self._check(timestep)])

    def alpha_at(self, timestep: int) -> float:
        return float(self.alpha[self._check(timestep)])

    def alpha_bar_at(self, timestep: int) -> float:
        return float(self.alpha_bar[self._check(timestep)])

    def alpha_bar_before(self, timestep: int) -> float:
        """Cumulative product one step earlier; 1 for the first step."""
        i = self._check(timestep)
        return 1.0 if i == 0 else float(self.alpha_bar[i - 1])

    def sigma_at(self, timestep: int) -> float:
        """Posterior std dev: beta_t * (1 - abar_{t-1}) / (1 - abar_t)."""
        ab = self.alpha_bar_at(timestep)
        return float(
            np.sqrt(self.beta_at(timestep) * (1.0 - self.alpha_bar_before(timestep)) / (1.0 - ab))
        )


def make_schedule(timesteps: int, beta_start: float = 1e-4, beta_end: float = 0.02) -> NoiseSchedule:
    """Linear beta schedule over ``timesteps`` steps."""
    if timesteps < 1:
        raise ValueError("need at least one timestep")
    if not 0.0 < beta_start <= beta_end < 1.0:
        raise ValueError("need 0 < beta_start <= beta_end < 1")
    return NoiseSchedule(np.linspace(beta_start, beta_end, timesteps))


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


def resolve_denoiser(
    name: str,
    clean: np.ndarray | None = None,
    schedule: NoiseSchedule | None = None,
) -> Denoiser:
    """Look up a denoiser by registry name: "zero", "constant:<c>", "oracle"."""
    if name == "zero":
        return ZeroDenoiser()
    if name.startswith("constant:"):
        try:
            return ConstantDenoiser(float(name.split(":", 1)[1]))
        except ValueError:
            raise ValueError(f"bad constant denoiser spec {name!r}") from None
    if name == "oracle":
        if clean is None or schedule is None:
            raise ValueError("oracle denoiser needs ground-truth latents and a schedule")
        return OracleDenoiser(clean, schedule)
    raise ValueError(f"unknown denoiser {name!r}")


@dataclass(frozen=True)
class WindowPlan:
    """Overlapping temporal windows covering [0, frame_count)."""

    windows: tuple[tuple[int, int], ...]
    length: int
    stride: int

    def __post_init__(self):
        object.__setattr__(
            self, "windows", tuple((int(s), int(e)) for s, e in self.windows)
        )
        if self.length < 1 or not 1 <= self.stride <= self.length:
            raise ValueError("need 1 <= stride <= window length")
        for s, e in self.windows:
            if not 0 <= s < e:
                raise ValueError(f"bad window [{s}, {e})")
            if e - s > self.length:
                raise ValueError(f"window [{s}, {e}) longer than {self.length}")

    @property
    def frame_count(self) -> int:
        return max(e for _, e in self.windows)

    def membership_counts(self) -> np.ndarray:
        counts = np.zeros(self.frame_count, dtype=np.int64)
        for s, e in self.windows:
            counts[s:e] += 1
        return counts


def plan_windows(frame_count: int, length: int, stride: int) -> WindowPlan:
    """Windows [k*stride, k*stride + length), the last clamped to the end."""
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
    return WindowPlan(tuple(windows), length=length, stride=stride)


def windowed_epsilon(
    denoiser: Denoiser,
    noisy: np.ndarray,
    condition: np.ndarray,
    timestep: int,
    plan: WindowPlan,
) -> np.ndarray:
    """Per-frame average of the denoiser's predictions over every window
    containing the frame.  Windows are evaluated in plan order so the
    floating-point sum is deterministic; each ``predict`` gets the position
    of its window's first frame as ``start``."""
    if noisy.shape != condition.shape:
        raise ValueError(f"noisy {noisy.shape} and condition {condition.shape} differ")
    n = len(noisy)
    if plan.frame_count != n:
        raise ValueError(f"plan covers {plan.frame_count} frames, sequence has {n}")
    counts = plan.membership_counts()
    if (counts == 0).any():
        holes = np.flatnonzero(counts == 0).tolist()
        raise ValueError(f"plan leaves frames uncovered: {holes}")
    sums = np.zeros_like(noisy)
    for start, end in plan.windows:
        pred = denoiser.predict(noisy[start:end], condition[start:end], timestep, start)
        if pred.shape != sums[start:end].shape:
            raise ValueError(f"denoiser returned {pred.shape} for window [{start}, {end})")
        sums[start:end] += pred
    return sums / counts[:, None, None, None]


def reverse_sample(
    denoiser: Denoiser,
    condition: np.ndarray,
    schedule: NoiseSchedule,
    seed: int,
    plan: WindowPlan | None = None,
) -> np.ndarray:
    """Ancestral reverse sampling from seeded Gaussian noise.

    Z_{t-1} = (Z_t - beta_t / sqrt(1-abar_t) * eps) / sqrt(alpha_t) + sigma_t * n,
    with no noise injected at the final step.  ``condition`` and the result
    are (N, C, h, w) arrays.  The noise estimate is windowed_epsilon over
    ``plan``; without one, a single window covers the whole sequence.

    Draw order is fixed: the initial state, then one draw per step, each a
    single ``standard_normal`` of shape (N, C, h, w).  Such a draw equals N
    per-frame draws in frame order, so the output is the same as drawing
    frame by frame, and identical (seed, schedule, denoiser, condition, plan)
    reproduce it bit for bit.
    """
    if condition.ndim != 4 or len(condition) < 1:
        raise ValueError(f"condition must be a non-empty (N, C, h, w) array: {condition.shape}")
    if plan is None:
        plan = plan_windows(len(condition), len(condition), len(condition))
    rng = seeded_generator(seed, "reverse-sample")
    z = rng.standard_normal(condition.shape)
    for timestep in range(schedule.timesteps, 0, -1):
        eps = windowed_epsilon(denoiser, z, condition, timestep, plan)
        beta = schedule.beta_at(timestep)
        alpha = schedule.alpha_at(timestep)
        ab = schedule.alpha_bar_at(timestep)
        coef = beta / np.sqrt(1.0 - ab)
        z = (z - coef * eps) / np.sqrt(alpha)
        if timestep > 1:
            z = z + schedule.sigma_at(timestep) * rng.standard_normal(z.shape)
    return z
