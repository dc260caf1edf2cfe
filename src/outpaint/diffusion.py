"""Noise schedule, forward diffusion, ancestral sampling, and the
sliding-window averaged-noise sampler.

Two different "t"s appear in this module and are kept apart by name:
``timestep`` is the diffusion step (1-based, 1..T) and ``frame_index``
addresses a position in the video sequence.

Denoisers receive the noisy target sequence and a condition sequence (the
propagated latents) as separate arguments; that stands in for channel
concatenation and keeps the noising of target and condition independent.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .grids import ChannelGrid
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


LatentSeq = Sequence[ChannelGrid]


def _check_seq_shapes(a: LatentSeq, b: LatentSeq, what: str) -> None:
    if len(a) != len(b):
        raise ValueError(f"{what}: sequence lengths differ ({len(a)} vs {len(b)})")
    for x, y in zip(a, b):
        if x.data.shape != y.data.shape:
            raise ValueError(f"{what}: grid shapes differ ({x.data.shape} vs {y.data.shape})")


def forward_noise(
    z0: LatentSeq, timestep: int, noise: LatentSeq, schedule: NoiseSchedule
) -> list[ChannelGrid]:
    """Z_t = sqrt(abar_t) * Z_0 + sqrt(1 - abar_t) * eps, elementwise."""
    _check_seq_shapes(z0, noise, "forward_noise")
    ab = schedule.alpha_bar_at(timestep)
    signal = np.sqrt(ab)
    spread = np.sqrt(1.0 - ab)
    return [ChannelGrid(signal * z.data + spread * e.data) for z, e in zip(z0, noise)]


class Denoiser(Protocol):
    """Predicts the injected noise for a noisy target sequence.

    ``start`` is the sequence position of the first frame passed in.  A
    denoiser that sees only its window, as a video model does, may leave it
    out of its signature; windowed_epsilon then does not pass it.
    """

    def predict(
        self, noisy: LatentSeq, condition: LatentSeq, timestep: int, start: int = 0
    ) -> list[ChannelGrid]: ...


class ZeroDenoiser:
    def predict(self, noisy, condition, timestep, start=0):
        return [ChannelGrid(np.zeros_like(z.data)) for z in noisy]


@dataclass(frozen=True)
class ConstantDenoiser:
    value: float

    def predict(self, noisy, condition, timestep, start=0):
        return [ChannelGrid(np.full_like(z.data, self.value)) for z in noisy]


class OracleDenoiser:
    """Knows the clean sequence and inverts the forward process exactly."""

    def __init__(self, clean: LatentSeq, schedule: NoiseSchedule):
        self.clean = list(clean)
        self.schedule = schedule

    def predict(self, noisy, condition, timestep, start=0):
        clean = self.clean[start : start + len(noisy)]
        if start < 0 or len(clean) != len(noisy):
            raise ValueError("oracle clean sequence does not match")
        ab = self.schedule.alpha_bar_at(timestep)
        return [
            ChannelGrid((z.data - np.sqrt(ab) * z0.data) / np.sqrt(1.0 - ab))
            for z, z0 in zip(noisy, clean)
        ]


def resolve_denoiser(
    name: str,
    clean: LatentSeq | None = None,
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


def training_loss(
    denoiser: Denoiser,
    z0: LatentSeq,
    condition: LatentSeq,
    timestep: int,
    noise: LatentSeq,
    schedule: NoiseSchedule,
    noise_condition: bool = False,
    condition_noise: LatentSeq | None = None,
) -> float:
    """Mean squared error between injected and predicted noise.

    With ``noise_condition`` the condition sequence is noised at the same
    timestep before prediction (the literal concatenated-noising reading);
    the default leaves the condition clean.
    """
    noisy = forward_noise(z0, timestep, noise, schedule)
    cond_in: LatentSeq = condition
    if noise_condition:
        if condition_noise is None:
            raise ValueError("noise_condition=True needs condition_noise")
        cond_in = forward_noise(list(condition), timestep, condition_noise, schedule)
    predicted = denoiser.predict(noisy, cond_in, timestep)
    _check_seq_shapes(noise, predicted, "training_loss")
    total = 0.0
    count = 0
    for e, p in zip(noise, predicted):
        diff = e.data - p.data
        total += float((diff * diff).sum())
        count += diff.size
    return total / count


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
    noisy: LatentSeq,
    condition: LatentSeq,
    timestep: int,
    plan: WindowPlan,
) -> list[ChannelGrid]:
    """Per-frame average of the denoiser's predictions over every window
    containing the frame.  Windows are evaluated in plan order so the
    floating-point sum is deterministic.  A denoiser whose ``predict`` takes
    ``start`` gets the position of each window's first frame."""
    _check_seq_shapes(noisy, condition, "windowed_epsilon")
    n = len(noisy)
    if plan.frame_count != n:
        raise ValueError(f"plan covers {plan.frame_count} frames, sequence has {n}")
    counts = plan.membership_counts()
    if (counts == 0).any():
        holes = np.flatnonzero(counts == 0).tolist()
        raise ValueError(f"plan leaves frames uncovered: {holes}")
    sums = [np.zeros_like(z.data) for z in noisy]
    positioned = "start" in inspect.signature(denoiser.predict).parameters
    for start, end in plan.windows:
        at = {"start": start} if positioned else {}
        preds = denoiser.predict(
            list(noisy[start:end]), list(condition[start:end]), timestep, **at
        )
        if len(preds) != end - start:
            raise ValueError("denoiser returned wrong number of frames")
        for offset, pred in enumerate(preds):
            sums[start + offset] += pred.data
    return [ChannelGrid(s / c) for s, c in zip(sums, counts)]


def reverse_sample(
    denoiser: Denoiser,
    condition: LatentSeq,
    schedule: NoiseSchedule,
    seed: int,
    plan: WindowPlan | None = None,
) -> list[ChannelGrid]:
    """Ancestral reverse sampling from seeded Gaussian noise.

    Z_{t-1} = (Z_t - beta_t / sqrt(1-abar_t) * eps) / sqrt(alpha_t) + sigma_t * n,
    with no noise injected at the final step.  Draw order is fixed: the
    initial latent per frame in frame order, then one draw per frame per
    step, so identical (seed, schedule, denoiser, condition) reproduce the
    output bit for bit.  With ``plan`` the noise estimate is the
    sliding-window average from windowed_epsilon.
    """
    if len(condition) < 1:
        raise ValueError("need at least one condition frame")
    rng = seeded_generator(seed, "reverse-sample")
    shapes = [c.data.shape for c in condition]
    state = [rng.standard_normal(shape) for shape in shapes]
    for timestep in range(schedule.timesteps, 0, -1):
        noisy = [ChannelGrid(z) for z in state]
        if plan is None:
            eps = denoiser.predict(noisy, list(condition), timestep)
        else:
            eps = windowed_epsilon(denoiser, noisy, list(condition), timestep, plan)
        _check_seq_shapes(noisy, eps, "reverse_sample")
        beta = schedule.beta_at(timestep)
        alpha = schedule.alpha_at(timestep)
        ab = schedule.alpha_bar_at(timestep)
        coef = beta / np.sqrt(1.0 - ab)
        sigma = schedule.sigma_at(timestep) if timestep > 1 else 0.0
        new_state = []
        for z, e in zip(state, eps):
            mean = (z - coef * e.data) / np.sqrt(alpha)
            if timestep > 1:
                mean = mean + sigma * rng.standard_normal(z.shape)
            new_state.append(mean)
        state = new_state
    return [ChannelGrid(z) for z in state]
