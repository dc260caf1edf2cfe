"""Pipeline driver: configuration, stage orchestration, artifacts, and the
operation-count benchmark.

A run is fully determined by its config (including the mandatory seed); all
artifact files are byte-identical across repeated runs.  Stage wall times are
inherently volatile, so they are only written when ``write_timings`` is set,
to a separate timings.json outside the deterministic artifact set.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from .diffusion import make_schedule, plan_windows, resolve_denoiser, reverse_sample
from . import flow as _flow
from .flow import FlowField, map_flow_to_canvas
from .grids import (
    CanvasSpec,
    ChannelGrid,
    downscale_flow,
    make_outpaint_mask,
    read_grid,
    write_grid,
)
from .metrics import psnr, psnr_masked, ssim_full
from .propagation import PropagationResult, propagate_sequence, required_flow_pairs
from .refselect import ReferenceChain, build_reference_chain
from .synthetic import TrajectorySpec, generate_scene, stand_in_decode, stand_in_encode


class ConfigError(ValueError):
    """Bad or inconsistent pipeline configuration."""


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}' failed: {cause}")


@dataclass(frozen=True)
class SceneConfig:
    world_h: int = 96
    world_w: int = 96
    n_frames: int = 16
    kind: str = "pan"
    start_y: float = 0.0
    start_x: float = 0.0
    delta_y: float = 0.0
    delta_x: float = 0.0
    period: int = 4

    def trajectory(self) -> TrajectorySpec:
        return TrajectorySpec(
            kind=self.kind,
            start_y=self.start_y,
            start_x=self.start_x,
            delta_y=self.delta_y,
            delta_x=self.delta_x,
            period=self.period,
        )


@dataclass(frozen=True)
class InputPaths:
    frames_dir: str
    flows_dir: str
    gt_dir: str | None = None


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run needs; ``seed`` is mandatory (no ambient entropy)."""

    seed: int
    canvas: CanvasSpec
    mode: str = "propagate"
    window: int = 4
    denoiser: str = "zero"
    timesteps: int = 25
    sampler_window: int = 25
    sampler_stride: int = 12
    scene: SceneConfig | None = None
    inputs: InputPaths | None = None
    out_dir: str = "out"
    write_timings: bool = False

    def __post_init__(self):
        if self.mode not in ("propagate", "sample"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if (self.scene is None) == (self.inputs is None):
            raise ConfigError("exactly one of scene/inputs must be given")
        if self.denoiser == "oracle" and self.scene is None:
            raise ConfigError("oracle denoiser needs a synthetic scene")
        # the checks the stages would make, so a bad value fails before any work
        try:
            if self.denoiser != "oracle":
                resolve_denoiser(self.denoiser)
            if self.scene is not None:
                self.scene.trajectory()
            if self.mode == "sample":
                make_schedule(self.timesteps)
                plan_windows(1, self.sampler_window, self.sampler_stride)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "PipelineConfig":
        try:
            data = dict(raw)
            for key in ("seed", "canvas"):
                if key not in data:
                    raise ConfigError(f"config must set a {key}")
            canvas = CanvasSpec(**data.pop("canvas"))
            scene = data.pop("scene", None)
            inputs = data.pop("inputs", None)
            return cls(
                canvas=canvas,
                scene=SceneConfig(**scene) if scene else None,
                inputs=InputPaths(**inputs) if inputs else None,
                **data,
            )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class BenchmarkReport:
    """Operation counts and working-set estimate for one run.

    ``warp_count_sequential`` is N(N-1), the pulls of dense per-frame
    accumulation; ``verify`` checks that the guided pulls do not exceed it.
    ``useful_pull_count`` counts the guided pulls that filled at least one
    cell; ``completion_max_residual`` is the largest 5-point residual over
    the filled cells of every completed flow (``flow.laplace_residual``).
    ``wall_time_s`` is populated for humans; it never enters deterministic
    artifacts.
    """

    n_frames: int
    window: int
    chain_len: int
    warp_count_guided: int
    warp_count_sequential: int
    compose_count: int
    peak_live_bytes: int
    useful_pull_count: int = 0
    completion_max_residual: float = 0.0
    wall_time_s: dict[str, float] = field(default_factory=dict)

    def verify(self) -> None:
        if self.warp_count_guided > self.warp_count_sequential:
            raise AssertionError(
                f"warp-count ordering violated: guided {self.warp_count_guided} > "
                f"sequential {self.warp_count_sequential}"
            )

    def to_dict(self) -> dict[str, Any]:
        """The deterministic fields: everything but ``wall_time_s``."""
        data = asdict(self)
        del data["wall_time_s"]
        return data


def _grid_bytes(obj) -> int:
    if isinstance(obj, FlowField):
        return obj.u.nbytes + obj.v.nbytes + obj.valid.nbytes
    if hasattr(obj, "data"):
        return obj.data.nbytes
    return 0


def _live_bytes(*collections) -> int:
    total = 0
    for coll in collections:
        if coll is None:
            continue
        values = coll.values() if hasattr(coll, "values") else coll
        for item in values:
            total += _grid_bytes(item)
    return total


def _json_sanitize(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, dict):
        return {k: _json_sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_sanitize(v) for v in value]
    return value


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_json_sanitize(payload), indent=2, sort_keys=True)
    path.write_text(text + "\n", encoding="utf-8")


_INPUT_KINDS = {"channel": ChannelGrid, "flow": FlowField}


def _read_input(path: Path, kind: str, shape: tuple[int, int] | None):
    """The ``kind`` ("channel" or "flow") grid at ``path``; with ``shape``,
    it must be that (height, width).  Every error names the file."""
    if not path.exists():
        raise FileNotFoundError(f"missing {kind} file {path}")
    grid = read_grid(path)
    if not isinstance(grid, _INPUT_KINDS[kind]):
        raise ValueError(f"{path} is not a {kind} grid")
    if shape is not None and (grid.height, grid.width) != shape:
        raise ValueError(f"{path} is {grid.height}x{grid.width}, expected {shape[0]}x{shape[1]}")
    return grid


def _load_frames_from_dir(
    frames_dir: Path, prefix: str = "frame", shape: tuple[int, int] | None = None
) -> list[ChannelGrid]:
    """Channel grids named ``{prefix}_0000.s2sg``, ``{prefix}_0001.s2sg``, ...:
    the number in a name is the frame index, and N files must hold indices
    0..N-1.  With ``shape``, every grid must be that (height, width)."""
    count = len(list(frames_dir.glob(f"{prefix}_*.s2sg")))
    if not count:
        raise FileNotFoundError(f"no {prefix}_*.s2sg files in {frames_dir}")
    frames = []
    for i in range(count):
        p = frames_dir / f"{prefix}_{i:04d}.s2sg"
        try:
            frames.append(_read_input(p, "channel", shape))
        except FileNotFoundError as exc:
            raise ValueError(f"{frames_dir} has {count} {prefix} files but no {p.name}") from exc
    return frames


def _load_inputs(config: PipelineConfig):
    """Frames, ground-truth expanded frames (None without ground truth), and
    a function giving the pixel flow for a pair (a, b)."""
    spec = config.canvas
    if config.scene is not None:
        scene = generate_scene(
            seed=config.seed,
            world_h=config.scene.world_h,
            world_w=config.scene.world_w,
            crop_h=spec.orig_h,
            crop_w=spec.orig_w,
            n_frames=config.scene.n_frames,
            trajectory=config.scene.trajectory(),
            spec=spec,
        )
        gt = [scene.gt_expanded(i) for i in range(scene.num_frames)]
        return scene.frames(), gt, scene.gt_flow

    frames = _load_frames_from_dir(
        Path(config.inputs.frames_dir), shape=(spec.orig_h, spec.orig_w)
    )
    gt = None
    if config.inputs.gt_dir:
        gt = _load_frames_from_dir(
            Path(config.inputs.gt_dir), prefix="gt", shape=(spec.canvas_h, spec.canvas_w)
        )
        if len(gt) != len(frames):
            raise ValueError("ground-truth frame count does not match inputs")
    flows_dir = Path(config.inputs.flows_dir)

    def load_flow(a: int, b: int) -> FlowField:
        path = flows_dir / f"flow_{a:04d}_to_{b:04d}.s2sg"
        return _read_input(path, "flow", (spec.orig_h, spec.orig_w))

    return frames, gt, load_flow


class _StageClock:
    def __init__(self):
        self.times: dict[str, float] = {}

    def run(self, name: str, fn):
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            raise StageError(name, exc) from exc
        self.times[name] = time.perf_counter() - start
        return result


class _Propagated(NamedTuple):
    """What the shared stages leave for the rest of a run."""

    frames: list[ChannelGrid]
    gt_expanded: list[ChannelGrid] | None
    chain: ReferenceChain
    flows: dict[tuple[int, int], FlowField]
    completion_max_residual: float
    latents: list[ChannelGrid]
    results: list[PropagationResult]

    def report(self, later_live_bytes: int, wall_time_s: dict[str, float]) -> BenchmarkReport:
        """Operation counts of the run, checked for the warp-count ordering.

        The peak estimate is the bytes of every grid the shared stages hold
        for the whole run plus ``later_live_bytes``, the peak of what the
        caller's later stages add."""
        n = len(self.frames)
        held = _live_bytes(
            self.frames, self.gt_expanded, self.flows, self.latents,
            [r.latent for r in self.results],
        )
        report = BenchmarkReport(
            n_frames=n,
            window=self.chain.window,
            chain_len=len(self.chain),
            warp_count_guided=sum(r.warp_count for r in self.results),
            # dense per-frame accumulation pulls every other frame
            warp_count_sequential=n * (n - 1),
            compose_count=sum(r.compose_count for r in self.results),
            peak_live_bytes=held + later_live_bytes,
            useful_pull_count=sum(r.useful_pull_count for r in self.results),
            completion_max_residual=self.completion_max_residual,
            wall_time_s=dict(wall_time_s),
        )
        report.verify()
        return report


def _propagate_stages(config: PipelineConfig, clock: _StageClock) -> _Propagated:
    """The stages run_pipeline and run_benchmark share: inputs, chain, flows
    completed on the latent canvas, encode, propagate."""
    spec = config.canvas
    s = spec.downsample
    latent = spec.latent()
    latent_mask = make_outpaint_mask(latent)
    frames, gt_expanded, pixel_flow = clock.run("inputs", lambda: _load_inputs(config))
    n = len(frames)
    chain = clock.run("chain", lambda: build_reference_chain(frames, config.window))

    def build_flows():
        flows, residual = {}, 0.0
        for a, b in sorted(required_flow_pairs(chain, n)):
            try:
                on_latent = map_flow_to_canvas(downscale_flow(pixel_flow(a, b), s), latent)
                # looked up on the module at call time, so wrapping it there takes effect
                flow = _flow.complete_flow_laplacian(on_latent, latent_mask)
            except Exception as exc:
                raise RuntimeError(f"flow {a}->{b}: {exc}") from exc
            filled = latent_mask.data | ~on_latent.valid
            residual = max(residual, _flow.laplace_residual(flow, filled))
            flows[(a, b)] = flow
        return flows, residual

    flows, residual = clock.run("flows", build_flows)
    latents = clock.run("encode", lambda: [stand_in_encode(f, s) for f in frames])
    results = clock.run("propagate", lambda: propagate_sequence(latents, spec, chain, flows))
    return _Propagated(frames, gt_expanded, chain, flows, residual, latents, results)


# what a run writes under out_dir besides config.json, which every run rewrites
_RUN_DIRS = ("propagated", "sampled", "decoded")
_RUN_FILES = ("chain.json", "metrics.json", "report.json", "timings.json", "summary.json")


def _clear_run_artifacts(out: Path) -> None:
    """Remove what an earlier run left in ``out``, so that no stale file
    outlives this run or enters its summary; other files stay."""
    for name in _RUN_DIRS:
        if (out / name).is_dir():
            shutil.rmtree(out / name)
    for name in _RUN_FILES:
        (out / name).unlink(missing_ok=True)


def _run_artifacts(out: Path) -> list[str]:
    """Sorted relative paths of the files this run wrote in ``out``, other
    than summary.json and the volatile timings.json."""
    names = ["config.json"] + [
        name for name in _RUN_FILES
        if name not in ("summary.json", "timings.json") and (out / name).is_file()
    ]
    for name in _RUN_DIRS:
        names += [str(p.relative_to(out)) for p in (out / name).rglob("*") if p.is_file()]
    return sorted(names)


def run_pipeline(config: PipelineConfig) -> dict[str, Any]:
    """Execute the configured pipeline and write artifacts under out_dir.

    Artifacts of an earlier run in out_dir are removed first; files the
    pipeline does not write are left alone.  Returns the summary dict (also
    written to summary.json).  On stage failure a summary with status
    "incomplete" is written before the StageError propagates.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _clear_run_artifacts(out)
    clock = _StageClock()
    s = config.canvas.downsample

    write_json(out / "config.json", config.to_dict())
    try:
        staged = _propagate_stages(config, clock)
        gt_expanded, chain, results = staged.gt_expanded, staged.chain, staged.results
        n = len(staged.frames)
        write_json(
            out / "chain.json",
            {"indices": list(chain.indices), "window": chain.window, "num_frames": n},
        )
        prop_dir = out / "propagated"
        for i, res in enumerate(results):
            write_grid(prop_dir / f"latent_{i:04d}.s2sg", res.latent)
            write_grid(prop_dir / f"coverage_{i:04d}.s2sg", res.coverage)
            write_json(
                prop_dir / f"provenance_{i:04d}.json",
                {
                    "frame": i,
                    "warp_count": res.warp_count,
                    "compose_count": res.compose_count,
                    "chain": list(chain.indices),
                    "provenance": res.provenance.tolist(),
                },
            )

        # optional diffusion sampling
        sampled = None
        if config.mode == "sample":
            def sample():
                schedule = make_schedule(config.timesteps)
                plan = plan_windows(n, config.sampler_window, config.sampler_stride)
                condition = np.stack([r.latent.data for r in results])
                if config.denoiser == "oracle":
                    clean = np.stack([stand_in_encode(g, s).data for g in gt_expanded])
                    denoiser = resolve_denoiser("oracle", clean=clean, schedule=schedule)
                else:
                    denoiser = resolve_denoiser(config.denoiser)
                z = reverse_sample(denoiser, condition, schedule, config.seed, plan=plan)
                # as grids inside the stage, so non-finite output fails at `sample`
                return [ChannelGrid(frame) for frame in z]

            sampled = clock.run("sample", sample)
            for i, grid in enumerate(sampled):
                write_grid(out / "sampled" / f"latent_{i:04d}.s2sg", grid)

        # decode
        decode_src = sampled if sampled is not None else [r.latent for r in results]
        decoded = clock.run("decode", lambda: [stand_in_decode(z, s) for z in decode_src])
        for i, grid in enumerate(decoded):
            write_grid(out / "decoded" / f"frame_{i:04d}.s2sg", grid)

        # metrics against ground truth, when available
        metrics = None
        if gt_expanded is not None:
            def compute_metrics():
                per_frame = []
                for i, res in enumerate(results):
                    gt_latent = stand_in_encode(gt_expanded[i], s)
                    entry = {
                        "frame": i,
                        "coverage_fraction": float(res.coverage.data.mean()),
                        "covered_psnr": psnr_masked(res.latent, gt_latent, res.coverage),
                        "decoded_psnr": psnr(decoded[i], gt_expanded[i]),
                        "decoded_ssim": ssim_full(decoded[i], gt_expanded[i]),
                    }
                    per_frame.append(entry)
                finite = [e["decoded_psnr"] for e in per_frame if math.isfinite(e["decoded_psnr"])]
                return {
                    "per_frame": per_frame,
                    "mean_decoded_ssim": float(
                        np.mean([e["decoded_ssim"] for e in per_frame])
                    ),
                    "mean_decoded_psnr": float(np.mean(finite)) if finite else math.inf,
                }

            metrics = clock.run("metrics", compute_metrics)
            write_json(out / "metrics.json", metrics)

        # on top of what the shared stages hold: the coverage masks, or later
        # the sampled and decoded grids
        later_bytes = max(
            _live_bytes([r.coverage for r in results]), _live_bytes(sampled, decoded)
        )
        report = staged.report(later_bytes, clock.times)
        write_json(out / "report.json", report.to_dict())
        if config.write_timings:
            write_json(out / "timings.json", {"wall_time_s": clock.times})

        summary = {
            "status": "complete",
            "mode": config.mode,
            "n_frames": n,
            "chain": list(chain.indices),
            "warp_count": report.warp_count_guided,
            "artifacts": _run_artifacts(out),
        }
        write_json(out / "summary.json", summary)
        return summary
    except StageError as exc:
        write_json(
            out / "summary.json",
            {"status": "incomplete", "failed_stage": exc.stage, "error": str(exc.cause)},
        )
        raise


BENCH_N_VALUES = (16, 32, 48, 64)
BENCH_M_VALUES = (2, 3, 4, 5, 6, 7)


def run_benchmark(
    seed: int,
    n_values=BENCH_N_VALUES,
    m_values=BENCH_M_VALUES,
    scene_kind: str = "static",
    out_csv: str | Path | None = None,
) -> list[BenchmarkReport]:
    """Run the stages up to propagation over an (N, m) grid of small
    synthetic scenes, verifying the warp-count ordering on every cell."""
    if scene_kind not in ("static", "pan"):
        raise ConfigError(f"unknown benchmark scene kind {scene_kind!r}")
    pan = scene_kind == "pan"
    reports = []
    for n in n_values:
        for m in m_values:
            config = PipelineConfig(
                seed=seed,
                canvas=CanvasSpec(16, 16, 16, 32, 0, 8, downsample=2),
                window=m,
                scene=SceneConfig(
                    world_h=48,
                    # a 1 px/frame pan moves the crop n columns
                    world_w=48 + n if pan else 48,
                    n_frames=n,
                    kind=scene_kind,
                    start_y=8.0,
                    start_x=8.0,
                    delta_x=1.0 if pan else 0.0,
                ),
            )
            clock = _StageClock()
            reports.append(_propagate_stages(config, clock).report(0, clock.times))
    if out_csv is not None:
        write_benchmark_csv(Path(out_csv), reports)
    return reports


def write_benchmark_csv(path: Path, reports: list[BenchmarkReport]) -> None:
    """One row per report: its ``to_dict`` fields, then each stage's time in
    seconds as ``<stage>_s``."""
    rows = [
        r.to_dict() | {f"{stage}_s": f"{t:.6f}" for stage, t in r.wall_time_s.items()}
        for r in reports
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]) if rows else [])
        writer.writeheader()
        writer.writerows(rows)
