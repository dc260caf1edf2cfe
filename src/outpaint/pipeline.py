"""Pipeline driver: configuration, stage orchestration, artifacts, and the
operation-count benchmark.

A run is a sequence of timed stages, each a ``with clock(name):`` block of
straight-line code (``_StageClock``); the artifact writes between them add up
as one more, ``write``.  A stage that raises, a write included, ends the run
with a StageError naming it and an "incomplete" summary.json.

Frames stream through the stages.  Each input frame is read once, in index
order, when the reference chain reaches it: its latent is encoded, the chain
takes its gray plane, and the frame is dropped.  After propagation (and
sampling), one pass over the frames writes each frame's propagated, sampled
and decoded files and scores it, its ground truth built or read for that
frame alone.  So what a run holds for its whole length is latent-sized
(latents, completed flows, propagated and sampled latents), plus one frame's
full-size grids at a time.  Each latent sequence is one (N, C, h, w) array,
held once: the propagated one is also the sampler's condition, and the
per-frame grids are views of its rows and of the sampler's result.  A stage
run inside another, such as a frame's read inside ``chain``, counts toward
its own time only, so the stage times add up.

A run is fully determined by its config (including the mandatory seed); all
artifact files are byte-identical across repeated runs.  Stage wall times are
inherently volatile, so they are only written when ``write_timings`` is set,
to a separate timings.json outside the deterministic artifact set.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import json
import math
import resource
import shutil
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any

import numpy as np

from .diffusion import OracleDenoiser, make_schedule, plan_windows, resolve_denoiser, reverse_sample
from . import flow as _flow
from .flow import FlowField, map_flow_to_canvas
from .grids import (
    CanvasSpec,
    ChannelGrid,
    check_field_types,
    downscale_flow,
    read_grid,
    write_grid,
)
from .metrics import psnr, psnr_masked, ssim_full
from .propagation import propagate_sequence, required_flow_pairs
from .refselect import STRUCTURE_WINDOW, build_reference_chain
from .synthetic import (
    SyntheticScene, check_in_world, generate_scene, stand_in_decode, stand_in_encode,
)


class ConfigError(ValueError):
    """Bad or inconsistent pipeline configuration."""


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}' failed: {cause}")


TRAJECTORY_KINDS = ("pan", "pan_cycle")


@dataclass(frozen=True)
class SceneConfig:
    """A synthetic scene: a world_h x world_w world seen by a camera whose
    crop origin follows a constant pan or a back-and-forth pan (pan_cycle)
    over ``n_frames`` frames; a still camera is a pan with zero deltas, the
    default.

    The origin starts at (start_y, start_x) and steps by (delta_y, delta_x)
    per frame; ``period`` is the number of frames a pan_cycle moves forward
    before reversing.
    """

    world_h: int = 96
    world_w: int = 96
    n_frames: int = 16
    kind: str = "pan"
    start_y: float = 0.0
    start_x: float = 0.0
    delta_y: float = 0.0
    delta_x: float = 0.0
    period: int = 4

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in TRAJECTORY_KINDS:
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        if self.kind == "pan_cycle" and self.period < 1:
            raise ValueError("pan_cycle needs period >= 1")

    def origins(self, n_frames: int) -> list[tuple[float, float]]:
        """The camera's crop origin (y, x) in each of the first ``n_frames`` frames."""
        out = []
        for k in range(n_frames):
            if self.kind == "pan":
                step = float(k)
            else:
                phase = k % (2 * self.period)
                step = float(phase if phase <= self.period else 2 * self.period - phase)
            out.append((self.start_y + step * self.delta_y, self.start_x + step * self.delta_x))
        return out

    def trajectory(self) -> "SceneConfig":
        # the scene is its own camera path; kept only because
        # perfbench/child.py passes sc.trajectory() to generate_scene
        return self

    def build(self, seed: int, spec: CanvasSpec) -> SyntheticScene:
        """The scene this describes, its world drawn from ``seed``, seen through ``spec``."""
        return generate_scene(
            seed, self.world_h, self.world_w, spec.orig_h, spec.orig_w, self.n_frames, self, spec
        )


@dataclass(frozen=True)
class InputPaths:
    frames_dir: str
    flows_dir: str
    gt_dir: str | None = None

    def __post_init__(self):
        check_field_types(self)


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
        # every check, the stages' own included, so a bad value fails before any work
        try:
            check_field_types(self)
            if self.mode not in ("propagate", "sample"):
                raise ValueError(f"unknown mode {self.mode!r}")
            if (self.scene is None) == (self.inputs is None):
                raise ValueError("exactly one of scene/inputs must be given")
            has_truth = self.scene is not None or bool(self.inputs.gt_dir)
            if self.denoiser == "oracle" and not has_truth:
                raise ValueError("oracle denoiser needs ground truth: a synthetic scene or inputs.gt_dir")
            if self.seed < 0 or self.window < 1:
                raise ValueError(f"need seed >= 0 and window >= 1, got {self.seed} and {self.window}")
            if self.denoiser != "oracle":
                resolve_denoiser(self.denoiser)
            if self.scene is not None:
                scene = self.scene
                origins = scene.origins(scene.n_frames)
                check_in_world(origins, self.canvas, scene.world_h, scene.world_w)
            if self.mode == "sample":
                make_schedule(self.timesteps)
                plan_windows(1, self.sampler_window, self.sampler_stride)
            # the chain scores frames once it has more than `window`, and
            # metrics score every canvas against its ground truth
            c, w = self.canvas, STRUCTURE_WINDOW
            if self.scene is not None and self.scene.n_frames > self.window and min(c.orig_h, c.orig_w) < w:
                raise ValueError(f"frames are {c.orig_h}x{c.orig_w}, smaller than the {w}x{w} SSIM window")
            if has_truth and min(c.canvas_h, c.canvas_w) < w:
                raise ValueError(f"canvas is {c.canvas_h}x{c.canvas_w}, smaller than the {w}x{w} SSIM window")
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
                scene=SceneConfig(**scene) if scene is not None else None,
                inputs=InputPaths(**inputs) if inputs is not None else None,
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

    ``peak_live_bytes`` is the most grid bytes the run holds at once: the
    frame being read beside the latents during ``chain``; the latents,
    completed flows and propagated latents during ``propagate``; afterwards
    the propagated and sampled latents beside one frame's decoded canvas and
    ground truth.  Temporaries inside a stage (the chain's moments, the pull
    stacks) are not counted.

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


def _nbytes(grids) -> int:
    """Bytes of the array fields of every grid dataclass in ``grids``."""
    return sum(getattr(g, f.name).nbytes for g in grids for f in fields(g))


def _json_sanitize(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, dict):
        return {k: _json_sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_sanitize(v) for v in value]
    return value


def write_json(path: Path, payload) -> None:
    """Sorted, indented JSON; a NaN or infinite float raises ValueError."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")


_INPUT_KINDS = {"channel": ChannelGrid, "flow": FlowField}


def _read_input(path: Path, kind: str, shape: tuple[int, int]):
    """The ``kind`` ("channel" or "flow") grid at ``path``, which must be
    ``shape`` (height, width).  Every error names the file."""
    if not path.exists():
        raise FileNotFoundError(f"missing {kind} file {path}")
    grid = read_grid(path)
    if not isinstance(grid, _INPUT_KINDS[kind]):
        raise ValueError(f"{path} is not a {kind} grid")
    if (grid.height, grid.width) != shape:
        raise ValueError(f"{path} is {grid.height}x{grid.width}, expected {shape[0]}x{shape[1]}")
    return grid


def _frame_files(frames_dir: Path, prefix: str, shape: tuple[int, int]):
    """The number N of channel grids named ``{prefix}_0000.s2sg``,
    ``{prefix}_0001.s2sg``, ... in ``frames_dir``, and a function reading
    the one with index i: the number in a name is the frame index, and N
    files must hold indices 0..N-1, each ``shape`` (height, width)."""
    count = len(list(frames_dir.glob(f"{prefix}_*.s2sg")))
    if not count:
        raise FileNotFoundError(f"no {prefix}_*.s2sg files in {frames_dir}")

    def read(i: int) -> ChannelGrid:
        p = frames_dir / f"{prefix}_{i:04d}.s2sg"
        try:
            return _read_input(p, "channel", shape)
        except FileNotFoundError as exc:
            raise ValueError(f"{frames_dir} has {count} {prefix} files but no {p.name}") from exc

    return count, read


def _load_inputs(config: PipelineConfig):
    """The frame count N and functions giving one grid per call: frame i,
    the ground truth of frame i's expanded canvas (None without ground
    truth), and the pixel flow for a pair (a, b)."""
    spec = config.canvas
    if config.scene is not None:
        scene = config.scene.build(config.seed, spec)
        return scene.num_frames, scene.frame, scene.gt_expanded, scene.gt_flow

    n, frame = _frame_files(Path(config.inputs.frames_dir), "frame", (spec.orig_h, spec.orig_w))
    gt = None
    if config.inputs.gt_dir:
        n_gt, gt = _frame_files(Path(config.inputs.gt_dir), "gt", (spec.canvas_h, spec.canvas_w))
        if n_gt != n:
            raise ValueError("ground-truth frame count does not match inputs")
    flows_dir = Path(config.inputs.flows_dir)

    def load_flow(a: int, b: int) -> FlowField:
        path = flows_dir / f"flow_{a:04d}_to_{b:04d}.s2sg"
        return _read_input(path, "flow", (spec.orig_h, spec.orig_w))

    return n, frame, gt, load_flow


class _StageClock:
    """Times stages: ``with clock("flows"):`` adds the block's wall time to
    that name and records the process's peak resident set size, in MB, when
    the name last finished.  A stage run inside another counts toward its
    own name only.  A block that raises becomes a StageError naming the
    stage, the innermost one when stages nest."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self.max_rss_mb: dict[str, float] = {}
        self._nested: list[float] = []  # per running stage, the time of stages inside it

    @contextlib.contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        self._nested.append(0.0)
        try:
            yield
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name, exc) from exc
        finally:
            nested = self._nested.pop()
        elapsed = time.perf_counter() - start
        if self._nested:
            self._nested[-1] += elapsed
        self.times[name] = self.times.get(name, 0.0) + elapsed - nested
        # ru_maxrss is in KiB on Linux
        self.max_rss_mb[name] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# glibc's mallopt parameters (malloc.h) and the values its own dynamic
# adjustment reaches at most on 64-bit: a 32 MB mmap threshold, twice that
# for trimming
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 32 << 20


def _reuse_freed_memory() -> None:
    """Have the C allocator keep freed memory for the next frame.

    A streamed run allocates and frees the same few MB once per frame (a
    frame or flow read, a decoded canvas).  With glibc's start-up
    thresholds each such block is handed back to the system when freed and
    faulted in again, page by page, for the next frame; this sets the
    thresholds glibc would otherwise reach only after freeing a 32 MB
    block.  Where the C library has no ``mallopt``, nothing changes.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
        mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


def _propagate_stages(config: PipelineConfig, clock: _StageClock):
    """The stages run_pipeline and run_benchmark share: inputs, chain, flows
    completed on the latent canvas, encode, propagate.  Frames stream through
    ``chain``: each is read (``inputs``) and encoded (``encode``) when the
    chain reaches it, and dropped once the chain has its gray plane.
    Returns the function giving frame i's ground truth (or None), the chain,
    the propagated (N, C, h, w) array and the per-frame propagation results
    whose latents are its rows (see ``propagate_sequence``), and the
    verified report, whose ``peak_live_bytes`` is the grid bytes these stages
    held at their widest point.  The flows and the encoded latents are freed
    when it returns."""
    _reuse_freed_memory()
    spec = config.canvas
    s = spec.downsample
    latent = spec.latent()
    with clock("inputs"):
        n, read_frame, gt_frame, pixel_flow = _load_inputs(config)
    latents = []
    frame_bytes = 0

    def read(i: int) -> ChannelGrid:
        nonlocal frame_bytes
        with clock("inputs"):
            frame = read_frame(i)
        with clock("encode"):
            latents.append(stand_in_encode(frame, s))
        frame_bytes = _nbytes([frame])
        return frame

    # map keeps no reference to a frame, so each is freed once the chain has its gray plane
    with clock("chain"):
        chain = build_reference_chain(map(read, range(n)), config.window)

    flows, residual = {}, 0.0
    with clock("flows"):
        for a, b in sorted(required_flow_pairs(chain, n)):
            try:
                on_latent = map_flow_to_canvas(downscale_flow(pixel_flow(a, b), s), latent)
                # looked up on the module at call time, so wrapping it there takes effect
                flow = _flow.complete_flow_laplacian(on_latent)
            except Exception as exc:
                raise RuntimeError(f"flow {a}->{b}: {exc}") from exc
            residual = max(residual, _flow.laplace_residual(flow, ~on_latent.valid))
            flows[(a, b)] = flow
    with clock("propagate"):
        propagated, results = propagate_sequence(latents, spec, chain, flows)
    report = BenchmarkReport(
        n_frames=n,
        window=chain.window,
        chain_len=len(chain),
        warp_count_guided=sum(r.warp_count for r in results),
        # dense per-frame accumulation pulls every other frame
        warp_count_sequential=n * (n - 1),
        compose_count=sum(r.compose_count for r in results),
        # the last frame read beside every latent, then propagation's inputs and outputs
        peak_live_bytes=max(
            frame_bytes + _nbytes(latents),
            _nbytes(latents) + sum(f.nbytes for f in flows.values()) + propagated.nbytes,
        ),
        useful_pull_count=sum(r.useful_pull_count for r in results),
        completion_max_residual=residual,
        wall_time_s=clock.times,
    )
    report.verify()
    return gt_frame, chain, propagated, results, report


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
    pipeline does not write are left alone.  Every artifact write after
    config.json and before summary.json runs as the stage ``write``.
    Returns the summary dict (also written to summary.json).  On stage
    failure, a failed write included, a summary with status "incomplete" is
    written before the StageError propagates.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _clear_run_artifacts(out)
    clock = _StageClock()
    s = config.canvas.downsample

    write_json(out / "config.json", config.to_dict())
    try:
        gt_frame, chain, propagated, results, report = _propagate_stages(config, clock)
        n = len(results)

        def ground_truth(i: int) -> ChannelGrid:
            with clock("inputs"):
                return gt_frame(i)

        with clock("write"):
            write_json(out / "chain.json", asdict(chain))

        # optional diffusion sampling
        sampled = None
        if config.mode == "sample":
            with clock("sample"):
                schedule = make_schedule(config.timesteps)
                plan = plan_windows(n, config.sampler_window, config.sampler_stride)
                if config.denoiser == "oracle":
                    clean = np.stack([stand_in_encode(ground_truth(i), s).data for i in range(n)])
                    denoiser = OracleDenoiser(clean, schedule)
                else:
                    denoiser = resolve_denoiser(config.denoiser)
                # conditioned on the propagated array itself, and the sampled
                # grids keep the rows of the read-only result: no copies
                z = reverse_sample(denoiser, propagated, schedule, config.seed, plan=plan)
                z.flags.writeable = False
                # as grids inside the stage, so non-finite output fails at `sample`
                sampled = [ChannelGrid(frame) for frame in z]

        per_frame = []

        def finish_frame(i: int) -> int:
            """Decode frame i, write its propagated, sampled and decoded files
            and score it; returns the grid bytes it held, all freed on return."""
            res = results[i]
            coverage = res.coverage
            with clock("decode"):
                decoded = stand_in_decode(res.latent if sampled is None else sampled[i], s)
            with clock("write"):
                prop_dir = out / "propagated"
                write_grid(prop_dir / f"latent_{i:04d}.s2sg", res.latent)
                write_grid(prop_dir / f"coverage_{i:04d}.s2sg", coverage)
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
                if sampled is not None:
                    write_grid(out / "sampled" / f"latent_{i:04d}.s2sg", sampled[i])
                write_grid(out / "decoded" / f"frame_{i:04d}.s2sg", decoded)
            if gt_frame is None:
                return _nbytes([decoded])
            truth = ground_truth(i)
            with clock("metrics"):
                per_frame.append({
                    "frame": i,
                    "coverage_fraction": float(coverage.data.mean()),
                    "covered_psnr": psnr_masked(res.latent, stand_in_encode(truth, s), coverage),
                    "decoded_psnr": psnr(decoded, truth),
                    "decoded_ssim": ssim_full(decoded, truth),
                })
            return _nbytes([decoded, truth])

        held = propagated.nbytes + _nbytes(sampled or [])
        for i in range(n):
            report.peak_live_bytes = max(report.peak_live_bytes, held + finish_frame(i))

        if gt_frame is not None:
            with clock("metrics"):
                finite = [e["decoded_psnr"] for e in per_frame if math.isfinite(e["decoded_psnr"])]
                metrics = {
                    "per_frame": per_frame,
                    "mean_decoded_ssim": float(np.mean([e["decoded_ssim"] for e in per_frame])),
                    "mean_decoded_psnr": float(np.mean(finite)) if finite else math.inf,
                }
        with clock("write"):
            if gt_frame is not None:
                write_json(out / "metrics.json", _json_sanitize(metrics))
            write_json(out / "report.json", report.to_dict())
            if config.write_timings:
                write_json(
                    out / "timings.json",
                    {"wall_time_s": clock.times, "max_rss_mb": clock.max_rss_mb},
                )

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
    seed: int, n_values=BENCH_N_VALUES, m_values=BENCH_M_VALUES
) -> list[BenchmarkReport]:
    """Run the stages up to propagation over an (N, m) grid of small
    synthetic scenes filmed by a still camera, and return each cell's
    report, verified for the warp-count ordering."""
    reports = []
    for n in n_values:
        for m in m_values:
            config = PipelineConfig(
                seed=seed,
                canvas=CanvasSpec(16, 16, 16, 32, 0, 8, downsample=2),
                window=m,
                scene=SceneConfig(world_h=48, world_w=48, n_frames=n, start_y=8.0, start_x=8.0),
            )
            reports.append(_propagate_stages(config, _StageClock())[-1])
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
