"""Command-line driver.

Subcommands: synth (generate a synthetic scene), chain (emit the reference
chain), propagate (propagation-only pipeline), sample (pipeline with
diffusion sampling), bench (operation-count benchmark grid), metrics
(compare two grid files).

Exit codes: 0 success, 2 configuration/input error, 3 stage failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .grids import CanvasSpec, read_grid, write_grid
from .metrics import psnr, ssim_full
from .pipeline import (
    BENCH_M_VALUES,
    BENCH_N_VALUES,
    ConfigError,
    PipelineConfig,
    StageError,
    _json_sanitize,
    _load_frames_from_dir,
    run_benchmark,
    run_pipeline,
    write_json,
)
from .refselect import build_reference_chain
from .synthetic import TrajectorySpec, generate_scene


def _canvas_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--crop-h", type=int, default=48)
    parser.add_argument("--crop-w", type=int, default=48)
    parser.add_argument("--canvas-h", type=int, default=48)
    parser.add_argument("--canvas-w", type=int, default=64)
    parser.add_argument("--offset-y", type=int, default=0)
    parser.add_argument("--offset-x", type=int, default=16)
    parser.add_argument("--downsample", type=int, default=2)


def _scene_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--world-h", type=int, default=96)
    parser.add_argument("--world-w", type=int, default=96)
    parser.add_argument("--frames", type=int, default=16)
    parser.add_argument("--trajectory", choices=("static", "pan", "pan_cycle"), default="pan")
    parser.add_argument("--start-y", type=float, default=24.0)
    parser.add_argument("--start-x", type=float, default=16.0)
    parser.add_argument("--delta-y", type=float, default=0.0)
    parser.add_argument("--delta-x", type=float, default=2.0)
    parser.add_argument("--period", type=int, default=4)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="outpaint", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic scene to disk")
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--out", required=True)
    _scene_args(p_synth)
    _canvas_args(p_synth)

    p_chain = sub.add_parser("chain", help="emit the reference chain as JSON")
    src = p_chain.add_mutually_exclusive_group(required=True)
    src.add_argument("--frames-dir", help="directory of frame_*.s2sg files")
    src.add_argument("--scene", help="scene.json produced by synth")
    p_chain.add_argument("--window", type=int, default=4)
    p_chain.add_argument("--out", help="output file (stdout when omitted)")

    p_prop = sub.add_parser("propagate", help="run the propagation-only pipeline")
    p_prop.add_argument("--config", required=True)
    p_prop.add_argument("--seed", type=int)
    p_prop.add_argument("--out", help="override the configured out_dir")

    p_sample = sub.add_parser("sample", help="run the pipeline with diffusion sampling")
    p_sample.add_argument("--config", required=True)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--out", help="override the configured out_dir")

    p_bench = sub.add_parser("bench", help="run the operation-count benchmark grid")
    p_bench.add_argument("--seed", type=int, required=True)
    p_bench.add_argument("--out-dir", required=True)
    p_bench.add_argument("--n", type=int, nargs="+", default=list(BENCH_N_VALUES))
    p_bench.add_argument("--m", type=int, nargs="+", default=list(BENCH_M_VALUES))
    p_bench.add_argument("--scene-kind", choices=("static", "pan"), default="static")

    p_metrics = sub.add_parser("metrics", help="PSNR/SSIM between two grid files")
    p_metrics.add_argument("--ref", required=True)
    p_metrics.add_argument("--test", required=True)
    p_metrics.add_argument("--peak", type=float, default=1.0)
    p_metrics.add_argument("--out", help="output file (stdout when omitted)")

    return parser


def _cmd_synth(args) -> int:
    spec = CanvasSpec(
        args.crop_h, args.crop_w, args.canvas_h, args.canvas_w,
        args.offset_y, args.offset_x, args.downsample,
    )
    traj = TrajectorySpec(
        kind=args.trajectory,
        start_y=args.start_y, start_x=args.start_x,
        delta_y=args.delta_y, delta_x=args.delta_x,
        period=args.period,
    )
    scene = generate_scene(
        args.seed, args.world_h, args.world_w, args.crop_h, args.crop_w,
        args.frames, traj, spec,
    )
    out = Path(args.out)
    write_grid_dir = out / "frames"
    gt_dir = out / "gt"
    write_grid_dir.mkdir(parents=True, exist_ok=True)
    gt_dir.mkdir(parents=True, exist_ok=True)
    write_grid(out / "world.s2sg", scene.world)
    for i in range(scene.num_frames):
        write_grid(write_grid_dir / f"frame_{i:04d}.s2sg", scene.frame(i))
        write_grid(gt_dir / f"gt_{i:04d}.s2sg", scene.gt_expanded(i))
    write_json(
        out / "scene.json",
        {
            "seed": args.seed,
            "world_h": args.world_h,
            "world_w": args.world_w,
            "crop_h": args.crop_h,
            "crop_w": args.crop_w,
            "n_frames": args.frames,
            "trajectory": asdict(traj),
            "canvas": asdict(spec),
        },
    )
    print(f"scene written to {out}")
    return 0


def _scene_from_json(path: str):
    raw = json.loads(Path(path).read_text())
    try:
        spec = CanvasSpec(**raw["canvas"])
        traj = TrajectorySpec(**raw["trajectory"])
        return generate_scene(
            raw["seed"], raw["world_h"], raw["world_w"], raw["crop_h"], raw["crop_w"],
            raw["n_frames"], traj, spec,
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{path} is not a scene description: {exc!r}") from exc


def _cmd_chain(args) -> int:
    if args.scene:
        frames = _scene_from_json(args.scene).frames()
    else:
        frames = _load_frames_from_dir(Path(args.frames_dir))
    payload = asdict(build_reference_chain(frames, args.window))
    if args.out:
        write_json(Path(args.out), payload)
    else:
        print(json.dumps(payload, sort_keys=True))
    return 0


def _load_config(args, mode: str) -> PipelineConfig:
    raw = json.loads(Path(args.config).read_text())
    if not isinstance(raw, dict):
        raise ConfigError(f"{args.config} does not hold a JSON object")
    raw["mode"] = mode
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    if getattr(args, "out", None):
        raw["out_dir"] = args.out
    return PipelineConfig.from_dict(raw)


def _cmd_pipeline(args, mode: str) -> int:
    summary = run_pipeline(_load_config(args, mode))
    print(json.dumps({k: summary[k] for k in ("status", "mode", "n_frames", "chain")}))
    return 0


def _cmd_bench(args) -> int:
    out_dir = Path(args.out_dir)
    reports = run_benchmark(
        seed=args.seed,
        n_values=tuple(args.n),
        m_values=tuple(args.m),
        scene_kind=args.scene_kind,
        out_csv=out_dir / "benchmark.csv",
    )
    write_json(out_dir / "benchmark.json", [asdict(r) for r in reports])
    print(f"{len(reports)} benchmark cells written to {out_dir}")
    return 0


def _cmd_metrics(args) -> int:
    ref = read_grid(args.ref)
    test = read_grid(args.test)
    payload = _json_sanitize({
        "psnr_db": psnr(ref, test, peak=args.peak),
        "ssim": ssim_full(ref, test, dynamic_range=args.peak),
    })
    if args.out:
        write_json(Path(args.out), payload)
    else:
        print(json.dumps(payload, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "chain":
            return _cmd_chain(args)
        if args.command == "propagate":
            return _cmd_pipeline(args, "propagate")
        if args.command == "sample":
            return _cmd_pipeline(args, "sample")
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        parser.error(f"unknown command {args.command}")
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # ConfigError, GridFormatError and json.JSONDecodeError are ValueErrors
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
