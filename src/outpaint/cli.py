"""Command-line driver.

Subcommands: synth (write a config's synthetic scene to disk), chain (emit
the reference chain of a config's input frames), propagate
(propagation-only pipeline), sample (pipeline with diffusion sampling),
bench (operation-count benchmark grid), metrics (compare two grid files).
synth, chain, propagate and sample read one pipeline config, the only
description of a run's inputs; a --seed flag overrides its seed, and --out
of propagate and sample its out_dir.

Exit codes: 0 success, 2 configuration/input error, 3 stage failure (a
failed artifact write included).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import asdict
from pathlib import Path

from .grids import read_grid, write_grid
from .metrics import psnr, ssim_full
from .pipeline import (
    BENCH_M_VALUES,
    BENCH_N_VALUES,
    ConfigError,
    PipelineConfig,
    StageError,
    _json_sanitize,
    _load_inputs,
    run_benchmark,
    run_pipeline,
    write_benchmark_csv,
    write_json,
)
from .refselect import build_reference_chain


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="outpaint", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="write a config's synthetic scene to disk")
    p_synth.add_argument("--config", required=True)
    p_synth.add_argument("--out", required=True, help="scene directory")
    p_synth.add_argument("--seed", type=int)

    p_chain = sub.add_parser("chain", help="emit the reference chain as JSON")
    p_chain.add_argument("--config", required=True, help="pipeline config whose frames to read")
    p_chain.add_argument("--out", help="output file (stdout when omitted)")

    p_prop = sub.add_parser("propagate", help="run the propagation-only pipeline")
    p_prop.add_argument("--config", required=True)
    p_prop.add_argument("--seed", type=int)
    p_prop.add_argument("--out", dest="out_dir", help="override the configured out_dir")

    p_sample = sub.add_parser("sample", help="run the pipeline with diffusion sampling")
    p_sample.add_argument("--config", required=True)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--out", dest="out_dir", help="override the configured out_dir")

    p_bench = sub.add_parser("bench", help="run the operation-count benchmark grid")
    p_bench.add_argument("--seed", type=int, required=True)
    p_bench.add_argument("--out-dir", required=True)
    p_bench.add_argument("--n", type=int, nargs="+", default=list(BENCH_N_VALUES))
    p_bench.add_argument("--m", type=int, nargs="+", default=list(BENCH_M_VALUES))

    p_metrics = sub.add_parser("metrics", help="PSNR/SSIM between two grid files, values on [0, 1]")
    p_metrics.add_argument("--ref", required=True)
    p_metrics.add_argument("--test", required=True)
    p_metrics.add_argument("--out", help="output file (stdout when omitted)")

    return parser


def _load_config(args, mode: str) -> PipelineConfig:
    """The config file ``args.config`` in ``mode``, with the ``seed`` and
    ``out_dir`` the command's flags set."""
    raw = json.loads(Path(args.config).read_text())
    if not isinstance(raw, dict):
        raise ConfigError(f"{args.config} does not hold a JSON object")
    raw["mode"] = mode
    for key in ("seed", "out_dir"):
        if getattr(args, key, None) is not None:
            raw[key] = getattr(args, key)
    return PipelineConfig.from_dict(raw)


def _emit(payload, out: str | None) -> None:
    """``payload`` as indented JSON in the file ``out``, or on one line on
    stdout when ``out`` is None; keys are sorted either way."""
    if out:
        write_json(Path(out), payload)
    else:
        print(json.dumps(payload, sort_keys=True))


def _cmd_synth(args) -> int:
    config = _load_config(args, "propagate")
    if config.scene is None:
        raise ConfigError(f"{args.config} describes no synthetic scene")
    scene = config.scene.build(config.seed, config.canvas)
    out = Path(args.out)
    # an earlier, longer scene's extra frames would otherwise outlive it
    for name in ("frames", "gt"):
        if (out / name).is_dir():
            shutil.rmtree(out / name)
    write_grid(out / "world.s2sg", scene.world)
    for i in range(scene.num_frames):
        write_grid(out / "frames" / f"frame_{i:04d}.s2sg", scene.frame(i))
        write_grid(out / "gt" / f"gt_{i:04d}.s2sg", scene.gt_expanded(i))
    write_json(out / "config.json", config.to_dict())
    print(f"scene written to {out}")
    return 0


def _cmd_chain(args) -> int:
    config = _load_config(args, "propagate")
    n, frame = _load_inputs(config)[:2]
    # each frame is read as the chain reaches it
    _emit(asdict(build_reference_chain(map(frame, range(n)), config.window)), args.out)
    return 0


def _cmd_pipeline(args, mode: str) -> int:
    summary = run_pipeline(_load_config(args, mode))
    _emit({k: summary[k] for k in ("status", "mode", "n_frames", "chain")}, None)
    return 0


def _cmd_bench(args) -> int:
    out_dir = Path(args.out_dir)
    reports = run_benchmark(args.seed, tuple(args.n), tuple(args.m))
    write_benchmark_csv(out_dir / "benchmark.csv", reports)
    write_json(out_dir / "benchmark.json", [asdict(r) for r in reports])
    print(f"{len(reports)} benchmark cells written to {out_dir}")
    return 0


def _cmd_metrics(args) -> int:
    ref = read_grid(args.ref)
    test = read_grid(args.test)
    _emit(_json_sanitize({"psnr_db": psnr(ref, test), "ssim": ssim_full(ref, test)}), args.out)
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
        return _cmd_metrics(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # ConfigError, GridFormatError and json.JSONDecodeError are ValueErrors
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
