"""Paper-regime benchmark of ``outpaint.pipeline.run_pipeline``.

    python3 perfbench/run.py --workload paper_pan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --rounds 2 --trace 1

Run it from anywhere; it uses the ``src`` tree of the checkout it lives in.
Inputs are generated from ``--seed`` (see workloads.py).  Each repetition is
one ``run_pipeline`` call in a fresh child process, one at a time, because a
CLI user pays interpreter start-up and imports on every run.  Repetitions
continue while the next one still fits in ``--seconds``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, as medians
over untraced repetitions.  ``--trace 1`` adds two traced repetitions (see
tracing.py) and reports the per-layer metrics: times and counts from one
with spans only, whose tracing overhead is its ``run_s`` minus the untraced
median, and memory from one with tracemalloc.  Every repetition is checked:
status ``complete``, the same artifact digest (all files but timings.json),
chain length and pull count as the first, and on workloads where the
translation oracle holds, every covered outpaint-band latent cell within
1e-6 of the ground truth.  The last line of stdout is one JSON object; the
exit code is 1 when any repetition failed, 2 on a usage or layout error.

With several workloads (``all`` or a comma-separated list) the order
alternates between rounds, and metric names get a ``<workload>.`` prefix.
A full report, with the trace's spans, is written to .perfbench_out/.

This process imports neither numpy nor outpaint: a child's ``ru_maxrss``
includes the high-water mark of the process that started it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import OUT_DIR, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUTPUT = ROOT / ".perfbench_out"

CHILD_TIMEOUT_S = 100
SETUP_SAMPLES = 8
ORACLE_TOL = 1e-6
STAGES = ("inputs", "chain", "flows", "encode", "propagate", "sample", "decode", "metrics")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(command: str, request: dict, work: Path) -> tuple[dict | None, str]:
    """Run one child step to completion; (result, "") or (None, error)."""
    request_path = work / f"{command}.request.json"
    result_path = work / f"{command}.result.json"
    request_path.write_text(json.dumps(request))
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), command, str(request_path), str(result_path)]
    launched = time.monotonic_ns()
    try:
        proc = subprocess.run(
            argv + [str(launched)], cwd=work, env=child_env(),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"{command} did not finish within {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0 or not result_path.exists():
        return None, f"{command} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(result_path.read_text()), ""


def artifact_digest(out: Path) -> str:
    """sha256 over every artifact's relative path and bytes, except the
    volatile timings.json."""
    digest = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "timings.json":
            digest.update(path.relative_to(out).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


class WorkloadRun:
    """Repetitions of one workload at one seed, with their checks."""

    def __init__(self, name: str, seed: int):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = OUTPUT / "work" / name
        self.request = {
            "src": str(SRC),
            "seed": seed,
            "config": self.workload.config(seed),
            "scene": self.workload.scene,
            "trace": None,
        }
        self.reps: list[dict] = []
        self.setups: list[float] = []
        self.errors: list[str] = []
        self.inputs: dict = {}
        self.numpy = None

    def prepare(self) -> None:
        """Fresh work directory, inputs for file workloads, and one
        discarded start-up that leaves bytecode caches warm."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        steps = (["prepare"] if self.workload.from_files else []) + ["setup"]
        for step in steps:
            result, error = spawn(step, self.request, self.work)
            if result is None:
                self.errors.append(error)
                return
            self.numpy = result["numpy"]
            if step == "prepare":
                self.inputs = result

    def sample_setup(self, count: int) -> None:
        for _ in range(count):
            result, error = spawn("setup", self.request, self.work)
            if result is None:
                self.errors.append(error)
            else:
                self.setups.append(result["setup_s"])

    def repetition(self, trace: str | None) -> None:
        out = self.work / OUT_DIR
        shutil.rmtree(out, ignore_errors=True)
        result, error = spawn("run", dict(self.request, trace=trace), self.work)
        rep = {"trace": trace, "errors": [error] if result is None else []}
        if result is not None:
            rep.update(result)
            self.setups.append(result["setup_s"])
            try:
                rep["report"] = json.loads((out / "report.json").read_text())
                rep["stages"] = json.loads((out / "timings.json").read_text())["wall_time_s"]
                rep["digest"] = artifact_digest(out)
            except (OSError, ValueError, KeyError) as exc:
                rep["errors"].append(f"unreadable artifacts: {exc}")
            else:
                rep["errors"] += self.check(rep)
        self.reps.append(rep)

    def check(self, rep: dict) -> list[str]:
        errors = []
        if rep["status"] != "complete":
            errors.append(f"summary status {rep['status']!r}")
        first = next((r for r in self.reps if "digest" in r), rep)
        for key, value, expected in (
            ("artifact digest", rep["digest"], first["digest"]),
            ("chain_len", rep["report"]["chain_len"], first["report"]["chain_len"]),
            ("pulls", rep["report"]["warp_count_guided"], first["report"]["warp_count_guided"]),
        ):
            if value != expected:
                errors.append(f"{key} {value} differs from the first repetition's {expected}")
        if self.workload.oracle and not rep["band_max_err"] <= ORACLE_TOL:
            errors.append(f"oracle: covered band cell off by {rep['band_max_err']:.3e}")
        if rep["trace"]:
            for span, counter in (
                ("flow.backward_warp", "warp_count_guided"),
                ("flow.compose_accumulated", "compose_count"),
            ):
                calls = rep["layers"][f"{span}.calls"]
                if calls != rep["report"][counter]:
                    errors.append(f"traced {span} calls {calls} != report {counter}")
        return errors

    def measure(self, seconds: float, trace: bool) -> None:
        """Set-up samples, then repetitions while the next one fits."""
        if self.errors:
            return
        self.sample_setup(SETUP_SAMPLES)
        deadline = time.monotonic() + seconds
        if trace:
            self.repetition(trace="spans")
            self.repetition(trace="memory")
        min_untraced = 1 if trace else 2
        longest = 0.0
        while True:
            untraced = sum(not r["trace"] for r in self.reps)
            if untraced >= min_untraced and time.monotonic() + longest > deadline:
                break
            start = time.monotonic()
            self.repetition(trace=None)
            longest = max(longest, time.monotonic() - start)

    @property
    def attempted(self) -> int:
        return max(len(self.reps), 1)

    @property
    def failed(self) -> int:
        failed = sum(bool(r["errors"]) for r in self.reps)
        return max(failed, 1) if self.errors else failed

    def good(self, trace: str | None = None) -> list[dict]:
        return [r for r in self.reps if r["trace"] == trace and not r["errors"]]

    def end_to_end(self) -> dict:
        good = self.good()
        if not good:
            return {}
        run_s = statistics.median(r["run_s"] for r in good)
        return {
            "run_s": run_s,
            "frames_per_s": self.workload.n_frames / run_s,
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
            "error_rate": self.failed / self.attempted,
            "coverage_frac": statistics.median(r["coverage_frac"] for r in good),
            "outpaint_psnr_db": statistics.median(r["outpaint_psnr_db"] for r in good),
        }

    def per_layer(self) -> dict:
        spans, memory, good = self.good("spans"), self.good("memory"), self.good()
        if not (spans and memory and good):
            return {}
        rep, untraced_s = spans[0], statistics.median(r["run_s"] for r in good)
        report, stages = rep["report"], rep["stages"]
        metrics = dict(rep["layers"])
        metrics.update((k, v) for k, v in memory[0]["layers"].items() if k.startswith("memory."))
        for stage in STAGES:
            metrics[f"pipeline.stage.{stage}_s"] = stages.get(stage, 0.0)
        pulls = report["warp_count_guided"]
        metrics.update({
            "pipeline.traced_run_s": rep["run_s"],
            "pipeline.tracing_overhead_s": rep["run_s"] - untraced_s,
            "pipeline.unattributed_s": rep["run_s"] - sum(stages.values()),
            "pipeline.peak_live_bytes_est": report["peak_live_bytes"],
            "refselect.chain_len": report["chain_len"],
            "propagation.pulls": pulls,
            "propagation.composes": report["compose_count"],
            "propagation.sequential_pulls_analytic": report["warp_count_sequential"],
            "propagation.useful_pull_ratio": metrics["propagation.useful_pulls"] / pulls,
            "memory.peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
            "memory.tracemalloc_overhead_s": memory[0]["run_s"] - untraced_s,
        })
        return metrics

    def summary(self) -> dict:
        digests = sorted({r["digest"] for r in self.reps if "digest" in r})
        return {
            "seed": self.seed,
            "inputs": self.inputs,
            "errors": self.errors + [e for r in self.reps for e in r["errors"]],
            "artifact_digests": digests,
            "setup_samples": self.setups,
            "repetitions": [
                {k: v for k, v in r.items() if k not in ("spans", "report")} for r in self.reps
            ],
            "report_json": next((r["report"] for r in self.reps if "report" in r), None),
            "spans": next((r["spans"] for r in self.reps if "spans" in r), None),
        }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def machine(numpy_version) -> dict:
    return {
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def print_table(run: WorkloadRun, summary: dict, units: dict) -> None:
    print(f"== {run.workload.name}  seed {run.seed}  repetitions {len(run.reps)} "
          f"(untraced ok {len(run.good())}, failed {run.failed}), "
          f"set-up samples {len(run.setups)}")
    for name, unit in units.items():
        if name in summary["metrics"]:
            print(f"  {name:<52} {summary['metrics'][name]:>14.6g} {unit}")
    print(f"  artifact digest {' '.join(summary['artifact_digests']) or '-'}")
    for error in summary["errors"]:
        print(f"  FAILED: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help=f"all, or any of {', '.join(WORKLOADS)}")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown or args.rounds < 1:
        parser.error(f"unknown workload(s) {unknown}" if unknown else "--rounds must be >= 1")
    if not (SRC / "outpaint" / "__init__.py").is_file():
        print(f"no outpaint package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]
    }

    runs = [WorkloadRun(name, args.seed) for name in names]
    for run in runs:
        run.prepare()
    for round_index in range(args.rounds):
        for run in runs if round_index % 2 == 0 else runs[::-1]:
            run.measure(args.seconds, trace=bool(args.trace) and round_index == 0)

    info = machine(next((r.numpy for r in runs if r.numpy), None))
    print("machine " + json.dumps(info))
    metrics, report = {}, {"machine": info, "args": vars(args), "workloads": {}}
    for run in runs:
        values = run.per_layer() if args.trace else run.end_to_end()
        summary = dict(run.summary(), metrics=values)
        print_table(run, summary, units if args.trace else dict(units, error_rate="ratio"))
        prefix = f"{run.workload.name}." if len(runs) > 1 else ""
        for name, unit in units.items():
            if name in values:
                metrics[prefix + name] = {"value": values[name], "unit": unit}
        report["workloads"][run.workload.name] = summary
    shutil.rmtree(OUTPUT / "work", ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    correct = failed == 0 and len(metrics) == len(units) * len(runs)
    OUTPUT.mkdir(exist_ok=True)
    label = "+".join(names)
    (OUTPUT / f"report-{label}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1)
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
