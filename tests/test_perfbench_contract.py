"""What perfbench/ relies on in the package: the names its child imports,
the scene call it makes, the names its tracer patches and the report keys
run.py reads.  A break here otherwise shows only in a perfbench run."""

import ast
import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from outpaint.grids import CanvasSpec
from outpaint.pipeline import PipelineConfig, SceneConfig, run_pipeline

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the report.json keys perfbench/run.py reads
REPORT_KEYS = (
    "warp_count_guided", "warp_count_sequential", "compose_count", "chain_len", "peak_live_bytes",
)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_every_name_the_child_imports_resolves():
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "outpaint"
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_child_builds_the_scene_the_pipeline_builds(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child

    canvas = {
        "orig_h": 48, "orig_w": 48, "canvas_h": 48, "canvas_w": 64, "offset_y": 0, "offset_x": 16,
    }
    scene = {"n_frames": 3, "kind": "pan", "start_y": 24.0, "start_x": 16.0, "delta_x": 2.0}
    built, spec = child._scene({"seed": 5, "config": {"canvas": canvas}, "scene": scene})
    assert spec == CanvasSpec(**canvas)
    want = SceneConfig(**scene).build(5, spec)
    assert built.origins == want.origins == ((24.0, 16.0), (24.0, 18.0), (24.0, 20.0))
    assert np.array_equal(built.world.data, want.world.data)


def test_every_workload_config_parses(monkeypatch):
    # the configs perfbench hands run_pipeline: a kind, key or type the
    # package rejects would fail every repetition of that workload
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    assert workloads.WORKLOADS
    for name, workload in workloads.WORKLOADS.items():
        config = PipelineConfig.from_dict(workload.config(5))
        assert config.seed == 5 and config.window == workloads.WINDOW, name


def test_every_traced_name_resolves(tracing):
    for owner, attr, span in tracing.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{span}: {owner.__name__}.{attr}"


def test_report_holds_the_keys_perfbench_reads(tmp_path):
    config = PipelineConfig(
        seed=5,
        canvas=CanvasSpec(48, 48, 48, 64, 0, 16, downsample=2),
        scene=SceneConfig(n_frames=3, kind="pan", start_y=24.0, start_x=16.0, delta_x=2.0),
        out_dir=str(tmp_path),
        write_timings=True,
    )
    run_pipeline(config)
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(REPORT_KEYS) <= set(report)
    assert "wall_time_s" in json.loads((tmp_path / "timings.json").read_text())


def test_traced_counts_match_the_report(tracing, tmp_path):
    # perfbench reads useful pulls from propagate_direction's provenance and
    # pulls and composes from the calls it wraps; the report counts them in
    # the code that does the work
    config = PipelineConfig(
        seed=5,
        canvas=CanvasSpec(48, 48, 48, 64, 0, 16, downsample=2),
        scene=SceneConfig(n_frames=8, kind="pan", start_y=24.0, start_x=16.0, delta_x=2.0),
        out_dir=str(tmp_path),
    )
    tracer = tracing.Tracer(memory=False)
    tracer.install()
    try:
        run_pipeline(config)
    finally:
        tracer.uninstall()
    traced = tracer.metrics()
    report = json.loads((tmp_path / "report.json").read_text())
    assert traced["propagation.useful_pulls"] == report["useful_pull_count"] > 0
    assert traced["flow.backward_warp.calls"] == report["warp_count_guided"]
    assert traced["flow.compose_accumulated.calls"] == report["compose_count"] > 0


# (chain_len, warp_count_guided, compose_count, useful_pull_count) of each
# workload at seed 5; a change that moves one on purpose updates it here
SEED_5_COUNTS = {
    "paper_pan": (20, 244, 106, 244),
    "files_sample": (19, 637, 499, 339),
    "hires_files": (7, 161, 115, 91),
}


def test_seed_5_workload_counts(tmp_path, monkeypatch):
    # pulls and composes are deterministic, so a change to them shows here
    # rather than only in a perfbench run, and so does a failed output check
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child
    import run
    import workloads

    assert set(workloads.WORKLOADS) == set(SEED_5_COUNTS)
    counts = {}
    for name, workload in workloads.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        monkeypatch.chdir(work)
        request = {"seed": 5, "config": workload.config(5), "scene": workload.scene}
        if workload.from_files:
            child.prepare(request)
        run_pipeline(PipelineConfig.from_dict(request["config"]))
        report = json.loads((work / workloads.OUT_DIR / "report.json").read_text())
        counts[name] = tuple(
            report[key]
            for key in ("chain_len", "warp_count_guided", "compose_count", "useful_pull_count")
        )
        # the checks perfbench makes of every repetition's outputs
        outputs = child.check_outputs(request)
        if name == "paper_pan":
            assert outputs["band_max_err"] <= run.ORACLE_TOL
        assert 0.0 < outputs["coverage_frac"] <= 1.0, name
        assert math.isfinite(outputs["outpaint_psnr_db"]), name
    assert counts == SEED_5_COUNTS
