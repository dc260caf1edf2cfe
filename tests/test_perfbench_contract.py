"""What perfbench/ relies on in the package: the names its tracer patches and
the report keys run.py reads.  A break here otherwise shows only in a traced
perfbench run."""

import json
from pathlib import Path

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
