"""Named random streams: their keys are pinned, and the package loads what
drawing needs (``numpy.random``, and OpenSSL through ``hashlib``) only when
a run draws."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import outpaint
from outpaint.grids import CanvasSpec, write_grid
from outpaint.pipeline import InputPaths, PipelineConfig, SceneConfig
from outpaint.propagation import required_flow_pairs
from outpaint.refselect import build_reference_chain
from outpaint.seeding import _stream_key
from scene_frames import scene_frames

# modules that only drawing needs: numpy >= 2 imports numpy.random on first
# use, and hashlib's OpenSSL backend is _hashlib
WATCHED = ("_hashlib", "numpy.random")

SPEC = CanvasSpec(48, 48, 48, 64, 0, 16, downsample=2)
SCENE = SceneConfig(n_frames=6, kind="pan", start_y=24.0, start_x=16.0, delta_x=2.0)


def test_stream_keys_are_pinned():
    # the first four bytes of the name's SHA-256, little-endian
    assert _stream_key("world") == 1654943304
    assert _stream_key("reverse-sample") == 1232574043


def run_fresh(body: str, *args: str) -> dict:
    """Run ``body`` in a new interpreter after ``import numpy`` and
    ``import outpaint``; return the JSON it prints beside the watched
    modules loaded after numpy alone ("bare") and at the end ("after")."""
    script = (
        "import json, sys\n"
        "import numpy\n"
        f"watched = {WATCHED!r}\n"
        "bare = [m for m in watched if m in sys.modules]\n"
        "import outpaint\n"
        f"{body}"
        "result['bare'] = bare\n"
        "result['after'] = [m for m in watched if m in sys.modules]\n"
        "print(json.dumps(result))\n"
    )
    src = str(Path(outpaint.__file__).resolve().parents[1])
    path = [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_propagate_run_from_files_loads_no_random_stream(tmp_path):
    scene = SCENE.build(5, SPEC)
    for i in range(scene.num_frames):
        write_grid(tmp_path / "frames" / f"frame_{i:04d}.s2sg", scene.frame(i))
    chain = build_reference_chain(scene_frames(scene), 4)
    for a, b in required_flow_pairs(chain, scene.num_frames):
        write_grid(tmp_path / "flows" / f"flow_{a:04d}_to_{b:04d}.s2sg", scene.gt_flow(a, b))
    cfg = PipelineConfig(
        seed=5,
        canvas=SPEC,
        inputs=InputPaths(frames_dir=str(tmp_path / "frames"), flows_dir=str(tmp_path / "flows")),
        out_dir=str(tmp_path / "run"),
    )
    result = run_fresh(
        "from outpaint.pipeline import PipelineConfig, run_pipeline\n"
        "result = {'status': run_pipeline(PipelineConfig.from_dict(json.loads(sys.argv[1])))['status']}\n",
        json.dumps(cfg.to_dict()),
    )
    if result["bare"]:
        pytest.skip(f"import numpy alone loads {', '.join(result['bare'])}")
    assert result["status"] == "complete"
    assert result["after"] == []


def test_synthetic_scene_draws_the_same_world_in_a_fresh_process(tmp_path):
    cfg = PipelineConfig(seed=5, canvas=SPEC, scene=SCENE, out_dir=str(tmp_path / "run"))
    world = cfg.scene.build(cfg.seed, cfg.canvas).world.data
    result = run_fresh(
        "import hashlib\n"
        "from outpaint.pipeline import PipelineConfig\n"
        "cfg = PipelineConfig.from_dict(json.loads(sys.argv[1]))\n"
        "world = cfg.scene.build(cfg.seed, cfg.canvas).world.data\n"
        "result = {'world': hashlib.sha256(world.tobytes()).hexdigest()}\n",
        json.dumps(cfg.to_dict()),
    )
    assert result["world"] == hashlib.sha256(world.tobytes()).hexdigest()
    assert "numpy.random" in result["after"]
