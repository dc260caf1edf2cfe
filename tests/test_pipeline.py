import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from outpaint import grids, pipeline, propagation
from outpaint.grids import BinaryMask, CanvasSpec, ChannelGrid, FlowField, read_grid, write_grid
from outpaint.pipeline import (
    BenchmarkReport,
    ConfigError,
    InputPaths,
    PipelineConfig,
    SceneConfig,
    StageError,
    run_benchmark,
    run_pipeline,
    write_benchmark_csv,
    write_json,
)
from outpaint.propagation import hop_pairs, nearest_pairs, required_flow_pairs
from outpaint.refselect import ReferenceChain, build_reference_chain
from outpaint.synthetic import generate_scene, stand_in_encode
from scene_frames import scene_frames


def pan_config(out_dir, seed=7, n_frames=16, mode="propagate", **overrides):
    cfg = dict(
        seed=seed,
        canvas=CanvasSpec(48, 48, 48, 64, 0, 16, downsample=2),
        mode=mode,
        scene=SceneConfig(
            world_h=96, world_w=96, n_frames=n_frames, kind="pan",
            start_y=24.0, start_x=16.0, delta_x=2.0,
        ),
        out_dir=str(out_dir),
    )
    cfg.update(overrides)
    return PipelineConfig(**cfg)


def flows_held(chain: ReferenceChain) -> int:
    """The flows propagation holds at once: every hop, and one
    non-reference frame's nearest-reference flows."""
    n = chain.num_frames
    return len(hop_pairs(chain)) + max(len(nearest_pairs(chain, i)) for i in range(n))


def tree_digest(root: Path, exclude=()) -> dict[str, str]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name not in exclude:
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def write_file_scene(root: Path, cfg: PipelineConfig, gt: bool = False) -> PipelineConfig:
    """Write ``cfg``'s scene under ``root`` as frame files, the flow files its
    chain needs (exact flows) and, with ``gt``, ground-truth files; return
    the file-driven config of the same run."""
    scene = cfg.scene.build(cfg.seed, cfg.canvas)
    for i in range(scene.num_frames):
        write_grid(root / "frames" / f"frame_{i:04d}.s2sg", scene.frame(i))
        if gt:
            write_grid(root / "gt" / f"gt_{i:04d}.s2sg", scene.gt_expanded(i))
    chain = build_reference_chain(scene_frames(scene), cfg.window)
    for a, b in required_flow_pairs(chain, scene.num_frames):
        write_grid(root / "flows" / f"flow_{a:04d}_to_{b:04d}.s2sg", scene.gt_flow(a, b))
    inputs = InputPaths(
        frames_dir=str(root / "frames"),
        flows_dir=str(root / "flows"),
        gt_dir=str(root / "gt") if gt else None,
    )
    return replace(cfg, scene=None, inputs=inputs)


# in the 3-frame chain [0, 2], 1->0 is frame 1's nearest-reference flow,
# completed just before its pulls, and 2->0 a hop, completed when
# propagation starts
BAD_FLOW_PAIRS = pytest.mark.parametrize("pair", [(1, 0), (2, 0)], ids=["nearest", "hop"])


def run_with_bad_flow(tmp_path, pair, bad_flow):
    """Run a 3-frame file-driven still scene, whose chain is [0, 2], with
    the file of flow ``pair`` holding ``bad_flow``, or missing where it is
    None; return the StageError and the summary it left."""
    spec = CanvasSpec(48, 48, 48, 64, 0, 16, downsample=2)
    traj = SceneConfig(n_frames=3, start_y=24.0, start_x=24.0)
    scene = generate_scene(3, 96, 96, 48, 48, 3, traj, spec)
    for i in range(3):
        write_grid(tmp_path / "frames" / f"frame_{i:04d}.s2sg", scene.frame(i))
    chain = build_reference_chain(scene_frames(scene), 4)
    assert chain.indices == (0, 2)
    for a, b in required_flow_pairs(chain, 3):
        flow = bad_flow if (a, b) == pair else scene.gt_flow(a, b)
        if flow is not None:
            write_grid(tmp_path / "flows" / f"flow_{a:04d}_to_{b:04d}.s2sg", flow)
    cfg = PipelineConfig(
        seed=3,
        canvas=spec,
        inputs=InputPaths(
            frames_dir=str(tmp_path / "frames"), flows_dir=str(tmp_path / "flows")
        ),
        out_dir=str(tmp_path / "run"),
    )
    with pytest.raises(StageError) as err:
        run_pipeline(cfg)
    return err.value, json.loads((tmp_path / "run" / "summary.json").read_text())


class TestConfig:
    def test_requires_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            PipelineConfig.from_dict({"canvas": {"orig_h": 4, "orig_w": 4, "canvas_h": 4, "canvas_w": 8, "offset_y": 0, "offset_x": 0}})

    def test_requires_canvas(self):
        with pytest.raises(ConfigError, match="canvas"):
            PipelineConfig.from_dict({"seed": 1, "scene": {}})

    @pytest.mark.parametrize(
        "mode, bad",
        [
            ("sample", {"sampler_stride": 0}),
            ("sample", {"sampler_window": 0}),
            ("sample", {"sampler_stride": 30}),
            ("sample", {"timesteps": 0}),
            # pan_config's scene with an unknown kind, which SceneConfig rejects
            ("propagate", {"scene": {
                "world_h": 96, "world_w": 96, "n_frames": 16, "kind": "bogus",
                "start_y": 24.0, "start_x": 16.0, "delta_x": 2.0,
            }}),
        ],
        ids=["stride_0", "window_0", "stride_over_window", "timesteps_0", "bogus_scene"],
    )
    def test_values_a_stage_would_reject_fail_first(self, mode, bad):
        raw = pan_config("/tmp/nowhere").to_dict() | {"mode": mode} | bad
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict(raw)

    def test_propagate_mode_ignores_sampler_fields(self, tmp_path):
        cfg = pan_config(tmp_path / "run", n_frames=3, sampler_stride=0, timesteps=0)
        assert run_pipeline(cfg)["status"] == "complete"

    def test_scene_xor_inputs(self):
        with pytest.raises(ConfigError, match="scene/inputs"):
            PipelineConfig(seed=1, canvas=CanvasSpec(4, 4, 4, 8, 0, 0))

    def test_unknown_component_names(self):
        base = dict(seed=1, canvas=CanvasSpec(8, 8, 8, 16, 0, 0), scene=SceneConfig())
        with pytest.raises(ConfigError):
            PipelineConfig(denoiser="net", **base)
        raw = PipelineConfig(**base).to_dict()
        for key, value in (
            ("completer", "magic"),
            ("aligner", "deform"),
            ("fuser", "baseline"),
            ("noise_condition", True),
            ("completer", "laplacian"),
            ("completion_max_iters", 100),
            ("completion_tol", 1e-6),
            ("complete_at_pixel", True),
            ("fill", 0.0),
            ("beta_start", 1e-4),
            ("beta_end", 0.02),
        ):
            with pytest.raises(ConfigError, match=key):
                PipelineConfig.from_dict({**raw, key: value})

    def test_every_field_is_checked_against_its_declared_type(self):
        canvas = CanvasSpec(4, 4, 4, 8, 0, 0)
        inputs = InputPaths(frames_dir="frames", flows_dir="flows")
        configs = [canvas, SceneConfig(), inputs, PipelineConfig(seed=1, canvas=canvas, inputs=inputs)]
        # a field of a type the checker does not know must be a nested config
        nested = {"CanvasSpec", "SceneConfig | None", "InputPaths | None"}
        wrong = {"int": (True, 1.5), "float": (True,), "str": (5,), "bool": ("no",), "str | None": (5,)}
        assert set(wrong) == set(grids._FIELD_TYPES)
        for config in configs:
            for f in fields(config):
                assert f.type in wrong or f.type in nested, f"{type(config).__name__}.{f.name}: {f.type}"
                for value in wrong.get(f.type, ()):
                    with pytest.raises(ValueError, match=rf"^{f.name} must be "):
                        replace(config, **{f.name: value})

    def test_dict_round_trip(self):
        cfg = pan_config("/tmp/nowhere")
        again = PipelineConfig.from_dict(cfg.to_dict())
        assert again == cfg


class TestRunPipeline:
    def test_paper_pan_pulls_only_what_fills(self, tmp_path):
        # 96x96 crop on 96x128, s=4, 4 px per frame: pulling stops as soon as
        # no farther reference can fill a cell, so every pull fills some
        n = 12
        cfg = PipelineConfig(
            seed=5,
            canvas=CanvasSpec(96, 96, 96, 128, 0, 16, downsample=4),
            scene=SceneConfig(
                world_h=96, world_w=128 + 4 * (n - 1), n_frames=n, kind="pan",
                start_y=0.0, start_x=16.0, delta_x=4.0,
            ),
            out_dir=str(tmp_path / "run"),
        )
        run_pipeline(cfg)
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["useful_pull_count"] == report["warp_count_guided"] > 0

    def test_report_counts_every_warp_and_composition(self, tmp_path, monkeypatch):
        # the counts report.json states are the calls propagation makes
        calls = {"backward_warp": 0, "compose_accumulated": 0}
        for name in calls:
            inner = getattr(propagation, name)

            def counted(*args, _name=name, _inner=inner):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(propagation, name, counted)
        run_pipeline(pan_config(tmp_path / "run", n_frames=10))
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert calls["backward_warp"] == report["warp_count_guided"] > 0
        assert calls["compose_accumulated"] == report["compose_count"] > 0

    def test_pan_scene_translation_oracle(self, tmp_path):
        cfg = pan_config(tmp_path / "run")
        summary = run_pipeline(cfg)
        assert summary["status"] == "complete"
        metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
        for entry in metrics["per_frame"]:
            assert entry["covered_psnr"] == "inf"
        # every completed flow is harmonic on its filled cells
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert 0.0 <= report["completion_max_residual"] < 1e-9

    def test_static_scene_source_exact(self, tmp_path):
        cfg = pan_config(
            tmp_path / "run",
            scene=SceneConfig(world_h=96, world_w=96, n_frames=6,
                              start_y=24.0, start_x=24.0),
        )
        run_pipeline(cfg)
        scene = generate_scene(
            cfg.seed, 96, 96, 48, 48, 6, cfg.scene, cfg.canvas
        )
        for i in range(6):
            latent = read_grid(tmp_path / "run" / "propagated" / f"latent_{i:04d}.s2sg")
            cov = read_grid(tmp_path / "run" / "propagated" / f"coverage_{i:04d}.s2sg")
            src = stand_in_encode(scene.frame(i), 2)
            lat_spec = cfg.canvas.latent()
            ys, xs = lat_spec.source_slices
            # float32 artifact round-trip: compare against narrowed values
            assert np.array_equal(
                latent.data[:, ys, xs], src.data.astype("<f4").astype(np.float64)
            )
            # zero flow: nothing outside the source region is ever covered
            expect_cov = np.zeros((lat_spec.canvas_h, lat_spec.canvas_w))
            expect_cov[ys, xs] = 1.0
            assert np.array_equal(cov.data, expect_cov)

    def test_source_preservation_decoded_s1(self, tmp_path):
        cfg = pan_config(
            tmp_path / "run",
            canvas=CanvasSpec(48, 48, 48, 64, 0, 16, downsample=1),
        )
        run_pipeline(cfg)
        scene = generate_scene(
            cfg.seed, 96, 96, 48, 48, 16, cfg.scene, cfg.canvas
        )
        for i in (0, 7, 15):
            decoded = read_grid(tmp_path / "run" / "decoded" / f"frame_{i:04d}.s2sg")
            ys, xs = cfg.canvas.source_slices
            want = scene.frame(i).data.astype("<f4").astype(np.float64)
            assert np.array_equal(decoded.data[:, ys, xs], want)

    def test_determinism_byte_identical(self, tmp_path):
        cfg = pan_config(tmp_path / "a", n_frames=8)
        run_pipeline(cfg)
        first = tree_digest(tmp_path / "a")
        run_pipeline(cfg)
        assert tree_digest(tmp_path / "a") == first

    def test_rerun_replaces_an_earlier_run(self, tmp_path):
        out = tmp_path / "a"
        run_pipeline(pan_config(out, n_frames=8, mode="sample", timesteps=3, write_timings=True))
        (out / "notes.txt").write_text("not a run artifact")
        summary = run_pipeline(pan_config(out, n_frames=4))
        fresh = run_pipeline(pan_config(tmp_path / "fresh", n_frames=4))
        assert set(tree_digest(out)) == set(tree_digest(tmp_path / "fresh")) | {"notes.txt"}
        assert set(summary["artifacts"]) == set(fresh["artifacts"])
        assert (out / "notes.txt").read_text() == "not a run artifact"

    @pytest.mark.parametrize(
        "n_frames, windows, from_files",
        [(6, {}, False), (8, {"sampler_window": 4, "sampler_stride": 2}, False), (6, {}, True)],
        ids=["one_window", "sliding_windows", "files_with_gt_dir"],
    )
    def test_sample_mode_oracle_recovers_gt(self, tmp_path, n_frames, windows, from_files):
        cfg = pan_config(
            tmp_path / "run", n_frames=n_frames, mode="sample",
            denoiser="oracle", timesteps=20, **windows,
        )
        scene = generate_scene(
            cfg.seed, 96, 96, 48, 48, n_frames, cfg.scene, cfg.canvas
        )
        # the oracle reads the ground truth that gt_dir supplies in a file run
        run_pipeline(write_file_scene(tmp_path / "in", cfg, gt=True) if from_files else cfg)
        for i in range(n_frames):
            sampled = read_grid(tmp_path / "run" / "sampled" / f"latent_{i:04d}.s2sg")
            want = stand_in_encode(scene.gt_expanded(i), 2)
            # exact inversion at the last step, then float32 narrowing on disk
            assert np.allclose(sampled.data, want.data, atol=1e-4)

    def test_sample_single_frame_still_runs(self, tmp_path):
        cfg = pan_config(
            tmp_path / "run", mode="sample", timesteps=5,
            scene=SceneConfig(world_h=96, world_w=96, n_frames=1,
                              start_y=24.0, start_x=24.0),
        )
        summary = run_pipeline(cfg)
        assert summary["status"] == "complete"
        assert summary["chain"] == [0]
        assert (tmp_path / "run" / "sampled" / "latent_0000.s2sg").exists()

    def test_sample_determinism(self, tmp_path):
        cfg = pan_config(tmp_path / "a", n_frames=5, mode="sample", timesteps=8)
        run_pipeline(cfg)
        first = tree_digest(tmp_path / "a")
        run_pipeline(cfg)
        assert tree_digest(tmp_path / "a") == first

    def test_timings_only_on_request(self, tmp_path):
        run_pipeline(pan_config(tmp_path / "a", n_frames=4))
        assert not (tmp_path / "a" / "timings.json").exists()
        run_pipeline(pan_config(tmp_path / "b", n_frames=4, write_timings=True))
        timings = json.loads((tmp_path / "b" / "timings.json").read_text())["wall_time_s"]
        # the artifact writes are timed as a stage of their own
        assert "write" in timings

    def test_timings_record_each_stages_peak_rss(self, tmp_path):
        run_pipeline(pan_config(tmp_path, n_frames=4, write_timings=True))
        timings = json.loads((tmp_path / "timings.json").read_text())
        stages = {"inputs", "chain", "encode", "flows", "propagate", "decode", "metrics", "write"}
        assert set(timings["wall_time_s"]) == set(timings["max_rss_mb"]) == stages
        assert all(mb > 0 for mb in timings["max_rss_mb"].values())

    @pytest.mark.parametrize("mode", ["propagate", "sample"])
    def test_timings_record_the_resident_set_after_each_stage(self, tmp_path, mode):
        run_pipeline(pan_config(tmp_path, n_frames=4, mode=mode, timesteps=3, write_timings=True))
        timings = json.loads((tmp_path / "timings.json").read_text())
        if not Path("/proc/self/statm").exists():
            assert "rss_mb" not in timings
            return
        # one value per stage that ran
        assert set(timings["rss_mb"]) == set(timings["wall_time_s"])
        assert all(mb > 0 for mb in timings["rss_mb"].values())

    def test_timings_leave_out_the_resident_set_where_it_cannot_be_read(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "_resident_mb", lambda: None)
        run_pipeline(pan_config(tmp_path, n_frames=4, write_timings=True))
        assert set(json.loads((tmp_path / "timings.json").read_text())) == {"wall_time_s", "max_rss_mb"}

    @pytest.mark.parametrize("platform, ru_maxrss", [("linux", 3 << 10), ("darwin", 3 << 20)])
    def test_peak_rss_is_read_in_the_platforms_unit(self, monkeypatch, platform, ru_maxrss):
        # ru_maxrss is in KiB on Linux and in bytes on macOS: 3 MB either way
        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=ru_maxrss))
        clock = pipeline._StageClock()
        with clock("chain"):
            pass
        assert clock.max_rss_mb == {"chain": 3.0}

    def test_nested_stage_counts_toward_its_own_name_only(self, monkeypatch):
        now = [0.0]
        monkeypatch.setattr(pipeline.time, "perf_counter", lambda: now[0])

        clock = pipeline._StageClock()
        with clock("chain"):
            now[0] += 1.0
            with clock("inputs"):
                now[0] += 2.0
        with clock("inputs"):
            now[0] += 4.0
        assert clock.times == {"chain": 1.0, "inputs": 6.0}
        # a failure names the innermost stage, not the one around it
        with pytest.raises(StageError) as err:
            with clock("chain"):
                now[0] += 1.0
                with clock("inputs"):
                    1 / 0
        assert err.value.stage == "inputs"
        assert isinstance(err.value.cause, ZeroDivisionError)

    def test_each_input_file_is_read_once(self, tmp_path, monkeypatch):
        cfg = write_file_scene(tmp_path, pan_config(tmp_path / "run", n_frames=8), gt=True)
        reads = Counter()
        read = pipeline.read_grid

        def counted(path):
            reads[Path(path).relative_to(tmp_path).as_posix()] += 1
            return read(path)

        monkeypatch.setattr(pipeline, "read_grid", counted)
        run_pipeline(cfg)
        written = {
            p.relative_to(tmp_path).as_posix()
            for name in ("frames", "flows", "gt") for p in (tmp_path / name).iterdir()
        }
        assert set(reads) == written
        assert set(reads.values()) == {1}

    def test_failed_write_is_a_stage_failure(self, tmp_path):
        # finite in float64, the sampled latents overflow float32 on disk
        cfg = pan_config(tmp_path / "run", n_frames=6, mode="sample",
                         denoiser="constant:1e300", timesteps=5)
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "write"
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["status"] == "incomplete"
        assert summary["failed_stage"] == "write"
        assert "float32 range" in summary["error"]

    def test_non_finite_sample_fails_at_sample(self, tmp_path, monkeypatch):
        class NaNDenoiser:
            def predict(self, noisy, condition, timestep, start):
                return np.full_like(noisy, np.nan)

        cfg = pan_config(tmp_path / "run", n_frames=4, mode="sample", timesteps=3)
        # after the config is built, which checks the name
        monkeypatch.setattr(pipeline, "resolve_denoiser", lambda name: NaNDenoiser())
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "sample"
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["status"] == "incomplete"
        assert summary["failed_stage"] == "sample"
        # no frame's files are written before sampling succeeds
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
            "chain.json", "config.json", "summary.json",
        ]

    def test_each_frames_files_are_written_together(self, tmp_path, monkeypatch):
        written = []

        def record(write):
            def recorded(path, payload):
                written.append(Path(path).relative_to(tmp_path).as_posix())
                return write(path, payload)
            return recorded

        for name in ("write_grid", "write_json"):
            monkeypatch.setattr(pipeline, name, record(getattr(pipeline, name)))
        n = 4
        run_pipeline(pan_config(tmp_path, n_frames=n, mode="sample", timesteps=3))
        assert written[:2] == ["config.json", "chain.json"]
        assert written[-3:] == ["metrics.json", "report.json", "summary.json"]
        frames = written[2:-3]
        assert len(frames) == 5 * n
        # frame i's five files, all before any file of frame i + 1
        for i in range(n):
            assert set(frames[5 * i : 5 * i + 5]) == {
                f"propagated/latent_{i:04d}.s2sg",
                f"propagated/coverage_{i:04d}.s2sg",
                f"propagated/provenance_{i:04d}.json",
                f"sampled/latent_{i:04d}.s2sg",
                f"decoded/frame_{i:04d}.s2sg",
            }

    def test_stage_failure_marks_incomplete(self, tmp_path):
        frames_dir = tmp_path / "frames"
        scene = generate_scene(
            3, 96, 96, 48, 48, 4,
            SceneConfig(n_frames=4, start_y=24.0, start_x=24.0),
            CanvasSpec(48, 48, 48, 64, 0, 16, downsample=2),
        )
        for i in range(4):
            write_grid(frames_dir / f"frame_{i:04d}.s2sg", scene.frame(i))
        cfg = PipelineConfig(
            seed=3,
            canvas=CanvasSpec(48, 48, 48, 64, 0, 16, downsample=2),
            inputs=InputPaths(frames_dir=str(frames_dir), flows_dir=str(tmp_path / "missing")),
            out_dir=str(tmp_path / "run"),
        )
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "flows"
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["status"] == "incomplete"
        assert summary["failed_stage"] == "flows"

    def test_flow_grid_in_gt_dir_fails_at_inputs(self, tmp_path):
        spec = CanvasSpec(48, 48, 48, 64, 0, 16, downsample=2)
        traj = SceneConfig(n_frames=3, start_y=24.0, start_x=24.0)
        scene = generate_scene(3, 96, 96, 48, 48, 3, traj, spec)
        for i in range(3):
            write_grid(tmp_path / "frames" / f"frame_{i:04d}.s2sg", scene.frame(i))
            write_grid(tmp_path / "gt" / f"gt_{i:04d}.s2sg", scene.gt_flow(i, i))
            # original-frame size, not the expanded canvas
            write_grid(tmp_path / "gt_small" / f"gt_{i:04d}.s2sg", scene.frame(i))
        # complete flows, so that only the ground truth is wrong
        for a, b in required_flow_pairs(build_reference_chain(scene_frames(scene), 4), 3):
            write_grid(tmp_path / "flows" / f"flow_{a:04d}_to_{b:04d}.s2sg", scene.gt_flow(a, b))
        for gt_dir, message in (
            ("gt", "is not a channel grid"),
            ("gt_small", "gt_0000.s2sg is 48x48, expected 48x64"),
        ):
            cfg = PipelineConfig(
                seed=3,
                canvas=spec,
                inputs=InputPaths(
                    frames_dir=str(tmp_path / "frames"),
                    flows_dir=str(tmp_path / "flows"),
                    gt_dir=str(tmp_path / gt_dir),
                ),
                out_dir=str(tmp_path / "run"),
            )
            with pytest.raises(StageError) as err:
                run_pipeline(cfg)
            assert err.value.stage == "inputs"
            summary = json.loads((tmp_path / "run" / "summary.json").read_text())
            assert summary["failed_stage"] == "inputs"
            assert message in summary["error"]

    def test_frame_index_gap_fails_at_inputs(self, tmp_path):
        spec = CanvasSpec(48, 48, 48, 64, 0, 16, downsample=2)
        traj = SceneConfig(n_frames=6, start_y=24.0, start_x=24.0)
        scene = generate_scene(3, 96, 96, 48, 48, 6, traj, spec)
        for i in (0, 1, 3, 4, 5):
            write_grid(tmp_path / "frames" / f"frame_{i:04d}.s2sg", scene.frame(i))
        cfg = PipelineConfig(
            seed=3,
            canvas=spec,
            inputs=InputPaths(frames_dir=str(tmp_path / "frames"), flows_dir=str(tmp_path)),
            out_dir=str(tmp_path / "run"),
        )
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "inputs"
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["failed_stage"] == "inputs"
        assert "frame_0002.s2sg" in summary["error"]

    def test_mis_sized_frame_fails_at_inputs(self, tmp_path):
        cfg = write_file_scene(tmp_path, pan_config(tmp_path / "run", n_frames=6))
        path = tmp_path / "frames" / "frame_0003.s2sg"
        write_grid(path, ChannelGrid(read_grid(path).data[:, :40]))
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "inputs"
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["failed_stage"] == "inputs"
        assert summary["error"] == f"{path} is 40x48, expected 48x48"

    def test_out_of_range_frame_is_named(self, tmp_path):
        cfg = write_file_scene(tmp_path, pan_config(tmp_path / "run", n_frames=6))
        path = tmp_path / "frames" / "frame_0003.s2sg"
        bright = read_grid(path).data.copy()
        bright[1, 5, 7] = 1.5
        write_grid(path, ChannelGrid(bright))
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "chain"
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["failed_stage"] == "chain"
        assert summary["error"] == "frame 3: frame values must lie in [0, 1]"

    def test_frame_below_the_ssim_window_is_named_at_chain(self, tmp_path):
        # a file run's frame count is unknown to its config, so 4x4 frames
        # pass it and fail once the chain scores them
        rng = np.random.default_rng(0)
        for i in range(6):
            write_grid(tmp_path / "frames" / f"frame_{i:04d}.s2sg", ChannelGrid(rng.random((3, 4, 4))))
        cfg = PipelineConfig(
            seed=0,
            canvas=CanvasSpec(4, 4, 4, 8, 0, 4),
            inputs=InputPaths(frames_dir=str(tmp_path / "frames"), flows_dir=str(tmp_path / "flows")),
            out_dir=str(tmp_path / "run"),
        )
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "chain"
        assert str(err.value.cause) == "frame 0: plane is 4x4, smaller than the 8x8 local window"

    @BAD_FLOW_PAIRS
    def test_wrong_size_flow_error_names_the_file(self, tmp_path, pair):
        a, b = pair
        err, summary = run_with_bad_flow(tmp_path, pair, FlowField.constant(40, 48, 0.0, 0.0))
        assert err.stage == "flows"
        assert f"flow_{a:04d}_to_{b:04d}.s2sg" in summary["error"]

    def test_missing_nearest_flow_file_fails_at_flows(self, tmp_path):
        err, summary = run_with_bad_flow(tmp_path, (1, 0), None)
        path = tmp_path / "flows" / "flow_0001_to_0000.s2sg"
        assert err.stage == "flows"
        assert summary["failed_stage"] == "flows"
        assert summary["error"] == f"flow 1->0: missing flow file {path}"
        # as for any flow failure, nothing but the config and the summary
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["config.json", "summary.json"]

    def test_file_driven_flows(self, tmp_path):
        spec = CanvasSpec(48, 48, 48, 64, 0, 16, downsample=2)
        traj = SceneConfig(
            n_frames=6, kind="pan", start_y=24.0, start_x=16.0, delta_x=2.0
        )
        scene = generate_scene(11, 96, 96, 48, 48, 6, traj, spec)
        frames_dir = tmp_path / "frames"
        flows_dir = tmp_path / "flows"
        for i in range(6):
            write_grid(frames_dir / f"frame_{i:04d}.s2sg", scene.frame(i))
        chain = build_reference_chain(scene_frames(scene), 4)
        for a, b in required_flow_pairs(chain, 6):
            write_grid(flows_dir / f"flow_{a:04d}_to_{b:04d}.s2sg", scene.gt_flow(a, b))
        cfg = PipelineConfig(
            seed=11,
            canvas=spec,
            inputs=InputPaths(frames_dir=str(frames_dir), flows_dir=str(flows_dir)),
            out_dir=str(tmp_path / "run"),
        )
        summary = run_pipeline(cfg)
        assert summary["status"] == "complete"
        assert summary["chain"] == list(chain.indices)

    @BAD_FLOW_PAIRS
    def test_flow_failure_names_the_pair(self, tmp_path, pair):
        a, b = pair
        # no valid cell: nothing to complete the band from
        err, summary = run_with_bad_flow(tmp_path, pair, FlowField(*np.zeros((3, 48, 48))))
        assert err.stage == "flows"
        assert f"flow {a}->{b}: " in str(err)
        assert isinstance(err.cause.__cause__, ValueError)
        assert summary["failed_stage"] == "flows"
        assert summary["error"] == f"flow {a}->{b}: flow completion needs at least one known cell"


    def test_sample_stage_holds_two_sequences_and_one_window(self, tmp_path, monkeypatch):
        # 12 frames of 3x24x32 float64 latents, sampled in windows of 4
        n, window = 12, 4
        frame = 3 * 24 * 32 * 8
        peaks = []
        sample = pipeline.reverse_sample

        def traced(*args, **kwargs):
            tracemalloc.start()
            try:
                out = sample(*args, **kwargs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return out

        monkeypatch.setattr(pipeline, "reverse_sample", traced)
        run_pipeline(pan_config(
            tmp_path, n_frames=n, mode="sample", timesteps=3, sampler_window=window, sampler_stride=2,
        ))
        # beside the condition: the state, one eps and one window's prediction
        assert len(peaks) == 1
        assert peaks[0] <= 2 * n * frame + window * frame + (64 << 10)

    def test_sample_stage_copies_no_sequence(self, tmp_path, monkeypatch):
        calls = {}

        def spy(name):
            fn = getattr(pipeline, name)

            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                calls.setdefault(name, []).append((args, out))
                return out

            monkeypatch.setattr(pipeline, name, wrapped)

        for name in ("propagate_sequence", "reverse_sample", "stand_in_decode"):
            spy(name)
        run_pipeline(pan_config(tmp_path, n_frames=6, mode="sample", timesteps=3))
        [(_, (propagated, _))] = calls["propagate_sequence"]
        [(args, sampled)] = calls["reverse_sample"]
        # conditioned on the propagated array itself
        assert args[1] is propagated
        # each frame decoded from a sampled grid that holds its row of the result
        decoded = [args[0] for args, _ in calls["stand_in_decode"]]
        assert len(decoded) == 6
        for i, grid in enumerate(decoded):
            assert np.shares_memory(grid.data, sampled[i])


class TestBenchmark:
    def test_small_grid_ordering_and_trend(self, tmp_path):
        reports = run_benchmark(seed=5, n_values=(8, 12), m_values=(2, 3, 4))
        write_benchmark_csv(tmp_path / "bench.csv", reports)
        assert len(reports) == 6
        for r in reports:
            r.verify()
            assert r.warp_count_guided == r.chain_len * (r.n_frames - 1)
        # chain length weakly decreasing in m for fixed N
        for n in (8, 12):
            lens = [r.chain_len for r in reports if r.n_frames == n]
            assert lens == sorted(lens, reverse=True)
        header = (tmp_path / "bench.csv").read_text().splitlines()[0]
        assert header.startswith("n_frames,window,chain_len,warp_count_guided")

    def test_m1_guided_equals_sequential(self):
        reports = run_benchmark(seed=5, n_values=(6,), m_values=(1,))
        r = reports[0]
        assert r.chain_len == 6
        assert r.warp_count_guided == r.warp_count_sequential == 6 * 5

    def test_ordering_violation_detected(self):
        report = BenchmarkReport(
            n_frames=4, window=2, chain_len=3,
            warp_count_guided=20, warp_count_sequential=12,
            compose_count=0, peak_live_bytes=0,
        )
        with pytest.raises(AssertionError, match="ordering"):
            report.verify()

    def test_peak_counts_what_the_shared_stages_hold(self, monkeypatch):
        staged = []
        shared = pipeline._propagate_stages
        monkeypatch.setattr(
            pipeline, "_propagate_stages", lambda *args: staged.append(shared(*args)) or staged[-1]
        )
        reports = run_benchmark(seed=5, n_values=(6, 1), m_values=(3,))
        for report, (_, chain, _, _, _) in zip(reports, staged, strict=True):
            n = report.n_frames
            # 16x16 frames on a 16x32 canvas at s=2: frames, latents and
            # placed latents (3 float64 planes), and flows on the latent
            # canvas (float64 u and v)
            frame = 3 * 8 * 16 * 16
            latents, placed = (n * 3 * 8 * cells for cells in (8 * 8, 8 * 16))
            flows = flows_held(chain) * 8 * 16 * (8 + 8)
            # chain holds the frame being read beside the latents; propagate
            # holds the latents, the completed hops, one frame's nearest
            # flows and the placed latents
            in_chain, in_propagate = frame + latents, latents + flows + placed
            # a single frame has no flows, and its frame outweighs its latents
            assert (in_chain > in_propagate) == (n == 1)
            assert report.peak_live_bytes == max(in_chain, in_propagate)

    def test_propagation_builds_only_what_the_chain_reads_when_it_reads_it(self, tmp_path, monkeypatch):
        # one log of the flows read and completed, the stacks built, the
        # pulls made and the frames fused, in the order they happen
        log, seen = [], {}

        def spy(owner, name, entry):
            inner = getattr(owner, name)

            def wrapped(*args):
                log.append(entry(*args))
                return inner(*args)

            monkeypatch.setattr(owner, name, wrapped)

        load = pipeline._load_inputs

        def load_logged(config):
            n, frame, gt, flow = load(config)
            return n, frame, gt, lambda a, b: log.append(("read", a, b)) or flow(a, b)

        monkeypatch.setattr(pipeline, "_load_inputs", load_logged)
        spy(pipeline._flow, "complete_flow_laplacian", lambda flow: ("complete",))
        spy(propagation, "pull_stack", lambda z, spec: ("stack", z))
        spy(propagation, "propagate_direction", lambda i, *rest: ("pull", i))
        spy(propagation, "fuse_directions", lambda *args: ("fused",))
        spy(pipeline, "propagate_sequence", lambda latents, *rest: seen.update(latents=latents) or ("propagate",))
        _, chain, _, _, _ = pipeline._propagate_stages(pan_config(tmp_path, n_frames=8), pipeline._StageClock())
        n, refs = 8, chain.indices
        assert len(refs) < n

        # each frame's stack is built once, from its own latent
        frame_of = {id(z): i for i, z in enumerate(seen["latents"])}
        built = {frame_of[id(e[1])]: k for k, e in enumerate(log) if e[0] == "stack"}
        assert len([e for e in log if e[0] == "stack"]) == len(built) == n
        # every flow read is completed there and then, and read once
        reads = [k for k, e in enumerate(log) if e[0] == "read"]
        assert all(log[k + 1] == ("complete",) for k in reads)
        assert len([e for e in log if e[0] == "complete"]) == len(reads)
        at = {log[k][1:]: k for k in reads}
        assert len(at) == len(reads) and set(at) == required_flow_pairs(chain, n)
        # the hops before the first pull
        first_pull = min(k for k, e in enumerate(log) if e[0] == "pull")
        assert all(at[pair] < first_pull for pair in hop_pairs(chain))
        # and the references' stacks
        assert all(built[r] < first_pull for r in refs)
        # each non-reference frame's nearest flows and stack after the frame
        # before it is fused, before its own first pull
        fused = [k for k, e in enumerate(log) if e == ("fused",)]
        assert len(fused) == n
        for i in sorted(set(range(n)) - set(refs)):
            own_first_pull = log.index(("pull", i))
            assert fused[i - 1] < built[i] < own_first_pull
            for pair in nearest_pairs(chain, i):
                assert fused[i - 1] < at[pair] < own_first_pull

    def test_shared_stages_free_what_no_later_stage_reads(self, tmp_path, monkeypatch):
        frames, refs = [], []

        def track(fn):
            def tracked(*args):
                out = fn(*args)
                refs.append(weakref.ref(out))
                return out
            return tracked

        def read_tracked(frame):
            def read(i):
                # every frame read before has been freed
                assert [ref for ref in frames if ref() is not None] == []
                grid = frame(i)
                frames.append(weakref.ref(grid))
                return grid
            return read

        load = pipeline._load_inputs

        def load_tracked(config):
            n, frame, gt, flow = load(config)
            return n, read_tracked(frame), gt, flow

        monkeypatch.setattr(pipeline, "_load_inputs", load_tracked)
        monkeypatch.setattr(pipeline, "stand_in_encode", track(pipeline.stand_in_encode))
        completion = pipeline._flow.complete_flow_laplacian
        monkeypatch.setattr(pipeline._flow, "complete_flow_laplacian", track(completion))
        _, chain, _, results, _ = pipeline._propagate_stages(
            pan_config(tmp_path, n_frames=6), pipeline._StageClock()
        )
        gc.collect()
        # the frames, the unplaced latents and the completed flows
        assert len(frames) == 6
        assert len(refs) == 6 + len(required_flow_pairs(chain, 6))
        assert [ref for ref in frames + refs if ref() is not None] == []
        assert len(results) == 6

    @pytest.mark.parametrize(
        "mode, n_frames, later_wins", [("propagate", 16, False), ("sample", 6, True)]
    )
    def test_run_peak_is_the_larger_phase(self, tmp_path, mode, n_frames, later_wins):
        run_pipeline(pan_config(tmp_path, mode=mode, n_frames=n_frames, timesteps=5))
        report = json.loads((tmp_path / "report.json").read_text())
        chain = ReferenceChain(**json.loads((tmp_path / "chain.json").read_text()))
        # 48x48 frames on a 48x64 canvas at s=2, 3 float64 planes per grid
        frame, canvas, latent, placed = (
            3 * 8 * cells for cells in (48 * 48, 48 * 64, 24 * 24, 24 * 32)
        )
        flows = flows_held(chain) * 24 * 32 * (8 + 8)
        # chain: the frame being read and the latents; propagate: the
        # latents, the hops, one frame's nearest flows and placed latents
        shared = max(frame + n_frames * latent, n_frames * (latent + placed) + flows)
        # placed and sampled latents, one decoded frame and its ground truth
        later = n_frames * placed * (2 if mode == "sample" else 1) + canvas + canvas
        assert (later > shared) == later_wins
        assert report["peak_live_bytes"] == max(shared, later)

    @pytest.mark.parametrize("mode", ["propagate", "sample"])
    def test_grids_hold_only_their_fields(self, tmp_path, monkeypatch, mode):
        # peak_live_bytes counts a grid's dataclass fields only (_nbytes), so
        # an array cached on a grid would be memory the peak misses
        built = []
        for cls in (ChannelGrid, FlowField, BinaryMask):
            def post_init(grid, init=cls.__post_init__):
                init(grid)
                built.append(grid)

            monkeypatch.setattr(cls, "__post_init__", post_init)
        run_pipeline(pan_config(tmp_path, mode=mode, n_frames=6, timesteps=5))
        assert {type(g) for g in built} == {ChannelGrid, FlowField, BinaryMask}
        for grid in built:
            assert set(vars(grid)) == {f.name for f in fields(grid)}

    def test_peak_grows_by_each_frames_latents_and_flows(self, tmp_path):
        peaks, pairs = {}, {}
        for n in (6, 12):
            out = tmp_path / str(n)
            run_pipeline(pan_config(out, n_frames=n))
            peaks[n] = json.loads((out / "report.json").read_text())["peak_live_bytes"]
            chain = ReferenceChain(**json.loads((out / "chain.json").read_text()))
            pairs[n] = flows_held(chain)
        # six more latents (24x24) and placed latents (24x32) of 3 float64
        # planes, and the extra hops on the 24x32 latent canvas
        latents = 6 * 3 * 8 * (24 * 24 + 24 * 32)
        flows = (pairs[12] - pairs[6]) * 24 * 32 * (8 + 8)
        assert peaks[12] - peaks[6] == latents + flows

    def test_freed_blocks_are_reused_not_faulted_in_again(self):
        # a streamed frame's reads and decode: a few MB allocated, then freed together
        def churn():
            return [float(block[0]) for block in [np.ones(1 << 18) for _ in range(3)]]

        pipeline._reuse_freed_memory()
        churn()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(10):
            churn()
        # 30 blocks of 2 MB: fewer page faults than one block has pages
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < (2 << 20) // 4096

    def test_run_reuses_freed_blocks_across_frames(self, tmp_path):
        # page faults a fresh process takes inside run_pipeline, per frame count
        script = (
            "import json, resource, sys\n"
            "from outpaint.pipeline import PipelineConfig, run_pipeline\n"
            "config = PipelineConfig.from_dict(json.loads(sys.argv[1]))\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "run_pipeline(config)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = str(Path(pipeline.__file__).resolve().parents[1])
        path = [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        faults = {}
        for n in (8, 16):
            # 240x320 frames on a 240x448 canvas at s=8, read from files
            cfg = pan_config(
                tmp_path / f"run{n}",
                canvas=CanvasSpec(240, 320, 240, 448, 0, 64, downsample=8),
                scene=SceneConfig(
                    world_h=240, world_w=448 + 4 * 15, n_frames=n, kind="pan",
                    start_y=0.0, start_x=64.0, delta_x=4.0,
                ),
            )
            cfg = write_file_scene(tmp_path / f"in{n}", cfg)
            out = subprocess.run(
                [sys.executable, "-c", script, json.dumps(cfg.to_dict())],
                env=env, capture_output=True, text=True, check=True,
            )
            faults[n] = int(out.stdout)
        # each frame's and flow's freed blocks serve the next one: eight more
        # 1.8 MB frames would fault in over 3,600 pages if they were not reused
        assert faults[16] - faults[8] < 3000

    def test_traced_peak_does_not_grow_by_whole_frames(self, tmp_path):
        # 96x96 frames on a 96x128 canvas at s=4, read from files
        peaks = {}
        for n in (8, 24):
            cfg = pan_config(
                tmp_path / f"run{n}",
                canvas=CanvasSpec(96, 96, 96, 128, 0, 16, downsample=4),
                scene=SceneConfig(
                    world_h=96, world_w=128 + 2 * 23, n_frames=n, kind="pan",
                    start_y=0.0, start_x=16.0, delta_x=2.0,
                ),
            )
            cfg = write_file_scene(tmp_path / f"in{n}", cfg)
            tracemalloc.start()
            try:
                run_pipeline(cfg)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        added_frames = 16 * 3 * 8 * 96 * 96
        assert peaks[24] - peaks[8] < added_frames


class TestWriteJson:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_float_raises_and_writes_nothing(self, tmp_path, value):
        path = tmp_path / "out" / "payload.json"
        with pytest.raises(ValueError):
            write_json(path, {"per_frame": [{"psnr": value}]})
        assert not path.exists()

