import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from outpaint import pipeline, propagation
from outpaint.grids import CanvasSpec, FlowField, read_grid, write_grid
from outpaint.pipeline import (
    BenchmarkReport,
    ConfigError,
    InputPaths,
    PipelineConfig,
    SceneConfig,
    StageError,
    run_benchmark,
    run_pipeline,
)
from outpaint.propagation import required_flow_pairs
from outpaint.refselect import build_reference_chain, fixed_stride_chain, ssim_structure_score, to_grayscale
from outpaint.synthetic import generate_scene, stand_in_encode


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


def tree_digest(root: Path, exclude=()) -> dict[str, str]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name not in exclude:
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def run_with_bad_flow_1_to_0(tmp_path, bad_flow):
    """Run a 3-frame file-driven static scene whose flow 1->0 file holds
    ``bad_flow``; return the StageError and the summary it left."""
    spec = CanvasSpec(48, 48, 48, 64, 0, 16, downsample=2)
    traj = SceneConfig(n_frames=3, kind="static", start_y=24.0, start_x=24.0).trajectory()
    scene = generate_scene(3, 96, 96, 48, 48, 3, traj, spec)
    for i in range(3):
        write_grid(tmp_path / "frames" / f"frame_{i:04d}.s2sg", scene.frame(i))
    pairs = required_flow_pairs(build_reference_chain(scene.frames(), 4), 3)
    assert (1, 0) in pairs
    for a, b in pairs:
        flow = bad_flow if (a, b) == (1, 0) else scene.gt_flow(a, b)
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
            ("propagate", {"scene": SceneConfig(kind="bogus")}),
        ],
        ids=["stride_0", "window_0", "stride_over_window", "timesteps_0", "bogus_scene"],
    )
    def test_values_a_stage_would_reject_fail_first(self, mode, bad):
        with pytest.raises(ConfigError):
            pan_config("/tmp/nowhere", mode=mode, **bad)

    def test_propagate_mode_ignores_sampler_fields(self, tmp_path):
        cfg = pan_config(tmp_path / "run", n_frames=3, sampler_stride=0, timesteps=0)
        assert run_pipeline(cfg)["status"] == "complete"

    def test_scene_xor_inputs(self):
        with pytest.raises(ConfigError, match="scene/inputs"):
            PipelineConfig(seed=1, canvas=CanvasSpec(4, 4, 4, 8, 0, 0))

    def test_unknown_component_names(self):
        base = dict(seed=1, canvas=CanvasSpec(4, 4, 4, 8, 0, 0), scene=SceneConfig())
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
            scene=SceneConfig(world_h=96, world_w=96, n_frames=6, kind="static",
                              start_y=24.0, start_x=24.0),
        )
        run_pipeline(cfg)
        scene = generate_scene(
            cfg.seed, 96, 96, 48, 48, 6, cfg.scene.trajectory(), cfg.canvas
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
            cfg.seed, 96, 96, 48, 48, 16, cfg.scene.trajectory(), cfg.canvas
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
        "n_frames, windows",
        [(6, {}), (8, {"sampler_window": 4, "sampler_stride": 2})],
        ids=["one_window", "sliding_windows"],
    )
    def test_sample_mode_oracle_recovers_gt(self, tmp_path, n_frames, windows):
        cfg = pan_config(
            tmp_path / "run", n_frames=n_frames, mode="sample",
            denoiser="oracle", timesteps=20, **windows,
        )
        run_pipeline(cfg)
        scene = generate_scene(
            cfg.seed, 96, 96, 48, 48, n_frames, cfg.scene.trajectory(), cfg.canvas
        )
        for i in range(n_frames):
            sampled = read_grid(tmp_path / "run" / "sampled" / f"latent_{i:04d}.s2sg")
            want = stand_in_encode(scene.gt_expanded(i), 2)
            # exact inversion at the last step, then float32 narrowing on disk
            assert np.allclose(sampled.data, want.data, atol=1e-4)

    def test_sample_single_frame_still_runs(self, tmp_path):
        cfg = pan_config(
            tmp_path / "run", mode="sample", timesteps=5,
            scene=SceneConfig(world_h=96, world_w=96, n_frames=1, kind="static",
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
        assert (tmp_path / "b" / "timings.json").exists()

    def test_stage_failure_marks_incomplete(self, tmp_path):
        frames_dir = tmp_path / "frames"
        scene = generate_scene(
            3, 96, 96, 48, 48, 4,
            SceneConfig(n_frames=4, kind="static", start_y=24.0, start_x=24.0).trajectory(),
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
        traj = SceneConfig(n_frames=3, kind="static", start_y=24.0, start_x=24.0).trajectory()
        scene = generate_scene(3, 96, 96, 48, 48, 3, traj, spec)
        for i in range(3):
            write_grid(tmp_path / "frames" / f"frame_{i:04d}.s2sg", scene.frame(i))
            write_grid(tmp_path / "gt" / f"gt_{i:04d}.s2sg", scene.gt_flow(i, i))
            # original-frame size, not the expanded canvas
            write_grid(tmp_path / "gt_small" / f"gt_{i:04d}.s2sg", scene.frame(i))
        # complete flows, so that only the ground truth is wrong
        for a, b in required_flow_pairs(build_reference_chain(scene.frames(), 4), 3):
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
        traj = SceneConfig(n_frames=6, kind="static", start_y=24.0, start_x=24.0).trajectory()
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

    def test_wrong_size_flow_error_names_the_file(self, tmp_path):
        err, summary = run_with_bad_flow_1_to_0(tmp_path, FlowField.zero(40, 48))
        assert err.stage == "flows"
        assert "flow_0001_to_0000.s2sg" in summary["error"]

    def test_file_driven_flows(self, tmp_path):
        spec = CanvasSpec(48, 48, 48, 64, 0, 16, downsample=2)
        traj = SceneConfig(
            n_frames=6, kind="pan", start_y=24.0, start_x=16.0, delta_x=2.0
        ).trajectory()
        scene = generate_scene(11, 96, 96, 48, 48, 6, traj, spec)
        frames_dir = tmp_path / "frames"
        flows_dir = tmp_path / "flows"
        for i in range(6):
            write_grid(frames_dir / f"frame_{i:04d}.s2sg", scene.frame(i))
        chain = build_reference_chain(scene.frames(), 4)
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

    def test_flow_failure_names_the_pair(self, tmp_path):
        # no valid cell: nothing to complete the band from
        err, summary = run_with_bad_flow_1_to_0(tmp_path, FlowField(*np.zeros((3, 48, 48))))
        assert err.stage == "flows"
        assert "flow 1->0: " in str(err)
        assert isinstance(err.cause.__cause__, ValueError)
        assert summary["failed_stage"] == "flows"
        assert summary["error"] == "flow 1->0: flow completion needs at least one known cell"


class TestBenchmark:
    def test_small_grid_ordering_and_trend(self, tmp_path):
        reports = run_benchmark(
            seed=5, n_values=(8, 12), m_values=(2, 3, 4), scene_kind="static",
            out_csv=tmp_path / "bench.csv",
        )
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
        reports = run_benchmark(seed=5, n_values=(6,), m_values=(1,), scene_kind="static")
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
        [report] = run_benchmark(seed=5, n_values=(6,), m_values=(3,), scene_kind="pan")
        [held] = staged
        grids = held.frames + held.gt_expanded + held.latents + [r.latent for r in held.results]
        flows = held.flows.values()
        assert report.peak_live_bytes == sum(g.data.nbytes for g in grids) + sum(
            f.u.nbytes + f.v.nbytes + f.valid.nbytes for f in flows
        )


class TestCyclicPanRedundancy:
    def test_similarity_chain_avoids_redundant_references(self):
        # period-4 cycle with stride 8 makes fixed-stride pick identical views
        spec = CanvasSpec(24, 24, 24, 32, 0, 8, downsample=2)
        traj = SceneConfig(
            kind="pan_cycle", start_y=8.0, start_x=8.0, delta_x=3.0, period=4,
        ).trajectory()
        scene = generate_scene(21, 48, 64, 24, 24, 17, traj, spec)
        frames = scene.frames()
        grays = [to_grayscale(f) for f in frames]

        fixed = fixed_stride_chain(17, 8)
        fixed_scores = [
            ssim_structure_score(grays[a], grays[b])
            for a, b in zip(fixed.indices, fixed.indices[1:])
        ]
        assert max(fixed_scores) > 0.999  # stride lands on the same view

        chain = build_reference_chain(frames, 8)
        chain_scores = [
            ssim_structure_score(grays[a], grays[b])
            for a, b in zip(chain.indices, chain.indices[1:])
        ]
        assert max(chain_scores) <= 0.999
