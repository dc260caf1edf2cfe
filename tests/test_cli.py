import json

import numpy as np
import pytest

from outpaint.cli import main
from outpaint.grids import BinaryMask, ChannelGrid, FlowField, write_grid


def synth_args(out, seed=13, frames=6):
    return [
        "synth", "--seed", str(seed), "--out", str(out),
        "--world-h", "96", "--world-w", "96",
        "--crop-h", "48", "--crop-w", "48",
        "--canvas-h", "48", "--canvas-w", "64",
        "--offset-x", "16", "--downsample", "2",
        "--frames", str(frames),
        "--trajectory", "pan", "--start-y", "24", "--start-x", "16", "--delta-x", "2",
    ]


def pipeline_config(out_dir, seed=13, mode_extra=None):
    cfg = {
        "seed": seed,
        "canvas": {
            "orig_h": 48, "orig_w": 48, "canvas_h": 48, "canvas_w": 64,
            "offset_y": 0, "offset_x": 16, "downsample": 2,
        },
        "scene": {
            "world_h": 96, "world_w": 96, "n_frames": 6, "kind": "pan",
            "start_y": 24.0, "start_x": 16.0, "delta_x": 2.0,
        },
        "out_dir": str(out_dir),
    }
    if mode_extra:
        cfg.update(mode_extra)
    return cfg


class TestSynthAndChain:
    def test_synth_writes_scene(self, tmp_path, capsys):
        assert main(synth_args(tmp_path / "scene")) == 0
        assert (tmp_path / "scene" / "world.s2sg").exists()
        assert (tmp_path / "scene" / "frames" / "frame_0005.s2sg").exists()
        assert (tmp_path / "scene" / "gt" / "gt_0000.s2sg").exists()
        meta = json.loads((tmp_path / "scene" / "scene.json").read_text())
        assert meta["n_frames"] == 6

    def test_synth_deterministic(self, tmp_path):
        main(synth_args(tmp_path / "a"))
        main(synth_args(tmp_path / "b"))
        a = (tmp_path / "a" / "frames" / "frame_0002.s2sg").read_bytes()
        b = (tmp_path / "b" / "frames" / "frame_0002.s2sg").read_bytes()
        assert a == b

    def test_chain_from_scene_json(self, tmp_path, capsys):
        main(synth_args(tmp_path / "scene"))
        assert main(["chain", "--scene", str(tmp_path / "scene" / "scene.json"), "--window", "4"]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["indices"][0] == 0
        assert payload["indices"][-1] == 5

    def test_chain_from_frames_dir(self, tmp_path, capsys):
        main(synth_args(tmp_path / "scene"))
        out_file = tmp_path / "chain.json"
        code = main([
            "chain", "--frames-dir", str(tmp_path / "scene" / "frames"),
            "--window", "3", "--out", str(out_file),
        ])
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["window"] == 3

    def test_chain_empty_dir_is_config_error(self, tmp_path):
        assert main(["chain", "--frames-dir", str(tmp_path), "--window", "3"]) == 2

    def test_chain_flow_grid_in_frames_dir_is_config_error(self, tmp_path):
        write_grid(tmp_path / "flow" / "frame_0000.s2sg", FlowField.constant(8, 8, 1.0, 0.0))
        # frame_0001 is missing
        for i in (0, 2):
            write_grid(tmp_path / "gap" / f"frame_{i:04d}.s2sg", ChannelGrid(np.zeros((3, 8, 8))))
        for bad in ("flow", "gap"):
            assert main(["chain", "--frames-dir", str(tmp_path / bad), "--window", "3"]) == 2


class TestPipelineCommands:
    def test_propagate(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(pipeline_config(tmp_path / "run")))
        assert main(["propagate", "--config", str(cfg_path)]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["status"] == "complete"
        assert (tmp_path / "run" / "propagated" / "latent_0000.s2sg").exists()

    def test_sample_requires_seed_flag(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(pipeline_config(tmp_path / "run")))
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--config", str(cfg_path)])
        assert exc.value.code == 2

    def test_sample_runs(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            json.dumps(pipeline_config(tmp_path / "run", mode_extra={"timesteps": 5}))
        )
        assert main(["sample", "--config", str(cfg_path), "--seed", "13"]) == 0
        assert (tmp_path / "run" / "sampled" / "latent_0000.s2sg").exists()

    def test_bad_config_exits_2(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg = pipeline_config(tmp_path / "run")
        del cfg["seed"]
        cfg_path.write_text(json.dumps(cfg))
        assert main(["propagate", "--config", str(cfg_path)]) == 2

    def test_malformed_config_exits_2(self, tmp_path):
        no_canvas = pipeline_config(tmp_path / "run")
        del no_canvas["canvas"]
        bad_sampler = pipeline_config(tmp_path / "run", mode_extra={"sampler_stride": 0})
        bogus_scene = pipeline_config(tmp_path / "run")
        bogus_scene["scene"]["kind"] = "bogus"
        cfg_path = tmp_path / "config.json"
        for command, cfg in (
            ("propagate", no_canvas),
            ("propagate", [pipeline_config(tmp_path / "run")]),
            ("sample", bad_sampler),
            ("propagate", bogus_scene),
        ):
            cfg_path.write_text(json.dumps(cfg))
            assert main([command, "--config", str(cfg_path), "--seed", "13"]) == 2
            # rejected before any stage ran
            assert not (tmp_path / "run").exists()

    def test_stage_failure_exits_3(self, tmp_path):
        scene_dir = tmp_path / "scene"
        main(synth_args(scene_dir))
        cfg = {
            "seed": 13,
            "canvas": {
                "orig_h": 48, "orig_w": 48, "canvas_h": 48, "canvas_w": 64,
                "offset_y": 0, "offset_x": 16, "downsample": 2,
            },
            "inputs": {
                "frames_dir": str(scene_dir / "frames"),
                "flows_dir": str(tmp_path / "no-flows"),
            },
            "out_dir": str(tmp_path / "run"),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["propagate", "--config", str(cfg_path)]) == 3
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["status"] == "incomplete"

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(pipeline_config(tmp_path / "run", seed=1)))
        assert main(["propagate", "--config", str(cfg_path), "--seed", "99"]) == 0
        written = json.loads((tmp_path / "run" / "config.json").read_text())
        assert written["seed"] == 99


class TestBenchCommand:
    def test_bench_writes_csv_and_json(self, tmp_path, capsys):
        code = main([
            "bench", "--seed", "3", "--out-dir", str(tmp_path / "bench"),
            "--n", "8", "--m", "2", "3",
        ])
        assert code == 0
        rows = (tmp_path / "bench" / "benchmark.csv").read_text().splitlines()
        assert len(rows) == 3  # header + two cells
        payload = json.loads((tmp_path / "bench" / "benchmark.json").read_text())
        assert len(payload) == 2
        assert all("wall_time_s" in cell for cell in payload)


class TestMetricsCommand:
    def test_metrics_identical(self, tmp_path, capsys):
        grid = ChannelGrid(np.random.default_rng(0).random((1, 12, 12)))
        write_grid(tmp_path / "a.s2sg", grid)
        assert main(["metrics", "--ref", str(tmp_path / "a.s2sg"), "--test", str(tmp_path / "a.s2sg")]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["psnr_db"] == "inf"
        assert payload["ssim"] == 1.0

    def test_metrics_bad_file(self, tmp_path):
        (tmp_path / "junk.s2sg").write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
        grid = ChannelGrid(np.zeros((1, 8, 8)))
        write_grid(tmp_path / "a.s2sg", grid)
        assert main(["metrics", "--ref", str(tmp_path / "a.s2sg"), "--test", str(tmp_path / "junk.s2sg")]) == 2
        # a well-formed grid of a kind the metrics do not take
        write_grid(tmp_path / "flow.s2sg", FlowField.zero(8, 8))
        write_grid(tmp_path / "mask.s2sg", BinaryMask(np.zeros((8, 8))))
        for other in ("flow.s2sg", "mask.s2sg"):
            assert main(["metrics", "--ref", str(tmp_path / "a.s2sg"), "--test", str(tmp_path / other)]) == 2
