import json
import re
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest

from outpaint.cli import main
from outpaint.grids import BinaryMask, ChannelGrid, FlowField, read_grid, write_grid
from outpaint.pipeline import PipelineConfig


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


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def synth_args(tmp_path, out):
    """synth of the 6-frame scene of ``pipeline_config``."""
    cfg = write_config(tmp_path / "synth-config.json", pipeline_config(tmp_path / "run"))
    return ["synth", "--config", cfg, "--out", str(out)]


def files_config(frames_dir, flows_dir, out_dir, window=4):
    """``pipeline_config`` reading its frames and flows from files; chain
    reads no flows, so for chain ``flows_dir`` need not exist."""
    cfg = pipeline_config(out_dir, mode_extra={"window": window})
    del cfg["scene"]
    cfg["inputs"] = {"frames_dir": str(frames_dir), "flows_dir": str(flows_dir)}
    return cfg


def inputs_config(scene_dir, out_dir):
    """A config reading the frames synth wrote to ``scene_dir``, with the
    scene's true flow for every ordered pair written to ``scene_dir/flows``."""
    scene_cfg = PipelineConfig.from_dict(json.loads((scene_dir / "config.json").read_text()))
    scene = scene_cfg.scene.build(scene_cfg.seed, scene_cfg.canvas)
    for a in range(scene.num_frames):
        for b in range(scene.num_frames):
            if a != b:
                write_grid(scene_dir / "flows" / f"flow_{a:04d}_to_{b:04d}.s2sg", scene.gt_flow(a, b))
    return files_config(scene_dir / "frames", scene_dir / "flows", out_dir)


class TestSynthAndChain:
    def test_synth_writes_scene(self, tmp_path, capsys):
        assert main(synth_args(tmp_path, tmp_path / "scene")) == 0
        assert (tmp_path / "scene" / "world.s2sg").exists()
        assert (tmp_path / "scene" / "frames" / "frame_0005.s2sg").exists()
        assert (tmp_path / "scene" / "gt" / "gt_0000.s2sg").exists()
        meta = json.loads((tmp_path / "scene" / "config.json").read_text())
        assert meta["scene"]["n_frames"] == 6

    def test_synth_deterministic(self, tmp_path):
        main(synth_args(tmp_path, tmp_path / "a"))
        main(synth_args(tmp_path, tmp_path / "b"))
        a = (tmp_path / "a" / "frames" / "frame_0002.s2sg").read_bytes()
        b = (tmp_path / "b" / "frames" / "frame_0002.s2sg").read_bytes()
        assert a == b

    @pytest.mark.parametrize("seed_flag", [None, 21])
    def test_synth_writes_the_config_scene(self, tmp_path, seed_flag):
        argv = synth_args(tmp_path, tmp_path / "scene")
        if seed_flag is not None:
            argv += ["--seed", str(seed_flag)]
        assert main(argv) == 0
        written = PipelineConfig.from_dict(json.loads((tmp_path / "scene" / "config.json").read_text()))
        assert written.seed == (13 if seed_flag is None else seed_flag)
        scene = written.scene.build(written.seed, written.canvas)
        # the grids the scene builds, through the same writer
        expected = {"world.s2sg": scene.world}
        for i in range(scene.num_frames):
            expected[f"frames/frame_{i:04d}.s2sg"] = scene.frame(i)
            expected[f"gt/gt_{i:04d}.s2sg"] = scene.gt_expanded(i)
        for name, grid in expected.items():
            write_grid(tmp_path / "expected" / name, grid)
        written_files = sorted(
            str(p.relative_to(tmp_path / "scene")) for p in (tmp_path / "scene").rglob("*.s2sg")
        )
        assert written_files == sorted(expected)
        for name in expected:
            assert (tmp_path / "scene" / name).read_bytes() == (tmp_path / "expected" / name).read_bytes()

    def test_synth_replaces_the_frames_of_a_longer_scene(self, tmp_path, capsys):
        out = tmp_path / "scene"
        cfg = pipeline_config(tmp_path / "run")
        cfg["scene"]["n_frames"] = 16
        long_cfg = write_config(tmp_path / "long.json", cfg)
        assert main(["synth", "--config", long_cfg, "--out", str(out)]) == 0
        (out / "notes.txt").write_text("kept")
        cfg["scene"]["n_frames"] = 6
        short_cfg = write_config(tmp_path / "short.json", cfg)
        assert main(["synth", "--config", short_cfg, "--out", str(out)]) == 0
        assert len(list((out / "frames").iterdir())) == 6
        assert len(list((out / "gt").iterdir())) == 6
        assert (out / "notes.txt").read_text() == "kept"
        capsys.readouterr()
        frames_cfg = files_config(out / "frames", tmp_path / "no-flows", tmp_path / "run")
        assert main(["chain", "--config", write_config(tmp_path / "frames.json", frames_cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["num_frames"] == 6

    def test_chain_from_synth_config(self, tmp_path, capsys):
        main(synth_args(tmp_path, tmp_path / "scene"))
        assert main(["chain", "--config", str(tmp_path / "scene" / "config.json")]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["window"] == 4
        assert payload["indices"][0] == 0
        assert payload["indices"][-1] == 5

    def test_chain_config_matches_propagate(self, tmp_path, capsys):
        # a scene config, and an inputs config reading the same frames from files
        main(synth_args(tmp_path, tmp_path / "scene"))
        scene_cfg = pipeline_config(tmp_path / "scene-run", mode_extra={"window": 3})
        files_cfg = inputs_config(tmp_path / "scene", tmp_path / "files-run")
        files_cfg["window"] = 3
        for name, cfg in (("scene", scene_cfg), ("files", files_cfg)):
            cfg_path = write_config(tmp_path / f"{name}.json", cfg)
            assert main(["propagate", "--config", cfg_path]) == 0
            chain_json = Path(cfg["out_dir"]) / "chain.json"
            capsys.readouterr()
            assert main(["chain", "--config", cfg_path]) == 0
            assert json.loads(capsys.readouterr().out) == json.loads(chain_json.read_text())
            assert main(["chain", "--config", cfg_path, "--out", str(tmp_path / f"{name}-chain.json")]) == 0
            assert (tmp_path / f"{name}-chain.json").read_bytes() == chain_json.read_bytes()

    def test_chain_window_flag(self, tmp_path, capsys):
        # the window is the config's: chain has no --window, and no frame
        # reader without a config
        cfg_path = write_config(
            tmp_path / "config.json", pipeline_config(tmp_path / "run", mode_extra={"window": 3})
        )
        assert main(["chain", "--config", cfg_path]) == 0
        assert json.loads(capsys.readouterr().out)["window"] == 3
        for argv in (
            ["--config", cfg_path, "--window", "2"],
            ["--frames-dir", str(tmp_path)],
        ):
            with pytest.raises(SystemExit) as exc:
                main(["chain", *argv])
            assert exc.value.code == 2
        zero_window = write_config(
            tmp_path / "zero.json", pipeline_config(tmp_path / "run", mode_extra={"window": 0})
        )
        assert main(["chain", "--config", zero_window]) == 2

    def test_synth_malformed_config_exits_2(self, tmp_path, capsys):
        float_size = pipeline_config(tmp_path / "run")
        float_size["canvas"]["orig_h"] = 48.0
        float_seed = pipeline_config(tmp_path / "run", seed=13.5)
        float_period = pipeline_config(tmp_path / "run")
        float_period["scene"].update(kind="pan_cycle", period=2.5)
        # every default: the crop starts at (0, 0), so the band leaves the world
        escaping_scene = pipeline_config(tmp_path / "run")
        escaping_scene["scene"] = {}
        inputs_only = pipeline_config(tmp_path / "run")
        del inputs_only["scene"]
        inputs_only["inputs"] = {
            "frames_dir": str(tmp_path / "frames"), "flows_dir": str(tmp_path / "flows"),
        }
        for cfg in (float_size, float_seed, float_period, escaping_scene, inputs_only):
            cfg_path = write_config(tmp_path / "config.json", cfg)
            assert main(["synth", "--config", cfg_path, "--out", str(tmp_path / "scene")]) == 2
            assert capsys.readouterr().err.startswith("error: ")
            assert not (tmp_path / "scene").exists()
            assert not (tmp_path / "run").exists()

    def test_chain_from_frames_dir(self, tmp_path, capsys):
        main(synth_args(tmp_path, tmp_path / "scene"))
        cfg = files_config(
            tmp_path / "scene" / "frames", tmp_path / "no-flows", tmp_path / "run", window=3
        )
        cfg_path = write_config(tmp_path / "config.json", cfg)
        out_file = tmp_path / "chain.json"
        assert main(["chain", "--config", cfg_path, "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["window"] == 3
        assert payload["num_frames"] == 6

    def chain_frames(self, tmp_path, frames_dir, capsys):
        """Exit code and stderr of chain on a config reading ``frames_dir``."""
        cfg = files_config(frames_dir, tmp_path / "no-flows", tmp_path / "run", window=3)
        capsys.readouterr()
        code = main(["chain", "--config", write_config(tmp_path / "config.json", cfg)])
        return code, capsys.readouterr().err

    def test_chain_empty_dir_is_config_error(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        code, err = self.chain_frames(tmp_path, tmp_path / "empty", capsys)
        assert code == 2
        assert err == f"error: no frame_*.s2sg files in {tmp_path / 'empty'}\n"

    def test_chain_flow_grid_in_frames_dir_is_config_error(self, tmp_path, capsys):
        write_grid(tmp_path / "flow" / "frame_0000.s2sg", FlowField.constant(48, 48, 1.0, 0.0))
        # frame_0001 is missing
        for i in (0, 2):
            write_grid(tmp_path / "gap" / f"frame_{i:04d}.s2sg", ChannelGrid(np.zeros((3, 48, 48))))
        for bad, message in (
            ("flow", f"{tmp_path / 'flow' / 'frame_0000.s2sg'} is not a channel grid"),
            ("gap", f"{tmp_path / 'gap'} has 2 frame files but no frame_0001.s2sg"),
        ):
            code, err = self.chain_frames(tmp_path, tmp_path / bad, capsys)
            assert code == 2
            assert err == f"error: {message}\n"

    def test_chain_names_a_mis_sized_frame(self, tmp_path, capsys):
        main(synth_args(tmp_path, tmp_path / "scene"))
        path = tmp_path / "scene" / "frames" / "frame_0003.s2sg"
        write_grid(path, ChannelGrid(read_grid(path).data[:, :40]))
        code, err = self.chain_frames(tmp_path, tmp_path / "scene" / "frames", capsys)
        assert code == 2
        assert err == f"error: {path} is 40x48, expected 48x48\n"


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

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        no_canvas = pipeline_config(tmp_path / "run")
        del no_canvas["canvas"]
        bad_sampler = pipeline_config(tmp_path / "run", mode_extra={"sampler_stride": 0})
        bogus_scene = pipeline_config(tmp_path / "run")
        bogus_scene["scene"]["kind"] = "bogus"
        # a still camera is a pan with zero deltas; "static" is not a kind
        static_scene = pipeline_config(tmp_path / "run")
        static_scene["scene"]["kind"] = "static"
        int_frames_dir = pipeline_config(tmp_path / "run")
        del int_frames_dir["scene"]
        int_frames_dir["inputs"] = {"frames_dir": 5, "flows_dir": str(tmp_path / "flows")}
        float_size = pipeline_config(tmp_path / "run")
        float_size["canvas"]["orig_h"] = 48.0
        # an empty scene is a scene (all defaults), so it clashes with inputs
        empty_scene_and_inputs = pipeline_config(tmp_path / "run")
        empty_scene_and_inputs["scene"] = {}
        empty_scene_and_inputs["inputs"] = {
            "frames_dir": str(tmp_path / "frames"), "flows_dir": str(tmp_path / "flows"),
        }
        float_frames = pipeline_config(tmp_path / "run")
        float_frames["scene"]["n_frames"] = 4.0
        nan_start = pipeline_config(tmp_path / "run")
        nan_start["scene"]["start_x"] = float("nan")
        # every default: the crop starts at (0, 0), so the band leaves the world
        escaping_scene = pipeline_config(tmp_path / "run")
        escaping_scene["scene"] = {}
        no_frames = pipeline_config(tmp_path / "run")
        no_frames["scene"]["n_frames"] = 0
        int_kind = pipeline_config(tmp_path / "run")
        int_kind["scene"]["kind"] = 5
        cfg_path = tmp_path / "config.json"
        integer_edits = [
            ("propagate", {"window": 4.0}),
            ("propagate", {"window": True}),
            ("propagate", {"seed": 1.5}),
            ("propagate", {"seed": -1}),
            ("sample", {"timesteps": 5.0}),
            ("sample", {"sampler_window": 25.0}),
            ("sample", {"sampler_stride": 12.0}),
        ]
        # propagate mode ignores the sampler fields' ranges, not their types
        type_edits = [
            {"denoiser": 5}, {"out_dir": 5}, {"write_timings": "no"},
            {"timesteps": "abc"}, {"sampler_window": 2.5}, {"sampler_stride": None},
        ]
        # rejected with the config, not left to fail at `sample`
        nan_denoiser = pipeline_config(tmp_path / "run", mode_extra={"denoiser": "constant:nan"})
        for command, cfg in (
            ("propagate", no_canvas),
            ("propagate", [pipeline_config(tmp_path / "run")]),
            ("sample", bad_sampler),
            ("propagate", bogus_scene),
            ("propagate", static_scene),
            ("propagate", int_frames_dir),
            ("propagate", float_size),
            ("propagate", empty_scene_and_inputs),
            ("propagate", float_frames),
            ("propagate", nan_start),
            ("propagate", escaping_scene),
            ("propagate", no_frames),
            ("propagate", int_kind),
            ("sample", nan_denoiser),
            *[(command, pipeline_config(tmp_path / "run", mode_extra=edit)) for command, edit in integer_edits],
            *[("propagate", pipeline_config(tmp_path / "run", mode_extra=edit)) for edit in type_edits],
        ):
            cfg_path.write_text(json.dumps(cfg))
            # sample needs --seed; propagate keeps the config's, so a bad one shows
            seed_flag = ["--seed", "13"] if command == "sample" else []
            assert main([command, "--config", str(cfg_path), *seed_flag]) == 2
            # rejected before any stage ran
            assert not (tmp_path / "run").exists()
        # true would pan 1 px, a string or null is no coordinate, and 10**400
        # fits no float; the message names the field
        for name, value in (("delta_x", True), ("start_x", "16"), ("start_y", None), ("delta_y", 10**400)):
            cfg = pipeline_config(tmp_path / "run")
            cfg["scene"][name] = value
            cfg_path.write_text(json.dumps(cfg))
            capsys.readouterr()
            assert main(["propagate", "--config", str(cfg_path)]) == 2
            assert f"{name} must be a finite real number" in capsys.readouterr().err
            assert not (tmp_path / "run").exists()

    def test_configs_a_stage_would_reject_exit_2(self, tmp_path, capsys):
        def tiny(n_frames):
            # 4x4 frames on a 4x8 canvas: the chain scores frames once it has
            # more than `window` (4), and metrics score every canvas
            return {
                "seed": 0,
                "canvas": {"orig_h": 4, "orig_w": 4, "canvas_h": 4, "canvas_w": 8, "offset_y": 0, "offset_x": 4},
                "scene": {"world_h": 16, "world_w": 16, "n_frames": n_frames, "start_x": 4.0},
                "out_dir": str(tmp_path / "run"),
            }

        oracle_without_truth = files_config(tmp_path / "frames", tmp_path / "flows", tmp_path / "run")
        oracle_without_truth["denoiser"] = "oracle"
        cfg_path = tmp_path / "config.json"
        for command, cfg, message in (
            ("propagate", tiny(8), "frames are 4x4, smaller than the 8x8 SSIM window"),
            ("propagate", tiny(3), "canvas is 4x8, smaller than the 8x8 SSIM window"),
            ("sample", oracle_without_truth, "oracle denoiser needs ground truth"),
        ):
            cfg_path.write_text(json.dumps(cfg))
            capsys.readouterr()
            assert main([command, "--config", str(cfg_path), "--seed", "13"]) == 2
            assert message in capsys.readouterr().err
            assert not (tmp_path / "run").exists()

    def test_stage_failure_exits_3(self, tmp_path):
        scene_dir = tmp_path / "scene"
        main(synth_args(tmp_path, scene_dir))
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

    def test_failed_write_exits_3(self, tmp_path):
        cfg = pipeline_config(
            tmp_path / "run", mode_extra={"denoiser": "constant:1e300", "timesteps": 5}
        )
        cfg_path = write_config(tmp_path / "config.json", cfg)
        assert main(["sample", "--config", cfg_path, "--seed", "13"]) == 3
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["status"] == "incomplete"
        assert summary["failed_stage"] == "write"

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


    def test_bench_without_frames_exits_2(self, tmp_path):
        assert main(["bench", "--seed", "1", "--out-dir", str(tmp_path / "bench"), "--n", "0"]) == 2
        assert not (tmp_path / "bench").exists()


SCENE_EDITS = {
    "no canvas": lambda raw: raw.pop("canvas"),
    "unknown trajectory key": lambda raw: raw["scene"].update(speed=1.0),
    "float n_frames": lambda raw: raw["scene"].update(n_frames=4.0),
}


@pytest.mark.parametrize("case", [*SCENE_EDITS, "chain --config dir", "--config dir", "--ref dir"])
def test_malformed_input_exits_2(tmp_path, capsys, case):
    main(synth_args(tmp_path, tmp_path / "scene"))
    scene_config = tmp_path / "scene" / "config.json"
    frame = str(tmp_path / "scene" / "frames" / "frame_0000.s2sg")
    argv = {
        "chain --config dir": ["chain", "--config", str(tmp_path)],
        "--config dir": ["propagate", "--config", str(tmp_path)],
        "--ref dir": ["metrics", "--ref", str(tmp_path), "--test", frame],
    }.get(case)
    if argv is None:
        raw = json.loads(scene_config.read_text())
        SCENE_EDITS[case](raw)
        scene_config.write_text(json.dumps(raw))
        argv = ["chain", "--config", str(scene_config)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
        write_grid(tmp_path / "flow.s2sg", FlowField.constant(8, 8, 0.0, 0.0))
        write_grid(tmp_path / "mask.s2sg", BinaryMask(np.zeros((8, 8))))
        # kind 0 is no grid kind: a one-plane value grid is a one-channel ChannelGrid
        (tmp_path / "kind0.s2sg").write_bytes(b"S2SG" + struct.pack("<HBIII", 1, 0, 1, 8, 8) + bytes(256))
        for other in ("flow.s2sg", "mask.s2sg", "kind0.s2sg"):
            assert main(["metrics", "--ref", str(tmp_path / "a.s2sg"), "--test", str(tmp_path / other)]) == 2


def _fenced_block(text, heading, lang):
    """The first ```lang block after ``heading`` in ``text``."""
    section = text[text.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_readme_cli_walkthrough(tmp_path, monkeypatch, capsys):
    """The README's CLI block, run on its config block in an empty
    directory: every command exits 0.  bench is left out; TestBenchCommand
    runs it on a small grid."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (tmp_path / "config.json").write_text(_fenced_block(readme, "### Pipeline config", "json"))
    commands = [
        shlex.split(line)[1:]
        for line in _fenced_block(readme, "## CLI", "bash").splitlines()
        if line.startswith("outpaint ")
    ]
    run = [argv for argv in commands if argv[0] != "bench"]
    assert [argv[0] for argv in run] == ["synth", "chain", "propagate", "sample", "metrics"]
    monkeypatch.chdir(tmp_path)
    for argv in run:
        assert main(argv) == 0, argv
    capsys.readouterr()
