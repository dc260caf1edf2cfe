"""The benchmark's workloads: what each one runs and why it was chosen.

Every workload runs ``outpaint.pipeline.run_pipeline`` with window m=4.  The
inputs are a synthetic scene built from the workload seed: either described
inline in the config (the pipeline generates it) or written to S2SG files
during set-up (the pipeline only sees the files).  This module is pure data
and imports neither numpy nor outpaint, because the parent process must stay
small (see run.py).

Layer shares quoted below were measured at the seed on a 2-CPU machine; they
are the expectation each workload was chosen for, not a gate.

Which end-to-end metric a change to each layer should move, written down
before any optimisation (per-layer names as in BENCHMARK.json):

- ``metrics.*`` and ``refselect.*`` (both use the windowed SSIM moments):
  ``run_s`` on paper_pan; ``run_s`` and ``peak_rss_mb`` on hires_files;
  ``run_s`` by the chain's share only on files_sample.
- ``flow.complete_flow_laplacian``: ``run_s`` on files_sample and
  hires_files; no change on paper_pan, whose constant flows converge at
  the initial guess.
- ``propagation.pulls``, ``useful_pull_ratio``, ``flow.backward_warp`` and
  ``flow.compose_accumulated``: ``run_s`` most on paper_pan, less on
  files_sample, little on hires_files.
- ``diffusion.*``: ``run_s`` on files_sample only.
- ``grids.read_grid.*``: ``run_s`` on the two file workloads only.
- ``memory.tracemalloc_peak_mb``: ``peak_rss_mb``, most on hires_files.
- Import-time work: ``setup_s`` on every workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

WINDOW = 4

# Paths inside a workload's work directory.  They are relative so that
# config.json, and with it the artifact digest, does not depend on where the
# checkout lives.
OUT_DIR = "out"
FRAMES_DIR = "inputs/frames"
FLOWS_DIR = "inputs/flows"

# Peak amplitude, in pixels, of the smooth perturbation added to the true
# flow of file-driven workloads.  Real estimated flows are not constant, and
# non-constant flows are what make Laplacian completion iterate.
FLOW_JITTER_PX = 0.3


@dataclass(frozen=True)
class Workload:
    name: str
    canvas: dict
    scene: dict
    from_files: bool = False
    # The translation oracle holds: exact flows and a pan of whole latent
    # cells, so every covered cell must equal the ground-truth latent.
    oracle: bool = False
    # Pipeline config keys that differ from the defaults (propagate mode).
    options: dict = field(default_factory=dict)

    @property
    def n_frames(self) -> int:
        return self.scene["n_frames"]

    def config(self, seed: int) -> dict:
        """The pipeline config for ``seed``, with paths relative to the
        workload's work directory."""
        config = {
            "seed": seed,
            "canvas": dict(self.canvas),
            "window": WINDOW,
            "out_dir": OUT_DIR,
            "write_timings": True,
            **self.options,
        }
        if self.from_files:
            config["inputs"] = {"frames_dir": FRAMES_DIR, "flows_dir": FLOWS_DIR}
        else:
            config["scene"] = dict(self.scene)
        return config


def _canvas(orig_h, orig_w, canvas_w, offset_x, s):
    return {
        "orig_h": orig_h, "orig_w": orig_w, "canvas_h": orig_h, "canvas_w": canvas_w,
        "offset_y": 0, "offset_x": offset_x, "downsample": s,
    }


def _scene(canvas, n_frames, kind, delta_x, travel, period=4):
    """A scene whose world is exactly wide enough for the expanded crop to
    travel ``travel`` pixels to the right of its start."""
    return {
        "world_h": canvas["canvas_h"], "world_w": canvas["canvas_w"] + travel,
        "n_frames": n_frames, "kind": kind, "start_y": 0.0,
        "start_x": float(canvas["offset_x"]), "delta_x": delta_x, "period": period,
    }


_PAPER_CANVAS = _canvas(96, 96, 128, 16, 4)
_HIRES_CANVAS = _canvas(240, 320, 448, 64, 8)

WORKLOADS = {
    w.name: w
    for w in (
        # The paper's operating point.  4 px per frame is one latent cell, so
        # the translation oracle holds; flows are constant, so completion
        # converges at its seed value.  Seed-time split: metrics.ssim_full
        # 65%, refselect 17%, propagation 12% (1311 pulls, 1173 composes).
        # Exercises windowed moments and pulling; bypasses completion and
        # diffusion.
        Workload(
            name="paper_pan",
            canvas=_PAPER_CANVAS,
            scene=_scene(_PAPER_CANVAS, 70, "pan", 4.0, 69 * 4),
            oracle=True,
        ),
        # Same canvas and length, from files.  A returning pan (period 8,
        # 2 px per frame) brings far references back into view, perturbed
        # flows make completion iterate, and sample mode runs the sliding
        # window sampler.  No ground truth on disk, so no metrics stage.
        # Seed-time split: propagate ~50% (completion ~2.5 s), refselect
        # ~25%, diffusion ~17%, plus S2SG reads.
        Workload(
            name="files_sample",
            canvas=_PAPER_CANVAS,
            scene=_scene(_PAPER_CANVAS, 70, "pan_cycle", 2.0, 16, period=8),
            from_files=True,
            options={
                "mode": "sample", "denoiser": "zero", "timesteps": 100,
                "sampler_window": 25, "sampler_stride": 12,
            },
        ),
        # Large frames: chain selection and its ~64x-frame-size moment
        # temporaries dominate time and memory; this is where bounding
        # memory shows in peak_rss_mb.  Seed-time split: refselect ~57%,
        # completion ~30%.
        Workload(
            name="hires_files",
            canvas=_HIRES_CANVAS,
            scene=_scene(_HIRES_CANVAS, 24, "pan_cycle", 4.0, 32, period=8),
            from_files=True,
        ),
    )
}
