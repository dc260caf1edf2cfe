"""Child-process side of the benchmark; run.py starts one per step.

    python3 child.py {prepare|setup|run} REQUEST.json RESULT.json LAUNCHED_NS

The child runs in the workload's work directory with the checkout's ``src``
on PYTHONPATH.  ``LAUNCHED_NS`` is the parent's ``time.monotonic_ns()`` just
before it started this process, so set-up time counts interpreter start-up.

- ``prepare`` writes the inputs of a file-driven workload (outside timing).
- ``setup`` imports outpaint and validates the config, and stops there.
- ``run`` does the same, then times one ``run_pipeline`` call, untraced or
  traced (``"spans"`` or ``"memory"``, see tracing.py), and afterwards
  checks the propagated latents against the scene.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from pathlib import Path


def _scene(request):
    from outpaint.grids import CanvasSpec
    from outpaint.pipeline import SceneConfig
    from outpaint.synthetic import generate_scene

    spec = CanvasSpec(**request["config"]["canvas"])
    sc = SceneConfig(**request["scene"])
    scene = generate_scene(
        request["seed"], sc.world_h, sc.world_w, spec.orig_h, spec.orig_w,
        sc.n_frames, sc.trajectory(), spec,
    )
    return scene, spec


def _jitter(seed: int, a: int, b: int, h: int, w: int):
    """A smooth (u, v) perturbation with peak FLOW_JITTER_PX, fixed by the
    seed and the flow pair."""
    import numpy as np
    from outpaint.seeding import seeded_generator
    from workloads import FLOW_JITTER_PX

    rng = seeded_generator(seed, f"perfbench-flow-{a}-{b}")
    ys, xs = np.mgrid[0:h, 0:w] / np.array([h, w])[:, None, None]
    planes = []
    for _ in range(2):
        fy, fx = rng.uniform(0.5, 2.0, size=2)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        planes.append(FLOW_JITTER_PX * np.sin(2.0 * math.pi * (fy * ys + fx * xs) + phase))
    return planes


def prepare(request) -> dict:
    """Write frames and exactly the flow pairs the pipeline will need: the
    true flow plus a smooth perturbation."""
    from outpaint.grids import FlowField, read_grid, write_grid
    from outpaint.propagation import required_flow_pairs
    from outpaint.refselect import build_reference_chain

    scene, spec = _scene(request)
    inputs = request["config"]["inputs"]
    frames_dir, flows_dir = Path(inputs["frames_dir"]), Path(inputs["flows_dir"])
    paths = []
    for i in range(scene.num_frames):
        paths.append(frames_dir / f"frame_{i:04d}.s2sg")
        write_grid(paths[-1], scene.frame(i))
    # the chain the pipeline will select from the float32 frames it reads
    chain = build_reference_chain([read_grid(p) for p in paths], request["config"]["window"])
    pairs = sorted(required_flow_pairs(chain, scene.num_frames))
    for a, b in pairs:
        true = scene.gt_flow(a, b)
        du, dv = _jitter(request["seed"], a, b, spec.orig_h, spec.orig_w)
        write_grid(
            flows_dir / f"flow_{a:04d}_to_{b:04d}.s2sg",
            FlowField(true.u + du, true.v + dv, true.valid),
        )
    return {"chain_len": len(chain), "flow_pairs": len(pairs)}


def check_outputs(request) -> dict:
    """Coverage and PSNR of the outpaint band of the propagated latents
    against the ground-truth latents of the scene, and the largest error
    on covered band cells (the translation oracle's quantity)."""
    import numpy as np
    from outpaint.grids import downscale_mask, make_outpaint_mask, read_grid
    from outpaint.synthetic import stand_in_encode

    scene, spec = _scene(request)
    s = spec.downsample
    band = downscale_mask(make_outpaint_mask(spec), s).data == 1.0
    out = Path(request["config"]["out_dir"]) / "propagated"
    fractions, sq_err, count, max_err = [], 0.0, 0, 0.0
    for i in range(scene.num_frames):
        latent = read_grid(out / f"latent_{i:04d}.s2sg").data
        cells = band & (read_grid(out / f"coverage_{i:04d}.s2sg").data == 1.0)
        fractions.append(cells.sum() / band.sum())
        err = latent[:, cells] - stand_in_encode(scene.gt_expanded(i), s).data[:, cells]
        if err.size:
            sq_err += float((err * err).sum())
            count += err.size
            max_err = max(max_err, float(np.abs(err).max()))
    return {
        "coverage_frac": float(np.mean(fractions)),
        "outpaint_psnr_db": 10.0 * math.log10(count / sq_err) if sq_err else math.inf,
        "band_max_err": max_err,
    }


def run(request, config) -> dict:
    from outpaint.pipeline import run_pipeline

    tracer = None
    if request["trace"]:
        from tracing import ROOT, Tracer

        tracer = Tracer(memory=request["trace"] == "memory")
        tracer.install()
        run_pipeline = tracer.wrap(ROOT, run_pipeline)
    start = time.perf_counter()
    try:
        summary = run_pipeline(config)
    finally:
        if tracer is not None:
            tracer.uninstall()
    run_s = time.perf_counter() - start
    # ru_maxrss is KiB on Linux.  It also covers the parent's high-water
    # mark at the time of the exec, which is why run.py stays small.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"run_s": run_s, "peak_rss_mb": peak_rss_mb, "status": summary["status"]}
    result.update(check_outputs(request))
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.spans
    return result


def main(argv) -> int:
    command, request_path, result_path, launched_ns = argv[1:]
    request = json.loads(Path(request_path).read_text())

    import numpy
    import outpaint
    from outpaint.pipeline import PipelineConfig

    config = PipelineConfig.from_dict(request["config"])
    setup_s = (time.monotonic_ns() - int(launched_ns)) / 1e9
    src = Path(request["src"]).resolve()
    if src not in Path(outpaint.__file__).resolve().parents:
        raise RuntimeError(f"imported outpaint from {outpaint.__file__}, not from {src}")

    result = {"setup_s": setup_s, "numpy": numpy.__version__}
    if command == "prepare":
        result.update(prepare(request))
    elif command == "run":
        result.update(run(request, config))
    elif command != "setup":
        raise ValueError(f"unknown command {command!r}")
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
