"""Acceptance suite: one test per criterion, each printed as a pass line
with its stated tolerance and runtime budget pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from outpaint.diffusion import (
    ConstantDenoiser,
    NoiseSchedule,
    OracleDenoiser,
    forward_noise,
    make_schedule,
    plan_windows,
    reverse_sample,
    windowed_epsilon,
)
from outpaint.flow import complete_flow_laplacian
from outpaint.grids import CanvasSpec, ChannelGrid, FlowField, read_grid
from outpaint.pipeline import PipelineConfig, SceneConfig, run_benchmark, run_pipeline
from outpaint.propagation import propagate_sequence, required_flow_pairs
from outpaint.refselect import build_reference_chain, ssim_structure_score
from outpaint.seeding import seeded_generator
from outpaint.synthetic import generate_scene, stand_in_encode
from outpaint.grids import downscale_flow
from outpaint.flow import map_flow_to_canvas
from whole_canvas import compose_grid, warp_grid
from scene_frames import scene_frames


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, f"runtime {elapsed:.2f}s exceeds budget {self.seconds}s"
        return elapsed


def report(num: int, text: str, elapsed: float):
    print(f"[PASS] criterion {num:02d}: {text} ({elapsed:.2f}s)")


def test_criterion_01_warp_identity_and_inverse():
    budget = Budget(1.0)
    rng = seeded_generator(1, "acc1")
    src = ChannelGrid(rng.random((3, 128, 128)))

    out, mask = warp_grid(src, FlowField.constant(128, 128, 0.0, 0.0))
    assert np.max(np.abs(out.data - src.data)) == 0.0
    assert np.all(mask.data == 1.0)

    du, dv = 3, -2
    fwd, m1 = warp_grid(src, FlowField.constant(128, 128, du, dv))
    back, m2 = warp_grid(fwd, FlowField.constant(128, 128, -du, -dv))
    m1_back, _ = warp_grid(
        ChannelGrid(m1.data[None]), FlowField.constant(128, 128, -du, -dv)
    )
    both = (m2.data == 1.0) & (m1_back.data[0] == 1.0)
    assert both.sum() > 100 * 100
    assert np.array_equal(back.data[:, both], src.data[:, both])

    report(1, "zero-flow warp exact; integer inverse exact on doubly-valid cells", budget.check())


def test_criterion_02_flow_composition():
    budget = Budget(1.0)
    hops = [(1.0, 0.5), (0.5, -0.25), (-0.75, 1.0), (0.25, 0.25), (0.5, -0.5)]
    acc = FlowField.constant(64, 64, *hops[0])
    for du, dv in hops[1:]:
        acc = compose_grid(acc, FlowField.constant(64, 64, du, dv))
    ok = acc.valid == 1.0
    assert ok.any()
    assert np.max(np.abs(acc.u[ok] - sum(h[0] for h in hops))) < 1e-5
    assert np.max(np.abs(acc.v[ok] - sum(h[1] for h in hops))) < 1e-5

    rng = seeded_generator(2, "acc2")
    const = FlowField.constant(64, 64, 1.25, -2.5)
    through = FlowField(
        rng.uniform(-3, 3, (64, 64)), rng.uniform(-3, 3, (64, 64)), np.ones((64, 64))
    )
    # a flow warps through a flow as its stacked (u, v) planes
    warped, ok = warp_grid(ChannelGrid(np.stack([const.u, const.v])), through)
    valid = ok.data
    assert valid.any()
    assert np.all(warped.data[0][valid] == 1.25)
    assert np.all(warped.data[1][valid] == -2.5)

    report(2, "five constant hops accumulate within 1e-5; constant fields invariant", budget.check())


ORACLE_CANVAS = CanvasSpec(48, 48, 48, 64, 0, 16, downsample=2)
ORACLE_SCENE = SceneConfig(
    world_h=96, world_w=96, n_frames=16, kind="pan", start_y=24.0, start_x=16.0, delta_x=2.0
)


def test_criterion_03_translation_oracle_end_to_end(tmp_path):
    budget = Budget(5.0)
    cfg = PipelineConfig(
        seed=7, canvas=ORACLE_CANVAS, scene=ORACLE_SCENE, out_dir=str(tmp_path / "run")
    )
    run_pipeline(cfg)

    scene = generate_scene(7, 96, 96, 48, 48, 16, ORACLE_SCENE, ORACLE_CANVAS)
    chain = json.loads((tmp_path / "run" / "chain.json").read_text())["indices"]
    lat = ORACLE_CANVAS.latent()
    outpaint = np.ones((lat.canvas_h, lat.canvas_w), dtype=bool)
    ys, xs = lat.source_slices
    outpaint[ys, xs] = False

    covered_total = 0
    reachable_total = 0
    for i in range(16):
        latent = read_grid(tmp_path / "run" / "propagated" / f"latent_{i:04d}.s2sg")
        cov = read_grid(tmp_path / "run" / "propagated" / f"coverage_{i:04d}.s2sg").data == 1.0
        gt_latent = stand_in_encode(scene.gt_expanded(i), 2)
        cells = cov & outpaint
        if cells.any():
            diff = np.abs(latent.data[:, cells] - gt_latent.data[:, cells])
            assert diff.max() < 1e-6
        # analytic reachability of the trailing strip
        o_i = 16 + 2 * i
        for c in range(lat.offset_x):
            lo = o_i - 16 + 2 * c
            hi = lo + 2
            reachable = any(
                (16 + 2 * r) <= lo and hi <= (16 + 2 * r) + 48 for r in chain
            )
            if reachable:
                reachable_total += lat.canvas_h
                covered_total += int(cov[:, c].sum())
    assert reachable_total > 0
    assert covered_total >= 0.95 * reachable_total

    report(
        3,
        f"covered outpaint cells exact within 1e-6; strip coverage "
        f"{covered_total}/{reachable_total} reachable cells",
        budget.check(),
    )


def test_criterion_04_reference_chain_correctness():
    budget = Budget(30.0)
    rng = np.random.default_rng(99)
    base = ChannelGrid(rng.random((3, 12, 12)))
    chain = build_reference_chain([base] * 10, 4)
    assert chain.indices == (0, 4, 8, 9)

    stream = seeded_generator(424242, "acceptance-scenes")
    for _ in range(100):
        n = int(stream.integers(6, 20))
        delta = float(stream.integers(1, 4))
        sign = 1.0 if stream.random() < 0.5 else -1.0
        vertical = stream.random() < 0.3
        dy, dx = (sign * delta, 0.0) if vertical else (0.0, sign * delta)
        span = delta * (n - 1)
        start_y = 24.0 + (span if dy < 0 else 0)
        start_x = 24.0 + (span if dx < 0 else 0)
        world = int(48 + 24 + span + 8)
        spec = CanvasSpec(24, 24, 24, 32, 0, 8)
        traj = SceneConfig(kind="pan", start_y=start_y, start_x=start_x, delta_y=dy, delta_x=dx)
        scene = generate_scene(int(stream.integers(0, 2**31)), world, world, 24, 24, n, traj, spec)
        frames = scene_frames(scene)
        lengths = []
        for m in range(2, 8):
            c = build_reference_chain(frames, m)
            gaps = np.diff(c.indices)
            assert gaps.size == 0 or gaps.max() <= m
            lengths.append(len(c))
        assert lengths == sorted(lengths, reverse=True), f"chain lengths not monotone: {lengths}"

    report(4, "chain [0,4,8,9]; gaps <= m and L weakly decreasing in m on 100 scenes", budget.check())


def test_criterion_05_complexity_claim():
    budget = Budget(60.0)
    # measured counts on an identical-frame scene, N=48, m=4
    n = 48
    spec = CanvasSpec(16, 16, 16, 32, 0, 8, downsample=2)
    traj = SceneConfig(start_y=8.0, start_x=8.0)
    scene = generate_scene(5, 48, 48, 16, 16, n, traj, spec)
    frames = scene_frames(scene)
    chain = build_reference_chain(frames, 4)
    assert chain.indices == tuple(range(0, 45, 4)) + (47,)
    flows = {}
    for a, b in required_flow_pairs(chain, n):
        flow = downscale_flow(map_flow_to_canvas(scene.gt_flow(a, b), spec), 2)
        flows[(a, b)] = complete_flow_laplacian(flow)
    latents = [stand_in_encode(f, 2) for f in frames]
    pulls = sum(r.warp_count for r in propagate_sequence(latents, spec, chain, flows)[1])
    chain_len = len(chain)
    # dense per-frame accumulation pulls every other frame: N * (N-1)
    assert pulls <= 2 * n * (chain_len - 1)
    assert pulls <= 0.55 * n * (n - 1)
    assert pulls == chain_len * (n - 1)

    # ordering invariant on every benchmark cell of the full grid
    reports = run_benchmark(seed=5)
    assert len(reports) == 24
    for r in reports:
        r.verify()

    report(
        5,
        f"guided {pulls} <= {2 * n * (chain_len - 1)} and "
        f"<= 55% of sequential {n * (n - 1)}; ordering holds on 24 cells",
        budget.check(),
    )


def structure_oracle(a, b, win=8):
    c3 = (0.03**2) / 2.0
    n = win * win
    mu_a = sum(a.flat) / n
    mu_b = sum(b.flat) / n
    var_a = sum((x - mu_a) ** 2 for x in a.flat) / (n - 1)
    var_b = sum((x - mu_b) ** 2 for x in b.flat) / (n - 1)
    cov = sum((x - mu_a) * (y - mu_b) for x, y in zip(a.flat, b.flat)) / (n - 1)
    return (cov + c3) / (var_a**0.5 * var_b**0.5 + c3)


def test_criterion_06_ssim_structure_term():
    budget = Budget(30.0)
    rng = seeded_generator(6, "acc6")
    for _ in range(50):
        a = rng.random((8, 8))
        b = rng.random((8, 8))
        got = ssim_structure_score(a, b)
        assert abs(got - structure_oracle(a, b)) < 1e-9
        assert abs(ssim_structure_score(b, a) - got) < 1e-9
    a = rng.random((16, 16))
    assert abs(ssim_structure_score(a, a) - 1.0) < 1e-9

    report(6, "structure term matches brute-force covariance on 50 pairs within 1e-9", budget.check())


def test_criterion_07_diffusion_harness():
    budget = Budget(30.0)
    sched = make_schedule(1000)
    prod = 1.0
    for t in range(1, 1001):
        prod *= 1.0 - sched.beta[t - 1]
        assert abs(sched.alpha_bar_at(t) - prod) < 1e-12
    assert np.all(np.diff(sched.alpha_bar) < 0)

    # forward statistics at 1e4 draws
    stats_sched = NoiseSchedule(np.linspace(0.02, 0.1, 10))
    t = 6
    ab = stats_sched.alpha_bar_at(t)
    z0 = np.full((1, 1, 4, 4), 0.8)
    rng = seeded_generator(7, "acc7")
    draws = 10_000
    samples = np.empty((draws, 4, 4))
    for k in range(draws):
        eps = rng.standard_normal((1, 4, 4))[None]
        samples[k] = forward_noise(z0, t, eps, stats_sched)[0, 0]
    sigma = math.sqrt(1.0 - ab)
    assert np.all(
        np.abs(samples.mean(axis=0) - math.sqrt(ab) * 0.8) < 4.0 * sigma / math.sqrt(draws)
    )
    assert abs(samples.var() - (1.0 - ab)) < 0.05 * (1.0 - ab)

    # oracle reverse sampling over 50 steps
    sched50 = NoiseSchedule(np.linspace(1e-4, 0.05, 50))
    clean = np.stack([rng.standard_normal((2, 4, 4)) for _ in range(3)])
    cond = np.zeros((3, 2, 4, 4))
    out = reverse_sample(
        OracleDenoiser(clean, sched50), cond, sched50, seed=17, plan=plan_windows(3, 3, 3)
    )
    for got, want in zip(out, clean):
        assert np.max(np.abs(got - want)) < 1e-12

    report(7, "alpha-bar identity 1e-12; forward stats within 5%; oracle T=50 within 1e-12", budget.check())


def test_criterion_08_sliding_window_sampler():
    budget = Budget(10.0)
    plan = plan_windows(40, 25, 12)
    assert plan == ((0, 25), (12, 37), (24, 40))

    noisy = np.zeros((5, 1, 2, 2))
    cond = np.stack([np.full((1, 2, 2), float(i)) for i in range(5)])

    class StartIndex:
        def predict(self, noisy_slice, cond_slice, timestep, start):
            return np.full_like(noisy_slice, float(cond_slice[0].flat[0]))

    single = plan_windows(5, 25, 12)
    direct = StartIndex().predict(noisy, cond, 1, 0)
    averaged = windowed_epsilon(StartIndex(), noisy, cond, 1, single)
    for a, b in zip(direct, averaged):
        assert np.array_equal(a, b)

    noisy40 = np.zeros((40, 1, 2, 2))
    cond40 = np.stack([np.full((1, 2, 2), float(i)) for i in range(40)])
    const = windowed_epsilon(ConstantDenoiser(0.75), noisy40, cond40, 1, plan)
    assert all(np.all(g == 0.75) for g in const)

    overlap = windowed_epsilon(StartIndex(), noisy40, cond40, 1, plan)
    values = np.array([g.flat[0] for g in overlap])
    assert np.max(np.abs(values[12:24] - 6.0)) < 1e-12
    assert np.max(np.abs(values[25:37] - 18.0)) < 1e-12
    assert np.max(np.abs(values[24:25] - 12.0)) < 1e-12

    report(8, "plan anchors, single-window bit-exact, constant and overlap means exact", budget.check())


def test_criterion_09_pipeline_determinism(tmp_path):
    budget = Budget(30.0)
    cfg = PipelineConfig(
        seed=21,
        canvas=ORACLE_CANVAS,
        mode="sample",
        timesteps=8,
        scene=SceneConfig(
            world_h=96, world_w=96, n_frames=8, kind="pan",
            start_y=24.0, start_x=16.0, delta_x=2.0,
        ),
        out_dir=str(tmp_path / "run"),
    )

    def digest():
        out = {}
        for p in sorted((tmp_path / "run").rglob("*")):
            if p.is_file():
                out[str(p.relative_to(tmp_path))] = hashlib.sha256(p.read_bytes()).hexdigest()
        return out

    run_pipeline(cfg)
    first = digest()
    run_pipeline(cfg)
    assert digest() == first
    assert len(first) > 10

    report(9, f"two identical runs produced {len(first)} byte-identical artifacts", budget.check())


def test_criterion_10_laplacian_completer():
    budget = Budget(10.0)
    tol = 1e-8

    valid = np.zeros((10, 14))
    valid[:, 5:9] = 1.0
    flow = FlowField(np.full((10, 14), -3.0) * valid, np.full((10, 14), 1.5) * valid, valid)
    out = complete_flow_laplacian(flow)
    assert np.max(np.abs(out[0] - (-3.0))) <= tol
    assert np.max(np.abs(out[1] - 1.5)) <= tol

    rng = seeded_generator(10, "acc10")
    v2 = (rng.random((9, 9)) > 0.5).astype(float)
    v2[4, 4] = 1.0
    f2 = FlowField(rng.random((9, 9)) * v2, rng.random((9, 9)) * v2, v2)
    out2 = complete_flow_laplacian(f2)
    known = v2 == 1.0
    assert np.array_equal(out2[0][known], f2.u[known])
    assert np.array_equal(out2[1][known], f2.v[known])

    u = np.array([[0.0, 0.0, 0.0, 0.0, 4.0]])
    v1d = np.array([[1.0, 0.0, 0.0, 0.0, 1.0]])
    out3 = complete_flow_laplacian(FlowField(u, np.zeros((1, 5)), v1d))
    assert np.max(np.abs(out3[0][0, 1:4] - np.array([1.0, 2.0, 3.0]))) < 1e-6

    report(10, "constant extension within tol; known cells bit-exact; 1-D fill matches hand solve", budget.check())
