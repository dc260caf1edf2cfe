import math
import tracemalloc

import numpy as np
import pytest

from outpaint import metrics, synthetic
from outpaint.grids import BinaryMask, CanvasSpec, ChannelGrid
from outpaint.metrics import psnr, psnr_masked, ssim_full
from outpaint.pipeline import SceneConfig
from outpaint.seeding import seeded_generator
from outpaint.synthetic import (
    generate_scene,
    stand_in_decode,
    stand_in_encode,
)
from whole_plane import all_channel_encode, whole_plane_ssim, whole_plane_value_noise


def pan_scene(seed=1, n=5, delta=(0.0, 2.0)):
    spec = CanvasSpec(16, 16, 16, 24, 0, 8)
    traj = SceneConfig(
        kind="pan", start_y=8.0, start_x=8.0, delta_y=delta[0], delta_x=delta[1]
    )
    return generate_scene(seed, 48, 64, 16, 16, n, traj, spec)


class TestSceneGeneration:
    def test_static_scene_zero_flows(self):
        spec = CanvasSpec(8, 8, 8, 12, 0, 4)
        traj = SceneConfig(start_y=4.0, start_x=4.0)
        scene = generate_scene(0, 24, 24, 8, 8, 4, traj, spec)
        for i in range(4):
            for j in range(4):
                f = scene.gt_flow(i, j)
                assert np.all(f.u == 0.0) and np.all(f.v == 0.0)

    def test_pan_flow_additivity(self):
        scene = pan_scene(delta=(0.0, 2.0))
        # +2/frame pan: the flow on frame i+3 pulling frame i is +6
        f = scene.gt_flow(4, 1)
        assert np.all(f.u == 6.0) and np.all(f.v == 0.0)
        back = scene.gt_flow(1, 4)
        assert np.all(back.u == -6.0)

    def test_same_seed_bit_exact(self):
        a, b = pan_scene(seed=7), pan_scene(seed=7)
        assert np.array_equal(a.world.data, b.world.data)
        assert np.array_equal(a.frame(2).data, b.frame(2).data)

    def test_different_seed_differs(self):
        a, b = pan_scene(seed=7), pan_scene(seed=8)
        assert not np.array_equal(a.world.data, b.world.data)

    def test_world_has_per_pixel_variance(self):
        scene = pan_scene()
        for plane in scene.world.data:
            assert plane.std() > 0.01
            # neighbouring pixels differ almost everywhere
            assert np.mean(plane[:, 1:] != plane[:, :-1]) > 0.95

    def test_frames_are_world_crops(self):
        scene = pan_scene()
        f2 = scene.frame(2)
        oy, ox = scene.origins[2]
        assert np.array_equal(
            f2.data, scene.world.data[:, int(oy) : int(oy) + 16, int(ox) : int(ox) + 16]
        )

    def test_gt_expanded_contains_frame(self):
        scene = pan_scene()
        exp = scene.gt_expanded(1)
        ys, xs = scene.spec.source_slices
        assert np.array_equal(exp.data[:, ys, xs], scene.frame(1).data)

    def test_trajectory_escape_rejected(self):
        spec = CanvasSpec(8, 8, 8, 12, 0, 4)
        traj = SceneConfig(kind="pan", start_y=0.0, start_x=4.0, delta_x=10.0)
        with pytest.raises(ValueError, match="escapes"):
            generate_scene(0, 24, 24, 8, 8, 4, traj, spec)

    @pytest.mark.parametrize("h, w", [(8, 8), (64, 40), (128, 33), (97, 131), (200, 24)])
    def test_world_strips_match_whole_plane(self, h, w):
        assert synthetic._STRIP_ROWS == 64
        spec = CanvasSpec(8, 8, 8, 8, 0, 0)
        world = generate_scene(11, h, w, 8, 8, 1, SceneConfig(), spec).world.data
        rng = seeded_generator(11, "world")
        want = np.stack([whole_plane_value_noise(rng, h, w) for _ in range(3)])
        assert np.array_equal(world, want)

    def test_world_is_held_once(self):
        # a 3x1024x256 world (6.3 MB) outweighs the strip temporaries
        spec = CanvasSpec(8, 8, 8, 8, 0, 0)
        tracemalloc.start()
        try:
            scene = generate_scene(11, 1024, 256, 8, 8, 1, SceneConfig(), spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * scene.world.data.nbytes

    def test_pan_cycle_returns_to_start(self):
        traj = SceneConfig(kind="pan_cycle", start_x=4.0, delta_x=1.0, period=3)
        origins = traj.origins(9)
        xs = [x for _, x in origins]
        assert xs == [4.0, 5.0, 6.0, 7.0, 6.0, 5.0, 4.0, 5.0, 6.0]

    def test_subpixel_origins_allowed(self):
        spec = CanvasSpec(8, 8, 8, 12, 0, 4)
        traj = SceneConfig(kind="pan", start_y=4.0, start_x=4.0, delta_x=0.5)
        scene = generate_scene(3, 24, 32, 8, 8, 4, traj, spec)
        assert scene.frame(1).data.shape == (3, 8, 8)


class TestStandInCodec:
    def test_s1_identity(self):
        g = ChannelGrid(np.random.default_rng(0).random((2, 4, 4)))
        assert stand_in_encode(g, 1) is g
        assert stand_in_decode(g, 1) is g

    def test_block_constant_round_trip(self):
        rng = np.random.default_rng(1)
        latent = rng.random((3, 2, 3))
        image = ChannelGrid(np.repeat(np.repeat(latent, 8, axis=1), 8, axis=2))
        assert np.array_equal(stand_in_encode(image, 8).data, latent)
        assert np.array_equal(stand_in_decode(stand_in_encode(image, 8), 8).data, image.data)

    def test_ramp_block_means(self):
        ramp = ChannelGrid(np.arange(16.0).reshape(1, 4, 4))
        enc = stand_in_encode(ramp, 2)
        # 2x2 means computed by hand
        assert np.array_equal(enc.data[0], [[2.5, 4.5], [10.5, 12.5]])

    @pytest.mark.parametrize("s", [2, 4, 8])
    @pytest.mark.parametrize("shape", [(3, 64, 96), (3, 240, 320), (2, 40, 56)])
    def test_matches_all_channel_formula(self, s, shape):
        frame = ChannelGrid(np.random.default_rng(s).random(shape))
        assert np.array_equal(stand_in_encode(frame, s).data, all_channel_encode(frame, s))

    def test_divisibility(self):
        with pytest.raises(ValueError):
            stand_in_encode(ChannelGrid(np.zeros((1, 5, 4))), 2)


def ssim_oracle(a, b, dynamic_range=1.0, win=8):
    """Triple-loop three-term SSIM, independent of the library path."""
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2
    c3 = c2 / 2.0
    h, w = a.shape
    n = win * win
    vals = []
    for i in range(h - win + 1):
        for j in range(w - win + 1):
            pa = a[i : i + win, j : j + win].ravel()
            pb = b[i : i + win, j : j + win].ravel()
            mu_a, mu_b = pa.mean(), pb.mean()
            var_a = ((pa - mu_a) ** 2).sum() / (n - 1)
            var_b = ((pb - mu_b) ** 2).sum() / (n - 1)
            cov = ((pa - mu_a) * (pb - mu_b)).sum() / (n - 1)
            sd_a, sd_b = var_a**0.5, var_b**0.5
            lum = (2 * mu_a * mu_b + c1) / (mu_a**2 + mu_b**2 + c1)
            con = (2 * sd_a * sd_b + c2) / (sd_a**2 + sd_b**2 + c2)
            stru = (cov + c3) / (sd_a * sd_b + c3)
            vals.append(lum * con * stru)
    return float(np.mean(vals))


class TestMetrics:
    def test_psnr_identical_is_inf(self):
        g = ChannelGrid(np.random.default_rng(0).random((1, 4, 4)))
        assert psnr(g, g) == math.inf

    def test_psnr_constant_offset(self):
        a = ChannelGrid(np.full((1, 8, 8), 0.3))
        b = ChannelGrid(np.full((1, 8, 8), 0.4))
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-9)

    def test_psnr_symmetric(self):
        rng = np.random.default_rng(5)
        a, b = ChannelGrid(rng.random((2, 6, 6))), ChannelGrid(rng.random((2, 6, 6)))
        assert psnr(a, b) == pytest.approx(psnr(b, a), abs=1e-12)

    def test_psnr_masked_counts_only_masked_cells(self):
        rng = np.random.default_rng(6)
        a, b = ChannelGrid(rng.random((2, 4, 6))), ChannelGrid(rng.random((2, 4, 6)))
        cells = np.zeros((4, 6), dtype=bool)
        cells[1:3, 2:5] = True
        inside = ChannelGrid(a.data[:, 1:3, 2:5]), ChannelGrid(b.data[:, 1:3, 2:5])
        assert psnr_masked(a, b, BinaryMask(cells)) == pytest.approx(psnr(*inside), abs=1e-12)
        assert psnr_masked(a, b, BinaryMask(np.zeros((4, 6), dtype=bool))) == math.inf

    def test_ssim_identical_is_one(self):
        g = ChannelGrid(np.random.default_rng(1).random((1, 10, 10)))
        assert ssim_full(g, g) == 1.0

    def test_ssim_matches_brute_force(self):
        rng = np.random.default_rng(2)
        a = rng.random((12, 12))
        b = rng.random((12, 12))
        assert ssim_full(ChannelGrid(a[None]), ChannelGrid(b[None])) == pytest.approx(
            ssim_oracle(a, b), abs=1e-9
        )

    def test_ssim_structured_vs_shuffled_near_zero(self):
        rng = np.random.default_rng(3)
        a = np.tile(np.linspace(0, 1, 16), (16, 1)) * 0.5 + 0.25 * rng.random((16, 16))
        flat = a.ravel().copy()
        rng.shuffle(flat)
        b = flat.reshape(16, 16)
        got = ssim_full(ChannelGrid(a[None]), ChannelGrid(b[None]))
        assert abs(got) < 0.35
        assert got == pytest.approx(ssim_oracle(a, b), abs=1e-9)

    def test_ssim_symmetric(self):
        rng = np.random.default_rng(4)
        a, b = rng.random((9, 9)), rng.random((9, 9))
        assert ssim_full(ChannelGrid(a[None]), ChannelGrid(b[None])) == pytest.approx(
            ssim_full(ChannelGrid(b[None]), ChannelGrid(a[None])), abs=1e-12
        )

    def test_ssim_multichannel_averages(self):
        rng = np.random.default_rng(6)
        a = rng.random((2, 9, 9))
        b = rng.random((2, 9, 9))
        per = [
            ssim_full(ChannelGrid(a[c][None]), ChannelGrid(b[c][None])) for c in range(2)
        ]
        assert ssim_full(ChannelGrid(a), ChannelGrid(b)) == pytest.approx(
            np.mean(per), abs=1e-12
        )

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            psnr(ChannelGrid(np.zeros((1, 4, 4))), ChannelGrid(np.zeros((1, 4, 5))))

    @pytest.mark.parametrize("h, w", [(8, 8), (135, 12), (263, 20), (40, 9), (150, 33), (300, 17)])
    def test_ssim_strips_match_whole_plane(self, h, w):
        assert metrics._STRIP_ROWS == 128
        rng = np.random.default_rng(h * w)
        a = rng.random((3, h, w))
        b = np.clip(a + rng.normal(0.0, 0.1, a.shape), 0.0, 1.0)
        # a constant band puts zero-variance windows beside textured ones
        b[1, : h // 3] = 0.25
        ga, gb = ChannelGrid(a), ChannelGrid(b)
        assert ssim_full(ga, gb) == whole_plane_ssim(ga, gb)
