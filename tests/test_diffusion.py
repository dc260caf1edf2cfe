import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outpaint.diffusion import (
    ConstantDenoiser,
    OracleDenoiser,
    WindowPlan,
    ZeroDenoiser,
    forward_noise,
    make_schedule,
    plan_windows,
    resolve_denoiser,
    reverse_sample,
    windowed_epsilon,
)
from outpaint.seeding import seeded_generator


def frames(*arrays):
    return np.stack(arrays)


def reference_reverse_sample(predict_frame, n, shape, schedule, seed, windows):
    """The sampler frame by frame: the state is a list of (C, h, w) arrays,
    every draw is one frame's in frame order, and each window's predictions
    are summed per frame in window order.  ``predict_frame(z, i, timestep)``
    is the denoiser's prediction for frame ``i``."""
    rng = seeded_generator(seed, "reverse-sample")
    state = [rng.standard_normal(shape) for _ in range(n)]
    counts = [sum(s <= i < e for s, e in windows) for i in range(n)]
    for t in range(schedule.timesteps, 0, -1):
        sums = [np.zeros(shape) for _ in range(n)]
        for s, e in windows:
            for i in range(s, e):
                sums[i] += predict_frame(state[i], i, t)
        coef = schedule.beta_at(t) / np.sqrt(1.0 - schedule.alpha_bar_at(t))
        new_state = []
        for z, total, count in zip(state, sums, counts):
            mean = (z - coef * (total / count)) / np.sqrt(schedule.alpha_at(t))
            if t > 1:
                mean = mean + schedule.sigma_at(t) * rng.standard_normal(shape)
            new_state.append(mean)
        state = new_state
    return state


class TestSchedule:
    def test_single_step(self):
        sched = make_schedule(1, 0.5, 0.5)
        assert sched.alpha_bar_at(1) == 0.5

    def test_equal_betas_power_law(self):
        sched = make_schedule(5, 0.1, 0.1)
        for t in range(1, 6):
            assert sched.alpha_bar_at(t) == pytest.approx(0.9**t, abs=1e-15)

    def test_default_schedule_decays_fully(self):
        sched = make_schedule(1000)
        assert sched.alpha_bar_at(1000) < 1e-4

    def test_product_identity(self):
        sched = make_schedule(200, 1e-4, 0.02)
        prod = 1.0
        for t in range(1, 201):
            prod *= sched.alpha_at(t)
            assert abs(sched.alpha_bar_at(t) - prod) < 1e-12

    def test_alpha_bar_strictly_decreasing(self):
        sched = make_schedule(100)
        assert np.all(np.diff(sched.alpha_bar) < 0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            make_schedule(10, 0.0, 0.02)
        with pytest.raises(ValueError):
            make_schedule(10, 0.5, 0.2)
        with pytest.raises(ValueError):
            make_schedule(0)

    def test_timestep_bounds(self):
        sched = make_schedule(4)
        with pytest.raises(ValueError):
            sched.alpha_bar_at(0)
        with pytest.raises(ValueError):
            sched.beta_at(5)

    def test_sigma_zero_at_first_step(self):
        sched = make_schedule(10)
        assert sched.sigma_at(1) == 0.0


class TestForwardNoise:
    def test_tiny_beta_keeps_signal(self):
        sched = make_schedule(1, 1e-10, 1e-10)
        z0 = frames(np.full((1, 2, 2), 3.0))
        eps = frames(np.ones((1, 2, 2)))
        out = forward_noise(z0, 1, eps, sched)
        assert np.allclose(out[0], 3.0, atol=1e-4)

    def test_zero_signal(self):
        sched = make_schedule(1, 0.36, 0.36)
        z0 = frames(np.zeros((1, 2, 2)))
        eps = frames(np.full((1, 2, 2), 2.0))
        out = forward_noise(z0, 1, eps, sched)
        assert np.allclose(out[0], np.sqrt(0.36) * 2.0, atol=1e-15)

    def test_direct_substitution(self):
        # abar = 0.25 -> Z = sqrt(.25)*2 + sqrt(.75)*1 = 1 + sqrt(0.75)
        sched = make_schedule(1, 0.75, 0.75)
        out = forward_noise(
            frames(np.full((1, 1, 1), 2.0)), 1, frames(np.ones((1, 1, 1))), sched
        )
        assert out[0, 0, 0, 0] == pytest.approx(1.0 + np.sqrt(0.75), abs=1e-12)

    def test_shape_mismatch(self):
        sched = make_schedule(2)
        with pytest.raises(ValueError):
            forward_noise(frames(np.zeros((1, 2, 2))), 1, frames(np.zeros((1, 2, 3))), sched)

    def test_statistics_match_theory(self):
        # sample mean ~ sqrt(abar) z0, sample var ~ 1 - abar
        sched = make_schedule(10, 0.02, 0.1)
        t = 7
        ab = sched.alpha_bar_at(t)
        z0_val = 1.5
        z0 = frames(np.full((1, 4, 4), z0_val))
        rng = seeded_generator(123, "stats-test")
        draws = 10_000
        samples = np.empty((draws, 4, 4))
        for k in range(draws):
            eps = frames(rng.standard_normal((1, 4, 4)))
            samples[k] = forward_noise(z0, t, eps, sched)[0, 0]
        sigma = np.sqrt(1.0 - ab)
        mean_tol = 4.0 * sigma / np.sqrt(draws)
        assert np.all(np.abs(samples.mean(axis=0) - np.sqrt(ab) * z0_val) < mean_tol)
        assert samples.var() == pytest.approx(1.0 - ab, rel=0.05)


class TestReverseSample:
    def test_single_step_oracle_recovers_exactly(self):
        sched = make_schedule(1, 0.3, 0.3)
        rng = seeded_generator(11, "t1-test")
        z0 = frames(rng.standard_normal((1, 3, 3)))
        oracle = OracleDenoiser(z0, sched)
        out = reverse_sample(oracle, frames(np.zeros((1, 3, 3))), sched, seed=42)
        assert np.allclose(out[0], z0[0], atol=1e-12)

    def test_oracle_recovers_after_50_steps(self):
        sched = make_schedule(50, 1e-4, 0.05)
        rng = seeded_generator(12, "t50-test")
        z0 = frames(rng.standard_normal((2, 4, 4)), rng.standard_normal((2, 4, 4)))
        oracle = OracleDenoiser(z0, sched)
        cond = frames(np.zeros((2, 4, 4)), np.zeros((2, 4, 4)))
        out = reverse_sample(oracle, cond, sched, seed=9)
        for got, want in zip(out, z0):
            assert np.allclose(got, want, atol=1e-4)

    def test_oracle_predicts_a_window_at_its_start(self):
        sched = make_schedule(8, 0.01, 0.2)
        rng = seeded_generator(13, "oracle-window")
        z0 = frames(*[rng.standard_normal((1, 2, 2)) for _ in range(4)])
        noise = frames(*[rng.standard_normal((1, 2, 2)) for _ in range(2)])
        noisy = forward_noise(z0[2:], 5, noise, sched)
        oracle = OracleDenoiser(z0, sched)
        for got, want in zip(oracle.predict(noisy, noisy, 5, start=2), noise):
            assert np.allclose(got, want, atol=1e-12)
        for start in (-1, 3):
            with pytest.raises(ValueError, match="does not match"):
                oracle.predict(noisy, noisy, 5, start=start)

    def test_zero_denoiser_matches_recurrence_script(self):
        # independent step-by-step replay of the update rule
        sched = make_schedule(6, 0.05, 0.3)
        cond = frames(np.zeros((1, 2, 2)))
        seed = 77
        out = reverse_sample(ZeroDenoiser(), cond, sched, seed=seed)

        rng = seeded_generator(seed, "reverse-sample")
        z = rng.standard_normal((1, 2, 2))
        for t in range(6, 0, -1):
            alpha = sched.alpha_at(t)
            z = z / np.sqrt(alpha)
            if t > 1:
                ab, ab_prev = sched.alpha_bar_at(t), sched.alpha_bar_before(t)
                sigma = np.sqrt(sched.beta_at(t) * (1 - ab_prev) / (1 - ab))
                z = z + sigma * rng.standard_normal((1, 2, 2))
        assert np.allclose(out[0], z, atol=1e-12)

    @pytest.mark.parametrize("name", ["zero", "constant:0.3", "oracle"])
    @pytest.mark.parametrize("window", [4, None], ids=["sliding", "one_window"])
    def test_matches_per_frame_reference(self, name, window):
        n, shape = 9, (2, 3, 5)
        sched = make_schedule(6, 0.05, 0.3)
        rng = seeded_generator(19, "reference-sampler")
        clean = rng.standard_normal((n,) + shape)
        cond = rng.standard_normal((n,) + shape)
        plan = plan_windows(n, window, 2) if window else None

        def oracle(z, i, t):
            ab = sched.alpha_bar_at(t)
            return (z - np.sqrt(ab) * clean[i]) / np.sqrt(1.0 - ab)

        predict_frame = {
            "zero": lambda z, i, t: np.zeros_like(z),
            "constant:0.3": lambda z, i, t: np.full_like(z, 0.3),
            "oracle": oracle,
        }[name]
        got = reverse_sample(
            resolve_denoiser(name, clean=clean, schedule=sched), cond, sched, seed=23, plan=plan
        )
        windows = plan.windows if plan else ((0, n),)
        want = reference_reverse_sample(predict_frame, n, shape, sched, 23, windows)
        assert np.array_equal(got, np.stack(want))

    def test_same_seed_bit_identical(self):
        sched = make_schedule(5, 0.01, 0.1)
        cond = frames(np.ones((1, 3, 3)))
        a = reverse_sample(ConstantDenoiser(0.2), cond, sched, seed=5)
        b = reverse_sample(ConstantDenoiser(0.2), cond, sched, seed=5)
        assert np.array_equal(a[0], b[0])

    def test_different_seed_differs(self):
        sched = make_schedule(5, 0.01, 0.1)
        cond = frames(np.ones((1, 3, 3)))
        a = reverse_sample(ZeroDenoiser(), cond, sched, seed=5)
        b = reverse_sample(ZeroDenoiser(), cond, sched, seed=6)
        assert not np.array_equal(a[0], b[0])


class TestWindowPlan:
    def test_short_sequence_single_window(self):
        plan = plan_windows(10, 25, 12)
        assert plan.windows == ((0, 10),)

    def test_spec_example_40_25_12(self):
        plan = plan_windows(40, 25, 12)
        assert plan.windows == ((0, 25), (12, 37), (24, 40))

    def test_stride_equals_length_tiles(self):
        plan = plan_windows(40, 10, 10)
        assert plan.windows == ((0, 10), (10, 20), (20, 30), (30, 40))

    def test_stride_exceeding_length_rejected(self):
        with pytest.raises(ValueError):
            plan_windows(40, 10, 11)

    def test_counts(self):
        counts = plan_windows(40, 25, 12).membership_counts()
        assert counts[0] == 1 and counts[12] == 2 and counts[24] == 3
        assert counts[37] == 1 and counts.min() >= 1

    @given(n=st.integers(1, 60), w=st.integers(1, 30), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_every_frame_covered(self, n, w, data):
        s = data.draw(st.integers(1, w))
        counts = plan_windows(n, w, s).membership_counts()
        assert counts.size == n and counts.min() >= 1


class _StartIndexDenoiser:
    """Returns the first condition value of the slice it sees; with the
    condition set to the frame index this exposes the window start."""

    def predict(self, noisy, condition, timestep, start):
        return np.full_like(noisy, float(condition[0].flat[0]))


class TestWindowedEpsilon:
    def seq(self, n, shape=(1, 2, 2)):
        noisy = frames(*[np.zeros(shape) for _ in range(n)])
        cond = frames(*[np.full(shape, float(i)) for i in range(n)])
        return noisy, cond

    def test_single_window_equals_direct_call(self):
        noisy, cond = self.seq(5)
        plan = plan_windows(5, 25, 12)
        den = _StartIndexDenoiser()
        direct = den.predict(noisy, cond, 3, 0)
        windowed = windowed_epsilon(den, noisy, cond, 3, plan)
        for a, b in zip(direct, windowed):
            assert np.array_equal(a, b)

    def test_constant_denoiser_stays_constant(self):
        noisy, cond = self.seq(40)
        plan = plan_windows(40, 25, 12)
        # dyadic constant: sum/count round-trips exactly
        out = windowed_epsilon(ConstantDenoiser(0.75), noisy, cond, 1, plan)
        for g in out:
            assert np.all(g == 0.75)
        # non-dyadic constants agree to the last ulp
        out = windowed_epsilon(ConstantDenoiser(0.7), noisy, cond, 1, plan)
        for g in out:
            assert np.allclose(g, 0.7, atol=1e-15)

    def test_two_window_overlap_means(self):
        noisy, cond = self.seq(40)
        plan = plan_windows(40, 25, 12)
        out = windowed_epsilon(_StartIndexDenoiser(), noisy, cond, 1, plan)
        values = np.array([g.flat[0] for g in out])
        # window membership per frame: [0,25), [12,37), [24,40)
        assert np.allclose(values[:12], 0.0, atol=1e-12)
        assert np.allclose(values[12:24], (0 + 12) / 2, atol=1e-12)
        assert np.allclose(values[24:25], (0 + 12 + 24) / 3, atol=1e-12)
        assert np.allclose(values[25:37], (12 + 24) / 2, atol=1e-12)
        assert np.allclose(values[37:], 24.0, atol=1e-12)

    def test_convex_combination_bounds(self):
        rng = seeded_generator(3, "windowed-bounds")
        n = 30
        noisy = frames(*[rng.standard_normal((1, 2, 2)) for _ in range(n)])
        cond = frames(*[rng.standard_normal((1, 2, 2)) for _ in range(n)])

        class NoisyEcho:
            def predict(self, noisy_slice, cond_slice, timestep, start):
                return noisy_slice + cond_slice

        plan = plan_windows(n, 10, 4)
        out = windowed_epsilon(NoisyEcho(), noisy, cond, 1, plan)
        for i, g in enumerate(out):
            per_window = [
                noisy[i] + cond[i] for (s, e) in plan.windows if s <= i < e
            ]
            lo = np.minimum.reduce(per_window)
            hi = np.maximum.reduce(per_window)
            assert np.all(g >= lo - 1e-12) and np.all(g <= hi + 1e-12)

    def test_uncovered_frame_rejected(self):
        noisy, cond = self.seq(6)
        bad = WindowPlan(((0, 2), (4, 6)), length=2, stride=2)
        with pytest.raises(ValueError, match="uncovered"):
            windowed_epsilon(ZeroDenoiser(), noisy, cond, 1, bad)

    def test_windowed_reverse_sample_matches_single_window(self):
        sched = make_schedule(4, 0.02, 0.2)
        cond = frames(*[np.full((1, 2, 2), float(i)) for i in range(5)])
        plan = plan_windows(5, 10, 5)
        direct = reverse_sample(ConstantDenoiser(0.1), cond, sched, seed=3)
        windowed = reverse_sample(ConstantDenoiser(0.1), cond, sched, seed=3, plan=plan)
        for a, b in zip(direct, windowed):
            assert np.array_equal(a, b)


class TestDenoiserRegistry:
    def test_names(self):
        assert isinstance(resolve_denoiser("zero"), ZeroDenoiser)
        den = resolve_denoiser("constant:0.25")
        assert isinstance(den, ConstantDenoiser) and den.value == 0.25

    def test_oracle_requires_context(self):
        with pytest.raises(ValueError):
            resolve_denoiser("oracle")

    def test_unknown(self):
        with pytest.raises(ValueError):
            resolve_denoiser("mystery")

    def test_bad_constant(self):
        with pytest.raises(ValueError):
            resolve_denoiser("constant:abc")
