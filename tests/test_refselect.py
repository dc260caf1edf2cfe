import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from outpaint import refselect
from outpaint.grids import CanvasSpec, ChannelGrid
from outpaint.refselect import (
    ReferenceChain,
    build_reference_chain,
    nearest_refs,
    ssim_structure_score,
    to_grayscale,
)
from outpaint.seeding import seeded_generator
from outpaint.pipeline import SceneConfig
from outpaint.synthetic import generate_scene
from scene_frames import scene_frames
from whole_plane import stacked_frame_moments

C2 = 0.03**2
C3 = C2 / 2.0


def structure_score_oracle(a, b, win=8):
    """Independent brute-force evaluation: explicit loops over every window,
    covariance formula written out term by term."""
    h, w = a.shape
    n = win * win
    total = 0.0
    count = 0
    for i in range(h - win + 1):
        for j in range(w - win + 1):
            pa = a[i : i + win, j : j + win]
            pb = b[i : i + win, j : j + win]
            mu_a = sum(pa.flat) / n
            mu_b = sum(pb.flat) / n
            var_a = sum((x - mu_a) ** 2 for x in pa.flat) / (n - 1)
            var_b = sum((x - mu_b) ** 2 for x in pb.flat) / (n - 1)
            cov = sum((x - mu_a) * (y - mu_b) for x, y in zip(pa.flat, pb.flat)) / (n - 1)
            total += (cov + C3) / (var_a**0.5 * var_b**0.5 + C3)
            count += 1
    return total / count


def reference_window_moments(a, b, win=8):
    """Per-window means, std deviations and covariance (unbiased, N-1),
    two-pass over every window's own values."""
    wa = sliding_window_view(a, (win, win))
    wb = sliding_window_view(b, (win, win))
    n = win * win
    mu_a = wa.mean(axis=(2, 3))
    mu_b = wb.mean(axis=(2, 3))
    da = wa - mu_a[..., None, None]
    db = wb - mu_b[..., None, None]
    var_a = (da * da).sum(axis=(2, 3)) / (n - 1)
    var_b = (db * db).sum(axis=(2, 3)) / (n - 1)
    cov = (da * db).sum(axis=(2, 3)) / (n - 1)
    sd_a = np.sqrt(np.maximum(var_a, 0.0))
    sd_b = np.sqrt(np.maximum(var_b, 0.0))
    return mu_a, mu_b, sd_a, sd_b, cov


def rgb(r, g, b, shape=(4, 4)):
    return ChannelGrid(np.stack([np.full(shape, r), np.full(shape, g), np.full(shape, b)]))


class TestGrayscale:
    def test_white_is_ones(self):
        gray = to_grayscale(rgb(1.0, 1.0, 1.0))
        assert np.allclose(gray, 1.0, atol=1e-12)

    def test_pure_red(self):
        gray = to_grayscale(rgb(1.0, 0.0, 0.0))
        assert np.allclose(gray, 0.299, atol=1e-15)

    def test_already_gray(self):
        gray = to_grayscale(rgb(0.4, 0.4, 0.4))
        assert np.allclose(gray, 0.4, atol=1e-12)

    def test_channel_count_checked(self):
        with pytest.raises(ValueError):
            to_grayscale(ChannelGrid(np.zeros((2, 4, 4))))

    def test_range_checked(self):
        with pytest.raises(ValueError):
            to_grayscale(rgb(1.5, 0.0, 0.0))


def random_gray(seed, h=10, w=10):
    return np.random.default_rng(seed).random((h, w))


class TestStructureScore:
    def test_self_score_is_one(self):
        a = random_gray(1)
        assert ssim_structure_score(a, a) == pytest.approx(1.0, abs=1e-9)

    def test_inverted_image_near_minus_one(self):
        a = random_gray(2)
        b = 1.0 - a
        got = ssim_structure_score(a, b)
        assert got == pytest.approx(structure_score_oracle(a, b), abs=1e-9)
        assert got < -0.98  # -1 + O(C3)

    def test_single_window_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        a = rng.random((8, 8))
        b = rng.random((8, 8))
        assert ssim_structure_score(a, b) == pytest.approx(
            structure_score_oracle(a, b), abs=1e-12
        )

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = rng.random((9, 11))
            b = rng.random((9, 11))
            assert ssim_structure_score(a, b) == pytest.approx(
                structure_score_oracle(a, b), abs=1e-9
            )

    def test_too_small_grid(self):
        with pytest.raises(ValueError):
            ssim_structure_score(random_gray(0, 4, 4), random_gray(1, 4, 4))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            ssim_structure_score(random_gray(0, 8, 8), random_gray(1, 8, 9))
        # two planes, not (C, H, W) stacks of one channel
        with pytest.raises(ValueError, match="2-D"):
            ssim_structure_score(np.zeros((1, 8, 8)), np.zeros((1, 8, 8)))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((8, 9))
        b = rng.random((8, 9))
        assert ssim_structure_score(a, b) == pytest.approx(
            ssim_structure_score(b, a), abs=1e-9
        )

    @given(seed=st.integers(0, 2**32 - 1), shift=st.floats(-5.0, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_constant_shift_invariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        a = rng.random((9, 8))
        b = rng.random((9, 8))
        base = ssim_structure_score(a, b)
        shifted = ssim_structure_score(a + shift, b + shift)
        assert shifted == pytest.approx(base, abs=1e-9)

    @given(
        a=arrays(np.float64, (8, 8), elements=st.floats(0, 1, width=32)),
        b=arrays(np.float64, (8, 8), elements=st.floats(0, 1, width=32)),
    )
    @settings(max_examples=30, deadline=None)
    def test_bounded(self, a, b):
        s = ssim_structure_score(a, b)
        assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12


def identical_frames(n, h=12, w=12, value=0.5):
    rng = np.random.default_rng(99)
    base = rng.random((3, h, w))
    return [ChannelGrid(base) for _ in range(n)]


class TestWindowMoments:
    @given(
        seed=st.integers(0, 2**32 - 1),
        h=st.integers(8, 40),
        w=st.integers(8, 56),
        offset=st.floats(0.0, 1e3),
        band=st.integers(0, 56),
        fill=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, seed, h, w, offset, band, fill):
        # a constant band, like an unfilled outpaint strip, puts windows of
        # zero variance next to textured ones
        rng = np.random.default_rng(seed)
        a = rng.random((h, w))
        b = rng.random((h, w))
        b[:, : min(band, w)] = fill
        a, b = a + offset, b + offset
        got = refselect._window_moments(refselect._frame_moments(a), refselect._frame_moments(b))
        want = reference_window_moments(a, b, 8)
        for g, r in zip(got, want):
            assert g.shape == r.shape
            assert np.max(np.abs(g - r)) <= 1e-9

    @given(
        seed=st.integers(0, 2**32 - 1),
        h=st.integers(8, 80),
        w=st.integers(8, 56),
        offset=st.floats(0.0, 1e3),
        rows=st.tuples(st.integers(0, 80), st.integers(8, 80)),
    )
    @settings(max_examples=60, deadline=None)
    def test_frame_moments_equal_stacked_sums(self, seed, h, w, offset, rows):
        a = np.random.default_rng(seed).random((h, w)) + offset
        got = refselect._frame_moments(a)
        want = stacked_frame_moments(a)
        assert got[0] == want[0]
        for g, r in zip(got[1:], want[1:]):
            assert g.shape == r.shape and np.array_equal(g, r)
        # a strip of at least a window's rows, centred on the plane's mean,
        # holds the whole plane's moments in its rows
        start = min(rows[0], h - 8)
        stop = min(start + rows[1], h)
        strip = refselect._centred_moments(a[start:stop], got[0])
        assert np.array_equal(strip[1], got[1][start:stop])
        for g, r in zip(strip[2:], got[2:]):
            assert np.array_equal(g, r[start : stop - 7])

    def test_constant_window_has_zero_deviation(self):
        a = np.random.default_rng(8).random((16, 24))
        a[:, :12] = 0.3
        ma = refselect._frame_moments(a)
        _, _, sd_a, _, _ = refselect._window_moments(ma, ma)
        assert np.all(sd_a[:, :5] == 0.0)


def criterion_04_scenes(count):
    """The first ``count`` pan scenes of the acceptance suite's chain
    criterion, drawn from the same stream."""
    stream = seeded_generator(424242, "acceptance-scenes")
    for _ in range(count):
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
        yield scene_frames(scene)


def test_chain_matches_reference_scored_chain(monkeypatch):
    rng = np.random.default_rng(99)
    base = ChannelGrid(rng.random((3, 12, 12)))
    sequences = [[base] * 10] + list(criterion_04_scenes(20))

    frame_moments = refselect._frame_moments
    moment_calls = []

    def counted_frame_moments(a):
        moment_calls.append(a.shape)
        return frame_moments(a)

    monkeypatch.setattr(refselect, "_frame_moments", counted_frame_moments)
    got = []
    for frames in sequences:
        got.append([])
        for m in range(2, 8):
            moment_calls.clear()
            got[-1].append(build_reference_chain(frames, m).indices)
            # each frame's moments are built at most once per chain
            assert len(moment_calls) <= len(frames)

    # the reference chain scores every pair from the two-pass moments of
    # the two gray planes, through the helpers the chain calls
    scored_pairs = []

    def reference_structure_score(a, b):
        scored_pairs.append((a.shape, b.shape))
        _, _, sd_a, sd_b, cov = reference_window_moments(a, b, 8)
        return float(np.mean((cov + C3) / (sd_a * sd_b + C3)))

    monkeypatch.setattr(refselect, "_frame_moments", lambda a: a)
    monkeypatch.setattr(refselect, "_structure_score", reference_structure_score)
    want = [[build_reference_chain(f, m).indices for m in range(2, 8)] for f in sequences]
    assert scored_pairs
    assert got == want
    assert got[0][2] == (0, 4, 8, 9)


class TestBuildChain:
    def test_single_frame(self):
        chain = build_reference_chain(identical_frames(1), 4)
        assert chain.indices == (0,)

    def test_identical_frames_tie_break(self):
        chain = build_reference_chain(identical_frames(10), 4)
        assert chain.indices == (0, 4, 8, 9)

    def test_identical_frames_n48(self):
        chain = build_reference_chain(identical_frames(48), 4)
        assert chain.indices == tuple(range(0, 45, 4)) + (47,)
        assert len(chain) == 13

    def test_m1_selects_every_frame(self):
        chain = build_reference_chain(identical_frames(6), 1)
        assert chain.indices == (0, 1, 2, 3, 4, 5)

    def test_empty_sequence(self):
        with pytest.raises(ValueError):
            build_reference_chain([], 4)

    def test_reads_each_frame_once_in_order(self):
        frames = identical_frames(10)
        read = []

        def reader():
            for i, frame in enumerate(frames):
                read.append(i)
                yield frame

        assert build_reference_chain(reader(), 4) == build_reference_chain(frames, 4)
        assert read == list(range(10))

    @pytest.mark.parametrize("scene", ["random", "pan"])
    def test_holds_at_most_a_window_of_planes(self, monkeypatch, scene):
        m, n = 4, 16
        if scene == "random":
            rng = np.random.default_rng(11)
            frames = [ChannelGrid(rng.random((3, 24, 32))) for _ in range(n)]
        else:
            # a slow pan: neighbours are near-copies, so the chain skips frames
            spec = CanvasSpec(24, 32, 24, 40, 0, 4)
            traj = SceneConfig(start_y=8.0, start_x=8.0, delta_x=1.0)
            frames = scene_frames(generate_scene(5, 48, 72, 24, 32, n, traj, spec))
        # weak references to every gray plane and every moments tuple's x plane
        planes, tuples, held, held_moments = [], [], [], []
        gray, moments, score = refselect._gray, refselect._frame_moments, refselect._structure_score

        def check():
            held_moments.append(sum(ref() is not None for ref in tuples))
            held.append(held_moments[-1] + sum(ref() is not None for ref in planes))
            assert held[-1] <= m + 1

        def tracked_gray(j, frame):
            plane = gray(j, frame)
            planes.append(weakref.ref(plane))
            return plane

        def tracked_moments(a):
            check()
            mo = moments(a)
            tuples.append(weakref.ref(mo[1]))
            return mo

        def tracked_score(ma, mb):
            check()
            return score(ma, mb)

        monkeypatch.setattr(refselect, "_gray", tracked_gray)
        monkeypatch.setattr(refselect, "_frame_moments", tracked_moments)
        monkeypatch.setattr(refselect, "_structure_score", tracked_score)
        chain = build_reference_chain(iter(frames), m)
        # the current reference and its m candidates, each in one form only
        assert max(held) == m + 1
        # on the pan every candidate scores below the one before it, so only
        # the reference, the best so far and the one being scored keep moments
        assert max(held_moments) == (m + 1 if scene == "random" else 3)
        # random frames step by 1 to 4, the pan by whole windows
        assert chain.indices == (
            (0, 3, 4, 6, 8, 10, 14, 15) if scene == "random" else (0, 4, 8, 12, 15)
        )

    def test_invalid_frame_error_names_it(self):
        frames = identical_frames(6)
        frames[3] = ChannelGrid(np.full((3, 12, 12), 1.5))
        with pytest.raises(ValueError, match=r"^frame 3: frame values must lie in \[0, 1\]$"):
            build_reference_chain(frames, 4)
        frames[3] = ChannelGrid(np.full((1, 12, 12), 0.5))
        with pytest.raises(ValueError, match="^frame 3: expected 3 channels, got 1$"):
            build_reference_chain(frames, 4)

    def test_chain_prefers_least_similar_candidate(self):
        # frame 2 is structurally unrelated to frame 0; frames 1 and 3 are
        # near-copies of 0, so the chain should pick 2 first.
        rng = np.random.default_rng(5)
        base = rng.random((3, 12, 12))
        other = rng.random((3, 12, 12))
        near = np.clip(base + rng.normal(0, 0.01, base.shape), 0, 1)
        frames = [ChannelGrid(g) for g in (base, near, other, near, base, base)]
        chain = build_reference_chain(frames, 3)
        assert chain.indices[1] == 2

    @given(seed=st.integers(0, 1000), n=st.integers(1, 14), m=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_gap_invariant(self, seed, n, m):
        rng = np.random.default_rng(seed)
        frames = [ChannelGrid(rng.random((3, 9, 9))) for _ in range(n)]
        chain = build_reference_chain(frames, m)
        assert chain.indices[0] == 0 and chain.indices[-1] == n - 1
        assert len(chain) <= n
        gaps = np.diff(chain.indices)
        assert gaps.size == 0 or gaps.max() <= m


class TestNearestRefs:
    def make_chain(self):
        return ReferenceChain((0, 4, 8), window=4, num_frames=9)

    def test_between_refs(self):
        assert nearest_refs(self.make_chain(), 5) == (4, 8)

    def test_on_a_reference(self):
        assert nearest_refs(self.make_chain(), 4) == (4, 4)

    def test_first_frame(self):
        assert nearest_refs(self.make_chain(), 0) == (0, 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            nearest_refs(self.make_chain(), 9)

    @given(i=st.integers(0, 8))
    @settings(max_examples=20, deadline=None)
    def test_sandwich_property(self, i):
        chain = self.make_chain()
        lo, hi = nearest_refs(chain, i)
        assert lo <= i <= hi
        assert lo in chain.indices and hi in chain.indices


def fixed_stride_chain(n: int, stride: int) -> ReferenceChain:
    """Uniform sampling at ``stride`` plus the final frame: the baseline the
    similarity chain is compared against."""
    if n < 1:
        raise ValueError("need at least one frame")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if n == 1:
        return ReferenceChain((0,), window=stride, num_frames=1)
    indices = tuple(range(0, n - 1, stride)) + (n - 1,)
    return ReferenceChain(indices, window=stride, num_frames=n)


class TestFixedStride:
    def test_n10_stride4(self):
        assert fixed_stride_chain(10, 4).indices == (0, 4, 8, 9)

    def test_stride_larger_than_sequence(self):
        assert fixed_stride_chain(5, 10).indices == (0, 4)

    def test_single_frame(self):
        assert fixed_stride_chain(1, 3).indices == (0,)

    def test_no_duplicate_final_frame(self):
        assert fixed_stride_chain(9, 4).indices == (0, 4, 8)


class TestCyclicPanRedundancy:
    def test_similarity_chain_avoids_redundant_references(self):
        # period-4 cycle with stride 8 makes fixed-stride pick identical views
        spec = CanvasSpec(24, 24, 24, 32, 0, 8, downsample=2)
        traj = SceneConfig(kind="pan_cycle", start_y=8.0, start_x=8.0, delta_x=3.0, period=4)
        scene = generate_scene(21, 48, 64, 24, 24, 17, traj, spec)
        frames = scene_frames(scene)
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
