import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from outpaint.grids import CanvasSpec, ChannelGrid, FlowField, make_outpaint_mask
from outpaint.flow import (
    _bilinear,
    backward_warp,
    complete_flow_laplacian,
    compose_accumulated,
    laplace_residual,
    map_flow_to_canvas,
)
from whole_canvas import compose_grid, warp_grid


def ramp_grid(h=6, w=8):
    # src(x) = x along columns, same for every channel
    return ChannelGrid(np.tile(np.arange(float(w)), (1, h, 1)))


def rand_grid(seed, c=2, h=6, w=8):
    return ChannelGrid(np.random.default_rng(seed).random((c, h, w)))


def dense_completion(flow, known):
    """(u, v) of the 5-point Laplace fill solved densely: unknown cells
    average their in-canvas neighbours (Neumann canvas border), known cells
    are Dirichlet data."""
    h, w = known.shape
    cells = list(zip(*np.nonzero(~known)))
    index = {cell: k for k, cell in enumerate(cells)}
    a = np.zeros((len(cells), len(cells)))
    rhs = np.zeros((len(cells), 2))
    for (y, x), k in index.items():
        for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
            if not (0 <= ny < h and 0 <= nx < w):
                continue
            a[k, k] += 1.0
            if (ny, nx) in index:
                a[k, index[(ny, nx)]] -= 1.0
            else:
                rhs[k] += (flow.u[ny, nx], flow.v[ny, nx])
    out = np.stack([flow.u, flow.v]).astype(float)
    if cells:
        out[:, ~known] = np.linalg.solve(a, rhs).T
    return out


@given(h=st.integers(1, 8), w=st.integers(1, 8), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_bilinear_on_a_cell_list_matches_the_whole_grid(h, w, seed):
    # positions mix boundary-exact, just-outside, out-of-bounds, NaN and inf
    # values with random ones; cells repeat, and the list may be empty
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((2, h, w))
    sy = rng.uniform(-1.0, h, (h, w))
    sx = rng.uniform(-1.0, w, (h, w))
    for pos, n in ((sy, h), (sx, w)):
        special = [0.0, n - 1.0, n - 1.0 + 1e-9, n - 0.5, -0.5, np.nan, np.inf, -np.inf]
        pick = rng.random((h, w)) < 0.5
        pos[pick] = rng.choice(special, pick.sum())
    cells = rng.choice(h * w, rng.integers(0, 2 * h * w))
    whole, whole_inb = _bilinear(stack, sy, sx)
    got, inb = _bilinear(stack, sy.ravel()[cells], sx.ravel()[cells])
    assert np.array_equal(got, whole.reshape(2, -1)[:, cells])
    assert np.array_equal(inb, whole_inb.ravel()[cells])


class TestBackwardWarp:
    def test_zero_flow_is_identity(self):
        src = rand_grid(0)
        out, mask = warp_grid(src, FlowField.constant(6, 8, 0.0, 0.0))
        assert np.array_equal(out.data, src.data)
        assert np.all(mask.data == 1.0)

    def test_integer_shift(self):
        src = rand_grid(1)
        out, mask = warp_grid(src, FlowField.constant(6, 8, 1.0, 0.0))
        assert np.array_equal(out.data[:, :, :7], src.data[:, :, 1:])
        assert np.all(mask.data[:, :7] == 1.0)
        assert np.all(mask.data[:, 7] == 0.0)

    def test_half_pixel_on_ramp(self):
        # bilinear by hand: sampling a ramp at x+0.5 gives x+0.5
        src = ramp_grid()
        out, mask = warp_grid(src, FlowField.constant(6, 8, 0.5, 0.0))
        expect = np.arange(8.0) + 0.5
        valid = mask.data[0] == 1.0
        assert np.allclose(out.data[0, 0, valid[: out.width]], expect[valid], atol=1e-12)
        assert np.all(mask.data[:, 7] == 0.0)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            warp_grid(rand_grid(0), FlowField.constant(5, 8, 0.0, 0.0))

    def test_channels_warp_as_one_stack(self):
        # fractional, varying flow with invalid cells and out-of-bounds samples
        rng = np.random.default_rng(4)
        flow = FlowField(
            rng.uniform(-2.5, 2.5, (6, 8)), rng.uniform(-2.5, 2.5, (6, 8)), rng.random((6, 8)) > 0.2
        )
        src = rand_grid(5, c=4)
        out, mask = warp_grid(src, flow)
        singles = [warp_grid(ChannelGrid(plane[None]), flow) for plane in src.data]
        assert np.array_equal(out.data, np.concatenate([o.data for o, _ in singles]))
        for _, m in singles:
            assert np.array_equal(mask.data, m.data)
        assert mask.data.any() and not mask.data.all()

    @given(du=st.integers(-3, 3), dv=st.integers(-3, 3))
    @settings(max_examples=30, deadline=None)
    def test_integer_inverse_consistency(self, du, dv):
        src = rand_grid(9, c=1, h=7, w=7)
        fwd, m1 = warp_grid(src, FlowField.constant(7, 7, du, dv))
        back, m2 = warp_grid(fwd, FlowField.constant(7, 7, -du, -dv))
        both = (m2.data == 1.0) & (
            warp_grid(
                ChannelGrid(m1.data[None]), FlowField.constant(7, 7, -du, -dv)
            )[0].data[0]
            == 1.0
        )
        assert np.array_equal(back.data[0][both], src.data[0][both])
        assert both.any()


def stacked(f):
    """A flow's (u, v) planes as a grid, the form in which a flow warps
    through another flow."""
    return ChannelGrid(np.stack([f.u, f.v]))


def reference_warp_flow(f, through):
    """Resample flow ``f`` at x + through(x) with the bilinear arithmetic of
    ``backward_warp``, written out independently.  Output validity requires
    ``through`` valid, the sample in bounds, and all four interpolation
    corners of ``f`` valid.  On a complete hop, composition built on it must
    equal ``compose_accumulated`` bit for bit."""
    h, w = f.height, f.width
    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    sy, sx = ys + through.v, xs + through.u
    inb = (sx >= 0.0) & (sx <= w - 1.0) & (sy >= 0.0) & (sy <= h - 1.0)
    sx, sy = np.where(inb, sx, 0.0), np.where(inb, sy, 0.0)
    x0, y0 = np.floor(sx).astype(int), np.floor(sy).astype(int)
    x1, y1 = np.minimum(x0 + 1, w - 1), np.minimum(y0 + 1, h - 1)
    fx, fy = sx - x0, sy - y0
    corners_ok = f.valid[y0, x0] & f.valid[y0, x1] & f.valid[y1, x0] & f.valid[y1, x1]
    ok = inb & through.valid & corners_ok
    uv = np.where(f.valid, np.stack([f.u, f.v]), 0.0)
    a, b, c, d = uv[:, y0, x0], uv[:, y0, x1], uv[:, y1, x0], uv[:, y1, x1]
    u, v = np.where(ok, a + fx * (b - a) + fy * (c - a) + fx * fy * (d - c - b + a), 0.0)
    return FlowField(u, v, ok)


class TestWarpFlow:
    """A flow warped through another flow: ``backward_warp`` of its stacked
    planes, as ``compose_accumulated`` resamples a hop."""

    def test_identity_through_zero(self):
        f = FlowField(
            np.random.default_rng(0).random((5, 5)),
            np.random.default_rng(1).random((5, 5)),
            np.ones((5, 5)),
        )
        out, ok = warp_grid(stacked(f), FlowField.constant(5, 5, 0.0, 0.0))
        assert np.array_equal(out.data, stacked(f).data)
        assert ok.data.all()

    def test_constant_field_invariant(self):
        f = FlowField.constant(6, 6, 2.5, -1.5)
        through = FlowField(
            np.random.default_rng(2).uniform(-2, 2, (6, 6)),
            np.random.default_rng(3).uniform(-2, 2, (6, 6)),
            np.ones((6, 6)),
        )
        out, ok = warp_grid(stacked(f), through)
        ok = ok.data
        assert ok.any()
        assert np.allclose(out.data[0][ok], 2.5, atol=1e-12)
        assert np.allclose(out.data[1][ok], -1.5, atol=1e-12)

    def test_ramp_through_constant(self):
        u = np.tile(np.arange(8.0), (6, 1))
        f = FlowField(u, np.zeros((6, 8)), np.ones((6, 8)))
        out, ok = warp_grid(stacked(f), FlowField.constant(6, 8, 2.0, 0.0))
        ok = ok.data
        assert np.array_equal(out.data[0][ok], (u + 2.0)[ok])
        assert not ok[:, 6:].any()


@pytest.mark.parametrize("plane", ["u", "v"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_invalid_cell_warps_like_any_invalid_cell(plane, value):
    # a non-finite displacement at one cell warps like a sample outside the
    # grid: ok False and 0 there, no warning (the suite turns warnings into
    # errors), and every other cell exactly as with the finite flow
    rng = np.random.default_rng(6)
    clean = rng.uniform(-1.5, 1.5, (2, 48))
    dirty = clean.copy()
    dirty["uv".index(plane), 19] = value  # cell (2, 3) of a 6x8 grid
    cells = np.arange(48)
    rest = cells != 19
    src = rand_grid(3).data
    hop = rng.uniform(-1.0, 1.0, (2, 6, 8))
    for warp in (backward_warp, compose_accumulated):
        stack = src if warp is backward_warp else hop
        *got, ok = warp(stack, cells, dirty)
        *want, want_ok = warp(stack, cells, clean)
        assert want_ok[19] and not ok[19]
        assert all(np.all(g[..., 19] == 0.0) for g in got)
        assert np.array_equal(ok[rest], want_ok[rest])
        for g, w in zip(got, want):
            assert np.array_equal(g[..., rest], w[..., rest])


class TestComposeAccumulated:
    def base(self, du=3.0, dv=0.0, h=6, w=8):
        return FlowField.constant(h, w, du, dv)

    def test_zero_hop_keeps_flow(self):
        base = self.base()
        out = compose_grid(base, FlowField.constant(6, 8, 0.0, 0.0))
        ok = out.valid == 1.0
        assert np.array_equal(out.u[ok], base.u[ok])

    def test_constant_hops_add(self):
        out = compose_grid(self.base(3.0, 0.0), FlowField.constant(6, 8, 2.0, 1.0))
        ok = out.valid == 1.0
        assert ok.any()
        assert np.allclose(out.u[ok], 5.0, atol=1e-12)
        assert np.allclose(out.v[ok], 1.0, atol=1e-12)

    def test_five_constant_hops_accumulate(self):
        hops = [(0.5, -0.25), (1.0, 0.5), (-0.75, 0.25), (0.25, 0.5), (0.5, -0.5)]
        acc = FlowField.constant(12, 12, *hops[0])
        for du, dv in hops[1:]:
            acc = compose_grid(acc, FlowField.constant(12, 12, du, dv))
        ok = acc.valid == 1.0
        assert ok.any()
        assert np.allclose(acc.u[ok], sum(h[0] for h in hops), atol=1e-5)
        assert np.allclose(acc.v[ok], sum(h[1] for h in hops), atol=1e-5)

    def test_validity_shrinks_with_motion(self):
        out = compose_grid(self.base(6.0, 0.0), FlowField.constant(6, 8, 6.0, 0.0))
        # only columns whose sample x+6 stays inside an 8-wide grid survive
        assert np.all(out.valid[:, :2] == 1.0)
        assert np.all(out.valid[:, 2:] == 0.0)
        assert np.allclose(out.u[:, :2], 12.0, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            compose_grid(self.base(), FlowField.constant(6, 7, 0.0, 0.0))

    @given(
        h=st.integers(1, 12),
        w=st.integers(1, 16),
        reach=st.sampled_from([0.5, 2.0, 6.0]),
        invalid_frac=st.sampled_from([0.0, 0.3, 0.7]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_warp_flow(self, h, w, reach, invalid_frac, seed):
        # complete hop; the accumulated flow is partly invalid, holds junk
        # there, and partly samples outside the grid
        rng = np.random.default_rng(seed)
        acc_valid = rng.random((h, w)) >= invalid_frac
        acc_u, acc_v = rng.uniform(-reach, reach, (2, h, w))
        acc_u[~acc_valid] = rng.choice([np.nan, np.inf, 1e9], (~acc_valid).sum())
        acc = FlowField(acc_u, acc_v, acc_valid)
        hop = FlowField(*rng.uniform(-reach, reach, (2, h, w)), np.ones((h, w)))
        warped = reference_warp_flow(hop, acc)
        want_u, want_v = np.where(warped.valid, np.stack([acc.u + warped.u, acc.v + warped.v]), 0.0)
        got = compose_grid(acc, hop)
        assert np.array_equal(got.u, want_u)
        assert np.array_equal(got.v, want_v)
        assert np.array_equal(got.valid, warped.valid)


class TestMapFlowToCanvas:
    def test_identity_spec(self):
        f = FlowField.constant(4, 4, 1.0, 2.0)
        out = map_flow_to_canvas(f, CanvasSpec(4, 4, 4, 4, 0, 0))
        assert np.array_equal(out.u, f.u)
        assert np.all(out.valid == 1.0)

    def test_valid_count_and_mask_complement(self):
        spec = CanvasSpec(4, 4, 6, 8, 1, 2)
        out = map_flow_to_canvas(FlowField.constant(4, 4, 1.0, 0.0), spec)
        assert out.valid.sum() == 16
        mask = make_outpaint_mask(spec)
        assert np.array_equal(out.valid, 1.0 - mask.data)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            map_flow_to_canvas(FlowField.constant(3, 3, 0.0, 0.0), CanvasSpec(4, 4, 6, 8, 1, 2))


class TestLaplacianCompletion:
    def test_nothing_missing_returns_input(self):
        f = FlowField(
            np.random.default_rng(0).random((5, 5)),
            np.random.default_rng(1).random((5, 5)),
            np.ones((5, 5)),
        )
        out = complete_flow_laplacian(f)
        assert np.array_equal(out[0], f.u)
        assert np.array_equal(out[1], f.v)

    def test_constant_extension(self):
        valid = np.zeros((6, 10))
        valid[:, 3:7] = 1.0
        f = FlowField(np.full((6, 10), 2.5) * valid, np.full((6, 10), -1.0) * valid, valid)
        out = complete_flow_laplacian(f)
        assert np.allclose(out[0], 2.5, atol=1e-9)
        assert np.allclose(out[1], -1.0, atol=1e-9)
        assert np.isfinite(out).all()

    def test_1d_strip_linear_fill(self):
        # hand-solved tridiagonal system: boundary 0 and 4 -> 1, 2, 3
        u = np.array([[0.0, 0.0, 0.0, 0.0, 4.0]])
        valid = np.array([[1.0, 0.0, 0.0, 0.0, 1.0]])
        out = complete_flow_laplacian(FlowField(u, np.zeros((1, 5)), valid))
        assert np.allclose(out[0][0, 1:4], [1.0, 2.0, 3.0], atol=1e-6)

    def test_known_cells_bit_identical(self):
        rng = np.random.default_rng(4)
        valid = (rng.random((7, 7)) > 0.4).astype(float)
        valid[3, 3] = 1.0
        u = rng.random((7, 7)) * valid
        v = rng.random((7, 7)) * valid
        f = FlowField(u, v, valid)
        out = complete_flow_laplacian(f)
        known = valid == 1.0
        assert np.array_equal(out[0][known], f.u[known])
        assert np.array_equal(out[1][known], f.v[known])

    def test_idempotent_within_tol(self):
        valid = np.zeros((8, 8))
        valid[2:6, 2:6] = 1.0
        rng = np.random.default_rng(5)
        f = FlowField(rng.random((8, 8)) * valid, rng.random((8, 8)) * valid, valid)
        once = complete_flow_laplacian(f)
        twice = complete_flow_laplacian(FlowField(*once, np.ones((8, 8))))
        assert np.allclose(once[0], twice[0], atol=1e-6)
        assert np.allclose(once[1], twice[1], atol=1e-6)

    def test_matches_dense_solve(self):
        # known left band, smooth non-harmonic data; the oracle solves the
        # 5-point system (Neumann canvas border, known cells as Dirichlet
        # data) densely
        h, w = 8, 32
        ys, xs = np.mgrid[0:h, 0:w].astype(float)
        valid = (xs < 8).astype(float)
        f = FlowField(
            (np.sin(3 * ys / 8) + 0.3 * xs) * valid, (np.cos(xs / 3) - 0.1 * ys) * valid, valid
        )
        out = complete_flow_laplacian(f)
        cells = [(y, x) for y in range(h) for x in range(8, w)]
        index = {cell: k for k, cell in enumerate(cells)}
        a = np.zeros((len(cells), len(cells)))
        rhs = np.zeros((len(cells), 2))
        for (y, x), k in index.items():
            for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                if not (0 <= ny < h and 0 <= nx < w):
                    continue
                a[k, k] += 1.0
                if (ny, nx) in index:
                    a[k, index[(ny, nx)]] -= 1.0
                else:
                    rhs[k] += (f.u[ny, nx], f.v[ny, nx])
        solved = np.linalg.solve(a, rhs)
        got = np.array([(out[0][c], out[1][c]) for c in cells])
        assert np.max(np.abs(got - solved)) < 1e-6

    @given(
        h=st.integers(1, 12),
        w=st.integers(1, 24),
        bands=st.tuples(*[st.integers(0, 4)] * 4).filter(any),
        bands_known=st.booleans(),
        hole=st.tuples(st.integers(0, 11), st.integers(0, 23), st.integers(0, 3), st.integers(0, 3)),
        invalid_frac=st.sampled_from([0.0, 0.1, 0.3]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_oracle(self, h, w, bands, bands_known, hole, invalid_frac, seed):
        # bands on one to four sides are the missing region (or, flipped,
        # the known one); the source has an interior hole and scattered
        # invalid cells
        top, bottom, left, right = bands
        ys, xs = np.mgrid[0:h, 0:w]
        band = (ys < top) | (ys >= h - bottom) | (xs < left) | (xs >= w - right)
        missing = band if not bands_known else ~band
        rng = np.random.default_rng(seed)
        valid = ~missing & (rng.random((h, w)) >= invalid_frac)
        y0, x0, hole_h, hole_w = hole
        valid[y0 : y0 + hole_h, x0 : x0 + hole_w] = False
        known = valid & ~missing
        assume(known.any())
        f = FlowField(rng.normal(0.0, 3.0, (h, w)), rng.normal(0.0, 1.0, (h, w)), valid)
        out = complete_flow_laplacian(f)
        # measured worst case over such inputs: 2e-14 px
        assert np.max(np.abs(out - dense_completion(f, known))) < 1e-10
        assert laplace_residual(out, ~known) < 1e-10
        assert np.array_equal(out[0][known], f.u[known])
        assert np.array_equal(out[1][known], f.v[known])
        assert np.isfinite(out).all()

    def test_constant_known_data_returned_exactly(self):
        # 0.1 and -1/3 are not exact in binary, so a mean or a solve would
        # round them
        valid = np.zeros((9, 12), dtype=bool)
        valid[2:7, 3:10] = True
        f = FlowField(np.where(valid, 0.1, 0.0), np.where(valid, -1.0 / 3.0, 0.0), valid)
        out = complete_flow_laplacian(f)
        assert np.array_equal(out[0], np.full((9, 12), 0.1))
        assert np.array_equal(out[1], np.full((9, 12), -1.0 / 3.0))
        # a constant plane stays exact next to a plane that needs a solve
        ys, xs = np.mgrid[0:9, 0:12].astype(float)
        f = FlowField(f.u, np.where(valid, np.sin(xs) + ys, 0.0), valid)
        out = complete_flow_laplacian(f)
        assert np.array_equal(out[0], np.full((9, 12), 0.1))
        assert np.max(np.abs(out[1] - dense_completion(f, valid)[1])) < 1e-10

    def test_factor_cache_keeps_masks_apart(self):
        # masks A, B, A of one shape, then A's bytes under another shape:
        # each completion must match its own dense answer
        rng = np.random.default_rng(11)
        mask_a = np.zeros((6, 10), dtype=bool)
        mask_a[:, :3] = True
        mask_b = np.zeros((6, 10), dtype=bool)
        mask_b[:2, :] = True
        for missing in (mask_a, mask_b, mask_a, mask_a.reshape(10, 6)):
            valid = ~missing
            f = FlowField(rng.random(missing.shape), rng.random(missing.shape), valid)
            out = complete_flow_laplacian(f)
            assert np.max(np.abs(out - dense_completion(f, valid))) < 1e-10

    def test_no_known_cells(self):
        f = FlowField(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="known"):
            complete_flow_laplacian(f)

    def test_completer_interface(self):
        valid = np.zeros((4, 6))
        valid[:, 2:4] = 1.0
        f = FlowField(valid * 1.5, valid * 0.5, valid)
        out = complete_flow_laplacian(f)
        assert np.isfinite(out).all()
        assert np.allclose(out[0], 1.5, atol=1e-8)
