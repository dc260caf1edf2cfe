import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outpaint.grids import BinaryMask, CanvasSpec, ChannelGrid, FlowField, make_outpaint_mask
from outpaint.flow import (
    AccumulatedFlow,
    FlowCompletionError,
    backward_warp,
    complete_flow_laplacian,
    compose_accumulated,
    map_flow_to_canvas,
    warp_flow,
)


def ramp_grid(h=6, w=8):
    # src(x) = x along columns, same for every channel
    return ChannelGrid(np.tile(np.arange(float(w)), (1, h, 1)))


def rand_grid(seed, c=2, h=6, w=8):
    return ChannelGrid(np.random.default_rng(seed).random((c, h, w)))


class TestBackwardWarp:
    def test_zero_flow_is_identity(self):
        src = rand_grid(0)
        out, mask = backward_warp(src, FlowField.zero(6, 8))
        assert np.array_equal(out.data, src.data)
        assert np.all(mask.data == 1.0)

    def test_integer_shift(self):
        src = rand_grid(1)
        out, mask = backward_warp(src, FlowField.constant(6, 8, 1.0, 0.0))
        assert np.array_equal(out.data[:, :, :7], src.data[:, :, 1:])
        assert np.all(mask.data[:, :7] == 1.0)
        assert np.all(mask.data[:, 7] == 0.0)

    def test_half_pixel_on_ramp(self):
        # bilinear by hand: sampling a ramp at x+0.5 gives x+0.5
        src = ramp_grid()
        out, mask = backward_warp(src, FlowField.constant(6, 8, 0.5, 0.0))
        expect = np.arange(8.0) + 0.5
        valid = mask.data[0] == 1.0
        assert np.allclose(out.data[0, 0, valid[: out.width]], expect[valid], atol=1e-12)
        assert np.all(mask.data[:, 7] == 0.0)

    def test_invalid_flow_cells_masked(self):
        src = rand_grid(2)
        valid = np.ones((6, 8))
        valid[2, 3] = 0.0
        out, mask = backward_warp(src, FlowField(np.zeros((6, 8)), np.zeros((6, 8)), valid))
        assert mask.data[2, 3] == 0.0
        assert out.data[0, 2, 3] == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            backward_warp(rand_grid(0), FlowField.zero(5, 8))

    @given(du=st.integers(-3, 3), dv=st.integers(-3, 3))
    @settings(max_examples=30, deadline=None)
    def test_integer_inverse_consistency(self, du, dv):
        src = rand_grid(9, c=1, h=7, w=7)
        fwd, m1 = backward_warp(src, FlowField.constant(7, 7, du, dv))
        back, m2 = backward_warp(fwd, FlowField.constant(7, 7, -du, -dv))
        both = (m2.data == 1.0) & (
            backward_warp(
                ChannelGrid(m1.data[None]), FlowField.constant(7, 7, -du, -dv)
            )[0].data[0]
            == 1.0
        )
        assert np.array_equal(back.data[0][both], src.data[0][both])
        assert both.any()


class TestWarpFlow:
    def test_identity_through_zero(self):
        f = FlowField(
            np.random.default_rng(0).random((5, 5)),
            np.random.default_rng(1).random((5, 5)),
            np.ones((5, 5)),
        )
        out = warp_flow(f, FlowField.zero(5, 5))
        assert np.array_equal(out.u, f.u)
        assert np.array_equal(out.v, f.v)
        assert np.all(out.valid == 1.0)

    def test_constant_field_invariant(self):
        f = FlowField.constant(6, 6, 2.5, -1.5)
        through = FlowField(
            np.random.default_rng(2).uniform(-2, 2, (6, 6)),
            np.random.default_rng(3).uniform(-2, 2, (6, 6)),
            np.ones((6, 6)),
        )
        out = warp_flow(f, through)
        ok = out.valid == 1.0
        assert ok.any()
        assert np.allclose(out.u[ok], 2.5, atol=1e-12)
        assert np.allclose(out.v[ok], -1.5, atol=1e-12)

    def test_ramp_through_constant(self):
        u = np.tile(np.arange(8.0), (6, 1))
        f = FlowField(u, np.zeros((6, 8)), np.ones((6, 8)))
        out = warp_flow(f, FlowField.constant(6, 8, 2.0, 0.0))
        ok = out.valid == 1.0
        assert np.array_equal(out.u[ok], (u + 2.0)[ok])
        assert np.all(out.valid[:, 6:] == 0.0)

    def test_invalid_corner_blocks_output(self):
        valid = np.ones((4, 4))
        valid[1, 2] = 0.0
        f = FlowField(np.ones((4, 4)), np.zeros((4, 4)), valid)
        out = warp_flow(f, FlowField.constant(4, 4, 0.5, 0.0))
        # sampling between columns 1 and 2 on row 1 touches the invalid corner
        assert out.valid[1, 1] == 0.0


class TestComposeAccumulated:
    def base(self, du=3.0, dv=0.0, h=6, w=8):
        return AccumulatedFlow(0, 1, FlowField.constant(h, w, du, dv), hops=1)

    def test_zero_hop_keeps_flow(self):
        base = self.base()
        out = compose_accumulated(base, FlowField.zero(6, 8), hop_target=2)
        ok = out.flow.valid == 1.0
        assert np.array_equal(out.flow.u[ok], base.flow.u[ok])
        assert out.hops == 2 and out.source == 2 and out.target == 0

    def test_constant_hops_add(self):
        out = compose_accumulated(self.base(3.0, 0.0), FlowField.constant(6, 8, 2.0, 1.0), 2)
        ok = out.flow.valid == 1.0
        assert ok.any()
        assert np.allclose(out.flow.u[ok], 5.0, atol=1e-12)
        assert np.allclose(out.flow.v[ok], 1.0, atol=1e-12)

    def test_five_constant_hops_accumulate(self):
        hops = [(0.5, -0.25), (1.0, 0.5), (-0.75, 0.25), (0.25, 0.5), (0.5, -0.5)]
        acc = AccumulatedFlow(0, 1, FlowField.constant(12, 12, *hops[0]), hops=1)
        for k, (du, dv) in enumerate(hops[1:], start=2):
            acc = compose_accumulated(acc, FlowField.constant(12, 12, du, dv), k)
        ok = acc.flow.valid == 1.0
        assert ok.any()
        assert np.allclose(acc.flow.u[ok], sum(h[0] for h in hops), atol=1e-5)
        assert np.allclose(acc.flow.v[ok], sum(h[1] for h in hops), atol=1e-5)
        assert acc.hops == 5

    def test_validity_shrinks_with_motion(self):
        out = compose_accumulated(self.base(6.0, 0.0), FlowField.constant(6, 8, 6.0, 0.0), 2)
        # only columns whose sample x+6 stays inside an 8-wide grid survive
        assert np.all(out.flow.valid[:, :2] == 1.0)
        assert np.all(out.flow.valid[:, 2:] == 0.0)
        assert np.allclose(out.flow.u[:, :2], 12.0, atol=1e-12)


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
            map_flow_to_canvas(FlowField.zero(3, 3), CanvasSpec(4, 4, 6, 8, 1, 2))


class TestLaplacianCompletion:
    def test_nothing_missing_returns_input(self):
        f = FlowField(
            np.random.default_rng(0).random((5, 5)),
            np.random.default_rng(1).random((5, 5)),
            np.ones((5, 5)),
        )
        out = complete_flow_laplacian(f, BinaryMask(np.zeros((5, 5))))
        assert np.array_equal(out.u, f.u)
        assert np.array_equal(out.v, f.v)

    def test_constant_extension(self):
        valid = np.zeros((6, 10))
        valid[:, 3:7] = 1.0
        f = FlowField(np.full((6, 10), 2.5) * valid, np.full((6, 10), -1.0) * valid, valid)
        missing = BinaryMask(1.0 - valid)
        out = complete_flow_laplacian(f, missing, tol=1e-9)
        assert np.allclose(out.u, 2.5, atol=1e-9)
        assert np.allclose(out.v, -1.0, atol=1e-9)
        assert np.all(out.valid == 1.0)

    def test_1d_strip_linear_fill(self):
        # hand-solved tridiagonal system: boundary 0 and 4 -> 1, 2, 3
        u = np.array([[0.0, 0.0, 0.0, 0.0, 4.0]])
        valid = np.array([[1.0, 0.0, 0.0, 0.0, 1.0]])
        missing = BinaryMask(1.0 - valid)
        out = complete_flow_laplacian(FlowField(u, np.zeros((1, 5)), valid), missing, tol=1e-10)
        assert np.allclose(out.u[0, 1:4], [1.0, 2.0, 3.0], atol=1e-6)

    def test_known_cells_bit_identical(self):
        rng = np.random.default_rng(4)
        valid = (rng.random((7, 7)) > 0.4).astype(float)
        valid[3, 3] = 1.0
        u = rng.random((7, 7)) * valid
        v = rng.random((7, 7)) * valid
        f = FlowField(u, v, valid)
        missing = BinaryMask(1.0 - valid)
        out = complete_flow_laplacian(f, missing, tol=1e-8)
        known = valid == 1.0
        assert np.array_equal(out.u[known], f.u[known])
        assert np.array_equal(out.v[known], f.v[known])

    def test_idempotent_within_tol(self):
        valid = np.zeros((8, 8))
        valid[2:6, 2:6] = 1.0
        rng = np.random.default_rng(5)
        f = FlowField(rng.random((8, 8)) * valid, rng.random((8, 8)) * valid, valid)
        missing = BinaryMask(1.0 - valid)
        once = complete_flow_laplacian(f, missing, tol=1e-10)
        twice = complete_flow_laplacian(once, missing, tol=1e-10)
        assert np.allclose(once.u, twice.u, atol=1e-6)
        assert np.allclose(once.v, twice.v, atol=1e-6)

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
        out = complete_flow_laplacian(f, BinaryMask(1.0 - valid), tol=1e-8)
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
        got = np.array([(out.u[c], out.v[c]) for c in cells])
        assert np.max(np.abs(got - solved)) < 1e-6

    def test_no_known_cells(self):
        f = FlowField(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="known"):
            complete_flow_laplacian(f, BinaryMask(np.zeros((3, 3))))

    def test_nonconvergence_reports_residual(self):
        # opposing boundary values need many iterations; one is never enough
        valid = np.zeros((8, 8))
        valid[:, 0] = 1.0
        valid[:, 7] = 1.0
        u = np.zeros((8, 8))
        u[:, 7] = 40.0
        f = FlowField(u, np.zeros((8, 8)), valid)
        with pytest.raises(FlowCompletionError) as info:
            complete_flow_laplacian(f, BinaryMask(1.0 - valid), tol=1e-12, max_iters=1)
        assert info.value.residual > 0

    def test_completer_interface(self):
        valid = np.zeros((4, 6))
        valid[:, 2:4] = 1.0
        f = FlowField(valid * 1.5, valid * 0.5, valid)
        out = complete_flow_laplacian(f, BinaryMask(1.0 - valid), tol=1e-9)
        assert np.all(out.valid == 1.0)
        assert np.allclose(out.u, 1.5, atol=1e-8)

    def test_tolerance_must_be_positive(self):
        # tol <= 0 or NaN could never be met: the solve would spend every
        # iteration and fail on a nan residual instead of refusing up front
        valid = np.zeros((4, 6))
        valid[:, 2:4] = 1.0
        f = FlowField(valid * 1.5, valid * 0.5, valid)
        for tol in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="tol"):
                complete_flow_laplacian(f, BinaryMask(1.0 - valid), tol=tol)
