import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outpaint.flow import backward_warp, map_flow_to_canvas
from outpaint.grids import (
    BinaryMask,
    CanvasSpec,
    ChannelGrid,
    FlowField,
    GridFormatError,
    ScalarGrid,
    downscale_flow,
    downscale_mask,
    make_outpaint_mask,
    place_on_canvas,
    read_grid,
    write_grid,
)


def test_scalar_grid_rejects_nonfinite():
    with pytest.raises(ValueError):
        ScalarGrid(np.array([[1.0, np.nan]]))


@pytest.mark.parametrize("value", [0.5, np.nan, 2.0])
@pytest.mark.parametrize(
    "build",
    [BinaryMask, lambda plane: FlowField(np.zeros((1, 2)), np.zeros((1, 2)), plane)],
    ids=["BinaryMask", "FlowField.valid"],
)
def test_mask_rejects_fractions(build, value):
    with pytest.raises(ValueError):
        build(np.array([[1.0, value]]))


def test_masks_are_readonly_bool(tmp_path):
    mask = make_outpaint_mask(CanvasSpec(2, 2, 4, 4, 1, 1))
    flow = FlowField(np.full((4, 4), 0.5), np.full((4, 4), -1.25), ~mask.data)
    _, warped = backward_warp(ChannelGrid(np.ones((1, 4, 4))), flow)
    write_grid(tmp_path / "m.s2sg", mask)
    write_grid(tmp_path / "f.s2sg", flow)
    read_mask, read_flow = read_grid(tmp_path / "m.s2sg"), read_grid(tmp_path / "f.s2sg")
    for plane in (mask.data, flow.valid, warped.data, read_mask.data, read_flow.valid):
        assert plane.dtype == bool
        assert not plane.flags.writeable
    assert np.array_equal(read_mask.data, mask.data)
    assert np.array_equal(read_flow.valid, flow.valid)

    # on disk a bool plane is the float32 0/1 payload of its float twin
    twin = mask.data.astype(float)
    write_grid(tmp_path / "m_float.s2sg", BinaryMask(twin))
    write_grid(tmp_path / "f_float.s2sg", FlowField(flow.u, flow.v, 1.0 - twin))
    assert (tmp_path / "m.s2sg").read_bytes() == (tmp_path / "m_float.s2sg").read_bytes()
    assert (tmp_path / "f.s2sg").read_bytes() == (tmp_path / "f_float.s2sg").read_bytes()
    assert (tmp_path / "m.s2sg").read_bytes().endswith(twin.astype("<f4").tobytes())


def test_flow_requires_matching_planes():
    with pytest.raises(ValueError):
        FlowField(np.zeros((2, 2)), np.zeros((2, 3)), np.ones((2, 2)))


def test_flow_allows_junk_on_invalid_cells():
    u = np.array([[np.inf, 1.0]])
    valid = np.array([[0.0, 1.0]])
    f = FlowField(u, np.zeros((1, 2)), valid)
    assert f.u[0, 1] == 1.0


def test_grids_are_immutable():
    g = ScalarGrid(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        g.data[0, 0] = 1.0


class TestCanvasSpec:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            CanvasSpec(3, 4, 8, 8, 0, 0, downsample=2)

    def test_offset_bounds(self):
        with pytest.raises(ValueError):
            CanvasSpec(4, 4, 8, 8, 5, 0)

    def test_latent_geometry(self):
        spec = CanvasSpec(32, 32, 32, 64, 0, 16, downsample=4)
        lat = spec.latent()
        assert (lat.orig_h, lat.orig_w) == (8, 8)
        assert (lat.canvas_h, lat.canvas_w) == (8, 16)
        assert (lat.offset_y, lat.offset_x) == (0, 4)
        assert lat.downsample == 1


class TestPlaceOnCanvas:
    def test_2x2_on_4x4(self):
        frame = ChannelGrid(np.arange(4.0).reshape(1, 2, 2) + 1)
        spec = CanvasSpec(2, 2, 4, 4, 1, 1)
        out = place_on_canvas(frame, spec)
        assert np.array_equal(out.data[0, 1:3, 1:3], frame.data[0])
        border = out.data.copy()
        border[0, 1:3, 1:3] = 0.0
        assert np.all(border == 0.0)

    def test_identity_when_canvas_equals_frame(self):
        frame = ChannelGrid(np.random.default_rng(0).random((3, 4, 5)))
        spec = CanvasSpec(4, 5, 4, 5, 0, 0)
        out = place_on_canvas(frame, spec)
        assert np.array_equal(out.data, frame.data)

    def test_horizontal_outpaint_layout(self):
        frame = ChannelGrid(np.ones((1, 32, 32)))
        spec = CanvasSpec(32, 32, 32, 64, 0, 16)
        out = place_on_canvas(frame, spec)
        assert np.all(out.data[0, :, 16:48] == 1.0)
        assert np.all(out.data[0, :, :16] == 0.0)
        assert np.all(out.data[0, :, 48:] == 0.0)

    def test_dimension_mismatch(self):
        frame = ChannelGrid(np.ones((1, 3, 3)))
        with pytest.raises(ValueError):
            place_on_canvas(frame, CanvasSpec(2, 2, 4, 4, 0, 0))

    def test_crop_recovers_input(self):
        rng = np.random.default_rng(7)
        frame = ChannelGrid(rng.random((2, 6, 4)))
        spec = CanvasSpec(6, 4, 10, 12, 2, 5)
        ys, xs = spec.source_slices
        assert np.array_equal(place_on_canvas(frame, spec).data[:, ys, xs], frame.data)


class TestOutpaintMask:
    def test_no_expansion_gives_zero_mask(self):
        mask = make_outpaint_mask(CanvasSpec(4, 4, 4, 4, 0, 0))
        assert mask.data.sum() == 0

    def test_area_sum(self):
        # 32x48 canvas around a 32x32 frame: 1536 - 1024 = 512 outpaint cells
        mask = make_outpaint_mask(CanvasSpec(32, 32, 32, 48, 0, 8))
        assert mask.data.sum() == 512

    def test_quarter_mask_ratio(self):
        # w = 0.75 W layout
        spec = CanvasSpec(32, 48, 32, 64, 0, 8)
        mask = make_outpaint_mask(spec)
        assert mask.data.sum() / mask.data.size == 0.25

    @given(
        st.integers(1, 6), st.integers(1, 6), st.integers(0, 5), st.integers(0, 5),
        st.integers(0, 5), st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_sum_formula(self, h, w, dy, dx, oy, ox):
        H, W = h + dy, w + dx
        spec = CanvasSpec(h, w, H, W, min(oy, dy), min(ox, dx))
        assert make_outpaint_mask(spec).data.sum() == H * W - h * w

    @given(
        st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 3),
        st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_latent_mask_is_downscaled_pixel_mask(self, s, h, w, dy, dx, oy, ox):
        # every field is a multiple of s, as CanvasSpec requires
        spec = CanvasSpec(
            h * s, w * s, (h + dy) * s, (w + dx) * s, min(oy, dy) * s, min(ox, dx) * s,
            downsample=s,
        )
        assert np.array_equal(
            make_outpaint_mask(spec.latent()).data,
            downscale_mask(make_outpaint_mask(spec), s).data,
        )


class TestDownscaleFlow:
    def test_constant_flow(self):
        f = FlowField.constant(8, 8, 8.0, 4.0)
        out = downscale_flow(f, 4)
        assert out.height == out.width == 2
        assert np.all(out.u == 2.0) and np.all(out.v == 1.0)
        assert np.all(out.valid == 1.0)

    def test_all_invalid(self):
        f = FlowField(np.ones((4, 4)), np.ones((4, 4)), np.zeros((4, 4)))
        out = downscale_flow(f, 2)
        assert np.all(out.valid == 0.0)

    def test_linear_ramp_matches_block_average(self):
        xs = np.tile(np.arange(8.0), (8, 1))
        f = FlowField(xs, np.zeros((8, 8)), np.ones((8, 8)))
        out = downscale_flow(f, 2)
        # brute-force block average, then divide by s
        for bi in range(4):
            for bj in range(4):
                expect = xs[2 * bi : 2 * bi + 2, 2 * bj : 2 * bj + 2].mean() / 2.0
                assert out.u[bi, bj] == pytest.approx(expect, abs=1e-12)

    def test_partial_validity_averages_valid_only(self):
        u = np.array([[2.0, 100.0], [4.0, 6.0]])
        valid = np.array([[1.0, 0.0], [1.0, 1.0]])
        out = downscale_flow(FlowField(u, np.zeros((2, 2)), valid), 2)
        assert out.valid[0, 0] == 0.0
        assert out.u[0, 0] == pytest.approx((2.0 + 4.0 + 6.0) / 3.0 / 2.0)

    def test_non_divisible_dims(self):
        with pytest.raises(ValueError):
            downscale_flow(FlowField.zero(5, 4), 2)

    @given(
        st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 3),
        st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_downscale_then_place_matches_place_then_downscale(
        self, s, h, w, dy, dx, oy, ox, seed
    ):
        spec = CanvasSpec(
            h * s, w * s, (h + dy) * s, (w + dx) * s, min(oy, dy) * s, min(ox, dx) * s,
            downsample=s,
        )
        rng = np.random.default_rng(seed)
        shape = (spec.orig_h, spec.orig_w)
        flow = FlowField(
            rng.uniform(-1, 1, shape), rng.uniform(-1, 1, shape), rng.random(shape) > 0.2
        )
        placed_first = downscale_flow(map_flow_to_canvas(flow, spec), s)
        scaled_first = map_flow_to_canvas(downscale_flow(flow, s), spec.latent())
        assert np.array_equal(scaled_first.valid, placed_first.valid)
        # a source one latent cell wide is summed in another order by numpy's
        # two-axis block sum; every wider source gives the same bits
        tol = 0.0 if spec.orig_w >= 2 * s else 1e-15
        assert np.max(np.abs(scaled_first.u - placed_first.u)) <= tol
        assert np.max(np.abs(scaled_first.v - placed_first.v)) <= tol


class TestDownscaleMask:
    def test_zero_mask(self):
        out = downscale_mask(BinaryMask(np.zeros((4, 4))), 2)
        assert np.all(out.data == 0.0)

    def test_single_one_dominates_block(self):
        m = np.zeros((4, 4))
        m[1, 2] = 1.0
        out = downscale_mask(BinaryMask(m), 4)
        assert out.data.shape == (1, 1) and out.data[0, 0] == 1.0

    def test_checkerboard(self):
        m = np.indices((6, 6)).sum(axis=0) % 2
        out = downscale_mask(BinaryMask(m.astype(float)), 2)
        assert np.all(out.data == 1.0)

    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    @settings(max_examples=40, deadline=None)
    def test_monotone(self, bits_a, bits_b):
        a = np.array([(bits_a >> k) & 1 for k in range(16)], dtype=float).reshape(4, 4)
        b = np.maximum(a, np.array([(bits_b >> k) & 1 for k in range(16)], dtype=float).reshape(4, 4))
        da = downscale_mask(BinaryMask(a), 2).data
        db = downscale_mask(BinaryMask(b), 2).data
        assert np.all(db >= da)


class TestGridFiles:
    @pytest.mark.parametrize(
        "grid",
        [
            ScalarGrid(np.linspace(-3, 7, 12).reshape(3, 4)),
            ChannelGrid(np.arange(24.0).reshape(2, 3, 4)),
            FlowField(np.full((2, 2), 0.5), np.full((2, 2), -1.25), np.ones((2, 2))),
            BinaryMask(np.eye(3)),
        ],
    )
    def test_round_trip_bytes(self, grid, tmp_path):
        p1, p2 = tmp_path / "a.s2sg", tmp_path / "b.s2sg"
        write_grid(p1, grid)
        again = read_grid(p1)
        assert type(again) is type(grid)
        write_grid(p2, again)
        assert p1.read_bytes() == p2.read_bytes()

    @given(values=st.lists(st.floats(-1e6, 1e6, width=32), min_size=6, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_values(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("grids") / "g.s2sg"
        grid = ScalarGrid(np.array(values).reshape(2, 3))
        write_grid(path, grid)
        # float32-representable values survive exactly
        assert np.array_equal(read_grid(path).data, np.array(values).reshape(2, 3))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.s2sg"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(GridFormatError, match="magic"):
            read_grid(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.s2sg"
        write_grid(path, ScalarGrid(np.ones((4, 4))))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(GridFormatError, match="truncated"):
            read_grid(path)

    def test_trailing_data(self, tmp_path):
        path = tmp_path / "t.s2sg"
        write_grid(path, ScalarGrid(np.ones((2, 2))))
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(GridFormatError, match="trailing"):
            read_grid(path)

    def test_mask_payload_must_be_binary(self, tmp_path):
        path = tmp_path / "m.s2sg"
        write_grid(path, BinaryMask(np.ones((2, 2))))
        raw = bytearray(path.read_bytes())
        raw[-4:] = np.array([0.5], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(GridFormatError):
            read_grid(path)

    def test_dimension_overflow(self, tmp_path):
        import struct

        path = tmp_path / "o.s2sg"
        path.write_bytes(b"S2SG" + struct.pack("<HBIII", 1, 1, 2**20, 2**20, 4))
        with pytest.raises(GridFormatError, match="overflow"):
            read_grid(path)

    def test_write_rejects_nonfinite_flow(self, tmp_path):
        f = FlowField(np.array([[np.inf, 0.0]]), np.zeros((1, 2)), np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError):
            write_grid(tmp_path / "f.s2sg", f)
