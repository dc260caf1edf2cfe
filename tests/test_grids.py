import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outpaint import grids, pipeline, propagation
from outpaint.flow import complete_flow_laplacian, map_flow_to_canvas
from outpaint.grids import (
    BinaryMask,
    CanvasSpec,
    ChannelGrid,
    FlowField,
    GridFormatError,
    downscale_flow,
    downscale_mask,
    make_outpaint_mask,
    read_grid,
    write_grid,
)
from outpaint.pipeline import PipelineConfig, SceneConfig
from outpaint.propagation import (
    fuse_directions,
    propagate_direction,
    propagate_sequence,
    pull_stacks,
    required_flow_pairs,
)
from outpaint.refselect import build_reference_chain
from outpaint.synthetic import stand_in_encode
from placement import place_on_canvas
from scene_frames import scene_frames
from whole_canvas import warp_grid


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_channel_grid_rejects_nonfinite(value):
    with pytest.raises(ValueError, match="finite"):
        ChannelGrid(np.array([[[1.0, value]]]))


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
    _, warped = warp_grid(ChannelGrid(np.ones((1, 4, 4))), flow)
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
    g = ChannelGrid(np.zeros((1, 2, 2)))
    with pytest.raises(ValueError):
        g.data[0, 0, 0] = 1.0


def read_only(arr):
    arr.flags.writeable = False
    return arr


# (grid type, build from one array, the array the grid holds, a new input
# array that owns its memory)
GRID_ARRAYS = [
    ("ChannelGrid", ChannelGrid, lambda g: g.data, lambda: np.arange(24.0).reshape(2, 3, 4).copy()),
    (
        "FlowField",
        lambda a: FlowField(a, np.zeros((3, 4)), np.ones((3, 4), dtype=bool)),
        lambda g: g.u,
        lambda: np.arange(12.0).reshape(3, 4).copy(),
    ),
    ("BinaryMask", BinaryMask, lambda g: g.data, lambda: np.arange(12).reshape(3, 4) % 3 == 0),
]


@pytest.mark.parametrize(
    "build, held, make", [g[1:] for g in GRID_ARRAYS], ids=[g[0] for g in GRID_ARRAYS]
)
class TestGridCopies:
    def test_read_only_contiguous_array_is_kept(self, build, held, make):
        src = read_only(make())
        assert held(build(src)) is src
        # a read-only row of a read-only array too
        whole = read_only(np.stack([make(), make()]))
        assert held(build(whole[1])).base is whole

    def test_writeable_array_is_copied(self, build, held, make):
        src = make()
        grid = held(build(src))
        assert not np.shares_memory(grid, src) and not grid.flags.writeable
        src[...] = ~src if src.dtype == bool else src + 1.0
        assert np.array_equal(grid, make())

    def test_read_only_view_of_writeable_array_is_copied(self, build, held, make):
        base = np.stack([make(), make()])
        grid = held(build(read_only(base[1])))
        assert not np.shares_memory(grid, base)
        base[1] = ~base[1] if base.dtype == bool else base[1] + 1.0
        assert np.array_equal(grid, make())

    def test_other_layouts_and_dtypes_are_copied(self, build, held, make):
        src = make()
        for other in (read_only(np.asfortranarray(src)), read_only(src.astype(np.float32))):
            grid = held(build(other))
            assert not np.shares_memory(grid, other) and grid.flags.c_contiguous
            assert np.array_equal(grid, src)


@pytest.fixture(scope="module")
def producer_inputs():
    """What each grid producer below is given: a 4-frame pan by 1.5 px on an
    8x8 -> 8x12 canvas at s=2, so frame 0 is cut at a fractional origin,
    its latents, chain and completed latent flows, and one frame's two
    directional results."""
    spec = CanvasSpec(8, 8, 8, 12, 0, 4, downsample=2)
    scene_config = SceneConfig(world_h=16, world_w=24, n_frames=4, start_y=4.0, start_x=4.5, delta_x=1.5)
    scene = scene_config.build(3, spec)
    assert scene.origins[0][1] % 1.0 == 0.5
    frames = scene_frames(scene)
    latents = [stand_in_encode(f, 2) for f in frames]
    chain = build_reference_chain(frames, 2)
    flows = {
        (a, b): complete_flow_laplacian(downscale_flow(map_flow_to_canvas(scene.gt_flow(a, b), spec), 2))
        for a, b in required_flow_pairs(chain, 4)
    }
    ramp = FlowField(np.arange(64.0).reshape(8, 8) / 64.0, np.zeros((8, 8)), np.ones((8, 8), dtype=bool))
    stacks = pull_stacks(latents, spec.latent())
    return SimpleNamespace(
        spec=spec,
        scene_config=scene_config,
        scene=scene,
        frame=frames[0],
        latents=latents,
        chain=chain,
        flows=flows,
        stacks=stacks,
        canvas_flow=map_flow_to_canvas(scene.gt_flow(1, 0), spec),
        ramp_band=downscale_flow(map_flow_to_canvas(ramp, spec), 2),
        past=propagate_direction(1, chain, stacks, flows, "past"),
        future=propagate_direction(1, chain, stacks, flows, "future"),
    )


# each producer, given producer_inputs; each builds a new array for a grid
PRODUCERS = {
    "stand_in_encode": lambda p: stand_in_encode(p.frame, 2),
    "SyntheticScene._crop_fractional": lambda p: p.scene.frame(0),
    "FlowField.constant": lambda p: FlowField.constant(4, 6, 0.5, -1.0),
    "map_flow_to_canvas": lambda p: map_flow_to_canvas(p.scene.gt_flow(1, 0), p.spec),
    "downscale_flow": lambda p: downscale_flow(p.canvas_flow, 2),
    "propagate_direction": lambda p: propagate_direction(1, p.chain, p.stacks, p.flows, "future"),
    "fuse_directions": lambda p: fuse_directions(p.past, p.future, 1, 1),
    "PropagationResult.coverage": lambda p: p.past.coverage,
    "propagate_sequence": lambda p: propagate_sequence(p.latents, p.spec, p.chain, p.flows),
}


@pytest.fixture
def grid_copies(monkeypatch):
    """The shapes of the arrays grids copy, seen by a wrapper around
    ``grids._frozen`` (and propagation's import of it)."""
    copies = []
    frozen = grids._frozen

    def spy(data, dtype=np.float64):
        arr = frozen(data, dtype)
        if arr is not data:
            copies.append(np.shape(data))
        return arr

    monkeypatch.setattr(grids, "_frozen", spy)
    monkeypatch.setattr(propagation, "_frozen", spy)
    return copies


def test_the_copy_spy_sees_a_copy(grid_copies):
    ChannelGrid(np.zeros((1, 2, 3)))
    assert grid_copies == [(1, 2, 3)]


@pytest.mark.parametrize("produce", PRODUCERS.values(), ids=PRODUCERS.keys())
def test_producer_hands_its_array_to_the_grid(producer_inputs, grid_copies, produce):
    produce(producer_inputs)
    assert grid_copies == []


# a flow whose completion takes the constant-data shortcut, and one it solves
COMPLETIONS = {
    "constant": lambda p: downscale_flow(p.canvas_flow, 2),
    "solved": lambda p: p.ramp_band,
}


@pytest.mark.parametrize("flow", COMPLETIONS.values(), ids=COMPLETIONS.keys())
def test_completion_returns_one_sealed_displacement(producer_inputs, flow):
    f = flow(producer_inputs)
    uv = complete_flow_laplacian(f)
    assert type(uv) is np.ndarray and uv.dtype == np.float64 and uv.shape == (2, f.height, f.width)
    assert uv.flags.c_contiguous and grids._read_only(uv)


def test_propagate_stages_hand_the_completed_flows_on(producer_inputs, monkeypatch):
    completed, handed = [], []
    complete, propagate = pipeline._flow.complete_flow_laplacian, pipeline.propagate_sequence
    monkeypatch.setattr(
        pipeline._flow, "complete_flow_laplacian", lambda f: completed.append(complete(f)) or completed[-1]
    )
    monkeypatch.setattr(pipeline, "propagate_sequence", lambda *args: handed.append(args[3]) or propagate(*args))
    p = producer_inputs
    config = PipelineConfig(seed=3, canvas=p.spec, window=2, scene=p.scene_config)
    pipeline._propagate_stages(config, pipeline._StageClock())
    [flows] = handed
    assert len(completed) == len(flows) > 0
    # the very arrays completion returned, in pair order: none was copied
    assert all(f is c for f, c in zip(flows.values(), completed, strict=True))


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
            downscale_flow(FlowField.constant(5, 4, 0.0, 0.0), 2)

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
            ChannelGrid(np.linspace(-3, 7, 12).reshape(1, 3, 4)),
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
        grid = ChannelGrid(np.array(values).reshape(1, 2, 3))
        write_grid(path, grid)
        # float32-representable values survive exactly
        assert np.array_equal(read_grid(path).data, np.array(values).reshape(1, 2, 3))

    def test_kind_0_is_unknown(self, tmp_path):
        # version 1, kind 0, one 2x2 plane, and a finite float32 payload
        path = tmp_path / "k0.s2sg"
        path.write_bytes(b"S2SG" + struct.pack("<HBIII", 1, 0, 1, 2, 2) + bytes(16))
        with pytest.raises(GridFormatError, match="unknown kind 0"):
            read_grid(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.s2sg"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(GridFormatError, match="magic"):
            read_grid(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.s2sg"
        write_grid(path, ChannelGrid(np.ones((1, 4, 4))))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(GridFormatError, match="truncated"):
            read_grid(path)

    def test_trailing_data(self, tmp_path):
        path = tmp_path / "t.s2sg"
        write_grid(path, ChannelGrid(np.ones((1, 2, 2))))
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
        path = tmp_path / "o.s2sg"
        path.write_bytes(b"S2SG" + struct.pack("<HBIII", 1, 1, 2**20, 2**20, 4))
        with pytest.raises(GridFormatError, match="overflow"):
            read_grid(path)

    def test_write_rejects_nonfinite_flow(self, tmp_path):
        f = FlowField(np.array([[np.inf, 0.0]]), np.zeros((1, 2)), np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError):
            write_grid(tmp_path / "f.s2sg", f)

    def test_write_rejects_values_beyond_float32(self, tmp_path):
        # finite in float64, infinite once narrowed to the file's float32
        path = tmp_path / "big" / "g.s2sg"
        with pytest.raises(ValueError, match="float32 range"):
            write_grid(path, ChannelGrid(np.full((1, 2, 2), 1e39)))
        assert not path.exists()
