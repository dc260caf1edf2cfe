import numpy as np
import pytest

from outpaint import propagation
from outpaint.flow import complete_flow_laplacian, compose_accumulated, map_flow_to_canvas
from outpaint.grids import (
    BinaryMask,
    CanvasSpec,
    ChannelGrid,
    FlowField,
    downscale_flow,
    make_outpaint_mask,
)
from outpaint.propagation import (
    COVERAGE_THRESHOLD,
    PropagationResult,
    fuse_directions,
    propagate_direction,
    propagate_sequence,
    pull_stacks,
    required_flow_pairs,
)
from outpaint.refselect import ReferenceChain, build_reference_chain
from placement import place_on_canvas
from whole_canvas import compose_grid, warp_grid
from outpaint.pipeline import SceneConfig
from outpaint.synthetic import generate_scene, stand_in_encode
from scene_frames import scene_frames


def const_grid(value, c=1, h=1, w=8):
    return ChannelGrid(np.full((c, h, w), float(value)))


def directional(value, covered, ref):
    """A 2x2 one-direction result holding ``value`` on every cell, filled
    from frame ``ref`` wherever ``covered`` is 1: its provenance is the only
    record of which cells it covers."""
    prov = np.where(np.asarray(covered) == 1, ref, -1)
    return PropagationResult(const_grid(value, h=2, w=2), prov, warp_count=1)


class TestFuseBaseline:
    PAST, FUTURE = 3, 7

    def setup_method(self):
        self.past = directional(2.0, np.ones((2, 2)), self.PAST)
        self.future = directional(6.0, np.ones((2, 2)), self.FUTURE)

    def test_backward_uncovered_takes_forward(self):
        future = directional(6.0, np.zeros((2, 2)), self.FUTURE)
        out = fuse_directions(self.past, future, 1, 1)
        assert np.array_equal(out.latent.data, self.past.latent.data)

    def test_equal_distance_means_mean(self):
        out = fuse_directions(self.past, self.future, 2, 2)
        assert np.allclose(out.latent.data, 4.0)
        # a tie goes to the past direction
        assert np.all(out.provenance == self.PAST)

    def test_weighted_blend(self):
        out = fuse_directions(self.past, self.future, 1, 3)
        assert np.allclose(out.latent.data, 0.75 * 2.0 + 0.25 * 6.0)
        assert np.all(out.provenance == self.PAST)
        out = fuse_directions(self.past, self.future, 3, 1)
        assert np.allclose(out.latent.data, 0.25 * 2.0 + 0.75 * 6.0)
        assert np.all(out.provenance == self.FUTURE)

    def test_zero_distances_split_equally(self):
        out = fuse_directions(self.past, self.future, 0, 0)
        assert np.allclose(out.latent.data, 4.0)

    def test_single_covered_cells_exact(self):
        past = directional(2.0, [[1.0, 0.0], [0.0, 0.0]], self.PAST)
        future = directional(6.0, [[0.0, 1.0], [0.0, 0.0]], self.FUTURE)
        out = fuse_directions(past, future, 1, 2)
        assert out.latent.data[0, 0, 0] == 2.0
        assert out.latent.data[0, 0, 1] == 6.0
        assert np.array_equal(out.provenance, [[self.PAST, self.FUTURE], [-1, -1]])
        assert np.array_equal(out.coverage.data, [[1.0, 1.0], [0.0, 0.0]])
        assert out.warp_count == 2

    def test_coverage_comes_from_provenance(self):
        # each direction holds a value on every cell but covers only where its
        # provenance is >= 0: past-only, doubly covered, future-only, neither
        past = directional(2.0, [[1.0, 1.0], [0.0, 0.0]], self.PAST)
        future = directional(6.0, [[0.0, 1.0], [1.0, 0.0]], self.FUTURE)
        out = fuse_directions(past, future, 1, 1)
        assert np.array_equal(out.provenance, [[self.PAST, self.PAST], [self.FUTURE, -1]])
        assert np.array_equal(out.coverage.data, [[True, True], [True, False]])
        assert np.array_equal(out.latent.data[0][out.coverage.data], [2.0, 4.0, 6.0])


def strip_world(num_frames=5, width=8, src=(3, 6)):
    """1-row canvases with the source region at columns [src0, src1): the
    placed latents, the outpaint mask and the frames' pull stacks."""
    spec = CanvasSpec(1, src[1] - src[0], 1, width, 0, src[0])
    frames = [ChannelGrid(np.full((1, 1, src[1] - src[0]), 10.0 + r)) for r in range(num_frames)]
    latents = [place_on_canvas(z, spec) for z in frames]
    return latents, make_outpaint_mask(spec), pull_stacks(frames, spec)


class TestPropagateDirection:
    def make_chain(self):
        return ReferenceChain((0, 2, 4), window=2, num_frames=5)

    def test_zero_hop_at_chain_end(self):
        latents, mask, stacks = strip_world()
        chain = self.make_chain()
        res = propagate_direction(4, chain, stacks, {}, "future")
        assert res.warp_count == 0
        assert np.array_equal(res.coverage.data, 1.0 - mask.data)
        assert np.array_equal(res.latent.data, latents[4].data)
        assert np.all(res.provenance[res.coverage.data == 1.0] == 4)

    def test_one_shot_disjoint_coverage(self):
        # refs 2 and 4 sit +2 and +4 columns away; the near ref covers the
        # near strip, the far ref only the single cell the near one missed
        latents, mask, stacks = strip_world()
        chain = self.make_chain()
        shift = np.stack([np.full((1, 8), 2.0), np.zeros((1, 8))])
        flows = {(0, 2): shift, (2, 4): shift}
        res = propagate_direction(0, chain, stacks, flows, "future")
        assert res.warp_count == 2
        assert res.compose_count == 1
        expect_prov = np.array([[4, 2, 2, 0, 0, 0, -1, -1]], dtype=np.int32)
        assert np.array_equal(res.provenance, expect_prov)
        expect_vals = np.array([[14.0, 12.0, 12.0, 10.0, 10.0, 10.0, 0.0, 0.0]])
        assert np.array_equal(res.latent.data[0], expect_vals)

    def test_missing_flow_raises_with_the_pair(self):
        latents, mask, stacks = strip_world()
        with pytest.raises(KeyError) as err:
            propagate_direction(0, self.make_chain(), stacks, {}, "future")
        assert err.value.args == ((0, 2),)


class TestPropagationResult:
    def test_coverage_is_read_from_provenance(self):
        res = PropagationResult(const_grid(0.0, h=2, w=2), [[-1, 0], [3, -1]], warp_count=0)
        assert np.array_equal(res.coverage.data, [[False, True], [True, False]])
        with pytest.raises(TypeError):
            PropagationResult(
                const_grid(0.0, h=2, w=2), [[-1, 0], [3, -1]], warp_count=0,
                coverage=BinaryMask(np.ones((2, 2))),
            )


class TestPropagateSequence:
    def test_single_frame(self):
        spec = CanvasSpec(1, 2, 1, 6, 0, 2)
        latent = ChannelGrid(np.array([[[5.0, 7.0]]]))
        chain = ReferenceChain((0,), window=1, num_frames=1)
        _, out = propagate_sequence([latent], spec, chain, {})
        assert sum(r.warp_count for r in out) == 0
        assert np.array_equal(out[0].latent.data[0, 0, 2:4], [5.0, 7.0])

    def test_two_frame_pan_oracle(self):
        # world row [w0 w1 w2]; camera pans +1/frame with a 2-wide crop
        w0, w1, w2 = 0.3, 0.6, 0.9
        spec = CanvasSpec(1, 2, 1, 6, 0, 2)
        latents = [
            ChannelGrid(np.array([[[w0, w1]]])),
            ChannelGrid(np.array([[[w1, w2]]])),
        ]
        mask = make_outpaint_mask(spec.latent())
        chain = ReferenceChain((0, 1), window=1, num_frames=2)
        flows = {}
        src_valid = ~mask.data
        for a, b in ((0, 1), (1, 0)):
            raw = FlowField((a - b) * src_valid, 0.0 * src_valid, src_valid)
            flows[(a, b)] = complete_flow_laplacian(raw)
        _, out = propagate_sequence(latents, spec, chain, flows)
        f0, f1 = out
        assert np.allclose(f0.latent.data[0, 0], [0.0, 0.0, w0, w1, w2, 0.0], atol=1e-9)
        assert np.allclose(f1.latent.data[0, 0], [0.0, w0, w1, w2, 0.0, 0.0], atol=1e-9)
        assert np.array_equal(f0.provenance[0], [-1, -1, 0, 0, 1, -1])
        assert np.array_equal(f1.provenance[0], [-1, 0, 1, 1, -1, -1])
        assert sum(r.warp_count for r in out) == 2

    def test_static_identical_frames(self):
        n = 10
        spec = CanvasSpec(4, 4, 4, 8, 0, 2)
        rng = np.random.default_rng(3)
        base = rng.random((2, 4, 4))
        latents = [ChannelGrid(base) for _ in range(n)]
        mask = make_outpaint_mask(spec.latent())
        chain = ReferenceChain((0, 4, 8, 9), window=4, num_frames=n)
        flows = {}
        src_valid = ~mask.data
        for a, b in required_flow_pairs(chain, n):
            raw = FlowField(0.0 * src_valid, 0.0 * src_valid, src_valid)
            flows[(a, b)] = complete_flow_laplacian(raw)
        _, out = propagate_sequence(latents, spec, chain, flows)
        # zero flows: coverage is exactly the shared source region, every
        # frame identical, and pulls happen for every (frame, ref) pair
        placed_source = out[0].latent.data[:, :, 2:6]
        for res in out:
            assert np.array_equal(res.coverage.data, src_valid)
            assert np.array_equal(res.latent.data, out[0].latent.data)
            assert np.array_equal(res.latent.data[:, :, 2:6], placed_source)
        assert np.array_equal(placed_source, base)
        assert sum(r.warp_count for r in out) == n * 4 - 4

    def test_missing_flow_names_frame_and_direction(self):
        spec = CanvasSpec(4, 4, 4, 8, 0, 2)
        latents = [ChannelGrid(np.zeros((2, 4, 4))) for _ in range(10)]
        mask = make_outpaint_mask(spec.latent())
        chain = ReferenceChain((0, 4, 8, 9), window=4, num_frames=10)
        src_valid = ~mask.data
        zero = complete_flow_laplacian(FlowField(0.0 * src_valid, 0.0 * src_valid, src_valid))
        flows = {pair: zero for pair in required_flow_pairs(chain, 10)}
        del flows[(2, 0)]
        with pytest.raises(RuntimeError, match="frame 2 past: ") as err:
            propagate_sequence(latents, spec, chain, flows)
        assert isinstance(err.value.__cause__, KeyError)

    @pytest.mark.parametrize(
        "bad", [FlowField.constant(4, 8, 0.0, 0.0), np.zeros((2, 8, 16))], ids=["FlowField", "pixel_size"]
    )
    def test_flows_must_be_displacements_on_the_latent_canvas(self, bad):
        # s=2: the latent canvas is 4x8, the pixel canvas 8x16
        spec = CanvasSpec(8, 8, 8, 16, 0, 4, downsample=2)
        latents = [ChannelGrid(np.zeros((2, 4, 4))) for _ in range(3)]
        chain = ReferenceChain((0, 2), window=2, num_frames=3)
        flows = {pair: np.zeros((2, 4, 8)) for pair in required_flow_pairs(chain, 3)}
        flows[(2, 0)] = bad
        with pytest.raises(ValueError, match=r"flow 2->0 must be a \(2, 4, 8\) displacement"):
            propagate_sequence(latents, spec, chain, flows)

    def test_source_preservation_with_motion(self):
        w0, w1, w2 = 0.2, 0.5, 0.8
        spec = CanvasSpec(1, 2, 1, 6, 0, 2)
        latents = [
            ChannelGrid(np.array([[[w0, w1]]])),
            ChannelGrid(np.array([[[w1, w2]]])),
        ]
        mask = make_outpaint_mask(spec.latent())
        chain = ReferenceChain((0, 1), window=1, num_frames=2)
        flows = {}
        src_valid = ~mask.data
        for a, b in ((0, 1), (1, 0)):
            raw = FlowField((a - b) * src_valid, 0.0 * src_valid, src_valid)
            flows[(a, b)] = complete_flow_laplacian(raw)
        _, out = propagate_sequence(latents, spec, chain, flows)
        for i, res in enumerate(out):
            assert np.array_equal(res.latent.data[0, 0, 2:4], latents[i].data[0, 0])

    def test_coverage_monotone_in_references(self):
        # a 3-frame pan: the denser chain covers at least what [0, 2] covers
        w = [0.1, 0.4, 0.7, 0.95]
        spec = CanvasSpec(1, 2, 1, 8, 0, 3)
        latents = [ChannelGrid(np.array([[[w[i], w[i + 1]]]])) for i in range(3)]
        mask = make_outpaint_mask(spec.latent())
        src_valid = ~mask.data

        def flows_for(chain):
            flows = {}
            for a, b in required_flow_pairs(chain, 3):
                raw = FlowField((a - b) * src_valid, 0.0 * src_valid, src_valid)
                flows[(a, b)] = complete_flow_laplacian(raw)
            return flows

        sparse = ReferenceChain((0, 2), window=2, num_frames=3)
        dense = ReferenceChain((0, 1, 2), window=2, num_frames=3)
        _, out_sparse = propagate_sequence(latents, spec, sparse, flows_for(sparse))
        _, out_dense = propagate_sequence(latents, spec, dense, flows_for(dense))
        for rs, rd in zip(out_sparse, out_dense):
            assert np.all(rd.coverage.data >= rs.coverage.data)


    def test_results_are_rows_of_one_read_only_array(self):
        chain, latents, spec, flows = paper_pan_inputs(n=6)
        fused, out = propagate_sequence(latents, spec, chain, flows)
        assert fused.shape == (6, 3, 24, 32) and fused.dtype == np.float64
        assert not fused.flags.writeable
        for i, res in enumerate(out):
            assert res.latent.data.base is fused
            assert res.latent.data.ctypes.data == fused[i].ctypes.data


class TestPullStacks:
    def test_match_the_placement_oracle(self):
        rng = np.random.default_rng(4)
        spec = CanvasSpec(6, 4, 10, 12, 2, 5)
        latents = [ChannelGrid(rng.random((3, 6, 4))) for _ in range(4)]
        source = (1.0 - make_outpaint_mask(spec).data)[None]
        stacks = pull_stacks(latents, spec)
        assert len(stacks) == len(latents)
        for stack, z in zip(stacks, latents):
            assert np.array_equal(stack, np.concatenate([place_on_canvas(z, spec).data, source]))

    @pytest.mark.parametrize("shape", [(3, 5, 4), (3, 6, 5), (1, 6, 4)])
    def test_every_latent_must_fit_the_spec(self, shape):
        spec = CanvasSpec(6, 4, 10, 12, 2, 5)
        latents = [ChannelGrid(np.zeros((3, 6, 4))), ChannelGrid(np.zeros(shape))]
        with pytest.raises(ValueError, match="latent shape"):
            pull_stacks(latents, spec)


class TestRequiredFlowPairs:
    def test_pairs_for_small_chain(self):
        chain = ReferenceChain((0, 2, 4), window=2, num_frames=5)
        pairs = required_flow_pairs(chain, 5)
        assert (0, 2) in pairs and (2, 0) in pairs
        assert (2, 4) in pairs and (4, 2) in pairs
        assert (1, 0) in pairs and (1, 2) in pairs
        assert (3, 2) in pairs and (3, 4) in pairs
        assert (0, 4) not in pairs


def paper_pan_inputs(n=12, delta_x=4.0, jitter=0.0):
    """The paper's operating point: a 96x96 crop on a 96x128 canvas, s=4,
    panning ``delta_x`` px per frame (4: one latent cell), with completed
    flows and a reference on every other frame.  The flows are exact, plus,
    with ``jitter``, a smooth perturbation of that peak in px per plane, as
    perfbench's file workloads add."""
    spec = CanvasSpec(96, 96, 96, 128, 0, 16, downsample=4)
    traj = SceneConfig(kind="pan", start_y=0.0, start_x=16.0, delta_x=delta_x)
    scene = generate_scene(5, 96, 128 + int(delta_x) * (n - 1), 96, 96, n, traj, spec)
    lat = spec.latent()
    latents = [stand_in_encode(f, 4) for f in scene_frames(scene)]
    chain = ReferenceChain(tuple(range(0, n - 1, 2)) + (n - 1,), window=2, num_frames=n)
    ys, xs = np.mgrid[0:96, 0:96] / 96.0
    flows = {}
    for a, b in required_flow_pairs(chain, n):
        true = scene.gt_flow(a, b)
        rng = np.random.default_rng([a, b])
        du, dv = (
            jitter * np.sin(2.0 * np.pi * (fy * ys + fx * xs) + phase)
            for fy, fx, phase in rng.uniform((0.5, 0.5, 0.0), (2.0, 2.0, 2.0 * np.pi), (2, 3))
        )
        flow = FlowField(true.u + du, true.v + dv, true.valid)
        flows[(a, b)] = complete_flow_laplacian(downscale_flow(map_flow_to_canvas(flow, spec), 4))
    return chain, latents, lat, flows


def as_field(uv):
    """A completed (2, h, w) displacement as the FlowField, valid
    everywhere, that the whole-canvas oracles take."""
    return FlowField(*uv, np.ones(uv.shape[1:], dtype=bool))


def pull_every_reference(i, chain, latents, mask, flows, direction):
    """One-shot pulling without the early exit: every reference is pulled."""
    refs = [r for r in chain.indices if (r < i if direction == "past" else r > i)]
    if direction == "past":
        refs.reverse()
    out = latents[i].data.copy()
    covered = mask.data == 0.0
    prov = np.where(covered, i, -1)
    acc = None
    for k, r in enumerate(refs):
        if k == 0:
            acc = as_field(flows[(i, r)])
        else:
            acc = compose_grid(acc, as_field(flows[(refs[k - 1], r)]))
        stacked = ChannelGrid(np.concatenate([latents[r].data, (1.0 - mask.data)[None]]))
        warped, wmask = warp_grid(stacked, acc)
        covering = ~covered & (wmask.data == 1.0) & (warped.data[-1] >= COVERAGE_THRESHOLD)
        out[:, covering] = warped.data[:-1][:, covering]
        prov[covering] = r
        covered |= covering
    return out, covered, prov, len(refs)


def early_exit_against_every_pull(chain, latents, spec, flows):
    """Propagate every frame both ways, assert the result equals pulling
    every reference, and return the (pulls made, useful pulls, pulls
    without the exit) of each frame and direction."""
    stacks = pull_stacks(latents, spec)
    latents, mask = [place_on_canvas(z, spec) for z in latents], make_outpaint_mask(spec)
    counts = []
    for i in range(chain.num_frames):
        for direction in ("past", "future"):
            got = propagate_direction(i, chain, stacks, flows, direction)
            out, covered, prov, pulls = pull_every_reference(i, chain, latents, mask, flows, direction)
            assert np.array_equal(got.latent.data, out)
            assert np.array_equal(got.coverage.data == 1.0, covered)
            assert np.array_equal(got.provenance, prov)
            filled = len(set(np.unique(prov).tolist()) - {-1, i})
            assert got.useful_pull_count == filled
            counts.append((got.warp_count, got.useful_pull_count, pulls))
    return counts


def test_early_exit_matches_pulling_every_reference():
    # an integer pan: every pull the early exit lets through fills cells
    counts = early_exit_against_every_pull(*paper_pan_inputs())
    assert all(made == useful for made, useful, _ in counts)
    assert sum(made for made, _, _ in counts) < sum(every for _, _, every in counts)


def test_early_exit_matches_pulling_every_reference_on_fractional_flows():
    # half-cell motion with jittered flows: edge cells take fractional
    # weights, and some pulls the exit cannot rule out fill nothing
    counts = early_exit_against_every_pull(*paper_pan_inputs(delta_x=2.0, jitter=0.3))
    assert any(made > useful for made, useful, _ in counts)
    assert sum(made for made, _, _ in counts) < sum(every for _, _, every in counts)


@pytest.mark.parametrize("pan", [{}, {"delta_x": 2.0, "jitter": 0.3}], ids=["exact", "jittered"])
def test_warps_see_only_a_live_frontier_inside_the_canvas(monkeypatch, pan):
    # pulling stops before any warp or composition on an empty frontier, and
    # with half-cell motion and jittered flows, where many band cells' paths
    # leave the canvas, each leaves the frontier at the pull that samples it
    # outside, before any composition
    sizes = {"backward_warp": [], "compose_accumulated": []}
    oks = []
    for name, calls in sizes.items():
        inner = getattr(propagation, name)

        def traced(stack, cells, uv, _calls=calls, _inner=inner):
            _calls.append(cells.size)
            out = _inner(stack, cells, uv)
            if _inner is compose_accumulated:
                oks.append(out[-1])
            return out

        monkeypatch.setattr(propagation, name, traced)
    chain, latents, spec, flows = paper_pan_inputs(**pan)
    propagate_sequence(latents, spec, chain, flows)
    assert all(calls and min(calls) > 0 for calls in sizes.values())
    assert all(ok.all() for ok in oks)


# the paper's 96x96 -> 96x128 s=4 regime and the 48 -> 64 s=2 translation oracle
DENSE_SCENES = [
    (5, CanvasSpec(96, 96, 96, 128, 0, 16, downsample=4), (96, 128 + 4 * 19), 20,
     SceneConfig(kind="pan", start_y=0.0, start_x=16.0, delta_x=4.0)),
    (7, CanvasSpec(48, 48, 48, 64, 0, 16, downsample=2), (96, 96), 16,
     SceneConfig(kind="pan", start_y=24.0, start_x=16.0, delta_x=2.0)),
]


@pytest.mark.parametrize("seed, spec, world, n, traj", DENSE_SCENES)
def test_guided_chain_matches_dense_sequential_with_fewer_pulls(seed, spec, world, n, traj):
    """The dense sequential scheme pulls every other frame through consecutive
    flows (a chain of all frames, window 1).  On an integer pan the guided
    chain covers the same cells, every covered cell is the ground truth, and
    it makes fewer pulls than the dense scheme measurably does."""
    s = spec.downsample
    scene = generate_scene(seed, *world, spec.orig_h, spec.orig_w, n, traj, spec)
    frames = scene_frames(scene)
    latents = [stand_in_encode(f, s) for f in frames]

    def propagate(chain):
        flows = {}
        for a, b in required_flow_pairs(chain, n):
            flow = downscale_flow(map_flow_to_canvas(scene.gt_flow(a, b), spec), s)
            flows[(a, b)] = complete_flow_laplacian(flow)
        return propagate_sequence(latents, spec, chain, flows)[1]

    guided = propagate(build_reference_chain(frames, 4))
    dense = propagate(ReferenceChain(tuple(range(n)), 1, n))
    for i, (g, d) in enumerate(zip(guided, dense)):
        assert np.array_equal(g.coverage.data, d.coverage.data)
        truth = stand_in_encode(scene.gt_expanded(i), s).data
        for res in (g, d):
            cov = res.coverage.data
            assert np.array_equal(res.latent.data[:, cov], truth[:, cov])
    guided_pulls = sum(r.warp_count for r in guided)
    dense_pulls = sum(r.warp_count for r in dense)
    assert guided_pulls < dense_pulls < n * (n - 1)
