import numpy as np
import pytest

from outpaint.flow import complete_flow_laplacian
from outpaint.grids import BinaryMask, CanvasSpec, ChannelGrid, FlowField, make_outpaint_mask
from outpaint.propagation import (
    FlowBank,
    PropagationResult,
    fuse_baseline,
    propagate_direction,
    propagate_sequence,
    required_flow_pairs,
)
from outpaint.refselect import ReferenceChain


def const_grid(value, c=1, h=1, w=8):
    return ChannelGrid(np.full((c, h, w), float(value)))


class TestFuseBaseline:
    def setup_method(self):
        self.fwd = const_grid(2.0, h=2, w=2)
        self.bwd = const_grid(6.0, h=2, w=2)
        self.ones = BinaryMask(np.ones((2, 2)))
        self.zeros = BinaryMask(np.zeros((2, 2)))

    def test_backward_uncovered_takes_forward(self):
        out = fuse_baseline(self.fwd, self.bwd, self.ones, self.zeros, 1, 1)
        assert np.array_equal(out.data, self.fwd.data)

    def test_equal_distance_means_mean(self):
        out = fuse_baseline(self.fwd, self.bwd, self.ones, self.ones, 2, 2)
        assert np.allclose(out.data, 4.0)

    def test_weighted_blend(self):
        out = fuse_baseline(self.fwd, self.bwd, self.ones, self.ones, 1, 3)
        assert np.allclose(out.data, 0.75 * 2.0 + 0.25 * 6.0)

    def test_zero_distances_split_equally(self):
        out = fuse_baseline(self.fwd, self.bwd, self.ones, self.ones, 0, 0)
        assert np.allclose(out.data, 4.0)

    def test_single_covered_cells_exact(self):
        cov_f = BinaryMask(np.array([[1.0, 0.0], [0.0, 0.0]]))
        cov_b = BinaryMask(np.array([[0.0, 1.0], [0.0, 0.0]]))
        out = fuse_baseline(self.fwd, self.bwd, cov_f, cov_b, 1, 2)
        assert out.data[0, 0, 0] == 2.0
        assert out.data[0, 0, 1] == 6.0


def strip_world(num_frames=5, width=8, src=(3, 6)):
    """1-row canvases with the source region at columns [src0, src1)."""
    mask = np.ones((1, width))
    mask[:, src[0] : src[1]] = 0.0
    latents = []
    for r in range(num_frames):
        data = np.zeros((1, 1, width))
        data[:, :, src[0] : src[1]] = 10.0 + r
        latents.append(ChannelGrid(data))
    return latents, BinaryMask(mask)


def const_flow_bank(pairs, width=8, u=0.0):
    bank = FlowBank()
    for a, b in pairs:
        bank.add(a, b, FlowField.constant(1, width, u * (1 if True else 1), 0.0))
    return bank


class TestPropagateDirection:
    def make_chain(self):
        return ReferenceChain((0, 2, 4), window=2, num_frames=5)

    def test_zero_hop_at_chain_end(self):
        latents, mask = strip_world()
        chain = self.make_chain()
        res = propagate_direction(4, chain, latents, mask, FlowBank(), "future")
        assert res.warp_count == 0
        assert np.array_equal(res.coverage.data, 1.0 - mask.data)
        assert np.array_equal(res.latent.data, latents[4].data)
        assert np.all(res.provenance[res.coverage.data == 1.0] == 4)

    def test_one_shot_disjoint_coverage(self):
        # refs 2 and 4 sit +2 and +4 columns away; the near ref covers the
        # near strip, the far ref only the single cell the near one missed
        latents, mask = strip_world()
        chain = self.make_chain()
        bank = FlowBank()
        bank.add(0, 2, FlowField.constant(1, 8, 2.0, 0.0))
        bank.add(2, 4, FlowField.constant(1, 8, 2.0, 0.0))
        res = propagate_direction(0, chain, latents, mask, bank, "future")
        assert res.warp_count == 2
        assert res.compose_count == 1
        expect_prov = np.array([[4, 2, 2, 0, 0, 0, -1, -1]], dtype=np.int32)
        assert np.array_equal(res.provenance, expect_prov)
        expect_vals = np.array([[14.0, 12.0, 12.0, 10.0, 10.0, 10.0, 0.0, 0.0]])
        assert np.array_equal(res.latent.data[0], expect_vals)

    def test_requires_completed_flows(self):
        latents, mask = strip_world()
        chain = self.make_chain()
        bank = FlowBank()
        bank.add(
            0, 2, FlowField(np.zeros((1, 8)), np.zeros((1, 8)), mask.complement().data)
        )
        with pytest.raises(ValueError, match="completed"):
            propagate_direction(0, chain, latents, mask, bank, "future")


class TestPropagationResult:
    def test_coverage_requires_provenance(self):
        latent = const_grid(0.0, h=2, w=2)
        cov = BinaryMask(np.ones((2, 2)))
        with pytest.raises(ValueError):
            PropagationResult(latent, cov, np.full((2, 2), -1), warp_count=0)


class TestPropagateSequence:
    def test_single_frame(self):
        spec = CanvasSpec(1, 2, 1, 6, 0, 2)
        latent = ChannelGrid(np.array([[[5.0, 7.0]]]))
        chain = ReferenceChain((0,), window=1, num_frames=1)
        out = propagate_sequence([latent], spec, chain, FlowBank())
        assert out.warp_count == 0
        assert out.sequential_warp_count == 0
        assert np.array_equal(out.results[0].latent.data[0, 0, 2:4], [5.0, 7.0])

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
        bank = FlowBank()
        src_valid = mask.complement().data
        for a, b in ((0, 1), (1, 0)):
            raw = FlowField((a - b) * src_valid, 0.0 * src_valid, src_valid)
            bank.add(a, b, complete_flow_laplacian(raw, mask, tol=1e-10))
        out = propagate_sequence(latents, spec, chain, bank)
        f0, f1 = out.results
        assert np.allclose(f0.latent.data[0, 0], [0.0, 0.0, w0, w1, w2, 0.0], atol=1e-9)
        assert np.allclose(f1.latent.data[0, 0], [0.0, w0, w1, w2, 0.0, 0.0], atol=1e-9)
        assert np.array_equal(f0.provenance[0], [-1, -1, 0, 0, 1, -1])
        assert np.array_equal(f1.provenance[0], [-1, 0, 1, 1, -1, -1])
        assert out.warp_count == 2
        assert out.sequential_warp_count == 2

    def test_static_identical_frames(self):
        n = 10
        spec = CanvasSpec(4, 4, 4, 8, 0, 2)
        rng = np.random.default_rng(3)
        base = rng.random((2, 4, 4))
        latents = [ChannelGrid(base) for _ in range(n)]
        mask = make_outpaint_mask(spec.latent())
        chain = ReferenceChain((0, 4, 8, 9), window=4, num_frames=n)
        bank = FlowBank()
        src_valid = mask.complement().data
        for a, b in required_flow_pairs(chain, n):
            raw = FlowField(0.0 * src_valid, 0.0 * src_valid, src_valid)
            bank.add(a, b, complete_flow_laplacian(raw, mask, tol=1e-10))
        out = propagate_sequence(latents, spec, chain, bank)
        # zero flows: coverage is exactly the shared source region, every
        # frame identical, and pulls happen for every (frame, ref) pair
        placed_source = out.results[0].latent.data[:, :, 2:6]
        for res in out.results:
            assert np.array_equal(res.coverage.data, src_valid)
            assert np.array_equal(res.latent.data, out.results[0].latent.data)
            assert np.array_equal(res.latent.data[:, :, 2:6], placed_source)
        assert np.array_equal(placed_source, base)
        assert out.warp_count == n * 4 - 4
        assert out.sequential_warp_count == n * (n - 1)

    def test_source_preservation_with_motion(self):
        w0, w1, w2 = 0.2, 0.5, 0.8
        spec = CanvasSpec(1, 2, 1, 6, 0, 2)
        latents = [
            ChannelGrid(np.array([[[w0, w1]]])),
            ChannelGrid(np.array([[[w1, w2]]])),
        ]
        mask = make_outpaint_mask(spec.latent())
        chain = ReferenceChain((0, 1), window=1, num_frames=2)
        bank = FlowBank()
        src_valid = mask.complement().data
        for a, b in ((0, 1), (1, 0)):
            raw = FlowField((a - b) * src_valid, 0.0 * src_valid, src_valid)
            bank.add(a, b, complete_flow_laplacian(raw, mask, tol=1e-10))
        out = propagate_sequence(latents, spec, chain, bank)
        for i, res in enumerate(out.results):
            assert np.array_equal(res.latent.data[0, 0, 2:4], latents[i].data[0, 0])

    def test_coverage_monotone_in_references(self):
        # a 3-frame pan: the denser chain covers at least what [0, 2] covers
        w = [0.1, 0.4, 0.7, 0.95]
        spec = CanvasSpec(1, 2, 1, 8, 0, 3)
        latents = [ChannelGrid(np.array([[[w[i], w[i + 1]]]])) for i in range(3)]
        mask = make_outpaint_mask(spec.latent())
        src_valid = mask.complement().data

        def bank_for(chain):
            bank = FlowBank()
            for a, b in required_flow_pairs(chain, 3):
                raw = FlowField((a - b) * src_valid, 0.0 * src_valid, src_valid)
                bank.add(a, b, complete_flow_laplacian(raw, mask, tol=1e-10))
            return bank

        sparse = ReferenceChain((0, 2), window=2, num_frames=3)
        dense = ReferenceChain((0, 1, 2), window=2, num_frames=3)
        out_sparse = propagate_sequence(latents, spec, sparse, bank_for(sparse))
        out_dense = propagate_sequence(latents, spec, dense, bank_for(dense))
        for rs, rd in zip(out_sparse.results, out_dense.results):
            assert np.all(rd.coverage.data >= rs.coverage.data)


class TestRequiredFlowPairs:
    def test_pairs_for_small_chain(self):
        chain = ReferenceChain((0, 2, 4), window=2, num_frames=5)
        pairs = required_flow_pairs(chain, 5)
        assert (0, 2) in pairs and (2, 0) in pairs
        assert (2, 4) in pairs and (4, 2) in pairs
        assert (1, 0) in pairs and (1, 2) in pairs
        assert (3, 2) in pairs and (3, 4) in pairs
        assert (0, 4) not in pairs
