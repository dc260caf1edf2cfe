"""Bidirectional reference-guided latent propagation with one-shot pulling.

Every frame shares one outpaint mask, that of the latent canvas.  Each frame
pulls content from chain references, nearest first: a reference's latent and
its source mask are warped to the target in a single stacked grid-warp, and
only cells that are still uncovered and whose warped source mask is (near)
saturated get filled.  Farther references therefore only fill holes the
nearer ones could not reach, and the frame's own source region is never
overwritten.  Pulling runs independently toward the past and the future;
the two directional results are fused by inverse temporal distance.  Flows
arrive completed, valid on the whole latent canvas; this module never fills
them in.

Pulling toward one direction stops early, and exactly, once the
accumulated flow is invalid on every uncovered cell: composition only
intersects validity and a pull fills only cells where that flow is valid,
so no farther reference could fill anything.

Warp accounting: ``warp_count`` is the number of reference pulls made (one
stacked grid-warp per (frame, reference) pair) and ``useful_pull_count`` the
number of those that filled at least one cell.  Flow-composition resampling
is tracked separately as ``compose_count``; the complexity comparison
against dense schemes counts content pulls on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, NamedTuple, Sequence

import numpy as np

from .flow import AccumulatedFlow, backward_warp, compose_accumulated
from .grids import BinaryMask, CanvasSpec, ChannelGrid, FlowField, make_outpaint_mask, place_on_canvas
from .refselect import ReferenceChain, nearest_refs

# A bilinearly warped source mask counts as covering a cell only when it is
# essentially saturated; border cells with fractional weight stay uncovered.
COVERAGE_THRESHOLD = 0.999

Direction = Literal["past", "future"]


class FlowBank:
    """Flows keyed by (source frame, destination frame).

    An entry (a, b) is the field on frame a's latent canvas whose
    displacements sample frame b.
    """

    def __init__(self, flows: dict[tuple[int, int], FlowField] | None = None):
        self._flows: dict[tuple[int, int], FlowField] = dict(flows or {})

    def add(self, src: int, dst: int, flow: FlowField) -> None:
        self._flows[(src, dst)] = flow

    def get(self, src: int, dst: int) -> FlowField:
        try:
            return self._flows[(src, dst)]
        except KeyError:
            raise KeyError(f"missing flow {src}->{dst}") from None

    def items(self):
        return self._flows.items()

    def __len__(self) -> int:
        return len(self._flows)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._flows


def required_flow_pairs(chain: ReferenceChain, num_frames: int) -> set[tuple[int, int]]:
    """Flow pairs propagation needs: consecutive-reference hops in both
    orientations plus each non-reference frame's nearest-ref flows."""
    pairs: set[tuple[int, int]] = set()
    refs = chain.indices
    for a, b in zip(refs, refs[1:]):
        pairs.add((a, b))
        pairs.add((b, a))
    for i in range(num_frames):
        past, future = nearest_refs(chain, i)
        if past != i:
            pairs.add((i, past))
        if future != i:
            pairs.add((i, future))
    return pairs


@dataclass(frozen=True)
class PropagationResult:
    """Propagated latent for one frame plus bookkeeping.

    ``provenance`` holds the frame index that supplied each covered cell
    (the frame's own index on its source region, -1 where unfilled).
    ``useful_pull_count`` counts the pulls that filled at least one cell.
    """

    latent: ChannelGrid
    coverage: BinaryMask
    provenance: np.ndarray
    warp_count: int
    compose_count: int = 0
    useful_pull_count: int = 0

    def __post_init__(self):
        prov = np.array(self.provenance, dtype=np.int32, copy=True)
        prov.flags.writeable = False
        object.__setattr__(self, "provenance", prov)
        if prov.shape != (self.latent.height, self.latent.width):
            raise ValueError("provenance shape must match the latent canvas")
        covered = self.coverage.data == 1.0
        if (prov[covered] < 0).any():
            raise ValueError("covered cells must have provenance >= 0")


def fuse_baseline(
    forward: ChannelGrid,
    backward: ChannelGrid,
    cov_f: BinaryMask,
    cov_b: BinaryMask,
    dist_f: int,
    dist_b: int,
) -> ChannelGrid:
    """Merge directional results: single-covered cells take that direction,
    doubly-covered cells blend by inverse temporal distance."""
    if forward.data.shape != backward.data.shape:
        raise ValueError("latent shapes must match")
    if dist_f < 0 or dist_b < 0:
        raise ValueError("distances must be >= 0")
    b_only = (cov_b.data == 1.0) & (cov_f.data == 0.0)
    both = (cov_f.data == 1.0) & (cov_b.data == 1.0)
    w_f = 0.5 if dist_f + dist_b == 0 else dist_b / (dist_f + dist_b)
    out = forward.data.copy()
    out[:, b_only] = backward.data[:, b_only]
    # blend written as b + w*(f-b): exact when both directions agree
    out[:, both] = backward.data[:, both] + w_f * (
        forward.data[:, both] - backward.data[:, both]
    )
    return ChannelGrid(out)


def _refs_outward(chain: ReferenceChain, i: int, direction: Direction) -> list[int]:
    if direction == "past":
        return [r for r in reversed(chain.indices) if r < i]
    return [r for r in chain.indices if r > i]


def propagate_direction(
    i: int,
    chain: ReferenceChain,
    latents: Sequence[ChannelGrid],
    mask: BinaryMask,
    flows: FlowBank,
    direction: Direction,
) -> PropagationResult:
    """One-shot pull toward ``direction`` for frame ``i``.

    ``latents`` are canvas-placed latent grids and ``mask`` the outpaint
    mask all frames share, both at latent resolution; ``flows`` must hold
    completed (everywhere-valid) hop and nearest-ref flows.  Pulling stops
    once the accumulated flow is invalid on every uncovered cell.
    """
    n = chain.num_frames
    if not 0 <= i < n:
        raise ValueError(f"frame index {i} out of range")
    if len(latents) != n:
        raise ValueError("need one latent per frame")
    if direction not in ("past", "future"):
        raise ValueError(f"unknown direction {direction!r}")

    out = latents[i].data.copy()
    source_mask = 1.0 - mask.data
    covered = mask.data == 0.0
    prov = np.full(covered.shape, -1, dtype=np.int32)
    prov[covered] = i
    warp_count = 0
    compose_count = 0
    useful_pull_count = 0

    refs = _refs_outward(chain, i, direction)
    acc: AccumulatedFlow | None = None
    for k, r in enumerate(refs):
        if k == 0:
            first = flows.get(i, r)
            if not np.all(first.valid == 1.0):
                raise ValueError(f"flow {i}->{r} must be completed before propagation")
            acc = AccumulatedFlow(i, r, first, hops=1)
        else:
            hop = flows.get(refs[k - 1], r)
            if not np.all(hop.valid == 1.0):
                raise ValueError(f"flow {refs[k - 1]}->{r} must be completed before propagation")
            acc = compose_accumulated(acc, hop, r)
            compose_count += 1
            # validity only shrinks under composition: no farther pull can fill a cell
            if not (acc.flow.valid[~covered] == 1.0).any():
                break
        stacked = ChannelGrid(np.concatenate([latents[r].data, source_mask[None]]))
        warped, wmask = backward_warp(stacked, acc.flow)
        warp_count += 1
        warped_source = warped.data[-1]
        covering = (
            ~covered
            & (wmask.data == 1.0)
            & (warped_source >= COVERAGE_THRESHOLD)
        )
        if covering.any():
            out[:, covering] = warped.data[:-1][:, covering]
            prov[covering] = r
            covered |= covering
            useful_pull_count += 1

    return PropagationResult(
        latent=ChannelGrid(out),
        coverage=BinaryMask(covered.astype(float)),
        provenance=prov,
        warp_count=warp_count,
        compose_count=compose_count,
        useful_pull_count=useful_pull_count,
    )


class SequencePropagation(NamedTuple):
    results: list[PropagationResult]
    warp_count: int
    sequential_warp_count: int


def _merge_provenance(
    rf: PropagationResult, rb: PropagationResult, dist_f: int, dist_b: int
) -> np.ndarray:
    prov = rf.provenance.copy()
    b_only = (rb.coverage.data == 1.0) & (rf.coverage.data == 0.0)
    prov[b_only] = rb.provenance[b_only]
    both = (rf.coverage.data == 1.0) & (rb.coverage.data == 1.0)
    if dist_b < dist_f:
        prov[both] = rb.provenance[both]
    return prov


def propagate_sequence(
    latents: Sequence[ChannelGrid],
    spec: CanvasSpec,
    chain: ReferenceChain,
    flows: FlowBank,
) -> SequencePropagation:
    """Full propagation driver: place latents on the latent canvas, pull in
    both directions per frame, and fuse.

    ``latents`` are original-resolution latent grids (orig dims / s); every
    frame shares the outpaint mask of ``spec.latent()``; ``flows`` hold
    completed (everywhere-valid) latent-canvas flows.  Pulls write only
    uncovered outpaint cells, so each result keeps the frame's own values on
    its source region and 0 on cells no reference reached.  Returns the
    per-frame results, the measured pull count, and the analytic count a
    dense per-frame accumulation scheme would need (N * (N-1) pulls).
    """
    n = len(latents)
    if n < 1:
        raise ValueError("need at least one frame")
    if chain.num_frames != n:
        raise ValueError("chain and latents must agree on frame count")
    lat_spec = spec.latent()
    mask = make_outpaint_mask(lat_spec)
    placed = [place_on_canvas(z, lat_spec) for z in latents]

    results: list[PropagationResult] = []
    total_warps = 0
    for i in range(n):
        past_ref, future_ref = nearest_refs(chain, i)
        dist_f = i - past_ref
        dist_b = future_ref - i
        rf = propagate_direction(i, chain, placed, mask, flows, "past")
        rb = propagate_direction(i, chain, placed, mask, flows, "future")
        fused = fuse_baseline(rf.latent, rb.latent, rf.coverage, rb.coverage, dist_f, dist_b)
        coverage = BinaryMask(
            np.maximum(rf.coverage.data, rb.coverage.data)
        )
        results.append(
            PropagationResult(
                latent=fused,
                coverage=coverage,
                provenance=_merge_provenance(rf, rb, dist_f, dist_b),
                warp_count=rf.warp_count + rb.warp_count,
                compose_count=rf.compose_count + rb.compose_count,
                useful_pull_count=rf.useful_pull_count + rb.useful_pull_count,
            )
        )
        total_warps += rf.warp_count + rb.warp_count

    return SequencePropagation(results, total_warps, n * (n - 1))
