"""Bidirectional reference-guided latent propagation with one-shot pulling.

Every frame shares one outpaint mask, that of the latent canvas.  Each frame
pulls content from chain references, nearest first: a reference's latent and
its source mask are stacked and warped to the target in one bilinear
evaluation, and only cells that are still uncovered and whose warped source
mask is (near) saturated get filled.  Farther references therefore only fill
holes the nearer ones could not reach, and the frame's own source region is
never overwritten.  Pulling runs independently toward the past and the
future, and ``fuse_directions`` merges the two results: doubly covered cells
blend by inverse temporal distance and credit the nearer direction, the past
one on a tie.  A result's provenance map is its one record of coverage: a
cell is covered exactly when the frame that supplied it is >= 0.

Flows are a plain dict keyed by (src, dst) and arrive completed, valid on
the whole latent canvas; this module never fills them in.  The flow from a
frame to a farther reference is a ``FlowField`` grown hop by hop with
``compose_accumulated``.

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
from typing import Literal, Sequence

import numpy as np

from .flow import backward_warp, compose_accumulated
from .grids import (
    BinaryMask, CanvasSpec, ChannelGrid, FlowField, _frozen, make_outpaint_mask, place_on_canvas,
)
from .refselect import ReferenceChain, nearest_refs

# A bilinearly warped source mask counts as covering a cell only when it is
# essentially saturated; border cells with fractional weight stay uncovered.
COVERAGE_THRESHOLD = 0.999

Direction = Literal["past", "future"]


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
    (the frame's own index on its source region, -1 where unfilled);
    ``coverage`` is read from it.  ``useful_pull_count`` counts the pulls
    that filled at least one cell.
    """

    latent: ChannelGrid
    provenance: np.ndarray
    warp_count: int
    compose_count: int = 0
    useful_pull_count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "provenance", _frozen(self.provenance, np.int32))
        if self.provenance.shape != (self.latent.height, self.latent.width):
            raise ValueError("provenance shape must match the latent canvas")

    @property
    def coverage(self) -> BinaryMask:
        """The cells some frame supplied: provenance >= 0."""
        return BinaryMask(self.provenance >= 0)


def _refs_outward(chain: ReferenceChain, i: int, direction: Direction) -> list[int]:
    if direction == "past":
        return [r for r in reversed(chain.indices) if r < i]
    return [r for r in chain.indices if r > i]


def _completed(flows: dict[tuple[int, int], FlowField], src: int, dst: int) -> FlowField:
    flow = flows[(src, dst)]
    if not flow.valid.all():
        raise ValueError(f"flow {src}->{dst} must be completed before propagation")
    return flow


def propagate_direction(
    i: int,
    chain: ReferenceChain,
    latents: Sequence[ChannelGrid],
    mask: BinaryMask,
    flows: dict[tuple[int, int], FlowField],
    direction: Direction,
) -> PropagationResult:
    """One-shot pull toward ``direction`` for frame ``i``.

    ``latents`` are canvas-placed latent grids and ``mask`` the outpaint
    mask all frames share, both at latent resolution; ``flows`` maps
    (src, dst) to completed (everywhere-valid) hop and nearest-ref flows,
    and a missing pair raises KeyError.  Pulling stops once the accumulated
    flow is invalid on every uncovered cell.
    """
    n = chain.num_frames
    if not 0 <= i < n:
        raise ValueError(f"frame index {i} out of range")
    if len(latents) != n:
        raise ValueError("need one latent per frame")
    if direction not in ("past", "future"):
        raise ValueError(f"unknown direction {direction!r}")

    out = latents[i].data.copy()
    # a value, not a mask: bilinear warping blends it (see COVERAGE_THRESHOLD)
    source_mask = 1.0 - mask.data
    prov = np.full(mask.data.shape, -1, dtype=np.int32)
    prov[~mask.data] = i
    warp_count = 0
    compose_count = 0
    useful_pull_count = 0

    refs = _refs_outward(chain, i, direction)
    for k, r in enumerate(refs):
        uncovered = prov < 0
        if k == 0:
            acc = _completed(flows, i, r)
        else:
            acc = compose_accumulated(acc, _completed(flows, refs[k - 1], r))
            compose_count += 1
            # validity only shrinks under composition: no farther pull can fill a cell
            if not acc.valid[uncovered].any():
                break
        stacked = ChannelGrid(np.concatenate([latents[r].data, source_mask[None]]))
        warped, _ = backward_warp(stacked, acc)
        warp_count += 1
        # a cell the warp cannot sample is zeroed, so it fails the threshold
        covering = uncovered & (warped.data[-1] >= COVERAGE_THRESHOLD)
        if covering.any():
            out[:, covering] = warped.data[:-1, covering]
            prov[covering] = r
            useful_pull_count += 1

    return PropagationResult(
        latent=ChannelGrid(out),
        provenance=prov,
        warp_count=warp_count,
        compose_count=compose_count,
        useful_pull_count=useful_pull_count,
    )


def fuse_directions(
    past: PropagationResult,
    future: PropagationResult,
    dist_past: int,
    dist_future: int,
) -> PropagationResult:
    """Merge one frame's two directional results.

    Cells one direction alone covers take its values and provenance; doubly
    covered cells blend by inverse temporal distance and take the nearer
    direction's provenance, the past one's on a tie.  Counts add up.
    """
    if past.latent.data.shape != future.latent.data.shape:
        raise ValueError("latent shapes must match")
    if dist_past < 0 or dist_future < 0:
        raise ValueError("distances must be >= 0")
    cov_p = past.provenance >= 0
    cov_f = future.provenance >= 0
    f_only = cov_f & ~cov_p
    both = cov_p & cov_f
    w_p = 0.5 if dist_past + dist_future == 0 else dist_future / (dist_past + dist_future)
    p, f = past.latent.data, future.latent.data
    out = p.copy()
    out[:, f_only] = f[:, f_only]
    # blend written as f + w*(p-f): exact when both directions agree
    out[:, both] = f[:, both] + w_p * (p[:, both] - f[:, both])
    prov = past.provenance.copy()
    prov[f_only] = future.provenance[f_only]
    if dist_future < dist_past:
        prov[both] = future.provenance[both]
    return PropagationResult(
        latent=ChannelGrid(out),
        provenance=prov,
        warp_count=past.warp_count + future.warp_count,
        compose_count=past.compose_count + future.compose_count,
        useful_pull_count=past.useful_pull_count + future.useful_pull_count,
    )


def propagate_sequence(
    latents: Sequence[ChannelGrid],
    spec: CanvasSpec,
    chain: ReferenceChain,
    flows: dict[tuple[int, int], FlowField],
) -> list[PropagationResult]:
    """Full propagation driver: place latents on the latent canvas, pull in
    both directions per frame, and fuse.

    ``latents`` are original-resolution latent grids (orig dims / s); every
    frame shares the outpaint mask of ``spec.latent()``; ``flows`` maps
    (src, dst) to completed (everywhere-valid) latent-canvas flows.  Pulls
    write only uncovered outpaint cells, so each result keeps the frame's
    own values on its source region and 0 on cells no reference reached.
    A failed pull is re-raised as RuntimeError naming the frame and the
    direction.
    """
    n = len(latents)
    if n < 1:
        raise ValueError("need at least one frame")
    if chain.num_frames != n:
        raise ValueError("chain and latents must agree on frame count")
    lat_spec = spec.latent()
    mask = make_outpaint_mask(lat_spec)
    placed = [place_on_canvas(z, lat_spec) for z in latents]

    results = []
    for i in range(n):
        past_ref, future_ref = nearest_refs(chain, i)
        pulled = {}
        for direction in ("past", "future"):
            try:
                pulled[direction] = propagate_direction(i, chain, placed, mask, flows, direction)
            except Exception as exc:
                raise RuntimeError(f"frame {i} {direction}: {exc}") from exc
        results.append(
            fuse_directions(pulled["past"], pulled["future"], i - past_ref, future_ref - i)
        )
    return results
