"""Bidirectional reference-guided latent propagation with one-shot pulling.

Every frame shares one outpaint mask, that of the latent canvas.  Each frame
pulls content from chain references, nearest first: a reference's latent and
its source mask, stacked once per run by ``pull_stack``, are sampled in one
bilinear evaluation, and only cells that are still uncovered and whose
warped source mask is (near) saturated get filled.  Farther references
therefore only fill holes the nearer ones could not reach, and the frame's
own source region is never overwritten.  Pulling runs independently toward
the past and the future, and ``fuse_directions`` merges the two results:
doubly covered cells blend by inverse temporal distance and credit the
nearer direction, the past one on a tie.  A result's provenance map is its
one record of coverage: a cell is covered exactly when the frame that
supplied it is >= 0.

``propagate_sequence`` fuses frame i into row i of one (N, C, h, w) array
and returns it beside the per-frame results, whose latents are read-only
views of its rows, so the propagated sequence exists once: it is what the
results hold, what is written and what the sampler is conditioned on.  The
results' provenance maps are likewise rows of one (N, h, w) array.

Propagation holds only what the chain reads, and asks its one flow source
for each flow once, when it first needs it.  For the whole run: the hops, the
flows between consecutive references both ways, which every frame composes
through and which are asked for before any pull, and the references' stacks.
For one frame at a time: a non-reference frame's own stack and its flows to
its two nearest references, each read by that frame alone, which are built
just before its pulls and dropped once it is fused.

Pulling works on the frontier only: the flat indices of the outpaint cells
a pull can still fill.  The flow from a frame to its references is held as
one (2, n) array over those n cells, u then v; a pull samples the
reference's stack there, a farther reference's flow is grown hop by hop with
``compose_accumulated``, which resamples the hop there too, and a cell
leaves the frontier as soon as a pull fills it or samples it outside the
canvas.  Flows are keyed by (src, dst) and arrive completed: each is the
(2, h, w) displacement, u then v, that ``complete_flow_laplacian`` returns
on the latent canvas, valid everywhere; this module never fills them in.

Pulling toward one direction stops once the frontier is empty, before its
next pull or composition, so no warp sees an empty cell list.  This is
exact: every hop and stack is sampled on the same canvas at the same
positions, so a cell whose path has left the canvas can never be filled.

Warp accounting: ``warp_count`` is the number of reference pulls made (one
stacked warp per (frame, reference) pair) and ``useful_pull_count`` the
number of those that filled at least one cell.  ``compose_count`` counts
flow compositions, each extending a non-empty frontier; the complexity
comparison against dense schemes counts content pulls on both sides.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, Mapping, Sequence

import numpy as np

from .flow import backward_warp, compose_accumulated
from .grids import BinaryMask, CanvasSpec, ChannelGrid, _frozen, _sealed
from .refselect import ReferenceChain, nearest_refs

# A bilinearly warped source mask counts as covering a cell only when it is
# essentially saturated; border cells with fractional weight stay uncovered.
COVERAGE_THRESHOLD = 0.999

Direction = Literal["past", "future"]


def hop_pairs(chain: ReferenceChain) -> list[tuple[int, int]]:
    """The hops, in pair order: each pair of consecutive references, both ways."""
    refs = chain.indices
    return sorted([*zip(refs, refs[1:]), *zip(refs[1:], refs)])


def nearest_pairs(chain: ReferenceChain, i: int) -> list[tuple[int, int]]:
    """Frame ``i``'s flows to its past and future nearest references; none
    for a reference, whose first pulls are hops."""
    past, future = nearest_refs(chain, i)
    return [] if past == i else [(i, past), (i, future)]


def required_flow_pairs(chain: ReferenceChain, num_frames: int) -> set[tuple[int, int]]:
    """Flow pairs propagation needs: the hops plus each non-reference
    frame's nearest-reference flows."""
    pairs = set(hop_pairs(chain))
    for i in range(num_frames):
        pairs.update(nearest_pairs(chain, i))
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
        return BinaryMask(_sealed(self.provenance >= 0))


def _refs_outward(chain: ReferenceChain, i: int, direction: Direction) -> list[int]:
    if direction == "past":
        return [r for r in reversed(chain.indices) if r < i]
    return [r for r in chain.indices if r > i]


def pull_stack(z: ChannelGrid, spec: CanvasSpec) -> np.ndarray:
    """The latent ``z`` placed straight into its own stack on the canvas of
    ``spec``: its channels, 0 off its source region, over the source mask
    all frames share, 1 on the source region and 0 on the outpaint band.  A
    pull gathers one such stack in one bilinear evaluation.  ``z`` must have
    the original size of ``spec``."""
    shape = (z.channels, spec.orig_h, spec.orig_w)
    if z.data.shape != shape:
        raise ValueError(f"latent shape is {z.data.shape}, expected {shape}")
    ys, xs = spec.source_slices
    stack = np.zeros((z.channels + 1, spec.canvas_h, spec.canvas_w))
    stack[:-1, ys, xs] = z.data
    # a value, not a mask: bilinear warping blends it (see COVERAGE_THRESHOLD)
    stack[-1, ys, xs] = 1.0
    return stack


def propagate_direction(
    i: int,
    chain: ReferenceChain,
    stacks: Mapping[int, np.ndarray],
    flows: Mapping[tuple[int, int], np.ndarray],
    direction: Direction,
) -> PropagationResult:
    """One-shot pull toward ``direction`` for frame ``i``.

    ``stacks`` maps a frame index to its ``pull_stack`` stack at latent
    resolution: frame ``i``'s own, which supplies its source region and
    band, and each reference's toward ``direction`` must be there.
    ``flows`` maps (src, dst) to the completed (2, h, w) displacements of
    hop and nearest-ref flows, and a missing pair a pull needs raises
    KeyError.  Only the frontier, the outpaint cells a pull can still fill,
    is tracked: the accumulated flow is held there alone, as (2, n), and a
    cell leaves the frontier once a pull fills it or samples it outside the
    canvas.  Pulling stops once the frontier is empty, before the next pull
    or composition.
    """
    if not 0 <= i < chain.num_frames:
        raise ValueError(f"frame index {i} out of range")
    if direction not in ("past", "future"):
        raise ValueError(f"unknown direction {direction!r}")
    refs = _refs_outward(chain, i, direction)
    missing = [f for f in (i, *refs) if f not in stacks]
    if missing:
        raise ValueError(f"no pull stack for frames {missing}")

    own = stacks[i]
    out = own[:-1].copy()
    band = own[-1] == 0.0  # the source plane is 0 exactly on the outpaint band
    prov = np.where(band, -1, i).astype(np.int32)
    cells = np.flatnonzero(band)
    warp_count = 0
    compose_count = 0
    useful_pull_count = 0

    for k, r in enumerate(refs):
        if not cells.size:
            break
        if k == 0:
            uv = flows[(i, r)].reshape(2, -1)[:, cells]
        else:
            # every frontier cell's path is inside the canvas, so all are ok
            uv, _ = compose_accumulated(flows[(refs[k - 1], r)], cells, uv)
            compose_count += 1
        warped, inside = backward_warp(stacks[r], cells, uv)
        warp_count += 1
        # a cell sampled outside the canvas is zeroed, so it fails the
        # threshold, and its path never returns: it leaves the frontier
        covering = warped[-1] >= COVERAGE_THRESHOLD
        if covering.any():
            filled = cells[covering]
            out.reshape(len(out), -1)[:, filled] = warped[:-1, covering]
            prov.flat[filled] = r
            useful_pull_count += 1
        keep = inside & ~covering
        cells, uv = cells[keep], uv[:, keep]

    return PropagationResult(
        latent=ChannelGrid(_sealed(out)),
        provenance=_sealed(prov),
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
        latent=ChannelGrid(_sealed(out)),
        provenance=_sealed(prov),
        warp_count=past.warp_count + future.warp_count,
        compose_count=past.compose_count + future.compose_count,
        useful_pull_count=past.useful_pull_count + future.useful_pull_count,
    )


def propagate_sequence(
    latents: Sequence[ChannelGrid],
    spec: CanvasSpec,
    chain: ReferenceChain,
    flow: Callable[[int, int], np.ndarray],
) -> tuple[np.ndarray, list[PropagationResult]]:
    """Full propagation driver: place latents on the latent canvas, pull in
    both directions per frame, and fuse.

    ``latents`` are original-resolution latent grids (orig dims / s), all
    with one channel count; every frame shares the outpaint mask of
    ``spec.latent()``.  ``flow(a, b)`` gives the flow from frame ``a`` to
    frame ``b``, a completed (2, h, w) displacement on that canvas; any other
    value raises ValueError naming the pair, and the source's own errors
    pass through unchanged.  It is asked once for each pair of
    ``required_flow_pairs(chain, n)``: first for the hops, in ``hop_pairs``
    order, before any pull, and held for the whole run; then for each
    non-reference frame's ``nearest_pairs``, after the frame before it is
    fused and before its first pull, and dropped once the frame is fused.
    ``pull_stack`` builds the references' stacks once, after the hops, and a
    non-reference frame's own stack just before its flows.

    Pulls write only uncovered outpaint cells, so each result keeps the
    frame's own values on its source region and 0 on cells no reference
    reached.

    Returns the propagated sequence as one float64 (N, C, h, w) array,
    frame i fused into row i and read-only once every frame is fused, and
    the per-frame results, whose latents are views of their rows: the
    sequence is held once, and the array can be handed on whole.  Their
    provenance maps are the rows of one read-only (N, h, w) array.
    """
    n = len(latents)
    if n < 1:
        raise ValueError("need at least one frame")
    if chain.num_frames != n:
        raise ValueError("chain and latents must agree on frame count")
    channels = latents[0].channels
    if any(z.channels != channels for z in latents):
        raise ValueError("every latent must have the first one's channel count")
    lat = spec.latent()
    shape = (2, lat.canvas_h, lat.canvas_w)

    def flows_for(pairs: list[tuple[int, int]]) -> dict[tuple[int, int], np.ndarray]:
        out = {}
        for a, b in pairs:
            f = flow(a, b)
            if not (isinstance(f, np.ndarray) and f.shape == shape):
                raise ValueError(f"flow {a}->{b} must be a {shape} displacement array on the latent canvas")
            out[a, b] = f
        return out

    hops = flows_for(hop_pairs(chain))
    stacks = {r: pull_stack(latents[r], lat) for r in chain.indices}

    # every frame's latent and provenance go into rows made up front: kept
    # arrays allocated frame by frame, among each frame's stack and nearest
    # flows, would fragment the heap (on a 12-frame 1080p pan the scoring
    # pass then peaked 7 MB higher)
    fused = np.empty((n, channels, lat.canvas_h, lat.canvas_w))
    provenance = np.empty((n, lat.canvas_h, lat.canvas_w), np.int32)
    counts = []  # each frame's warp, compose and useful pull counts
    for i in range(n):
        past_ref, future_ref = nearest_refs(chain, i)
        # a non-reference frame's stack and nearest-reference flows are read
        # by it alone: built just before its pulls, and let go here, before
        # the next frame's are built
        frame_stacks, flows = stacks, hops
        if past_ref != i:
            frame_stacks = stacks | {i: pull_stack(latents[i], lat)}
            flows = hops | flows_for(nearest_pairs(chain, i))
        past = propagate_direction(i, chain, frame_stacks, flows, "past")
        future = propagate_direction(i, chain, frame_stacks, flows, "future")
        res = fuse_directions(past, future, i - past_ref, future_ref - i)
        fused[i] = res.latent.data
        provenance[i] = res.provenance
        counts.append((res.warp_count, res.compose_count, res.useful_pull_count))
    fused.flags.writeable = False
    provenance.flags.writeable = False
    return fused, [
        PropagationResult(ChannelGrid(row), prov, *c) for row, prov, c in zip(fused, provenance, counts)
    ]
