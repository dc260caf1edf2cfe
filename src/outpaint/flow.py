"""Backward warping, flow-through-flow warping, chain accumulation, and
flow completion on the expanded canvas.

Warp convention: a flow F on frame A pointing at frame B gives, for each
target coordinate x on A, the displacement added to x to sample B, i.e.
out(x) = B(x + F(x)) with bilinear interpolation.  Samples landing exactly
on the array boundary are in-bounds (the far interpolation corner gets zero
weight); anything outside invalidates the cell rather than clamping, so no
content is ever fabricated.
"""

from __future__ import annotations

import numpy as np

from .grids import BinaryMask, CanvasSpec, ChannelGrid, FlowField


class FlowCompletionError(RuntimeError):
    """Flow completion hit its iteration cap; carries the scaled residual
    max(|r| / neighbour count) over the unknown cells."""

    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"flow completion did not converge after {iterations} iterations "
            f"(scaled residual {residual:.3e})"
        )


def _corners(sy: np.ndarray, sx: np.ndarray, height: int, width: int):
    """Bilinear machinery for sampling an (height, width) plane at (sy, sx):
    corner indices, weights, and the in-bounds predicate."""
    inb = (sx >= 0.0) & (sx <= width - 1.0) & (sy >= 0.0) & (sy <= height - 1.0)
    # boundary-exact samples keep frac 0 (the far corner collapses onto the
    # near one), so integer positions always read grid values verbatim
    x0 = np.clip(np.floor(sx), 0, width - 1).astype(int)
    y0 = np.clip(np.floor(sy), 0, height - 1).astype(int)
    x0 = np.where(inb, x0, 0)
    y0 = np.where(inb, y0, 0)
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    fx = np.where(inb, sx - x0, 0.0)
    fy = np.where(inb, sy - y0, 0.0)
    return (y0, x0, y1, x1, fx, fy, inb)


def _sample_setup(flow: FlowField, height: int, width: int):
    """``_corners`` at x + flow(x) for every cell x."""
    ys, xs = np.mgrid[0:height, 0:width].astype(float)
    return _corners(ys + flow.v, xs + flow.u, height, width)


def _bilinear(plane: np.ndarray, y0, x0, y1, x1, fx, fy) -> np.ndarray:
    # incremental form: exact on constant fields and at integer samples
    a = plane[y0, x0]
    b = plane[y0, x1]
    c = plane[y1, x0]
    d = plane[y1, x1]
    return a + fx * (b - a) + fy * (c - a) + fx * fy * (d - c - b + a)


def backward_warp(src: ChannelGrid, flow: FlowField) -> tuple[ChannelGrid, BinaryMask]:
    """Warp ``src`` by sampling it at x + flow(x).

    Returns the warped grid and a mask that is True only where the flow is
    valid and the sample lies inside ``src``; invalid cells are zeroed.
    """
    if (src.height, src.width) != (flow.height, flow.width):
        raise ValueError("flow dims must match source spatial dims")
    y0, x0, y1, x1, fx, fy, inb = _sample_setup(flow, src.height, src.width)
    ok = inb & flow.valid
    out = np.empty_like(src.data)
    for c in range(src.channels):
        out[c] = np.where(ok, _bilinear(src.data[c], y0, x0, y1, x1, fx, fy), 0.0)
    return ChannelGrid(out), BinaryMask(ok)


def warp_flow(f: FlowField, through: FlowField) -> FlowField:
    """Resample flow ``f`` at x + through(x).

    Output validity requires ``through`` valid, the sample in bounds, and
    all four interpolation corners of ``f`` valid.
    """
    if (f.height, f.width) != (through.height, through.width):
        raise ValueError("flow dims must match")
    y0, x0, y1, x1, fx, fy, inb = _sample_setup(through, f.height, f.width)
    corners_ok = f.valid[y0, x0] & f.valid[y0, x1] & f.valid[y1, x0] & f.valid[y1, x1]
    ok = inb & through.valid & corners_ok
    u_src = np.where(f.valid, f.u, 0.0)
    v_src = np.where(f.valid, f.v, 0.0)
    u = np.where(ok, _bilinear(u_src, y0, x0, y1, x1, fx, fy), 0.0)
    v = np.where(ok, _bilinear(v_src, y0, x0, y1, x1, fx, fy), 0.0)
    return FlowField(u, v, ok)


def compose_accumulated(acc: FlowField, hop: FlowField) -> FlowField:
    """Extend an accumulated flow i->r by a hop r->r' into i->r'.

    The hop is resampled through the accumulated flow and added; validity
    is the intersection.
    """
    if (acc.height, acc.width) != (hop.height, hop.width):
        raise ValueError("hop dims must match accumulated flow")
    warped = warp_flow(hop, acc)
    valid = acc.valid & warped.valid
    return FlowField(
        np.where(valid, acc.u + warped.u, 0.0),
        np.where(valid, acc.v + warped.v, 0.0),
        valid,
    )


def map_flow_to_canvas(flow: FlowField, spec: CanvasSpec) -> FlowField:
    """Place an original-resolution flow on the expanded canvas; cells
    outside the original rectangle are invalid."""
    if (flow.height, flow.width) != (spec.orig_h, spec.orig_w):
        raise ValueError("flow dims must match the original frame")
    u = np.zeros((spec.canvas_h, spec.canvas_w))
    v = np.zeros((spec.canvas_h, spec.canvas_w))
    valid = np.zeros((spec.canvas_h, spec.canvas_w), dtype=bool)
    ys, xs = spec.source_slices
    u[ys, xs] = flow.u
    v[ys, xs] = flow.v
    valid[ys, xs] = flow.valid
    return FlowField(u, v, valid)


def _neighbor_sum(values: np.ndarray) -> np.ndarray:
    s = np.zeros_like(values)
    s[1:, :] += values[:-1, :]
    s[:-1, :] += values[1:, :]
    s[:, 1:] += values[:, :-1]
    s[:, :-1] += values[:, 1:]
    return s


def _cg_fill(plane: np.ndarray, known: np.ndarray, tol: float, max_iters: int) -> np.ndarray:
    """Matrix-free conjugate-gradient solve of the 5-point Laplace equation
    on the unknown cells, with known cells as Dirichlet data and a Neumann
    canvas border (each cell averages only its in-canvas neighbours).

    Stops once max(|r| / neighbour count) over the unknown cells, the
    change one Jacobi update would make, is below ``tol``; raises
    FlowCompletionError after ``max_iters`` iterations.  Reductions use
    np.sum, whose order is fixed, so results are bit-reproducible.
    """
    counts = _neighbor_sum(np.ones(plane.shape))
    unknown = ~known
    x = plane.copy()
    # seed unknowns with the mean of the known data: exact for constant fields
    x[unknown] = np.mean(plane[known], dtype=np.float64)
    # r and p vanish on known cells, so x keeps its Dirichlet data there and
    # the scaled residual can be taken over the whole canvas
    r = np.where(unknown, _neighbor_sum(x) - counts * x, 0.0)
    p = r.copy()
    rr = np.sum(r * r)
    for it in range(max_iters + 1):
        residual = float(np.max(np.abs(r) / counts))
        if residual < tol:
            return x
        if it == max_iters:
            raise FlowCompletionError(residual, max_iters)
        ap = np.where(unknown, counts * p - _neighbor_sum(p), 0.0)
        alpha = rr / np.sum(p * ap)
        x += alpha * p
        r -= alpha * ap
        rr_next = np.sum(r * r)
        p = r + (rr_next / rr) * p
        rr = rr_next


def complete_flow_laplacian(
    flow: FlowField,
    missing: BinaryMask,
    tol: float = 1e-6,
    max_iters: int | None = None,
) -> FlowField:
    """Harmonic extension of a flow over its missing region.

    Known cells (not missing and valid) act as Dirichlet boundary values
    and are returned bit-identical; u and v are solved independently.
    The output is valid everywhere.  ``max_iters`` defaults to the number of
    unknown cells, the conjugate-gradient bound in exact arithmetic.
    """
    if (flow.height, flow.width) != (missing.height, missing.width):
        raise ValueError("missing mask dims must match the flow")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    known = ~missing.data & flow.valid
    if not known.any():
        raise ValueError("flow completion needs at least one known cell")
    if known.all():
        return FlowField(flow.u, flow.v, np.ones_like(flow.valid))
    if max_iters is None:
        max_iters = int(np.count_nonzero(~known))
    planes = []
    for plane in (flow.u, flow.v):
        src = np.where(known, plane, 0.0)
        filled = _cg_fill(src, known, tol, max_iters)
        filled[known] = plane[known]
        planes.append(filled)
    return FlowField(planes[0], planes[1], np.ones_like(flow.valid))
