"""Backward warping, chain accumulation, and flow completion on the
expanded canvas.

Warp convention: a flow F on frame A pointing at frame B gives, for each
target coordinate x on A, the displacement added to x to sample B, i.e.
out(x) = B(x + F(x)) with bilinear interpolation.  Samples landing exactly
on the array boundary are in-bounds (the far interpolation corner gets zero
weight); anything outside is zeroed and reported rather than clamped, so no
content is ever fabricated.  ``_bilinear`` is the package's one bilinear
sampler: it gathers a whole (..., H, W) stack, all channels of a grid or u
and v of a flow, at sample positions of any shape.  Both warps take a list
of n cells, flat indices into the grid, and the flow at those cells only as
one (2, n) array, u then v, the layout of a completed flow, with no
validity: the flows they follow are complete, and propagation passes only
the cells it can still fill, never an empty list.

Completion is the harmonic (5-point Laplace) fill of a flow's invalid
cells, solved exactly: the operator depends only on which cells are valid,
so it is factored once per validity mask (block LDL^T over canvas rows),
and each flow sharing that mask costs one forward and one backward block
sweep.  There is no tolerance or iteration count.
"""

from __future__ import annotations

import functools

import numpy as np

from .grids import CanvasSpec, FlowField, _sealed


def _bilinear(stack: np.ndarray, sy: np.ndarray, sx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (H, W) plane of ``stack`` (shape (..., H, W)) sampled at the
    positions (sy, sx) of any one shape, and the in-bounds predicate of
    that shape; each sample depends only on its own position, and one out
    of bounds (NaN and inf among them) reads cell (0, 0)."""
    height, width = stack.shape[-2:]
    inb = (sx >= 0.0) & (sx <= width - 1.0) & (sy >= 0.0) & (sy <= height - 1.0)
    # with frac 0 at cell (0, 0), every floor lies in range and casts cleanly
    sx = np.where(inb, sx, 0.0)
    sy = np.where(inb, sy, 0.0)
    # boundary-exact samples keep frac 0 (the far corner collapses onto the
    # near one), so integer positions always read grid values verbatim
    x0 = np.floor(sx).astype(int)
    y0 = np.floor(sy).astype(int)
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    fx = sx - x0
    fy = sy - y0
    # gathers along the flattened planes, so the samples come out
    # C-contiguous, positions last
    flat = stack.reshape(stack.shape[:-2] + (height * width,))
    row0, row1 = y0 * width, y1 * width
    a = np.take(flat, row0 + x0, axis=-1)
    b = np.take(flat, row0 + x1, axis=-1)
    c = np.take(flat, row1 + x0, axis=-1)
    d = np.take(flat, row1 + x1, axis=-1)
    # incremental form: exact on constant fields and at integer samples
    return a + fx * (b - a) + fy * (c - a) + fx * fy * (d - c - b + a), inb


def backward_warp(stack: np.ndarray, cells: np.ndarray, uv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample every (H, W) plane of ``stack`` (shape (..., H, W)) at the
    listed cells moved by their flow, in one ``_bilinear`` call.

    ``cells`` are flat indices into the (H, W) plane, and ``uv`` the flow
    at those cells, shape (2, n), u then v, as a completed flow lays them
    out.  Returns the samples, shape (..., n), and ``ok``, True where the
    sample lies inside ``stack``; samples that are not ok are zeroed.  A
    flow warps through another flow as its (2, H, W) displacement (see
    ``compose_accumulated``).
    """
    ys, xs = np.divmod(cells, stack.shape[-1])
    samples, ok = _bilinear(stack, ys + uv[1], xs + uv[0])
    return np.where(ok, samples, 0.0), ok


def compose_accumulated(hop: np.ndarray, cells: np.ndarray, uv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extend an accumulated flow i->r, given at the listed cells as in
    ``backward_warp``, by a completed hop r->r' (its (2, H, W) displacement)
    into i->r' at those cells: the hop is backward-warped through the
    accumulated flow and added.  Returns the new (2, n) flow at the cells
    and ``ok``, True where the sample lies inside the hop; the others hold 0.
    """
    warped, ok = backward_warp(hop, cells, uv)
    return np.where(ok, uv + warped, 0.0), ok


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
    return FlowField(_sealed(u), _sealed(v), _sealed(valid))


def _neighbor_sum(values: np.ndarray) -> np.ndarray:
    s = np.zeros_like(values)
    s[1:, :] += values[:-1, :]
    s[:-1, :] += values[1:, :]
    s[:, 1:] += values[:, :-1]
    s[:, :-1] += values[:, 1:]
    return s


def laplace_residual(flow: np.ndarray, filled: np.ndarray) -> float:
    """Largest |sum of in-canvas neighbours - neighbour count * x| of both
    planes of a (2, H, W) displacement over the ``filled`` cells: 0 for an
    exact harmonic fill, up to rounding."""
    counts = _neighbor_sum(np.ones(filled.shape))
    return max(
        float(np.max(np.abs(_neighbor_sum(p) - counts * p)[filled], initial=0.0)) for p in flow
    )


@functools.lru_cache(maxsize=8)
def _laplace_factor(shape: tuple[int, int], known_bytes: bytes):
    """Block LDL^T factor of the 5-point operator on the unknown cells.

    Unknown cells are ordered row by row, so the operator is block
    tridiagonal with one block per canvas row (Golub & Van Loan, Matrix
    Computations, section 4.5).  The diagonal block of row r holds the
    neighbour counts and -1 between horizontally adjacent unknowns; the
    coupling E_r to row r+1 is -1 between vertically adjacent unknowns.
    With S_0 = D_0 and S_{r+1} = D_{r+1} - E_r^T S_r^-1 E_r, returns the flat
    indices of the unknown cells and, per row, (slice, S_r^-1, S_r^-1 E_r).
    """
    known = np.frombuffer(known_bytes, dtype=bool).reshape(shape)
    counts = _neighbor_sum(np.ones(shape))
    cols = [np.flatnonzero(~row) for row in known]
    bounds = np.cumsum([0] + [len(c) for c in cols])
    rows = []
    schur = 0.0
    for r, c in enumerate(cols):
        d = np.diag(counts[r, c])
        i = np.flatnonzero(np.diff(c) == 1)
        d[i, i + 1] = d[i + 1, i] = -1.0
        s_inv = np.linalg.inv(d - schur)
        below = cols[r + 1] if r + 1 < len(cols) else np.zeros(0, dtype=int)
        link = (c[:, None] == below).astype(float)  # E_r = -link
        g = -(s_inv @ link)
        schur = link.T @ s_inv @ link
        rows.append((slice(bounds[r], bounds[r + 1]), s_inv, g))
    unknown = np.flatnonzero(~known)
    return unknown, rows


def _solve_laplace(rows, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs with the factor of ``_laplace_factor``; rhs holds one
    column per plane."""
    # forward: z_r = b_r - G_{r-1}^T z_{r-1} with G_r = S_r^-1 E_r, c_r = S_r^-1 z_r
    c = []
    carry = 0.0
    for sl, s_inv, g in rows:
        z = rhs[sl] - carry
        c.append(s_inv @ z)
        carry = g.T @ z
    # backward: x_r = c_r - G_r x_{r+1}
    x = np.empty_like(rhs)
    x_r = np.zeros((0, rhs.shape[1]))
    for (sl, _, g), c_r in zip(reversed(rows), reversed(c)):
        x_r = c_r - g @ x_r
        x[sl] = x_r
    return x


def complete_flow_laplacian(flow: FlowField) -> np.ndarray:
    """Harmonic extension of a flow over its invalid cells.

    Solves the 5-point Laplace equation on the invalid cells, with the valid
    cells as Dirichlet data and a Neumann canvas border (each cell averages
    only its in-canvas neighbours).  The solve is direct: the operator
    depends only on the known-cell mask, so its block factor is built once
    per mask and cached, and u and v are solved together.  A plane whose
    known data is constant is filled with that constant exactly.  Returns
    the completed displacement, valid everywhere, as one read-only
    C-contiguous float64 (2, H, W) array, u then v, filled in place; valid
    cells hold their input values bit for bit.
    """
    known = flow.valid
    if not known.any():
        raise ValueError("flow completion needs at least one known cell")
    uv = np.stack([flow.u, flow.v])
    if known.all():
        return _sealed(uv)
    # each plane's first known value, exact where the known data is constant
    uv[:, ~known] = uv[:, known][:, :1]
    varying = [p for p in uv if np.ptp(p[known]) != 0.0]
    if varying:
        unknown, rows = _laplace_factor(known.shape, known.tobytes())
        # Dirichlet data of the known neighbours, one column per plane
        rhs = np.stack([_neighbor_sum(np.where(known, p, 0.0)).ravel()[unknown] for p in varying], 1)
        x = _solve_laplace(rows, rhs)
        for k, p in enumerate(varying):
            p.flat[unknown] = x[:, k]
    return _sealed(uv)
