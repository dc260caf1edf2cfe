"""Whole-canvas forms of the package's cell-list warps, for the tests.

``backward_warp`` and ``compose_accumulated`` take a list of cells and no
validity; these evaluate them on every cell of the grid and reshape the
result, with the dimension check a whole-grid call implies, and treat a
cell where the input flow is invalid as one sampled outside: ``ok`` False
and 0.
"""

import numpy as np

from outpaint.flow import backward_warp, compose_accumulated
from outpaint.grids import BinaryMask, ChannelGrid, FlowField


def _every_cell(flow: FlowField):
    cells = np.arange(flow.height * flow.width)
    return cells, np.stack([flow.u.ravel(), flow.v.ravel()])


def warp_grid(src: ChannelGrid, flow: FlowField) -> tuple[ChannelGrid, BinaryMask]:
    """``src`` sampled at x + flow(x) on every cell, and the cells where that
    sample is valid."""
    if (src.height, src.width) != (flow.height, flow.width):
        raise ValueError("flow dims must match source spatial dims")
    samples, ok = backward_warp(src.data, *_every_cell(flow))
    ok = ok.reshape(flow.valid.shape) & flow.valid
    return ChannelGrid(np.where(ok, samples.reshape(src.data.shape), 0.0)), BinaryMask(ok)


def compose_grid(acc: FlowField, hop: FlowField) -> FlowField:
    """The accumulated flow ``acc`` extended on every cell by ``hop``, taken
    as complete: its (u, v) planes are the completed displacement
    ``compose_accumulated`` composes."""
    if (acc.height, acc.width) != (hop.height, hop.width):
        raise ValueError("flow dims must match")
    uv, ok = compose_accumulated(np.stack([hop.u, hop.v]), *_every_cell(acc))
    ok = ok.reshape(acc.valid.shape) & acc.valid
    u, v = np.where(ok, uv.reshape((2,) + ok.shape), 0.0)
    return FlowField(u, v, ok)
