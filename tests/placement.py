"""The placement oracle: a frame on its expanded canvas as a grid of its
own.  Propagation places each latent straight into its pull stack
(``propagation.pull_stacks``); the tests check it against this."""

import numpy as np

from outpaint.grids import CanvasSpec, ChannelGrid


def place_on_canvas(frame: ChannelGrid, spec: CanvasSpec) -> ChannelGrid:
    """Place ``frame`` on the expanded canvas; everything else is 0."""
    if (frame.height, frame.width) != (spec.orig_h, spec.orig_w):
        raise ValueError(
            f"frame is {frame.height}x{frame.width}, spec expects {spec.orig_h}x{spec.orig_w}"
        )
    out = np.zeros((frame.channels, spec.canvas_h, spec.canvas_w))
    ys, xs = spec.source_slices
    out[:, ys, xs] = frame.data
    return ChannelGrid(out)
