"""Deterministic synthetic scenes: a procedural world seen along a camera
path, and exact ground truth for frames, expanded frames, and flows.

A scene is a value-noise world sampled through a moving crop window; the
pipeline's ``SceneConfig`` describes the path.  Because the world is static,
the true flow between any two frames is the constant origin difference,
which makes propagation testable to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow import _bilinear
from .grids import CanvasSpec, ChannelGrid, FlowField, _blocks, _sealed
from .seeding import seeded_generator


def check_in_world(origins, spec: CanvasSpec, world_h: int, world_w: int) -> None:
    """Raise ValueError unless ``origins`` holds at least one frame and the
    expanded canvas of every frame lies inside a world_h x world_w world."""
    if not origins:
        raise ValueError("need at least one frame")
    for oy, ox in origins:
        ey = oy - spec.offset_y
        ex = ox - spec.offset_x
        if ey < 0 or ex < 0 or ey + spec.canvas_h > world_h or ex + spec.canvas_w > world_w:
            raise ValueError(
                f"trajectory escapes world: expanded crop at ({ey}, {ex}) "
                f"with size {spec.canvas_h}x{spec.canvas_w}"
            )


# rows of the world built per strip
_STRIP_ROWS = 64


def _value_noise(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill the zeroed (H, W) plane ``out`` with multi-octave value noise in
    [0, 1] with per-pixel variance; every lattice sample lies inside its
    lattice.  The three lattices are drawn first; the octave sum and the
    per-pixel noise are then built in strips of _STRIP_ROWS rows, the noise
    drawn strip by strip from the same stream, so the plane is the one a
    whole-plane build gives, bit for bit."""
    h, w = out.shape
    octaves = []
    for scale, weight in ((16, 0.5), (8, 0.3), (4, 0.2)):
        lattice = rng.random((math.ceil(h / scale) + 1, math.ceil(w / scale) + 1))
        octaves.append((scale, weight, lattice))
    ys, xs = np.ogrid[0:h, 0:w]
    for r in range(0, h, _STRIP_ROWS):
        acc = out[r : r + _STRIP_ROWS]
        for scale, weight, lattice in octaves:
            acc += weight * _bilinear(lattice, ys[r : r + _STRIP_ROWS] / scale, xs / scale)[0]
        acc += 0.10 * rng.random(acc.shape)
    lo, hi = out.min(), out.max()
    out -= lo
    out /= hi - lo


@dataclass(frozen=True)
class SyntheticScene:
    """World, camera origins and canvas of one synthetic run, and the ground
    truth derived from them; frames are the canvas's original size."""

    world: ChannelGrid
    origins: tuple[tuple[float, float], ...]
    spec: CanvasSpec

    def __post_init__(self):
        object.__setattr__(self, "origins", tuple((float(y), float(x)) for y, x in self.origins))
        check_in_world(self.origins, self.spec, self.world.height, self.world.width)

    @property
    def num_frames(self) -> int:
        return len(self.origins)

    def _crop(self, oy: float, ox: float, h: int, w: int) -> ChannelGrid:
        if float(oy).is_integer() and float(ox).is_integer():
            iy, ix = int(oy), int(ox)
            return ChannelGrid(self.world.data[:, iy : iy + h, ix : ix + w])
        ys, xs = np.ogrid[0:h, 0:w]
        # check_in_world keeps every sample inside the world
        return ChannelGrid(_sealed(_bilinear(self.world.data, ys + oy, xs + ox)[0]))

    def frame(self, i: int) -> ChannelGrid:
        oy, ox = self.origins[i]
        return self._crop(oy, ox, self.spec.orig_h, self.spec.orig_w)

    def gt_expanded(self, i: int) -> ChannelGrid:
        """The ground-truth content of frame i's whole expanded canvas."""
        oy, ox = self.origins[i]
        return self._crop(
            oy - self.spec.offset_y, ox - self.spec.offset_x, self.spec.canvas_h, self.spec.canvas_w
        )

    def gt_flow(self, src: int, dst: int) -> FlowField:
        """The field on frame ``src``'s grid whose displacement samples frame
        ``dst``: constant origin difference origin_src - origin_dst."""
        oy_s, ox_s = self.origins[src]
        oy_d, ox_d = self.origins[dst]
        return FlowField.constant(self.spec.orig_h, self.spec.orig_w, ox_s - ox_d, oy_s - oy_d)


def generate_scene(
    seed: int,
    world_h: int,
    world_w: int,
    crop_h: int,
    crop_w: int,
    n_frames: int,
    trajectory,
    spec: CanvasSpec,
) -> SyntheticScene:
    """Build a scene whose world is fully determined by ``seed``, its camera
    at ``trajectory.origins(n_frames)`` (a pipeline ``SceneConfig``)."""
    if (crop_h, crop_w) != (spec.orig_h, spec.orig_w):
        raise ValueError("crop size must match the canvas spec's original size")
    rng = seeded_generator(seed, "world")
    world = np.zeros((3, world_h, world_w))
    for plane in world:
        _value_noise(rng, plane)
    origins = tuple(trajectory.origins(n_frames))
    # read-only, the grid keeps it: the world is held once
    return SyntheticScene(world=ChannelGrid(_sealed(world)), origins=origins, spec=spec)


def stand_in_encode(frame: ChannelGrid, s: int) -> ChannelGrid:
    """Block-mean encoder: each s x s block becomes one latent cell."""
    if s < 1:
        raise ValueError("downsample factor must be >= 1")
    if frame.height % s or frame.width % s:
        raise ValueError(f"factor {s} must divide frame dims {frame.height}x{frame.width}")
    if s == 1:
        return frame
    c, h, w = frame.data.shape
    latent = np.empty((c, h // s, w // s))
    # anchor-shift mean: exact on block-constant inputs (mean of zeros is 0),
    # one channel at a time so the deltas are one (H, W) plane
    for plane, out in zip(frame.data, latent):
        anchors = plane[::s, ::s]
        deltas = _blocks(plane, s) - anchors[:, None, :, None]
        np.add(anchors, deltas.mean(axis=(1, 3), dtype=np.float64), out=out)
    return ChannelGrid(_sealed(latent))


def stand_in_decode(latent: ChannelGrid, s: int) -> ChannelGrid:
    """Nearest-neighbor decoder, the inverse of stand_in_encode on
    block-constant images."""
    if s < 1:
        raise ValueError("downsample factor must be >= 1")
    if s == 1:
        return latent
    return ChannelGrid(_sealed(np.repeat(np.repeat(latent.data, s, axis=1), s, axis=2)))
