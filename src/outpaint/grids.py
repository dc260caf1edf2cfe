"""Dense-grid data types, canvas geometry, masks, resampling, and file I/O.

All grid types are immutable after construction, so instances are safe to
share across threads.  A grid keeps an array it is given without copying it
when the array is already read-only, C-contiguous and of the grid's dtype,
and only read-only arrays back it; any other input is copied and the copy
marked read-only.
Grid values live in float64 in memory, masks and flow validity planes in
bool; the on-disk format stores every plane as 32-bit floats, masks as
0.0/1.0 (see read_grid/write_grid).
"""

from __future__ import annotations

import numbers
import struct
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

GRID_MAGIC = b"S2SG"
GRID_VERSION = 1

KIND_CHANNEL = 1
KIND_FLOW = 2
KIND_MASK = 3

# Guard against absurd headers before allocating payload buffers.
_MAX_CELLS = 1 << 31


class GridFormatError(ValueError):
    """Raised for malformed grid files: bad magic, truncation, bad payload."""


def _read_only(arr: np.ndarray) -> bool:
    """Whether ``arr`` and every array behind it are read-only, so that no
    writeable array shares its memory."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None


def _frozen(data, dtype=np.float64) -> np.ndarray:
    """``data`` as a read-only C-contiguous ``dtype`` array: kept as it is
    when it already is one and only read-only arrays back it, copied
    otherwise."""
    if type(data) is np.ndarray and data.dtype == dtype and data.flags.c_contiguous and _read_only(data):
        return data
    arr = np.array(data, dtype=dtype, order="C", copy=True)
    arr.flags.writeable = False
    return arr


def _sealed(arr: np.ndarray) -> np.ndarray:
    """``arr``, marked read-only: a producer hands a grid a new array it no
    longer writes, and the grid keeps it instead of copying it (see _frozen)."""
    arr.flags.writeable = False
    return arr


def _frozen_mask(data, what: str) -> np.ndarray:
    """``data`` as a read-only bool array (see _frozen); non-bool input must
    hold only 0/1."""
    arr = np.asarray(data)
    if arr.dtype != bool and not np.all((arr == 0) | (arr == 1)):
        raise ValueError(f"{what} must contain only 0/1 values")
    return _frozen(arr, dtype=bool)


@dataclass(frozen=True)
class ChannelGrid:
    """Multi-channel grid, channel-major row-major (C, H, W)."""

    data: np.ndarray

    def __post_init__(self):
        arr = _frozen(self.data)
        if arr.ndim != 3 or arr.size == 0:
            raise ValueError("ChannelGrid needs a non-empty 3-D (C, H, W) array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("ChannelGrid values must be finite")
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class BinaryMask:
    """Read-only bool grid; built from bool or from 0/1 values."""

    data: np.ndarray

    def __post_init__(self):
        arr = _frozen_mask(self.data, "BinaryMask")
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("BinaryMask needs a non-empty 2-D array")
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class FlowField:
    """Per-pixel displacement field with a validity plane.

    ``u`` is the x-displacement (columns), ``v`` the y-displacement (rows),
    both in pixels of the grid the field lives on.  ``valid`` is a read-only
    bool plane (built from bool or from 0/1 values); u and v must be finite
    wherever it is True (invalid cells may hold anything, but such fields
    cannot be written to disk).
    """

    u: np.ndarray
    v: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        u = _frozen(self.u)
        v = _frozen(self.v)
        valid = _frozen_mask(self.valid, "FlowField.valid")
        if u.ndim != 2 or u.size == 0:
            raise ValueError("FlowField planes must be non-empty 2-D arrays")
        if u.shape != v.shape or u.shape != valid.shape:
            raise ValueError("FlowField planes must share one shape")
        if not (np.all(np.isfinite(u[valid])) and np.all(np.isfinite(v[valid]))):
            raise ValueError("FlowField u/v must be finite where valid")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "valid", valid)

    @property
    def height(self) -> int:
        return self.u.shape[0]

    @property
    def width(self) -> int:
        return self.u.shape[1]

    @classmethod
    def constant(cls, height: int, width: int, du: float, dv: float) -> "FlowField":
        return cls(
            _sealed(np.full((height, width), du)),
            _sealed(np.full((height, width), dv)),
            _sealed(np.ones((height, width), dtype=bool)),
        )


# field annotation (a string: annotations are postponed) -> (accepts, name in messages)
_FIELD_TYPES = {
    "int": (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer"),
    "float": (
        # false for NaN and inf, and exact for an int too large for a float
        lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max,
        "a finite real number",
    ),
    "str": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
}


def check_field_types(obj) -> None:
    """Raise ValueError naming the field unless each field of the config
    dataclass ``obj`` holds the type it declares: int, float (finite), str,
    bool or str | None.  True is neither an int nor a float, and 48.0 is
    no int.  A field of another type, a nested config, checks itself."""
    for f in fields(obj):
        if f.type in _FIELD_TYPES:
            accepts, want = _FIELD_TYPES[f.type]
            value = getattr(obj, f.name)
            if not accepts(value):
                raise ValueError(f"{f.name} must be {want}, got {value!r}")


@dataclass(frozen=True)
class CanvasSpec:
    """Geometry binding an original frame to its expanded canvas.

    The original (orig_h, orig_w) frame sits at (offset_y, offset_x) on the
    (canvas_h, canvas_w) canvas.  ``downsample`` is the latent-space factor;
    it must divide every other field so latent-grid cells tile the canvas.
    """

    orig_h: int
    orig_w: int
    canvas_h: int
    canvas_w: int
    offset_y: int
    offset_x: int
    downsample: int = 1

    def __post_init__(self):
        check_field_types(self)
        s = self.downsample
        if min(self.orig_h, self.orig_w, self.canvas_h, self.canvas_w) <= 0:
            raise ValueError("canvas dimensions must be positive")
        if self.canvas_h < self.orig_h or self.canvas_w < self.orig_w:
            raise ValueError("canvas must be at least as large as the original")
        if not (0 <= self.offset_y <= self.canvas_h - self.orig_h):
            raise ValueError("vertical offset places frame outside canvas")
        if not (0 <= self.offset_x <= self.canvas_w - self.orig_w):
            raise ValueError("horizontal offset places frame outside canvas")
        if s < 1:
            raise ValueError("downsample must be >= 1")
        for name in ("orig_h", "orig_w", "canvas_h", "canvas_w", "offset_y", "offset_x"):
            if getattr(self, name) % s != 0:
                raise ValueError(f"downsample {s} must divide {name}")

    def latent(self) -> "CanvasSpec":
        """The same geometry expressed at latent resolution."""
        s = self.downsample
        return CanvasSpec(
            self.orig_h // s,
            self.orig_w // s,
            self.canvas_h // s,
            self.canvas_w // s,
            self.offset_y // s,
            self.offset_x // s,
            downsample=1,
        )

    @property
    def source_slices(self) -> tuple[slice, slice]:
        return (
            slice(self.offset_y, self.offset_y + self.orig_h),
            slice(self.offset_x, self.offset_x + self.orig_w),
        )


def make_outpaint_mask(spec: CanvasSpec) -> BinaryMask:
    """Mask that is True outside the placed original rectangle, False inside."""
    mask = np.ones((spec.canvas_h, spec.canvas_w), dtype=bool)
    ys, xs = spec.source_slices
    mask[ys, xs] = False
    return BinaryMask(mask)


def _blocks(plane: np.ndarray, s: int) -> np.ndarray:
    h, w = plane.shape
    return plane.reshape(h // s, s, w // s, s)


def downscale_flow(flow: FlowField, s: int) -> FlowField:
    """Downscale a flow field by ``s``: block-average displacements over valid
    cells, divide magnitudes by ``s``.  An output cell is valid only if every
    covered input cell is valid."""
    if s < 1:
        raise ValueError("scale factor must be >= 1")
    if flow.height % s or flow.width % s:
        raise ValueError(f"scale {s} must divide flow dims {flow.height}x{flow.width}")
    if s == 1:
        return flow
    vb = _blocks(flow.valid, s)
    count = vb.sum(axis=(1, 3))
    safe = np.maximum(count, 1.0)
    # invalid input cells may hold junk; zero them before summing, so a
    # block without a valid cell sums to 0.0
    u_src = np.where(flow.valid, flow.u, 0.0)
    v_src = np.where(flow.valid, flow.v, 0.0)
    u = _blocks(u_src, s).sum(axis=(1, 3)) / safe / s
    v = _blocks(v_src, s).sum(axis=(1, 3)) / safe / s
    return FlowField(_sealed(u), _sealed(v), _sealed(count == s * s))


def downscale_mask(mask: BinaryMask, s: int) -> BinaryMask:
    """Max-pool a mask by ``s``: any covered True makes the output cell True."""
    if s < 1:
        raise ValueError("scale factor must be >= 1")
    if mask.height % s or mask.width % s:
        raise ValueError(f"scale {s} must divide mask dims {mask.height}x{mask.width}")
    if s == 1:
        return mask
    return BinaryMask(_blocks(mask.data, s).any(axis=(1, 3)))


Grid = ChannelGrid | FlowField | BinaryMask


def _payload_planes(grid: Grid) -> tuple[int, int, np.ndarray]:
    """(kind, channels, planes stacked as (C, H, W)) for serialization."""
    if isinstance(grid, ChannelGrid):
        return KIND_CHANNEL, grid.channels, grid.data
    if isinstance(grid, FlowField):
        return KIND_FLOW, 3, np.stack([grid.u, grid.v, grid.valid])
    if isinstance(grid, BinaryMask):
        return KIND_MASK, 1, grid.data[None]
    raise TypeError(f"not a grid type: {type(grid).__name__}")


def write_grid(path, grid: Grid) -> None:
    """Write a grid in the binary format (little-endian float32 payload;
    mask and validity planes as 0.0/1.0).

    Parent directories are created as needed.
    """
    kind, channels, planes = _payload_planes(grid)
    # a value beyond float32 range casts to inf, which the check below rejects
    with np.errstate(over="ignore"):
        payload = planes.astype("<f4")
    if not np.all(np.isfinite(payload)):
        raise ValueError("grid payload must be finite (and fit float32 range)")
    h, w = planes.shape[1], planes.shape[2]
    header = GRID_MAGIC + struct.pack("<HBIII", GRID_VERSION, kind, channels, h, w)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_grid(path) -> Grid:
    """Read a grid file written by write_grid.  Round-trips are bit-exact."""
    with open(path, "rb") as fh:
        raw = fh.read()
    hdr_size = len(GRID_MAGIC) + struct.calcsize("<HBIII")
    if len(raw) < hdr_size:
        raise GridFormatError("file shorter than header")
    if raw[:4] != GRID_MAGIC:
        raise GridFormatError(f"bad magic {raw[:4]!r}")
    version, kind, channels, h, w = struct.unpack("<HBIII", raw[4:hdr_size])
    if version != GRID_VERSION:
        raise GridFormatError(f"unsupported version {version}")
    if kind not in (KIND_CHANNEL, KIND_FLOW, KIND_MASK):
        raise GridFormatError(f"unknown kind {kind}")
    if kind == KIND_MASK and channels != 1:
        raise GridFormatError(f"mask files require channels=1, got {channels}")
    if kind == KIND_FLOW and channels != 3:
        raise GridFormatError(f"flow files require channels=3, got {channels}")
    if channels == 0 or h == 0 or w == 0 or channels * h * w > _MAX_CELLS:
        raise GridFormatError(f"dimension overflow: {channels}x{h}x{w}")
    expected = channels * h * w * 4
    body = len(raw) - hdr_size
    if body < expected:
        raise GridFormatError(f"truncated payload: {body} bytes, expected {expected}")
    if body > expected:
        raise GridFormatError(f"trailing data: {body} bytes, expected {expected}")
    # a view of the payload in `raw`; the grid types copy float32 to float64
    # once, exactly
    planes = np.frombuffer(raw, dtype="<f4", offset=hdr_size).reshape(channels, h, w)
    try:
        if kind == KIND_CHANNEL:
            return ChannelGrid(planes)
        if kind == KIND_FLOW:
            return FlowField(planes[0], planes[1], planes[2])
        return BinaryMask(planes[0])
    except ValueError as exc:
        raise GridFormatError(f"invalid payload: {exc}") from exc
