"""Spans around calls into outpaint's layers, for the traced run only.

The package binds names with ``from .x import y``, so each function is
patched on the module (or class) its caller looks it up through at call
time, not where it is defined.  Nothing inside ``src/`` changes.  Spans are
kept in memory as [name, start, end, parent index]; self time is a span's
duration minus the durations of its direct children, which never overlap
because every call is synchronous.

With ``memory`` set, ``tracemalloc`` runs while the Tracer is installed.  It
costs every allocation, which inflates allocation-heavy spans several-fold
(flow completion, pulling), so span times are taken from a Tracer without it.
Its peak is reset at the start of every top-level span (a direct child of
the root span), so each top-level function gets its own peak; the whole-run
peak is the largest of the peaks seen at each reset and at the end.
"""

from __future__ import annotations

import functools
import os
import time
import tracemalloc
from collections import defaultdict

import numpy as np

import outpaint.diffusion as diffusion
import outpaint.flow as flow
import outpaint.pipeline as pipeline
import outpaint.propagation as propagation
import outpaint.refselect as refselect

ROOT = "pipeline.run_pipeline"

# (object the caller looks the name up on, attribute, span name)
TARGETS = (
    (pipeline, "generate_scene", "synthetic.generate_scene"),
    (pipeline, "stand_in_encode", "synthetic.stand_in_encode"),
    (pipeline, "stand_in_decode", "synthetic.stand_in_decode"),
    (pipeline, "read_grid", "grids.read_grid"),
    (pipeline, "write_grid", "grids.write_grid"),
    (pipeline, "downscale_flow", "grids.downscale_flow"),
    (pipeline, "build_reference_chain", "refselect.build_reference_chain"),
    (refselect, "ssim_structure_score", "refselect.ssim_structure_score"),
    (pipeline, "map_flow_to_canvas", "flow.map_flow_to_canvas"),
    # LaplacianCompleter.complete looks this up in outpaint.flow
    (flow, "complete_flow_laplacian", "flow.complete_flow_laplacian"),
    (pipeline, "propagate_sequence", "propagation.propagate_sequence"),
    (propagation, "propagate_direction", "propagation.propagate_direction"),
    (propagation, "backward_warp", "flow.backward_warp"),
    (propagation, "compose_accumulated", "flow.compose_accumulated"),
    (pipeline, "reverse_sample", "diffusion.reverse_sample"),
    (diffusion, "windowed_epsilon", "diffusion.windowed_epsilon"),
    (diffusion.ZeroDenoiser, "predict", "diffusion.predict"),
    (diffusion.ConstantDenoiser, "predict", "diffusion.predict"),
    (diffusion.OracleDenoiser, "predict", "diffusion.predict"),
    (pipeline, "psnr", "metrics.psnr"),
    (pipeline, "psnr_masked", "metrics.psnr"),
    (pipeline, "ssim_full", "metrics.ssim_full"),
)

_MB = 1024.0 * 1024.0


class Tracer:
    """Records spans and counters while installed; see the module doc."""

    def __init__(self, memory: bool):
        self.memory = memory
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        self.file_bytes: dict[str, int] = defaultdict(int)
        self.useful_pulls = 0
        self.run_peak = 0
        self.span_peaks: dict[str, int] = defaultdict(int)

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        if self.memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.memory:
            self.run_peak = max(self.run_peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            top_level = self.memory and parent is not None and self.spans[parent][0] == ROOT
            if top_level:
                self.run_peak = max(self.run_peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
            span = [name, time.perf_counter(), None, parent]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if top_level:
                    peak = tracemalloc.get_traced_memory()[1]
                    self.span_peaks[name] = max(self.span_peaks[name], peak)
            self._count(name, args, result)
            return result

        return traced

    def _count(self, name: str, args, result) -> None:
        if name in ("grids.read_grid", "grids.write_grid"):
            self.file_bytes[name] += os.path.getsize(args[0])
        elif name == "propagation.propagate_direction":
            # A pull filled cells iff its reference appears in the
            # provenance: later pulls never overwrite covered cells.
            frame = args[0]
            refs = set(np.unique(result.provenance).tolist()) - {-1, frame}
            self.useful_pulls += len(refs)

    def metrics(self) -> dict[str, float]:
        """calls, s and self_s for every traced name (0 when never called),
        bytes for grid I/O and, with ``memory``, tracemalloc peaks in MB."""
        names = [ROOT] + sorted({name for _, _, name in TARGETS})
        out: dict[str, float] = {}
        for name in names:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child_s):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - inner
        for name in ("grids.read_grid", "grids.write_grid"):
            out[f"{name}.bytes"] = self.file_bytes[name]
        out["propagation.useful_pulls"] = self.useful_pulls
        if self.memory:
            out["memory.tracemalloc_peak_mb"] = self.run_peak / _MB
            for owner, _, name in TARGETS:
                if owner is pipeline:
                    out[f"memory.{name}.peak_mb"] = self.span_peaks[name] / _MB
        return out
