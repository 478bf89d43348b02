"""Span tracing around the public functions of each polariton_lab layer.

The wrappers are bound at every name a caller resolves: the CLI imports
``sp_wavevector`` and ``alpha_closed`` by name, ``propagation`` imports
``alpha_closed`` by name, and ``dispersion`` calls its own
``sp_wavevector``.  So :meth:`Tracer.install` replaces the function object
in every ``polariton_lab`` module that holds it, and :meth:`uninstall` puts
the originals back.  The program's source is not touched.

Spans are kept in memory (name, start, end, parent span, op) and written out
once at the end.  A layer's self time is its span minus its child spans.
Spans opened in a forked pool worker never reach this process, so a traced
run must use ``--jobs 1``.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (layer, module holding the function, function name)
LAYERS = (
    ("materials", "polariton_lab.materials", "eval_material"),
    ("dispersion", "polariton_lab.dispersion", "sp_wavevector"),
    ("dispersion", "polariton_lab.dispersion", "group_velocity"),
    ("dispersion", "polariton_lab.dispersion", "find_abyss"),
    ("eit", "polariton_lab.eit", "alpha_closed"),
    ("eit", "polariton_lab.eit", "hyp2f1_special"),
    ("quantization", "polariton_lab.quantization", "mode_normalization"),
    ("propagation", "polariton_lab.propagation", "propagate_pulse"),
    ("csvio", "polariton_lab.csvio", "write_csv"),
    ("svgplot", "polariton_lab.svgplot", "line_plot"),
    ("config", "polariton_lab.config", "load_config"),
)
ROOT = "cli"

# hyp2f1_special argument regions, split where the kernel switches method.
SERIES_RADIUS = 0.8
RING_RADIUS = 2.0


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Replace ``original`` under every name a polariton_lab module holds it.

    Returns (module, name, original) triples for undoing the change.
    """
    patched = []
    for name, module in list(sys.modules.items()):
        if not (name.startswith("polariton_lab") and module):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                patched.append((module, attr, original))
                setattr(module, attr, replacement)
    return patched


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, float, float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._next_id = 0
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        dur = t1 - t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        name = frame[1]
        self.calls[name] += 1
        self.self_s[name] += dur - frame[2]
        self.spans.append((frame[0], parent[0] if parent else 0, name, self._op, t0, t1))

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer._count(name, args, kwargs)
            frame = tracer._enter(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, t0, time.perf_counter())
            if name == "csvio.write_csv":
                tracer.counts["csvio.write_csv.bytes"] += os.path.getsize(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, args: tuple, kwargs: dict) -> None:
        if name == "eit.hyp2f1_special":
            # Per element, so the counts survive a kernel vectorized over z.
            r = np.abs(np.asarray(args[1] if len(args) > 1 else kwargs["z"]))
            series = int(np.count_nonzero(r <= SERIES_RADIUS))
            ring = int(np.count_nonzero(r <= RING_RADIUS)) - series
            self.counts["eit.hyp2f1_special.series"] += series
            self.counts["eit.hyp2f1_special.ring"] += ring
            self.counts["eit.hyp2f1_special.large"] += int(r.size) - series - ring
        elif name == "eit.alpha_closed":
            nu = args[2] if len(args) > 2 else kwargs["nu"]
            self.counts["eit.alpha_closed.points"] += int(np.size(nu))
        elif name == "dispersion.sp_wavevector":
            if self._stack and self._stack[-1][1] == "dispersion.group_velocity":
                self.counts["dispersion.group_velocity.stencil_evals"] += 1

    def op(self, index: int, fn, *args):
        """Run one op as the root span ``cli``."""
        self._op = index
        frame = self._enter(ROOT)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._exit(frame, t0, time.perf_counter())

    # -- binding -------------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, attr in LAYERS:
            original = getattr(sys.modules[module_name], attr)
            self._patched += rebind(original, self._wrap(f"{layer}.{attr}", original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="ascii") as fh:
            fh.write("span,parent,name,op,start_s,end_s\n")
            for span in self.spans:
                fh.write(f"{span[0]},{span[1]},{span[2]},{span[3]},{span[4]:.9f},{span[5]:.9f}\n")

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }
