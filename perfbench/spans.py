"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own side of each layer boundary:
``instrument`` swaps the public functions that ``umbilic.cli``,
``umbilic.foliation`` and ``umbilic.leaves`` look up at call time for
timing wrappers, and restores them on exit.  Nothing under ``src/`` is
edited.

Each span keeps its name, start, end, parent span and the id of the op
that caused it.  Self time is the span's duration minus the time its
child spans cover (children of one span never overlap: one thread).

The per-pair and per-leaf calls (``HOT`` below) run hundreds of
thousands of times per second, so they are not kept one by one: each is folded into its
parent span as a call count and busy time, which still counts as child
time of that parent.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

#: Span names folded into their parent instead of kept one by one.
HOT = frozenset(
    {
        "leaves.carrier_contact",
        "leaves.disjoint_along_geodesic",
        "leaves.disjoint_along_hypercycle",
        "leaves.leaf_orthogonal_to_geodesic",
        "leaves.leaf_orthogonal_to_hypercycle",
    }
)

#: Spans that can have child spans; only these report ``.self_s``.
WITH_CHILDREN = (
    "cli.main",
    "foliation.synthesize",
    "foliation.verify_disjoint",
    "foliation.run_disjointness_agreement",
)

_clock = time.perf_counter


class SpanRecorder:
    """In-memory spans plus per-name totals, written out at the end."""

    def __init__(self) -> None:
        # One row per kept span:
        # [id, parent, op, name, start, end, child_s, counts].
        self.spans: list[list] = []
        # Folded hot calls: (parent id, name) -> [calls, busy_s].
        self.folded: dict[tuple[int, str], list] = defaultdict(lambda: [0, 0.0])
        self._stack: list[list] = []
        self.op: str = "setup"

    def start(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        row = [len(self.spans), parent, self.op, name, _clock(), 0.0, 0.0, None]
        self.spans.append(row)
        self._stack.append(row)
        return row

    def end(self, row: list) -> None:
        row[5] = _clock()
        self._stack.pop()
        if self._stack:
            self._stack[-1][6] += row[5] - row[4]

    def discount(self, seconds: float) -> None:
        """Count time the recorder itself spent inside the open span as
        child time, so it is not charged to that span's self time."""
        if self._stack:
            self._stack[-1][6] += seconds

    def fold(self, name: str, busy: float) -> None:
        parent = self._stack[-1] if self._stack else None
        entry = self.folded[(parent[0] if parent else -1, name)]
        entry[0] += 1
        entry[1] += busy
        if parent is not None:
            parent[6] += busy

    def totals(self, setup: bool) -> dict[str, float]:
        """Per-name ``calls``, ``busy_s``, ``self_s`` and work counts,
        summed over the set-up spans or over the spans of the timed ops."""
        out: dict[str, float] = defaultdict(float)
        keep = set()
        for sid, _parent, op, name, t0, t1, child, counts in self.spans:
            if (op == "setup") != setup:
                continue
            keep.add(sid)
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += t1 - t0
            out[f"{name}.self_s"] += (t1 - t0) - child
            for key, value in (counts or {}).items():
                out[f"{name}.{key}"] += value
        for (parent, name), (calls, busy) in self.folded.items():
            if parent in keep:
                out[f"{name}.calls"] += calls
                out[f"{name}.busy_s"] += busy
        return out

    def write(self, path) -> None:
        """One JSON object per line: kept spans, then folded hot calls."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, t0, t1, child, counts in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": name,
                    "start": t0, "end": t1, "self_s": (t1 - t0) - child,
                    "counts": counts or {},
                }) + "\n")
            for (parent, name), (calls, busy) in sorted(self.folded.items()):
                fh.write(json.dumps({
                    "folded": name, "parent": parent, "calls": calls,
                    "busy_s": busy,
                }) + "\n")


def _interior_pairs(route) -> int:
    """Interior pairs ``validate_c0`` scans, from the validator's own
    classification of the samples."""
    from umbilic import validation

    bound = route.transversal.curvature_bound
    interior = validation._classify_samples(route.h, bound, route.tol)[3]
    k = int(np.count_nonzero(interior))
    return k * (k - 1) // 2


def _counters(name, args, result) -> dict[str, float] | None:
    """Work counts for one call, read from its arguments and result."""
    if name == "routes_io.loads_route":
        return {"bytes": len(args[0])}
    if name == "validation.validate_c0":
        return {"pairs": _interior_pairs(args[0]), "violations": len(result.violations)}
    if name == "foliation.synthesize":
        return {"leaves": len(result.leaves)}
    if name == "foliation.extend_slice":
        return {"leaves": len(result.extension_leaves) - len(args[0].extension_leaves)}
    if name == "foliation.verify_disjoint":
        return {
            "pairs": result.pair_count,
            "flagged": len(result.intersecting) + len(result.tangent),
        }
    if name == "foliation.run_disjointness_agreement":
        return {
            "compared": result.compared,
            "skipped": result.skipped_margin + result.skipped_tangent,
            "total": result.total,
        }
    if name in ("foliation.random_valid_route", "foliation.perturbed_invalid_route"):
        route = result[0] if isinstance(result, tuple) else result
        return {"samples": route.n}
    if name == "render.render_svg":
        return {"bytes": len(result)}
    if name == "cli.main":
        # The op captures stdout in a fresh buffer per call, so the
        # buffer's position after the call is what main printed.
        return {"stdout_bytes": sys.stdout.tell()}
    return None


def _wrap(rec: SpanRecorder, name: str, fn):
    if name in HOT:
        def folded(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.fold(name, _clock() - t0)
        return folded

    def spanned(*args, **kwargs):
        row = rec.start(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(row)
        t0 = _clock()
        row[7] = _counters(name, args, result)
        rec.discount(_clock() - t0)
        return result

    return spanned


def _targets():
    """(module, attribute, span name) for every traced call site."""
    from umbilic import cli, foliation, leaves, render, routes_io, validation

    layer_of = {
        "loads_route": "routes_io", "validate_document": "routes_io",
        "document_to_route": "routes_io",
        "validate_c0": "validation", "validate_c1": "validation",
        "validate_horocycle": "validation",
        "synthesize": "foliation", "extend_slice": "foliation",
        "verify_disjoint": "foliation", "run_disjointness_agreement": "foliation",
        "random_valid_route": "foliation", "perturbed_invalid_route": "foliation",
        "carrier_contact": "leaves", "disjoint_along_geodesic": "leaves",
        "disjoint_along_hypercycle": "leaves",
        "leaf_orthogonal_to_geodesic": "leaves",
        "leaf_orthogonal_to_hypercycle": "leaves", "render_svg": "render",
        "main": "cli",
    }
    # Modules whose globals the library resolves at call time, plus the
    # defining modules the benchmark itself calls through.
    sites = [cli, foliation, leaves, routes_io, validation, render]
    out = []
    for module in sites:
        for attr, layer in layer_of.items():
            if hasattr(module, attr):
                out.append((module, attr, f"{layer}.{attr}"))
    return out


@contextlib.contextmanager
def instrument(rec: SpanRecorder):
    """Swap the traced functions for timing wrappers; restore on exit."""
    saved = []
    try:
        for module, attr, name in _targets():
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(rec, name, original))
        yield rec
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
