"""Span tracer over a fixed list of convlap entry points.

A ``sys.setprofile`` hook opens a span when one of the listed functions
is entered and closes it when that frame returns (normally or by an
exception).  Spans are (name, start, end, parent) rows, timed in the
main thread's CPU time like the rest of the benchmark, kept in memory and
reduced to per-layer numbers when the traced pass ends.  Calls to
``MeromorphicDatum.__call__`` are too frequent to keep as spans; they
are counted on the innermost open span instead.

Nothing under ``src/`` is modified: the hook compares frame code
objects against the functions listed in ``_ENTRY_POINTS``.  An entry
point that a later version of the package no longer has is listed in
``Tracer.missing``, and a listed layer that a workload calls (``CALLED``)
but that the traced pass never entered is reported too: either makes the
traced run not correct, since its metrics would read 0, which looks like
the best result.
"""

from __future__ import annotations

import sys
import time

MODULES = ("cli", "transforms", "contour", "convexgeom", "lp", "legendre",
           "growth", "dolbeault")

# span name -> (module, attribute path).  A path ending in ":name" means
# the function of that name defined inside the attribute.
_ENTRY_POINTS = {
    "cli.parse_scenario": ("cli", "parse_scenario"),
    "cli.run_scenario": ("cli", "run_scenario"),
    "transforms.polya_transform": ("transforms", "polya_transform"),
    "transforms.meril_transform": ("transforms", "meril_transform"),
    "transforms.polya.eval": ("transforms", "polya_transform:full"),
    "transforms.meril.eval": ("transforms", "meril_transform:trace"),
    "transforms.residue_oracle": ("transforms", "residue_oracle"),
    "transforms.log_abs": ("transforms", "TransformResult.log_abs"),
    "contour.integrate": ("contour", "integrate"),
    "convexgeom.support_function": ("convexgeom", "support_function"),
    "convexgeom.signed_distance": ("convexgeom", "signed_distance"),
    "lp.maximize_min_affine": ("_lp", "maximize_min_affine"),
    "legendre.conjugate_at": ("legendre", "conjugate_at"),
    "legendre.conjugate": ("legendre", "conjugate"),
    "dolbeault.area_laplace": ("dolbeault", "area_laplace"),
    "growth.growth_ratio_sup": ("growth", "growth_ratio_sup"),
}
_COUNTED = ("transforms", "MeromorphicDatum.__call__")
COUNTED_NAME = "transforms.MeromorphicDatum.__call__"

# Spans (and the counted call) that each workload's traced pass enters.
CALLED = {
    "polya-grid": (
        "transforms.polya_transform", "transforms.polya.eval",
        "transforms.residue_oracle", "contour.integrate",
        "dolbeault.area_laplace", COUNTED_NAME),
    "meril-cone": (
        "transforms.meril_transform", "transforms.meril.eval",
        "transforms.residue_oracle", "contour.integrate",
        "convexgeom.signed_distance", "lp.maximize_min_affine",
        COUNTED_NAME),
    "scenario-mix": (
        "cli.parse_scenario", "cli.run_scenario",
        "transforms.polya_transform", "transforms.polya.eval",
        "transforms.meril_transform", "transforms.meril.eval",
        "transforms.residue_oracle", "transforms.log_abs",
        "contour.integrate", "convexgeom.support_function",
        "convexgeom.signed_distance", "legendre.conjugate",
        "growth.growth_ratio_sup", COUNTED_NAME),
}


def _resolve(module_name: str, path: str):
    import importlib

    obj = importlib.import_module(f"convlap.{module_name}")
    attr, _, inner = path.partition(":")
    for part in attr.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    code = getattr(obj, "__code__", None)
    if code is None or not inner:
        return code
    for const in code.co_consts:
        if getattr(const, "co_name", None) == inner:
            return const
    return None


def entry_points() -> tuple[dict, list[str]]:
    """code object -> span name for every entry point that exists, and
    the names of those that do not."""
    out, missing = {}, []
    for name, (module_name, path) in _ENTRY_POINTS.items():
        code = _resolve(module_name, path)
        if code is None:
            missing.append(name)
        else:
            out[code] = name
    return out, missing


class Tracer:
    """Collects spans while installed; ``close_open`` repairs the stack
    after a deadline interrupted the hook itself."""

    def __init__(self):
        self.codes, self.missing = entry_points()
        self.counted = _resolve(*_COUNTED)
        if self.counted is None:
            self.missing.append(COUNTED_NAME)
        # [name, start, end, parent, datum_calls, conjugate_out_pieces]
        self.spans: list[list] = []
        self.stack: list[tuple[object, int]] = []

    def _hook(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code is self.counted:
                if self.stack:
                    self.spans[self.stack[-1][1]][4] += 1
                return
            name = self.codes.get(code)
            if name is not None:
                parent = self.stack[-1][1] if self.stack else -1
                self.spans.append([name, time.thread_time(), 0.0, parent,
                                   0, 0])
                self.stack.append((frame, len(self.spans) - 1))
        elif event == "return":
            if self.stack and self.stack[-1][0] is frame:
                span = self.spans[self.stack.pop()[1]]
                span[2] = time.thread_time()
                if span[0] == "legendre.conjugate" and arg is not None:
                    span[5] = len(arg.pieces)

    def install(self) -> None:
        sys.setprofile(self._hook)

    def remove(self) -> None:
        sys.setprofile(None)

    def close_open(self) -> None:
        """Close spans whose return event was lost, and re-install the
        hook: CPython drops a profile hook that raises, which a deadline
        signal landing inside the hook does."""
        now = time.thread_time()
        while self.stack:
            self.spans[self.stack.pop()[1]][2] = now
        if sys.getprofile() is None:
            self.install()

    def summary(self) -> dict:
        """Per-name totals: count, time, self time, datum calls (own
        subtree) and conjugate output pieces; per-module self time."""
        n = len(self.spans)
        child_time = [0.0] * n
        datum = [row[4] for row in self.spans]
        for i in range(n - 1, -1, -1):
            name, start, end, parent, _, _ = self.spans[i]
            if parent >= 0:
                child_time[parent] += end - start
                datum[parent] += datum[i]
        by_name: dict[str, dict] = {}
        modules = {m: 0.0 for m in MODULES}
        for i, (name, start, end, _, _, pieces) in enumerate(self.spans):
            agg = by_name.setdefault(name, {"count": 0, "time": 0.0,
                                            "self": 0.0, "datum": 0,
                                            "pieces": 0})
            own = (end - start) - child_time[i]
            agg["count"] += 1
            agg["time"] += end - start
            agg["self"] += own
            agg["datum"] += datum[i]
            agg["pieces"] += pieces
            modules[name.split(".", 1)[0]] += own
        by_name[COUNTED_NAME] = {"count": sum(row[4] for row in self.spans)}
        return {"names": by_name, "modules": modules}
