"""Spans around the program's layers, recorded from outside the program.

`install()` rebinds each layer's public function at the places the program
looks it up at call time (for example `confoundsim.ensemble.fit_logistic`),
so every call records a span: name, start, end and the span that caused it.
Spans stay in memory until `dump()` writes them out.  A name that can no
longer be found is reported as missing and its layer reads zero; the run
goes on.  `layer_metrics()` reduces one call's spans to the per-layer
metrics.  Only the traced run imports this module.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from dataclasses import asdict, dataclass, field

# unit and direction of every per-layer metric, in report order
PER_LAYER = {
    "metamodel.draw.calls": ("count", "lower"),
    "metamodel.draw.busy_s": ("s", "lower"),
    "glm.fit.calls": ("count", "lower"),
    "glm.fit.busy_s": ("s", "lower"),
    "glm.fit.iterations": ("count", "lower"),
    "glm.fit.usable_ratio": ("ratio", "higher"),
    "ensemble.run.self_s": ("s", "lower"),
    "ensemble.parallel_efficiency": ("ratio", "higher"),
    "ensemble.format.busy_s": ("s", "lower"),
    "ingest.load.busy_s": ("s", "lower"),
    "ingest.load.cells": ("count", "lower"),
    "ingest.load.cells_per_s": ("cells/s", "higher"),
    "ingest.recode.busy_s": ("s", "lower"),
    "ingest.design.busy_s": ("s", "lower"),
    "ingest.design.rows_dropped": ("count", "lower"),
    "metamodel.write.busy_s": ("s", "lower"),
    "metamodel.write.bytes": ("bytes", "lower"),
    "metamodel.write.mb_per_s": ("MB/s", "higher"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _fit_counts(args, result, before):
    return {"iterations": result.iterations,
            "usable": int(result.converged and not result.separation_detected)}


def _load_counts(args, result, before):
    return {"cells": result.values.size}


def _design_counts(args, result, before):
    return {"rows_dropped": result[2].n_dropped}


def _write_position(args):
    try:
        return args[1].tell()
    except (AttributeError, IndexError):
        return None


def _write_counts(args, result, before):
    return {"bytes": args[1].tell() - before}


@dataclass(frozen=True)
class Layer:
    """A span name and the (module, attribute) places its function is bound."""

    name: str
    targets: tuple[tuple[str, str], ...]
    before: object = None        # args -> value handed to `after`
    after: object = None         # (args, result, before) -> span counts


LAYERS = (
    Layer("cli", (("confoundsim.cli", "main"),)),
    Layer("ensemble.scan", (("confoundsim.cli", "scan_grid"),)),
    Layer("ensemble.run", (("confoundsim.ensemble", "run_ensemble"),)),
    Layer("ensemble.format", (("confoundsim.cli", "format_grid_csv"),
                              ("confoundsim.cli", "format_grid_json"))),
    Layer("metamodel.draw", (("confoundsim.ensemble", "draw_population"),
                             ("confoundsim.cli", "draw_population"))),
    Layer("metamodel.write", (("confoundsim.cli", "write_population_csv"),),
          before=_write_position, after=_write_counts),
    Layer("glm.fit", (("confoundsim.ensemble", "fit_logistic"),
                      ("confoundsim.ingest", "fit_logistic")), after=_fit_counts),
    Layer("ingest.load", (("confoundsim.cli", "load_survey"),), after=_load_counts),
    Layer("ingest.recode", (("confoundsim.cli", "apply_mappings"),)),
    Layer("ingest.stages", (("confoundsim.cli", "staged_analysis"),)),
    Layer("ingest.design", (("confoundsim.ingest", "build_design"),),
          after=_design_counts),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans in memory; parents come from a per-thread stack.

    Work that a pool thread runs has no span of its own thread above it, so
    its parent is the innermost span open on the installing thread.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: Layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._home[-1] if self._home else None)
            span_id = next(self._ids)
            stack.append(span_id)
            before = layer.before(args) if layer.before else None
            result, ok = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = self._counts(layer, args, result, before) if ok else {}
                self.spans.append(Span(span_id, layer.name, start, end, parent, counts))
        return traced

    def _counts(self, layer: Layer, args, result, before) -> dict:
        if layer.after is None:
            return {}
        try:
            return layer.after(args, result, before)
        except (AttributeError, IndexError, TypeError):
            note = f"{layer.name} counts"
            if note not in self.missing:
                self.missing.append(note)
            return {}

    def install(self, layers=LAYERS) -> None:
        for layer in layers:
            for module_name, attr in layer.targets:
                try:
                    module = importlib.import_module(module_name)
                    fn = getattr(module, attr)
                except (ImportError, AttributeError):
                    self.missing.append(f"{layer.name} ({module_name}.{attr})")
                    continue
                setattr(module, attr, self.wrap(layer, fn))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing,
                       "spans": [asdict(s) for s in self.spans]}, fh)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _self_time(span: dict, children: list[dict]) -> float:
    inside = [(max(c["start"], span["start"]), min(c["end"], span["end"]))
              for c in children]
    return (span["end"] - span["start"]) - _covered([iv for iv in inside if iv[1] > iv[0]])


def layer_metrics(spans: list[dict], threads: int, file_cells: int) -> dict[str, float]:
    """Per-layer metrics of one traced call; a layer that did not run reads 0.

    `file_cells` is the size of the survey file handed to the loader (the
    base of its cells-per-second rate); `threads` the scan's pool size.
    """
    by_name: dict[str, list[dict]] = {}
    children: dict[int, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        children.setdefault(s["parent"], []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def total(name, key):
        return sum(s["counts"].get(key, 0) for s in by_name.get(name, ()))

    def self_time(name):
        return sum(_self_time(s, children.get(s["id"], [])) for s in by_name.get(name, ()))

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    return {
        "metamodel.draw.calls": calls("metamodel.draw"),
        "metamodel.draw.busy_s": busy("metamodel.draw"),
        "glm.fit.calls": calls("glm.fit"),
        "glm.fit.busy_s": busy("glm.fit"),
        "glm.fit.iterations": total("glm.fit", "iterations"),
        "glm.fit.usable_ratio": ratio(total("glm.fit", "usable"), calls("glm.fit")),
        "ensemble.run.self_s": self_time("ensemble.run"),
        "ensemble.parallel_efficiency": ratio(
            busy("metamodel.draw") + busy("glm.fit"), busy("ensemble.scan") * threads),
        "ensemble.format.busy_s": busy("ensemble.format"),
        "ingest.load.busy_s": busy("ingest.load"),
        "ingest.load.cells": total("ingest.load", "cells"),
        "ingest.load.cells_per_s": ratio(file_cells, busy("ingest.load")),
        "ingest.recode.busy_s": busy("ingest.recode"),
        "ingest.design.busy_s": busy("ingest.design"),
        "ingest.design.rows_dropped": total("ingest.design", "rows_dropped"),
        "metamodel.write.busy_s": busy("metamodel.write"),
        "metamodel.write.bytes": total("metamodel.write", "bytes"),
        "metamodel.write.mb_per_s": ratio(total("metamodel.write", "bytes") / 1e6,
                                          busy("metamodel.write")),
        "cli.self_s": self_time("cli"),
    }


def median_metrics(per_call: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(m[name] for m in per_call) for name in per_call[0]}
