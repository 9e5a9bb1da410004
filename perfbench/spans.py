"""Spans around every call into the six package layers, recorded from outside.

``Tracer.install`` replaces each public function of ``gas``, ``nozzle``,
``solver``, ``fields``, ``continuation`` and ``cli`` under every name it
is reachable by (the defining module, each module that imported it, and
the package), and patches the public methods of ``GasModel``,
``NozzleProfile`` and ``MappedGrid`` (with ``MappedGrid.__init__``, which
counts grids) on their classes.  ``uninstall`` puts the originals back,
so untraced passes run the unmodified program.

A span records its name, layer, start, end, parent span and answer id,
plus counts taken at the boundary.  Spans stay in memory until the run
writes them out.  A span's self time is its duration minus that of its
direct children, so a layer's self time excludes the layers it calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("gas", "nozzle", "solver", "fields", "continuation", "cli")
_CLASSES = (("gas", "GasModel"), ("nozzle", "NozzleProfile"), ("nozzle", "MappedGrid"))
_ASSEMBLY = ("solver.assemble_energy", "solver.assemble_gradient", "solver.assemble_hessian")
_WRITERS = ("cli.write_field_csv", "cli.write_sweep_csv", "cli.write_report")
EMPTY_COUNTS = {"solves": 0, "iters": 0, "cell_iters": 0, "driven_solves": 0,
                "driven_iters": 0, "probes": 0, "chain_solves": 0, "chain_iters": 0}


class Span:
    __slots__ = ("name", "layer", "parent", "answer", "start", "end", "counts")

    def __init__(self, name, layer, parent, answer):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.answer = answer
        self.start = self.end = 0.0
        self.counts = None

    def as_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "layer": self.layer, "parent": self.parent,
                "answer": self.answer, "start": self.start, "end": self.end,
                "counts": self.counts}


def _argument(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs.get(name)


def _count_gas_points(tracer, span, args, kwargs, result):
    """Values evaluated, counted at the outermost gas call only."""
    if span.parent < 0 or tracer.spans[span.parent].layer != "gas":
        if len(args) > 1:
            span.counts = {"points": int(np.size(args[1]))}


def _count_newton(tracer, span, args, kwargs, result):
    grid = _argument(args, kwargs, 0, "grid")
    span.counts = {"iters": int(result.iterations), "cells": int(grid.nx * grid.nr)}


def _count_bytes(tracer, span, args, kwargs, result):
    span.counts = {"bytes": os.path.getsize(_argument(args, kwargs, 0, "path"))}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.answer = None          # id of the answer being computed
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # ------------------------------------------------------------ patching

    def _wrap(self, layer, name, fn, counter):
        tracer = self
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else -1, tracer.answer)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if counter is not None:
                counter(tracer, span, args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Put the wrappers in place; the first call decides what to wrap."""
        if not self._patches:
            self._patches = self._plan(package)
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def _plan(self, package) -> list:
        """(owner, attribute, original, wrapper) for every name to patch."""
        prefix = package.__name__ + "."
        modules = [package] + [importlib.import_module(prefix + layer) for layer in LAYERS]
        patches, wrappers = [], {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.removeprefix(prefix)
                if layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    name = f"{layer}.{obj.__name__}"
                    counter = _count_newton if name == "solver.newton_solve" else (
                        _count_bytes if name in _WRITERS else None)
                    wrappers[obj] = self._wrap(layer, name, obj, counter)
                patches.append((module, attr, obj, wrappers[obj]))
        for layer, cls_name in _CLASSES:
            cls = getattr(importlib.import_module(prefix + layer), cls_name)
            for attr, obj in list(vars(cls).items()):
                if not inspect.isfunction(obj):
                    continue
                if attr.startswith("_") and not (cls_name == "MappedGrid" and attr == "__init__"):
                    continue
                counter = _count_gas_points if layer == "gas" else None
                wrapper = self._wrap(layer, f"{layer}.{cls_name}.{attr}", obj, counter)
                patches.append((cls, attr, obj, wrapper))
        return patches

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # ------------------------------------------------------------ output

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps(span.as_dict(index)) + "\n")

    def answer_counts(self) -> dict:
        """Newton solves and iterations per answer id.

        ``driven_*`` count the solves made inside any continuation function,
        ``probes`` those of find_critical_flux and ``chain_*`` those of
        shrink_delta; ``cell_iters`` sums grid cells times iterations.
        """
        out = defaultdict(lambda: dict(EMPTY_COUNTS))
        for index, span in enumerate(self.spans):
            if span.name != "solver.newton_solve" or span.counts is None:
                continue
            counts = out[span.answer]
            counts["solves"] += 1
            counts["iters"] += span.counts["iters"]
            counts["cell_iters"] += span.counts["cells"] * span.counts["iters"]
            caller = self._enclosing_continuation(index)
            if caller is not None:
                counts["driven_solves"] += 1
                counts["driven_iters"] += span.counts["iters"]
            if caller == "continuation.find_critical_flux":
                counts["probes"] += 1
            elif caller == "continuation.shrink_delta":
                counts["chain_solves"] += 1
                counts["chain_iters"] += span.counts["iters"]
        return dict(out)

    def _enclosing_continuation(self, index: int):
        """Name of the nearest enclosing continuation span, or None."""
        parent = self.spans[index].parent
        while parent >= 0:
            span = self.spans[parent]
            if span.layer == "continuation":
                return span.name
            parent = span.parent
        return None

    def layer_metrics(self, answers: int) -> dict:
        """Per-layer metrics; times and counts are per answer."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        self_time = defaultdict(float)      # by span name
        layer_self = defaultdict(float)     # by layer
        calls = defaultdict(int)            # by span name
        outermost = defaultdict(int)        # by layer, spans whose parent is another layer
        points = written = 0
        for index, span in enumerate(spans):
            own = span.end - span.start - child_time[index]
            self_time[span.name] += own
            layer_self[span.layer] += own
            calls[span.name] += 1
            if span.parent < 0 or spans[span.parent].layer != span.layer:
                outermost[span.layer] += 1
            counts = span.counts or {}
            points += counts.get("points", 0)
            written += counts.get("bytes", 0)
        newton = Counter()
        for counts in self.answer_counts().values():
            newton.update(counts)
        iters, cell_iters = newton["iters"], newton["cell_iters"]
        driven = newton["driven_solves"]
        per = 1.0 / max(answers, 1)
        assemble = sum(self_time[name] for name in _ASSEMBLY)
        linear = self_time["solver.newton_solve"]
        write = sum(self_time[name] for name in _WRITERS)
        energy_evals = calls["solver.assemble_energy"]
        return {
            "gas.self_s": layer_self["gas"] * per,
            "gas.points": points * per,
            "gas.ns_per_point": 1e9 * layer_self["gas"] / points if points else 0.0,
            "gas.points_per_cell_iter": points / cell_iters if cell_iters else 0.0,
            "solver.newton_solves": newton["solves"] * per,
            "solver.newton_iters": iters * per,
            "solver.energy_evals": energy_evals * per,
            "solver.energy_evals_per_iter": energy_evals / iters if iters else 0.0,
            "solver.assemble_s": assemble * per,
            "solver.linear_s": linear * per,
            "solver.linear_s_per_iter": linear / iters if iters else 0.0,
            "continuation.probes": newton["probes"] * per,
            "continuation.solves_per_answer": driven * per,
            "continuation.iters_per_solve": newton["driven_iters"] / driven if driven else 0.0,
            "continuation.self_s": layer_self["continuation"] * per,
            "fields.calls": outermost["fields"] * per,
            "fields.self_s": layer_self["fields"] * per,
            "nozzle.grids_built": calls["nozzle.MappedGrid.__init__"] * per,
            "nozzle.self_s": layer_self["nozzle"] * per,
            "cli.parse_s": (self_time["cli.main"] + self_time["cli.parse_config"]) * per,
            "cli.write_s": write * per,
            "cli.bytes_written": written * per,
            "cli.write_mb_per_s": written / 1e6 / write if write else 0.0,
            "trace.spans": len(spans) * per,
        }
