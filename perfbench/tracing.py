"""Runtime tracing of the gigagap package, installed from outside it.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that times each call (a span) and, where a counter is
defined below, takes a work count from the call's arguments or result.
A span's parent is the enclosing span of the same thread; spans in pool
threads have none. References that other package modules imported by
name are replaced too, so calls between modules are seen.
``uninstall`` puts the originals back. Each thread sums its spans per
function name as they end: calls, time, self time and work. A span's
self time is its duration minus that of its direct child spans, which
run in its own thread one after another. ``layer_metrics`` turns the
sums into the per-layer figures the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time

PACKAGE = "gigagap"
MODULES = ("dataio", "geo", "coverage", "costs", "targets", "gap", "parallel", "cli")


def _dataset_rows(args, kwargs, result):
    dataset, _report = result
    if dataset is None:
        return 0
    return (len(dataset.regions) + len(dataset.localities) + len(dataset.countries)
            + len(dataset.enterprises) + len(dataset.coverage_intervals)
            + len(dataset.coverage_national) + len(dataset.cost_references)
            + len(dataset.price_index) + len(dataset.cohesion))


def _file_bytes(args, kwargs, result):
    paths = result if isinstance(result, list) else [result]
    return sum(os.path.getsize(p) for p in paths)


def _pooled_items(args, kwargs, result):
    """Items of an ordered_map call that ran on a pool, else None."""
    threads = args[2] if len(args) > 2 else kwargs.get("threads", 1)
    return len(result) if threads > 1 and len(result) > 1 else None


# Work counts taken at a function's boundary, by qualified name.
COUNTERS = {
    "dataio.validate_dataset": _dataset_rows,
    "dataio.write_reports": _file_bytes,
    "dataio.write_cost_table": _file_bytes,
    "dataio.write_coverage_points": _file_bytes,
    "geo.build_frame": lambda a, k, r: len(r.premises),
    "coverage.build_state": lambda a, k, r: len(r.entries),
    "targets.build_demands": lambda a, k, r: sum(len(v) for v in r.values()),
    "gap.gap_for_item": lambda a, k, r: len(r),
    "gap.run_scenario": lambda a, k, r: len(r.cells),
    "parallel.ordered_map": _pooled_items,
}


class Tracer:
    """Per-thread sums, keyed by function name, of every finished span."""

    def __init__(self):
        self._local = threading.local()
        self._sums: list[dict[str, list]] = []  # one dict per thread
        self._patched: list[tuple[object, str, object]] = []

    def _thread_sums(self) -> dict[str, list]:
        sums = getattr(self._local, "sums", None)
        if sums is None:
            sums = self._local.sums = {}
            self._local.stack = []
            self._sums.append(sums)  # list.append is atomic
        return sums

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        local, thread_sums = self._local, self._thread_sums
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sums = thread_sums()
            stack = local.stack
            frame = [0.0]  # time spent in direct child spans
            stack.append(frame)
            start = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                # calls, time, self time, summed work, time of counted calls
                row = sums.get(name)
                if row is None:
                    row = sums[name] = [0, 0.0, 0.0, 0, 0.0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[0]
            count = counter(args, kwargs, return_value) if counter else None
            if count is not None:
                row[3] += count
                row[4] += duration
            return return_value

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        replace = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    replace[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    setattr(mod, attr, replace[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Summed time and work per layer over every recorded span."""
        total: dict[str, list] = {}
        for sums in self._sums:
            for name, row in sums.items():
                acc = total.setdefault(name, [0, 0.0, 0.0, 0, 0.0])
                for i, v in enumerate(row):
                    acc[i] += v

        def get(name: str, field: int):
            return total[name][field] if name in total else 0

        calls, dur, self_dur, work, counted_dur = range(5)
        return {
            "dataio.load_s": get("dataio.validate_dataset", dur),
            "dataio.rows_parsed": get("dataio.validate_dataset", work),
            "dataio.write_s": sum(get(n, dur) for n in _WRITERS),
            "dataio.bytes_written": sum(get(n, work) for n in _WRITERS),
            "geo.build_frame_s": get("geo.build_frame", dur),
            "geo.frame_cells": get("geo.build_frame", work),
            "coverage.build_state_s": get("coverage.build_state", dur),
            "coverage.reconcile_s": get("coverage.disaggregate_regions", dur),
            "coverage.reconciliations": get("coverage.disaggregate_regions", calls),
            "coverage.state_entries": get("coverage.build_state", work),
            "costs.build_cost_table_s": get("costs.build_cost_table", dur),
            "targets.build_demands_s": get("targets.build_demands", dur),
            "targets.demand_items": get("targets.build_demands", work),
            "gap.prepare_inputs_s": get("gap.prepare_inputs", dur),
            "gap.pricing_s": get("gap.gap_for_item", dur),
            "gap.items_priced": get("gap.gap_for_item", calls),
            "gap.cells": get("gap.run_scenario", work),
            "gap.netting_s": get("gap.subtract_operator_investment", dur),
            "gap.run_scenario_self_s": get("gap.run_scenario", self_dur),
            # Only ordered_map calls that ran on a pool carry a count.
            "parallel.ordered_map_s": get("parallel.ordered_map", counted_dur),
            "parallel.items": get("parallel.ordered_map", work),
        }


# Per-layer metric -> unit.
LAYER_UNITS = {
    "dataio.load_s": "s", "dataio.rows_parsed": "rows",
    "dataio.write_s": "s", "dataio.bytes_written": "bytes",
    "geo.build_frame_s": "s", "geo.frame_cells": "cells",
    "coverage.build_state_s": "s", "coverage.reconcile_s": "s",
    "coverage.reconciliations": "count", "coverage.state_entries": "count",
    "costs.build_cost_table_s": "s",
    "targets.build_demands_s": "s", "targets.demand_items": "items",
    "gap.prepare_inputs_s": "s",
    "gap.pricing_s": "s", "gap.items_priced": "items", "gap.cells": "cells",
    "gap.netting_s": "s", "gap.run_scenario_self_s": "s",
    "parallel.ordered_map_s": "s", "parallel.items": "items",
}
_WRITERS = ("dataio.write_reports", "dataio.write_cost_table", "dataio.write_coverage_points")
