"""Span tracer for the traced run.

The tracer wraps public functions and methods of the ``hforge`` modules
from outside, by replacing the names the program looks up at call time.
Each wrapped call records a span (name, start, end, parent span) in
memory; a few very hot calls are only counted.  Spans are written out
when the round ends, and every per-layer number is derived from them.

Pool workers started with ``fork`` inherit the wrapped names.  A worker
notices that it is not the process that installed the tracer, starts an
empty span list of its own and appends its spans to a file after every
catalog cell, which the round merges when the sweep is over.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import Counter
from pathlib import Path

# (module, attribute, span name).  A module-level name is replaced in the
# module that calls it, because ``from x import f`` copies the binding.
FUNCTION_SPANS = [
    ("hforge.catalog", "binom_factor", "catalog.binom_factor"),
    ("hforge.catalog", "psi_factor", "catalog.psi_factor"),
    ("hforge.catalog", "psi1_factor", "catalog.psi1_factor"),
    ("hforge.dsl.evaluator", "binom_factor", "catalog.binom_factor"),
    ("hforge.dsl.evaluator", "psi_factor", "catalog.psi_factor"),
    ("hforge.dsl.evaluator", "psi1_factor", "catalog.psi1_factor"),
    ("hforge.catalog", "psi_diff", "special.psi_diff"),
    ("hforge.catalog", "psi1_diff", "special.psi1_diff"),
    ("hforge.catalog", "binom_shift", "special.binom_shift"),
    ("hforge.exact", "poly_gcd", "exact.poly_gcd"),
    ("hforge.catalog", "bifrac_eq", "catalog.compare"),
    ("hforge.catalog", "_run_cell", "catalog.cell"),
    ("hforge.cli", "verify", "catalog.verify"),
    ("hforge.dsl.evaluator", "eval", "dsl.eval"),
]

METHOD_SPANS = [
    ("hforge.bivar", "FactoredFrac", ("__add__", "__radd__"), "bivar.ff_add"),
    ("hforge.bivar", "FactoredFrac", ("__mul__", "__rmul__"), "bivar.ff_mul"),
    ("hforge.bivar", "FactoredFrac", ("to_bifrac",), "bivar.to_bifrac"),
    ("hforge.bivar", "BiPoly", ("__mul__", "__rmul__"), "bivar.bipoly_mul"),
    ("hforge.bivar", "BiFrac", ("__eq__",), "bivar.bifrac_eq"),
    ("hforge.report", "Report", ("to_json",), "report.render"),
]

# Harmonic-number lookups, counted at every call site outside ``special``.
HARMONIC_SITES = [
    ("hforge.catalog", ("_H", "harmonic", "harmonic_gen")),
    ("hforge.oracle", ("_H", "harmonic", "harmonic_gen")),
    ("hforge.dsl.evaluator", ("harmonic", "harmonic_gen")),
]

FACTOR_BUILDERS = ("catalog.binom_factor", "catalog.psi_factor", "catalog.psi1_factor")
LAYERS = ("catalog", "special", "exact", "bivar", "oracle", "dsl", "report", "cli")


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = spill_dir
        self.owner = os.getpid()
        self.active = True
        self._fresh()

    def _fresh(self):
        self.pid = os.getpid()
        self.spans: list = []  # [name, start_ns, end_ns, parent, pid]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.factor_args: set = set()
        self.sizes: dict[str, int] = {}

    def _own(self):
        if self.pid != os.getpid():
            self._fresh()

    # -- recording ---------------------------------------------------------

    def span(self, span_name: str, fn, /, *args, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        self._own()
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        record = [span_name, 0, 0, parent, self.pid]
        self.spans.append(record)
        self.stack.append(idx)
        record[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter_ns()
            self.stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in FACTOR_BUILDERS and self.active:
                self._own()
                self.factor_args.add((name, *args))
            return self.span(name, fn, *args, **kwargs)

        return traced

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            if self.active:
                self._own()
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def note_size(self, key: str, value: int):
        if value > self.sizes.get(key, 0):
            self.sizes[key] = value

    # -- installation ------------------------------------------------------

    def install(self):
        for mod_name, attr, name in FUNCTION_SPANS:
            mod = importlib.import_module(mod_name)
            if attr == "_run_cell":
                setattr(mod, attr, self._cell_wrapper(getattr(mod, attr)))
            else:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        for mod_name, cls_name, methods, name in METHOD_SPANS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            original = getattr(cls, methods[0])
            wrapped = self.wrap(name, original)
            if methods[0] == "to_bifrac":
                wrapped = self._sizing(wrapped)
            for m in methods:
                setattr(cls, m, wrapped)
        bivar = importlib.import_module("hforge.bivar")
        bivar.BiPoly.__eq__ = self.counted("bivar.bipoly_eq_calls", bivar.BiPoly.__eq__)
        for mod_name, attrs in HARMONIC_SITES:
            mod = importlib.import_module(mod_name)
            for attr in attrs:
                if hasattr(mod, attr):
                    setattr(mod, attr, self.counted("special.harmonic_calls", getattr(mod, attr)))
        catalog = importlib.import_module("hforge.catalog")
        catalog.ProcessPoolExecutor = self.counted(
            "catalog.pools_started", catalog.ProcessPoolExecutor
        )

    def _sizing(self, to_bifrac):
        """Record the size of each side as it is converted for comparison."""

        @functools.wraps(to_bifrac)
        def sized(ff):
            out = to_bifrac(ff)
            if not self.active:
                return out
            self.note_size("bivar.den_factors_max", len(ff.den))
            for poly in (out.num, out.den):
                terms = poly.terms
                self.note_size("bivar.side_terms_max", len(terms))
                if terms:
                    self.note_size("bivar.side_deg_x_max", max(k[0] for k in terms))
                    self.note_size("bivar.side_deg_s_max", max(k[1] for k in terms))
                    self.note_size(
                        "bivar.side_coeff_bits_max",
                        max(
                            c.numerator.bit_length() + c.denominator.bit_length()
                            for c in terms.values()
                        ),
                    )
            return out

        return sized

    def _cell_wrapper(self, run_cell):
        traced = self.wrap("catalog.cell", run_cell)

        @functools.wraps(run_cell)
        def cell(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            finally:
                if os.getpid() != self.owner and not self.stack:
                    self.spill()

        return cell

    # -- output --------------------------------------------------------------

    def state(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "factor_args": [list(a) for a in self.factor_args],
            "sizes": self.sizes,
        }

    def spill(self):
        """Append this worker's spans to its own file and start afresh."""
        path = self.spill_dir / f"worker-{os.getpid()}.jsonl"
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(self.state()) + "\n")
        self._fresh()

    def collect(self) -> dict:
        """Stop recording; own state merged with every worker's spilled state."""
        self.active = False
        merged = {"spans": [], "counts": Counter(), "factor_args": set(), "sizes": {}}
        parts = [self.state()]
        for path in sorted(self.spill_dir.glob("worker-*.jsonl")):
            with path.open(encoding="utf-8") as fh:
                parts.extend(json.loads(line) for line in fh)
        for part in parts:
            base = len(merged["spans"])
            for name, start, end, parent, pid in part["spans"]:
                merged["spans"].append(
                    [name, start, end, parent + base if parent >= 0 else -1, pid]
                )
            merged["counts"].update(part["counts"])
            merged["factor_args"].update(tuple(a) for a in part["factor_args"])
            for key, value in part["sizes"].items():
                merged["sizes"][key] = max(value, merged["sizes"].get(key, 0))
        return merged


def derive(merged: dict) -> dict:
    """Per-layer metrics from merged spans and counters."""
    spans = merged["spans"]
    n = len(spans)
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0] * n
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield spans[p][0]
            p = spans[p][3]

    inclusive: Counter = Counter()
    calls: Counter = Counter()
    self_by_layer: Counter = Counter()
    under_cell: Counter = Counter()
    under_dsl_check: Counter = Counter()
    for i, (name, _, _, _, _) in enumerate(spans):
        calls[name] += 1
        self_by_layer[name.split(".", 1)[0]] += dur[i] - child[i]
        above = list(ancestors(i))
        if name in above:
            continue  # counted once, at its outermost span
        inclusive[name] += dur[i]
        if "catalog.cell" in above:
            under_cell[name] += dur[i]
        if "dsl.check_identity" in above:
            under_dsl_check[name] += dur[i]

    def sec(ns):
        return ns / 1e9

    out = {}
    for builder in ("psi_factor", "psi1_factor", "binom_factor"):
        out[f"catalog.{builder}_s"] = sec(inclusive[f"catalog.{builder}"])
        out[f"catalog.{builder}_calls"] = calls[f"catalog.{builder}"]
    builder_calls = sum(calls[b] for b in FACTOR_BUILDERS)
    distinct = len(merged["factor_args"])
    out["catalog.factor_reuse_ratio"] = builder_calls / distinct if distinct else 0.0
    for fn in ("psi_diff", "psi1_diff", "binom_shift"):
        out[f"special.{fn}_s"] = sec(inclusive[f"special.{fn}"])
    out["special.harmonic_calls"] = merged["counts"].get("special.harmonic_calls", 0)
    out["exact.poly_gcd_calls"] = calls["exact.poly_gcd"]
    out["exact.poly_gcd_s"] = sec(inclusive["exact.poly_gcd"])
    for short in ("ff_add", "ff_mul", "bipoly_mul", "to_bifrac"):
        out[f"bivar.{short}_s"] = sec(inclusive[f"bivar.{short}"])
        out[f"bivar.{short}_calls"] = calls[f"bivar.{short}"]
    out["bivar.bipoly_eq_calls"] = merged["counts"].get("bivar.bipoly_eq_calls", 0)
    out["catalog.compare_s"] = sec(inclusive["catalog.compare"])
    cell_ns = inclusive["catalog.cell"]
    out["catalog.build_s"] = sec(
        max(0, cell_ns - under_cell["bivar.to_bifrac"] - under_cell["catalog.compare"])
    )
    for key in (
        "bivar.side_terms_max",
        "bivar.side_coeff_bits_max",
        "bivar.side_deg_s_max",
        "bivar.side_deg_x_max",
        "bivar.den_factors_max",
    ):
        out[key] = merged["sizes"].get(key, 0)
    out["catalog.pools_started"] = merged["counts"].get("catalog.pools_started", 0)
    out["report.render_s"] = sec(inclusive["report.render"])
    out["oracle.sampling_s"] = sec(inclusive["oracle.sampling"])
    out["oracle.integer_s_s"] = sec(inclusive["oracle.integer_s"])
    out["dsl.parse_s"] = sec(inclusive["dsl.parse"])
    out["dsl.check_s"] = sec(inclusive["dsl.check"])
    out["dsl.eval_s"] = sec(inclusive["dsl.eval"])
    out["dsl.eval_calls"] = calls["dsl.eval"]
    out["dsl.compare_s"] = sec(under_dsl_check["bivar.bifrac_eq"])
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sec(self_by_layer[layer])
    return out


def _noop():
    return None


def overhead(merged: dict, calls: int = 20000, repeats: int = 5) -> float:
    """Seconds the tracer added to a round: its spans and counted calls,
    each priced at what it adds to a call of a no-op in this process.

    The best of a few repeats is taken, so that a slow moment of the
    machine does not inflate the price.
    """
    probe = Tracer(Path("."))
    wrapped = probe.wrap("calibration", _noop)
    counting = probe.counted("calibration", _noop)

    def best(fn):
        times = []
        for _ in range(repeats):
            probe._fresh()
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter_ns() - t0)
        return min(times) / calls

    bare = best(_noop)
    per_span = max(0.0, best(wrapped) - bare)
    per_count = max(0.0, best(counting) - bare)
    counted = sum(merged["counts"].values())
    return (len(merged["spans"]) * per_span + counted * per_count) / 1e9


def write_spans(merged: dict, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"fields": ["name", "start_ns", "end_ns", "parent", "pid"], "spans": merged["spans"]}
    path.write_text(json.dumps(doc), encoding="utf-8")


def cell_stats(elapsed_ns: list[int]) -> dict:
    """Cell-time distribution from the elapsed times the report rows carry."""
    if not elapsed_ns:
        return {
            "catalog.cells": 0,
            "catalog.cell_p50_ms": 0.0,
            "catalog.cell_p95_ms": 0.0,
            "catalog.slowest_cell_s": 0.0,
        }
    ms = sorted(v / 1e6 for v in elapsed_ns)
    p95 = statistics.quantiles(ms, n=20)[-1] if len(ms) >= 2 else ms[0]
    return {
        "catalog.cells": len(ms),
        "catalog.cell_p50_ms": statistics.median(ms),
        "catalog.cell_p95_ms": p95,
        "catalog.slowest_cell_s": ms[-1] / 1e3,
    }
