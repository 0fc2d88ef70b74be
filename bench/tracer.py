"""Spans around nilmult's public functions, recorded from the benchmark's code.

`install` replaces each traced function in every nilmult module that looks it
up by name (so `multiplier.free_nilpotent` and `verify.series` are wrapped
as well as `freelie.free_nilpotent` and `fdlie.series`), and each traced
method on its class.  A span is `[id, parent, name, start, end, note, rollup]`;
spans stay in memory and the child process writes them out when it ends.

The hot leaves `Subspace.reduce` and `LieAlgebra.bracket_vectors` (hundreds
of thousands of calls per run) get no span of their own: each call adds one
to a count and its duration to a sum in the enclosing span's `rollup`, under
the leaf's name.  The bookkeeping that reads result sizes is rolled up the
same way under `bench.note`.

`LayerTotals` runs in the benchmark process and turns the spans of many
child processes into the per-layer metrics.  "Self" time is a span's
duration minus its direct children's spans and rollups.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, what to note about the result)
TARGETS = [
    ("freelie", "free_nilpotent", "ambient"),
    ("freelie", "span_bracket_rows", None),
    ("multiplier", "present", "presentation"),
    ("multiplier", "subideal_bracket", "closure"),
    ("multiplier", "nilpotent_multiplier", "result"),
    ("multiplier", "z_star", "result"),
    ("multiplier", "report", None),
    ("exactlin", "Subspace.reduce", "leaf"),
    ("exactlin", "Subspace.quotient_dim", None),
    ("exactlin", "Subspace.intersect", None),
    ("exactlin", "Subspace.intersect_suffix", "rank"),
    ("fdlie", "LieAlgebra.bracket_vectors", "leaf"),
    ("fdlie", "loads", None),
    ("fdlie", "series", None),
    ("fdlie", "quotient", None),
    ("fdlie", "upper_centrals", None),
    ("verify", "run_cases", "cases"),
    ("cli", "main", None),
]

# per-layer metrics in report order, with units
PER_LAYER = [
    ("freelie.build_s", "s"),
    ("freelie.builds", "count"),
    ("freelie.ambient_dim_max", "count"),
    ("freelie.span_bracket_s", "s"),
    ("multiplier.present_s", "s"),
    ("multiplier.present_calls", "count"),
    ("multiplier.present_reused", "count"),
    ("multiplier.subideal_bracket_d1_s", "s"),
    ("multiplier.subideal_bracket_d2_s", "s"),
    ("multiplier.zstar_s", "s"),
    ("multiplier.result_calls", "count"),
    ("multiplier.result_reused", "count"),
    ("multiplier.relations_rank_sum", "count"),
    ("multiplier.closure_rank_sum", "count"),
    ("multiplier.numerator_rank_sum", "count"),
    ("multiplier.coeff_bits_max", "bits"),
    ("exactlin.reduce_calls", "count"),
    ("exactlin.reduce_s", "s"),
    ("exactlin.quotient_dim_s", "s"),
    ("exactlin.intersect_s", "s"),
    ("fdlie.bracket_vectors_calls", "count"),
    ("fdlie.bracket_vectors_s", "s"),
    ("fdlie.loads_s", "s"),
    ("fdlie.series_s", "s"),
    ("fdlie.quotient_s", "s"),
    ("fdlie.upper_centrals_s", "s"),
    ("verify.run_cases_s", "s"),
    ("verify.cases", "count"),
    ("cli.startup_s", "s"),
    ("cli.main_s", "s"),
    ("memory.retained_mb", "MB"),
]

NOTE_SPAN = "bench.note"


def _coeff_bits(subspace) -> int:
    return max((abs(v).bit_length() for row in subspace.integer_rows() for v in row.values()), default=0)


class Tracer:
    """In-memory span recorder for one process, under one `bench.process` span."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._seen: dict[str, dict[int, object]] = defaultdict(dict)
        self._root = self._open("bench.process")

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, name, 0.0, 0.0, None, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[3] = time.perf_counter()
        return rec

    def _close(self, rec: list):
        rec[4] = time.perf_counter()
        self._stack.pop()

    def _roll(self, name: str, seconds: float):
        rec = self.spans[self._stack[-1]]
        if rec[6] is None:
            rec[6] = {}
        entry = rec[6].setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    def finish(self) -> list[list]:
        """Close the process span and return every span."""
        self._close(self._root)
        return self.spans

    def call(self, name: str, fn):
        """Run fn() inside a span of the benchmark's own (set-up, one op)."""
        rec = self._open(name)
        try:
            return fn()
        finally:
            self._close(rec)

    def _reused(self, kind: str, obj) -> bool:
        seen = self._seen[kind]
        if id(obj) in seen:
            return True
        seen[id(obj)] = obj  # keep it alive so its id is not recycled
        return False

    def _note(self, kind: str, args, kwargs, result):
        if kind == "ambient":
            return {"built": not self._reused(kind, result), "dim": result.dim}
        if kind == "presentation":
            if self._reused(kind, result):
                return {"reused": True}
            return {"reused": False, "rank": result.relations.rank, "bits": _coeff_bits(result.relations)}
        if kind == "closure":
            depth = args[2] if len(args) > 2 else kwargs["depth"]
            return {"depth": depth, "rank": result.rank, "bits": _coeff_bits(result)}
        if kind == "result":
            return {"reused": self._reused(kind, result)}
        if kind == "rank":
            return {"rank": result.rank}
        if kind == "cases":
            return {"cases": len(result)}
        raise ValueError(f"unknown note kind {kind!r}")

    def wrap(self, name: str, fn, note: str | None):
        clock = time.perf_counter
        if note == "leaf":
            def traced(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._roll(name, clock() - t0)
        else:
            def traced(*args, **kwargs):
                rec = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(rec)
                if note is not None:
                    # rolled up into the caller, so the caller's self time excludes it
                    t0 = clock()
                    rec[5] = self._note(note, args, kwargs, result)
                    self._roll(NOTE_SPAN, clock() - t0)
                return result

        return traced


def install(tracer: Tracer):
    """Wrap every target in every loaded nilmult module that refers to it."""
    modules = [m for name, m in sorted(sys.modules.items()) if name == "nilmult" or name.startswith("nilmult.")]
    for module_name, attr, note in TARGETS:
        owner = sys.modules[f"nilmult.{module_name}"]
        name = f"{module_name}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), note))
            continue
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, note)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


class LayerTotals:
    """Per-layer metrics summed over the spans of many processes."""

    def __init__(self):
        self.values = {name: 0 for name, _ in PER_LAYER}

    def add_process(self, spans: list[list], wall: float | None = None):
        v = self.values
        child = [0.0] * len(spans)
        for sid, parent, name, t0, t1, note, rollup in spans:
            if parent >= 0:
                child[parent] += t1 - t0
            for calls, seconds in (rollup or {}).values():
                child[sid] += seconds
        main_s = 0.0
        for sid, parent, name, t0, t1, note, rollup in spans:
            dur = t1 - t0
            own = dur - child[sid]
            note = note or {}
            for leaf, (calls, seconds) in (rollup or {}).items():
                if leaf == "exactlin.Subspace.reduce":
                    v["exactlin.reduce_calls"] += calls
                    v["exactlin.reduce_s"] += seconds
                elif leaf == "fdlie.LieAlgebra.bracket_vectors":
                    v["fdlie.bracket_vectors_calls"] += calls
                    v["fdlie.bracket_vectors_s"] += seconds
            if name == "freelie.free_nilpotent":
                if note["built"]:
                    v["freelie.build_s"] += own
                    v["freelie.builds"] += 1
                v["freelie.ambient_dim_max"] = max(v["freelie.ambient_dim_max"], note["dim"])
            elif name == "freelie.span_bracket_rows":
                v["freelie.span_bracket_s"] += dur
            elif name == "multiplier.present":
                v["multiplier.present_s"] += own
                v["multiplier.present_calls"] += 1
                if note["reused"]:
                    v["multiplier.present_reused"] += 1
                else:
                    v["multiplier.relations_rank_sum"] += note["rank"]
                    v["multiplier.coeff_bits_max"] = max(v["multiplier.coeff_bits_max"], note["bits"])
            elif name == "multiplier.subideal_bracket":
                if note["depth"] in (1, 2):
                    v[f"multiplier.subideal_bracket_d{note['depth']}_s"] += dur
                v["multiplier.closure_rank_sum"] += note["rank"]
                v["multiplier.coeff_bits_max"] = max(v["multiplier.coeff_bits_max"], note["bits"])
            elif name in ("multiplier.nilpotent_multiplier", "multiplier.z_star"):
                if name == "multiplier.z_star":
                    v["multiplier.zstar_s"] += own
                v["multiplier.result_calls"] += 1
                v["multiplier.result_reused"] += note["reused"]
            elif name == "exactlin.Subspace.intersect_suffix":
                if parent >= 0 and spans[parent][2] == "multiplier.nilpotent_multiplier":
                    v["multiplier.numerator_rank_sum"] += note["rank"]
            elif name == "exactlin.Subspace.quotient_dim":
                v["exactlin.quotient_dim_s"] += dur
            elif name == "exactlin.Subspace.intersect":
                v["exactlin.intersect_s"] += dur
            elif name in ("fdlie.loads", "fdlie.series", "fdlie.quotient", "fdlie.upper_centrals"):
                v[f"{name}_s"] += dur
            elif name == "verify.run_cases":
                v["verify.run_cases_s"] += dur
                v["verify.cases"] += note["cases"]
            elif name == "cli.main":
                main_s += dur
        v["cli.main_s"] += main_s
        if wall is not None and main_s:
            v["cli.startup_s"] += wall - main_s

    def metrics(self, retained_mb: float) -> dict:
        self.values["memory.retained_mb"] = retained_mb
        return {name: {"value": self.values[name], "unit": unit} for name, unit in PER_LAYER}
