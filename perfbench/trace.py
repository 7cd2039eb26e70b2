"""Spans and counters around calls into each cdlsem layer.

The tracer replaces the public functions of each layer, in every cdlsem
module namespace that holds them, by wrappers that record a span: name,
start, end, parent span and command id.  ``cdlsem.cli`` and
``cdlsem.sat`` look these names up as module globals at call time, so
the SAT calls made inside the analyses are counted too.  Nothing under
``src/`` changes.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import Counter

# layer -> public functions the CLI reaches, directly or through sat/prop
TRACED = {
    "parser": ("parse_model",),
    "model": ("normalize_model", "check_well_formed", "model_to_json",
              "model_to_pretty"),
    "prop": ("build_formula", "formula_to_text", "load_prop_config",
             "validate_prop", "enumerate_prop_configs"),
    "sat": ("to_cnf", "export_dimacs", "solve", "dead_features",
            "core_features", "implication_graph"),
    "semantics": ("load_configuration", "validate_configuration",
                  "enumerate_configurations"),
}
COMMAND_SPAN = "cli"

# counters: metric -> unit
COUNTS = {
    "parser.source_bytes": "bytes",
    "parser.raw_nodes": "count",
    "model.nodes": "count",
    "model.universe": "count",
    "prop.constraints": "count",
    "prop.valuations": "count",
    "sat.cnf_vars": "count",
    "sat.cnf_aux_vars": "count",
    "sat.cnf_clauses": "count",
    "sat.solve_calls": "count",
    "sat.solve_unsat_ratio": "ratio",
    "semantics.candidates": "count",
}


def _count_parse(c, args, result):
    c["parser.source_bytes"] += len(args[0].encode("utf-8"))
    c["parser.raw_nodes"] += len(result[0])


def _count_model(c, args, m):
    c["model.nodes"] += len(m)
    c["model.universe"] += len(m.ids() | m.referenced_ids())


def _count_cnf(c, args, cnf):
    c["sat.cnf_vars"] += cnf.num_vars
    c["sat.cnf_aux_vars"] += cnf.num_vars - len(cnf.feature_names())
    c["sat.cnf_clauses"] += len(cnf.clauses)


def _count_candidates(c, args, result):
    m, domain = args[0], args[1]
    width = 4 * len(dict.fromkeys(domain))
    loaded = m.ids()
    c["semantics.candidates"] += math.prod(
        width if x in loaded else 4 for x in m.universe()
    )


_COUNTERS = {
    "parser.parse_model": _count_parse,
    "model.normalize_model": _count_model,
    "prop.build_formula":
        lambda c, args, f: c.update({"prop.constraints": len(f.constraints)}),
    "prop.enumerate_prop_configs":
        lambda c, args, r: c.update({"prop.valuations": 2 ** len(args[0].universe())}),
    "sat.to_cnf": _count_cnf,
    "sat.solve": lambda c, args, r: c.update({"sat.unsat": int(not r.sat)}),
    "semantics.enumerate_configurations": _count_candidates,
}


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, command id, seconds excluded]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.command: int | None = None
        self.counts: Counter = Counter()
        self.patched: list[tuple[object, str, object]] = []

    # --- spans

    def open(self, name: str) -> list:
        span = [name, time.perf_counter(), None,
                self.stack[-1] if self.stack else None, self.command, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()

    def exclude(self, seconds: float) -> None:
        """Leave out time the benchmark itself spent inside the open spans."""
        for i in self.stack:
            self.spans[i][5] += seconds

    def begin_command(self, command_id: int) -> list:
        self.command = command_id
        return self.open(COMMAND_SPAN)

    def end_command(self, span: list) -> None:
        self.close(span)
        self.command = None

    def _wrap(self, name: str, fn):
        count = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            if self.command is None:  # output checks are not traced
                return fn(*args, **kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    # --- installing the wrappers

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("cdlsem")]
        for layer, names in TRACED.items():
            mod = importlib.import_module(f"cdlsem.{layer}")
            for fname in names:
                orig = getattr(mod, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for m in modules:
                    for attr, obj in list(vars(m).items()):
                        if obj is orig:
                            setattr(m, attr, wrapper)
                            self.patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in self.patched:
            setattr(m, attr, orig)
        self.patched.clear()

    # --- results

    def self_times(self, scale: list[float]) -> dict[str, float]:
        """Per span name: summed duration minus the time of direct children.

        Each span is scaled by its command's factor (see run.Clock).
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, excluded in self.spans:
            if parent is not None:
                child[parent] += end - start - excluded
        out: dict[str, float] = {}
        for (name, start, end, _, cmd, excluded), inner in zip(self.spans, child):
            own = end - start - excluded - inner
            out[name] = out.get(name, 0.0) + own * scale[cmd]
        return out

    def metrics(self, scale: list[float]) -> dict[str, dict]:
        selfs = self.self_times(scale)
        out = {
            f"{layer}.{fname}_s": {"value": selfs.get(f"{layer}.{fname}", 0.0), "unit": "s"}
            for layer, names in TRACED.items() for fname in names
        }
        out["cli.self_s"] = {"value": selfs.get(COMMAND_SPAN, 0.0), "unit": "s"}
        counts = Counter(self.counts)
        counts["sat.solve_calls"] = sum(1 for s in self.spans if s[0] == "sat.solve")
        counts["sat.solve_unsat_ratio"] = (
            counts["sat.unsat"] / counts["sat.solve_calls"]
            if counts["sat.solve_calls"] else 0.0
        )
        out.update({k: {"value": counts[k], "unit": u} for k, u in COUNTS.items()})
        return out
