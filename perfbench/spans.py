"""Spans recorded around calls into the program's public functions.

The tracer replaces each target function with a wrapper in every ``ddcident``
module that holds it, including the names other modules import (for example
``ddc.faddeev_adj_det`` and ``identify.sign_region``).  Spans are kept in
memory as ``[name, start, end, parent]`` and written when the run ends.  A
layer's self time is its span time minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

MODULES = ("ddcident", "ddcident.betapoly", "ddcident.ddc", "ddcident.identify",
           "ddcident.restrictions", "ddcident.games", "ddcident.scenarios", "ddcident.cli")

# (home module, function): each becomes a span named "<module>.<function>"
TARGETS = (
    ("cli", "main"),
    ("scenarios", "build_entry_model"),
    ("scenarios", "build_entry_model_fd"),
    ("scenarios", "build_entry_game"),
    ("restrictions", "additive_homogeneous"),
    ("restrictions", "zero_cross_difference"),
    ("restrictions", "monotonicity"),
    ("restrictions", "concavity"),
    ("restrictions", "complementarity"),
    ("restrictions", "linear_in_parameters"),
    ("ddc", "solve_bellman"),
    ("ddc", "master_system"),
    ("betapoly", "faddeev_adj_det"),
    ("betapoly", "roots_in_interval"),
    ("betapoly", "sign_region"),
    ("identify", "equality_identified_set"),
    ("identify", "inequality_region"),
    ("identify", "finite_restriction_poly"),
    ("identify", "solve_log_diff"),
    ("games", "solve_mpe"),
    ("games", "build_system"),
    ("games", "identified_set_game"),
    ("games", "inequality_region_game"),
)

# per-layer metric -> the spans whose self time it sums
LAYER_SPANS = {
    "cli.main_s": ("cli.main",),
    "scenarios.build_s": ("scenarios.build_entry_model", "scenarios.build_entry_model_fd",
                          "scenarios.build_entry_game"),
    "restrictions.build_s": tuple(f"restrictions.{f}" for m, f in TARGETS if m == "restrictions"),
}
for _m, _f in TARGETS:
    if _m not in ("cli", "scenarios", "restrictions"):
        LAYER_SPANS[f"{_m}.{_f}_s"] = (f"{_m}.{_f}",)


def _mb(arr) -> float:
    return arr.nbytes / 2 ** 20


# span name -> (count metric, amount taken from the call's result)
RESULT_COUNTS = {
    "ddc.solve_bellman": ("ddc.solve_bellman.iters", lambda r: len(r.residual_path)),
    "games.solve_mpe": ("games.solve_mpe.sweeps", lambda r: r.n_iter),
    # coefficient stacks computed from array shapes: the J x J x J adjugate
    # and the (J+1)-deep stacked system matrix
    "betapoly.faddeev_adj_det": ("betapoly.coeff_stack_mb", lambda r: _mb(r[0].coeff_mats)),
    "ddc.master_system": ("betapoly.coeff_stack_mb", lambda r: _mb(r.m.coeff_mats)),
}
CALL_COUNTS = ("betapoly.roots_in_interval", "betapoly.sign_region")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if name in RESULT_COUNTS:
                key, amount = RESULT_COUNTS[name]
                self.counts[key] += amount(result)
            if name in CALL_COUNTS:
                self.counts[f"{name}.calls"] += 1
            return result
        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def install(self):
        mods = [importlib.import_module(m) for m in MODULES]
        for home, fname in TARGETS:
            fn = getattr(importlib.import_module(f"ddcident.{home}"), fname)
            wrapper = self._wrap(f"{home}.{fname}", fn)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def self_times(self) -> dict:
        """Self time summed per span name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for (name, t0, t1, _), c in zip(self.spans, child):
            out[name] += (t1 - t0) - c
        return dict(out)

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-operation self time of each layer metric and per-operation counts."""
        st = self.self_times()
        out = {k: sum(st.get(s, 0.0) for s in spans) / n_ops for k, spans in LAYER_SPANS.items()}
        for key in {k for k, _ in RESULT_COUNTS.values()} | {f"{c}.calls" for c in CALL_COUNTS}:
            out[key] = self.counts.get(key, 0.0) / n_ops
        return out

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
