"""Spans around the public functions of blscales, installed from outside.

`Tracer.install()` rebinds each traced function under every blscales module
attribute that refers to it, so calls the package makes internally (for
example `bl_functional` calling `integrate_function`, or `cli` calling
`solve_extremiser`) are traced as well.  `uninstall()` restores the
originals, so untraced runs execute the library unchanged.

A span is (name, start, end, parent, op id, counters).  Spans stay in memory
and are written once, at the end of a run.  Self time is a span's duration
minus the durations of its child spans; spans nest strictly because the
benchmark runs one thread.
"""
from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
from pathlib import Path

MODULES = (
    "blscales",
    "blscales.datum",
    "blscales.gaussians",
    "blscales.functional",
    "blscales.nonlinear",
    "blscales.scheduler",
    "blscales.mc",
    "blscales.cli",
)

# defining module -> public functions wrapped in a span
TRACED = {
    "blscales.functional": (
        "ball_inequality_check",
        "bl_functional",
        "convolve_inputs",
        "integrate_function",
        "auto_domain",
    ),
    "blscales.nonlinear": (
        "recursive_step_check",
        "localized_ratio",
        "is_kappa_constant",
        "lie_group_young",
        "base_case_check",
    ),
    "blscales.gaussians": ("solve_extremiser",),
    "blscales.datum": ("finiteness_check",),
    "blscales.scheduler": (
        "validate_params",
        "schedule",
        "accumulated_factor",
        "kappa_evolution",
        "final_bound",
    ),
    "blscales.mc": ("chunk_generator", "uniform_box", "uniform_ball"),
}

# functions whose (value, stderr) return is a monte-carlo estimate
ESTIMATES = ("bl_functional", "integrate_function", "localized_ratio")

# per-layer metrics, name -> unit, as BENCHMARK.json lists them; values are
# per traced op where the unit ends in /op
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
PER_LAYER = {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}


# per-op metrics whose span aggregate has another name: "<span>.s" is time in
# outermost spans of that name, "<layer>.s" in outermost spans of that layer,
# "<span>#<counter>", "<layer>#<counter>" and "#<counter>" sum counters
PER_OP_SOURCE = {
    "functional.convolve_inputs.cells": "functional.convolve_inputs#cells",
    "functional.sampled_eval_s": "functional.SampledFunction.__call__.s",
    "functional.sampled_eval.points": "functional.SampledFunction.__call__#points",
    "mc.samples": "mc#samples",
    "mc.draw_s": "mc.s",
    "mc.estimates": "#estimates",
    "nonlinear.is_kappa_constant.samples": "nonlinear.is_kappa_constant#samples",
    "nonlinear.integrand_evals": "#integrand_evals",
    "gaussians.iterations": "gaussians#iterations",
    "datum.subspaces_checked": "datum#subspaces",
}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent, op, counters]
        self.spans: list = []
        self.stack: list = []
        self.op = -1
        self.cli_phases: list = []
        self._saved: list = []
        self._nonlinear_depth = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, {}])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        if name.startswith("nonlinear."):
            self._nonlinear_depth += 1
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()
        if self.spans[idx][0].startswith("nonlinear."):
            self._nonlinear_depth -= 1

    def _count(self, idx: int, key: str, value: float):
        counters = self.spans[idx][5]
        counters[key] = counters.get(key, 0) + value

    def _wrap(self, name: str, fn, observe):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(idx, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- counters read from arguments and results ---------------------------

    def _observer(self, short: str, fn):
        if short in ESTIMATES:
            sig = inspect.signature(fn)

            def ess(idx, args, kwargs, out):
                bound = sig.bind(*args, **kwargs).arguments
                q = bound.get("q")
                if q is None or q.method != "monte-carlo":
                    return
                exact = getattr(bound.get("fn"), "exact_mass", None)
                if bound.get("prefer_exact") and exact is not None:
                    return  # closed-form mass, not an estimate
                value, err = out
                if value > 0.0:
                    n = q.resolution
                    self._count(idx, "ess", 1.0 / (1.0 + n * (err / value) ** 2))
                    self._count(idx, "ess_n", n)
                    self._count(idx, "estimates", 1)

            return ess
        if short == "convolve_inputs":
            return lambda idx, a, k, out: self._count(
                idx, "cells", sum(f.values.size for f in out.functions)
            )
        if short == "is_kappa_constant":
            return lambda idx, a, k, out: self._count(idx, "samples", out.samples)
        if short == "solve_extremiser":
            return lambda idx, a, k, out: self._count(idx, "iterations", out.iterations)
        if short == "finiteness_check":

            def fin(idx, a, k, out):
                self._count(idx, "subspaces", out.subspaces_checked)
                self._count(idx, "certified", int(out.certified))

            return fin
        if short in ("uniform_box", "uniform_ball"):
            return lambda idx, a, k, out: self._count(idx, "samples", out.shape[0])
        return None

    # -- install / uninstall ------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = [importlib.import_module(m) for m in MODULES]
        for modname, names in TRACED.items():
            home = importlib.import_module(modname)
            layer = modname.rsplit(".", 1)[1]
            for short in names:
                orig = getattr(home, short)
                wrapped = self._wrap(f"{layer}.{short}", orig, self._observer(short, orig))
                for mod in mods:
                    if getattr(mod, short, None) is orig:
                        self._saved.append((mod, short, orig))
                        setattr(mod, short, wrapped)
        functional = importlib.import_module("blscales.functional")
        self._patch_method(functional.SampledFunction, "__call__", self._sampled_call)
        self._patch_method(functional.GaussianFunction, "__call__", self._gaussian_call)

    def _patch_method(self, cls, attr, make):
        orig = cls.__dict__[attr]
        self._saved.append((cls, attr, orig))
        setattr(cls, attr, make(orig))

    def _sampled_call(self, orig):
        tracer = self

        def call(fn_self, pts):
            idx = tracer._open("functional.SampledFunction.__call__")
            try:
                out = orig(fn_self, pts)
            finally:
                tracer._close(idx)
            tracer._count(idx, "points", out.shape[0])
            return out

        return call

    def _gaussian_call(self, orig):
        tracer = self

        def call(fn_self, pts):
            out = orig(fn_self, pts)
            if tracer._nonlinear_depth and tracer.stack:
                tracer._count(tracer.stack[-1], "integrand_evals", out.shape[0])
            return out

        return call

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []

    def record(self, op: int, run):
        """Run `run()` as traced op `op`."""
        self.op = op
        self.install()
        try:
            return run()
        finally:
            self.uninstall()

    # -- spans recorded in another process ----------------------------------

    def dump(self) -> list:
        return [list(s) for s in self.spans]

    def merge(self, spans: list, op: int, phases: dict):
        base = len(self.spans)
        for name, start, end, parent, _op, counters in spans:
            self.spans.append(
                [name, start, end, None if parent is None else base + parent, op, counters]
            )
        self.cli_phases.append(phases)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, counters) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op, "counters": counters},
                        sort_keys=True,
                    )
                    + "\n"
                )

    # -- summary ------------------------------------------------------------

    def summary(self, ops: int, overheads: list, untraced: list) -> dict:
        """Per-layer metrics, per traced op where the unit says /op."""
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        outer_name = [True] * len(self.spans)
        outer_layer = [True] * len(self.spans)
        for i, (name, _s, _e, parent, _op, _c) in enumerate(self.spans):
            if parent is not None:
                child[parent] += dur[i]
            p = parent
            while p is not None:
                pname = self.spans[p][0]
                if pname == name:
                    outer_name[i] = False
                if _layer(pname) == _layer(name):
                    outer_layer[i] = False
                p = self.spans[p][3]

        agg: dict = {}

        def add(key, value):
            agg[key] = agg.get(key, 0.0) + value

        ess = []
        for i, (name, _s, _e, _p, _op, counters) in enumerate(self.spans):
            add(name + ".self_s", dur[i] - child[i])
            add(name + ".calls", 1)
            if outer_name[i]:
                add(name + ".s", dur[i])
            if outer_layer[i]:
                add(_layer(name) + ".s", dur[i])
            for key, value in counters.items():
                add(name + "#" + key, value)
                add(_layer(name) + "#" + key, value)
                add("#" + key, value)
            if "ess" in counters:
                ess.append((counters["ess"], counters["ess_n"]))

        def get(key):
            return agg.get(key, 0.0)

        def rate(num, den):
            return num / den if den > 0 else 0.0

        per = max(ops, 1)
        values = {
            name: get(PER_OP_SOURCE.get(name, name)) / per
            for name, unit in PER_LAYER.items()
            if unit.endswith("/op") and not name.startswith(("cli.", "trace."))
        }
        phases = self.cli_phases
        for key in ("interpreter_s", "import_s", "main_s", "exit_ok"):
            values["cli." + key] = statistics.fmean(p[key] for p in phases) if phases else 0.0
        overhead = statistics.median(overheads) if overheads else 0.0
        values.update(
            {
                "mc.samples_per_s": rate(get("mc#samples"), get("mc.s")),
                "mc.ess_fraction": statistics.median(e for e, _ in ess) if ess else 0.0,
                "mc.ess_base_n": statistics.median(n for _, n in ess) if ess else 0.0,
                "gaussians.iters_per_s": rate(
                    get("gaussians#iterations"), get("gaussians.solve_extremiser.s")
                ),
                "datum.certified_fraction": rate(
                    get("datum#certified"), get("datum.finiteness_check.calls")
                ),
                "trace.overhead_s": overhead,
                "trace.overhead_frac": rate(
                    overhead, statistics.median(untraced) if untraced else 0.0
                ),
                "trace.ops": float(ops),
            }
        )
        return {k: {"value": float(values[k]), "unit": unit} for k, unit in PER_LAYER.items()}
