"""Layer spans and counters for a traced benchmark run.

The library is not changed: ``Tracer.install`` replaces the public
functions listed below on their modules with timing or counting wrappers,
and also in every other ``derange`` module that bound the same object at
import time with ``from .x import y`` (``cli.sample_path``,
``oracle.path_probability``, ...).  ``uninstall`` puts the originals back.

A span is recorded as (name, start, end, parent span, job id) in flat
arrays kept in memory and written out by ``save``.  Functions that take
microseconds and run millions of times per pass are counted, not timed,
because a timer would dominate them.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

MODULES = ("params", "chains", "coupling", "moments", "limitchain",
           "signed_stats", "oracle", "montecarlo", "numerics", "dist", "cli")

# layer -> public functions timed as spans
SPANS = {
    "cli": ("run_command", "emit_report"),
    "chains": ("marginal_one", "path_probability", "generate_signed", "sample_path"),
    "coupling": ("k_distribution", "pgf_k", "gamma_n", "delta_n"),
    "moments": ("second_moments", "mean_k", "mean_cj", "mean_k_eta_limit",
                "mean_cj_eta_limit"),
    "limitchain": ("LimitContext.probe", "tv_prefix", "phi", "gamma_inf"),
    "signed_stats": ("lambda_total",),
    "oracle": ("exact_law", "conditional_law", "pushforward_law", "dp_moments",
               "enumeration_moments"),
    "montecarlo": ("estimate", "clt_diagnostic", "gem_diagnostic",
                   "stick_breaking_sample", "replicate_rng", "sample_bits",
                   "ks_statistic", "ks_p_value"),
    "numerics": ("integrate",),
    "dist": ("compare_laws",),
}

# layer -> functions only counted
COUNTS = {
    "params": ("PSequence.__call__", "ThetaSequence.__call__"),
    "chains": ("transition_matrix",),
    "coupling": ("g_values",),
    "numerics": ("kummer_m", "generalized_pfq"),
}

# Monte Carlo entry points whose ``reps`` argument counts the replicates asked for.
_MC_ENTRY = ("montecarlo.estimate", "montecarlo.clt_diagnostic",
             "montecarlo.gem_diagnostic")


class Tracer:
    """Span recorder with per-pass counters; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.counter_names: list[str] = []
        self.counters: list[int] = []
        self._patches: list[tuple] = []
        self._stack: list[list] = []
        self._active: list[int] = []
        self.job = -1
        self.pass_counts: list[list[int]] = []
        # one entry per span
        self.s_name = array("H")
        self.s_parent = array("l")
        self.s_job = array("l")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_outer = array("b")  # 1 unless a span of the same name encloses it
        self.s_self = array("d")

    # -- installation ----------------------------------------------------

    def _counter(self, name: str) -> int:
        self.counter_names.append(name)
        self.counters.append(0)
        return len(self.counters) - 1

    def install(self) -> None:
        self._errors = {layer: self._counter(f"{layer}.errors") for layer in MODULES}
        self._words = self._counter("montecarlo.words_sampled")
        self._reps = self._counter("montecarlo.replicates")
        mods = {m: importlib.import_module(f"derange.{m}") for m in MODULES}
        for layer, funcs in SPANS.items():
            for qual in funcs:
                self._patch(mods, layer, qual, self._span_wrapper)
        for layer, funcs in COUNTS.items():
            for qual in funcs:
                self._patch(mods, layer, qual, self._count_wrapper)

    def _patch(self, mods, layer, qual, make) -> None:
        mod = mods[layer]
        owner_name, _, attr = qual.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        raw = owner.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapped = make(f"{layer}.{qual}", layer, fn)
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrapped)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
        if owner_name:
            return
        # names bound by ``from .x import y`` in other modules
        for other in mods.values():
            if other is not mod and other.__dict__.get(attr) is raw:
                self._patches.append((other, attr, raw))
                setattr(other, attr, wrapped)
        pkg = importlib.import_module("derange")
        if pkg.__dict__.get(attr) is raw:
            self._patches.append((pkg, attr, raw))
            setattr(pkg, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- wrappers --------------------------------------------------------

    def _count_wrapper(self, name, layer, fn):
        counters = self.counters
        idx = self._counter(name)
        err = self._errors[layer]

        def counted(*args, **kwargs):
            counters[idx] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                counters[err] += 1
                raise

        return counted

    def _span_wrapper(self, name, layer, fn):
        nid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self._active.append(0)
        counters = self.counters
        err = self._errors[layer]
        stack = self._stack
        active = self._active
        s_name, s_parent, s_job = self.s_name, self.s_parent, self.s_job
        s_start, s_end, s_outer, s_self = (self.s_start, self.s_end,
                                           self.s_outer, self.s_self)
        reps_of = None
        if name in _MC_ENTRY:
            sig = inspect.signature(fn)
            reps_of = lambda a, k: sig.bind(*a, **k).arguments["reps"]  # noqa: E731
        rows_of = (lambda a, k: a[2].shape[0]) if name == "montecarlo.sample_bits" else None

        def spanned(*args, **kwargs):
            sid = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_job.append(self.job)
            s_outer.append(1 if active[nid] == 0 else 0)
            s_start.append(0.0)
            s_end.append(0.0)
            s_self.append(0.0)
            if reps_of is not None and not any(
                    self.layers[s_name[f[0]]] == "montecarlo" for f in stack):
                counters[self._reps] += reps_of(args, kwargs)
            if rows_of is not None:
                counters[self._words] += rows_of(args, kwargs)
            frame = [sid, 0.0]
            stack.append(frame)
            active[nid] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                counters[err] += 1
                raise
            finally:
                t1 = perf_counter()
                active[nid] -= 1
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                s_start[sid] = t0
                s_end[sid] = t1
                s_self[sid] = dur - frame[1]

        return spanned

    # -- results ---------------------------------------------------------

    def spans(self) -> dict:
        return {
            "name": np.frombuffer(self.s_name, dtype=np.uint16),
            "parent": np.frombuffer(self.s_parent, dtype=np.int64),
            "job": np.frombuffer(self.s_job, dtype=np.int64),
            "start": np.frombuffer(self.s_start, dtype=np.float64),
            "end": np.frombuffer(self.s_end, dtype=np.float64),
            "outer": np.frombuffer(self.s_outer, dtype=np.int8),
            "self": np.frombuffer(self.s_self, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())
