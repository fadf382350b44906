"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact-large-n --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 36 --trace 0

Run it from the repository root; it imports ``derange`` from ``src/`` and
nothing else.  One process runs one workload as a closed loop: a single
client runs the workload's jobs one at a time, pass after pass, within
``--seconds`` seconds.  Library caches are cleared before each job,
because every CLI call starts with cold caches.  The first pass's printed
results are the reference for later passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
untraced passes, then installs the layer wrappers of ``tracer.py`` and
runs traced passes; it reports the per-layer metrics, the tracing
overhead and the span coverage, checks that traced and untraced passes
print identical results, and writes the spans to ``perfbench/results/``.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run exits with code 2, printing no result, when the
program under test is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 5

# The machines this runs on change speed by up to 1.8x within seconds,
# because of other tenants, and a job slows down roughly in step with a
# plain Python loop run next to it.  So each job's wall time is rescaled by
# the time of a fixed loop measured just before and just after it (the
# fastest of three each side, which drops interrupted samples), relative
# to CAL_REF_S: timings are in seconds at the speed where the loop takes
# CAL_REF_S.  This halved the pass-to-pass spread on a 2-CPU VM.  Raw wall
# times are printed alongside.
CAL_LOOP = 100_000
CAL_REF_S = 0.0075

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def import_program():
    """Import ``derange`` from this checkout's ``src/`` or exit with code 2."""
    pkg = SRC / "derange"
    if not (pkg / "__init__.py").is_file():
        print(f"perfbench: no derange package at {pkg}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import derange
    import derange.cli  # noqa: F401

    if Path(derange.__file__).resolve().parent != pkg.resolve():
        print(f"perfbench: derange imported from {derange.__file__}, not {pkg}",
              file=sys.stderr)
        sys.exit(2)
    return derange


def load_jobs(workload: str, seed: int):
    refs = json.loads((HERE / "references.json").read_text())
    return workloads.build(workload, seed, refs)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import derange and build the
    workload's inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def calibration() -> float:
    """Wall time of a fixed pure-Python loop, the fastest of three: the
    machine's current speed."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(CAL_LOOP):
            acc ^= i * i % 7
        best = min(best, perf_counter() - t0)
    return best


def cache_clearers(derange) -> list:
    """``cache_clear`` of every memoised function in the library."""
    import importlib
    import pkgutil

    out = []
    for info in pkgutil.iter_modules(derange.__path__):
        mod = importlib.import_module(f"derange.{info.name}")
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == mod.__name__:
                out.append(obj.cache_clear)
    return out


class Runner:
    """Runs passes of one workload and keeps what the metrics need."""

    def __init__(self, jobs, clearers):
        self.jobs = jobs
        self.clearers = clearers
        self.expected: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_pass(self, tracer=None, pass_index: int = 0) -> dict:
        """One pass; returns per-job times, raw and rescaled, and the pass's
        KS rejections."""
        times: dict[str, float] = {}
        raw: dict[str, float] = {}
        before = list(tracer.counters) if tracer is not None else None
        rejections = 0
        for k, job in enumerate(self.jobs):
            for clear in self.clearers:
                clear()
            gc.collect()
            cal = calibration()
            if tracer is not None:
                tracer.job = pass_index * 100 + k
            t0 = perf_counter()
            try:
                rc, text = job.run()
                error = None
            except Exception:  # a job that raises is a failed job, not a crash
                rc, text, error = -1, "", traceback.format_exc(limit=3)
            raw[job.name] = perf_counter() - t0
            cal = (cal + calibration()) / 2
            times[job.name] = raw[job.name] * CAL_REF_S / cal
            if tracer is not None:
                tracer.job = -1
            try:
                if error is not None:
                    raise workloads.CheckFailed(error)
                rejections += bool(job.check(rc, text))
                want = self.expected.setdefault(job.name, text)
                if text != want:
                    raise workloads.CheckFailed("output differs from the first pass")
            except (workloads.CheckFailed, KeyError, TypeError, ValueError) as exc:
                self.failed += 1
                self.failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
            self.attempted += 1
        if tracer is not None:
            tracer.pass_counts.append([a - b for a, b in zip(tracer.counters, before)])
        return {"times": times, "raw": raw, "rejections": rejections}

    def run_for(self, seconds: float, tracer=None) -> list[dict]:
        """Passes while the next one, judged by the longest so far, ends
        within ``seconds``; at least one."""
        passes = []
        t0 = perf_counter()
        longest = 0.0
        while not passes or perf_counter() - t0 + longest <= seconds:
            start = perf_counter()
            passes.append(self.run_pass(tracer, pass_index=len(passes)))
            longest = max(longest, perf_counter() - start)
        return passes


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, or the
    maximum when there are fewer than eleven samples."""
    xs = sorted(values)
    if len(xs) < 11:
        return xs[-1], f"max of {len(xs)}"
    k = len(xs) - 11  # ten samples lie above xs[k]
    return xs[k], f"p{100 * (k + 1) / len(xs):.0f} of {len(xs)}"


def pass_total(p: dict, key: str = "times") -> float:
    return sum(p[key].values())


# job whose median time is reported as job1_s / job2_s, per workload
KEY_JOBS = {
    "exact-large-n": (("table2", "table2_s"), ("var_cj", "var_cj_s")),
    "mc-large-n": (("clt_20000", "clt_s"), ("gem_20000", "gem_s")),
    "certify-small-n": (("verify_all", "verify_s"), ("estimate_K", "estimate_k_s")),
}


def end_to_end(workload, jobs, passes, setup_times) -> tuple[dict, list[str]]:
    totals = [pass_total(p) for p in passes]
    tail_s, tail_how = tail(totals)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_s": (statistics.median(totals), "s"),
        "pass_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    lines = [f"passes: {len(passes)}; pass_tail_s is the {tail_how}",
             "pass times: " + ", ".join(f"{t:.4f}" for t in totals),
             "raw pass wall times: " + ", ".join(f"{pass_total(p, 'raw'):.4f}" for p in passes),
             "setup runs: " + ", ".join(f"{t:.4f}" for t in setup_times)]
    for slot, (job, label) in zip(("job1_s", "job2_s"), KEY_JOBS[workload]):
        v = statistics.median(p["times"][job] for p in passes)
        metrics[slot] = (v, "s")
        lines.append(f"{slot} = {label} (median time of job {job}): {v:.6f} s")
    mc_steps = sum(j.mc_steps for j in jobs)
    if mc_steps:
        mc_time = sum(p["times"][j.name] for p in passes for j in jobs if j.mc_steps)
        lines.append(f"mc_steps_per_s: {mc_steps * len(passes) / mc_time:.6g} 1/s")
    for j in jobs:
        lines.append(f"job {j.name}: median {statistics.median(p['times'][j.name] for p in passes):.6f} s, "
                     f"raw wall {statistics.median(p['raw'][j.name] for p in passes):.6f} s")
    return metrics, lines


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s_per_word")):
        return "s"
    if name.endswith((".words_per_replicate", ".span_coverage")):
        return "ratio"
    return "count"


def layer_metrics(tracer, traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics per traced pass, from the spans and counters.
    Span times are raw wall seconds."""
    import numpy as np
    from tracer import MODULES

    sp = tracer.spans()
    names = tracer.names
    npass = len(traced)
    nid = {n: i for i, n in enumerate(names)}
    dur = sp["end"] - sp["start"]

    def total(*fns, field="dur"):
        mask = np.isin(sp["name"], [nid[f] for f in fns])
        if field == "dur":
            mask &= sp["outer"] == 1
            return float(dur[mask].sum()) / npass
        if field == "self":
            return float(sp["self"][mask].sum()) / npass
        return float(mask.sum()) / npass

    counts = [dict(zip(tracer.counter_names, c)) for c in tracer.pass_counts]

    def count(name):
        return statistics.fmean(c[name] for c in counts)

    parents = sp["parent"]
    parent_layer = np.array([tracer.layers[n] for n in range(len(names))] + ["-"])[
        np.where(parents >= 0, sp["name"][np.maximum(parents, 0)], len(names))]
    words = float(np.count_nonzero(
        (sp["name"] == nid["chains.path_probability"]) & (parent_layer == "oracle"))) / npass
    oracle_law_s = total("oracle.exact_law", "oracle.conditional_law", "oracle.pushforward_law")
    replicates = count("montecarlo.replicates")

    m = {
        "params.p_evals": count("params.PSequence.__call__"),
        "params.theta_evals": count("params.ThetaSequence.__call__"),
        "chains.transition_matrix_calls": count("chains.transition_matrix"),
        "chains.marginal_one_calls": total("chains.marginal_one", field="n"),
        "chains.marginal_one_s": total("chains.marginal_one"),
        "chains.path_probability_calls": total("chains.path_probability", field="n"),
        "chains.path_probability_s": total("chains.path_probability"),
        "chains.generate_signed_s": total("chains.generate_signed"),
        "coupling.g_values_calls": count("coupling.g_values"),
        "coupling.k_distribution_s": total("coupling.k_distribution"),
        "coupling.pgf_k_s": total("coupling.pgf_k"),
        "moments.second_moments_s": total("moments.second_moments"),
        "moments.mean_k_s": total("moments.mean_k"),
        "moments.mean_cj_s": total("moments.mean_cj"),
        "moments.limit_s": total("moments.mean_k_eta_limit", "moments.mean_cj_eta_limit"),
        "limitchain.probe_s": total("limitchain.LimitContext.probe"),
        "limitchain.tv_prefix_s": total("limitchain.tv_prefix"),
        "limitchain.phi_s": total("limitchain.phi"),
        "limitchain.gamma_inf_s": total("limitchain.gamma_inf"),
        "signed_stats.lambda_total_s": total("signed_stats.lambda_total"),
        "oracle.exact_law_s": total("oracle.exact_law"),
        "oracle.conditional_law_s": total("oracle.conditional_law"),
        "oracle.pushforward_law_s": total("oracle.pushforward_law"),
        "oracle.dp_moments_s": total("oracle.dp_moments"),
        "oracle.words_enumerated": words,
        "oracle.s_per_word": oracle_law_s / words if words else 0.0,
        "montecarlo.rng_streams": total("montecarlo.replicate_rng", field="n"),
        "montecarlo.rng_setup_s": total("montecarlo.replicate_rng"),
        "montecarlo.sample_bits_s": total("montecarlo.sample_bits"),
        "montecarlo.words_sampled": count("montecarlo.words_sampled"),
        "montecarlo.words_per_replicate":
            count("montecarlo.words_sampled") / replicates if replicates else 0.0,
        "montecarlo.ks_s": total("montecarlo.ks_statistic", "montecarlo.ks_p_value"),
        "montecarlo.self_s": total("montecarlo.estimate", "montecarlo.clt_diagnostic",
                                   "montecarlo.gem_diagnostic",
                                   "montecarlo.stick_breaking_sample", field="self"),
        "montecarlo.ks_rejections": statistics.fmean(p["rejections"] for p in traced),
        "numerics.integrate_calls": total("numerics.integrate", field="n"),
        "numerics.integrate_s": total("numerics.integrate"),
        "numerics.series_calls": count("numerics.kummer_m")
                                 + count("numerics.generalized_pfq"),
        "dist.compare_laws_s": total("dist.compare_laws"),
        "cli.emit_s": total("cli.emit_report"),
        "cli.self_s": total("cli.run_command", field="self"),
    }
    for layer in MODULES:
        m[f"{layer}.errors"] = count(f"{layer}.errors")
    traced_s = statistics.median(pass_total(p) for p in traced)
    m["trace.overhead_s"] = traced_s - statistics.median(pass_total(p) for p in untraced)
    coverage = []
    root = parents < 0
    for k, p in enumerate(traced):
        in_pass = root & (sp["job"] // 100 == k)
        coverage.append(float(dur[in_pass].sum()) / pass_total(p, "raw"))
    m["trace.span_coverage"] = statistics.median(coverage)
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.workload == "all":
        return run_all(args)
    derange = import_program()
    if args.setup_probe:
        load_jobs(args.workload, args.seed)
        return 0
    jobs = load_jobs(args.workload, args.seed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runner = Runner(jobs, cache_clearers(derange))
    print(f"workload {args.workload}, seed {args.seed}, {len(jobs)} jobs per pass, "
          f"trace {args.trace}")

    if args.trace == 0:
        setup_times = measure_setup(args.workload, args.seed)
        passes = runner.run_for(args.seconds)
        values, lines = end_to_end(args.workload, jobs, passes, setup_times)
        wanted = spec["end_to_end"]
    else:
        from tracer import Tracer

        untraced = runner.run_for(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.run_for(args.seconds / 2, tracer=tracer)
        finally:
            tracer.uninstall()
        RESULTS.mkdir(exist_ok=True)
        span_file = RESULTS / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(span_file)
        layer = layer_metrics(tracer, traced, untraced)
        values = {k: (v, layer_unit(k)) for k, v in layer.items()}
        lines = [f"untraced passes: {len(untraced)}, traced passes: {len(traced)}; "
                 f"{len(tracer.s_name)} spans written to {span_file.relative_to(ROOT)}"]
        wanted = spec["per_layer"]

    fail_frac = runner.failed / runner.attempted
    for line in lines:
        print(line)
    for name, (v, unit) in values.items():
        print(f"{name}: {v:.6g} {unit}")
    print(f"fail_frac: {fail_frac:.6g} ratio ({runner.failed} of {runner.attempted} jobs)")
    for f in runner.failures[:20]:
        print(f"FAILED {f}")
    result = {
        "correct": runner.failed == 0 and not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        summary["metrics"].update({f"{w}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
