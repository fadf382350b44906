"""The benchmark's workloads: their jobs, inputs and reference checks.

Each workload is one pass of jobs run one at a time in one process (a
closed loop with a single client).  CLI jobs go in-process through
``derange.cli.run_command`` with stdout captured and parsed; library jobs
call the public functions.  Every job has a reference check against
``references.json``, whose values come from the oracle or mpmath (see
``make_references.py``), never from the closed forms under test.  The
workload seed only picks the ``--seed``/``seed=`` values handed to the
program (and, on ``exact-large-n``, the job order); no reference depends
on it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("exact-large-n", "mc-large-n", "certify-small-n")

# A Monte Carlo estimate passes when it lies within this many standard
# errors of its exact value.
MC_SIGMAS = 5.0
# CLI floats are printed with 9 significant digits.
PRINT_RTOL = 2e-8


class CheckFailed(Exception):
    """A job's output missed its reference."""


@dataclass
class Job:
    name: str
    run: Callable[[], tuple[int, str]]  # exit code and printed text
    check: Callable[[int, str], bool]  # raises CheckFailed; True = KS rejection
    mc_steps: int = 0  # replicates x horizon, for mc_steps_per_s


# -- job runners -----------------------------------------------------------

def cli_run(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run():
        from derange import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.run_command(argv + ["--format", "json"])
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, out.getvalue() or err.getvalue()
    return run


def lib_run(fn: Callable[[], object]) -> Callable[[], tuple[int, str]]:
    def run():
        return 0, json.dumps(fn(), sort_keys=True)
    return run


# -- checks ----------------------------------------------------------------

def _results(rc: int, text: str, ok_codes=(0,)):
    if rc not in ok_codes:
        raise CheckFailed(f"exit code {rc}: {text.strip()[:300]}")
    return json.loads(text)["results"]


def _close(name: str, got: float, want: float, rtol: float = PRINT_RTOL,
           atol: float = 0.0) -> None:
    if not (math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)):
        raise CheckFailed(f"{name}: got {got!r}, reference {want!r}")


def _within_se(name: str, got: float, want: float, se: float) -> None:
    if not (math.isfinite(got) and se > 0 and abs(got - want) <= MC_SIGMAS * se):
        raise CheckFailed(
            f"{name}: estimate {got!r} is {abs(got - want) / se:.2f} standard "
            f"errors from {want!r}")


def _value_check(ref: float, rtol: float = PRINT_RTOL):
    def check(rc, text):
        _close("value", float(_results(rc, text)), ref, rtol)
    return check


def _table2_check(refs):
    def check(rc, text):
        rows = _results(rc, text)
        if [r["j"] for r in rows] != [3, 4, 5, 6, 7]:
            raise CheckFailed(f"table2 rows {rows!r}")
        for r in rows:
            for n in (20, 50, 100):
                _close(f"Var C_{r['j']}({n})", r[f"n{n}"], refs[f"table2.j{r['j']}.n{n}"])
    return check


def _lambda_check(ref_mean: float):
    def check(rc, text):
        res = _results(rc, text)
        _close("mean", res["mean"], ref_mean)
        _close("mean_identity", res["mean_identity"], ref_mean)
        _close("law total", math.fsum(res["law"].values()), 1.0, atol=1e-7, rtol=0)
    return check


def _clt_check(ref_mean_k: float, ref_qbar: float):
    def check(rc, text):
        res = _results(rc, text, ok_codes=(0, 1))
        _close("qbar", res["qbar"], ref_qbar)
        se_k = res["std_error"] * math.sqrt(res["qbar"])
        _within_se("mean of K", res["sample_mean_k"], ref_mean_k, se_k)
        if not 0.0 <= res["p_value"] <= 1.0:
            raise CheckFailed(f"p-value {res['p_value']!r}")
        return rc == 1
    return check


def _gem_check(ref_mean: float):
    def check(rc, text):
        res = _results(rc, text, ok_codes=(0, 1))
        _within_se("mean of A1/n", res["mean"], ref_mean, res["std_error"])
        if not 0.0 <= res["p_value"] <= 1.0:
            raise CheckFailed(f"p-value {res['p_value']!r}")
        return rc == 1
    return check


def _verify_check(rc, text):
    for suite in _results(rc, text):
        # the CLI prints a numpy bool as the string "True"
        if suite["passed"] not in (True, "True"):
            raise CheckFailed(f"suite {suite!r} failed")


def _estimate_check(ref: float):
    def check(rc, text):
        res = json.loads(text)
        _within_se("mean", res["mean"], ref, res["std_error"])
    return check


def _signed_sample_check(n: int, ref_mean_k: float):
    def check(rc, text):
        samples = _results(rc, text)
        ks = []
        for s in samples:
            word = s["word"][::-1]  # ascending chain index
            bits = [1 if c == "1" else 0 for c in word]
            if (len(word) != n or set(word) - set("oi1") or bits[0] != 1
                    or bits[-1] != 0 or any(a + b > 1 for a, b in zip(bits, bits[1:]))):
                raise CheckFailed(f"signed word {s['word']!r} is not admissible")
            flat = [lab for c in s["circles"] for lab in c]
            if sorted(abs(v) for v in flat) != list(range(1, n + 1)):
                raise CheckFailed("circle labels do not partition 1..n")
            # walking down from the virtual 1 above index n, the step above
            # each index makes its label a leader, a +member or a -member
            leaders = [0] + [len(c) for c in s["circles"]]
            starts = {sum(leaders[:k + 1]) for k in range(len(s["circles"]))}
            for t, lab in enumerate(flat):
                idx = n - t
                above = "1" if idx == n else word[idx]
                if (above == "1") != (t in starts) or (lab > 0) != (above != "o"):
                    raise CheckFailed(f"circles {s['circles']!r} do not match {s['word']!r}")
            ks.append(len(s["circles"]))
        mean = math.fsum(ks) / len(ks)
        sd = math.sqrt(math.fsum((k - mean) ** 2 for k in ks) / (len(ks) - 1))
        _within_se("mean of K", mean, ref_mean_k, sd / math.sqrt(len(ks)))
    return check


def _table1_check(refs):
    def check(rc, text):
        rows = _results(rc, text)
        if [r["j"] for r in rows] != list(range(2, 8)):
            raise CheckFailed(f"table1 rows {rows!r}")
        for r in rows:
            ref = refs[f"mean_cj_limit.eta0.5.j{r['j']}"]
            _close(f"lim E[C_{r['j']}]", r["limit"], ref, atol=r["error_bound"])
    return check


def _limit_check(ref: float, atol: float):
    def check(rc, text):
        res = _results(rc, text)
        _close("limit", res["value"], ref, atol=atol)
    return check


def _probe_check(ref_q: float):
    def check(rc, text):
        res = json.loads(text)
        if not all(res["flags"].values()):
            raise CheckFailed(f"probe flags {res['flags']!r}, all expected true")
        _close("q at horizon", res["tails"]["q_vanishes"], ref_q, rtol=1e-12)
    return check


def _float_check(ref: float, atol: float):
    def check(rc, text):
        _close("value", json.loads(text), ref, rtol=0.0, atol=atol)
    return check


# -- library calls ---------------------------------------------------------

def _probe():
    from derange import limitchain, params

    ctx = limitchain.LimitContext.probe(params.PSequence.eta(0.5), horizon=2 * 10**5)
    return {"flags": ctx.flags, "tails": ctx.tails}


def _tv16():
    from derange import limitchain, params

    return limitchain.tv_prefix(16, params.PSequence.eta(0.5), "direct")


def _estimate(statistic: str, reps: int, seed: int, **kw):
    def call():
        from derange import chains, montecarlo, params

        kind = chains.ChainKind.x(params.PSequence.eta(0.5))
        rep = montecarlo.estimate(statistic, kind, 12, reps, seed, **kw)
        return {"mean": rep.mean, "std_error": rep.std_error}
    return call


# -- workloads -------------------------------------------------------------

def build(workload: str, seed: int, refs: dict) -> list[Job]:
    """The jobs of one pass, in the order they run."""
    ref = {k: v["value"] for k, v in refs.items()}
    rng = random.Random(seed)

    def s() -> str:
        return str(rng.randrange(2**31))

    if workload == "exact-large-n":
        jobs = [
            Job("table2", cli_run(["table2"]), _table2_check(ref)),
            Job("var_cj", cli_run(["exact", "--quantity", "var_cj", "--n", "250",
                                   "--j", "3", "--theta", "0.5"]),
                _value_check(ref["var_cj.eta0.5.n250.j3"])),
            Job("mean_k_cond", cli_run(["exact", "--quantity", "mean_k", "--kind", "cond",
                                        "--n", "150", "--theta", "0.7"]),
                _value_check(ref["mean_k.cond0.7.n150"])),
            Job("mean_cj_eta", cli_run(["exact", "--quantity", "mean_cj", "--kind", "eta",
                                        "--n", "400", "--j", "3", "--theta", "0.5"]),
                _value_check(ref["mean_cj.eta0.5.n400.j3"])),
            Job("signed_lambda", cli_run(["signed", "--quantity", "lambda", "--n", "300",
                                          "--kappa", "0.4", "--theta", "0.5"]),
                _lambda_check(ref["lambda.eta0.5.n300.kappa0.4"])),
            Job("probe", lib_run(_probe), _probe_check(ref["probe.eta0.5.q_at_2e5"])),
        ]
        rng.shuffle(jobs)
        return jobs
    if workload == "mc-large-n":
        return [
            Job("clt_5000", cli_run(["diagnose", "--which", "clt", "--n", "5000",
                                     "--reps", "2000", "--theta", "1", "--seed", s()]),
                _clt_check(ref["mean_k.eta1.n5000"], ref["qbar.eta1.n5000"]),
                mc_steps=2000 * 5000),
            Job("clt_20000", cli_run(["diagnose", "--which", "clt", "--n", "20000",
                                      "--reps", "2000", "--theta", "1", "--seed", s()]),
                _clt_check(ref["mean_k.eta1.n20000"], ref["qbar.eta1.n20000"]),
                mc_steps=2000 * 20000),
            Job("gem_20000", cli_run(["diagnose", "--which", "gem", "--n", "20000",
                                      "--reps", "2000", "--theta", "2", "--seed", s()]),
                _gem_check(ref["mean_a1_over_n.eta2.n20000"]),
                mc_steps=2000 * 20000),
        ]
    if workload == "certify-small-n":
        return [
            Job("verify_all", cli_run(["verify", "--suite", "all", "--n", "14",
                                       "--seed", s()]), _verify_check),
            Job("verify_variance", cli_run(["verify", "--suite", "variance", "--n", "60",
                                            "--seed", s()]), _verify_check),
            Job("tv_prefix_direct", lib_run(_tv16),
                _float_check(ref["tv16.eta0.5"], atol=1e-12)),
            Job("estimate_K", lib_run(_estimate("K", 40000, int(s()))),
                _estimate_check(ref["mean_k.eta0.5.n12"]), mc_steps=40000 * 12),
            Job("estimate_Lambda", lib_run(_estimate("Lambda", 20000, int(s()), kappa=0.4)),
                _estimate_check(ref["lambda.eta0.5.n12.kappa0.4"]), mc_steps=20000 * 12),
            Job("estimate_Cstar", lib_run(_estimate("Cstar_j", 20000, int(s()), j=2,
                                                    kappa=0.4)),
                _estimate_check(ref["cstar2.eta0.5.n12.kappa0.4"]), mc_steps=20000 * 12),
            Job("sample_signed", cli_run(["sample", "--kind", "signed", "--n", "50",
                                          "--reps", "400", "--seed", s()]),
                _signed_sample_check(50, ref["mean_k.eta1.n50"]), mc_steps=400 * 50),
            Job("table1", cli_run(["table1"]), _table1_check(ref)),
            Job("mean_cj_limit", cli_run(["exact", "--quantity", "mean_cj_eta_limit",
                                          "--method", "integral", "--j", "3",
                                          "--theta", "0.5"]),
                _limit_check(ref["mean_cj_limit.eta0.5.j3"], atol=2e-9)),
            Job("mean_k_limit", cli_run(["exact", "--quantity", "mean_k_eta_limit",
                                         "--method", "integral", "--theta", "0.5"]),
                _limit_check(ref["mean_k_limit.eta0.5"], atol=2e-9)),
            Job("gamma_inf", cli_run(["exact", "--quantity", "gamma_inf", "--i", "3",
                                      "--theta", "0.5", "--theta-family", "eta_star"]),
                _value_check(ref["gamma_inf.eta_star0.5.i3"])),
        ]
    raise ValueError(f"unknown workload {workload!r}")
