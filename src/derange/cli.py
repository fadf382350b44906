"""Command-line front door: evaluate formulas, sample chains, run
verification suites and statistical diagnostics, regenerate tables.

Exit codes: 0 all requested checks pass, 1 a verification failed,
2 unknown quantity name, 3 a guard or argument violation, or a numeric
routine that cannot meet its accuracy contract (NumericsError).
"""

from __future__ import annotations

import argparse
import csv as _csv
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .chains import (
    ChainKind,
    generate_signed_many,
    marginal_one,
    sample_paths,
    word_to_string,
)
from .coupling import delta_n, gamma_n, k_distribution, pgf_k
from .dist import compare_laws
from .limitchain import delta_i_inf, gamma_inf, phi, tv_prefix
from .moments import (
    lambda_esf,
    mean_cj,
    mean_cj_eta,
    mean_cj_eta_limit,
    mean_k,
    mean_k_eta,
    mean_k_eta_limit,
    second_moments,
)
from .numerics import NumericsError
from .params import PSequence, ThetaSequence, conditional_theta
from .signed_stats import (
    OrientationWeights,
    cki_distribution,
    cstar_moments,
    lambda_mean_identity,
    lambda_total,
    omega,
    ordered_star_prob,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_GUARD = 3

_DIGITS = 9


# JSON-ready as they are: _sanitize returns items of exactly these types
# unchanged (subclasses take the general path)
_PLAIN = (int, str, bool, type(None))


def _fmt(x):
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, (float, np.floating)):
        return float(f"{float(x):.{_DIGITS}g}")
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.ndarray):
        return [_fmt(v) for v in x.tolist()]
    return x


def _sanitize(x):
    if type(x) in _PLAIN:
        return x
    if isinstance(x, dict):
        return {str(k): _sanitize(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sanitize(v) for v in x]
    out = _fmt(x)
    if out is x and not isinstance(x, _PLAIN):
        return str(x)
    return out


def _theta_seq(args) -> ThetaSequence:
    fam = getattr(args, "theta_family", "constant") or "constant"
    if fam == "constant":
        return ThetaSequence.constant(args.theta)
    if fam == "eta_star":
        return ThetaSequence.eta_star(args.theta)
    raise ValueError(f"unknown theta family {fam!r}")


def _p_seq(args) -> PSequence:
    kind = getattr(args, "kind", "eta") or "eta"
    if kind == "eta":
        return PSequence.eta(args.theta)
    if kind == "eta_tilde":
        return PSequence.eta_tilde(args.theta)
    if kind == "cond":
        return PSequence.from_theta_conditional(_theta_seq(args))
    if kind == "push":
        return PSequence.from_theta_pushforward(_theta_seq(args))
    raise ValueError(f"unknown p-sequence kind {kind!r}")


def _pgf_kind(args) -> ChainKind:
    """``--kind`` of the pgf: Y (default) is the coin chain of the theta
    sequence, X the derangement chain conditionally linked to it."""
    ts = _theta_seq(args)
    if (args.kind or "Y") == "Y":
        return ChainKind.y(ts)
    if args.kind == "X":
        return ChainKind.x(PSequence.from_theta_conditional(ts))
    raise ValueError(f"unknown pgf kind {args.kind!r}; use X or Y")


# ---------------------------------------------------------------------------
# quantity registry for `exact`

def _estimate(est) -> dict:
    return {"value": est.value, "error_bound": est.error_bound}


QUANTITIES = {
    "mean_k": lambda a: mean_k(a.n, _p_seq(a)),
    "mean_k_eta": lambda a: mean_k_eta(a.n, a.theta),
    "mean_k_eta_limit": lambda a: _estimate(
        mean_k_eta_limit(a.theta, m=a.m, method=a.method or "series")),
    "mean_cj": lambda a: mean_cj(a.n, a.j, _p_seq(a)),
    "mean_cj_eta": lambda a: mean_cj_eta(a.n, a.j, a.theta),
    "mean_cj_eta_limit": lambda a: _estimate(
        mean_cj_eta_limit(a.theta, a.j, method=a.method or "series", m=a.m)),
    "var_cj": lambda a: second_moments(a.n, a.j, _p_seq(a)),
    "gamma_n": lambda a: gamma_n(_theta_seq(a), a.n, method=a.method or "recursion"),
    "delta_n": lambda a: delta_n(a.theta, n=math.inf if a.n == 0 else a.n),
    "pgf_k": lambda a: pgf_k(_pgf_kind(a), a.s, a.n),
    "phi": lambda a: phi(a.i, _p_seq(a), method=a.method or "series"),
    "tv_prefix": lambda a: tv_prefix(a.n, _p_seq(a), method=a.method or "theorem"),
    "gamma_inf": lambda a: gamma_inf(a.i, _theta_seq(a)),
    "delta_i_inf": lambda a: delta_i_inf(a.theta, a.i),
    "lambda_esf": lambda a: lambda_esf(a.n, a.theta),
    "marginal_one": lambda a: marginal_one(ChainKind.x(_p_seq(a)), a.i, a.n),
}


# ---------------------------------------------------------------------------
# output

def emit_report(results, fmt: str, config: dict, stream=None) -> None:
    stream = stream or sys.stdout
    results = _sanitize(results)
    payload = {"config": config, "version": __version__, "results": results}
    if fmt == "json":
        json.dump(payload, stream, indent=2)
        stream.write("\n")
        return
    if fmt == "csv":
        rows = results if isinstance(results, list) else [results]
        rows = [r if isinstance(r, dict) else {"value": r} for r in rows]
        stream.write("# " + json.dumps({"config": config, "version": __version__}) + "\n")
        writer = _csv.DictWriter(stream, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for r in rows:
            writer.writerow({k: _fmt(v) for k, v in r.items()})
        return
    if fmt == "text":
        stream.write(f"# config: {json.dumps(config)} (version {__version__})\n")
        rows = results if isinstance(results, list) else [results]
        for r in rows:
            if isinstance(r, dict):
                stream.write(
                    "  ".join(f"{k}={_fmt(v)}" for k, v in r.items()) + "\n"
                )
            else:
                stream.write(f"{_fmt(r)}\n")
        return
    raise ValueError(f"unknown format {fmt!r}")


def _config_echo(args) -> dict:
    return {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func",) and v is not None
    }


# ---------------------------------------------------------------------------
# subcommands

def _cmd_exact(args) -> int:
    fn = QUANTITIES.get(args.quantity)
    if fn is None:
        print(
            f"unknown quantity {args.quantity!r}; known: "
            + ", ".join(sorted(QUANTITIES)),
            file=sys.stderr,
        )
        return EXIT_UNKNOWN
    result = fn(args)
    emit_report(result, args.format, _config_echo(args))
    return EXIT_OK


def _cmd_sample(args) -> int:
    if args.reps < 1:
        raise ValueError("--reps must be >= 1")
    reps = range(args.reps)
    if args.kind == "signed":
        pairs = generate_signed_many(args.n, PSequence.eta(args.theta), args.kappa,
                                     args.seed, reps)
        words = [{"word": word.to_string(), "circles": [list(c) for c in perm.circles]}
                 for word, perm in pairs]
    else:
        kind = ChainKind.y(_theta_seq(args)) if args.kind == "y" else ChainKind.x(_p_seq(args))
        words = [{"word": word_to_string(w)}
                 for w in sample_paths(kind, args.n, args.seed, reps)]
    emit_report(words, args.format, _config_echo(args))
    return EXIT_OK


def _cmd_table1(args) -> int:
    rows = []
    for j in range(2, 8):
        est = mean_cj_eta_limit(args.theta, j, method="series", m=args.m)
        rows.append({
            "j": j,
            "limit": float(f"{est.value:.6g}") if args.rounded else est.value,
            "error_bound": est.error_bound,
            "theta_over_j": args.theta / j,
        })
    emit_report(rows, args.format, _config_echo(args))
    return EXIT_OK


def _cmd_table2(args) -> int:
    p = PSequence.eta(args.theta)
    rows = []
    for j in range(3, 8):
        row = {"j": j}
        for n in (20, 50, 100):
            v = second_moments(n, j, p)
            row[f"n{n}"] = float(f"{v:.6g}") if args.rounded else v
        rows.append(row)
    emit_report(rows, args.format, _config_echo(args))
    return EXIT_OK


def _cmd_verify(args) -> int:
    suites = (
        ["conditional", "pushforward", "tv", "pgf", "variance"]
        if args.suite == "all" else [args.suite]
    )
    results = []
    ok = True
    for suite in suites:
        res = _run_suite(suite, args)
        results.append(res)
        ok = ok and res["passed"]
    emit_report(results, args.format, _config_echo(args))
    return EXIT_OK if ok else EXIT_FAIL


def _random_p(n: int, rng) -> PSequence:
    vals = [0.0, 1.0] + list(0.15 + 0.8 * rng.random(max(n - 2, 0)))
    return PSequence.tabulated(vals, tail_rule="constant")


def _run_suite(suite: str, args) -> dict:
    from . import oracle
    n = args.n
    tol = 1e-12
    if suite == "conditional":
        from .montecarlo import replicate_rng
        rng = replicate_rng(args.seed, 0)
        worst = 0.0
        for _ in range(args.trials):
            p = _random_p(n, rng)
            law_x = oracle.exact_law(ChainKind.x(p), n)
            law_c = oracle.conditional_law(n, conditional_theta(p))
            worst = max(worst, compare_laws(law_x, law_c).tv)
        return {"suite": suite, "max_tv": worst, "passed": bool(worst < tol)}
    if suite == "pushforward":
        worst = 0.0
        for theta_seq in (ThetaSequence.constant(0.5), ThetaSequence.constant(1.0),
                          ThetaSequence.eta_star(0.8)):
            p = PSequence.from_theta_pushforward(theta_seq)
            law_x = oracle.exact_law(ChainKind.x(p), n)
            law_pf = oracle.pushforward_law(n, theta_seq)
            worst = max(worst, compare_laws(law_x, law_pf).tv)
        return {"suite": suite, "max_tv": worst, "passed": bool(worst < tol)}
    if suite == "tv":
        worst = 0.0
        for theta in (0.5, 1.0):
            p = PSequence.eta(theta)
            for m in range(3, n + 1):
                gap = abs(tv_prefix(m, p, "theorem") - tv_prefix(m, p, "direct"))
                worst = max(worst, gap)
        return {"suite": suite, "max_gap": worst, "passed": bool(worst < tol)}
    if suite == "pgf":
        worst = 0.0
        ts = ThetaSequence.eta_star(0.7)
        for m in (6, 12):
            for kind in (ChainKind.x(PSequence.from_theta_conditional(ts)), ChainKind.y(ts)):
                law = k_distribution(kind, m)
                for s in (0.25, 0.5, 1.0, 1.5, 2.0):
                    direct = math.fsum(pk * s**k for k, pk in law.items())
                    worst = max(worst, abs(pgf_k(kind, s, m) - direct))
        return {"suite": suite, "max_gap": worst, "passed": bool(worst < 1e-10)}
    if suite == "variance":
        worst = 0.0
        p = PSequence.eta(0.5)
        for j in (2, 3, 4):
            disp = second_moments(n, j, p)
            dp = oracle.dp_moments(ChainKind.x(p), n, targets=("var_cj",), j=j)["var_cj"]
            worst = max(worst, abs(disp - dp))
        return {"suite": suite, "max_gap": worst, "passed": bool(worst < 1e-10)}
    raise ValueError(f"unknown suite {suite!r}")


def _cmd_diagnose(args) -> int:
    from .montecarlo import clt_diagnostic, gem_diagnostic
    if args.which == "clt":
        rep = clt_diagnostic(PSequence.eta(args.theta), args.n, args.reps, args.seed)
    elif args.which == "gem":
        rep = gem_diagnostic(args.theta, args.n, args.reps, args.seed)
    else:
        raise ValueError(f"unknown diagnostic {args.which!r}")
    result = {
        "statistic": rep.statistic, "mean": rep.mean,
        "std_error": rep.std_error, "ks_stat": rep.ks_stat,
        "p_value": rep.p_value, "flags": list(rep.flags), **rep.extras,
    }
    emit_report(result, args.format, _config_echo(args))
    return EXIT_OK if (rep.p_value is None or rep.p_value > args.alpha) else EXIT_FAIL


def _cmd_signed(args) -> int:
    from . import oracle
    w = OrientationWeights.binomial(args.kappa)
    p = PSequence.eta(args.theta)
    quantity = args.quantity
    if quantity == "omega":
        result = omega(args.k, args.i, w)
    elif quantity == "cki":
        provider = oracle.ExactCycleProvider(ChainKind.x(p), args.n)
        result = cki_distribution(args.k, args.i, args.l, args.n,
                                 provider.c_law(args.k), w)
    elif quantity == "cstar":
        provider = oracle.ExactCycleProvider(ChainKind.x(p), args.n)
        mean, cov = cstar_moments(args.i, args.j, args.n, provider, w)
        result = {"mean_cstar_j": mean, "cov_cstar_ij": cov}
    elif quantity == "lambda":
        k_law = k_distribution(ChainKind.x(p), args.n)
        law, mean = lambda_total(args.n, args.kappa, k_law)
        result = {
            "mean": mean,
            "mean_identity": lambda_mean_identity(args.n, args.kappa, k_law.mean()),
            "law": {str(k): v for k, v in sorted(law.items())},
        }
    elif quantity == "ordered_star":
        ts = _theta_seq(args)
        astar = tuple(int(v) for v in args.astar.split(","))
        result = ordered_star_prob(astar, args.n, ts, w)
    else:
        print(
            f"unknown quantity {quantity!r}; known: omega, cki, cstar, "
            "lambda, ordered_star",
            file=sys.stderr,
        )
        return EXIT_UNKNOWN
    emit_report(result, args.format, _config_echo(args))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derange",
        description="Biased random derangement chains: exact laws, moments, "
                    "couplings, limits, verification.",
    )
    default_seed = int(os.environ.get("DERANGE_SEED", "0"))
    fmt_parent = argparse.ArgumentParser(add_help=False)
    fmt_parent.add_argument("--format", choices=("json", "csv", "text"),
                            default="text")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[fmt_parent], **kw))

    def common(sp, seed=True):
        sp.add_argument("--theta", type=float, default=1.0)
        sp.add_argument("--theta-family", choices=("constant", "eta_star"),
                        default="constant")
        sp.add_argument("--n", type=int, default=10)
        if seed:
            sp.add_argument("--seed", type=int, default=default_seed)

    sp = sub.add_parser("exact", help="evaluate a named quantity")
    sp.add_argument("--quantity", required=True)
    sp.add_argument("--kind", default=None)
    sp.add_argument("--j", type=int, default=2)
    sp.add_argument("--i", type=int, default=3)
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--s", type=float, default=1.0)
    sp.add_argument("--method", default=None)
    common(sp, seed=False)
    sp.set_defaults(func=_cmd_exact)

    sp = sub.add_parser("sample", help="draw chain words")
    sp.add_argument("--kind", default="eta",
                    choices=("eta", "eta_tilde", "cond", "push", "y", "signed"))
    sp.add_argument("--reps", type=int, default=1)
    sp.add_argument("--kappa", type=float, default=0.5)
    common(sp)
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("table1", help="limit of E[C_j] along the eta chain")
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--rounded", action="store_true")
    common(sp, seed=False)
    sp.set_defaults(func=_cmd_table1, theta=0.5)

    sp = sub.add_parser("table2", help="Var(C_j(n)) along the eta chain")
    sp.add_argument("--rounded", action="store_true")
    common(sp, seed=False)
    sp.set_defaults(func=_cmd_table2, theta=0.5)

    sp = sub.add_parser("verify", help="run oracle certification suites")
    sp.add_argument("--suite", default="all",
                    choices=("conditional", "pushforward", "tv", "pgf",
                             "variance", "all"))
    sp.add_argument("--trials", type=int, default=5)
    common(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("diagnose", help="asymptotic statistical diagnostics")
    sp.add_argument("--which", required=True, choices=("clt", "gem"))
    sp.add_argument("--reps", type=int, default=2000)
    sp.add_argument("--alpha", type=float, default=0.001)
    common(sp)
    sp.set_defaults(func=_cmd_diagnose)

    sp = sub.add_parser("signed", help="signed-model quantities")
    sp.add_argument("--quantity", required=True)
    sp.add_argument("--kappa", type=float, default=0.5)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--i", type=int, default=1)
    sp.add_argument("--j", type=int, default=1)
    sp.add_argument("--l", type=int, default=0)
    sp.add_argument("--astar", default="1")
    common(sp, seed=False)
    sp.set_defaults(func=_cmd_signed)

    return parser


def run_command(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, NumericsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
