"""Command-line front door: evaluate formulas, sample chains, run
verification suites and statistical diagnostics, regenerate tables.

Exit codes: 0 all requested checks pass, 1 a verification failed,
2 unknown quantity name, 3 a guard or argument violation, or a numeric
routine that cannot meet its accuracy contract (NumericsError).
"""

from __future__ import annotations

import argparse
import csv as _csv
import dataclasses
import functools
import io
import json
import math
import os
import shutil
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .chains import (
    ChainKind,
    _circles,
    _signed_blocks,
    marginal_one,
    sample_paths,
    word_to_string,
)
from .coupling import delta_n, gamma_n, k_distribution, pgf_k
from .dist import DistTable, compare_laws
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
    var_cj_horizons,
)
from .numerics import NumericsError
from .params import PSequence, ThetaSequence, check_theta, conditional_theta
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
_PLAIN = frozenset((int, str, bool, type(None)))


def _sanitize(x):
    """x as JSON-ready plain values: dict keys as strings, tuples and numpy
    arrays as lists, numpy scalars as Python ones, floats rounded to
    ``_DIGITS`` significant digits, other objects as their ``str``."""
    if type(x) in _PLAIN:
        return x
    if isinstance(x, dict):
        return {str(k): _sanitize(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        # a list of plain items is kept as it is, a tuple of them copied whole
        if _PLAIN.issuperset(map(type, x)):
            return x if type(x) is list else list(x)
        return [_sanitize(v) for v in x]
    if isinstance(x, np.ndarray):
        return _sanitize(x.tolist())
    if isinstance(x, (float, np.floating)):
        return float(f"{float(x):.{_DIGITS}g}")
    if isinstance(x, (np.integer, np.bool_)):
        return x.item()
    return x if isinstance(x, (int, str)) else str(x)  # subclasses of the plain types


def _theta_seq(args) -> ThetaSequence:
    if args.theta_family == "eta_star":
        return ThetaSequence.eta_star(args.theta)
    return ThetaSequence.constant(args.theta)


# the chains of ``--kind``, from --theta and, past eta and eta_tilde,
# --theta-family: four derangement chains and the coin chain y
KINDS = {
    "eta": lambda a: ChainKind.eta(a.theta),
    "eta_tilde": lambda a: ChainKind.eta_tilde(a.theta),
    "cond": lambda a: ChainKind.x(PSequence.from_theta_conditional(_theta_seq(a))),
    "push": lambda a: ChainKind.x(PSequence.from_theta_pushforward(_theta_seq(a))),
    "y": lambda a: ChainKind.y(_theta_seq(a)),
}


def _kind(args) -> ChainKind:
    return KINDS[args.kind or "eta"](args)


def _kind_p(args) -> PSequence:
    """The p sequence of ``--kind``, which must be a derangement chain."""
    p = _kind(args).p
    if p is None:
        raise ValueError(f"--quantity {args.quantity} needs a derangement chain, "
                         f"not --kind {args.kind}")
    return p


# ---------------------------------------------------------------------------
# quantity registry for `exact`

QUANTITIES = {
    "mean_k": lambda a: mean_k(_kind(a), a.n),
    "mean_k_eta": lambda a: mean_k_eta(a.n, a.theta),
    # without --m each limit takes its own default m, which its result reports
    "mean_k_eta_limit": lambda a: dataclasses.asdict(mean_k_eta_limit(
        a.theta, method=a.method or "series", **({} if a.m is None else {"m": a.m}))),
    "mean_cj": lambda a: mean_cj(_kind(a), a.n, a.j),
    "mean_cj_eta": lambda a: mean_cj_eta(a.n, a.j, a.theta),
    "mean_cj_eta_limit": lambda a: dataclasses.asdict(mean_cj_eta_limit(
        a.theta, a.j, method=a.method or "series", **({} if a.m is None else {"m": a.m}))),
    "var_cj": lambda a: second_moments(_kind(a), a.n, a.j),
    "gamma_n": lambda a: gamma_n(_theta_seq(a), a.n, method=a.method or "recursion"),
    "delta_n": lambda a: delta_n(a.theta, n=math.inf if a.n == 0 else a.n),
    "pgf_k": lambda a: pgf_k(_kind(a), a.s, a.n),
    "phi": lambda a: phi(a.i, _kind_p(a), method=a.method or "series"),
    "tv_prefix": lambda a: tv_prefix(a.n, _kind_p(a), method=a.method or "theorem"),
    "gamma_inf": lambda a: gamma_inf(a.i, _theta_seq(a)),
    "delta_i_inf": lambda a: delta_i_inf(a.theta, a.i),
    "lambda_esf": lambda a: lambda_esf(a.n, a.theta),
    "marginal_one": lambda a: marginal_one(_kind(a), a.i, a.n),
}


# ---------------------------------------------------------------------------
# quantity registry for `signed`, along the eta chain

def _weights(a) -> OrientationWeights:
    weights = OrientationWeights.binomial(a.kappa)
    check_theta(a.theta)  # every signed quantity checks theta, omega too
    return weights


def _eta_moments(a) -> dict:
    """``oracle.enumeration_moments`` of the eta chain, which cki and cstar
    read; enumeration caps n."""
    if a.n > 14:
        raise ValueError("signed cki and cstar enumerate every word: limited to n <= 14")
    from . import oracle
    return oracle.enumeration_moments(ChainKind.eta(a.theta), a.n)


def _cki(a) -> float:
    laws = _eta_moments(a)["c_laws"]
    c_law = laws[a.k] if 1 <= a.k <= a.n else DistTable([0], [1.0])  # no k-circle past n
    return cki_distribution(a.k, a.i, a.l, a.n, c_law, _weights(a))


def _cstar(a) -> dict:
    m = _eta_moments(a)
    mean, cov = cstar_moments(a.i, a.j, m["mean_c"], m["cov_c"], _weights(a))
    return {"mean_cstar_j": mean, "cov_cstar_ij": cov}


def _lambda(a) -> dict:
    k_law = k_distribution(ChainKind.eta(a.theta), a.n)
    law, mean = lambda_total(a.n, a.kappa, k_law)
    return {
        "mean": mean,
        "mean_identity": lambda_mean_identity(a.n, a.kappa, k_law.mean()),
        "law": dict(zip(map(str, law.codes.tolist()), law.prob.tolist())),
    }


SIGNED_QUANTITIES = {
    "omega": lambda a: omega(a.k, a.i, _weights(a)),
    "cki": _cki,
    "cstar": _cstar,
    "lambda": _lambda,
    "ordered_star": lambda a: ordered_star_prob(ChainKind.y(_theta_seq(a)),
        tuple(int(v) for v in a.astar.split(",")), a.n, _weights(a)),
}


# ---------------------------------------------------------------------------
# verification suites for `verify`: each returns (name of its measure, the
# measure, the tolerance it must stay below)

def _suite_conditional(args):
    from . import oracle
    from .montecarlo import replicate_uniforms
    if args.trials < 1:
        raise ValueError("--trials must be >= 1: with no trial the conditional suite "
                         "compares nothing")
    # trial t tabulates p_3 .. p_n from uniforms 0 .. n - 3 of stream t
    u = replicate_uniforms(args.seed, np.arange(args.trials, dtype=np.uint64), 0,
                           max(args.n - 2, 0))
    ps = [PSequence.tabulated([0.0, 1.0, *(0.15 + 0.8 * row)], tail_rule="constant")
          for row in u]
    tvs = (compare_laws(oracle.exact_law(ChainKind.x(p), args.n),
                        oracle.conditional_law(args.n, conditional_theta(p))).tv for p in ps)
    return "max_tv", max(tvs), 1e-12


def _suite_pushforward(args):
    from . import oracle
    tvs = (compare_laws(oracle.exact_law(ChainKind.x(PSequence.from_theta_pushforward(ts)), args.n),
                        oracle.pushforward_law(args.n, ts)).tv
           for ts in (ThetaSequence.constant(0.5), ThetaSequence.constant(1.0),
                      ThetaSequence.eta_star(0.8)))
    return "max_tv", max(tvs), 1e-12


def _suite_tv(args):
    from . import oracle
    if args.n < 3:
        raise ValueError("the tv suite compares m = 3..n, so it needs --n >= 3")
    gaps = []
    for p in (PSequence.eta(0.5), PSequence.eta(1.0)):
        direct = oracle.tv_prefixes(args.n, ChainKind.x(p))
        gaps += [abs(tv_prefix(m, p, "theorem") - direct[m]) for m in range(3, args.n + 1)]
    return "max_gap", max(gaps), 1e-12


def _suite_pgf(args):
    ts = ThetaSequence.eta_star(0.7)
    gaps = []
    for m in dict.fromkeys((max(2, args.n // 2), args.n)):
        for kind in (ChainKind.x(PSequence.from_theta_conditional(ts)), ChainKind.y(ts)):
            law = k_distribution(kind, m)
            # float_power calls C pow per term, as s ** k does on a Python float
            gaps += [abs(pgf_k(kind, s, m)
                         - math.fsum((law.prob * np.float_power(s, law.codes)).tolist()))
                     for s in (0.25, 0.5, 1.0, 1.5, 2.0)]
    return "max_gap", max(gaps), 1e-10


def _suite_variance(args):
    from . import oracle
    kind, js = ChainKind.eta(0.5), (2, 3, 4)
    gaps = []
    for j, at_n in zip(js, var_cj_horizons(kind, args.n, js)[:, args.n].tolist()):
        dp = oracle.dp_moments(kind, args.n, targets=("var_cj",), j=j)["var_cj"]
        gaps += [abs(second_moments(kind, args.n, j) - dp), abs(at_n - dp)]
    return "max_gap", max(gaps), 1e-10


SUITES = {
    "conditional": _suite_conditional,
    "pushforward": _suite_pushforward,
    "tv": _suite_tv,
    "pgf": _suite_pgf,
    "variance": _suite_variance,
}


# ---------------------------------------------------------------------------
# output

def emit_report(results, fmt: str, config: dict, stream=None, plain: bool = False) -> None:
    """Write the report in one piece: JSON on one line, or CSV (columns are
    the union of the rows' keys, in order of first appearance) or text
    after a comment line echoing the configuration.  Results pass through
    ``_sanitize`` unless they are ``plain``: str, int, bool and None in
    lists and str-keyed dicts, which are written as they are."""
    if not plain:
        results = _sanitize(results)
    header = {"config": config, "version": __version__}
    rows = results if isinstance(results, list) else [results]
    if fmt == "json":
        text = json.dumps({**header, "results": results}) + "\n"
    elif fmt == "csv":
        rows = [r if isinstance(r, dict) else {"value": r} for r in rows]
        buf = io.StringIO()
        buf.write(f"# {json.dumps(header)}\n")
        writer = _csv.DictWriter(buf, fieldnames=list(dict.fromkeys(k for r in rows for k in r)))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    elif fmt == "text":
        lines = [f"# config: {json.dumps(config)} (version {__version__})"]
        lines += ["  ".join(f"{k}={v}" for k, v in r.items()) if isinstance(r, dict)
                  else str(r) for r in rows]
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    (stream or sys.stdout).write(text)


def _config_echo(args) -> dict:
    return {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func",) and v is not None
    }


# ---------------------------------------------------------------------------
# subcommands

def _cmd_quantity(registry: dict, args) -> int:
    fn = registry.get(args.quantity)
    if fn is None:
        print(f"unknown quantity {args.quantity!r}; known: " + ", ".join(sorted(registry)),
              file=sys.stderr)
        return EXIT_UNKNOWN
    emit_report(fn(args), args.format, _config_echo(args))
    return EXIT_OK


def _cmd_sample(args) -> int:
    if args.reps < 1:
        raise ValueError("--reps must be >= 1")
    reps = range(args.reps)
    if args.kind == "signed":
        n, words = args.n, []
        for codes, labels, starts in _signed_blocks(n, PSequence.eta(args.theta),
                                                    args.kappa, args.seed, reps):
            # SignedWord.to_string of every row: index n first, -0/+0/1 as o/i/1
            text = np.frombuffer(b"oi1", dtype=np.uint8)[codes[:, ::-1]].tobytes().decode()
            words += [{"word": text[r * n:(r + 1) * n], "circles": _circles(labs, cuts)}
                      for r, (labs, cuts) in enumerate(zip(labels.tolist(), starts.tolist()))]
    else:
        words = [{"word": word_to_string(w)}
                 for w in sample_paths(_kind(args), args.n, args.seed, reps)]
    # words are str and circles lists of int lists: plain as they are
    emit_report(words, args.format, _config_echo(args), plain=True)
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
    js, cols = range(3, 8), (20, 50, 100)
    rows = []
    for j, var in zip(js, var_cj_horizons(ChainKind.eta(args.theta), cols[-1], js).tolist()):
        row = {"j": j}
        for n in cols:
            row[f"n{n}"] = float(f"{var[n]:.6g}") if args.rounded else var[n]
        rows.append(row)
    emit_report(rows, args.format, _config_echo(args))
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = []
    for suite in (SUITES if args.suite == "all" else [args.suite]):
        measure, worst, tol = SUITES[suite](args)
        results.append({"suite": suite, measure: worst, "passed": bool(worst < tol)})
    emit_report(results, args.format, _config_echo(args))
    return EXIT_OK if all(r["passed"] for r in results) else EXIT_FAIL


def _cmd_diagnose(args) -> int:
    from .montecarlo import clt_diagnostic, gem_diagnostic
    # an alpha outside (0, 1), NaN included, would fix the verdict whatever the sample
    if not 0.0 < args.alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {args.alpha!r}")
    if args.which == "clt":
        rep = clt_diagnostic(ChainKind.eta(args.theta), args.n, args.reps, args.seed)
    else:
        rep = gem_diagnostic(args.theta, args.n, args.reps, args.seed)
    result = {
        "statistic": rep.statistic, "mean": rep.mean,
        "std_error": rep.std_error, "ks_stat": rep.ks_stat,
        "p_value": rep.p_value, "flags": list(rep.flags), **rep.extras,
    }
    emit_report(result, args.format, _config_echo(args))
    return EXIT_OK if (rep.p_value is None or rep.p_value > args.alpha) else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser: one entry per command, built alone or as a subparser of the full one

class Command(NamedTuple):
    help: str
    func: Callable[[argparse.Namespace], int]
    args: tuple = ()  # (flag, add_argument keywords) of each flag it reads but --format, --seed
    seed: bool = True  # takes --seed, whose default is DERANGE_SEED


def _theta(default: float = 1.0) -> tuple:
    return "--theta", dict(type=float, default=default)


_FAMILY = ("--theta-family", dict(choices=("constant", "eta_star"), default="constant"))
_N = ("--n", dict(type=int, default=10))

COMMANDS = {
    "exact": Command("evaluate a named quantity", functools.partial(_cmd_quantity, QUANTITIES), (
        ("--quantity", dict(required=True)), ("--kind", dict(default=None, choices=tuple(KINDS))),
        ("--j", dict(type=int, default=2)), ("--i", dict(type=int, default=3)),
        ("--m", dict(type=int, default=None)), ("--s", dict(type=float, default=1.0)),
        ("--method", dict(default=None)), _theta(), _FAMILY, _N), seed=False),
    "sample": Command("draw chain words", _cmd_sample, (
        ("--kind", dict(default="eta", choices=(*KINDS, "signed"))),
        ("--reps", dict(type=int, default=1)), ("--kappa", dict(type=float, default=0.5)),
        _theta(), _FAMILY, _N)),
    "table1": Command("limit of E[C_j] along the eta chain", _cmd_table1, (
        ("--m", dict(type=int, default=2)), ("--rounded", dict(action="store_true")),
        _theta(0.5)), seed=False),
    "table2": Command("Var(C_j(n)) along the eta chain", _cmd_table2, (
        ("--rounded", dict(action="store_true")), _theta(0.5)), seed=False),
    "verify": Command("run oracle certification suites", _cmd_verify, (
        ("--suite", dict(default="all", choices=(*SUITES, "all"))),
        ("--trials", dict(type=int, default=5)), _N)),
    "diagnose": Command("asymptotic statistical diagnostics", _cmd_diagnose, (
        ("--which", dict(required=True, choices=("clt", "gem"))),
        ("--reps", dict(type=int, default=2000)), ("--alpha", dict(type=float, default=0.001)),
        _theta(), _N)),
    "signed": Command("signed-model quantities",
                      functools.partial(_cmd_quantity, SIGNED_QUANTITIES), (
        ("--quantity", dict(required=True)), ("--kappa", dict(type=float, default=0.5)),
        ("--k", dict(type=int, default=2)), ("--i", dict(type=int, default=1)),
        ("--j", dict(type=int, default=1)), ("--l", dict(type=int, default=0)),
        ("--astar", dict(default="1")), _theta(), _FAMILY, _N), seed=False),
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """parser with the arguments and defaults of command ``name``."""
    cmd = COMMANDS[name]
    parser.add_argument("--format", choices=("json", "csv", "text"), default="text")
    for flag, kw in cmd.args:
        parser.add_argument(flag, **kw)
    if cmd.seed:
        parser.add_argument("--seed", type=int, default=int(os.environ.get("DERANGE_SEED", "0")))
    parser.set_defaults(command=name, func=cmd.func)
    return parser


def _formatter() -> Callable:
    """The stdlib's default help formatter at the terminal width read once:
    argparse would read it again for every argument it adds."""
    return functools.partial(argparse.HelpFormatter,
                             width=shutil.get_terminal_size().columns - 2)


def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of command ``name`` alone, as the full parser's subparser."""
    return _add_command(argparse.ArgumentParser(prog=f"derange {name}",
                                                formatter_class=_formatter()), name)


def build_parser() -> argparse.ArgumentParser:
    formatter = _formatter()
    parser = argparse.ArgumentParser(
        prog="derange",
        description="Biased random derangement chains: exact laws, moments, "
                    "couplings, limits, verification.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        _add_command(sub.add_parser(name, help=cmd.help, formatter_class=formatter), name)
    return parser


def run_command(argv=None) -> int:
    """Run one command line: only the named command's parser is built, unless
    argv names none or has arguments the command does not know, which the
    full parser then rejects under its own usage line."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args, rest = (command_parser(argv[0]).parse_known_args(argv[1:])
                  if argv and argv[0] in COMMANDS else (None, argv))
    if args is None or rest:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, NumericsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
