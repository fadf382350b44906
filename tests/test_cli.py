import argparse
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from derange import __version__, chains, cli, oracle
from derange.chains import (
    ChainKind,
    generate_signed,
    generate_signed_many,
    sample_path,
    word_to_string,
)
from derange.coupling import k_distribution, pgf_k
from derange.moments import mean_cj_eta_limit, mean_k, mean_k_eta_limit, var_cj_horizons
from derange.montecarlo import clt_diagnostic, gem_diagnostic
from derange.params import PSequence, ThetaSequence
from derange.signed_stats import (
    OrientationWeights,
    cki_distribution,
    cstar_moments,
    lambda_total,
    ordered_star_prob,
)
from derange.cli import (
    COMMANDS,
    EXIT_FAIL,
    EXIT_GUARD,
    EXIT_OK,
    EXIT_UNKNOWN,
    KINDS,
    QUANTITIES,
    SIGNED_QUANTITIES,
    SUITES,
    build_parser,
    command_parser,
    run_command,
)


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exact_known_quantity(capsys):
    code, out, _ = run(
        capsys, "exact", "--quantity", "mean_cj_eta_limit",
        "--theta", "0.5", "--j", "2", "--method", "series", "--m", "2",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["results"]["value"] == pytest.approx(0.255318, abs=2e-6)
    assert payload["config"]["quantity"] == "mean_cj_eta_limit"
    assert "version" in payload


def test_exact_limit_takes_the_library_default_m(capsys):
    # without --m each limit quantity is the library's default call; an
    # explicit --m is passed on
    for quantity, fn, extra in (("mean_k_eta_limit", mean_k_eta_limit, ()),
                                ("mean_cj_eta_limit", mean_cj_eta_limit, (3,))):
        args = ["exact", "--quantity", quantity, "--theta", "1", "--format", "json"]
        if extra:
            args += ["--j", str(extra[0])]
        for flag, kw in (((), {}), (("--m", "2"), {"m": 2})):
            code, out, _ = run(capsys, *args, *flag)
            assert code == EXIT_OK
            want = fn(1.0, *extra, **kw)
            got = json.loads(out)["results"]
            assert f"{got['value']:.9g}" == f"{want.value:.9g}", (quantity, flag)
            assert f"{got['error_bound']:.9g}" == f"{want.error_bound:.9g}", (quantity, flag)


def test_exact_unknown_quantity(capsys):
    code, _, err = run(capsys, "exact", "--quantity", "nonsense")
    assert code == EXIT_UNKNOWN
    for name in QUANTITIES:
        assert name in err


def test_guard_violation_exit_code(capsys):
    code, _, err = run(capsys, "exact", "--quantity", "delta_n", "--theta", "-1")
    assert code == EXIT_GUARD
    assert "error" in err


# the fewest arguments each command runs with
MINIMAL_ARGV = {
    "exact": ["--quantity", "mean_k"], "sample": [], "table1": [], "table2": [],
    "verify": [], "diagnose": ["--which", "clt"], "signed": ["--quantity", "omega"],
}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_parser_matches_the_full_parser(name):
    full = build_parser()
    (sub,) = (a for a in full._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(COMMANDS) == list(MINIMAL_ARGV)
    assert command_parser(name).format_help() == sub.choices[name].format_help()
    assert (command_parser(name).parse_args(MINIMAL_ARGV[name])
            == full.parse_args([name, *MINIMAL_ARGV[name]]))


def test_help_is_the_default_formatters(monkeypatch):
    def helps():
        full = build_parser()
        (sub,) = (a for a in full._actions if isinstance(a, argparse._SubParsersAction))
        return [full.format_help(), *(sub.choices[name].format_help() for name in COMMANDS),
                *(command_parser(name).format_help() for name in COMMANDS)]

    texts = {}
    for columns in ("50", "150"):
        monkeypatch.setenv("COLUMNS", columns)
        texts[columns] = helps()
        with monkeypatch.context() as m:
            m.setattr(cli, "_formatter", lambda: argparse.HelpFormatter)
            assert texts[columns] == helps(), columns
    assert texts["50"] != texts["150"]  # the width is read, not fixed


@pytest.mark.parametrize("argv, code, usage", [
    ([], 2, "usage: derange [-h]"),
    (["bogus"], 2, "usage: derange [-h]"),
    (["-h"], 0, "usage: derange [-h]"),
    (["table2", "--bogus"], 2, "usage: derange [-h]"),  # as the full parser reports it
    (["table2", "--theta", "x"], 2, "usage: derange table2 [-h]"),
    # flags a command never reads are unknown to it
    (["table1", "--n", "20"], 2, "usage: derange [-h]"),
    (["table1", "--theta-family", "eta_star"], 2, "usage: derange [-h]"),
    (["table2", "--n", "20"], 2, "usage: derange [-h]"),
    (["table2", "--theta-family", "eta_star"], 2, "usage: derange [-h]"),
    (["verify", "--theta", "0.5"], 2, "usage: derange [-h]"),
    (["verify", "--theta-family", "eta_star"], 2, "usage: derange [-h]"),
    (["diagnose", "--which", "clt", "--theta-family", "eta_star"], 2, "usage: derange [-h]"),
    # --kind has one vocabulary, checked by argparse: the pgf's old X is gone too
    (["exact", "--quantity", "mean_k", "--kind", "foo"], 2, "usage: derange exact [-h]"),
    (["exact", "--quantity", "pgf_k", "--kind", "X"], 2, "usage: derange exact [-h]"),
])
def test_argv_the_command_parser_cannot_take(capsys, argv, code, usage):
    with pytest.raises(SystemExit) as exc:
        run_command(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    assert (captured.out if code == 0 else captured.err).startswith(usage)


# argv that, between them, take each command down every path that reads a flag
EVERY_PATH = {
    "exact": [["--quantity", q] for q in QUANTITIES],
    "sample": [["--kind", k] for k in (*KINDS, "signed")],
    "table1": [[]],
    "table2": [[]],
    "verify": [["--suite", s] for s in SUITES],
    "diagnose": [["--which", w, "--n", "300", "--reps", "500", "--seed", "3"]
                 for w in ("clt", "gem")],
    "signed": [["--quantity", q] for q in SIGNED_QUANTITIES],
}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_every_accepted_flag_is_read(capsys, name):
    # the record lives outside the namespace, whose vars() the report echoes
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, attr):
            reads.add(attr)
            return super().__getattribute__(attr)

    parser = command_parser(name)
    for argv in EVERY_PATH[name]:
        args = Recording(**vars(parser.parse_args(argv)))  # argparse's own reads not counted
        assert args.func(args) == EXIT_OK, argv
    capsys.readouterr()
    accepted = {a.dest for a in parser._actions if a.dest != "help"}
    assert accepted - reads == set()


def test_main_exits_with_the_command_code(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["derange", "table1", "--format", "json"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == EXIT_OK
    assert len(json.loads(capsys.readouterr().out)["results"]) == 6


def test_env_seed_is_read_on_every_call(capsys, monkeypatch):
    for seed in ("11", "12"):
        monkeypatch.setenv("DERANGE_SEED", seed)
        code, out, _ = run(capsys, "sample", "--n", "5", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["config"]["seed"] == int(seed)


@pytest.mark.parametrize("argv, code", [
    (["table2", "--format", "json"], EXIT_OK),
    (["exact", "--quantity", "nonsense"], EXIT_UNKNOWN),
    ([], 2),
])
def test_module_entry_point(argv, code):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "derange.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    if argv[:1] == ["table2"]:
        assert [r["j"] for r in json.loads(proc.stdout)["results"]] == [3, 4, 5, 6, 7]
    elif not argv:
        assert proc.stdout == "" and proc.stderr.startswith("usage: derange [-h]")


def test_sample_deterministic(capsys):
    args = ("sample", "--kind", "eta", "--theta", "1", "--n", "4",
            "--seed", "1", "--reps", "3", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    words = json.loads(out1)["results"]
    assert len(words) == 3
    for w in words:
        assert len(w["word"]) == 4


def test_sample_words_are_library_replicates(capsys):
    common = ("--theta", "0.7", "--n", "9", "--seed", "5", "--reps", "4",
              "--format", "json")
    code, out, _ = run(capsys, "sample", "--kind", "eta", *common)
    assert code == EXIT_OK
    kind = ChainKind.eta(0.7)
    for r, w in enumerate(json.loads(out)["results"]):
        assert w["word"] == word_to_string(sample_path(kind, 9, 5, r))
    code, out, _ = run(capsys, "sample", "--kind", "signed", "--kappa", "0.3", *common)
    assert code == EXIT_OK
    for r, w in enumerate(json.loads(out)["results"]):
        word, perm = generate_signed(9, PSequence.eta(0.7), 0.3, 5, r)
        assert w == {"word": word.to_string(),
                     "circles": [list(c) for c in perm.circles]}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("kappa", ["0", "0.3", "1"])
def test_signed_sample_is_the_library_payload(capsys, fmt, kappa):
    # 1300 replicates at n = 50 are three blocks of the signed sampler; the
    # printed report is the one built from generate_signed_many's objects
    argv = ["sample", "--kind", "signed", "--n", "50", "--reps", "1300", "--kappa", kappa,
            "--seed", "8", "--format", fmt]
    p = PSequence.eta(1.0)
    assert sum(1 for _ in chains._signed_blocks(50, p, float(kappa), 8, range(1300))) >= 3
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    pairs = generate_signed_many(50, p, float(kappa), 8, range(1300))
    payload = [{"word": word.to_string(), "circles": [list(c) for c in perm.circles]}
               for word, perm in pairs]
    want = io.StringIO()
    cli.emit_report(payload, fmt, cli._config_echo(command_parser("sample").parse_args(argv[1:])),
                    stream=want)
    # as bytes, a mismatch reports its first differing byte, not a diff of the whole report
    assert out.encode() == want.getvalue().encode()


def test_table1_csv_header(capsys):
    code, out, _ = run(capsys, "table1", "--rounded", "--format", "csv")
    assert code == EXIT_OK
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0] == "j,limit,error_bound,theta_over_j"
    assert len(lines) == 7  # header + 6 rows
    assert lines[1].startswith("2,0.255318,")


def test_table2_shape(capsys):
    code, out, _ = run(capsys, "table2", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)["results"]
    assert [r["j"] for r in rows] == [3, 4, 5, 6, 7]
    for r in rows:
        assert set(r) == {"j", "n20", "n50", "n100"}


def test_table2_cells_match_the_oracle_dp(capsys):
    code, out, _ = run(capsys, "table2", "--format", "json")
    assert code == EXIT_OK
    kind = ChainKind.x(PSequence.eta(0.5))
    for r in json.loads(out)["results"]:
        for n in (20, 50, 100):
            dp = oracle.dp_moments(kind, n, targets=("var_cj",), j=r["j"])["var_cj"]
            assert abs(r[f"n{n}"] - dp) <= 5e-9 * dp, (r["j"], n, r[f"n{n}"], dp)


def test_json_roundtrip(capsys):
    code, out, _ = run(capsys, "exact", "--quantity", "gamma_n", "--n", "8",
                       "--theta", "0.5", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert json.loads(json.dumps(payload)) == payload


def test_verify_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "tv", "--n", "8",
                       "--format", "json")
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert all(r["passed"] for r in res)


def test_verify_pushforward_near_the_enumeration_cap(capsys):
    # 2^16 coin words per theta sequence, scored by the level sweep
    code, out, _ = run(capsys, "verify", "--suite", "pushforward", "--n", "18",
                       "--format", "json")
    assert code == EXIT_OK
    (res,) = json.loads(out)["results"]
    assert res["passed"] is True and res["max_tv"] < 1e-12


def test_verify_tv_at_the_enumeration_cap(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "tv", "--n", "22", "--format", "json")
    assert code == EXIT_OK
    (res,) = json.loads(out)["results"]
    assert res["passed"] is True and res["max_gap"] < 1e-12


@pytest.mark.parametrize("scale, code", [(1.0, EXIT_OK), (1.0 + 1e-9, EXIT_FAIL)])
def test_tv_suite_catches_one_perturbed_index(capsys, monkeypatch, scale, code):
    # the theorem side reads a table copy of p with p_7 (about n/2) scaled:
    # the copy alone passes, one part in 1e9 at one index fails the suite
    theorem = cli.tv_prefix

    def bent(m, p, method):
        assert method == "theorem"
        table = [p(i) * (scale if i == 7 else 1.0) for i in range(1, 40)]
        return theorem(m, PSequence.tabulated(table, tail_rule="constant"), method)

    monkeypatch.setattr(cli, "tv_prefix", bent)
    assert run(capsys, "verify", "--suite", "tv", "--n", "14")[0] == code


@pytest.mark.parametrize("n, horizons", [(2, [2]), (8, [4, 8]), (15, [7, 15])])
def test_pgf_suite_horizons_follow_n(capsys, monkeypatch, n, horizons):
    seen = []

    def recording(kind, m):
        seen.append(m)
        return k_distribution(kind, m)

    monkeypatch.setattr(cli, "k_distribution", recording)
    assert run(capsys, "verify", "--suite", "pgf", "--n", str(n))[0] == EXIT_OK
    assert seen == [m for m in horizons for _ in range(2)]  # the X and the Y chain


@pytest.mark.parametrize("offset, code", [(0.0, EXIT_OK), (1e-6, EXIT_FAIL)])
def test_variance_suite_checks_the_table2_path(capsys, monkeypatch, offset, code):
    monkeypatch.setattr(cli, "var_cj_horizons",
                        lambda kind, n, js: var_cj_horizons(kind, n, js) + offset)
    assert run(capsys, "verify", "--suite", "variance", "--n", "30")[0] == code


def test_verify_all_past_the_old_direct_cap(capsys):
    # the tv suite sweeps the words up to m = n once per family, and must
    # reach the n <= 22 the conditional and push-forward suites accept
    code, out, _ = run(capsys, "verify", "--suite", "all", "--n", "20", "--format", "json")
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert [r["suite"] for r in res] == list(SUITES)
    assert all(r["passed"] is True for r in res)


def test_signed_quantities(capsys):
    code, out, _ = run(capsys, "signed", "--quantity", "omega", "--k", "3",
                       "--i", "2", "--kappa", "0.5", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["results"] == pytest.approx(0.5)

    code, _, err = run(capsys, "signed", "--quantity", "nope")
    assert code == EXIT_UNKNOWN
    assert "ordered_star" in err


def test_signed_unknown_quantity_lists_the_table(capsys):
    code, out, err = run(capsys, "signed", "--quantity", "nope", "--format", "json")
    assert code == EXIT_UNKNOWN and out == ""
    assert err.strip().endswith("known: " + ", ".join(sorted(SIGNED_QUANTITIES)))


def test_verify_all_as_csv(capsys):
    # the conditional and push-forward suites report max_tv, the others
    # max_gap: the columns are the union of the rows' keys
    code, out, _ = run(capsys, "verify", "--suite", "all", "--n", "8", "--format", "csv")
    assert code == EXIT_OK
    header, *rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert header == "suite,max_tv,passed,max_gap"
    assert [r.split(",")[0] for r in rows] == list(SUITES) and len(rows) == 5


def test_json_report_is_one_line(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--n", "8", "--format", "json")
    assert code == EXIT_OK
    assert out.endswith("\n") and out.count("\n") == 1
    assert [r["suite"] for r in json.loads(out)["results"]] == list(SUITES)


def test_config_echoed_everywhere(capsys):
    for argv in (
        ("exact", "--quantity", "phi", "--i", "4", "--format", "json"),
        ("table1", "--format", "json"),
        ("signed", "--quantity", "omega", "--format", "json"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["config"]["command"] == argv[0]
        assert "version" in payload


def test_env_default_seed(capsys, monkeypatch):
    monkeypatch.setenv("DERANGE_SEED", "123")
    code, out, _ = run(capsys, "sample", "--kind", "eta", "--n", "5",
                       "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["config"]["seed"] == 123


def test_verify_passed_is_json_bool(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "variance", "--n", "12",
                       "--format", "json")
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert res[0]["passed"] is True
    assert '"passed": true' in out


def test_verify_failed_is_json_bool(capsys, monkeypatch):
    suite = SUITES["variance"]
    monkeypatch.setitem(SUITES, "variance", lambda args: (*suite(args)[:2], 0.0))
    code, out, _ = run(capsys, "verify", "--suite", "variance", "--n", "12",
                       "--format", "json")
    assert code == EXIT_FAIL
    (res,) = json.loads(out)["results"]
    assert res["passed"] is False
    assert '"passed": false' in out


def test_overflowed_limit_series_exit_code(capsys):
    code, out, err = run(capsys, "exact", "--quantity", "mean_cj_eta_limit",
                         "--theta", "20", "--j", "2", "--m", "60",
                         "--format", "json")
    assert code == EXIT_GUARD
    assert out == ""
    assert err.startswith("error:")


def test_diagnose_rejects_single_index_horizon(capsys):
    for which in ("gem", "clt"):
        code, out, err = run(capsys, "diagnose", "--which", which, "--n", "1",
                             "--reps", "50", "--format", "json")
        assert code == EXIT_GUARD, which
        assert out == ""
        assert err.startswith("error:")


@pytest.mark.parametrize("reps, fmt", [("0", "csv"), ("-2", "json")])
def test_sample_rejects_nonpositive_reps(capsys, reps, fmt):
    code, out, err = run(capsys, "sample", "--n", "6", "--reps", reps, "--format", fmt)
    assert code == EXIT_GUARD
    assert out == ""
    assert err.startswith("error:")


def test_lambda_esf_at_a_theta_below_the_float_spacing(capsys):
    code, out, _ = run(capsys, "exact", "--quantity", "lambda_esf", "--theta", "1e-17",
                       "--n", "5", "--format", "json")
    assert code == EXIT_OK
    assert 0.0 <= json.loads(out)["results"] <= 1.0


@pytest.mark.parametrize("argv, m", [
    (("mean_k_eta_limit",), 3),
    (("mean_k_eta_limit", "--m", "5"), 5),
    (("mean_k_eta_limit", "--method", "integral"), 0),
    (("mean_k_eta_limit", "--method", "pfq"), 0),
    (("mean_cj_eta_limit",), 2),
    (("mean_cj_eta_limit", "--method", "integral"), 0),
])
def test_limit_results_report_their_series_depth(capsys, argv, m):
    code, out, _ = run(capsys, "exact", "--quantity", *argv, "--theta", "0.5",
                       "--format", "json")
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert list(res) == ["value", "error_bound", "m"] and res["m"] == m


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("quantity", ["mean_k", "mean_cj", "var_cj", "pgf_k", "marginal_one"])
def test_every_kind_evaluates(capsys, quantity, kind):
    code, out, _ = run(capsys, "exact", "--quantity", quantity, "--kind", kind,
                       "--theta", "0.7", "--theta-family", "eta_star", "--n", "12",
                       "--format", "json")
    assert code == EXIT_OK
    assert math.isfinite(json.loads(out)["results"])


@pytest.mark.parametrize("kind", list(KINDS))
def test_every_kind_samples(capsys, kind):
    code, out, _ = run(capsys, "sample", "--kind", kind, "--theta-family", "eta_star",
                       "--n", "12", "--reps", "4", "--format", "json")
    assert code == EXIT_OK
    words = [w["word"] for w in json.loads(out)["results"]]
    assert len(words) == 4 and all(len(w) == 12 and w[-1] == "1" for w in words)


@pytest.mark.parametrize("theta", ["0", "-1"])
def test_lambda_esf_rejects_nonpositive_theta(capsys, theta):
    code, out, err = run(capsys, "exact", "--quantity", "lambda_esf", "--n", "2",
                         "--theta", theta, "--format", "json")
    assert code == EXIT_GUARD
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("delta_n", "--theta", "nan", "--n", "5"),
    ("delta_n", "--theta", "1e200", "--n", "10"),
    ("delta_n", "--theta", "inf", "--n", "0"),
    ("mean_k_eta", "--theta", "nan", "--n", "5"),
    ("mean_cj_eta", "--theta", "nan", "--n", "5", "--j", "5"),
    ("pgf_k", "--s", "inf", "--n", "5"),
    ("gamma_n", "--theta", "inf", "--n", "10"),
    ("gamma_n", "--theta", "1e200", "--theta-family", "eta_star", "--n", "10"),
])
def test_exact_rejects_non_finite_values(capsys, argv):
    code, out, err = run(capsys, "exact", "--quantity", *argv, "--format", "json")
    assert code == EXIT_GUARD
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("pgf_k", "--kind", "cond", "--n", "1"),
    ("pgf_k", "--kind", "cond", "--n", "0"),
    ("pgf_k", "--kind", "y", "--n", "0"),
    ("mean_k", "--kind", "y", "--n", "0"),
    ("var_cj", "--n", "1"),
    ("mean_cj", "--n", "1"),
    ("mean_cj_eta", "--n", "1"),
])
def test_exact_rejects_horizons_without_a_word(capsys, argv):
    code, out, err = run(capsys, "exact", "--quantity", *argv, "--format", "json")
    assert code == EXIT_GUARD
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("kind", ["cond", "y"], ids=["X", "Y"])
def test_pgf_kind_maps_to_a_chain_kind(capsys, kind):
    ts = ThetaSequence.constant(0.7)
    chain = (ChainKind.x(PSequence.from_theta_conditional(ts)) if kind == "cond"
             else ChainKind.y(ts))
    code, out, _ = run(capsys, "exact", "--quantity", "pgf_k", "--kind", kind,
                       "--theta", "0.7", "--s", "0.5", "--n", "9", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["results"] == pytest.approx(pgf_k(chain, 0.5, 9), rel=1e-8)


@pytest.mark.parametrize("name", sorted(QUANTITIES))
def test_every_quantity_evaluates(capsys, name):
    code, out, _ = run(capsys, "exact", "--quantity", name, "--n", "8", "--format", "json")
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert math.isfinite(res["value"] if isinstance(res, dict) else res)


@pytest.mark.parametrize("kind, p", [
    ("eta_tilde", PSequence.eta_tilde(0.7)),
    ("cond", PSequence.from_theta_conditional(ThetaSequence.eta_star(0.7))),
    ("push", PSequence.from_theta_pushforward(ThetaSequence.eta_star(0.7))),
])
def test_exact_p_sequence_kinds(capsys, kind, p):
    code, out, _ = run(capsys, "exact", "--quantity", "mean_k", "--kind", kind,
                       "--theta", "0.7", "--theta-family", "eta_star", "--n", "12",
                       "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["results"] == pytest.approx(mean_k(ChainKind.x(p), 12), rel=1e-8)


def test_text_is_the_default_format(capsys):
    code, out, _ = run(capsys, "exact", "--quantity", "lambda_esf", "--n", "4")
    assert code == EXIT_OK
    config, value = out.splitlines()
    assert config.startswith("# config: {") and config.endswith(f"(version {__version__})")
    assert value == "0.375"  # 9 of the 24 permutations of 4 are derangements
    code, out, _ = run(capsys, "exact", "--quantity", "mean_cj_eta_limit", "--j", "2",
                       "--theta", "0.5")
    assert code == EXIT_OK
    assert out.splitlines()[1].startswith("value=0.2553175")
    assert "  error_bound=" in out


@pytest.mark.parametrize("which", ["clt", "gem"])
def test_diagnose_reports_library_result(capsys, which):
    code, out, _ = run(capsys, "diagnose", "--which", which, "--n", "300", "--reps", "500",
                       "--seed", "3", "--format", "json")
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    if which == "clt":
        rep = clt_diagnostic(ChainKind.eta(1.0), 300, 500, 3)
        assert res["statistic"] == "K standardized (qbar, sample)"
    else:
        rep = gem_diagnostic(1.0, 300, 500, 3)
    assert res["statistic"] == rep.statistic and res["flags"] == []
    assert res["ks_stat"] == pytest.approx(rep.ks_stat, rel=1e-8)
    assert res["p_value"] == pytest.approx(rep.p_value, rel=1e-8)
    assert set(rep.extras) < set(res)


def test_signed_quantities_match_library(capsys):
    common = ("--n", "8", "--kappa", "0.4", "--format", "json")
    w = OrientationWeights.binomial(0.4)
    m = oracle.enumeration_moments(ChainKind.x(PSequence.eta(1.0)), 8)

    code, out, _ = run(capsys, "signed", "--quantity", "lambda", *common)
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert res["mean"] == pytest.approx(res["mean_identity"], rel=1e-8)
    assert math.fsum(res["law"].values()) == pytest.approx(1.0, abs=1e-8)

    code, out, _ = run(capsys, "signed", "--quantity", "cki", "--k", "3", "--i", "2",
                       "--l", "1", *common)
    assert code == EXIT_OK
    assert json.loads(out)["results"] == pytest.approx(
        cki_distribution(3, 2, 1, 8, m["c_laws"][3], w), rel=1e-8)

    code, out, _ = run(capsys, "signed", "--quantity", "cstar", "--i", "1", "--j", "2",
                       *common)
    assert code == EXIT_OK
    mean, cov = cstar_moments(1, 2, m["mean_c"], m["cov_c"], w)
    assert json.loads(out)["results"] == pytest.approx(
        {"mean_cstar_j": mean, "cov_cstar_ij": cov}, rel=1e-8)

    code, out, _ = run(capsys, "signed", "--quantity", "ordered_star", "--astar", "1,2",
                       *common)
    assert code == EXIT_OK
    assert json.loads(out)["results"] == pytest.approx(
        ordered_star_prob(ChainKind.y(ThetaSequence.constant(1.0)), (1, 2), 8, w), rel=1e-8)


def test_signed_lambda_at_large_n(capsys):
    # the capped K law keeps the binomial mixture to about 40 circle counts
    code, out, _ = run(capsys, "signed", "--quantity", "lambda", "--n", "10000",
                       "--kappa", "0.4", "--format", "json")
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert math.fsum(res["law"].values()) == pytest.approx(1.0, abs=1e-10)
    assert res["mean"] == pytest.approx(res["mean_identity"], rel=1e-10)


def test_signed_lambda_law_lists_positive_outcomes_in_integer_order(capsys):
    code, out, _ = run(capsys, "signed", "--quantity", "lambda", "--n", "12", "--kappa", "0.4",
                       "--theta", "0.5", "--format", "json")
    assert code == EXIT_OK
    got = json.loads(out)["results"]["law"]
    law, _ = lambda_total(12, 0.4, k_distribution(ChainKind.eta(0.5), 12))
    # no mass at 0 (a leader looks in), and "10" after "9", not after "1"
    assert list(got) == [str(k) for k in range(1, 13)] == list(map(str, law.codes.tolist()))
    assert list(got.values()) == [float(f"{v:.{cli._DIGITS}g}") for v in law.prob.tolist()]


def test_signed_cki_past_the_horizon(capsys):
    # no k-cycle fits when k > n, so C*_{k,i} = 0 with probability 1
    code, out, _ = run(capsys, "signed", "--quantity", "cki", "--k", "20", "--n", "10",
                       "--l", "0", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["results"] == 1.0


@pytest.mark.parametrize("argv, fragment", [
    (["signed", "--quantity", "cstar", "--n", "15"], "limited to n <= 14"),
    (["signed", "--quantity", "cki", "--n", "15"], "limited to n <= 14"),
    (["exact", "--quantity", "phi", "--kind", "y"], "needs a derangement chain"),
    (["exact", "--quantity", "tv_prefix", "--kind", "y"], "needs a derangement chain"),
    (["exact", "--quantity", "mean_k_eta_limit", "--m", "0"], "m must be >= 1"),
    (["exact", "--quantity", "mean_cj_eta_limit", "--m", "-1"], "m must be >= 0"),
    (["table1", "--m", "-1"], "m must be >= 0"),
    # --reps 1 would fail the diagnostics' own guard: alpha is checked first
    *((["diagnose", "--which", which, "--alpha", alpha, "--reps", "1"],
       "alpha must lie in (0, 1)")
      for which in ("clt", "gem") for alpha in ("-1", "0", "1", "2", "nan")),
])
def test_guard_rows_exit_3(capsys, argv, fragment):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, out) == (EXIT_GUARD, "")
    assert fragment in err


def test_signed_lambda_needs_a_derangement(capsys):
    code, _, err = run(capsys, "signed", "--quantity", "lambda", "--n", "1")
    assert code == EXIT_GUARD
    assert "n >= 2" in err


def test_sanitize_forms():
    import numpy as np

    from derange.cli import _sanitize

    class Thing:
        def __str__(self):
            return "thing"

    x = {"a": np.float64(0.1234567891234), 2: np.arange(3), "c": np.array([0.5, 1 / 3]),
         "b": [np.int64(3), np.bool_(True), (1, "x", None, False)], "d": 1 / 3,
         "e": Thing(), "f": {"g": (np.float32(0.25), True)}, "h": np.int8(-2)}
    got = _sanitize(x)
    assert got == {"a": 0.123456789, "2": [0, 1, 2], "c": [0.5, 0.333333333],
                   "b": [3, True, [1, "x", None, False]], "d": 0.333333333,
                   "e": "thing", "f": {"g": [0.25, True]}, "h": -2}
    assert [type(v) for v in got["b"][2]] == [int, str, type(None), bool]
    assert type(got["h"]) is int and type(got["a"]) is float and got["b"][1] is True
    json.dumps(got)
