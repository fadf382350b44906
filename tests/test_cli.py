import json
import math

import pytest

from derange import __version__, oracle
from derange.chains import ChainKind, generate_signed, sample_path, word_to_string
from derange.moments import mean_k
from derange.montecarlo import clt_diagnostic, gem_diagnostic
from derange.params import PSequence, ThetaSequence
from derange.signed_stats import (
    OrientationWeights,
    cki_distribution,
    cstar_moments,
    ordered_star_prob,
)
from derange.cli import (
    EXIT_GUARD,
    EXIT_OK,
    EXIT_UNKNOWN,
    QUANTITIES,
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


def test_exact_unknown_quantity(capsys):
    code, _, err = run(capsys, "exact", "--quantity", "nonsense")
    assert code == EXIT_UNKNOWN
    for name in QUANTITIES:
        assert name in err


def test_guard_violation_exit_code(capsys):
    code, _, err = run(capsys, "exact", "--quantity", "delta_n", "--theta", "-1")
    assert code == EXIT_GUARD
    assert "error" in err


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


def test_signed_quantities(capsys):
    code, out, _ = run(capsys, "signed", "--quantity", "omega", "--k", "3",
                       "--i", "2", "--kappa", "0.5", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["results"] == pytest.approx(0.5)

    code, _, err = run(capsys, "signed", "--quantity", "nope")
    assert code == EXIT_UNKNOWN
    assert "ordered_star" in err


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
    assert json.loads(out)["results"] == pytest.approx(mean_k(12, p), rel=1e-8)


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
        rep = clt_diagnostic(PSequence.eta(1.0), 300, 500, 3)
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
    provider = oracle.ExactCycleProvider(ChainKind.x(PSequence.eta(1.0)), 8)

    code, out, _ = run(capsys, "signed", "--quantity", "lambda", *common)
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert res["mean"] == pytest.approx(res["mean_identity"], rel=1e-8)
    assert math.fsum(res["law"].values()) == pytest.approx(1.0, abs=1e-8)

    code, out, _ = run(capsys, "signed", "--quantity", "cki", "--k", "3", "--i", "2",
                       "--l", "1", *common)
    assert code == EXIT_OK
    assert json.loads(out)["results"] == pytest.approx(
        cki_distribution(3, 2, 1, 8, provider.c_law(3), w), rel=1e-8)

    code, out, _ = run(capsys, "signed", "--quantity", "cstar", "--i", "1", "--j", "2",
                       *common)
    assert code == EXIT_OK
    mean, cov = cstar_moments(1, 2, 8, provider, w)
    assert json.loads(out)["results"] == pytest.approx(
        {"mean_cstar_j": mean, "cov_cstar_ij": cov}, rel=1e-8)

    code, out, _ = run(capsys, "signed", "--quantity", "ordered_star", "--astar", "1,2",
                       *common)
    assert code == EXIT_OK
    assert json.loads(out)["results"] == pytest.approx(
        ordered_star_prob((1, 2), 8, ThetaSequence.constant(1.0), w), rel=1e-8)


def test_signed_cki_past_the_horizon(capsys):
    # no k-cycle fits when k > n, so C*_{k,i} = 0 with probability 1
    code, out, _ = run(capsys, "signed", "--quantity", "cki", "--k", "20", "--n", "10",
                       "--l", "0", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["results"] == 1.0


def test_signed_lambda_needs_a_derangement(capsys):
    code, _, err = run(capsys, "signed", "--quantity", "lambda", "--n", "1")
    assert code == EXIT_GUARD
    assert "n >= 2" in err
