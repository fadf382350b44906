import json

import pytest

from derange.chains import ChainKind, generate_signed, sample_path, word_to_string
from derange.params import PSequence
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
