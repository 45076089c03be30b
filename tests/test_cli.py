import json

import numpy as np
import pytest

from acquimech import instance_to_dict, solve_som
from acquimech.cli import SOLVE_MECHANISMS, main


@pytest.fixture()
def example1_path(tmp_path, example1):
    path = tmp_path / "example1.json"
    path.write_text(json.dumps(instance_to_dict(example1)))
    return str(path)


@pytest.fixture()
def example1_k2_path(tmp_path, example1):
    path = tmp_path / "example1_k2.json"
    path.write_text(json.dumps(instance_to_dict(example1, item_count=2)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_som(capsys, example1_path):
    code, out, _ = run(capsys, "solve", "--instance", example1_path,
                       "--mechanism", "som")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["reward"] == pytest.approx(0.00487479, abs=1e-6)
    assert doc["summary"]["monotone"] is False
    assert doc["summary"]["ic"] is True


def test_solve_om1(capsys, example1_path):
    code, out, _ = run(capsys, "solve", "--instance", example1_path,
                       "--mechanism", "om1")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["reward"] == pytest.approx(0.0017039, abs=1e-6)
    assert doc["summary"]["ic"] and doc["summary"]["monotone"]


#: (label, reward key, value) for example1 with k = 2, recorded before
#: ``solve`` dispatched through ``experiments.REGISTRY``; rm reports its
#: audit instead of a reward.
SOLVE_EXPECTED = {
    "som": ("SOM", "reward", 0.004874791874791862),
    "tmm": ("TMM", "reward", 0.0017038765831869228),
    "om1": ("OM1", "reward", 0.0017038765831869458),
    "omk": ("OMk", "reward_total", 0.03900918335107906),
    "um-tmm": ("UM_TMM", "reward_total", 0.014613467521741853),
    "um-om1": ("UM_OM1", "reward_total", 0.015838491252842073),
    "umopt": ("UMOPT", "reward_total", 0.02588086854473735),
    "rm": ("RM", None, None),
}


@pytest.mark.parametrize("name", SOLVE_MECHANISMS)
def test_solve_every_mechanism(capsys, example1_k2_path, name):
    code, out, _ = run(capsys, "solve", "--instance", example1_k2_path,
                       "--mechanism", name)
    assert code == 0
    doc = json.loads(out)
    label, key, value = SOLVE_EXPECTED[name]
    assert doc["mechanism"] == label
    if key is None:
        assert doc["summary"]["ic"] is False and doc["summary"]["violations"]
    else:
        assert doc["summary"][key] == pytest.approx(value, abs=1e-9)
        assert doc["summary"]["ic"] is True


def test_solve_non_finite_bar_is_bad_input(capsys, tmp_path, example1):
    doc = instance_to_dict(example1)
    doc["t"] = float("nan")
    path = tmp_path / "nan_bar.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", "--instance", str(path),
                         "--mechanism", "om1")
    assert code == 2
    assert out == "" and "finite" in err


@pytest.mark.parametrize("k", [2.7, True])
def test_solve_non_integral_k_is_bad_input(capsys, tmp_path, example1, k):
    path = tmp_path / "fractional_k.json"
    path.write_text(json.dumps({**instance_to_dict(example1), "k": k}))
    code, out, err = run(capsys, "solve", "--instance", str(path),
                         "--mechanism", "om1")
    assert code == 2
    assert out == "" and "positive integer" in err


def test_solve_bool_bar_is_bad_input(capsys, tmp_path, example1):
    path = tmp_path / "bool_bar.json"
    path.write_text(json.dumps({**instance_to_dict(example1), "t": True}))
    code, out, err = run(capsys, "solve", "--instance", str(path),
                         "--mechanism", "som")
    assert code == 2
    assert out == "" and "must be a number" in err


def test_verify_nan_matrix_is_bad_input(capsys, tmp_path, example1_path):
    matrix_path = tmp_path / "nan.json"
    matrix_path.write_text(json.dumps(np.full((4, 4), np.nan).tolist()))
    code, out, err = run(capsys, "verify", "--instance", example1_path,
                         "--matrix", str(matrix_path))
    assert code == 2
    assert out == "" and "outside [0, 1]" in err


def test_solve_rm_requires_two_items(capsys, example1_path):
    code, out, err = run(capsys, "solve", "--instance", example1_path,
                         "--mechanism", "rm")
    assert code == 2
    assert out == "" and "k=2" in err


def test_solve_unknown_mechanism(capsys, example1_path):
    code, _, err = run(capsys, "solve", "--instance", example1_path,
                       "--mechanism", "vcg")
    assert code == 2 and "unknown mechanism" in err


def test_solve_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "solve", "--instance", str(tmp_path / "no.json"),
                       "--mechanism", "som")
    assert code == 2 and "cannot read" in err


def test_solve_budget_exceeded(capsys, example1_k2_path, monkeypatch):
    monkeypatch.setenv("ACQUIMECH_SIZE_BUDGET", "10")
    code, _, err = run(capsys, "solve", "--instance", example1_k2_path,
                       "--mechanism", "omk")
    assert code == 3 and "budget" in err


def test_verify_published_matrix(capsys, tmp_path, example1_path, example1_matrix):
    matrix_path = tmp_path / "x.json"
    matrix_path.write_text(json.dumps(example1_matrix.tolist()))
    code, out, _ = run(capsys, "verify", "--instance", example1_path,
                       "--matrix", str(matrix_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["ic"]["passed"] and doc["monotone"]["passed"]


def test_verify_som_matrix_fails_monotonicity(capsys, tmp_path, example1,
                                              example1_path):
    matrix_path = tmp_path / "som.json"
    matrix_path.write_text(json.dumps(solve_som(example1).matrix.tolist()))
    code, out, _ = run(capsys, "verify", "--instance", example1_path,
                       "--matrix", str(matrix_path))
    assert code == 1
    doc = json.loads(out)
    assert doc["ic"]["passed"] is True
    assert doc["monotone"]["passed"] is False
    assert doc["monotone"]["violations"]


def test_verify_dimension_mismatch(capsys, tmp_path, example1_path):
    matrix_path = tmp_path / "bad.json"
    matrix_path.write_text(json.dumps(np.zeros((2, 2)).tolist()))
    code, _, err = run(capsys, "verify", "--instance", example1_path,
                       "--matrix", str(matrix_path))
    assert code == 2 and "does not match" in err


def test_solve_verify_round_trip(capsys, tmp_path, example1_path):
    out_path = tmp_path / "om1.json"
    code, _, _ = run(capsys, "solve", "--instance", example1_path,
                     "--mechanism", "om1", "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--instance", example1_path,
                       "--matrix", str(out_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["ic"]["passed"] and doc["monotone"]["passed"]


def test_rate_command(capsys, tmp_path, example1, example1_path):
    matrix_path = tmp_path / "som.json"
    matrix_path.write_text(json.dumps(solve_som(example1).matrix.tolist()))
    code, out, _ = run(capsys, "rate", "--instance", example1_path,
                       "--matrix", str(matrix_path))
    assert code == 0
    doc = json.loads(out)
    assert np.allclose(doc["per_quality"], example1.score_model[:, 2])
    assert 0.0 <= doc["overall"] <= 1.0


def test_paper_known_good_reproductions(capsys):
    for name in ("example1", "thm7"):
        code, out, _ = run(capsys, "paper", name)
        assert code == 0, name
        rows = json.loads(out)
        assert rows and all(row["pass"] for row in rows)


def test_paper_reports_known_mismatch(capsys):
    # the published two-menu targets do not reproduce under the printed
    # prior; the command must say so and exit 1
    code, out, _ = run(capsys, "paper", "thm6_tmm_vs_som")
    assert code == 1
    rows = json.loads(out)
    failing = [r for r in rows if not r["pass"]]
    assert [r["check"] for r in failing] == ["tmm_reward"]


def test_paper_unknown_name(capsys):
    code, _, err = run(capsys, "paper", "nonexistent")
    assert code == 2 and "unknown" in err


def test_paper_all_runs_every_registered_instance(capsys):
    code, out, _ = run(capsys, "paper", "all")
    assert code == 1             # honest: some published targets mismatch
    rows = json.loads(out)
    assert {row["instance"] for row in rows} == {
        "example1", "thm6_om1_vs_tmm", "thm6_tmm_vs_som", "thm7",
        "thm9_omk_vs_um", "thm9_um_vs_kxom1"}


def test_sweep_command(capsys, tmp_path):
    config = {
        "family": "lognormal", "prior_mean": 0.3, "prior_sd": 0.25,
        "variance_grid": [0.0, 0.3], "V": [0.0, 0.5, 1.0],
        "S": [0.0, 0.5, 1.0], "t": 0.25, "mechanisms": ["SOM", "TMM"],
    }
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(config))
    out_csv = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", "--config", str(config_path),
                       "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 2
    assert lines[1].startswith("lognormal,0,SOM,")


def test_sweep_rejects_bad_config(capsys, tmp_path):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"family": "normal"}))
    code, _, err = run(capsys, "sweep", "--config", str(config_path),
                       "--out", str(tmp_path / "x.csv"))
    assert code == 2 and "malformed" in err


SWEEP_CONFIG = {
    "family": "normal", "prior_mean": 0.3, "prior_sd": 0.25,
    "variance_grid": [0.0, 0.3], "V": [0.0, 0.5, 1.0],
    "S": [0.0, 0.5, 1.0], "t": 0.25, "mechanisms": ["SOM", "TMM"],
}


@pytest.mark.parametrize("bad", [
    {"prior_sd": -1.0},
    {"prior_mean": float("nan")},
    {"V": [0.0, 0.5, 0.5]},
    {"prior_mean": 50.0, "prior_sd": 0.01},    # no mass on the grid
    {"variance_grid": []},
    {"k": 2.5},
    {"k": True},
    {"prior_mean": True},
    {"prior_sd": True},
    {"t": True},
], ids=["negative-sd", "nan-mean", "duplicate-values", "mass-off-grid",
        "empty-variance-grid", "fractional-k", "bool-k", "bool-mean", "bool-sd",
        "bool-bar"])
def test_sweep_bad_config_values_are_bad_input(capsys, tmp_path, bad):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({**SWEEP_CONFIG, **bad}))
    out_csv = tmp_path / "x.csv"
    code, out, err = run(capsys, "sweep", "--config", str(config_path),
                         "--out", str(out_csv))
    assert code == 2 and out == "" and not out_csv.exists()
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sweep_config_ignores_extra_keys(capsys, tmp_path):
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps({**SWEEP_CONFIG, "seed": 3}))
    code, _, _ = run(capsys, "sweep", "--config", str(config_path),
                     "--out", str(tmp_path / "x.csv"))
    assert code == 0


@pytest.mark.parametrize("argv", [["--levels", "1"], ["--levels", "0"],
                                  ["--levels", "1", "--consistent"],
                                  ["--k", "0"], ["--k", "-2"]])
def test_gen_bad_arguments_are_bad_input(capsys, tmp_path, argv):
    out_path = tmp_path / "inst.json"
    code, out, err = run(capsys, "gen", *argv, "--out", str(out_path))
    assert code == 2 and out == "" and not out_path.exists()
    assert err.startswith("error: ") and err.count("\n") == 1


def test_gen_produces_loadable_instance(capsys, tmp_path):
    out_path = tmp_path / "inst.json"
    code, _, _ = run(capsys, "gen", "--seed", "7", "--consistent",
                     "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "solve", "--instance", str(out_path),
                       "--mechanism", "som")
    assert code == 0
    assert json.loads(out)["summary"]["ic"] is True
