import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from acquimech import (QualityGrid, build_score_model, discretize_prior, experiments,
                       instance_to_dict, multi_item, solve_som, validate_instance)
from acquimech import cli
from acquimech.cli import SOLVE_MECHANISMS, main

SRC = Path(__file__).resolve().parents[1] / "src"


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


def identity_instance_path(tmp_path, n, k):
    """An instance file: n equal steps on [0, 1], a perfect appraiser, k items."""
    grid = np.linspace(0.0, 1.0, n)
    inst = validate_instance(grid, grid, np.full(n, 1 / n), np.eye(n), 0.25)
    path = tmp_path / f"identity_{n}_k{k}.json"
    path.write_text(json.dumps(instance_to_dict(inst, k)))
    return str(path)


def never_built(*args, **kwargs):
    raise AssertionError("a refused LP was built")


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


@pytest.mark.parametrize("k", [2, 3])
def test_solve_output_is_json_dumps_with_indent_2(tmp_path, registry, k):
    """``solve`` writes its document with a formatter of its own; the bytes
    are those of ``json.dumps(doc, indent=2)``, for every mechanism on the
    six registry instances (RM at k = 2 only)."""
    for name, inst in registry.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(instance_to_dict(inst, item_count=k)))
        for mechanism in SOLVE_MECHANISMS:
            if mechanism == "rm" and k != 2:
                continue
            out_path = tmp_path / f"{name}_{mechanism}.json"
            assert main(["solve", "--instance", str(path), "--mechanism", mechanism,
                         "--out", str(out_path)]) == 0
            text = out_path.read_text()
            assert text == json.dumps(json.loads(text), indent=2)


@pytest.mark.parametrize("doc", [
    {}, [], {"a": [], "b": {}}, [1, 2.5, True, None, "\u00e9\n"], [float("nan"), 1.0],
    [float("inf"), -0.0, 5e-324, 1e300], [[], [1.0], [[2.0, 3.0]]], [1.0, [2.0]], [True, 1.0],
    {"v1_set": [0, 2], "alpha": 0.5, "tensors": [[[0.0, 1.0], [0.25, -0.0]]]}, 3, "s", None])
def test_json_formatter_matches_json_dumps(doc):
    assert cli._json(doc) == json.dumps(doc, indent=2)


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


@pytest.mark.parametrize("key, value", [
    ("V", [0.0, 1 / 3, 2 / 3, True]),
    ("t", "0.5"),
    ("d", ["0.25", "0.25", "0.25", "0.25"]),
], ids=["bool-in-values", "string-bar", "string-prior"])
def test_solve_non_number_entries_are_bad_input(capsys, tmp_path, example1, key, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**instance_to_dict(example1), key: value}))
    code, out, err = run(capsys, "solve", "--instance", str(path),
                         "--mechanism", "som")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_bool_matrix_is_bad_input(capsys, tmp_path, example1_path):
    matrix_path = tmp_path / "bool.json"
    matrix_path.write_text(json.dumps([[True] * 4] * 4))
    code, out, err = run(capsys, "verify", "--instance", example1_path,
                         "--matrix", str(matrix_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_solve_rm_refusal_is_the_solvers_message(capsys, example1_path):
    """``ranking_mechanism`` owns the k = 2 rule; ``solve`` prints its words."""
    got = run(capsys, "solve", "--instance", example1_path, "--mechanism", "rm")
    assert got == (2, "", "error: ranking mechanism requires a k=2 instance\n")


def test_solve_maps_only_a_solvers_value_error_to_bad_input(capsys, example1_path,
                                                            monkeypatch):
    """A ValueError from a solver is input it refuses: exit 2, one line.  Any
    other error, such as a failed LP's RuntimeError, is not bad input and
    propagates."""
    def refuse(solved):
        raise ValueError("refused input")

    def fail(solved):
        raise RuntimeError("LP not optimal")

    monkeypatch.setitem(experiments.REGISTRY, "SOM", refuse)
    monkeypatch.setitem(experiments.REGISTRY, "TMM", fail)
    got = run(capsys, "solve", "--instance", example1_path, "--mechanism", "som")
    assert got == (2, "", "error: refused input\n")
    with pytest.raises(RuntimeError, match="LP not optimal"):
        main(["solve", "--instance", example1_path, "--mechanism", "tmm"])
    assert capsys.readouterr().out == ""


def test_solve_unknown_mechanism(capsys, example1_path):
    code, _, err = run(capsys, "solve", "--instance", example1_path,
                       "--mechanism", "vcg")
    assert code == 2 and "unknown mechanism" in err


def test_solve_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "solve", "--instance", str(tmp_path / "no.json"),
                       "--mechanism", "som")
    assert code == 2 and "cannot read" in err


def test_solve_budget_exceeded(capsys, tmp_path, monkeypatch):
    """27 levels at k = 2 are 1,062,882 policy cells, over MAX_POLICY_CELLS."""
    monkeypatch.setattr(multi_item, "_omk_pattern", never_built)
    path = identity_instance_path(tmp_path, 27, 2)
    code, out, err = run(capsys, "solve", "--instance", path, "--mechanism", "omk")
    assert code == 3 and out == "" and "1062882 cells" in err


def test_solve_rm_refuses_large_joint_weights_before_building(capsys, tmp_path, monkeypatch):
    """32 levels at k = 2 are 2,097,152 cells of joint weights, over
    MAX_POLICY_CELLS: the ranking mechanism exits 3 as omk, um-tmm and
    umopt do."""
    monkeypatch.setattr(multi_item, "joint_weights", never_built)
    path = identity_instance_path(tmp_path, 32, 2)
    code, out, err = run(capsys, "solve", "--instance", path, "--mechanism", "rm")
    assert code == 3 and out == "" and "2097152 cells" in err


def test_solve_omk_refuses_large_ic_rows_before_building(capsys, tmp_path, monkeypatch):
    """OMk with one item is OM1, solved whole: at 220 levels its LP holds
    21,343,960 entries, over MAX_IC_ENTRIES."""
    monkeypatch.setattr(multi_item, "_ic_monotone_entries", never_built)
    path = identity_instance_path(tmp_path, 220, 1)
    code, out, err = run(capsys, "solve", "--instance", path, "--mechanism", "omk")
    assert code == 3 and out == "" and "21343960 pattern entries" in err


def test_solve_omk_exits_3_when_row_generation_passes_the_limit(capsys, tmp_path,
                                                                 monkeypatch):
    """Under a limit that admits the (4, 3) start model and no generated
    row, the solve's oracle refuses the first rows it would add: exit 3,
    nothing on stdout, no file written."""
    grid = np.linspace(0.0, 1.0, 4)
    inst = validate_instance(grid, grid, discretize_prior("normal", 0.3, 0.25, grid),
                             build_score_model("normal", 0.3, QualityGrid(grid, grid)), 0.25)
    path, out_path = tmp_path / "paper_n4_k3.json", tmp_path / "omk.json"
    path.write_text(json.dumps(instance_to_dict(inst, item_count=3)))
    limit = multi_item.omk_size(4, 4, 3)[1]
    monkeypatch.setattr(multi_item, "MAX_IC_ENTRIES", limit)
    code, out, err = run(capsys, "solve", "--instance", str(path), "--mechanism", "omk",
                         "--out", str(out_path))
    assert code == 3 and out == "" and not out_path.exists()
    assert err.startswith("error: LP would hold ") and f"over the limit of {limit}" in err


def test_solve_umopt_refuses_large_ic_rows_before_building(capsys, tmp_path, monkeypatch):
    """UMOPT's IC rows are the one-item block, whose pattern holds
    21,343,960 entries at 220 levels, over MAX_IC_ENTRIES."""
    monkeypatch.setattr(multi_item, "_ic_monotone_entries", never_built)
    path = identity_instance_path(tmp_path, 220, 1)
    code, out, err = run(capsys, "solve", "--instance", path, "--mechanism", "umopt")
    assert code == 3 and out == "" and "21343960 pattern entries" in err


def test_solve_umopt_at_seven_levels_and_three_items(capsys, tmp_path):
    """The sweep's instance at (7, 3), variance 0.3: UMOPT is solved by
    cutting planes over its one-item component."""
    grid = np.linspace(0.0, 1.0, 7)
    inst = validate_instance(grid, grid, discretize_prior("normal", 0.3, 0.25, grid),
                             build_score_model("normal", 0.3, QualityGrid(grid, grid)), 0.25)
    path, out_path = tmp_path / "paper_k3.json", tmp_path / "umopt.json"
    path.write_text(json.dumps(instance_to_dict(inst, item_count=3)))
    code, out, _ = run(capsys, "solve", "--instance", str(path), "--mechanism", "umopt",
                       "--out", str(out_path))
    summary = json.loads(out_path.read_text())["summary"]
    assert code == 0 and out == ""
    assert summary["ic"] is True and summary["monotone"] is True


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


GOLDEN = Path(__file__).resolve().parent / "golden"

#: A matrix that fails IC and monotonicity on example1.
NON_IC_MATRIX = [[0.9, 0.1, 0.5, 0.2], [0.0, 0.3, 0.2, 0.8],
                 [0.6, 0.6, 0.1, 0.4], [0.2, 0.7, 0.9, 0.3]]


@pytest.mark.parametrize("matrix, code", [("published", 0), ("som", 1), ("non_ic", 1)])
def test_verify_output_is_golden(capsys, tmp_path, example1, example1_path,
                                 example1_matrix, matrix, code):
    """The rendered reports, byte for byte as recorded in tests/golden: one
    that passes, one with monotone violations, one with both kinds."""
    rows = {"published": example1_matrix.tolist(),
            "som": solve_som(example1).matrix.tolist(), "non_ic": NON_IC_MATRIX}[matrix]
    matrix_path = tmp_path / "x.json"
    matrix_path.write_text(json.dumps(rows))
    got = run(capsys, "verify", "--instance", example1_path, "--matrix", str(matrix_path))
    assert got == (code, (GOLDEN / f"verify_example1_{matrix}.json").read_text(), "")


def test_solve_rm_output_is_golden(capsys, tmp_path, registry):
    """RM on thm7 with two items, whose audit finds violations, byte for
    byte as recorded in tests/golden."""
    path = tmp_path / "thm7.json"
    path.write_text(json.dumps(instance_to_dict(registry["thm7"], item_count=2)))
    got = run(capsys, "solve", "--instance", str(path), "--mechanism", "rm")
    assert got == (0, (GOLDEN / "solve_thm7_k2_rm.json").read_text(), "")


def test_verify_dimension_mismatch(capsys, tmp_path, example1_path):
    matrix_path = tmp_path / "bad.json"
    matrix_path.write_text(json.dumps(np.zeros((2, 2)).tolist()))
    code, _, err = run(capsys, "verify", "--instance", example1_path,
                       "--matrix", str(matrix_path))
    assert code == 2 and "does not match" in err


def test_verify_wrong_shape_names_both_shapes(capsys, tmp_path, example1_path):
    matrix_path = tmp_path / "bad.json"
    matrix_path.write_text(json.dumps(np.zeros((3, 4)).tolist()))
    code, out, err = run(capsys, "verify", "--instance", example1_path,
                         "--matrix", str(matrix_path))
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and "(3, 4)" in err and "(4, 4)" in err


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
    {"prior_mean": "0.3"},
    {"variance_grid": [0.0, True]},
    {"V": [0.0, "0.5", 1.0]},
    {"family": "lognormal", "prior_mean": -1.0},
    {"family": "lognormal", "prior_mean": 0.0},
], ids=["negative-sd", "nan-mean", "duplicate-values", "mass-off-grid",
        "empty-variance-grid", "fractional-k", "bool-k", "bool-mean", "bool-sd",
        "bool-bar", "string-mean", "bool-in-variance-grid", "string-in-values",
        "lognormal-negative-mean", "lognormal-zero-mean"])
def test_sweep_bad_config_values_are_bad_input(capsys, tmp_path, bad):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({**SWEEP_CONFIG, **bad}))
    out_csv = tmp_path / "x.csv"
    code, out, err = run(capsys, "sweep", "--config", str(config_path),
                         "--out", str(out_csv))
    assert code == 2 and out == "" and not out_csv.exists()
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("mechanisms", ["OMk", {"OMk": 1}], ids=["string", "object"])
def test_sweep_mechanisms_must_be_a_list_of_names(capsys, tmp_path, mechanisms):
    """A string is not split into characters, nor an object read as its
    keys: both are bad input, named as such."""
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({**SWEEP_CONFIG, "mechanisms": mechanisms}))
    out_csv = tmp_path / "x.csv"
    code, out, err = run(capsys, "sweep", "--config", str(config_path),
                         "--out", str(out_csv))
    assert code == 2 and out == "" and not out_csv.exists()
    assert err == f"error: mechanisms must be a list of names, got {mechanisms!r}\n"


@pytest.mark.parametrize("field, value", [
    ("variance_grid", [0.1, float("nan")]), ("variance_grid", [float("inf")]),
    ("prior_mean", float("nan")), ("prior_sd", float("inf"))],
    ids=["nan-in-variance-grid", "inf-variance-grid", "nan-mean", "inf-sd"])
def test_sweep_names_the_non_finite_setting(capsys, tmp_path, field, value):
    """A NaN or infinite prior or variance is refused before any solve, by
    the name of its config key."""
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({**SWEEP_CONFIG, field: value}))
    out_csv = tmp_path / "x.csv"
    code, out, err = run(capsys, "sweep", "--config", str(config_path),
                         "--out", str(out_csv))
    assert code == 2 and out == "" and not out_csv.exists()
    assert err.startswith(f"error: {field} must be finite")


@pytest.mark.parametrize("command", ["solve", "gen", "sweep"])
def test_unwritable_out_is_bad_input(capsys, tmp_path, example1_path, command):
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(SWEEP_CONFIG))
    argv = {"solve": ["--instance", example1_path, "--mechanism", "som"],
            "gen": [], "sweep": ["--config", str(config_path)]}[command]
    out_path = tmp_path / "missing" / "out"
    code, out, err = run(capsys, command, *argv, "--out", str(out_path))
    assert code == 2 and out == "" and not out_path.parent.exists()
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sweep_refuses_unwritable_out_before_running(capsys, tmp_path, monkeypatch):
    """A missing directory or a directory as --out exits 2 before the sweep
    runs, and leaves no file behind."""
    def never_run(config):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(experiments, "run_sweep", never_run)
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(SWEEP_CONFIG))
    for out_path in (tmp_path / "missing" / "out.csv", tmp_path):
        code, out, err = run(capsys, "sweep", "--config", str(config_path),
                             "--out", str(out_path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {out_path}") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [config_path]


@pytest.mark.parametrize("mechanisms", [["OMk", "UMOPT"], ["UMOPT", "OMk"]])
def test_sweep_refuses_large_ic_rows_before_building(capsys, tmp_path, monkeypatch,
                                                     mechanisms):
    """Nine levels at k = 3 are refused before either LP of the point is
    built, for the policy cells of the LP the config lists first: OMk's
    1,594,323, or UMOPT's, which count its component's 243 too.  (Seven
    levels, once refused for OMk's dense IC rows, now solve.)"""
    cells = {"OMk": 1594323, "UMOPT": 1594566}[mechanisms[0]]
    for name in ("_umopt_problem", "_omk_pattern", "omk_problem"):
        monkeypatch.setattr(multi_item, name, never_built)
    grid = [i / 8 for i in range(9)]
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps({**SWEEP_CONFIG, "V": grid, "S": grid, "k": 3,
                                       "mechanisms": mechanisms}))
    code, out, err = run(capsys, "sweep", "--config", str(config_path),
                         "--out", str(tmp_path / "x.csv"))
    assert code == 3 and out == "" and f"policy of {cells} cells" in err


def test_sweep_csv_does_not_depend_on_the_shape_cache(capsys, tmp_path):
    """Every LP mechanism at k = 2 on two variances, on a cold and then a
    warm shape cache: the same CSV bytes."""
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps({**SWEEP_CONFIG, "k": 2, "mechanisms": [
        "SOM", "TMM", "OM1", "kxOM1", "UM_TMM", "UMOPT", "OMk"]}))
    multi_item._PATTERNS.clear()
    for name in ("cold.csv", "warm.csv"):
        code, _, _ = run(capsys, "sweep", "--config", str(config_path),
                         "--out", str(tmp_path / name))
        assert code == 0 and multi_item._PATTERNS
    assert (tmp_path / "cold.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()


def test_sweep_config_ignores_extra_keys(capsys, tmp_path):
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps({**SWEEP_CONFIG, "seed": 3}))
    code, _, _ = run(capsys, "sweep", "--config", str(config_path),
                     "--out", str(tmp_path / "x.csv"))
    assert code == 0


@pytest.mark.parametrize("argv", [["--levels", "1"], ["--levels", "0"],
                                  ["--levels", "1", "--consistent"],
                                  ["--k", "0"], ["--k", "-2"], ["--seed", "-1"]])
def test_gen_bad_arguments_are_bad_input(capsys, tmp_path, argv):
    out_path = tmp_path / "inst.json"
    code, out, err = run(capsys, "gen", *argv, "--out", str(out_path))
    assert code == 2 and out == "" and not out_path.exists()
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("consistent", [[], ["--consistent"]], ids=["random", "consistent"])
def test_gen_refuses_more_levels_than_it_can_draw(tmp_path, consistent):
    """A grid is redrawn until its gaps are all at least 1e-3, which 200
    uniform draws practically never meet; the run must end, not hang."""
    out_path = tmp_path / "inst.json"
    proc = subprocess.run(
        [sys.executable, "-m", "acquimech", "gen", "--levels", "200", *consistent,
         "--out", str(out_path)],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC), os.environ.get("PYTHONPATH", "")])})
    assert proc.returncode == 2 and proc.stdout == "" and not out_path.exists()
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_gen_failed_write_is_bad_input(capsys):
    """/dev/full passes the up-front check and fails the write itself."""
    code, out, err = run(capsys, "gen", "--out", "/dev/full")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write /dev/full: [Errno 28] ")
    assert err.count("\n") == 1


def test_out_without_write_permission_is_bad_input(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    out_path = tmp_path / "inst.json"
    code, out, err = run(capsys, "gen", "--out", str(out_path))
    assert code == 2 and out == "" and not out_path.exists()
    assert err == f"error: cannot write {out_path}: permission denied\n"


def test_gen_produces_loadable_instance(capsys, tmp_path):
    out_path = tmp_path / "inst.json"
    code, _, _ = run(capsys, "gen", "--seed", "7", "--consistent",
                     "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "solve", "--instance", str(out_path),
                       "--mechanism", "som")
    assert code == 0
    assert json.loads(out)["summary"]["ic"] is True
