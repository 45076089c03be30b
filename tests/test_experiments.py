import io
import math
from collections import Counter

import numpy as np
import pytest
from scipy import integrate, stats

from acquimech import (SweepConfig, build_score_model, discretize_prior,
                       omniscient_reward, paper_checks, run_sweep, single_item,
                       validate_instance, write_sweep_csv)
from acquimech.core import QualityGrid
from acquimech.experiments import LOGNORMAL_MEAN_FLOOR, _cell_edges

GRID7 = tuple(i / 6 for i in range(7))
PRINTED_D7 = [0.1377, 0.245, 0.2804, 0.2054, 0.0968, 0.0291, 0.0057]


def test_normal_prior_matches_published_seven_level_vector():
    d = discretize_prior("normal", 0.3, 0.25, GRID7)
    assert np.abs(d - PRINTED_D7).max() < 0.02
    assert d.sum() == pytest.approx(1.0, abs=1e-12)


def test_zero_sd_is_point_mass_at_grid_value():
    d = discretize_prior("normal", GRID7[2], 0.0, GRID7)
    assert np.array_equal(d, np.eye(7)[2])
    # boundary ties go to the lower cell
    boundary = (GRID7[2] + GRID7[3]) / 2
    d = discretize_prior("normal", boundary, 0.0, GRID7)
    assert np.array_equal(d, np.eye(7)[2])


def test_symmetric_normal_gives_palindrome():
    d = discretize_prior("normal", 0.5, 0.2, GRID7)
    assert np.allclose(d, d[::-1], atol=1e-12)


def test_discretizer_input_validation():
    with pytest.raises(ValueError):
        discretize_prior("normal", 0.3, -0.1, GRID7)
    with pytest.raises(ValueError):
        discretize_prior("cauchy", 0.3, 0.1, GRID7)


def test_renormalization_preserves_cell_ratios():
    lo, hi = _cell_edges(np.array(GRID7))
    raw = stats.norm.cdf(hi, 0.3, 0.25) - stats.norm.cdf(lo, 0.3, 0.25)
    assert 0.0 < raw.sum() <= 1.0
    d = discretize_prior("normal", 0.3, 0.25, GRID7)
    assert np.allclose(d, raw / raw.sum(), atol=1e-15)


def test_lognormal_moment_matching_against_quadrature():
    mean, sd = 0.4, 0.3
    sigma2 = math.log1p((sd / mean) ** 2)
    sigma = math.sqrt(sigma2)
    scale = mean * math.exp(-sigma2 / 2)
    lo, hi = _cell_edges(np.array(GRID7))
    masses = []
    for a, b in zip(lo, hi):
        val, _ = integrate.quad(
            lambda x: stats.lognorm.pdf(x, s=sigma, scale=scale),
            max(a, 0.0), b)
        masses.append(val)
    masses = np.array(masses)
    d = discretize_prior("lognormal", mean, sd, GRID7)
    assert np.allclose(d, masses / masses.sum(), atol=1e-9)


def test_lognormal_zero_mean_row_uses_floor():
    grid = QualityGrid(np.array(GRID7), np.array(GRID7))
    model = build_score_model("lognormal", 0.09, grid)
    assert np.allclose(model.sum(axis=1), 1.0, atol=1e-12)
    # the v=0 row behaves like a tiny positive mean: almost all mass at score 0
    direct = discretize_prior("lognormal", LOGNORMAL_MEAN_FLOOR, 0.3, GRID7)
    assert np.allclose(model[0], direct, atol=1e-12)
    assert model[0, 0] > 0.9


def test_variance_zero_score_model_is_identity():
    grid = QualityGrid(np.array(GRID7), np.array(GRID7))
    assert np.array_equal(build_score_model("normal", 0.0, grid), np.eye(7))


def test_score_model_rows_stochastic_any_variance():
    grid = QualityGrid(np.array(GRID7), np.array(GRID7))
    for variance in (0.05, 0.25, 0.6):
        model = build_score_model("normal", variance, grid)
        assert np.allclose(model.sum(axis=1), 1.0, atol=1e-12)


def make_config(**overrides):
    base = dict(family="normal", prior_mean=0.3, prior_sd=0.25,
                variance_grid=(0.0, 0.2), values=GRID7, scores=GRID7,
                bar=0.25, mechanisms=("SOM",), item_count=1)
    base.update(overrides)
    return SweepConfig(**base)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        make_config(mechanisms=())
    with pytest.raises(ValueError):
        make_config(mechanisms=("SOM", "NOPE"))
    with pytest.raises(ValueError):
        make_config(variance_grid=(0.2, 0.1))
    with pytest.raises(ValueError):
        make_config(family="uniform")
    with pytest.raises(ValueError):
        SweepConfig.from_dict({"family": "normal"})


def test_perfect_appraiser_reaches_omniscient():
    config = make_config(variance_grid=(0.0,))
    (record,) = run_sweep(config)
    prior = discretize_prior("normal", 0.3, 0.25, GRID7)
    inst = validate_instance(GRID7, GRID7, prior, np.eye(7), 0.25)
    assert record.per_item_reward == pytest.approx(omniscient_reward(inst),
                                                   abs=1e-12)


def test_sweep_is_deterministic():
    config = make_config(mechanisms=("SOM", "TMM", "OM1"))
    assert run_sweep(config) == run_sweep(config)


def test_sweep_multi_mechanisms_record_per_item_values():
    config = make_config(values=(0.0, 0.5, 1.0), scores=(0.0, 0.5, 1.0),
                         variance_grid=(0.1,), item_count=2,
                         mechanisms=("TMM", "UM_TMM", "OMk", "UMOPT", "kxOM1"))
    records = {r.mechanism: r for r in run_sweep(config)}
    assert records["UM_TMM"].per_item_reward >= records["TMM"].per_item_reward - 1e-9
    assert records["OMk"].per_item_reward >= records["UMOPT"].per_item_reward - 1e-7
    assert records["UMOPT"].per_item_reward >= records["kxOM1"].per_item_reward - 1e-7
    for r in records.values():
        assert 0.0 <= r.overall_rate <= 1.0 + 1e-9
        assert len(r.per_quality_rates) == 3


def test_sweep_solves_tmm_and_om1_once_per_variance(monkeypatch):
    calls = Counter()
    for name in ("tmm_optimal", "solve_om1"):
        def counted(*args, _name=name, _solve=getattr(single_item, name)):
            calls[_name] += 1
            return _solve(*args)
        monkeypatch.setattr(single_item, name, counted)
    config = make_config(values=(0.0, 0.5, 1.0), scores=(0.0, 0.5, 1.0),
                         variance_grid=(0.1, 0.3), item_count=2,
                         mechanisms=("TMM", "UM_TMM", "OM1", "kxOM1"))
    assert len(run_sweep(config)) == 8
    assert calls == {"tmm_optimal": 2, "solve_om1": 2}


def test_csv_schema():
    config = make_config(family="lognormal", mechanisms=("SOM", "OM1"))
    records = run_sweep(config)
    buf = io.StringIO()
    write_sweep_csv(records, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == ("family,variance,mechanism,per_item_reward,"
                        "overall_rate," +
                        ",".join(f"rate_v{i}" for i in range(7)))
    assert len(lines) == 1 + len(records)
    assert all(line.startswith("lognormal,") for line in lines[1:])
    with pytest.raises(ValueError):
        write_sweep_csv([], io.StringIO())


def test_registry_contents(registry):
    assert sorted(registry) == ["example1", "thm6_om1_vs_tmm", "thm6_tmm_vs_som",
                                "thm7", "thm9_omk_vs_um", "thm9_um_vs_kxom1"]
    for inst in registry.values():
        assert inst.bar == 0.5
        assert np.allclose(inst.grid.values, [0, 1 / 3, 2 / 3, 1])
        assert abs(inst.prior.sum() - 1) < 1e-12
    assert np.allclose(registry["thm6_tmm_vs_som"].score_model[3],
                       [0.017, 0.030, 0.037, 0.916])


def test_paper_checks_example1_all_pass():
    checks = paper_checks("example1")
    assert checks and all(c.passed for c in checks)


def test_paper_checks_unknown_name():
    with pytest.raises(KeyError):
        paper_checks("nonexistent")
