import io
import json
import math
import pathlib
import re
import threading
from collections import Counter

import numpy as np
import pytest
from scipy import integrate, stats

from acquimech import (SweepConfig, SweepRecord, build_score_model, discretize_prior,
                       multi_item, omniscient_reward, paper_checks, run_sweep,
                       single_item, validate_instance, write_sweep_csv)
from acquimech.core import MultiInstance, QualityGrid
from acquimech.experiments import (LOGNORMAL_MEAN_FLOOR, MECHANISMS, SolveMemo,
                                   _cell_edges, _multi_record, _single_record)

GRID7 = tuple(i / 6 for i in range(7))
GRID5 = tuple(i / 4 for i in range(5))
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


@pytest.mark.parametrize("family", ["normal", "lognormal"])
@pytest.mark.parametrize("name, mean, sd", [
    ("mean", math.nan, 0.0), ("mean", math.nan, 0.2), ("mean", math.inf, 0.2),
    ("sd", 0.3, math.nan), ("sd", 0.3, math.inf)])
def test_discretizer_rejects_non_finite_parameters(family, name, mean, sd):
    """Every comparison with NaN is False, so unchecked, a NaN mean with sd
    0 gives a point mass on the top cell and a NaN sd a NaN vector."""
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        discretize_prior(family, mean, sd, GRID7)


@pytest.mark.parametrize("variance", [math.nan, math.inf, -0.1])
def test_score_model_rejects_a_non_finite_or_negative_variance(variance):
    grid = QualityGrid(np.array(GRID7), np.array(GRID7))
    with pytest.raises(ValueError, match="^variance must be finite and nonnegative"):
        build_score_model("normal", variance, grid)


def test_renormalization_preserves_cell_ratios():
    lo, hi = _cell_edges(np.array(GRID7))
    raw = stats.norm.cdf(hi, 0.3, 0.25) - stats.norm.cdf(lo, 0.3, 0.25)
    assert 0.0 < raw.sum() <= 1.0
    d = discretize_prior("normal", 0.3, 0.25, GRID7)
    assert np.allclose(d, raw / raw.sum(), atol=1e-15)


def test_discretized_priors_match_scipy_stats_bit_for_bit():
    """The ndtr CDFs give the cell masses of ``scipy.stats`` to the bit, on
    random grids that reach below 0 and on edges at 0 and +-inf."""
    rng = np.random.default_rng(6000)
    grids = [np.sort(rng.uniform(-1.0, 2.0, rng.integers(1, 12))) for _ in range(500)]
    grids += [np.array(GRID7), np.array([0.0, 1.0]), np.array([0.0]),
              np.array([-np.inf, 0.0, 1.0]), np.array([0.0, 1.0, np.inf])]
    checked = 0
    for values in grids:
        mean, sd = rng.uniform(0.01, 1.5), rng.uniform(0.001, 1.0)
        lo, hi = _cell_edges(values)
        sigma2 = math.log1p((sd / mean) ** 2)
        lognorm = stats.lognorm(s=math.sqrt(sigma2), scale=mean * math.exp(-sigma2 / 2))
        for family, dist in (("normal", stats.norm(mean, sd)), ("lognormal", lognorm)):
            with np.errstate(invalid="ignore"):
                mass = np.clip(dist.cdf(hi) - dist.cdf(lo), 0.0, None)
            if not mass.sum() > 0:
                with pytest.raises(ValueError):
                    discretize_prior(family, mean, sd, values)
                continue
            got = discretize_prior(family, mean, sd, values)
            assert np.array_equal(got.view(np.int64), (mass / mass.sum()).view(np.int64))
            checked += 1
    assert checked > 900


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize"])
def test_package_import_leaves_unused_scipy_out(fresh_python, module):
    """``scipy.stats`` and ``scipy.optimize`` cost 0.3-0.5 s each to import,
    and the package uses none of either: ``lp`` loads only the HiGHS
    extension from scipy.optimize's directory."""
    out = fresh_python(f"import sys, acquimech.cli; print({module!r} in sys.modules)")
    assert out.strip() == "False"


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


def sweep_doc(mechanisms):
    return {"family": "normal", "prior_mean": 0.3, "prior_sd": 0.25,
            "variance_grid": [0.0], "V": list(GRID7), "S": list(GRID7), "t": 0.25,
            "mechanisms": mechanisms}


@pytest.mark.parametrize("mechanisms", ["OMk", {"OMk": 1}, {"OMk"}, ["OMk", 1], None],
                         ids=["string", "object", "set", "number-in-list", "null"])
def test_sweep_config_mechanisms_must_be_a_list_of_names(mechanisms):
    """Only a list of strings names mechanisms, whether the config is read
    from JSON or built directly: a string would be split into its characters
    and an object read as its keys."""
    doc = sweep_doc(mechanisms)
    message = f"^mechanisms must be a list of names, got {re.escape(repr(mechanisms))}$"
    with pytest.raises(ValueError, match=message):
        SweepConfig.from_dict(doc)
    with pytest.raises(ValueError, match=message):
        make_config(mechanisms=mechanisms)


def test_sweep_config_stores_a_mechanism_list_as_a_tuple():
    assert make_config(mechanisms=["SOM", "OM1"]).mechanisms == ("SOM", "OM1")
    assert SweepConfig.from_dict(sweep_doc(["SOM", "OM1"])).mechanisms == ("SOM", "OM1")


@pytest.mark.parametrize("field, value", [
    ("prior_mean", math.nan), ("prior_sd", math.inf),
    ("variance_grid", (0.1, math.nan)), ("variance_grid", (math.inf,))],
    ids=["nan-mean", "inf-sd", "nan-in-variance-grid", "inf-variance-grid"])
def test_sweep_config_rejects_non_finite_settings(field, value):
    """NaN passes the sign and order checks, so it is rejected by name."""
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        make_config(**{field: value})


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


def sequential_records(config):
    """run_sweep's records, each solver called in turn on this thread."""
    grid = QualityGrid(np.array(config.values), np.array(config.scores))
    prior = discretize_prior(config.family, config.prior_mean, config.prior_sd, grid.values)
    records = []
    for variance in config.variance_grid:
        inst = validate_instance(grid.values, grid.scores, prior,
                                 build_score_model(config.family, variance, grid), config.bar)
        mi = MultiInstance(inst, config.item_count)
        tmm, om1 = single_item.tmm_optimal(inst)[1], single_item.solve_om1(inst)
        single = {"SOM": single_item.solve_som(inst), "TMM": tmm, "OM1": om1, "kxOM1": om1}
        union = multi_item.UnionInputs((tmm,) * mi.item_count)
        multi = {"OMk": multi_item.solve_omk(mi), "UM_TMM": multi_item.union_policy(mi, union),
                 "UMOPT": multi_item.solve_umopt(mi)[1]}
        for name in config.mechanisms:
            triple = (_single_record(inst, single[name]) if name in single
                      else _multi_record(mi, multi[name]))
            records.append(SweepRecord(config.family, float(variance), name, *triple))
    return records


@pytest.mark.parametrize("family", ["normal", "lognormal"])
def test_sweep_solves_omk_and_umopt_side_by_side(monkeypatch, family):
    """Every mechanism at k = 2 on three variances: OMk runs on a worker
    thread beside UMOPT, the records are the ones solving each in turn
    gives, and no thread is left running."""
    config = make_config(family=family, values=GRID5, scores=GRID5, item_count=2,
                         variance_grid=(0.0, 0.1, 0.3), mechanisms=MECHANISMS)
    expected = sequential_records(config)
    threads = []

    def recorded(mi, _solve=multi_item.solve_omk):
        if mi.item_count == 2:   # OM1 is solved as OMk with one item
            threads.append(threading.get_ident())
        return _solve(mi)

    monkeypatch.setattr(multi_item, "solve_omk", recorded)
    before = threading.active_count()
    assert run_sweep(config) == expected
    assert threading.active_count() == before
    assert len(threads) == 3 and threading.get_ident() not in threads


def test_sweep_joins_omk_when_umopt_raises(monkeypatch):
    """A UMOPT error reaches the caller only after the OMk solve beside it,
    started once UMOPT has failed, has returned; no thread is left running."""
    umopt_failed, omk_returned = threading.Event(), threading.Event()

    def omk(mi, _solve=multi_item.solve_omk):
        assert umopt_failed.wait(timeout=60)
        policy = _solve(mi)
        omk_returned.set()
        return policy

    def umopt(mi):
        umopt_failed.set()
        raise RuntimeError("UMOPT failed")

    monkeypatch.setattr(multi_item, "solve_omk", omk)
    monkeypatch.setattr(multi_item, "solve_umopt", umopt)
    config = make_config(values=GRID5, scores=GRID5, item_count=2,
                         variance_grid=(0.1,), mechanisms=("OMk", "UMOPT"))
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="^UMOPT failed$"):
        run_sweep(config)
    assert omk_returned.is_set()
    assert threading.active_count() == before


def test_omk_without_umopt_runs_on_the_calling_thread(monkeypatch, registry):
    """Only the OMk/UMOPT pair starts a thread: a sweep that lists OMk
    alone, and a SolveMemo built with no mechanism list, as ``cli solve``
    and ``paper_checks`` build it, solve OMk where they are called."""
    threads = []

    def recorded(mi, _solve=multi_item.solve_omk):
        threads.append((threading.get_ident(), threading.active_count()))
        return _solve(mi)

    monkeypatch.setattr(multi_item, "solve_omk", recorded)
    here = (threading.get_ident(), threading.active_count())
    config = make_config(values=GRID5, scores=GRID5, item_count=2,
                         variance_grid=(0.1,), mechanisms=("OMk", "UM_TMM"))
    run_sweep(config)
    SolveMemo(MultiInstance(registry["thm9_omk_vs_um"], 2)).omk
    assert threads == [here, here]


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


@pytest.mark.parametrize("family", ["normal", "lognormal"])
def test_committed_sweep_configs(family):
    """The paper's sweeps: 7 levels, 13 variances from 0 to 0.6, k = 2 and
    every mechanism the sweep knows."""
    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / f"sweep_{family}.json"
    config = SweepConfig.from_dict(json.loads(path.read_text()))
    assert config.family == family
    assert config.variance_grid == tuple(round(0.05 * i, 10) for i in range(13))
    assert config.values == config.scores == GRID7
    assert (config.prior_mean, config.prior_sd, config.bar) == (0.3, 0.25, 0.25)
    assert config.item_count == 2
    assert sorted(config.mechanisms) == sorted(MECHANISMS)
