import importlib

import numpy as np
import pytest

from variantfit.data import SurveillanceSeries
from variantfit.dynamics import Advantage, Proportion, step_lambda
from variantfit.errors import InvalidConfig
from variantfit.simulate import RecoveryReport, SimConfig, expected_path, recovery_report, simulate


def _config(**overrides):
    base = dict(
        gammas=(1.6,),
        initial_proportions=(0.98, 0.02),
        sequenced=tuple([3000] * 12),
        seed=11,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_expected_path_matches_scalar_recursion():
    config = _config()
    path = expected_path(config)
    lam = Proportion(0.02)
    for row in path:
        lam = step_lambda(lam, Advantage(1.6))
        assert row[1] == pytest.approx(lam.value, abs=1e-14)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)


def test_same_seed_reproduces_identical_series():
    config = _config()
    a = simulate(config, replication=3)
    b = simulate(config, replication=3)
    assert isinstance(a, SurveillanceSeries)
    assert a == b


def test_different_replications_differ():
    config = _config()
    a = simulate(config, replication=0)
    b = simulate(config, replication=1)
    assert any(
        x != y for x, y in zip(a.binomial_counts()[1], b.binomial_counts()[1])
    )


def test_counts_respect_schedule():
    config = _config(sequenced=(100, 0, 250, 4000))
    series = simulate(config)
    n, x = series.binomial_counts()
    assert tuple(n.tolist()) == (100, 0, 250, 4000)
    assert all(0 <= x_t <= n_t for n_t, x_t in zip(n, x))


def test_empirical_mean_tracks_expected_path():
    config = _config(sequenced=tuple([5000] * 8), seed=5)
    path = expected_path(config)
    sums = np.zeros(8)
    n_rep = 300
    for rep in range(n_rep):
        series = simulate(config, replication=rep)
        n, x = series.binomial_counts()
        sums += [x_t / n_t for n_t, x_t in zip(n.tolist(), x.tolist())]
    means = sums / n_rep
    se = np.sqrt(path[:, 1] * (1 - path[:, 1]) / (5000 * n_rep))
    assert np.all(np.abs(means - path[:, 1]) < 5 * se + 1e-12)


def test_three_variant_simulation_shape():
    config = SimConfig(
        gammas=(1.4, 2.0),
        initial_proportions=(0.9, 0.07, 0.03),
        sequenced=tuple([2000] * 6),
        seed=2,
    )
    series = simulate(config)
    assert isinstance(series, SurveillanceSeries)
    assert series.counts.shape == (6, 3)
    assert np.array_equal(series.totals, np.full(6, 2000))


def test_total_cases_from_growth_schedule():
    config = _config(
        sequenced=tuple([100] * 4),
        growth=tuple([1.0] * 4),
        base_cases=10_000.0,
    )
    series = simulate(config)
    # numeraire flat, variant grows by 1.6 each period from 200 cases
    expected = 9800 + 200 * 1.6
    assert series.total_cases[0] == round(expected)
    assert all(cases is not None for cases in series.total_cases)


def test_invalid_configs_rejected():
    with pytest.raises(InvalidConfig):
        _config(initial_proportions=(0.5, 0.2))
    with pytest.raises(InvalidConfig):
        _config(gammas=(0.0,), initial_proportions=(0.9, 0.1))
    with pytest.raises(InvalidConfig):
        _config(sequenced=())
    with pytest.raises(InvalidConfig):
        _config(sequenced=(100, -1))
    with pytest.raises(InvalidConfig):
        _config(growth=(1.0,))


def test_recovery_report_bias_and_coverage():
    config = _config(sequenced=tuple([3000] * 12), seed=17)
    report = recovery_report(config, n_replications=200)
    assert isinstance(report, RecoveryReport)
    assert report.n_failed == 0
    assert report.true_gamma == 1.6
    assert abs(report.bias) < 0.01
    assert 0.90 <= report.coverage <= 0.99
    assert report.mean_ci_width > 0


def test_recovery_report_rejects_multivariant_config():
    config = SimConfig(
        gammas=(1.4, 2.0),
        initial_proportions=(0.9, 0.07, 0.03),
        sequenced=tuple([2000] * 6),
    )
    with pytest.raises(InvalidConfig):
        recovery_report(config, n_replications=5)
    with pytest.raises(InvalidConfig):
        recovery_report(_config(), n_replications=0)


def test_more_sequencing_tightens_recovery():
    sparse = recovery_report(_config(sequenced=tuple([500] * 10), seed=23), 60)
    dense = recovery_report(_config(sequenced=tuple([8000] * 10), seed=23), 60)
    assert dense.mean_ci_width < sparse.mean_ci_width


def test_growth_schedule_needs_two_variants():
    with pytest.raises(InvalidConfig):
        SimConfig(
            gammas=(1.4, 2.0),
            initial_proportions=(0.9, 0.07, 0.03),
            sequenced=(2000,) * 4,
            growth=(1.0,) * 4,
        )


def test_recovery_report_propagates_programming_errors(monkeypatch):
    # Only model failures count as failed replications; a bug must surface.
    def broken_fit(series):
        raise TypeError("broken fit")

    # The package's `simulate` attribute is the function, so fetch the module.
    monkeypatch.setattr(importlib.import_module("variantfit.simulate"), "fit", broken_fit)
    with pytest.raises(TypeError, match="broken fit"):
        recovery_report(_config(), n_replications=3)


def test_negative_seed_or_replication_rejected():
    with pytest.raises(InvalidConfig):
        _config(seed=-1)
    with pytest.raises(InvalidConfig):
        simulate(_config(), replication=-1)
