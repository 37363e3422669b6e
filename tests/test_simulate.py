import dataclasses
import hashlib
import importlib
import math

import numpy as np
import pytest

from variantfit.data import SurveillanceSeries, to_csv_string
from variantfit.dynamics import Advantage, Proportion
from variantfit.errors import InvalidConfig
from variantfit.multivariant import to_multi_csv_string
from variantfit.simulation import RecoveryReport, SimConfig, recovery_report, simulate

from oracles import step_lambda


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
    path = config.path
    lam = Proportion(0.02)
    for row in path:
        lam = step_lambda(lam, Advantage(1.6))
        assert row[1] == pytest.approx(lam.value, abs=1e-14)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)


def test_expected_path_preserves_simplex_and_matches_one_step():
    lam0 = np.array([0.90, 0.07, 0.03])
    gammas = np.array([1.0, math.exp(0.3), math.exp(0.5)])
    config = SimConfig(gammas=tuple(gammas[1:]), initial_proportions=tuple(lam0),
                       sequenced=(1000,) * 12)
    path = config.path
    assert path.shape == (12, 3)
    assert np.all(path >= 0)
    assert np.allclose(path.sum(axis=1), 1.0, rtol=0, atol=1e-14)
    previous = np.vstack([lam0, path[:-1]])
    stepped = previous * gammas / (previous * gammas).sum(axis=1, keepdims=True)
    assert np.allclose(path, stepped, rtol=0, atol=1e-14)


@pytest.mark.filterwarnings("error")
def test_zero_initial_share_stays_exactly_zero():
    config = SimConfig(gammas=(1.4, 2.0), initial_proportions=(0.9, 0.1, 0.0),
                       sequenced=(2000,) * 6, seed=3)
    path = config.path
    assert np.all(path[:, 2] == 0.0)
    assert np.allclose(path.sum(axis=1), 1.0, rtol=0, atol=1e-14)
    assert np.all(simulate(config).counts[:, 2] == 0)


def test_path_is_worked_out_once_per_config_and_read_only():
    config = _config()
    path = config.path
    assert config.path is path
    assert not path.flags.writeable
    with pytest.raises(ValueError):
        path[0, 0] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.path = np.zeros_like(path)
    simulate(config, replication=3)
    assert config.path is path


def test_configs_that_differ_in_gammas_get_their_own_paths():
    slow, fast = _config(), _config(gammas=(2.0,))
    assert slow == _config() and slow != fast
    assert not np.array_equal(slow.path, fast.path)
    assert fast.path[-1, 1] > slow.path[-1, 1]
    assert np.array_equal(slow.path, _config().path)


# SHA-256 of the CSV text of simulated series, recorded before the share path
# moved from the one-period recursion to its closed form: the counts drawn for
# a (seed, replication) pair must not change.
SIMULATED_CSV_SHA256 = {
    "m2-zero-rows": (
        dict(gammas=(1.6,), initial_proportions=(0.98, 0.02),
             sequenced=(100, 0, 250, 0, 4000, 0), seed=11), 0,
        "d9f40fbe7abfb3356d1ebc6b3005436c88efdad88cbca7b00f12f3b99c487b5f"),
    "m2-replication-1": (
        dict(gammas=(1.6,), initial_proportions=(0.98, 0.02),
             sequenced=(100, 300, 0, 500, 800, 1000), seed=5), 1,
        "0a14f0936b6cdf31005bc3df0854eb41999c66bd1f91bfbd1fcc12da6a14774a"),
    "m3-zero-row": (
        dict(gammas=(1.4, 2.0), initial_proportions=(0.9, 0.07, 0.03),
             sequenced=(2000, 0, 2000, 500, 3000), seed=2), 0,
        "4525f5e2b0593b9c3a2fe2793987ee6acc3d0f3f14a66236b51e313f0063e78b"),
    "m3-zero-share": (
        dict(gammas=(1.4, 2.0), initial_proportions=(0.9, 0.1, 0.0),
             sequenced=(2000,) * 6, seed=3), 0,
        "e0097fc28cc90d03e9fd8b0819c4a81e6e6960409948b09ad289637fa4fb9f71"),
}
# The recovery-study design of the benchmark's replicates: T = 18 weekly
# periods of N = 2000, advantage 1.5 from a 1 % initial share, seed 1.
REPLICATE_DESIGN = dict(gammas=(1.5,), initial_proportions=(0.99, 0.01),
                        sequenced=(2000,) * 18, seed=1, period_days=7.0)
REPLICATE_CSV_SHA256 = (
    "6d5a960466cb28d03cb953bf7e35a52da07cdca2bd16601e8013195dfd0d8ce5",
    "5ffb99bdbda17a2911e6b06d90ef68c5a7aa034baf0558fd8a297c217f9fb888",
    "ab5bf2022963c498eadcc07255a962891ceace76463103bd71ad78a9b1468087",
    "ccbc469af125093ca382850a6cb8eb5bdc961523178f732a9ae0d28712b14bd3",
    "7725c36c4f2e387a115684edffb3e61c36e8e345e98796c68de10a7da3a69414",
)


def _csv_sha256(series):
    text = to_csv_string(series) if series.n_variants == 2 else to_multi_csv_string(series)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(SIMULATED_CSV_SHA256))
def test_simulated_bytes_are_pinned(case):
    fields, replication, digest = SIMULATED_CSV_SHA256[case]
    assert _csv_sha256(simulate(SimConfig(**fields), replication=replication)) == digest


@pytest.mark.parametrize("replication", range(len(REPLICATE_CSV_SHA256)))
def test_replicate_design_bytes_are_pinned(replication):
    series = simulate(SimConfig(**REPLICATE_DESIGN), replication=replication)
    assert _csv_sha256(series) == REPLICATE_CSV_SHA256[replication]


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
    path = config.path
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


@pytest.mark.parametrize("overrides", [
    dict(initial_proportions=(0.5, 0.2)),
    dict(gammas=(0.0,), initial_proportions=(0.9, 0.1)),
    dict(sequenced=()),
    dict(sequenced=(100, -1)),
    # A nan fails every comparison, and the draw would truncate a float count.
    dict(initial_proportions=(math.nan, math.nan)),
    dict(initial_proportions=(1.0, math.inf)),
    dict(gammas=(math.nan,)),
    dict(gammas=(math.inf,)),
    dict(sequenced=(10.7, 20.2, 30.9)),
    dict(sequenced=(10, 20.0)),
    # simulate refused these only on each replicate, and not as InvalidConfig.
    dict(gammas=(), initial_proportions=(1.0,)),
    dict(sequenced=(10,)),
    dict(seed=1.5),
    dict(period_days=0.0),
    dict(period_days=math.nan),
    # recovery_report's interval then has the scale inf / inf: an OverflowError.
    dict(period_days=math.inf),
    dict(sequenced=(2**63, 10)),
    dict(initial_proportions=(0.5, 0.3, 0.2)),
])
def test_invalid_configs_rejected(overrides):
    with pytest.raises(InvalidConfig):
        _config(**overrides)


def test_recovery_report_bias_and_coverage():
    config = _config(sequenced=tuple([3000] * 12), seed=17)
    report = recovery_report(config, n_replications=200)
    assert isinstance(report, RecoveryReport)
    assert report.n_failed == 0
    assert report.true_gamma == 1.6
    assert abs(report.bias) < 0.01
    assert 0.90 <= report.coverage <= 0.99
    assert report.mean_ci_width > 0


# recovery_report of _config() over 8 replications, as float.hex() of
# (mean_gamma, bias, coverage, mean_ci_width), recorded before the variance
# step moved into fit_multi: the reports must not change by a bit.
RECOVERY_REPORT_HEX = {
    None: ("0x1.999aa12770e36p+0", "0x1.078dd749c0000p-16", "0x1.0000000000000p+0",
           "0x1.00825fbb1b4e4p-5"),
    0: ("0x1.999aa12770e36p+0", "0x1.078dd749c0000p-16", "0x1.0000000000000p+0",
        "0x1.f263427356fd0p-6"),
    4: ("0x1.999aa12770e36p+0", "0x1.078dd749c0000p-16", "0x1.c000000000000p-1",
        "0x1.8d7eaf4efbe48p-6"),
}


@pytest.mark.parametrize("bandwidth", [None, 0, 4])
def test_recovery_report_is_pinned(bandwidth):
    report = recovery_report(_config(), n_replications=8, bandwidth=bandwidth)
    assert (report.n_replications, report.n_failed, report.true_gamma) == (8, 0, 1.6)
    got = (report.mean_gamma, report.bias, report.coverage, report.mean_ci_width)
    assert tuple(map(float.hex, got)) == RECOVERY_REPORT_HEX[bandwidth]


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


def test_recovery_report_counts_failed_fits():
    # A 0.1% start over 4 periods of 20 often draws no variant case at all:
    # the fit separates, and the replication is counted, not raised.
    config = SimConfig(gammas=(1.5,), initial_proportions=(0.999, 0.001), sequenced=(20,) * 4)
    report = recovery_report(config, n_replications=50)
    assert 0 < report.n_failed < 50
    never = dataclasses.replace(config, initial_proportions=(1.0, 0.0))
    with pytest.raises(InvalidConfig, match="all replications failed to fit"):
        recovery_report(never, n_replications=5)


def test_more_sequencing_tightens_recovery():
    sparse = recovery_report(_config(sequenced=tuple([500] * 10), seed=23), 60)
    dense = recovery_report(_config(sequenced=tuple([8000] * 10), seed=23), 60)
    assert dense.mean_ci_width < sparse.mean_ci_width


def test_recovery_report_propagates_programming_errors(monkeypatch):
    # Only model failures count as failed replications; a bug must surface.
    def broken_fit(*args):
        raise TypeError("broken fit")

    # The package's `simulate` attribute is the function, so fetch the module.
    monkeypatch.setattr(importlib.import_module("variantfit.simulation"), "fit", broken_fit)
    with pytest.raises(TypeError, match="broken fit"):
        recovery_report(_config(), n_replications=3)


def test_negative_seed_or_replication_rejected():
    with pytest.raises(InvalidConfig):
        _config(seed=-1)
    with pytest.raises(InvalidConfig):
        simulate(_config(), replication=-1)
