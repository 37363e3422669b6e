import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from variantfit.cli import main
from variantfit.dynamics import Advantage, Proportion, adjusted_R, infer_variant_R, stability_region
from variantfit.errors import NonPositiveCount, NonPositivePeriod, NonPositiveR
from variantfit.inference import AdvantageEstimate


@given(
    R=st.floats(0.1, 5.0),
    lam=st.floats(0.01, 0.99),
    g=st.floats(0.2, 6.0),
)
def test_generation_counting_identity(R, lam, g):
    # previous-generation cases must add back up across strains:
    # 1/R = lam / R_B + (1 - lam) / R_A with R_B = g * R_A
    inf = infer_variant_R(R, Proportion(lam), Advantage(g, 4.7))
    recomposed = lam / inf.R_variant + (1.0 - lam) / inf.R_incumbent
    assert recomposed == pytest.approx(1.0 / R, rel=1e-12)
    assert inf.R_variant == pytest.approx(g * inf.R_incumbent, rel=1e-12)


def test_variant_R_by_hand():
    inf = infer_variant_R(1.0, Proportion(0.2), Advantage(2.0, 4.7))
    assert inf.R_variant == pytest.approx(0.2 + 2.0 * 0.8)
    assert inf.R_incumbent == pytest.approx((0.2 + 2.0 * 0.8) / 2.0)


def test_variant_R_exceeds_one_below_threshold():
    # even with aggregate R below 1, a strong enough advantage pushes the
    # variant's own R above 1
    inf = infer_variant_R(0.7, Proportion(0.1), Advantage(2.0, 4.7))
    assert inf.R_all < 1.0 < inf.R_variant


def test_nonpositive_R_rejected():
    # nan used to pass the `<= 0` test and end in an OverflowError.
    for R_all in (0.0, -1.0, math.nan):
        with pytest.raises(NonPositiveR):
            infer_variant_R(R_all, Proportion(0.5), Advantage(1.5, 4.7))


def test_adjusted_R_equal_weeks_gives_one():
    assert adjusted_R(5000, 5000, 400000, 400000) == pytest.approx(1.0)


def test_adjusted_R_by_hand():
    value = adjusted_R(8000, 4000, 600000, 300000)
    expected = (2.0 * 2.0**-0.7) ** (4.7 / 7.0)
    assert value == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.1498, abs=1e-4)


def test_adjusted_R_testing_only_growth_deflates():
    # more cases found purely through more testing should not read as growth
    value = adjusted_R(6000, 5000, 480000, 400000)
    naive = (6000 / 5000) ** (4.7 / 7.0)
    assert value < naive


def test_adjusted_R_exponent_one_cancels_test_growth():
    value = adjusted_R(6000, 5000, 600000, 500000, exponent=1.0)
    assert value == pytest.approx(1.0, rel=1e-12)


def test_adjusted_R_rejects_nonpositive():
    with pytest.raises(NonPositiveCount):
        adjusted_R(0, 5000, 400000, 400000)
    with pytest.raises(NonPositiveCount):
        adjusted_R(5000, 5000, 400000, -1)
    # nan used to pass the `<= 0` test and end in an OverflowError.
    with pytest.raises(NonPositiveCount, match="cases_t"):
        adjusted_R(math.nan, 1, 1, 1)
    with pytest.raises(NonPositiveCount, match="tested_prev"):
        adjusted_R(1, 1, 1, math.nan)


@pytest.mark.parametrize("gen_days", [-4.7, 0.0, math.nan])
def test_adjusted_R_rejects_a_non_positive_generation(gen_days):
    with pytest.raises(NonPositivePeriod, match="gen_days"):
        adjusted_R(8000, 4000, 600000, 300000, gen_days=gen_days)


def _estimate(value, lo, hi):
    return AdvantageEstimate(Advantage(value, 4.7), lo, hi, 0.95)


def test_stability_threshold_by_hand():
    lams, thresholds, lo, hi = stability_region(_estimate(2.0, 1.8, 2.2),
                                                [Proportion(0.0), Proportion(0.5)])
    assert lams == [0.0, 0.5]
    assert thresholds[0] == pytest.approx(0.5)
    assert lo[0] == pytest.approx(1 / 2.2)
    assert hi[0] == pytest.approx(1 / 1.8)
    assert thresholds[1] == pytest.approx(1 / 1.5)


def test_stability_threshold_monotone_in_lambda():
    grid = [Proportion(x / 20) for x in range(20)] + [Proportion(0.999)]
    _, thresholds, _, _ = stability_region(_estimate(1.9, 1.7, 2.1), grid)
    assert all(a < b for a, b in zip(thresholds, thresholds[1:]))
    assert thresholds[-1] < 1.0


def test_stability_band_collapses_at_lambda_one():
    _, (thr,), (lo,), (hi,) = stability_region(_estimate(1.9, 1.7, 2.1), [Proportion(1.0)])
    assert thr == pytest.approx(1.0)
    assert hi - lo == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("lams", [[], [0.0, 0.3, 1.0]])
def test_stability_region_returns_four_columns_of_floats(lams):
    # lo and hi are the least and the greatest of the three thresholds at each lambda.
    estimate = AdvantageEstimate(Advantage(2.0, 4.7), 1.8, 2.2, 0.95)
    columns = stability_region(estimate, map(Proportion, lams))
    assert len(columns) == 4 and all(type(c) is list and len(c) == len(lams) for c in columns)
    assert all(type(v) is float for c in columns for v in c)
    assert columns[0] == lams
    for lam, thr, lo, hi in zip(*columns):
        ends = [1.0 / (lam + g * (1.0 - lam)) for g in (2.0, 1.8, 2.2)]
        assert (thr, lo, hi) == (ends[0], min(ends), max(ends))


def test_stability_csv_format(tmp_path):
    # The contour CSV is written by the CLI from stability_region's columns.
    out_path = tmp_path / "contour.csv"
    code = main(["infer-r", "--gamma-gen", "2.0", "--gamma-ci", "1.8", "2.2",
                 "--contour", "0.25:0.25:1", "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "lambda,threshold,lo,hi"
    fields = lines[1].split(",")
    assert float(fields[0]) == 0.25
    assert float(fields[1]) == pytest.approx(1.0 / (0.25 + 2.0 * 0.75))
    assert text.endswith("\n")


def test_reproduction_numbers_too_large_for_a_float_raise():
    with pytest.raises(OverflowError, match="^R_variant is too large"):
        infer_variant_R(1e308, Proportion(0.0), Advantage(1e308, 4.7))
    with pytest.raises(OverflowError, match="^R_incumbent is too large"):
        infer_variant_R(1e10, Proportion(1.0), Advantage(1e-320, 4.7))


@pytest.mark.parametrize(
    "estimate, lam",
    [
        (AdvantageEstimate(Advantage(1e-320, 4.7), 1e-320, 1e-320, 0.95), 0.0),
        # The lower end makes lambda + g (1 - lambda) zero.
        (AdvantageEstimate(Advantage(2.0, 4.7), -1.0, 2.2, 0.95), 0.5),
    ],
    ids=["tiny-advantage", "zero-denominator"],
)
def test_stability_threshold_too_large_for_a_float_raises(estimate, lam):
    with pytest.raises(OverflowError, match="too large for a float"):
        stability_region(estimate, [Proportion(lam)])
