"""Verdict policy: the shared log-log fit, the max/min spread and the Bound record."""

import numpy as np
import pytest

from bilop.verdict import TINY, ZERO_FLOOR, check, log_fit, spread

SCALES = 2.0 ** np.arange(6)


def test_fit_matches_polyfit_on_positive_values():
    values = np.array([3.0, 5.5, 12.0, 19.0, 41.0, 77.0])
    slope, intercept, r2 = log_fit(SCALES, values)
    want = np.polyfit(np.log(SCALES), np.log(values), 1)
    assert (slope, intercept) == pytest.approx(tuple(want), rel=1e-12)
    assert 0.9 < r2 < 1.0


def test_fit_of_an_exact_power_law_has_r_squared_one():
    slope, intercept, r2 = log_fit(SCALES, 3.0 * SCALES ** -1.5)
    assert (slope, np.exp(intercept), r2) == pytest.approx((-1.5, 3.0, 1.0), rel=1e-12)


def test_fit_drops_zeros_where_the_old_clamp_fitted_log_1e300():
    # a scan with an exact 0 among positive values: the zero is dropped, not
    # clamped to 1e-300, so the slope is the fit through the positive points
    values = np.array([1.0, 0.0, 4.0, 8.0, 16.0, 32.0])
    keep = values > 0
    want = np.polyfit(np.log(SCALES[keep]), np.log(values[keep]), 1)
    assert log_fit(SCALES, values)[:2] == pytest.approx(tuple(want), rel=1e-12)
    assert log_fit(SCALES, values)[0] == pytest.approx(1.0, rel=1e-12)
    clamped = np.polyfit(np.log(SCALES), np.log(np.maximum(values, TINY)), 1)[0]
    assert clamped > 50  # what the clamp read: a steep rise out of log(1e-300)


@pytest.mark.parametrize("values, intercept", [
    ([0.0] * 6, -np.inf),
    ([0.0, 0.0, 5.0, 0.0, 0.0, 0.0], np.log(5.0)),
    ([np.nan, 0.0, -1.0, 0.0, 0.0, 0.0], -np.inf),
], ids=["no-point", "one-point", "nan-and-negative"])
def test_fit_below_two_points_has_slope_zero(values, intercept):
    assert log_fit(SCALES, values) == (0.0, intercept, 0.0)


def test_fit_of_constant_values_is_flat_with_r_squared_zero():
    slope, _, r2 = log_fit(SCALES, np.full(6, 7.0))
    assert abs(slope) < 1e-14 and r2 == 0.0


def test_spread_is_max_over_min():
    assert spread([2.0, 8.0, 4.0]) == 4.0
    assert spread(np.array([1.0, 0.0])) == 1.0 / TINY


def test_spread_is_one_at_and_below_the_zero_floor():
    assert spread([ZERO_FLOOR, ZERO_FLOOR / 4]) == 1.0
    assert spread([0.0, 0.0]) == 1.0
    assert spread([]) == 1.0
    above = np.nextafter(ZERO_FLOOR, 1.0)
    assert spread([above, above / 4]) == pytest.approx(4.0)


@pytest.mark.parametrize("statistic, op, cutoff, holds, margin", [
    (0.5, "<", 1.0, True, 0.5),
    (1.0, "<", 1.0, False, 0.0),
    (1.0, "<=", 1.0, True, 0.0),
    (2.0, "<=", 1.0, False, -1.0),
    (0.95, ">=", 0.9, True, 0.05),
    (0.9, ">", 0.9, False, 0.0),
    (0.5, ">=", 0.9, False, -0.4),
])
def test_margin_is_positive_on_the_passing_side(statistic, op, cutoff, holds, margin):
    b = check("s", statistic, op, cutoff)
    assert (b.name, b.statistic, b.cutoff, b.holds) == ("s", statistic, cutoff, holds)
    assert b.margin == pytest.approx(margin, abs=1e-15)
    assert b.floor is None


def test_integer_counts_at_the_cut_off_hold_only_under_le():
    # covering counts: 5 smooth against 10 rough halves exactly
    assert check("covering_count", 5, "<=", 10 * 0.5).holds
    assert not check("covering_count", 5, "<", 10 * 0.5).holds
