from datetime import timedelta

import pytest

from gdserve import metrics as mx
from conftest import FLIGHT_START


def ts(hours):
    return FLIGHT_START + timedelta(hours=hours)


def rows_for(series_by_contract, booked):
    rows = []
    for cid, samples in series_by_contract.items():
        for h, delivered, goal in samples:
            rows.append(mx.TimeseriesRow(ts(h), cid, delivered, goal))
    return rows, booked


class TestNearestRank:
    def test_three_values_at_75(self):
        assert mx.nearest_rank([-10.0, 0.0, 20.0], 75) == 20.0

    def test_median_and_extremes(self):
        vals = [5.0, 1.0, 3.0]
        assert mx.nearest_rank(vals, 50) == 3.0
        assert mx.nearest_rank(vals, 100) == 5.0
        assert mx.nearest_rank(vals, 1) == 1.0

    def test_empty_or_bad_percentile(self):
        with pytest.raises(mx.MetricsError):
            mx.nearest_rank([], 50)
        with pytest.raises(mx.MetricsError):
            mx.nearest_rank([1.0], 0)


class TestSmoothness:
    def test_perfectly_linear_delivery_scores_zero(self):
        rows, booked = rows_for(
            {"c": [(h, h * 10.0, h * 10.0) for h in range(1, 11)]}, {"c": 100.0})
        series = mx.build_smoothness(rows, booked)
        for f in (50, 75, 95, 100):
            assert mx.smoothness_quantile(series, f) == 0.0

    def test_quantile_over_contracts_then_max_over_time(self):
        rows, booked = rows_for(
            {"a": [(1, 0.0, 10.0), (2, 40.0, 20.0)],
             "b": [(1, 10.0, 10.0), (2, 20.0, 20.0)],
             "c": [(1, 12.0, 10.0), (2, 21.0, 20.0)]},
            {"a": 100.0, "b": 100.0, "c": 100.0})
        series = mx.build_smoothness(rows, booked)
        # t=1 sigmas: {-10, 0, +2}; t=2 sigmas: {+20, 0, +1}
        assert mx.smoothness_quantile(series, 75) == pytest.approx(20.0)
        assert mx.smoothness_quantile(series, 50) == pytest.approx(1.0)

    def test_monotone_in_percentile(self):
        rows, booked = rows_for(
            {"a": [(1, 5.0, 10.0)], "b": [(1, 18.0, 10.0)], "c": [(1, 10.0, 10.0)]},
            {"a": 100.0, "b": 100.0, "c": 100.0})
        series = mx.build_smoothness(rows, booked)
        values = [mx.smoothness_quantile(series, f) for f in (25, 50, 75, 95)]
        assert values == sorted(values)

    def test_positive_part_variant(self):
        rows, booked = rows_for(
            {"a": [(1, 0.0, 30.0)], "b": [(1, 20.0, 10.0)]},
            {"a": 100.0, "b": 100.0})
        series = mx.build_smoothness(rows, booked)
        assert mx.smoothness_quantile(series, 50) == pytest.approx(-30.0)
        assert mx.smoothness_quantile(series, 50, positive_part=True) == 0.0

    def test_empty_series_is_an_error(self):
        with pytest.raises(mx.MetricsError):
            mx.smoothness_quantile([], 75)

    def test_no_sample_in_flight_is_an_error(self):
        series = [(ts(0), {}), (ts(1), {})]
        with pytest.raises(mx.MetricsError,
                           match="^no contracts in flight at any sample time$"):
            mx.smoothness_quantile(series, 75)

    def test_sigma_bounded(self):
        rows, booked = rows_for({"a": [(1, 100.0, 0.0), (2, 0.0, 100.0)]},
                                {"a": 100.0})
        series = mx.build_smoothness(rows, booked)
        for _, sigmas in series:
            for v in sigmas.values():
                assert -100.0 <= v <= 100.0


class TestDeliveryImprovement:
    def test_ten_to_seven_is_thirty_percent(self):
        booked = {"a": 100.0}
        assert mx.delivery_improvement(booked, {"a": 93.0},
                                       booked, {"a": 90.0}) == pytest.approx(30.0)

    def test_identical_reports_zero(self):
        booked = {"a": 100.0}
        assert mx.delivery_improvement(booked, {"a": 90.0},
                                       booked, {"a": 90.0}) == 0.0

    def test_full_delivery_is_hundred_percent(self):
        booked = {"a": 100.0}
        assert mx.delivery_improvement(booked, {"a": 100.0},
                                       booked, {"a": 90.0}) == pytest.approx(100.0)

    def test_zero_baseline_underdelivery_undefined(self):
        booked = {"a": 100.0}
        with pytest.raises(mx.MetricsError, match="undefined"):
            mx.delivery_improvement(booked, {"a": 90.0}, booked, {"a": 100.0})

    def test_mismatched_contract_sets_rejected(self):
        with pytest.raises(mx.MetricsError, match="different contract sets"):
            mx.delivery_improvement({"a": 1.0}, {"a": 1.0}, {"b": 1.0}, {"b": 0.5})

    @pytest.mark.parametrize("booked", [{}, {"a": 0.0}])
    def test_no_booked_demand_is_an_error(self, booked):
        with pytest.raises(mx.MetricsError, match="^no booked demand$"):
            mx.underdelivery_fraction(booked, {})

    def test_sign_flips_when_reports_swap(self):
        booked = {"a": 100.0}
        fwd = mx.delivery_improvement(booked, {"a": 95.0}, booked, {"a": 90.0})
        rev = mx.delivery_improvement(booked, {"a": 90.0}, booked, {"a": 95.0})
        assert fwd > 0 > rev
