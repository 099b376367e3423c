from dataclasses import replace
from datetime import timedelta

import pytest

from gdserve import feedback as fb
from gdserve.model import GraphDataError
from conftest import make_contract


def week_contract(booked=7_000_000):
    # Booked over a 7-day flight starting at noon Sunday-equivalent; the
    # linear goal prorates by elapsed fraction.
    c = make_contract("week", "TRUE", booked)
    return c


class TestLinearGoal:
    def test_one_day_in(self):
        c = week_contract()
        assert fb.linear_goal(c, c.start + timedelta(days=1)) == pytest.approx(1_000_000)

    def test_late_friday(self):
        c = week_contract()
        t = c.start + timedelta(days=5, hours=12)   # 5.5 of 7 days elapsed
        assert fb.linear_goal(c, t) == pytest.approx(5_500_000)

    def test_flight_start_is_zero(self):
        c = week_contract()
        assert fb.linear_goal(c, c.start) == 0.0

    def test_clamped_outside_flight(self):
        c = week_contract()
        assert fb.linear_goal(c, c.start - timedelta(days=1)) == 0.0
        assert fb.linear_goal(c, c.end + timedelta(days=1)) == c.booked_demand


class TestHoursBehind:
    def test_inverts_linear_goal(self):
        c = week_contract(booked=168)   # 1 impression/hour pace
        t = c.start + timedelta(hours=50)
        assert fb.hours_behind(c, 44.0, t) == pytest.approx(6.0)
        assert fb.hours_behind(c, 50.0, t) == pytest.approx(0.0)
        assert fb.hours_behind(c, 56.0, t) == pytest.approx(-6.0)


class TestApplyFeedback:
    CFG = fb.FeedbackConfig(delta_hours=4.0, boost_behind=1.5,
                            damp_ahead=10.0, release_within_cycles=2.0)

    def contract(self):
        return week_contract(booked=168)

    def test_behind_boosts_remaining_demand(self):
        c = self.contract()
        t = c.start + timedelta(hours=50)
        adjusted, active = fb.apply_feedback(c, delivered=40.0, boost_active=False,
                                             t=t, cfg=self.CFG, cycle_hours=2.0)
        assert adjusted == pytest.approx(128.0 * 1.5)
        assert active

    def test_ahead_damps_remaining_demand(self):
        c = self.contract()
        t = c.start + timedelta(hours=50)
        adjusted, active = fb.apply_feedback(c, delivered=56.0, boost_active=False,
                                             t=t, cfg=self.CFG, cycle_hours=2.0)
        assert adjusted == pytest.approx(112.0 / 10.0)
        assert not active

    def test_on_track_is_exactly_identity(self):
        c = self.contract()
        t = c.start + timedelta(hours=50)
        for delivered in (47.0, 50.0, 53.0):    # lag within +-4h
            adjusted, active = fb.apply_feedback(c, delivered, False, t, self.CFG, 2.0)
            assert adjusted == 168.0 - delivered
            assert not active

    def test_boost_persists_until_release_window(self):
        c = self.contract()
        t = c.start + timedelta(hours=50)
        # Lag of 5h: still boosted once active (release threshold 2 cycles
        # of 1h = 2h < 5h), even though 5h... exceeds delta anyway; use a
        # lag between release and delta: delta=8 config.
        cfg = fb.FeedbackConfig(delta_hours=8.0, boost_behind=1.5,
                                damp_ahead=10.0, release_within_cycles=2.0)
        adjusted, active = fb.apply_feedback(c, 45.0, True, t, cfg,    # 5h behind
                                             cycle_hours=1.0)
        assert active
        assert adjusted == pytest.approx(123.0 * 1.5)
        # Same lag without the flag: inside the delta band, no adjustment.
        adjusted, active = fb.apply_feedback(c, 45.0, False, t, cfg, cycle_hours=1.0)
        assert adjusted == 123.0
        assert not active

    def test_boost_released_within_cycles_of_goal(self):
        c = self.contract()
        t = c.start + timedelta(hours=50)
        cfg = fb.FeedbackConfig(delta_hours=8.0, boost_behind=1.5,
                                damp_ahead=10.0, release_within_cycles=2.0)
        adjusted, active = fb.apply_feedback(c, 48.5, True, t, cfg,    # 1.5h behind
                                             cycle_hours=1.0)
        assert adjusted == 119.5
        assert not active

    def test_remainder_is_booked_minus_delivered(self):
        # Not the demand the contract was last planned with.
        c = replace(self.contract(), demand=100.0)
        t = c.start + timedelta(hours=50)
        adjusted, active = fb.apply_feedback(c, 50.0, False, t, self.CFG, 2.0)
        assert adjusted == 168.0 - 50.0
        assert not active

    def test_pure_function_is_idempotent(self):
        c = self.contract()
        t = c.start + timedelta(hours=30)
        first = fb.apply_feedback(c, 10.0, False, t, self.CFG, 2.0)
        second = fb.apply_feedback(c, 10.0, False, t, self.CFG, 2.0)
        assert first == second

    def test_adjustment_bounded_by_booked_times_boost(self):
        c = self.contract()
        t = c.start + timedelta(hours=100)
        adjusted, _ = fb.apply_feedback(c, 0.0, False, t, self.CFG, 2.0)
        assert 0 < adjusted <= c.booked_demand * self.CFG.boost_behind

    def test_config_validation(self):
        with pytest.raises(GraphDataError):
            fb.FeedbackConfig(delta_hours=0)
        with pytest.raises(GraphDataError):
            fb.FeedbackConfig(boost_behind=1.0)
        with pytest.raises(GraphDataError):
            fb.FeedbackConfig(damp_ahead=0.5)
        with pytest.raises(GraphDataError):
            fb.FeedbackConfig(release_within_cycles=-1)
