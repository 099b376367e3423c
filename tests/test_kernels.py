"""Kernel correctness."""

import math
import random
from itertools import accumulate

import pytest

from gdserve import kernels

# Every test takes the module as `kern`; the one parameter keeps the test
# ids (`test_...[python]`) stable.
pytestmark = pytest.mark.parametrize("kern", [kernels], ids=["python"])


class TestSolveRate:
    def test_single_node_linear(self, kern):
        assert kern.solve_rate([100.0], [100.0], 50.0) == pytest.approx(0.5)

    def test_two_piece_kink(self, kern):
        # First node caps at 40 once a > 0.4; 40 + 100a = 90.
        assert kern.solve_rate([40.0, 100.0], [100.0, 100.0], 90.0) == pytest.approx(0.5)

    def test_shrinking_supply_raises_rate(self, kern):
        assert kern.solve_rate([5e6], [5e6], 2.5e6) == pytest.approx(0.50)
        assert kern.solve_rate([4e6], [4e6], 2.1e6) == pytest.approx(0.525)

    def test_no_solution_returns_one(self, kern):
        assert kern.solve_rate([10.0], [10.0], 50.0) == 1.0
        assert kern.solve_rate([], [], 5.0) == 1.0

    def test_zero_supply_nodes_skipped(self, kern):
        assert kern.solve_rate([0.0, 100.0], [0.0, 100.0], 50.0) == pytest.approx(0.5)

    def test_zero_demand(self, kern):
        assert kern.solve_rate([10.0], [10.0], 0.0) == 0.0

    def test_exact_absorption(self, kern):
        rng = random.Random(42)
        for _ in range(300):
            n = rng.randint(1, 12)
            supply = [rng.uniform(1, 200) for _ in range(n)]
            remaining = [s * rng.uniform(0, 1) for s in supply]
            total = sum(remaining)
            demand = rng.uniform(0.05, 0.999) * total
            a = kern.solve_rate(remaining, supply, demand)
            absorbed = sum(min(r, s * a) for r, s in zip(remaining, supply))
            assert abs(absorbed - demand) <= 1e-9 * max(1.0, demand)

    def test_monotone_in_demand_and_remaining(self, kern):
        rng = random.Random(43)
        for _ in range(200):
            n = rng.randint(1, 8)
            supply = [rng.uniform(1, 100) for _ in range(n)]
            remaining = [s * rng.uniform(0, 1) for s in supply]
            d = rng.uniform(1, sum(remaining) + 10)
            a1 = kern.solve_rate(remaining, supply, d)
            a2 = kern.solve_rate(remaining, supply, d * 1.1)
            assert a2 >= a1 - 1e-12
            bigger = [min(s, r * 1.2 + 0.1) for r, s in zip(remaining, supply)]
            a3 = kern.solve_rate(bigger, supply, d)
            assert a3 <= a1 + 1e-12


class TestEffectiveProbs:
    def test_no_truncation(self, kern):
        assert kern.effective_probs([0.25, 0.625]) == [0.25, 0.625]

    def test_truncation_at_unit_budget(self, kern):
        assert kern.effective_probs([1.0, 0.625]) == [1.0, 0.0]
        assert kern.effective_probs([0.7, 0.5, 0.3]) == [0.7, pytest.approx(0.3), 0.0]

    def test_sum_capped_and_entries_bounded(self, kern):
        rng = random.Random(44)
        for _ in range(300):
            rates = [rng.uniform(0, 1) for _ in range(rng.randint(0, 10))]
            effs = kern.effective_probs(rates)
            assert sum(effs) <= 1.0 + 1e-12
            for e, a in zip(effs, rates):
                assert -1e-15 <= e <= a + 1e-15


class TestDualProbs:
    def test_single_contract_full_allocation(self, kern):
        assert kern.dual_probs([0.5], [1.0]) == [pytest.approx(1.0)]

    def test_symmetric_split(self, kern):
        assert kern.dual_probs([0.5, 0.5], [0.0, 0.0]) == [
            pytest.approx(0.5), pytest.approx(0.5)]

    def test_under_demanded_leftover(self, kern):
        assert kern.dual_probs([0.3], [0.0]) == [pytest.approx(0.3)]

    def test_empty(self, kern):
        assert kern.dual_probs([], []) == []

    def test_supply_and_nonnegativity(self, kern):
        rng = random.Random(45)
        for _ in range(400):
            n = rng.randint(1, 8)
            thetas = [rng.uniform(0.05, 1.5) for _ in range(n)]
            alphas = [rng.uniform(0, 5) for _ in range(n)]
            xs = kern.dual_probs(thetas, alphas)
            assert all(x >= 0.0 for x in xs)
            assert sum(xs) <= 1.0 + 1e-9

    def test_monotone_in_own_dual(self, kern):
        rng = random.Random(46)
        for _ in range(200):
            n = rng.randint(2, 6)
            thetas = [rng.uniform(0.05, 1.0) for _ in range(n)]
            alphas = [rng.uniform(0, 4) for _ in range(n)]
            xs = kern.dual_probs(thetas, alphas)
            bumped = list(alphas)
            bumped[0] += rng.uniform(0.01, 1.0)
            ys = kern.dual_probs(thetas, bumped)
            assert ys[0] >= xs[0] - 1e-12
            for k in range(1, n):
                assert ys[k] <= xs[k] + 1e-12


def _draw_by_scan(probs, u):
    """The linear scan `draw_index` replaced, kept as its reference: the
    first index whose running sum exceeds u, else -1."""
    cum = 0.0
    for k, p in enumerate(probs):
        cum += p
        if u < cum:
            return k
    return -1


def _probability_lists(rng):
    """Seeded lists of each kind a plan's slice can be: empty, with zeros,
    with repeated values, of total below 1 and of total exactly 1."""
    yield []
    for _ in range(200):
        n = rng.randint(1, 9)
        raw = [rng.random() for _ in range(n)]
        below = rng.uniform(0.05, 0.999) / sum(raw)
        yield [x * below for x in raw]                              # total < 1
        yield [0.0 if rng.random() < 0.4 else x * below for x in raw]   # zeros
        yield [0.0] * n
        yield [rng.choice([0.125, 0.1, 1 / 3])] * n                 # repeated
        yield [rng.choice([0.0, 0.05, 0.2]) for _ in range(n)]
        cuts = sorted(rng.randint(0, 64) for _ in range(n - 1))
        yield [(b - a) / 64 for a, b in zip([0] + cuts, cuts + [64])]   # total = 1
        yield kernels.effective_probs([rng.uniform(0.0, 0.8) for _ in range(n)])


class TestDrawIndex:
    def test_selects_by_cumulative(self, kern):
        cum = list(accumulate([0.25, 0.625]))
        assert kern.draw_index(cum, 0.0) == 0
        assert kern.draw_index(cum, 0.2499) == 0
        assert kern.draw_index(cum, 0.25) == 1
        assert kern.draw_index(cum, 0.8749) == 1
        assert kern.draw_index(cum, 0.875) == -1
        assert kern.draw_index(cum, 0.999) == -1

    def test_empty_is_unallocated(self, kern):
        assert kern.draw_index(list(accumulate([])), 0.3) == -1

    def test_matches_linear_scan(self, kern):
        rng = random.Random(15)
        kinds = set()
        for probs in _probability_lists(rng):
            cum = list(accumulate(probs))
            total = cum[-1] if cum else 0.0
            kinds.add((0.0 in probs, len(set(probs)) < len(probs),
                       total == 1.0, 0.0 < total < 1.0))
            us = [0.0, rng.random(), math.nextafter(total, 2.0), 1.0]
            for c in cum:
                us += [c, math.nextafter(c, 0.0)]
            for u in us:
                assert kern.draw_index(cum, u) == _draw_by_scan(probs, u), (probs, u)
        # Each kind of list was drawn from: zeros, repeats, total 1, total < 1.
        for k in range(4):
            assert any(kind[k] for kind in kinds)
