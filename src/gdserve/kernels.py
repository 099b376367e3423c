"""Serving kernels.

These four functions are the numeric inner loops of planning and serving:

* solve_rate       -- smallest a with sum_i min(r_i, s_i * a) = d (rate solve)
* effective_probs  -- priority-order truncation of serving rates to sum <= 1
* dual_probs       -- per-impression primal reconstruction from dual values
* draw_index       -- single-uniform categorical draw, by bisection over the
                      running sums of the probabilities

They work on plain Python lists of floats, which beats array round-trips at
typical per-impression candidate-list sizes.  Sorts are stable and sums run
in a fixed order, so equal inputs give bit-identical outputs.  A caller
keeps the running sums of each probability list it draws from
(`itertools.accumulate`, left to right: the additions a linear scan of the
probabilities makes), so a draw is one `bisect_right`, not a Python loop.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Sequence


def solve_rate(remaining: Sequence[float], supply: Sequence[float],
               demand: float) -> float:
    """Solve sum_i min(r_i, s_i * a) = demand for the smallest a in [0, 1].

    Returns 1.0 when no solution exists (total remaining below demand,
    including the empty neighbor list).  Nodes with zero supply contribute
    nothing and are skipped.  Exact piecewise-linear solve over the
    breakpoints r_i / s_i; no iterative tolerance.
    """
    if demand <= 0.0:
        return 0.0
    points = []
    total = 0.0
    slope = 0.0
    for r, s in zip(remaining, supply):
        if s <= 0.0:
            continue
        points.append((r / s, r, s))
        total += r
        slope += s
    if total < demand:
        return 1.0
    points.sort(key=lambda p: p[0])  # stable on ties: deterministic results
    saturated = 0.0
    prev = 0.0
    for b, r, s in points:
        value = saturated + slope * b
        if value >= demand:
            if slope > 0.0:
                a = (demand - saturated) / slope
            else:
                a = prev
            return a if a < 1.0 else 1.0
        saturated += r
        slope -= s
        prev = b
    return 1.0


def effective_probs(rates: Sequence[float]) -> List[float]:
    """Truncate rates listed in priority order so they sum to at most 1.

    Earlier entries keep their full rate; the entry that crosses the unit
    budget gets the remainder; later entries get 0.
    """
    out = []
    cum = 0.0
    for a in rates:
        room = 1.0 - cum
        e = a if a < room else room
        if e < 0.0:
            e = 0.0
        out.append(e)
        cum += e
    return out


def dual_probs(thetas: Sequence[float], alphas: Sequence[float]) -> List[float]:
    """Reconstruct allocation probabilities for one impression.

    Solves sum_j max(0, theta_j * (1 + alpha_j - X)) = 1 exactly (breakpoint
    scan over the activation points X = 1 + alpha_j), sets
    beta = max(0, X), and returns x_j = max(0, theta_j * (1 + alpha_j - beta))
    in input order.  Requires theta_j > 0 for every entry.
    """
    n = len(thetas)
    if n == 0:
        return []
    # Stable ascending sort scanned from the top, so tie handling and float
    # accumulation order are fixed and results are deterministic.
    order = sorted(range(n), key=lambda k: alphas[k])
    a_sum = 0.0   # sum of theta_j * (1 + alpha_j) over active terms
    b_sum = 0.0   # sum of theta_j over active terms
    x_val = None
    for pos in range(n - 1, -1, -1):
        k = order[pos]
        a_sum += thetas[k] * (1.0 + alphas[k])
        b_sum += thetas[k]
        low = (1.0 + alphas[order[pos - 1]]) if pos > 0 else float("-inf")
        cand = (a_sum - 1.0) / b_sum
        if cand >= low:
            x_val = cand
            break
    if x_val is None:  # defensive; unreachable for positive thetas
        x_val = (a_sum - 1.0) / b_sum
    beta = x_val if x_val > 0.0 else 0.0
    return [max(0.0, thetas[k] * (1.0 + alphas[k] - beta)) for k in range(n)]


def draw_index(cum: Sequence[float], u: float) -> int:
    """Map one uniform draw through running sums of probabilities.

    `cum` is `list(accumulate(probs))` of non-negative probabilities.
    Returns the first index k with u < cum[k], or -1 when u falls past the
    total mass (the unallocated outcome).
    """
    k = bisect_right(cum, u)
    return k if k < len(cum) else -1
