#!/usr/bin/env python3
"""Benchmark: compiled serving kernels vs the pure-Python fallback.

Measures the four hot kernels on serving-shaped workloads (short candidate
lists, many calls) plus an end-to-end serve loop, and prints per-call
timings for whichever backends are importable.  Also times the
per-impression uniform draw (`simulate._impression_uniform`), which is
plain Python under either backend, and the per-impression serving path
on a generated scenario: through `simulate.Server` (memoized candidates
and plan slices, then `draw_index`) and uncached (eligible ids filtered by
plan and flight, `effective_probs` and `draw_index` for every impression).

Usage: python benchmarks/bench_kernels.py [--calls N]
"""

import argparse
import random
import time

from gdserve import _kernels_py
from gdserve.hwm import generate_hwm_plan
from gdserve.kernels import BACKEND, draw_index
from gdserve.scenario import ScenarioSpec, generate_scenario
from gdserve.simulate import EligibilityIndex, Server, _attrs_key, _impression_uniform

BACKENDS = {"python": _kernels_py}
try:
    from gdserve import _kernels_c

    BACKENDS["c"] = _kernels_c
except ImportError:
    pass


def make_workloads(calls, rng):
    solve = []
    for _ in range(calls // 10):
        n = rng.randint(2, 40)
        supply = [rng.uniform(10, 500) for _ in range(n)]
        remaining = [s * rng.uniform(0, 1) for s in supply]
        demand = rng.uniform(0.1, 0.95) * sum(remaining)
        solve.append((remaining, supply, demand))
    trunc = []
    for _ in range(calls):
        n = rng.randint(1, 8)
        trunc.append([rng.uniform(0, 0.6) for _ in range(n)])
    recon = []
    for _ in range(calls):
        n = rng.randint(1, 8)
        recon.append(([rng.uniform(0.05, 1.2) for _ in range(n)],
                      [rng.uniform(0, 5) for _ in range(n)]))
    draws = [(probs, rng.random()) for probs in
             (trunc[i % len(trunc)] for i in range(calls))]
    return solve, trunc, recon, draws


def bench(label, fn, args_list):
    t0 = time.perf_counter()
    for args in args_list:
        fn(*args) if isinstance(args, tuple) else fn(args)
    elapsed = time.perf_counter() - t0
    return elapsed / len(args_list), elapsed


def serve_loop(kern, trunc, draws):
    t0 = time.perf_counter()
    for rates, (_, u) in zip(trunc, draws):
        effs = kern.effective_probs(rates)
        kern.draw_index(effs, u)
    return (time.perf_counter() - t0) / len(trunc)


def serve_paths():
    """Per-impression seconds of the uncached and the `Server` serving path
    over one generated week (HWM plan), uniforms drawn beforehand."""
    graph, events = generate_scenario(ScenarioSpec(
        num_contracts=40, num_attributes=4, seed=3, days=7, daily_traffic=8000))
    plan = generate_hwm_plan(graph)
    visits = [(_attrs_key(ev.attributes), ev.attributes, ev.ts, _impression_uniform(7, n))
              for n, ev in enumerate(events)]
    by_id = graph.contract_by_id

    def uncached():
        index = EligibilityIndex(graph.contracts, graph)
        for key, attrs, ts, u in visits:
            cands = [cid for cid in index.lookup(key, attrs)
                     if cid in plan and by_id[cid].in_flight(ts)]
            draw_index([p for _, p in plan.effective_probs(cands)], u)

    def cached():
        server = Server(plan, EligibilityIndex(graph.contracts, graph), graph.contracts)
        for key, attrs, ts, u in visits:
            draw_index(server.slice(server.candidates(key, attrs, ts))[1], u)

    out = {}
    for label, loop in (("uncached", uncached), ("Server", cached)):
        t0 = time.perf_counter()
        loop()
        out[label] = (time.perf_counter() - t0) / len(visits)
    return len(visits), out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--calls", type=int, default=200_000)
    args = parser.parse_args()
    rng = random.Random(7)
    solve, trunc, recon, draws = make_workloads(args.calls, rng)
    cases = [
        ("solve_rate (deg 2-40)", "solve_rate", solve),
        ("effective_probs (deg 1-8)", "effective_probs", trunc),
        ("dual_probs (deg 1-8)", "dual_probs", recon),
        ("draw_index", "draw_index", draws),
    ]
    results = {}
    for label, fname, workload in cases:
        row = {}
        for name, kern in BACKENDS.items():
            per_call, _ = bench(label, getattr(kern, fname), workload)
            row[name] = per_call
        results[label] = row
    row = {name: serve_loop(kern, trunc, draws) for name, kern in BACKENDS.items()}
    results["serve decision (trunc+draw)"] = row

    width = max(len(k) for k in results) + 2
    header = f"{'kernel':<{width}}" + "".join(f"{n + ' (us)':>14}" for n in BACKENDS)
    if "c" in BACKENDS:
        header += f"{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for label, row in results.items():
        line = f"{label:<{width}}"
        for name in BACKENDS:
            line += f"{row[name] * 1e6:>14.3f}"
        if "c" in BACKENDS:
            line += f"{row['python'] / row['c']:>9.1f}x"
        print(line)
    per_call, _ = bench("impression uniform", _impression_uniform,
                        [(7, i) for i in range(args.calls)])
    print(f"\n{'_impression_uniform':<{width}}{per_call * 1e6:>14.3f}"
          "  (plain Python under any backend)")
    n, paths = serve_paths()
    print(f"\nserving path per impression ({n} generated impressions, "
          f"{BACKEND} kernels)")
    for label, per_imp in paths.items():
        print(f"{label:<{width}}{per_imp * 1e6:>14.3f}")
    if "c" not in BACKENDS:
        print("\ncompiled kernels not built; showing pure-Python timings only")


if __name__ == "__main__":
    main()
