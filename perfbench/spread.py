#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs the benchmark once per seed, each in its own process, then prints for
every end-to-end metric the median, the quartiles and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.  A
benchmark is steady when every spread is below a third of its bound.

Usage: python3 perfbench/spread.py --workload serve-hwm-cli --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    walls = []
    for seed in parse_seeds(args.seeds):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=600)
        walls.append(time.monotonic() - t0)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not line["correct"]:
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            return 1
        for name in values:
            values[name].append(line["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v[-1]:.6g}" for k, v in values.items())
            + f" wall={walls[-1]:.1f}s", flush=True)
    print(f"run wall time: mean {statistics.mean(walls):.1f} s, max {max(walls):.1f} s")
    ok = True
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        steady = spread < m["bound"] / 3
        ok &= steady
        print(f"{m['name']:16s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:.4f} bound {m['bound']}{'' if steady else '  NOT STEADY'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
