"""Seeded input generator for the benchmark.

Writes a scenario directory in the formats gdserve reads
(`supply.jsonl`, `contracts.jsonl`, `impressions.jsonl`) plus a
`manifest.json` holding the seed, the shape, the SHA-256 of each file and
facts the output checks need (contract targeting as conjunctions, the
number of in-window events).

The generator deliberately does not import gdserve: what the benchmark
measures must not change when the program's own scenario generator does.
Its logic follows the shape of gdserve's synthetic scenarios (sampled
attribute combinations, lognormal node weights, diurnal and weekend
traffic, a thin stream of off-graph visits, demand as a share of eligible
in-flight supply).

The market -- supply nodes, node weights, contract targeting, flights and
demand shares -- is drawn from the fixed MARKET_SEED, so every seed sees
the same 40 contracts and the same contention.  The `--seed` drives the
traffic: hourly counts, timestamps and off-graph visits, and through them
node supply and demands.  The dual solver's work changes severalfold from
one market to the next, which no run length could average out, while the
same market under different traffic costs the same work.  The same seed
always yields byte-identical files.

Usage: python3 perfbench/inputs.py --seed 3 --out DIR [--smoke]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from dataclasses import asdict, dataclass
from datetime import datetime, timedelta
from random import Random
from typing import Dict, List, Tuple

DIMENSIONS: List[Tuple[str, List[str]]] = [
    ("gender", ["male", "female"]),
    ("age_bucket", ["1", "2", "3", "4", "5", "6", "7"]),
    ("state", ["CA", "NY", "TX", "WA", "FL", "IL", "NV", "MA"]),
    ("interest", ["sports", "news", "finance", "autos", "travel", "games"]),
]
FLIGHT_MIX = (("day", 0.2), ("multi_day", 0.4), ("week", 0.4))
DEMAND_SHARE = (0.3, 0.7)
NIGHT_FACTOR = 0.35     # midnight-8am and 10pm-midnight
WEEKEND_FACTOR = 0.6
START = datetime(2026, 3, 2)
MARKET_SEED = 3         # the baseline market: 168 nodes, 639 edges at full shape
FILES = ("supply.jsonl", "contracts.jsonl", "impressions.jsonl")

# A conjunction of (attribute, allowed values) clauses.
Targeting = List[Tuple[str, List[str]]]


@dataclass(frozen=True)
class Shape:
    contracts: int
    days: int
    daily_traffic: int


FULL = Shape(contracts=40, days=7, daily_traffic=20000)
SMOKE = Shape(contracts=12, days=2, daily_traffic=3000)


def matches(attrs: Dict[str, str], targeting: Targeting) -> bool:
    """True when the visit satisfies every clause (absent attributes fail)."""
    return all(attrs.get(name) in values for name, values in targeting)


def attrs_key(attrs: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    """A visit's attribute set as a hashable key, as supply nodes are keyed."""
    return tuple(sorted(attrs.items()))


def render(targeting: Targeting) -> str:
    """Targeting text in gdserve's grammar."""
    parts = []
    for name, values in targeting:
        if len(values) == 1:
            parts.append(f"{name} = {values[0]}")
        else:
            parts.append(f"{name} IN {{{', '.join(sorted(values))}}}")
    return " AND ".join(parts)


def _hour_factor(t: datetime) -> float:
    f = 1.0 if 8 <= t.hour < 22 else NIGHT_FACTOR
    if t.weekday() >= 5:
        f *= WEEKEND_FACTOR
    return f


def _contract(rng: Random, shape: Shape):
    # Medium contention: a conjunction over two dimensions, each allowing
    # up to half of its values.
    clauses: Targeting = []
    for di in rng.sample(range(len(DIMENSIONS)), 2):
        name, values = DIMENSIONS[di]
        k = rng.randint(1, max(1, len(values) // 2))
        clauses.append((name, sorted(rng.sample(values, k))))
    kind = rng.choices([k for k, _ in FLIGHT_MIX],
                       weights=[w for _, w in FLIGHT_MIX])[0]
    if kind == "day":
        d0 = rng.randrange(shape.days)
        first, last = d0, d0 + 1
    elif kind == "multi_day":
        length = rng.randint(2, min(4, shape.days)) if shape.days > 1 else 1
        d0 = rng.randrange(max(1, shape.days - length + 1))
        first, last = d0, d0 + length
    else:
        first, last = 0, shape.days
    return clauses, START + timedelta(days=first), START + timedelta(days=last)


def generate(seed: int, shape: Shape, out_dir: str) -> dict:
    """Write the three input files and the manifest; return the manifest."""
    rng = Random(MARKET_SEED)

    # Supply nodes: distinct attribute combinations, each attribute
    # sometimes unknown (absent).
    target_nodes = 4 * shape.contracts + 8
    combos = set()
    nodes: List[Dict[str, str]] = []
    guard = 0
    while len(nodes) < target_nodes and guard < target_nodes * 50:
        guard += 1
        attrs = {}
        for name, values in DIMENSIONS:
            if rng.random() < 0.15:
                continue
            attrs[name] = rng.choice(values)
        key = attrs_key(attrs)
        if key in combos or not attrs:
            continue
        combos.add(key)
        nodes.append(attrs)
    weights = [rng.lognormvariate(0.0, 0.8) for _ in nodes]
    metas = [_contract(rng, shape) for _ in range(shape.contracts)]
    shares = [rng.uniform(*DEMAND_SHARE) for _ in metas]
    rng = Random(f"traffic-{seed}")

    # Hourly Poisson-like counts per node shaped by hour and weekday.
    total_weight = sum(weights)
    hours = shape.days * 24
    hour_shape = [_hour_factor(START + timedelta(hours=h)) for h in range(hours)]
    shape_total = sum(hour_shape)
    events: List[Tuple[datetime, int]] = []     # (ts, node index or -1 - extra)
    node_counts = [0] * len(nodes)
    for ni, w in enumerate(weights):
        node_total = shape.daily_traffic * shape.days * w / total_weight
        for h in range(hours):
            lam = node_total * hour_shape[h] / shape_total
            count = int(lam) + (1 if rng.random() < lam - int(lam) else 0)
            node_counts[ni] += count
            base = START + timedelta(hours=h)
            for _ in range(count):
                events.append((base + timedelta(seconds=rng.uniform(0, 3600)), ni))
    # Off-graph visits: combinations that were never forecast as nodes.
    extras: List[Dict[str, str]] = []
    for _ in range(max(1, len(events) // 50)):
        attrs = {name: rng.choice(values) for name, values in DIMENSIONS}
        if attrs_key(attrs) in combos:
            continue
        h = rng.randrange(hours)
        base = START + timedelta(hours=h)
        extras.append(attrs)
        events.append((base + timedelta(seconds=rng.uniform(0, 3600)), -len(extras)))
    events.sort(key=lambda e: e[0])

    def attrs_of(ref: int) -> Dict[str, str]:
        return nodes[ref] if ref >= 0 else extras[-ref - 1]

    # Demand: a share of the eligible events inside the flight.
    contracts = []
    for ci, (clauses, start, end) in enumerate(metas):
        ok_nodes = [matches(a, clauses) for a in nodes]
        ok_extras = [matches(a, clauses) for a in extras]
        eligible_flight = sum(
            1 for ts, ref in events if start <= ts < end
            and (ok_nodes[ref] if ref >= 0 else ok_extras[-ref - 1]))
        demand = max(1, int(eligible_flight * shares[ci]))
        contracts.append({"id": f"c{ci:03d}", "targeting": clauses,
                          "demand": demand, "start": start, "end": end})

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "supply.jsonl"), "w", encoding="utf-8") as fh:
        for ni, attrs in enumerate(nodes):
            fh.write(json.dumps({"id": f"n{ni:04d}", "attributes": attrs,
                                 "supply": node_counts[ni]}) + "\n")
    with open(os.path.join(out_dir, "contracts.jsonl"), "w", encoding="utf-8") as fh:
        for c in contracts:
            fh.write(json.dumps({"id": c["id"], "targeting": render(c["targeting"]),
                                 "demand": c["demand"], "start": c["start"].isoformat(),
                                 "end": c["end"].isoformat()}) + "\n")
    with open(os.path.join(out_dir, "impressions.jsonl"), "w", encoding="utf-8") as fh:
        for i, (ts, ref) in enumerate(events):
            fh.write(json.dumps({"id": f"imp-{i:07d}", "ts": ts.isoformat(),
                                 "attributes": attrs_of(ref)}) + "\n")

    sim_start = min(c["start"] for c in contracts)
    sim_end = max(c["end"] for c in contracts)
    manifest = {
        "seed": seed,
        "shape": asdict(shape),
        "impressions": len(events),
        "in_window": sum(1 for ts, _ in events if sim_start <= ts < sim_end),
        "supply_nodes": len(nodes),
        "edges": sum(1 for a in nodes for c in contracts if matches(a, c["targeting"])),
        "contracts": {c["id"]: {"targeting": c["targeting"],
                                "demand": c["demand"],
                                "start": c["start"].isoformat(),
                                "end": c["end"].isoformat()} for c in contracts},
        "sha256": {name: file_digest(os.path.join(out_dir, name)) for name in FILES},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return manifest


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true", help="small shape")
    args = parser.parse_args(argv)
    generate(args.seed, SMOKE if args.smoke else FULL, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
