"""End-to-end delivery simulation with periodic re-optimization.

The engine streams timestamped impressions through a serving plan that is
regenerated at fixed cycle boundaries.  At each boundary the remaining
demand of every contract is restated from actual delivery (optionally passed
through the feedback adjustment), the remaining-flight supply forecast is
restated as the true remaining per-node supply times a configurable error
multiplier, and the chosen planner runs again: `generate_hwm_plan`,
`solve_dual_offline`, or the forecast-free reactive pacer of
`baseline_pacing`, whose plan is an `HwmPlan` too.  A re-plan restates
only those two vectors: the planner reads a `model.PlanningProblem`, one
supply float per node and the live contracts' demands over the run's one
`model.PlanningIndex`, so no graph, supply node or contract is built per
cycle.  Between boundaries serving is stateless: each impression's decision
depends only on the current plan and the impression itself.

The engine reads an `ImpressionStream`: columns of ids, timestamps and one
attribute-set id per impression, with one attribute map and one key per
distinct set.  The timestamps are a `PackedTimes`, fixed-width keys whose
byte order is time order, one `bytes` chunk per run.  `load_impressions`
reads a file straight into one through `iter_impressions`, the line reader
`gdserve serve` streams from too: each distinct set is checked and keyed
once.  The reader parses speculatively
(as Mison does, Li et al., VLDB 2017) and a block of lines at a time: lines
in the layout `save_impressions` writes whose attributes texts it has seen
are cut by string partitions, checked together and take those texts' sets
with no JSON decode, and any other line is decoded in full, with the same
rows as a result.  It gives a run of lines at a time, as columns; the ids
of a run checked together stay one packed text (`PackedIds`), which the
stream keeps as it is, so no `str` is made per id until one is read.  Any
other sequence of `ImpressionEvent`s is turned into a stream by one pass.
Because the stream is sorted, each cycle is a contiguous index range,
found by bisecting the keys at the cycle bounds, and a supply node's
impressions in a cycle (from which re-plans restate the forecast) are a
count of set ids over that range, kept by the node's position in the
index.

A run serves through one `Server`.  It holds each impression's eligible
contracts, the graph's edges for an attribute set that is a supply node and
one walk of the targeting trees per other attribute set, the flight
instants, and per (attribute set, flight phase) the eligible contracts in
flight, filled at the pair's first visit; each cycle hands it the new plan
(`Server.replan`).  Its `entry` gives the plan's probabilities for an
impression's candidates (eligible, in flight, planned), one entry per
distinct candidate tuple, with the running sums of its probabilities.  Its
callers, here and in `gdserve serve`, keep one slot per attribute set for
the current flight phase, so `entry` runs once per (set, phase) and plan,
not per impression, and only filters the in-flight contracts by the plan.
Every sampled decision is one `kernels.draw_index`, a bisection of those
sums.

Two serving modes are supported.  No candidate list changes inside a
flight phase, so both cut each cycle's range at the `Server`'s flight
instants (`_pieces`) and look each attribute set's entry up once per
piece.  In "sampled" mode every impression draws a contract from its
effective probabilities with one uniform, a counter hash of the seed and
the impression's stream position (`impression_uniform`, SplitMix64), so
runs are reproducible and any split of the stream draws the same numbers.
A piece keeps one slot per set id, filled at the set's first visit and
cleared when a contract that meets its booked demand is dropped, and draws
its uniforms from one `impression_uniforms`, which runs the hash on blocks
of up to 1024 positions at once, packed into one int.  In "expected" mode
the fractional probabilities themselves are accumulated, which removes all
randomness and lets tests reproduce analytic delivery numbers exactly:
each piece adds, per attribute set, its count of visits times the set's
slice.  The sums are exact: every probability is an integer number of
units of 2^-1074 (`exact_units`), and each contract's total is divided
once, which rounds as `math.fsum` of the per-impression probabilities
would.  `shards` adds the bounds of that many contiguous blocks of the
range to the cuts, and the report is bit-identical for every shard count.
That is the check that no decision depends on another impression; it does
not run blocks in parallel.  `gdserve serve --workers` does, over the
byte ranges of `split_impressions`.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass, fields
from datetime import datetime, timedelta
from itertools import accumulate, chain, islice, repeat
from operator import add, attrgetter, eq, mul
from sys import intern
from typing import (Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional,
                    Sequence, Set, Tuple, Union)

from . import metrics as mx
from . import targeting as tg
from .dual import solve_dual_offline
from .feedback import FeedbackConfig, apply_feedback, linear_goal
from .hwm import HwmEntry, HwmPlan, generate_hwm_plan
from .kernels import draw_index
from .model import (AllocationGraph, PlanningIndex, PlanningProblem, ServingPlan,
                    line_blocks, parse_lines, parse_ts, record_attributes, record_number)


class SimulationError(ValueError):
    pass


@dataclass(frozen=True)
class ImpressionEvent:
    """One user visit: opaque id, timestamp, attribute map."""

    id: str
    ts: datetime
    attributes: Dict[str, str]


@dataclass
class SimulationConfig:
    algorithm: str = "hwm"                    # "hwm" | "dual"
    feedback: Optional[FeedbackConfig] = None
    reopt_period_hours: float = 24.0
    forecast_error_multiplier: float = 1.0
    per_node_error: Optional[Dict[str, float]] = None
    seed: int = 0
    mode: str = "expected"                    # "expected" | "sampled"
    shards: int = 1
    sim_start: Optional[datetime] = None
    sim_end: Optional[datetime] = None

    def __post_init__(self):
        if not self.reopt_period_hours > 0:
            raise SimulationError("reopt_period_hours must be positive")
        # The cycles step by this timedelta: it must exist and not be zero.
        try:
            period = timedelta(hours=self.reopt_period_hours)
        except OverflowError:
            raise SimulationError(f"reopt_period_hours {self.reopt_period_hours!r} "
                                  "is longer than the longest timedelta") from None
        if not period:
            raise SimulationError(f"reopt_period_hours {self.reopt_period_hours!r} "
                                  "is under half a microsecond")
        if self.forecast_error_multiplier <= 0:
            raise SimulationError("forecast error multiplier must be positive")
        for nid, m in (self.per_node_error or {}).items():
            if m <= 0:
                raise SimulationError(f"node {nid}: error multiplier must be positive")
        if self.algorithm not in ("hwm", "dual"):
            raise SimulationError(f"unknown algorithm {self.algorithm!r}")
        if self.mode not in ("expected", "sampled"):
            raise SimulationError(f"unknown mode {self.mode!r}")
        if self.shards < 1:
            raise SimulationError("shards must be at least 1")
        if self.mode == "sampled" and self.shards != 1:
            raise SimulationError("sampled mode runs a single worker")


@dataclass
class ContractOutcome:
    contract_id: str
    booked: float
    delivered: float
    finished: bool

    @property
    def underdelivery_frac(self) -> float:
        return max(0.0, self.booked - self.delivered) / self.booked


@dataclass
class SimulationReport:
    algorithm: str
    mode: str
    cycle_bounds: List[datetime]
    outcomes: List[ContractOutcome]
    timeseries: List[mx.TimeseriesRow]
    rates: Dict[str, List[Optional[float]]]
    impressions_in_window: int
    impressions_skipped: int
    unallocated: float
    smoothness: Dict[str, Optional[float]]
    delivery_improvement: Optional[float] = None

    def booked_by_id(self) -> Dict[str, float]:
        return {o.contract_id: o.booked for o in self.outcomes}

    def delivered_by_id(self) -> Dict[str, float]:
        return {o.contract_id: o.delivered for o in self.outcomes}

    @property
    def total_underdelivery_frac(self) -> float:
        return mx.underdelivery_fraction(self.booked_by_id(), self.delivered_by_id())


# ---------------------------------------------------------------------------
# Analytic re-optimization drift: terminal delivery error and its bound
# ---------------------------------------------------------------------------

def terminal_delivery_error(r: float, k: int) -> float:
    """Exact terminal delivery error after k re-optimization cycles.

    `r` is the supply forecast error rate (1 minus the ratio of real to
    predicted supply, r < 1).  With uniform supply, per-cycle replanning and
    rates below saturation, the undelivered fraction of demand after the
    final cycle is (r/k) * prod_{i=1..k-1} (1 + r/i): positive values are
    underdelivery, negative values overdelivery.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if r >= 1:
        raise ValueError("error rate must be below 1")
    value = r / k
    for i in range(1, k):
        value *= 1.0 + r / i
    return value


def terminal_delivery_error_bound(r: float, k: int) -> float:
    """Closed-form upper bound on |terminal_delivery_error|.

    (r + r^2) / k^(1-r) for r > 0 (underdelivery side) and
    |r| / k^(1-r) for r < 0 (overdelivery side); 0 when r = 0.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if r >= 1:
        raise ValueError("error rate must be below 1")
    if r == 0:
        return 0.0
    if r > 0:
        return (r + r * r) / k ** (1.0 - r)
    return abs(r) / k ** (1.0 - r)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15     # 2^64 / golden ratio, odd


def impression_uniform(seed: int, index: int) -> float:
    """The uniform in [0, 1) that impression `index` of a run with `seed` draws.

    A pure function of (seed, index), so decisions do not depend on how the
    stream is processed or split.  It is output number n = seed*G + index + 1
    (mod 2^64) of SplitMix64 started from state 0 (Steele, Lea & Flood,
    OOPSLA 2014): the counter n*G through the 64-bit finalizer, top 53 bits.
    Seed 0 is therefore SplitMix64's reference sequence, and each seed reads
    it from its own start, G positions after the previous seed's.  Starts of
    seeds up to 10^6 apart are at least 9.9e12 positions apart, so their
    streams do not overlap before that many impressions.
    """
    return next(impression_uniforms(seed, index))


def _lanes(values: Iterable[int]) -> int:
    """`values` packed into one int, value j in the 128-bit lane j."""
    return int.from_bytes(b"".join(v.to_bytes(16, "little") for v in values), "little")


# Block sizes of `impression_uniforms`, the last repeated: for each, its
# lane count, the int with 1 in every lane, the one with j*G in lane j, and
# the mask of every lane's low 64 bits.
_BLOCKS = [(n, _lanes([1] * n), _lanes(j * _GOLDEN_GAMMA for j in range(n)),
            _lanes([_MASK64] * n)) for n in (16, 32, 64, 128, 256, 512, 1024)]
# The low 64-bit words of the lanes in `int.to_bytes(..., sys.byteorder)`
# read as native words: every other word from the first, or on a
# big-endian machine, where the last lane comes first and its high word
# before its low one, every other word from the last.
_LOW_WORDS = slice(None, None, 2) if sys.byteorder == "little" else slice(None, None, -2)


def impression_uniforms(seed: int, start: int) -> Iterator[float]:
    """`impression_uniform(seed, start + j)` for j = 0, 1, 2, ...

    SplitMix64's counter of position n is n*G (mod 2^64), so each uniform
    is the finalizer of a counter known in advance (a counter-based
    generator, as in Salmon et al., "Parallel Random Numbers: As Easy as
    1, 2, 3", SC 2011), and the finalizer runs on a block of counters at
    once: one int holds counter j of the block in its 128-bit lane j, and
    each step of the finalizer is a few big-int operations on the whole
    block.  No step carries from one lane into the next.  A lane holds
    below 2^64 after each mask; the bits a right shift moves in from the
    lane above are masked off before the multiply; and a value below 2^64
    times a 64-bit constant stays below 2^128.  The last shift is not
    masked: the bits it moves in land in the lane's high word, which is
    not read.  Each output is an int below 2^53, so its product with
    2^-53 is exact.  Blocks grow from 16 to 1024 lanes, so a short take
    computes at most 16 uniforms it does not use.
    """
    return chain.from_iterable(_uniform_blocks(seed, start))


def _uniform_blocks(seed: int, start: int) -> Iterator[Iterator[float]]:
    mask, gamma = _MASK64, _GOLDEN_GAMMA
    n = ((seed * gamma + start + 1) * gamma) & mask
    scale = (2.0 ** -53).__mul__
    for lanes, ones, steps, low in chain(_BLOCKS, repeat(_BLOCKS[-1])):
        z = (n * ones + steps) & low
        z = ((z ^ ((z >> 30) & low)) * 0xBF58476D1CE4E5B9) & low
        z = ((z ^ ((z >> 27) & low)) * 0x94D049BB133111EB) & low
        z = (z ^ (z >> 31)) >> 11
        words = memoryview(z.to_bytes(16 * lanes, sys.byteorder)).cast("Q")
        yield map(scale, words[_LOW_WORDS])
        n = (n + lanes * gamma) & mask


# Every finite double is an integer multiple of 2^-1074, the least subnormal.
_UNIT_DENOMINATOR = 1 << 1074


def exact_units(p: float) -> int:
    """The finite float `p` as an integer number of units of 2^-1074.

    Sums of such integers are exact, and `total / _UNIT_DENOMINATOR` (int
    true division) rounds once, to nearest, ties to even, as `math.fsum`
    does, so a count-weighted sum gives `math.fsum` of the expanded list.
    """
    num, den = p.as_integer_ratio()
    return num << (1075 - den.bit_length())


AttrsKey = Tuple[Tuple[str, str], ...]


def attrs_key(attrs: Mapping[str, str]) -> AttrsKey:
    """The canonical key of an attribute set: its items, sorted."""
    return tuple(sorted(attrs.items()))


class _Chunked(Sequence):
    """A sequence held in chunks: `_chunks`, and `_starts`, the index of each
    chunk's first item, then the length.  A subclass gives item j of chunk
    k (`_item`) and iteration; `len`, indexing (negative and slices too)
    and `==` with a list or another of its class are then a list's."""

    def __init__(self):
        self._chunks: list = []
        self._starts = [0]

    def _add(self, chunk, n: int) -> None:
        if n:
            self._chunks.append(chunk)
            self._starts.append(self._starts[-1] + n)

    def _item(self, k: int, j: int):
        raise NotImplementedError

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self))[i]         # negative and out-of-range i as a list's
        k = bisect_right(self._starts, i) - 1
        return self._item(k, i - self._starts[k])

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, type(self))):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class PackedIds(_Chunked, Sequence[str]):
    """Impression ids held in chunks, each a list of ids or a packed text.

    A packed text is `"` + id for each of its ids, joined: the fronts of
    lines in the layout `save_impressions` writes, whose ids hold no `"`,
    each with its `_ID_START` made one `"`, so the text cut at `"` gives
    them back.  It keeps an id in its characters and 1 more, where a list
    keeps an 8-byte slot and an `str` of its characters and 49 more.  A
    text is split when it is read, and the last one split by indexing is
    kept.
    """

    def __init__(self):
        super().__init__()
        self._split: Tuple[int, List[str]] = (-1, [])   # (chunk, its ids)

    @classmethod
    def packed(cls, text: str, n: int) -> "PackedIds":
        """The `n` ids of the packed text `text`."""
        ids = cls()
        ids._add(text, n)
        return ids

    def add(self, ids: Sequence[str]) -> None:
        """Add `ids` at the end: the chunks of a `PackedIds`, else `ids`
        itself, a list that is kept, not copied."""
        if isinstance(ids, PackedIds):
            for chunk, a, b in zip(ids._chunks, ids._starts, islice(ids._starts, 1, None)):
                self._add(chunk, b - a)
        else:
            self._add(ids, len(ids))

    def _item(self, k: int, j: int) -> str:
        chunk = self._chunks[k]
        if isinstance(chunk, str):
            if self._split[0] != k:
                self._split = (k, _unpack(chunk))
            chunk = self._split[1]
        return chunk[j]

    def __iter__(self) -> Iterator[str]:
        return chain.from_iterable(
            chunk if isinstance(chunk, list) else _unpack(chunk) for chunk in self._chunks)


def _unpack(text: str) -> List[str]:
    """The ids of a packed text (see `PackedIds`)."""
    ids = text.split('"')
    del ids[0]
    return ids


# A timestamp key: the 20 digits YYYYMMDDhhmmssffffff of a naive datetime,
# two to a byte (see `PackedTimes`).
KEY_BYTES = 10
# The layout keys are read from, 'YYYY-MM-DDTHH:MM:SS.ffffff' (26
# characters, as `isoformat(timespec="microseconds")` writes a naive
# time), with 0 for every digit and the "\n" that ends a text in a join;
# `_ZEROED` makes every digit 0.
_LAYOUT = b"0000-00-00T00:00:00.000000\n"
_ZEROED = bytes.maketrans(b"123456789", b"000000000")
# The separators as spaces, which `bytes.fromhex` skips between digit
# pairs, as it skips the "\n" between texts.
_SPACED = bytes.maketrans(b"-T:.", b"    ")


def _text_keys(joined: str, n: int) -> Optional[bytes]:
    """The keys of the `n` timestamp texts joined by "\\n" in `joined`, if
    all of them have the layout `_LAYOUT`, with a decimal digit at every
    place but the separators'; else None.  Only the layout is checked, not
    the calendar."""
    if len(joined) + 1 != len(_LAYOUT) * n:
        return None
    text = joined.encode()
    if text.translate(_ZEROED) + b"\n" != _LAYOUT * n:
        return None
    return bytes.fromhex(text.translate(_SPACED).decode())


def _key_time(key: bytes) -> datetime:
    """The datetime of the key `key`."""
    d = key.hex()
    return datetime(int(d[:4]), int(d[4:6]), int(d[6:8]), int(d[8:10]), int(d[10:12]),
                    int(d[12:14]), int(d[14:]))


class PackedTimes(_Chunked, Sequence[datetime]):
    """Naive timestamps held as keys of `KEY_BYTES` bytes, in chunks of keys.

    A key is the 20 digits YYYYMMDDhhmmssffffff of its time, two to a byte
    (`bytes.fromhex`).  Each field is zero-padded to a fixed width and
    written most significant first, so two times compare as their digit
    strings do; a byte holds its two digits as 16 times the first plus the
    second, so it orders its pairs as the digits do, and two keys compare
    byte by byte as their times.  A key keeps a time in 10 bytes, where a
    list keeps an 8-byte slot and a 48-byte `datetime`.

    A column is made of one chunk (`of_texts`, `of`) and grows by the
    chunks of others (`add`).  `disorder` is the index of the first time
    before the one ahead of it, or None; a chunk's own is found from the
    texts it is made of, which sort as their times, and `add` compares
    each new chunk's first key with the last key so far.  Indexing and
    iteration give datetimes, and `bisect_left` of a sorted column bisects
    the chunks' first keys, then one chunk.
    """

    def __init__(self):
        super().__init__()
        self._firsts: List[bytes] = []      # each chunk's first key
        self.disorder: Optional[int] = None

    @classmethod
    def of_texts(cls, texts: Sequence[str], joined: str) -> Optional["PackedTimes"]:
        """The times of the texts `texts`, `joined` their join by "\\n", as
        one chunk, if all have the layout of `_text_keys`; else
        None.  The calendar is not checked."""
        keys = _text_keys(joined, len(texts))
        if keys is None:
            return None
        ts = cls()
        ts._firsts.append(keys[:KEY_BYTES])
        ts._add(keys, len(texts))
        if sorted(texts) != list(texts):
            ts.disorder = next(i for i in range(1, len(texts)) if texts[i] < texts[i - 1])
        return ts

    @classmethod
    def of(cls, ts: Sequence[datetime]) -> "PackedTimes":
        """The naive datetimes `ts` as one chunk, through their ISO texts."""
        texts = [t.isoformat(timespec="microseconds") for t in ts]
        packed = cls.of_texts(texts, "\n".join(texts)) if texts else cls()
        if packed is None:
            bad = next(text for text in texts if len(text) != 26)
            raise SimulationError(f"impression time {bad} is not naive")
        return packed

    def add(self, other: "PackedTimes") -> None:
        """Add the chunks of `other` at the end."""
        if self.disorder is None and other._chunks:
            if self._chunks and self._chunks[-1][-KEY_BYTES:] > other._firsts[0]:
                self.disorder = len(self)
            elif other.disorder is not None:
                self.disorder = len(self) + other.disorder
        self._firsts += other._firsts
        for chunk, a, b in zip(other._chunks, other._starts, islice(other._starts, 1, None)):
            self._add(chunk, b - a)

    def _item(self, k: int, j: int) -> datetime:
        return _key_time(self._chunks[k][j * KEY_BYTES:(j + 1) * KEY_BYTES])

    def __iter__(self) -> Iterator[datetime]:
        return (_key_time(chunk[i:i + KEY_BYTES]) for chunk in self._chunks
                for i in range(0, len(chunk), KEY_BYTES))

    def bisect_left(self, t: datetime, lo: int = 0, hi: Optional[int] = None) -> int:
        """`bisect.bisect_left(self, t, lo, hi)`, for a sorted column."""
        hi = len(self) if hi is None else hi
        key = self.of((t,))._firsts[0]
        k = bisect_left(self._firsts, key) - 1      # the last chunk starting before t
        if k < 0:
            return lo
        chunk, a, b = self._chunks[k], 1, self._starts[k + 1] - self._starts[k]
        while a < b:
            m = (a + b) // 2
            if chunk[m * KEY_BYTES:(m + 1) * KEY_BYTES] < key:
                a = m + 1
            else:
                b = m
        return min(max(self._starts[k] + a, lo), hi)


# The events `ImpressionStream.of` turns into keys at once.
_OF_CHUNK = 1 << 10


class ImpressionStream(Sequence[ImpressionEvent]):
    """An impression stream held as columns, with its attribute sets interned.

    Impression i is `ids[i]`, `ts[i]` and attribute set `set_ids[i]`; set s
    has the attribute map `attrs[s]` and its `attrs_key`, `keys[s]`.  The
    ids are a `PackedIds` and the timestamps a `PackedTimes`: a stream
    loaded from a file keeps the ids of each run of lines read together as
    one text and their timestamps as one chunk of keys.  A set is a
    distinct map in its own key order, so equal maps written in two orders
    are two sets with equal keys, and every impression keeps the order it
    was read in.  Indexing and iteration give `ImpressionEvent`s; the
    events of one set share its map, which is not to be changed.
    """

    def __init__(self):
        self.ids = PackedIds()
        self.ts = PackedTimes()
        self.set_ids: List[int] = []
        self.attrs: List[Mapping[str, str]] = []
        self.keys: List[AttrsKey] = []
        self._set_of_items: Dict[Tuple[Tuple[str, str], ...], int] = {}

    @classmethod
    def of(cls, events: Iterable[ImpressionEvent]) -> "ImpressionStream":
        """`events` as a stream: a stream itself, else one built in one pass,
        whose ids are one list.  The timestamps are turned into keys
        `_OF_CHUNK` events at a time, so their texts are never all held."""
        if isinstance(events, cls):
            return events
        stream = cls()
        ids: List[str] = []
        events = iter(events)
        for chunk in iter(lambda: list(islice(events, _OF_CHUNK)), []):
            ids += [ev.id for ev in chunk]
            stream.ts.add(PackedTimes.of([ev.ts for ev in chunk]))
            stream.set_ids += [stream.set_id(ev.attributes) for ev in chunk]
        stream.ids.add(ids)
        return stream

    def set_id(self, attrs: Mapping[str, str]) -> int:
        """The id of the set `attrs`, added if it is new."""
        items = tuple(attrs.items())
        sid = self._set_of_items.get(items)
        if sid is None:
            sid = self._set_of_items[items] = len(self.attrs)
            self.attrs.append(attrs)
            self.keys.append(attrs_key(attrs))
        return sid

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return ImpressionEvent(self.ids[i], self.ts[i], self.attrs[self.set_ids[i]])

    def __iter__(self) -> Iterator[ImpressionEvent]:
        attrs = self.attrs
        for imp_id, t, sid in zip(self.ids, self.ts, self.set_ids):
            yield ImpressionEvent(imp_id, t, attrs[sid])


Candidates = Tuple[str, ...]
# One candidate tuple's plan slice: its ids in the plan's order, their
# probabilities, and the running sums of those, the list `draw_index` takes.
Entry = Tuple[Tuple[str, ...], List[float], List[float]]


class Server:
    """Serving state of one run: eligibility, flight phases and one plan.

    Eligible contract ids per attribute set are built once: a set that
    matches a supply node of `graph` takes the node's edges, in edge order
    (of nodes with equal attributes, the last), and any other set is
    evaluated against the targeting of every contract of `graph` the first
    time it is seen.  Ids come in no particular order; `effective_probs`
    orders them.  The flight phases are the intervals between `instants`,
    the sorted distinct start and end instants of the contracts; no
    contract enters or leaves its flight inside one, and phase p,
    `bisect_right(instants, ts)`, holds the times from `instants[p - 1]`
    to before `instants[p]`.
    The eligible ids of a set that are in flight in a phase are kept for
    the run, from the pair's first visit on, so `Contract.in_flight` runs
    once per (set, eligible contract, phase).

    `replan` sets the plan.  An impression's candidates are its eligible
    contracts in flight that the plan holds and that are not dropped;
    `entry` gives their slice (`plan.effective_probs`), computed once per
    distinct candidate tuple and plan, with the running sums of its
    probabilities (`itertools.accumulate`), so that a draw is one
    bisection (`draw_index`).  Candidates depend on the attribute set and
    the flight phase only, so a caller keeps one slot per attribute set
    for the phase it is in, and calls `entry` when the slot is empty: the
    simulator cuts each cycle's sorted range into phases, and `gdserve
    serve` keeps the slots of the last row's phase.
    """

    def __init__(self, graph: AllocationGraph):
        self._contracts = list(graph.contracts)
        self._contract = {c.id: c for c in self._contracts}
        ids_of = {n.id: [] for n in graph.supply_nodes}
        for sid, cid in graph.edges:
            ids_of[sid].append(cid)
        self._ids: Dict[AttrsKey, List[str]] = {
            attrs_key(n.attributes): ids_of[n.id] for n in graph.supply_nodes}
        self.instants = sorted({t for c in self._contracts for t in (c.start, c.end)})
        # The eligible ids in flight per (set key, phase) visited.
        self._flying: Dict[Tuple[AttrsKey, int], List[str]] = {}
        self._plan: Optional[ServingPlan] = None
        self._served: Set[str] = set()
        self._entries: Dict[Candidates, Entry] = {}

    def replan(self, plan: ServingPlan) -> None:
        """Serve `plan` from now on, with no contract dropped."""
        self._plan = plan
        self._served = {c.id for c in self._contracts if c.id in plan}
        self._entries = {}

    def entry(self, key: AttrsKey, attrs: Mapping[str, str], ts: datetime) -> Entry:
        """The plan slice for the candidates of `attrs` (whose `attrs_key` is
        `key`) at `ts`: ids, probabilities and their running sums."""
        slot = (key, bisect_right(self.instants, ts))
        flying = self._flying.get(slot)
        if flying is None:
            ids = self._ids.get(key)
            if ids is None:
                ids = self._ids[key] = [c.id for c in self._contracts
                                        if tg.eligible(attrs, c.targeting)]
            contract = self._contract
            flying = self._flying[slot] = [cid for cid in ids
                                           if contract[cid].in_flight(ts)]
        cands = tuple(filter(self._served.__contains__, flying))
        entry = self._entries.get(cands)
        if entry is None:
            pairs = self._plan.effective_probs(cands)
            probs = [p for _, p in pairs]
            entry = self._entries[cands] = (tuple([cid for cid, _ in pairs]), probs,
                                            list(accumulate(probs)))
        return entry

    def drop(self, contract_id: str) -> None:
        """Serve `contract_id` no more under this plan (it has met its booked
        demand).  The entries `entry` gave before may hold it."""
        self._served.remove(contract_id)


_BASE_GAIN = 4.0


class _BaseController:
    """Forecast-free reactive pacer: rates start at demand over estimated
    eligible traffic and are rescaled each cycle in proportion to the gap
    from the linear goal.  Its plan lists the contracts in a fixed priority
    order, soonest flight end first."""

    def __init__(self):
        self.rates: Dict[str, float] = {}

    def replan(self, graph: Union[AllocationGraph, PlanningProblem],
               cycle_start: datetime, delivered: Mapping[str, float],
               prev_cycle_traffic: Mapping[str, float],
               cycle_traffic: Mapping[str, float]) -> HwmPlan:
        """Rates for the live contracts of `PlanningProblem.of(graph)` this
        cycle; traffic is eligible events per hour in the previous and in
        this cycle."""
        problem = PlanningProblem.of(graph)
        contracts = problem.index.contracts
        entries = []
        for j in sorted(problem.demand,
                        key=lambda j: (contracts[j].end, contracts[j].id)):
            c = contracts[j]
            if c.id not in self.rates:
                traffic = prev_cycle_traffic.get(c.id) or cycle_traffic.get(c.id, 0.0)
                if traffic <= 0.0:
                    rate = 1.0
                else:
                    rate = min(1.0, c.booked_demand / (c.flight_hours * traffic))
            else:
                rate = self.rates[c.id]
                gap = (linear_goal(c, cycle_start) - delivered[c.id]) / c.booked_demand
                rate *= 1.0 + _BASE_GAIN * gap
                if gap > 0.0:
                    rate = max(rate, 1e-3)
                rate = min(max(rate, 0.0), 1.0)
            self.rates[c.id] = rate
            entries.append(HwmEntry(c.id, problem.eligible_supply(j), rate))
        return HwmPlan(entries)


def _pieces(ts: PackedTimes, instants: Sequence[datetime], lo: int, hi: int,
            bounds: Iterable[int] = ()) -> Iterator[Tuple[int, int]]:
    """The range [lo, hi) of the sorted timestamps `ts` cut into pieces
    (a, b), in order: at the first index at or after each of the sorted
    `instants`, so that every piece lies in one flight phase, and at
    `bounds`.  An instant at or before `ts[lo]` cuts at lo, and one after
    `ts[hi - 1]` at hi, so only those between are bisected."""
    inner = (instants[bisect_right(instants, ts[lo]):bisect_right(instants, ts[hi - 1])]
             if lo < hi else ())
    cuts = sorted({ts.bisect_left(t, lo, hi) for t in inner}.union(bounds, (lo, hi)))
    return zip(cuts, islice(cuts, 1, None))


# The most re-plan cycles one run may have: 2 h cycles for 22 years, or
# 1-minute cycles for 69 days.  Each cycle keeps a row of supply counts
# and a plan, so a tiny period over a long window would exhaust memory.
MAX_CYCLES = 100_000


def run_simulation(graph: AllocationGraph, impressions: Sequence[ImpressionEvent],
                   cfg: SimulationConfig) -> SimulationReport:
    """Simulate serving `impressions` against `graph` under `cfg`."""
    return _run_engine(graph, impressions, cfg, cfg.algorithm)


def baseline_pacing(graph: AllocationGraph, impressions: Sequence[ImpressionEvent],
                    cfg: SimulationConfig) -> SimulationReport:
    """Simulate the reactive comparator (no forecast; pure pacing feedback)."""
    return _run_engine(graph, impressions, cfg, "base")


def _run_engine(graph: AllocationGraph, impressions: Sequence[ImpressionEvent],
                cfg: SimulationConfig, algorithm: str) -> SimulationReport:
    """Run the cycles with planner `algorithm`: "hwm", "dual" or "base" (the
    reactive pacer).  The planners and `draw_index` are module globals read
    at each call, so a wrapper set on this module (as the benchmark's traced
    runs set one) sees every call."""
    if not graph.contracts:
        raise SimulationError("no contracts to simulate")
    # Re-plans restate supply and demand vectors over one index of the graph.
    planning = PlanningIndex(graph)
    unknown = sorted(set(cfg.per_node_error or ()) - set(planning.node_ids))
    if unknown:
        raise SimulationError("forecast_error_per_node names no supply node: "
                              + ", ".join(unknown))
    sim_start = cfg.sim_start or min(c.start for c in graph.contracts)
    sim_end = cfg.sim_end or max(c.end for c in graph.contracts)
    if sim_start >= sim_end:
        raise SimulationError("simulation window is empty")
    period = timedelta(hours=cfg.reopt_period_hours)
    whole, part = divmod(sim_end - sim_start, period)
    n_cycles = whole + (part > timedelta(0))
    if n_cycles > MAX_CYCLES:
        raise SimulationError(
            f"{n_cycles} cycles of {cfg.reopt_period_hours!r} h from {sim_start.isoformat()} "
            f"to {sim_end.isoformat()}; a run has at most {MAX_CYCLES}")
    bounds = [sim_start]
    while bounds[-1] < sim_end:
        # A period is added only where the sum stays before sim_end, so a
        # long period never takes a date past `datetime.max`.
        bounds.append(bounds[-1] + period if sim_end - bounds[-1] > period else sim_end)
    cycle_hours = cfg.reopt_period_hours

    stream = ImpressionStream.of(impressions)
    ts, set_ids = stream.ts, stream.set_ids
    keys, attrs_of_set = stream.keys, stream.attrs
    i = ts.disorder
    if i is not None:
        raise SimulationError(
            f"impression {stream.ids[i]} at {ts[i].isoformat()} is out of order")

    # The stream is sorted, so cycle k is the index range
    # [starts[k], starts[k + 1]); counts[k][i] is supply node i's impressions
    # in it, and supply_from[k][i] those from cycle k on, as floats.
    starts = [ts.bisect_left(b) for b in bounds]
    served = starts[-1] - starts[0]
    skipped = len(ts) - served
    node_of_key = {attrs_key(n.attributes): i for i, n in enumerate(graph.supply_nodes)}
    node_of_set = [node_of_key.get(key) for key in keys]
    counts = [[0] * len(planning.node_ids) for _ in range(n_cycles)]
    for k, row in enumerate(counts):
        for sid, n in Counter(set_ids[starts[k]:starts[k + 1]]).items():
            i = node_of_set[sid]
            if i is not None:
                row[i] += n
    supply_from = list(accumulate(reversed(counts), lambda acc, row: list(map(add, acc, row)),
                                  initial=[0.0] * len(planning.node_ids)))[::-1]
    per_node = cfg.per_node_error or {}
    multipliers = [per_node.get(nid, cfg.forecast_error_multiplier)
                   for nid in planning.node_ids]

    server = Server(graph)
    booked_of = {c.id: c.booked_demand for c in graph.contracts}
    n_sets = len(keys)
    delivered: Dict[str, float] = {c.id: 0.0 for c in graph.contracts}
    boost: Dict[str, bool] = {c.id: False for c in graph.contracts}
    rates_trace: Dict[str, List[Optional[float]]] = {c.id: [] for c in graph.contracts}
    timeseries: List[mx.TimeseriesRow] = []
    sampled = cfg.mode == "sampled"
    pacer = _BaseController()

    def eligible_traffic(k: int) -> Dict[str, float]:
        # Eligible on-graph events per hour for each contract during cycle k.
        if k < 0:
            return {}
        hours = (bounds[k + 1] - bounds[k]).total_seconds() / 3600.0
        return {c.id: sum(map(counts[k].__getitem__, nodes)) / hours
                for c, nodes in zip(graph.contracts, planning.nodes_of)}

    for k in range(n_cycles):
        cycle_start = bounds[k]
        cycle_end = bounds[k + 1]

        # Restate the demand of each live contract, by position: actual
        # delivery, optionally feedback-adjusted.
        demand: Dict[int, float] = {}
        for j, c in enumerate(graph.contracts):
            remaining = c.booked_demand - delivered[c.id]
            if remaining <= 0 or c.end <= cycle_start:
                continue
            reported = remaining
            if cfg.feedback is not None:
                reported, boost[c.id] = apply_feedback(
                    c, delivered[c.id], boost[c.id], cycle_start, cfg.feedback,
                    cycle_hours)
            demand[j] = reported
        plan = None
        if demand:
            # Restate the remaining-flight forecast: true remaining supply
            # distorted by the configured error multiplier.
            supply = list(map(mul, supply_from[k], multipliers))
            problem = PlanningProblem(planning, supply, demand)
            if algorithm == "hwm":
                plan = generate_hwm_plan(problem)
            elif algorithm == "dual":
                plan = solve_dual_offline(problem)
            else:
                plan = pacer.replan(problem, cycle_start, delivered,
                                    eligible_traffic(k - 1), eligible_traffic(k))
            cycle_rates = {e.contract_id: e.alpha for e in plan.entries}
        else:
            cycle_rates = {}
        for c in graph.contracts:
            rates_trace[c.id].append(cycle_rates.get(c.id))

        # Serve this cycle's impressions.
        lo, hi = starts[k], starts[k + 1]
        if plan is not None and lo < hi:
            # Plan membership matters: the dual planner drops contracts with
            # no eligible forecast supply.
            server.replan(plan)
            if sampled:
                # Each set's entry is looked up once per phase into a slot,
                # and again after a drop, since a slot may hold the dropped
                # contract.
                for a, b in _pieces(ts, server.instants, lo, hi):
                    t = ts[a]
                    slots: List[Optional[Entry]] = [None] * n_sets
                    for sid, u in zip(set_ids[a:b], impression_uniforms(cfg.seed, a)):
                        entry = slots[sid]
                        if entry is None:
                            entry = slots[sid] = server.entry(
                                keys[sid], attrs_of_set[sid], t)
                        sel = draw_index(entry[2], u)
                        if sel >= 0:
                            cid = entry[0][sel]
                            delivered[cid] += 1.0
                            if delivered[cid] >= booked_of[cid]:
                                server.drop(cid)
                                slots = [None] * n_sets
            else:
                # Each phase's delivery is its count of each set times the
                # set's slice.  The shards' block bounds split the range
                # further.
                block = max(1, math.ceil((hi - lo) / cfg.shards))
                acc: Dict[str, int] = {}
                for a, b in _pieces(ts, server.instants, lo, hi, range(lo, hi, block)):
                    t = ts[a]
                    for sid, n in Counter(set_ids[a:b]).items():
                        ids, probs, _ = server.entry(keys[sid], attrs_of_set[sid], t)
                        for cid, p in zip(ids, probs):
                            if p > 0.0:
                                acc[cid] = acc.get(cid, 0) + n * exact_units(p)
                for j in demand:
                    cid = graph.contracts[j].id
                    inc = acc.get(cid, 0) / _UNIT_DENOMINATOR
                    delivered[cid] = min(booked_of[cid], delivered[cid] + inc)

        for c in graph.contracts:
            if c.start <= cycle_end <= c.end:
                timeseries.append(mx.TimeseriesRow(
                    cycle_end, c.id, delivered[c.id], linear_goal(c, cycle_end)))

    outcomes = [ContractOutcome(c.id, float(c.booked_demand), delivered[c.id],
                                c.end <= sim_end)
                for c in graph.contracts]
    unallocated = served - math.fsum(delivered.values())
    smooth = mx.smoothness_summary(
        timeseries, {c.id: float(c.booked_demand) for c in graph.contracts},
        {o.contract_id for o in outcomes if o.finished})
    return SimulationReport(
        algorithm=algorithm, mode=cfg.mode, cycle_bounds=bounds,
        outcomes=outcomes, timeseries=timeseries, rates=rates_trace,
        impressions_in_window=served, impressions_skipped=skipped,
        unallocated=unallocated, smoothness=smooth)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def load_impressions(path) -> ImpressionStream:
    """Read impressions.jsonl (see `iter_impressions`) into a stream, one
    run at a time: the stream keeps each run's ids as they come, a packed
    text from the fast path and a list from the full decode, and each
    run's timestamps as one chunk of keys."""
    stream = ImpressionStream()
    for ids, ts, set_ids in iter_impressions(path, stream, keyed=True):
        stream.ids.add(ids)
        stream.ts.add(ts)
        stream.set_ids += set_ids
    return stream


_decode = json.JSONDecoder().raw_decode
_tzinfo = attrgetter("tzinfo")

# The line `save_impressions` writes is _ID_START + id + _TS_START + ts +
# _ATTRS_START + tail, where the tail is the attributes text and "}".
_ID_START = '{"id": "'
_TS_START = '", "ts": "'
_ATTRS_START = '", "attributes": '

# `"` for each character a JSON string may not hold as itself, but `"`.
# UTF-8 writes each as its one byte, and every other character with none
# of these bytes.
_QUOTED = bytes.maketrans(b"\\" + bytes(range(0x20)), b'"' * 33)


def _plain_heads(heads: Sequence[str]) -> Optional[Tuple[str, Tuple[str, ...], str]]:
    """The packed ids (see `PackedIds`), the ts texts and their join by
    "\\n" of `heads`, if every head is `_ID_START + id + _TS_START + ts`
    with id and ts free of `"`, `\\` and control characters (so each is a
    JSON string's text that decodes to itself); else None.  The packed ids
    are the fronts before `_TS_START`, joined, with each `_ID_START` made
    one `"`: every front starts with one, and the ids and timestamps hold
    no `"`.  (A `"` in an id stays, or is the `"` an `_ID_START` in it is
    made, since no `_ID_START` can start in one front and end in the next:
    no proper prefix of it is a suffix.)"""
    fronts, found, tss = zip(*[head.partition(_TS_START) for head in heads])
    if "" in found or not all(map(str.startswith, fronts, repeat(_ID_START))):
        return None
    ids = "".join(fronts).replace(_ID_START, '"')
    stamps = "\n".join(tss)
    text = (ids + stamps).encode()
    # A `"` per id and a "\n" per join, and no other `"`, `\\` or control
    # character.
    if text.translate(_QUOTED).count(b'"') != 2 * len(heads) - 1:
        return None
    return ids, tss, stamps


# A run's timestamps: datetimes, or their keys.
Stamps = Union[List[datetime], PackedTimes]
Run = Tuple[Sequence[str], Stamps, List[int]]


def iter_impressions(path, sets: ImpressionStream, start: int = 0, first_line: int = 1,
                     lines: Optional[int] = None, keyed: bool = False) -> Iterator[Run]:
    """Runs (ids, timestamps, set ids) of impressions.jsonl, in order: row i
    of a run is (`ids[i]`, `ts[i]`, `set_ids[i]`), and there is one row per
    non-blank line.  A run's timestamps are a list of datetimes, or with
    `keyed` a `PackedTimes` of one chunk.

    A line holds one JSON object {"id", "ts", "attributes"}, and nothing
    else, as `json.loads` requires.  The file is read by the rule of
    `model.read_records`: lines, blank lines and a bad line (one that is
    not UTF-8 included, reported as `path:line: bad impression` after the
    runs of the lines before it) are as it reads them.  The set id indexes
    `sets.attrs` and `sets.keys`: a set first seen is checked by
    `model.record_attributes` and added to `sets`, and a later line with
    the same items in the same order is matched to it without a check.

    By default the whole file is read.  A byte range of it is read from
    `start`, which must be 0 or just after a `\\n`, for `lines` lines (to
    the end when None), numbering the first one `first_line`; the ranges
    of `split_impressions` give their rows, and each line its number in
    the whole file.

    Lines are parsed a block of `model.line_blocks` at a time, and
    speculatively (as Mison does, Li et al., VLDB 2017).  Two
    `str.partition`s cut each line at `", "attributes": ` and at
    `", "ts": "`.  The tail after the first cut (the attributes text and
    `}`) is looked up in a table of the tails learned in this call, and
    the block is cut into runs at each line whose tail is not known.  For
    each run, one check covers its joined ids and timestamps
    (`_plain_heads`) and one `map(datetime.fromisoformat, ...)` parses
    its timestamps, which must all be naive; a run that passes is given
    as those columns, its ids a `PackedIds` over the one packed text, so
    no `str` is made per id until they are read.  With `keyed`, a run
    whose timestamps all have the layout of `_text_keys` takes
    its keys and order from their texts (`PackedTimes.of_texts`), and its
    datetimes are dropped as they are parsed (digits and separators at
    their places are naive); any other run's keys are made from its
    datetimes.  A line with an unknown tail, and each line of a run that
    fails, is read on its own: as above if it passes the same checks
    alone, else decoded in full (`parse_ts`, `record_attributes`), after
    which a line in the layout with a new attributes text teaches its
    tail.  The lines read on their own come as one run of lists; if one
    is bad, the rows before it come as a run before its error.  On a file
    in that layout the JSON decoder runs about once per distinct
    attributes text.

    This is exact.  A tail is learned only from a line that decoded in
    full and is `{"id": "<id>", "ts": "<ts>", "attributes": <text>}`,
    with id and ts free of `"`, `\\` and control characters, and a text
    that starts with `{` and holds no `}` but its last character.  The
    value after `"attributes": ` then starts at that `{` and must end at a
    `}`; it cannot end at the line's last one, since that would leave the
    outer object open.  So the value is the text alone, no key follows
    it, and every line made of a plain id, a plain ts and that tail
    decodes to that id, that ts and the same set.  For a naive timestamp
    (Python 3.10 and later) `fromisoformat` gives what `parse_ts` gives,
    and a timestamp that it rejects or reads as zone-aware sends its line
    to the full decode.
    """
    known = sets._set_of_items
    # The set of each learned tail, with and without the "\n" that ends
    # every line of a block but the last line of the file.
    set_of_tail: Dict[str, int] = {}
    tail_set = set_of_tail.get

    def columns(heads: Sequence[str], keyed: bool) -> Optional[Tuple[str, Stamps]]:
        """The packed ids and the timestamps (with `keyed`, as a
        `PackedTimes`) of the lines cut into `heads`, or None if one of
        them fails a check."""
        plain = _plain_heads(heads)
        if plain is None:
            return None
        ids, tss, stamps = plain
        packed = PackedTimes.of_texts(tss, stamps) if keyed else None
        try:
            ts = map(datetime.fromisoformat, tss)
            if packed is not None:
                # Digits and separators at their places: read as naive.
                deque(ts, 0)
                return ids, packed
            ts = list(ts)
        except ValueError:
            return None
        if any(map(_tzinfo, ts)):       # not every timestamp is naive
            return None
        return ids, PackedTimes.of(ts) if keyed else ts

    def row(line: str) -> Tuple[str, datetime, int]:
        head, _, tail = line.partition(_ATTRS_START)
        known_sid = tail_set(tail)
        if known_sid is not None:
            cols = columns((head,), False)
            if cols is not None:
                return cols[0][1:], cols[1][0], known_sid
        rec, end = _decode(line)
        if end != len(line):
            raise json.JSONDecodeError("Extra data", line, end)
        try:
            sid = known[tuple(rec["attributes"].items())]
        except (KeyError, TypeError, AttributeError):
            # A set not seen yet, or one record_attributes rejects.  Its
            # strings are interned, so sets share names and values.
            sid = sets.set_id({intern(name): intern(value) for name, value
                               in record_attributes(rec).items()})
        item = (str(rec["id"]), parse_ts(rec["ts"]), sid)
        if (known_sid is None and tail[:1] == "{" and tail.find("}") == len(tail) - 2
                and _plain_heads((head,)) is not None):
            set_of_tail[tail] = set_of_tail[tail + "\n"] = sid
        return item

    def decoded(first: int, block: Sequence[str]) -> Iterator[Run]:
        """The run of the lines `block`, from line `first`, each read by
        `row`; if one fails, the run of the rows before it, then its error."""
        ids: List[str] = []
        ts: List[datetime] = []
        sids: List[int] = []
        try:
            for imp_id, t, sid in parse_lines(path, "impression", row, first, block):
                ids.append(imp_id)
                ts.append(t)
                sids.append(sid)
        except Exception:
            if ids:
                yield ids, PackedTimes.of(ts) if keyed else ts, sids
            raise
        if ids:
            yield ids, PackedTimes.of(ts) if keyed else ts, sids

    for first, block in line_blocks(path, "impression", start, first_line, lines):
        heads, _, tails = zip(*[line.partition(_ATTRS_START) for line in block])
        sids = list(map(tail_set, tails))
        i = 0
        while i < len(block):
            if sids[i] is None:
                # Lines with unknown tails, each read on its own; one may
                # teach its tail to the lines after it.
                k = i + 1
                while k < len(block) and sids[k] is None:
                    k += 1
                yield from decoded(first + i, block[i:k])
            else:
                try:
                    k = sids.index(None, i)
                except ValueError:
                    k = len(block)
                cols = columns(heads[i:k], keyed)
                if cols is None:
                    yield from decoded(first + i, block[i:k])
                else:
                    yield PackedIds.packed(cols[0], k - i), cols[1], sids[i:k]
            i = k
        # Dropped before the next block is read, so that no two blocks'
        # lines and cuts are held at once.
        del block, heads, tails, sids


class ImpressionRange(NamedTuple):
    """A byte range of an impressions file: `lines` lines from byte `start`
    (to the end of the file when None), the first of them line `first_line`
    of the file and its first row, if any, row `first_row`."""

    start: int
    first_line: int
    first_row: int
    lines: Optional[int]


_BLOCK = 1 << 16            # the read size of `split_impressions`
_FILLED_LINE = re.compile(rb"[^ \t\r\n][^\r\n]*[\r\n]")


def split_impressions(path, parts: int) -> List[ImpressionRange]:
    """`path` cut into at most `parts` ranges of about equal size, in order.

    Each range but the last ends just after a `\n`; none is empty, except
    the one range of an empty file.  Reading each range r with
    `iter_impressions(path, sets, r.start, r.first_line, r.lines)`, in
    order, gives the rows of the whole file, with its line numbers; row i of
    range r is row `r.first_row + i` of the file.  The lines and
    rows of every range but the last are counted as `iter_impressions`
    reads them, in one pass that reads `_BLOCK` bytes at a time.
    """
    with open(path, "rb") as fh:
        size = fh.seek(0, os.SEEK_END)
        starts = [0]
        for k in range(1, parts):
            start = _line_end(fh, max(size * k // parts, starts[-1]))
            if start >= size:
                break
            starts.append(start)
        fh.seek(0)
        ranges, line, row = [], 1, 0
        for start, end in zip(starts, starts[1:]):
            lines, rows = _count_lines(fh, end - start)
            ranges.append(ImpressionRange(start, line, row, lines))
            line, row = line + lines, row + rows
        ranges.append(ImpressionRange(starts[-1], line, row, None))
    return ranges


def _line_end(fh, pos: int) -> int:
    """The offset just after the first `\n` at or after `pos` (the size of
    the file if there is none)."""
    fh.seek(pos)
    while True:
        block = fh.read(_BLOCK)
        at = block.find(b"\n")
        if at >= 0 or not block:
            return pos + at + 1 if at >= 0 else pos
        pos += len(block)


def _count_lines(fh, size: int) -> Tuple[int, int]:
    """The lines and the rows (lines with a byte other than JSON whitespace)
    in the next `size` bytes of `fh`, which end with a `\n`.

    Each block is cut after its last `\n`, and the rest is read again with
    the next one, so a block holds whole lines; only a line longer than
    `_BLOCK` makes a block longer.
    """
    lines = rows = 0
    while size:
        block = fh.read(min(_BLOCK, size))
        while b"\n" not in block:
            more = fh.read(min(_BLOCK, size - len(block)))
            if not more:
                raise OSError(f"{fh.name}: the file changed while it was split")
            block += more
        end = block.rfind(b"\n") + 1
        fh.seek(end - len(block), os.SEEK_CUR)
        size -= end
        n = block.count(b"\n", 0, end)
        if block.find(b"\r", 0, end) < 0 and n == block.count(b"}\n", 0, end):
            # Every line ends in "}": each is a row.
            lines += n
            rows += n
        else:
            lines += n + block.count(b"\r", 0, end) - block.count(b"\r\n", 0, end)
            rows += sum(1 for _ in _FILLED_LINE.finditer(block, 0, end))
    return lines, rows


def save_impressions(events: Sequence[ImpressionEvent], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(json.dumps({"id": ev.id, "ts": ev.ts.isoformat(),
                                 "attributes": ev.attributes}) + "\n")


def load_config(path) -> SimulationConfig:
    """Read the simulate config JSON (see SimulationConfig for fields).

    Numbers are read through `model.record_number`, and `seed` and
    `shards` must be integers.  `feedback` absent or null is off, and a
    JSON object, `{}` too, turns it on with each missing field at its
    default; `sim_start` and `sim_end` absent or null are derived from the
    flights.  A bad or unknown field, at the top or inside `feedback`,
    raises SimulationError as `path: field ...`, and a file that is not
    UTF-8 or not JSON, or that nests values too deeply for the decoder
    (RecursionError), as `path: <reason>`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _config_from(json.load(fh))
    except (ValueError, RecursionError) as exc:
        raise SimulationError(f"{path}: {exc}") from exc


_CONFIG_FIELDS = ("algorithm", "feedback", "reopt_period_hours",
                  "forecast_error_multiplier", "forecast_error_per_node", "seed",
                  "mode", "shards", "sim_start", "sim_end")


def _known_fields(rec: dict, known: Sequence[str], what: str) -> None:
    """Raise ValueError, naming the key first, for the first key of `rec`
    that is not in `known`."""
    for key in rec:
        if key not in known:
            raise ValueError(f"{key} is not a {what} field; the fields are "
                             + ", ".join(known))


def _config_from(raw) -> SimulationConfig:
    if not isinstance(raw, dict):
        raise ValueError(f"config must be a JSON object, got {raw!r}")
    _known_fields(raw, _CONFIG_FIELDS, "config")
    fb = raw.get("feedback")
    feedback = None
    if fb is not None:
        if not isinstance(fb, dict):
            raise ValueError(f"feedback must be a JSON object, got {fb!r}")
        known = fields(FeedbackConfig)
        _known_fields(fb, [f.name for f in known], "feedback")
        feedback = FeedbackConfig(**{f.name: record_number(fb, f.name, f.default)
                                     for f in known})
    per_node = raw.get("forecast_error_per_node")
    if per_node is not None:
        if not isinstance(per_node, dict):
            raise ValueError("forecast_error_per_node must be a JSON object, "
                             f"got {per_node!r}")
        try:
            per_node = {nid: record_number(per_node, nid) for nid in per_node}
        except ValueError as exc:
            raise ValueError(f"forecast_error_per_node: {exc}") from None
    kwargs = dict(
        algorithm=raw.get("algorithm", "hwm"),
        feedback=feedback,
        reopt_period_hours=record_number(raw, "reopt_period_hours", 24.0),
        forecast_error_multiplier=record_number(raw, "forecast_error_multiplier", 1.0),
        per_node_error=per_node,
        seed=_record_int(raw, "seed", 0),
        mode=raw.get("mode", "expected"),
        shards=_record_int(raw, "shards", 1))
    for key in ("sim_start", "sim_end"):
        text = raw.get(key)
        if text is not None:
            try:
                kwargs[key] = parse_ts(text)
            except ValueError:
                raise ValueError(f"{key} must be an ISO-8601 timestamp in years 1 to 9999 "
                                 f"in UTC, got {text!r}") from None
    return SimulationConfig(**kwargs)


def _record_int(rec, key: str, default: int) -> int:
    value = record_number(rec, key, default)
    if not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


TIMESERIES_HEADER = "cycle_end_ts,contract_id,delivered_cum,linear_goal"


def write_report(report: SimulationReport, report_path, timeseries_path) -> None:
    """Emit report.json and the per-cycle delivery_timeseries.csv.

    The timeseries is `TIMESERIES_HEADER`, one row per line, and last the
    end-of-run row: the run's `sim_end` and three empty fields, from which
    `gdserve metrics` tells the finished contracts as the report does.
    """
    doc = {
        "algorithm": report.algorithm,
        "mode": report.mode,
        "cycles": [b.isoformat() for b in report.cycle_bounds],
        "contracts": [
            {"id": o.contract_id, "booked": o.booked, "delivered": o.delivered,
             "underdelivery_frac": o.underdelivery_frac, "finished": o.finished}
            for o in report.outcomes],
        "total_underdelivery_frac": report.total_underdelivery_frac,
        "impressions_in_window": report.impressions_in_window,
        "impressions_skipped": report.impressions_skipped,
        "unallocated": report.unallocated,
        "smoothness": report.smoothness,
        "delivery_improvement": report.delivery_improvement,
        "rates": report.rates,
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(timeseries_path, "w", encoding="utf-8") as fh:
        fh.write(TIMESERIES_HEADER + "\n")
        for row in report.timeseries:
            fh.write(f"{row.t.isoformat()},{row.contract_id},"
                     f"{row.delivered!r},{row.linear_goal!r}\n")
        fh.write(f"{report.cycle_bounds[-1].isoformat()},,,\n")
