"""`simulate.PackedTimes`: impression timestamps as 10-byte keys, a chunk of
keys per run, read back as the datetimes they were made from."""

import bisect
import json
import random
from datetime import datetime, timedelta, timezone

import pytest

from gdserve import model, simulate as sim


def column(times, cuts):
    """`times` as a `PackedTimes`, one chunk between each pair of `cuts`."""
    ts = sim.PackedTimes()
    for a, b in zip([0] + cuts, cuts + [len(times)]):
        ts.add(sim.PackedTimes.of(times[a:b]))
    return ts


EDGES = [datetime.min, datetime.max, datetime(2026, 3, 2), datetime(1, 1, 1, 0, 0, 1),
         datetime(9999, 12, 31, 23, 59, 59)]


def random_time(rng):
    """A time in the hour from 2026-03-02, microsecond 0 one time in two,
    or one of EDGES."""
    if rng.random() < 0.1:
        return rng.choice(EDGES)
    return datetime(2026, 3, 2) + timedelta(
        seconds=rng.randrange(3600), microseconds=rng.choice([0, rng.randrange(10 ** 6)]))


def random_times(rng, n):
    """`n` random times and a fifth as many repeats of them, sorted."""
    times = [random_time(rng) for _ in range(n)]
    return sorted(times + rng.sample(times, n // 5))


def random_cuts(rng, n):
    return sorted(rng.sample(range(1, n), rng.randrange(min(n - 1, 12)))) if n > 1 else []


class TestKeys:
    def test_key_order_is_time_order(self):
        rng = random.Random(5)
        times = random_times(rng, 400)
        rng.shuffle(times)
        keys = [sim.PackedTimes.of([t])._chunks[0] for t in times]
        assert all(len(k) == sim.KEY_BYTES for k in keys)
        assert sorted(range(len(times)), key=keys.__getitem__) == \
            sorted(range(len(times)), key=times.__getitem__)
        assert [sim._key_time(k) for k in keys] == times

    @pytest.mark.parametrize("texts", [
        ["2026-03-02T00:00:01.000001", "2026-03-02 00:00:01.000001"],   # space separator
        ["2026-03-02T00:00:01.000001", "2026-03-02T00:00:01.000"],      # mixed widths
        ["2026-03-02T00:00:01", "2026-03-02T00:00:02"],                 # whole seconds
        ["2026-03-02T00:00:01.000001", "2026-03-02T00:00:01.00000a"],   # not a digit
        ["20260302T00:00:02.21-05:30"],        # 26 characters and 20 digits, zone-aware
        ["2026-03-02T00:00:01+01:00"],
    ])
    def test_texts_out_of_layout_have_no_keys(self, texts):
        assert sim._text_keys("\n".join(texts), len(texts)) is None

    def test_aware_event_time_is_rejected(self):
        ev = sim.ImpressionEvent("i1", datetime(2026, 3, 2, tzinfo=timezone.utc), {})
        with pytest.raises(sim.SimulationError, match="impression time .* is not naive"):
            sim.ImpressionStream.of([ev])


# Stamps in the layout read without a datetime kept, and others.
STAMPS = {
    "26 characters": ["2026-03-02T00:00:01.000001", "2026-03-02T00:00:01.500000",
                      "2026-03-02T23:59:59.999999"],
    "19 characters": ["2026-03-02T00:00:01", "2026-03-02T00:00:02", "2026-03-02T12:00:00"],
    "mixed widths": ["2026-03-02T00:00:01", "2026-03-02T00:00:01.000001",
                     "2026-03-02T00:00:02"],
    "milliseconds": ["2026-03-02T00:00:01.250", "2026-03-02T00:00:01.500",
                     "2026-03-02T00:00:02.000"],
    "space separated": ["2026-03-02 00:00:01.000001", "2026-03-02 00:00:02",
                        "2026-03-02 00:00:03.000003"],
    "Z and offsets": ["2026-03-02T00:00:01Z", "2026-03-02T01:00:02+01:00",
                      "2026-03-01T19:00:03.5-05:00"],
    "years 1 and 9999": ["0001-01-01T00:00:00", "0001-01-01T00:00:00.000001",
                         "9999-12-31T23:59:59.999999"],
}


class TestStreamTimes:
    """A loaded stream's timestamps are the datetimes `model.parse_ts` reads
    from each line, whichever path read the line."""

    @pytest.mark.parametrize("lines_hint", [None, 1, 200])
    @pytest.mark.parametrize("name", list(STAMPS))
    def test_loaded_times_equal_parsed(self, tmp_path, monkeypatch, name, lines_hint):
        if lines_hint is not None:
            monkeypatch.setattr(model, "_LINES_HINT", lines_hint)
        # Each stamp on a line whose attributes text is known and on one
        # whose text is new, so both the fast path and the decode read it.
        stamps = STAMPS[name] * 3
        lines = [json.dumps({"id": f"i{i}", "ts": ts,
                             "attributes": {"a": str(i % 2 if i % 3 else i)}})
                 for i, ts in enumerate(stamps)]
        path = tmp_path / "impressions.jsonl"
        path.write_text("\n".join(lines) + "\n")
        ref = [model.parse_ts(ts) for ts in stamps]
        ts = sim.load_impressions(path).ts
        assert ts == ref and list(ts) == ref and len(ts) == len(ref)
        assert [ts[i] for i in range(-len(ref), len(ref))] == ref + ref
        assert ts[2:7] == ref[2:7] and ts[::-2] == ref[::-2]
        with pytest.raises(IndexError):
            ts[len(ref)]

    @pytest.mark.parametrize("name, decoded", [
        ("26 characters", []),
        # Out of the layout: each run's keys are made from its datetimes.
        ("19 characters", [1, 1, 1]),
    ])
    def test_runs_in_the_layout_keep_no_datetime(self, tmp_path, monkeypatch, name, decoded):
        # A block per line: the first teaches its attributes text, and each
        # line after it is a run of the fast path.
        monkeypatch.setattr(model, "_LINES_HINT", 1)
        calls = []
        original = sim.PackedTimes.of
        monkeypatch.setattr(sim.PackedTimes, "of",
                            lambda ts: calls.append(len(ts)) or original(ts))
        path = tmp_path / "impressions.jsonl"
        stamps = ["2026-03-02T00:00:00.000000"] + STAMPS[name]
        path.write_text("".join(json.dumps({"id": f"i{i}", "ts": ts, "attributes": {}}) + "\n"
                                for i, ts in enumerate(stamps)))
        stream = sim.load_impressions(path)
        # Only the first line, which teaches the attributes text, is decoded.
        assert calls == [1] + decoded
        assert stream.ts == [model.parse_ts(ts) for ts in stamps]

    @pytest.mark.parametrize("n", [0, 1, sim._OF_CHUNK, 2 * sim._OF_CHUNK + 7])
    def test_events_as_a_stream(self, n):
        rng = random.Random(n)
        times = random_times(rng, n)[:n]
        events = [sim.ImpressionEvent(f"i{i}", t, {"a": str(i % 3)})
                  for i, t in enumerate(times)]
        stream = sim.ImpressionStream.of(iter(events))
        assert stream.ts == times and list(stream) == events
        assert stream.ts.disorder is None
        assert len(stream.ts._chunks) == -(-n // sim._OF_CHUNK)


class TestBisect:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_bisect_over_the_list(self, seed):
        rng = random.Random(seed)
        n = rng.choice([1, 2, 40, 300])
        times = random_times(rng, n)
        ts = column(times, random_cuts(rng, len(times)))
        assert ts.disorder is None
        firsts = [times[a] for a in ts._starts[:-1]]
        lasts = [times[b - 1] for b in ts._starts[1:]]
        probes = (times + firsts + lasts + [datetime.min, datetime.max]
                  + [t + d for t in firsts + lasts for d in (timedelta(microseconds=-1),
                                                            timedelta(microseconds=1))
                     if datetime.min < t < datetime.max]
                  + [t.replace(microsecond=0) for t in rng.sample(times, min(20, len(times)))]
                  + [datetime(2026, 3, 2) + timedelta(seconds=rng.uniform(-60, 3700))
                     for _ in range(50)])
        for t in probes:
            assert ts.bisect_left(t) == bisect.bisect_left(times, t)
            lo = rng.randrange(len(times) + 1)
            hi = rng.randrange(lo, len(times) + 1)
            assert ts.bisect_left(t, lo, hi) == bisect.bisect_left(times, t, lo, hi)


class TestDisorder:
    @pytest.mark.parametrize("seed", range(8))
    def test_first_descent_across_chunks(self, seed):
        rng = random.Random(seed)
        times = random_times(rng, rng.choice([2, 30, 200]))
        for _ in range(rng.randrange(3)):
            i, j = rng.randrange(len(times)), rng.randrange(len(times))
            times[i], times[j] = times[j], times[i]
        ts = column(times, random_cuts(rng, len(times)))
        first = next((i for i in range(1, len(times)) if times[i] < times[i - 1]), None)
        assert ts.disorder == first
        assert ts == times

    @pytest.mark.parametrize("lines_hint", [None, 1, 300])
    @pytest.mark.parametrize("at", [1, 7, 40, 59])
    def test_unsorted_file_names_first_offender(self, tmp_path, monkeypatch, at, lines_hint):
        if lines_hint is not None:
            monkeypatch.setattr(model, "_LINES_HINT", lines_hint)
        times = [datetime(2026, 3, 2) + timedelta(seconds=i) for i in range(60)]
        times[at] -= timedelta(seconds=2)       # below the one before it
        times[-1] = datetime(2026, 3, 1)        # and a later offender
        path = tmp_path / "impressions.jsonl"
        sim.save_impressions([sim.ImpressionEvent(f"i{i}", t, {"a": "1"})
                              for i, t in enumerate(times)], path)
        stream = sim.load_impressions(path)
        assert stream.ts.disorder == at
        graph = model.build_graph(
            [model.SupplyNode("n", {"a": "1"}, 60)],
            [model.Contract("c", model.tg.parse_targeting("a = 1"), 10,
                            datetime(2026, 3, 2), datetime(2026, 3, 3))])
        with pytest.raises(sim.SimulationError,
                           match=f"^impression i{at} at {times[at].isoformat()} is out of order$"):
            sim.run_simulation(graph, stream, sim.SimulationConfig())


class TestPieces:
    def test_cuts_equal_bisecting_every_instant(self):
        """`_pieces` bisects only the instants inside the range's span; its
        cuts are those of bisecting every instant."""
        rng = random.Random(11)
        for _ in range(200):
            times = random_times(rng, rng.choice([1, 5, 60]))
            ts = column(times, random_cuts(rng, len(times)))
            instants = sorted(set(rng.sample(times, min(3, len(times)))
                                  + [random_time(rng) for _ in range(rng.randrange(10))]))
            lo = rng.randrange(len(times) + 1)
            hi = rng.randrange(lo, len(times) + 1)
            bounds = rng.sample(range(lo, hi + 1), min(2, hi + 1 - lo))
            cuts = sorted({bisect.bisect_left(times, t, lo, hi) for t in instants}
                          | set(bounds) | {lo, hi})
            assert list(sim._pieces(ts, instants, lo, hi, bounds)) == \
                list(zip(cuts, cuts[1:]))
