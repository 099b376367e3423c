"""`simulate.iter_impressions` parses each block of `model.line_blocks` as a
whole where it can, and reads every other line on its own: the rows, the
errors and what `gdserve serve` writes are those of a per-line reader,
wherever the block edges fall."""

import json
import os

import pytest

from gdserve import model, simulate as sim
from conftest import impression_rows
import test_cli
import test_simulator


def record(imp_id, ts, attrs, **kw):
    return json.dumps({"id": imp_id, "ts": ts, "attributes": attrs}, **kw)


def attributes_text(line):
    return line[line.index('"attributes": ') + len('"attributes": '):-1]


@pytest.fixture(scope="module")
def scen(tmp_path_factory):
    """A scenario's files and its `gdserve plan`."""
    scen = tmp_path_factory.mktemp("scen")
    assert test_cli.run(["scenario", "--out-dir", scen, "--contracts", 6, "--days", 2,
                         "--daily-traffic", 150, "--seed", 5]) == 0
    assert test_cli.run(["plan", "--supply", scen / "supply.jsonl",
                         "--contracts", scen / "contracts.jsonl",
                         "--out", scen / "plan.jsonl"]) == 0
    return scen


def canonical_lines(scen):
    return (scen / "impressions.jsonl").read_text(encoding="utf-8").splitlines()


def serve(scen, impressions, out, workers):
    """Exit status and decisions of `gdserve serve` over `impressions`."""
    rc = test_cli.run(["serve", "--plan", scen / "plan.jsonl",
                       "--contracts", scen / "contracts.jsonl",
                       "--impressions", impressions, "--out", out, "--seed", 3,
                       "--workers", workers])
    return rc, out.read_bytes()


T = "2026-03-02T12:00:00"
KNOWN = {"a": "1"}      # a text the reader cases teach early

TRAPS = [
    # Attribute keys named like the record's keys, and braces or the
    # separator itself inside a value.
    record("k-ts", T, {"ts": "2026-03-02T00:00:00"}),
    record("k-attrs", T, {"attributes": "x", "id": "y"}),
    record("k-sep", T, {"a": '", "attributes": {"b": "1"}'}),
    record("brace", T, {"a": "}"}),
    record("brace2", T, {"a": "x}", "b": "{"}),
    record("brace3", T, {"a": "{}"}),
    # Ids with escapes, raw U+2028 and DEL, and one holding the ts key.
    record('q"uote', T, KNOWN),
    record("back\\slash", T, KNOWN),
    record("line\u2028sep", T, KNOWN, ensure_ascii=False),
    record("line\u2028sep", T, KNOWN),
    record("del\x7f", T, KNOWN, ensure_ascii=False),
    record("del\x7f", T, KNOWN),
    record('a", "ts": "b', T, KNOWN),
    # Timestamps off the fast path: a space separator (which parse_ts reads
    # alike), UTC and offsets.
    record("space", "2026-03-02 12:00:05", KNOWN),
    record("zulu", "2026-03-02T12:00:05Z", KNOWN),
    record("plus", "2026-03-02T14:00:05+02:00", KNOWN),
    record("minus", "2026-03-02T07:00:05-05:00", KNOWN),
]


def trap_file(scen, path):
    """The scenario's lines interleaved with every reader case and trap,
    with mixed line endings, blanks around some lines, blank lines, and no
    final newline; returns the canonical lines it holds."""
    canonical = canonical_lines(scen)[:240]
    extra = test_simulator.TestImpressionReader.LINES + TRAPS
    endings = ["\n", "\r\n", "\r", "\n", " \t\n", "\n\n", "\r\n"]
    parts = []
    for i, line in enumerate(canonical):
        parts.append(("  " if i % 11 == 3 else "") + line + endings[i % len(endings)])
        if i % 5 == 2 and i // 5 < len(extra):
            parts.append(extra[i // 5] + endings[(i // 5) % len(endings)])
    assert i // 5 >= len(extra)
    text = "".join(parts).rstrip()
    assert not text.endswith(("\n", "\r"))
    path.write_bytes(text.encode("utf-8"))
    return canonical


@pytest.fixture(params=[1, 64, 4096])
def lines_hint(request, monkeypatch):
    monkeypatch.setattr(model, "_LINES_HINT", request.param)
    return request.param


class TestBlockEdges:
    def test_rows_equal_per_line_reference(self, scen, tmp_path, lines_hint):
        path = tmp_path / "impressions.jsonl"
        trap_file(scen, path)
        ref = test_simulator.reference_events(path)
        assert len(ref) == 240 + len(test_simulator.TestImpressionReader.LINES) + len(TRAPS)
        assert test_simulator.reader_events(path) == ref
        # The cases and traps are out of time order among the scenario's
        # lines: the loader names the first line out of order.
        with pytest.raises(sim.SimulationError,
                           match=test_simulator.reference_disorder(path)):
            sim.load_impressions(path)

    def test_one_decode_per_attributes_text(self, scen, tmp_path, monkeypatch,
                                            lines_hint):
        path = tmp_path / "impressions.jsonl"
        canonical = set(trap_file(scen, path))
        decoded = []
        original = sim._decode
        monkeypatch.setattr(sim, "_decode",
                            lambda line: decoded.append(line) or original(line))
        test_simulator.reader_events(path)
        texts = [attributes_text(line) for line in decoded if line in canonical]
        # The canonical lines decode once per distinct attributes text, and
        # only while no line in the layout has taught it.
        assert len(texts) == len(set(texts)) > 0
        assert len(texts) <= len({attributes_text(line) for line in canonical})
        # A line in the layout with a known text, a plain id and a naive
        # ts takes the fast path, blanks around it or not; JSON strings hold
        # DEL and U+2028 as themselves.  Escapes and zone-aware timestamps
        # are decoded.
        assert not any(line.startswith(" ") for line in decoded)

        def decoded_one(start):
            return any(line.startswith(start) for line in decoded)
        assert not any(map(decoded_one, ['{"id": "space"', '{"id": "del\x7f"',
                                         '{"id": "line\u2028sep"']))
        assert all(map(decoded_one, ['{"id": "del\\u007f"', '{"id": "line\\u2028sep"',
                                     '{"id": "zulu"', '{"id": "q\\"uote"']))

    def test_canonical_lines_checked_a_run_at_a_time(self, scen, tmp_path, monkeypatch):
        path = tmp_path / "impressions.jsonl"
        path.write_text("".join(line + "\n" for line in canonical_lines(scen) * 6))
        blocks = [block for _, block in model.line_blocks(path, "impression")]
        # The lines whose attributes text no block before theirs holds.
        seen, new = set(), 0
        for block in blocks:
            texts = [attributes_text(line.rstrip("\n")) for line in block]
            new += sum(text not in seen for text in texts)
            seen.update(texts)
        lines = sum(map(len, blocks))
        assert 1 < len(blocks) and len(blocks) + 2 * new < lines / 2
        calls = []
        original = sim._plain_heads
        monkeypatch.setattr(sim, "_plain_heads",
                            lambda heads: calls.append(len(heads)) or original(heads))
        test_simulator.reader_events(path)
        # One check per run of lines with known tails (a block, cut at each
        # line with a new text), and one per line with a new text.
        assert len(calls) <= len(blocks) + 2 * new

    @pytest.mark.parametrize("workers", [1, 2])
    def test_serve_equals_reference(self, scen, tmp_path, monkeypatch, lines_hint,
                                    workers):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        path = tmp_path / "impressions.jsonl"
        trap_file(scen, path)
        rc, out = serve(scen, path, tmp_path / "decisions.jsonl", workers)
        assert rc == 0
        assert out.decode("utf-8") == test_cli.reference_decisions(
            scen / "contracts.jsonl", scen / "plan.jsonl", path, 3)


BAD = {
    # In the layout, with a known attributes text.
    "month 13": lambda line: line.replace('"ts": "2026-03-', '"ts": "2026-13-'),
    "tab in id": lambda line: line.replace('{"id": "', '{"id": "\t'),
    "brace after": lambda line: line + "}",
    "no id key": lambda line: line.replace('{"id": "', '{"ID": "'),
    # Off it.
    "cut short": lambda line: line[:len(line) // 2],
}


class TestErrorsInsideBlocks:
    """A bad line fails as `path:line: bad impression` after exactly the
    rows of the lines before it, and `gdserve serve` leaves the same
    partial file for one and for two workers."""

    def bad_file(self, scen, tmp_path, number, bad):
        lines = canonical_lines(scen)
        assert number < len(lines)
        lines[number - 1] = BAD[bad](lines[number - 1])
        path = tmp_path / "impressions.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return path

    def check(self, scen, tmp_path, monkeypatch, number, bad):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        path = self.bad_file(scen, tmp_path, number, bad)
        before = test_simulator.reference_events(scen / "impressions.jsonl")[:number - 1]
        sets, rows = sim.ImpressionStream(), []
        with pytest.raises(model.GraphDataError,
                           match=f"^{path}:{number}: bad impression: "):
            for imp_id, ts, sid in impression_rows(sim.iter_impressions(path, sets)):
                rows.append(sim.ImpressionEvent(imp_id, ts, sets.attrs[sid]))
        assert rows == before
        outs = [serve(scen, path, tmp_path / f"w{n}.jsonl", n) for n in (1, 2)]
        assert outs[0] == outs[1]
        assert outs[0][0] == 1 and outs[0][1].count(b"\n") == number - 1

    @pytest.mark.parametrize("bad", BAD)
    def test_after_200_canonical_lines(self, scen, tmp_path, monkeypatch, bad):
        self.check(scen, tmp_path, monkeypatch, 201, bad)

    @pytest.mark.parametrize("edge", ["first", "last"])
    @pytest.mark.parametrize("bad", BAD)
    def test_at_block_edge(self, scen, tmp_path, monkeypatch, bad, edge):
        monkeypatch.setattr(model, "_LINES_HINT", 1000)
        blocks = [(first, len(block)) for first, block in
                  model.line_blocks(scen / "impressions.jsonl", "impression")]
        first, size = blocks[3]
        assert size > 2
        self.check(scen, tmp_path, monkeypatch,
                   first if edge == "first" else first + size - 1, bad)
