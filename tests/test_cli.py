import bisect
import json
import os
import random
from collections import Counter
from datetime import datetime, timedelta
from itertools import accumulate

import pytest

from gdserve import cli, kernels, model, simulate as sim, targeting as tg
from gdserve.scenario import demo_graph
from conftest import FLIGHT_START
from _scenarios import uniform_single_contract
import test_simulator


def write_demo_inputs(tmp_path):
    g = demo_graph()
    model.save_supply(g.supply_nodes, tmp_path / "supply.jsonl")
    model.save_contracts(g.contracts, tmp_path / "contracts.jsonl")
    return g


def run(argv):
    return cli.main([str(a) for a in argv])


class TestPlanCommand:
    def test_writes_plan_in_allocation_order(self, tmp_path, capsys):
        write_demo_inputs(tmp_path)
        rc = run(["plan", "--supply", tmp_path / "supply.jsonl",
                  "--contracts", tmp_path / "contracts.jsonl",
                  "--algorithm", "hwm", "--out", tmp_path / "plan.jsonl"])
        assert rc == 0
        lines = [json.loads(l) for l in
                 (tmp_path / "plan.jsonl").read_text().splitlines()]
        assert [l["contract_id"] for l in lines] == ["california", "males", "age5"]
        assert lines[0]["alpha"] == pytest.approx(1.0)
        assert lines[1]["alpha"] == pytest.approx(0.25)
        assert lines[2]["alpha"] == pytest.approx(0.625)

    def test_dual_plan(self, tmp_path):
        write_demo_inputs(tmp_path)
        rc = run(["plan", "--supply", tmp_path / "supply.jsonl",
                  "--contracts", tmp_path / "contracts.jsonl",
                  "--algorithm", "dual", "--out", tmp_path / "dual_plan.jsonl"])
        assert rc == 0
        lines = [json.loads(l) for l in
                 (tmp_path / "dual_plan.jsonl").read_text().splitlines()]
        assert {l["contract_id"] for l in lines} == {"males", "california", "age5"}
        assert all("theta" in l and "alpha" in l and "penalty" in l for l in lines)

    def test_dual_plan_reports_solver_stats(self, tmp_path, capsys):
        write_demo_inputs(tmp_path)
        rc = run(["plan", "--supply", tmp_path / "supply.jsonl",
                  "--contracts", tmp_path / "contracts.jsonl",
                  "--algorithm", "dual", "--out", tmp_path / "dual_plan.jsonl"])
        assert rc == 0
        notes = [l for l in capsys.readouterr().err.splitlines()
                 if l.startswith("note: dual solve:")]
        assert len(notes) == 1
        assert "sweeps" in notes[0] and "penalty/2 cap" in notes[0]
        assert "worst residual" in notes[0]
        for line in (tmp_path / "dual_plan.jsonl").read_text().splitlines():
            assert set(json.loads(line)) == {"contract_id", "theta", "alpha",
                                             "penalty"}

    def test_empty_contracts_file_succeeds(self, tmp_path):
        write_demo_inputs(tmp_path)
        (tmp_path / "contracts.jsonl").write_text("")
        rc = run(["plan", "--supply", tmp_path / "supply.jsonl",
                  "--contracts", tmp_path / "contracts.jsonl",
                  "--out", tmp_path / "plan.jsonl"])
        assert rc == 0
        assert (tmp_path / "plan.jsonl").read_text() == ""

    def test_malformed_targeting_fails_with_offset(self, tmp_path, capsys):
        write_demo_inputs(tmp_path)
        (tmp_path / "contracts.jsonl").write_text(
            '{"id": "bad", "targeting": "state = = CA", "demand": 5, '
            '"start": "2026-03-02T00:00:00", "end": "2026-03-09T00:00:00"}\n')
        rc = run(["plan", "--supply", tmp_path / "supply.jsonl",
                  "--contracts", tmp_path / "contracts.jsonl",
                  "--out", tmp_path / "plan.jsonl"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "offset" in err and ":1" in err

    def test_missing_file_fails(self, tmp_path, capsys):
        rc = run(["plan", "--supply", tmp_path / "nope.jsonl",
                  "--contracts", tmp_path / "nope.jsonl",
                  "--out", tmp_path / "plan.jsonl"])
        assert rc == 1

    def test_edges_flag_is_rejected(self, tmp_path, capsys):
        # The edges are always derived from targeting; there is no override.
        write_demo_inputs(tmp_path)
        (tmp_path / "edges.jsonl").write_text("")
        with pytest.raises(SystemExit) as exit_info:
            run(["plan", "--supply", tmp_path / "supply.jsonl",
                 "--contracts", tmp_path / "contracts.jsonl",
                 "--edges", tmp_path / "edges.jsonl", "--out", tmp_path / "plan.jsonl"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --edges" in capsys.readouterr().err
        assert not (tmp_path / "plan.jsonl").exists()

    @pytest.mark.parametrize("algorithm", ["hwm", "dual"])
    def test_one_targeting_walk_per_plan(self, tmp_path, monkeypatch, algorithm):
        # The edges are derived from targeting once, by build_graph: one
        # evaluation of each contract's targeting over all the nodes.  The
        # planners walk nothing.
        g = write_demo_inputs(tmp_path)
        argv = ["plan", "--supply", tmp_path / "supply.jsonl",
                "--contracts", tmp_path / "contracts.jsonl",
                "--algorithm", algorithm, "--out", tmp_path / "plan.jsonl"]
        calls = Counter()
        walk, matches = tg.eligible, tg.AttributeIndex.matches
        depth = [0]

        def counted_walk(attrs, expr):
            calls["eligible"] += 1
            return walk(attrs, expr)

        def counted_matches(index, expr):
            if depth[0] == 0:       # count the top-level evaluations only
                calls["matches"] += 1
                calls["maps"] = max(calls["maps"], index.all.bit_length())
            depth[0] += 1
            try:
                return matches(index, expr)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(tg, "eligible", counted_walk)
        monkeypatch.setattr(tg.AttributeIndex, "matches", counted_matches)
        assert run(argv) == 0
        assert calls == {"matches": len(g.contracts), "maps": len(g.supply_nodes)}

    def test_parser_built_once_and_command_looked_up_per_call(self, tmp_path,
                                                              monkeypatch):
        # main builds its parser once, and finds cmd_<command> when it runs:
        # a cmd_plan replaced after the first call is the one that runs.
        write_demo_inputs(tmp_path)
        argv = ["plan", "--supply", tmp_path / "supply.jsonl",
                "--contracts", tmp_path / "contracts.jsonl",
                "--out", tmp_path / "plan.jsonl"]
        built = []
        build = cli.build_parser

        def counted_build():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted_build)
        cli._parser.cache_clear()
        assert run(argv) == 0
        seen = []
        plan = cli.cmd_plan

        def traced_plan(args):
            seen.append(args.algorithm)
            return plan(args)

        monkeypatch.setattr(cli, "cmd_plan", traced_plan)
        assert run(argv) == 0
        assert run([*argv, "--algorithm", "dual"]) == 0
        assert seen == ["hwm", "dual"]
        assert len(built) == 1


def write_impressions(path, attr_maps, spacing_s=60):
    with open(path, "w") as fh:
        for i, attrs in enumerate(attr_maps):
            ts = FLIGHT_START + timedelta(days=1, seconds=i * spacing_s)
            fh.write(json.dumps({"id": f"imp{i:06d}", "ts": ts.isoformat(),
                                 "attributes": attrs}) + "\n")


class TestServeCommand:
    def make_plan(self, tmp_path):
        write_demo_inputs(tmp_path)
        run(["plan", "--supply", tmp_path / "supply.jsonl",
             "--contracts", tmp_path / "contracts.jsonl",
             "--out", tmp_path / "plan.jsonl"])

    def test_guaranteed_selection(self, tmp_path):
        self.make_plan(tmp_path)
        write_impressions(tmp_path / "impressions.jsonl",
                          [{"state": "CA", "age_bucket": "5"}] * 10)
        rc = run(["serve", "--plan", tmp_path / "plan.jsonl",
                  "--contracts", tmp_path / "contracts.jsonl",
                  "--impressions", tmp_path / "impressions.jsonl",
                  "--out", tmp_path / "decisions.jsonl", "--seed", 3])
        assert rc == 0
        decisions = [json.loads(l) for l in
                     (tmp_path / "decisions.jsonl").read_text().splitlines()]
        assert len(decisions) == 10
        assert all(d["chosen"] == "california" for d in decisions)

    def test_empty_stream_empty_output(self, tmp_path):
        self.make_plan(tmp_path)
        (tmp_path / "impressions.jsonl").write_text("")
        rc = run(["serve", "--plan", tmp_path / "plan.jsonl",
                  "--contracts", tmp_path / "contracts.jsonl",
                  "--impressions", tmp_path / "impressions.jsonl",
                  "--out", tmp_path / "decisions.jsonl"])
        assert rc == 0
        assert (tmp_path / "decisions.jsonl").read_text() == ""

    def test_sampled_frequencies_match_plan(self, tmp_path):
        self.make_plan(tmp_path)
        n = 100_000
        write_impressions(tmp_path / "impressions.jsonl",
                          [{"gender": "male", "age_bucket": "5"}] * n, spacing_s=1)
        rc = run(["serve", "--plan", tmp_path / "plan.jsonl",
                  "--contracts", tmp_path / "contracts.jsonl",
                  "--impressions", tmp_path / "impressions.jsonl",
                  "--out", tmp_path / "decisions.jsonl", "--seed", 12])
        assert rc == 0
        hits = Counter()
        with open(tmp_path / "decisions.jsonl") as fh:
            for line in fh:
                hits[json.loads(line)["chosen"]] += 1
        for key, p in (("males", 0.25), ("age5", 0.625), (None, 0.125)):
            se = (p * (1 - p) / n) ** 0.5
            assert abs(hits[key] / n - p) <= 3 * se, (key, hits[key] / n)

    def test_bit_identical_across_runs(self, tmp_path):
        self.make_plan(tmp_path)
        write_impressions(tmp_path / "impressions.jsonl",
                          [{"gender": "male", "age_bucket": "5"}] * 500)
        outs = []
        for name in ("d1.jsonl", "d2.jsonl"):
            run(["serve", "--plan", tmp_path / "plan.jsonl",
                 "--contracts", tmp_path / "contracts.jsonl",
                 "--impressions", tmp_path / "impressions.jsonl",
                 "--out", tmp_path / name, "--seed", 7])
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_seed_defaults_to_zero(self, tmp_path):
        self.make_plan(tmp_path)
        write_impressions(tmp_path / "impressions.jsonl",
                          [{"gender": "male", "age_bucket": "5"}] * 200)
        for name, extra in (("default.jsonl", []), ("zero.jsonl", ["--seed", 0])):
            assert run(["serve", "--plan", tmp_path / "plan.jsonl",
                        "--contracts", tmp_path / "contracts.jsonl",
                        "--impressions", tmp_path / "impressions.jsonl",
                        "--out", tmp_path / name, *extra]) == 0
        assert (tmp_path / "default.jsonl").read_bytes() == \
            (tmp_path / "zero.jsonl").read_bytes()

    def test_seed_environment_is_ignored(self, tmp_path, monkeypatch):
        # GD_SEED is no setting: without --seed, serve draws as --seed 0.
        self.make_plan(tmp_path)
        write_impressions(tmp_path / "impressions.jsonl",
                          [{"gender": "male", "age_bucket": "5"}] * 200)
        for name, extra in (("env.jsonl", []), ("zero.jsonl", ["--seed", 0]),
                            ("seven.jsonl", ["--seed", 7])):
            if not extra:
                monkeypatch.setenv("GD_SEED", "7")
            else:
                monkeypatch.delenv("GD_SEED", raising=False)
            assert run(["serve", "--plan", tmp_path / "plan.jsonl",
                        "--contracts", tmp_path / "contracts.jsonl",
                        "--impressions", tmp_path / "impressions.jsonl",
                        "--out", tmp_path / name, *extra]) == 0
        env = (tmp_path / "env.jsonl").read_bytes()
        assert env == (tmp_path / "zero.jsonl").read_bytes()
        assert env != (tmp_path / "seven.jsonl").read_bytes()

    def test_plan_contract_mismatch_names_contract(self, tmp_path, capsys):
        self.make_plan(tmp_path)
        kept = [json.loads(l) for l in
                (tmp_path / "contracts.jsonl").read_text().splitlines()
                if json.loads(l)["id"] != "males"]
        with open(tmp_path / "contracts.jsonl", "w") as fh:
            for rec in kept:
                fh.write(json.dumps(rec) + "\n")
        write_impressions(tmp_path / "impressions.jsonl", [{"state": "CA"}])
        rc = run(["serve", "--plan", tmp_path / "plan.jsonl",
                  "--contracts", tmp_path / "contracts.jsonl",
                  "--impressions", tmp_path / "impressions.jsonl",
                  "--out", tmp_path / "decisions.jsonl"])
        assert rc == 1
        assert "males" in capsys.readouterr().err

    def test_dual_plan_served(self, tmp_path):
        write_demo_inputs(tmp_path)
        run(["plan", "--supply", tmp_path / "supply.jsonl",
             "--contracts", tmp_path / "contracts.jsonl",
             "--algorithm", "dual", "--out", tmp_path / "dual_plan.jsonl"])
        write_impressions(tmp_path / "impressions.jsonl",
                          [{"state": "CA", "age_bucket": "5"}] * 50)
        rc = run(["serve", "--plan", tmp_path / "dual_plan.jsonl",
                  "--contracts", tmp_path / "contracts.jsonl",
                  "--impressions", tmp_path / "impressions.jsonl",
                  "--out", tmp_path / "decisions.jsonl", "--seed", 5])
        assert rc == 0
        decisions = [json.loads(l) for l in
                     (tmp_path / "decisions.jsonl").read_text().splitlines()]
        assert len(decisions) == 50
        assert all(sum(p for _, p in d["probs"]) <= 1.0 + 1e-9 for d in decisions)


def reference_decisions(contracts_path, plan_path, impressions_path, seed):
    """The decisions file of `gdserve serve`, made row by row from the
    impressions read one `json.loads` per line: targeting, plan membership,
    flight, `effective_probs`, and `draw_index` with
    `impression_uniform(seed, row)`."""
    contracts = model.load_contracts(contracts_path)
    plan = cli._load_plan(plan_path)
    lines = []
    for n, ev in enumerate(test_simulator.reference_events(impressions_path)):
        cands = [c.id for c in contracts if c.id in plan and c.in_flight(ev.ts)
                 and tg.eligible(ev.attributes, c.targeting)]
        u = sim.impression_uniform(seed, n)
        probs = plan.effective_probs(cands)
        sel = kernels.draw_index(list(accumulate(p for _, p in probs)), u)
        lines.append(json.dumps({
            "impression_id": ev.id, "chosen": probs[sel][0] if sel >= 0 else None,
            "probs": [[cid, p] for cid, p in probs], "u": u}) + "\n")
    return "".join(lines)


class TestDecisionLines:
    """Each `gdserve serve` line is the bytes json.dumps writes for the
    decision dict of one draw (`kernels.draw_index`) from the plan's slice
    for the impression's eligible, planned, in-flight contracts."""

    EVENTS = [("plain", {"state": "CA", "age_bucket": "5"}),
              ('quote " back \\ snow \u2603 e\u0301 \u00e9', {"gender": "male"}),
              ("nothing eligible", {"state": "TX"}),
              ("\u00fcber", {"gender": "male", "age_bucket": "5"})]

    @pytest.mark.parametrize("algorithm", ["hwm", "dual"])
    def test_lines_equal_json_dumps_of_decision(self, tmp_path, algorithm):
        write_demo_inputs(tmp_path)
        plan_path = tmp_path / "plan.jsonl"
        run(["plan", "--supply", tmp_path / "supply.jsonl",
             "--contracts", tmp_path / "contracts.jsonl",
             "--algorithm", algorithm, "--out", plan_path])
        with open(tmp_path / "impressions.jsonl", "w", encoding="utf-8") as fh:
            for i in range(60):
                imp_id, attrs = self.EVENTS[i % len(self.EVENTS)]
                # The last visits fall after every flight: no candidates.
                ts = FLIGHT_START + timedelta(days=1 if i < 50 else 400, minutes=i)
                fh.write(json.dumps({"id": imp_id, "ts": ts.isoformat(),
                                     "attributes": attrs}) + "\n")
        rc = run(["serve", "--plan", plan_path,
                  "--contracts", tmp_path / "contracts.jsonl",
                  "--impressions", tmp_path / "impressions.jsonl",
                  "--out", tmp_path / "decisions.jsonl", "--seed", 4])
        assert rc == 0
        got = (tmp_path / "decisions.jsonl").read_text(encoding="utf-8")
        assert got == reference_decisions(tmp_path / "contracts.jsonl", plan_path,
                                          tmp_path / "impressions.jsonl", 4)
        decisions = [json.loads(line) for line in got.splitlines()]
        assert {d["impression_id"] for d in decisions} == {e[0] for e in self.EVENTS}
        assert any(d["probs"] == [] and d["chosen"] is None for d in decisions)
        assert any(d["chosen"] is not None for d in decisions)


class TestServeSlots:
    """`gdserve serve` keeps each attribute set's slice for the flight phase
    of the last row, and finds the phase again for a row outside it."""

    @pytest.fixture(scope="class")
    def scen(self, tmp_path_factory):
        scen = tmp_path_factory.mktemp("scen")
        assert run(["scenario", "--out-dir", scen, "--contracts", 8, "--days", 3,
                    "--daily-traffic", 300, "--seed", 6]) == 0
        assert run(["plan", "--supply", scen / "supply.jsonl",
                    "--contracts", scen / "contracts.jsonl",
                    "--out", scen / "plan.jsonl"]) == 0
        return scen

    def serve(self, scen, contracts, impressions, out, workers):
        return run(["serve", "--plan", scen / "plan.jsonl", "--contracts", contracts,
                    "--impressions", impressions, "--out", out, "--seed", 2,
                    "--workers", workers])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unsorted_rows_match_reference(self, scen, tmp_path, monkeypatch, workers):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        events = list(sim.load_impressions(scen / "impressions.jsonl"))
        contracts = model.load_contracts(scen / "contracts.jsonl")
        instants = sorted({t for c in contracts for t in (c.start, c.end)})
        # Rows exactly at every flight start and end, before the first
        # instant, and at the first and last representable instants.
        extra = [instants[0] - timedelta(microseconds=1), datetime.min, datetime.max]
        events += [sim.ImpressionEvent(f"at{i}", t, events[i * 7].attributes)
                   for i, t in enumerate(instants + extra)]
        random.Random(4).shuffle(events)
        assert any(a.ts > b.ts for a, b in zip(events, events[1:]))
        sim.save_impressions(events, tmp_path / "impressions.jsonl")
        assert "9999-12-31T23:59:59.999999" in (tmp_path / "impressions.jsonl").read_text()
        assert self.serve(scen, scen / "contracts.jsonl", tmp_path / "impressions.jsonl",
                          tmp_path / "decisions.jsonl", workers) == 0
        assert (tmp_path / "decisions.jsonl").read_text(encoding="utf-8") == \
            reference_decisions(scen / "contracts.jsonl", scen / "plan.jsonl",
                                tmp_path / "impressions.jsonl", 2)

    def test_one_entry_per_set_and_phase(self, scen, tmp_path, monkeypatch):
        stream = sim.load_impressions(scen / "impressions.jsonl")
        plan = cli._load_plan(scen / "plan.jsonl")
        instants = sorted({t for c in model.load_contracts(scen / "contracts.jsonl")
                           if c.id in plan for t in (c.start, c.end)})
        pairs = {(sid, bisect.bisect_right(instants, t))
                 for sid, t in zip(stream.set_ids, stream.ts)}
        calls = []
        entry = sim.Server.entry

        def counting(self, *args):
            calls.append(args)
            return entry(self, *args)

        monkeypatch.setattr(sim.Server, "entry", counting)
        assert self.serve(scen, scen / "contracts.jsonl", scen / "impressions.jsonl",
                          tmp_path / "decisions.jsonl", 1) == 0
        assert 0 < len(calls) <= len(pairs) < len(stream)

    @pytest.mark.parametrize("command", ["serve", "metrics"])
    def test_duplicate_contract_ids_rejected(self, scen, tmp_path, capsys, command):
        # A second record of the first contract, targeting every visit, must
        # not replace the first one.
        lines = (scen / "contracts.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        lines.append(json.dumps({**first, "targeting": "TRUE"}))
        contracts = tmp_path / "contracts.jsonl"
        contracts.write_text("\n".join(lines) + "\n")
        if command == "serve":
            rc = self.serve(scen, contracts, scen / "impressions.jsonl",
                            tmp_path / "decisions.jsonl", 1)
        else:
            # The contracts are read before the timeseries, which is missing.
            rc = run(["metrics", "--timeseries", tmp_path / "timeseries.csv",
                      "--contracts", contracts])
        assert rc == 1
        assert capsys.readouterr().err == f"error: duplicate contract ids: {first['id']}\n"
        assert os.listdir(tmp_path) == ["contracts.jsonl"]


class TestBadImpressions:
    @pytest.mark.parametrize("attrs", [{"age_bucket": 5}, [[1, "x"], ["state", "CA"]]])
    def test_bad_attributes_fail_with_line(self, tmp_path, capsys, attrs):
        write_demo_inputs(tmp_path)
        run(["plan", "--supply", tmp_path / "supply.jsonl",
             "--contracts", tmp_path / "contracts.jsonl", "--out", tmp_path / "plan.jsonl"])
        write_impressions(tmp_path / "impressions.jsonl",
                          [{"state": "CA"}, attrs, {"state": "CA"}])
        rc = run(["serve", "--plan", tmp_path / "plan.jsonl",
                  "--contracts", tmp_path / "contracts.jsonl",
                  "--impressions", tmp_path / "impressions.jsonl",
                  "--out", tmp_path / "decisions.jsonl"])
        assert rc == 1
        assert f"{tmp_path / 'impressions.jsonl'}:2: bad impression" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("workers", [1, 2])
    def test_deeply_nested_attribute_fails_with_line(self, tmp_path, capsys, workers):
        write_demo_inputs(tmp_path)
        run(["plan", "--supply", tmp_path / "supply.jsonl",
             "--contracts", tmp_path / "contracts.jsonl", "--out", tmp_path / "plan.jsonl"])
        path = tmp_path / "impressions.jsonl"
        write_impressions(path, [{"state": "CA"}, {"state": "CA"}])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"id": "deep", "ts": "2026-03-02T00:00:00", "attributes": {"state": '
                     + "[" * 100_000 + "]" * 100_000 + "}}\n")
        rc = run(["serve", "--plan", tmp_path / "plan.jsonl",
                  "--contracts", tmp_path / "contracts.jsonl", "--impressions", path,
                  "--out", tmp_path / "decisions.jsonl", "--workers", workers])
        assert rc == 1
        assert f"\nerror: {path}:3: bad impression: maximum recursion depth" in \
            capsys.readouterr().err


class TestServeWorkers:
    """`gdserve serve --workers N` serves byte ranges of the impression file
    in N processes and writes what one process writes: the same decisions,
    and on a bad line the same error and the same partial file.  It leaves
    no child process and no file but its output."""

    @pytest.fixture(scope="class")
    def scen(self, tmp_path_factory):
        scen = tmp_path_factory.mktemp("scen")
        assert run(["scenario", "--out-dir", scen, "--contracts", 6, "--days", 2,
                    "--daily-traffic", 300, "--seed", 8]) == 0
        assert run(["plan", "--supply", scen / "supply.jsonl",
                    "--contracts", scen / "contracts.jsonl",
                    "--out", scen / "plan.jsonl"]) == 0
        return scen

    @pytest.fixture
    def four_cpus(self, monkeypatch):
        """Up to four workers, whatever the machine has."""
        monkeypatch.setattr(os, "cpu_count", lambda: 4)

    def serve(self, scen, impressions, out_dir, workers, capsys):
        """Exit status, stderr and decisions of one serve into `out_dir`
        (`--workers` left out when `workers` is None)."""
        out_dir.mkdir()
        rc = run(["serve", "--plan", scen / "plan.jsonl",
                  "--contracts", scen / "contracts.jsonl", "--impressions", impressions,
                  "--out", out_dir / "decisions.jsonl", "--seed", 5]
                 + ([] if workers is None else ["--workers", workers]))
        err = capsys.readouterr().err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)          # every child was reaped
        assert os.listdir(out_dir) == ["decisions.jsonl"]
        return rc, err, (out_dir / "decisions.jsonl").read_bytes()

    def test_same_decisions_for_every_worker_count(self, scen, tmp_path, capsys,
                                                   four_cpus):
        lines = (scen / "impressions.jsonl").read_text().count("\n")
        outs = []
        for n in (1, 2, 3, 4):
            rc, err, out = self.serve(scen, scen / "impressions.jsonl", tmp_path / f"w{n}",
                                      n, capsys)
            assert (rc, err) == (0, f"wrote {lines} decisions to "
                                    f"{tmp_path / f'w{n}' / 'decisions.jsonl'}\n")
            outs.append(out)
        assert outs == [outs[0]] * 4 and outs[0].count(b"\n") == lines > 0

    def test_blank_and_crlf_lines_draw_by_row(self, scen, tmp_path, capsys, four_cpus):
        # Blank, whitespace-only and CRLF lines change no row, so no decision.
        lines = (scen / "impressions.jsonl").read_text().splitlines()
        path = tmp_path / "impressions.jsonl"
        path.write_bytes("".join(line + ("\r\n\r\n" if i % 7 == 0 else " \t\n\r" if i % 7 == 1
                                         else "\r\n") for i, line in enumerate(lines))
                         .encode("utf-8"))
        plain = self.serve(scen, scen / "impressions.jsonl", tmp_path / "plain", 1, capsys)
        for n in (1, 2, 3):
            assert self.serve(scen, path, tmp_path / f"w{n}", n, capsys)[2] == plain[2]

    def with_bad_lines(self, scen, tmp_path, workers, bad_ranges, bad=b"x", line=3):
        """The scenario's impressions with line `line` of each range in
        `bad_ranges` given a timestamp starting with the byte `bad` in place
        of its first digit, so that the ranges stay where they are; returns
        the path and the line numbers."""
        data = (scen / "impressions.jsonl").read_bytes()
        ranges = sim.split_impressions(scen / "impressions.jsonl", workers)
        assert len(ranges) == workers
        lines = data.splitlines(keepends=True)
        numbers = [ranges[k].first_line + line - 1 for k in bad_ranges]
        for number in numbers:
            lines[number - 1] = lines[number - 1].replace(b'"ts": "2', b'"ts": "' + bad)
        path = tmp_path / "impressions.jsonl"
        path.write_bytes(b"".join(lines))
        assert sim.split_impressions(path, workers) == ranges
        return path, numbers

    @pytest.mark.parametrize("workers, bad_ranges", [
        (2, [1]), (3, [1, 2]), (2, [0]), (3, [0, 2]), (4, [2, 3])])
    def test_first_bad_line_fails_as_in_one_process(self, scen, tmp_path, capsys,
                                                    four_cpus, workers, bad_ranges):
        path, numbers = self.with_bad_lines(scen, tmp_path, workers, bad_ranges)
        one = self.serve(scen, path, tmp_path / "one", 1, capsys)
        assert one[0] == 1
        assert one[1].startswith(f"error: {path}:{numbers[0]}: bad impression: ")
        assert one[2].count(b"\n") == numbers[0] - 1
        assert self.serve(scen, path, tmp_path / "many", workers, capsys) == one

    @pytest.mark.parametrize("workers, bad_ranges, line", [
        (2, [1], 1), (2, [0], 3), (3, [1, 2], 1), (2, [1], 3)])
    def test_undecodable_line_fails_as_in_one_process(self, scen, tmp_path, capsys,
                                                      four_cpus, workers, bad_ranges,
                                                      line):
        # A range's reader must not decode ahead into the next range, nor
        # fail before serving the rows of its own lines before the bad one.
        path, numbers = self.with_bad_lines(scen, tmp_path, workers, bad_ranges,
                                            b"\xff", line)
        one = self.serve(scen, path, tmp_path / "one", 1, capsys)
        assert one[0] == 1
        assert one[1].startswith(f"error: {path}:{numbers[0]}: bad impression: 'utf-8' "
                                 "codec can't decode byte 0xff")
        assert one[2].count(b"\n") == numbers[0] - 1
        assert self.serve(scen, path, tmp_path / "many", workers, capsys) == one

    def test_workers_outside_cpus_rejected_without_fork(self, scen, tmp_path, capsys,
                                                        monkeypatch):
        def no_fork():
            raise AssertionError("forked")
        monkeypatch.setattr(os, "fork", no_fork)
        for workers in (0, os.cpu_count() + 1):
            rc = run(["serve", "--plan", scen / "plan.jsonl",
                      "--contracts", scen / "contracts.jsonl",
                      "--impressions", scen / "impressions.jsonl",
                      "--out", tmp_path / "decisions.jsonl", "--workers", workers])
            assert rc == 1
            assert capsys.readouterr().err == (f"error: --workers must be between 1 and "
                                               f"{os.cpu_count()}, got {workers}\n")
        assert os.listdir(tmp_path) == []

    def test_one_process_without_fork(self, scen, tmp_path, capsys, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert cli._serve_workers(None) == len(os.sched_getaffinity(0))
        plain = self.serve(scen, scen / "impressions.jsonl", tmp_path / "plain", 1, capsys)
        monkeypatch.delattr(os, "fork")
        assert cli._serve_workers(None) == 1
        assert self.serve(scen, scen / "impressions.jsonl", tmp_path / "nofork", None,
                          capsys)[2] == plain[2]


class TestPlanFileErrors:
    """A bad plan record stops `gdserve serve` with the plan's path:line."""

    GOOD_DUAL = {"contract_id": "males", "theta": 0.25, "alpha": 0.0,
                 "penalty": 10.0}
    GOOD_HWM = {"contract_id": "males", "eligible_supply": 400, "alpha": 0.25}

    def serve(self, tmp_path, capsys, plan_text):
        write_demo_inputs(tmp_path)
        (tmp_path / "plan.jsonl").write_text(plan_text)
        write_impressions(tmp_path / "impressions.jsonl",
                          [{"gender": "male", "age_bucket": "5"}] * 3)
        rc = run(["serve", "--plan", tmp_path / "plan.jsonl",
                  "--contracts", tmp_path / "contracts.jsonl",
                  "--impressions", tmp_path / "impressions.jsonl",
                  "--out", tmp_path / "decisions.jsonl"])
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("theta", "0.5"), ("theta", 0), ("penalty", -1.0), ("penalty", None),
        ("alpha", -3), ("alpha", 5.5), ("alpha", True)])
    def test_bad_dual_record(self, tmp_path, capsys, key, value):
        bad = dict(self.GOOD_DUAL, contract_id="age5", **{key: value})
        rc, err = self.serve(tmp_path, capsys, json.dumps(self.GOOD_DUAL)
                             + "\n" + json.dumps(bad) + "\n")
        assert rc == 1
        assert f"{tmp_path / 'plan.jsonl'}:2: bad plan record" in err

    @pytest.mark.parametrize("key, value", [
        ("alpha", "0.5"), ("alpha", -0.1), ("alpha", 1.5),
        ("eligible_supply", "400"), ("eligible_supply", -1),
        ("alpha", 10 ** 400), ("eligible_supply", 10 ** 400)])
    def test_bad_hwm_record(self, tmp_path, capsys, key, value):
        bad = dict(self.GOOD_HWM, contract_id="age5", **{key: value})
        rc, err = self.serve(tmp_path, capsys, json.dumps(self.GOOD_HWM)
                             + "\n" + json.dumps(bad) + "\n")
        assert rc == 1
        assert f"{tmp_path / 'plan.jsonl'}:2: bad plan record" in err

    @pytest.mark.parametrize("good", [GOOD_DUAL, GOOD_HWM])
    def test_contract_listed_twice(self, tmp_path, capsys, good):
        rc, err = self.serve(tmp_path, capsys, 2 * (json.dumps(good) + "\n"))
        assert rc == 1
        assert f"{tmp_path / 'plan.jsonl'}:2: bad plan record" in err
        assert "listed twice" in err

    def test_non_json_first_line(self, tmp_path, capsys):
        rc, err = self.serve(tmp_path, capsys, "not json\n")
        assert rc == 1
        assert f"{tmp_path / 'plan.jsonl'}:1: bad plan record" in err

    def test_boundary_values_are_served(self, tmp_path, capsys):
        plan = [dict(self.GOOD_DUAL, alpha=5.0),
                dict(self.GOOD_DUAL, contract_id="age5", alpha=0)]
        rc, _ = self.serve(tmp_path, capsys,
                           "".join(json.dumps(r) + "\n" for r in plan))
        assert rc == 0


class TestIntegersBeyondFloatRange:
    """A JSON integer no float can hold (1 followed by 400 zeros) fails as
    any other non-finite number does: exit 1 with `path:line`, where
    `math.isfinite` used to raise an OverflowError past `cli.main`.  Plan
    files take such numbers in `TestPlanFileErrors`."""

    HUGE = 10 ** 400
    MESSAGE = "must be a finite number, got an integer of 401 digits"

    @pytest.mark.parametrize("name, key, what", [
        ("supply.jsonl", "supply", "supply record"),
        ("contracts.jsonl", "demand", "contract record"),
        ("contracts.jsonl", "booked", "contract record"),
    ])
    def test_plan_inputs(self, tmp_path, capsys, name, key, what):
        write_demo_inputs(tmp_path)
        path = tmp_path / name
        lines = path.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), key: self.HUGE})
        path.write_text("\n".join(lines) + "\n")
        rc = run(["plan", "--supply", tmp_path / "supply.jsonl",
                  "--contracts", tmp_path / "contracts.jsonl",
                  "--out", tmp_path / "plan.jsonl"])
        assert rc == 1
        assert (capsys.readouterr().err
                == f"error: {path}:2: bad {what}: {key} {self.MESSAGE}\n")


class TestScenarioAndSimulate:
    def test_end_to_end(self, tmp_path):
        scen = tmp_path / "scen"
        rc = run(["scenario", "--out-dir", scen, "--contracts", 5,
                  "--attributes", 3, "--contention", "medium", "--days", 2,
                  "--daily-traffic", 800, "--seed", 3])
        assert rc == 0
        for name in ("supply.jsonl", "contracts.jsonl", "impressions.jsonl"):
            assert (scen / name).exists()
        cfg = {"algorithm": "hwm", "reopt_period_hours": 6,
               "forecast_error_multiplier": 1.0, "mode": "expected", "seed": 1}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        rc = run(["simulate", "--config", tmp_path / "config.json",
                  "--scenario", scen, "--out-dir", out])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["algorithm"] == "hwm"
        assert (out / "delivery_timeseries.csv").exists()

    def test_expected_mode_reports_identical_bytes(self, tmp_path):
        scen = tmp_path / "scen"
        run(["scenario", "--out-dir", scen, "--contracts", 4, "--attributes", 2,
             "--days", 2, "--daily-traffic", 600, "--seed", 9])
        cfg = {"algorithm": "hwm", "reopt_period_hours": 12, "mode": "expected"}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        blobs = []
        for name in ("o1", "o2"):
            run(["simulate", "--config", tmp_path / "config.json",
                 "--scenario", scen, "--out-dir", tmp_path / name])
            blobs.append((tmp_path / name / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_simulate_with_baseline_improvement(self, tmp_path):
        scen = tmp_path / "scen"
        run(["scenario", "--out-dir", scen, "--contracts", 4, "--attributes", 2,
             "--days", 2, "--daily-traffic", 600, "--seed", 10])
        cfg = {"algorithm": "hwm", "reopt_period_hours": 6, "mode": "expected",
               "forecast_error_multiplier": 1.3}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        rc = run(["simulate", "--config", tmp_path / "config.json",
                  "--scenario", scen, "--out-dir", out, "--baseline"])
        assert rc == 0
        assert (out / "baseline_report.json").exists()

    def test_baseline_delivering_in_full_leaves_improvement_undefined(self, tmp_path,
                                                                     capsys):
        # A demand far below the supply: both runs deliver it in full.
        graph, events = uniform_single_contract(days=2, per_day=500, demand=100)
        scen = tmp_path / "scen"
        scen.mkdir()
        model.save_supply(graph.supply_nodes, scen / "supply.jsonl")
        model.save_contracts(graph.contracts, scen / "contracts.jsonl")
        sim.save_impressions(events, scen / "impressions.jsonl")
        (tmp_path / "config.json").write_text("{}")
        out = tmp_path / "out"
        assert run(["simulate", "--config", tmp_path / "config.json",
                    "--scenario", scen, "--out-dir", out, "--baseline"]) == 0
        err = capsys.readouterr().err
        assert err.startswith("note: baseline underdelivery is zero; "
                              "improvement undefined\n")
        for name in ("report.json", "delivery_timeseries.csv",
                     "baseline_report.json", "baseline_delivery_timeseries.csv"):
            assert (out / name).exists()
        assert json.loads((out / "baseline_report.json").read_text())[
            "total_underdelivery_frac"] == 0.0

    def test_simulate_without_baseline_writes_no_baseline(self, tmp_path):
        # --baseline is the one switch for the comparator.
        scen = tmp_path / "scen"
        run(["scenario", "--out-dir", scen, "--contracts", 3, "--attributes", 2,
             "--days", 1, "--daily-traffic", 200, "--seed", 10])
        (tmp_path / "config.json").write_text(json.dumps({"reopt_period_hours": 6}))
        out = tmp_path / "out"
        assert run(["simulate", "--config", tmp_path / "config.json",
                    "--scenario", scen, "--out-dir", out]) == 0
        assert (out / "report.json").exists()
        assert not (out / "baseline_report.json").exists()
        assert not (out / "baseline_delivery_timeseries.csv").exists()

    def test_simulate_seed_flag_overrides_config_seed(self, tmp_path):
        # A seed-0 sampled config run with --seed 7 reports what the same
        # config with seed 7 reports, not what seed 0 reports.
        scen = tmp_path / "scen"
        assert run(["scenario", "--out-dir", scen, "--contracts", 4,
                    "--attributes", 2, "--days", 2, "--daily-traffic", 600,
                    "--seed", 4]) == 0
        outputs = {}
        for name, seed, flag in (("flag7", 0, ["--seed", 7]), ("config7", 7, []),
                                 ("config0", 0, [])):
            cfg = {"algorithm": "hwm", "reopt_period_hours": 6,
                   "mode": "sampled", "seed": seed}
            (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
            out = tmp_path / name
            assert run(["simulate", "--config", tmp_path / f"{name}.json",
                        "--scenario", scen, "--out-dir", out, *flag]) == 0
            outputs[name] = [(out / f).read_bytes()
                             for f in ("report.json", "delivery_timeseries.csv")]
        assert outputs["flag7"] == outputs["config7"]
        assert outputs["flag7"][0] != outputs["config0"][0]
        assert outputs["flag7"][1] != outputs["config0"][1]

    @pytest.mark.parametrize("env", [None, "7"], ids=["unset", "GD_SEED=7"])
    def test_scenario_seed_defaults_to_zero(self, tmp_path, monkeypatch, env):
        # Without --seed, scenario draws as --seed 0, whatever the environment.
        if env is not None:
            monkeypatch.setenv("GD_SEED", env)
        dims = ["--contracts", 3, "--attributes", 2, "--days", 1,
                "--daily-traffic", 200]
        assert run(["scenario", "--out-dir", tmp_path / "default", *dims]) == 0
        monkeypatch.delenv("GD_SEED", raising=False)
        assert run(["scenario", "--out-dir", tmp_path / "zero", *dims,
                    "--seed", 0]) == 0
        for name in ("supply.jsonl", "contracts.jsonl", "impressions.jsonl"):
            assert (tmp_path / "default" / name).read_bytes() == \
                (tmp_path / "zero" / name).read_bytes()

    def test_metrics_subcommand(self, tmp_path):
        scen = tmp_path / "scen"
        run(["scenario", "--out-dir", scen, "--contracts", 4, "--attributes", 2,
             "--days", 2, "--daily-traffic", 600, "--seed", 11])
        cfg = {"algorithm": "hwm", "reopt_period_hours": 6, "mode": "expected"}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        run(["simulate", "--config", tmp_path / "config.json",
             "--scenario", scen, "--out-dir", out, "--baseline"])
        rc = run(["metrics", "--timeseries", out / "delivery_timeseries.csv",
                  "--contracts", scen / "contracts.jsonl",
                  "--baseline", out / "baseline_delivery_timeseries.csv"])
        assert rc == 0

    def test_simulate_reproduces_drift_trace_from_files(self, tmp_path):
        from _scenarios import uniform_single_contract
        graph, events = uniform_single_contract(days=5, per_day=800, demand=2500)
        scen = tmp_path / "scen"
        scen.mkdir()
        model.save_supply(graph.supply_nodes, scen / "supply.jsonl")
        model.save_contracts(graph.contracts, scen / "contracts.jsonl")
        sim.save_impressions(events, scen / "impressions.jsonl")
        (tmp_path / "config.json").write_text(json.dumps(
            {"algorithm": "hwm", "reopt_period_hours": 24,
             "forecast_error_multiplier": 1.25, "mode": "expected"}))
        out = tmp_path / "out"
        rc = run(["simulate", "--config", tmp_path / "config.json",
                  "--scenario", scen, "--out-dir", out])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["total_underdelivery_frac"] == pytest.approx(0.059136, abs=1e-9)
        assert doc["rates"]["c1"] == pytest.approx([0.5, 0.525, 0.56, 0.616, 0.7392])

    def test_metrics_output_fields(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        run(["scenario", "--out-dir", scen, "--contracts", 4, "--attributes", 2,
             "--days", 2, "--daily-traffic", 600, "--seed", 12])
        cfg = {"algorithm": "hwm", "reopt_period_hours": 6, "mode": "expected"}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        run(["simulate", "--config", tmp_path / "config.json",
             "--scenario", scen, "--out-dir", out])
        capsys.readouterr()
        rc = run(["metrics", "--timeseries", out / "delivery_timeseries.csv",
                  "--contracts", scen / "contracts.jsonl"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"sigma75_finished", "sigma95_finished",
                            "sigma75_unfinished", "delivery_improvement"}

    def test_metrics_matches_report_smoothness(self, tmp_path, capsys):
        # sim_end cuts the 3-day scenario short, so some contracts are
        # unfinished and all three sigma values are set.
        scen = tmp_path / "scen"
        run(["scenario", "--out-dir", scen, "--contracts", 6, "--attributes", 2,
             "--days", 3, "--daily-traffic", 600, "--seed", 13,
             "--flight-mix", "day=0.5,multi_day=0.5"])
        cfg = {"algorithm": "hwm", "reopt_period_hours": 6, "mode": "expected",
               "forecast_error_multiplier": 1.4, "sim_end": "2026-03-04T00:00:00"}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run(["simulate", "--config", tmp_path / "config.json",
                    "--scenario", scen, "--out-dir", out]) == 0
        capsys.readouterr()
        assert run(["metrics", "--timeseries", out / "delivery_timeseries.csv",
                    "--contracts", scen / "contracts.jsonl"]) == 0
        doc = json.loads(capsys.readouterr().out)
        report = json.loads((out / "report.json").read_text())
        assert None not in report["smoothness"].values()
        assert {k: doc[k] for k in report["smoothness"]} == report["smoothness"]

    def test_metrics_finishes_contracts_at_sim_end(self, tmp_path, capsys):
        # Flights end at 13:00 and 20:00, off the 6 h cycle bounds, and
        # sim_end is midnight: both are finished, though the last row is at
        # 18:00.  `gdserve metrics` used to take 18:00 for sim_end.
        scen = tmp_path / "scen"
        scen.mkdir()
        day = FLIGHT_START
        node = model.SupplyNode("n", {"site": "a"}, 240)
        contracts = [model.Contract(cid, tg.parse_targeting("TRUE"), demand, day,
                                    day + timedelta(hours=end))
                     for cid, demand, end in (("early", 60, 13), ("late", 90, 20))]
        model.save_supply([node], scen / "supply.jsonl")
        model.save_contracts(contracts, scen / "contracts.jsonl")
        sim.save_impressions([sim.ImpressionEvent(f"i{k}", day + timedelta(minutes=6 * k),
                                                  {"site": "a"}) for k in range(240)],
                             scen / "impressions.jsonl")
        (tmp_path / "config.json").write_text(json.dumps(
            {"reopt_period_hours": 6, "forecast_error_multiplier": 1.5,
             "sim_start": day.isoformat(),
             "sim_end": (day + timedelta(days=1)).isoformat()}))
        out = tmp_path / "out"
        assert run(["simulate", "--config", tmp_path / "config.json",
                    "--scenario", scen, "--out-dir", out]) == 0
        capsys.readouterr()
        assert run(["metrics", "--timeseries", out / "delivery_timeseries.csv",
                    "--contracts", scen / "contracts.jsonl"]) == 0
        doc = json.loads(capsys.readouterr().out)
        report = json.loads((out / "report.json").read_text())
        assert report["smoothness"]["sigma75_finished"] is not None
        assert {k: doc[k] for k in report["smoothness"]} == report["smoothness"]
        rows, sim_end = cli._read_timeseries(out / "delivery_timeseries.csv",
                                             {c.id: c for c in contracts})
        assert max(r.t for r in rows) == day + timedelta(hours=18)
        assert ({c.id for c in contracts if c.end <= sim_end}
                == {c["id"] for c in report["contracts"] if c["finished"]}
                == {"early", "late"})

    def test_metrics_needs_end_of_run_row(self, tmp_path, capsys):
        write_demo_inputs(tmp_path)
        ts = tmp_path / "ts.csv"
        rows = "cycle_end_ts,contract_id,delivered_cum,linear_goal\n" \
               "2026-03-02T12:00:00,males,1.0,1.0\n"
        ts.write_text(rows)
        assert run(["metrics", "--timeseries", ts,
                    "--contracts", tmp_path / "contracts.jsonl"]) == 1
        assert capsys.readouterr().err == (
            f"error: {ts}: no end-of-run row (<sim_end>,,,) after the rows\n")
        ts.write_text(rows + "2026-03-03T00:00:00,,,\n" + rows.splitlines()[1] + "\n")
        assert run(["metrics", "--timeseries", ts,
                    "--contracts", tmp_path / "contracts.jsonl"]) == 1
        assert capsys.readouterr().err == (
            f"error: {ts}:4: bad row: a row follows the end-of-run row\n")

    def test_metrics_on_empty_timeseries(self, tmp_path, capsys):
        write_demo_inputs(tmp_path)
        ts = tmp_path / "ts.csv"
        ts.write_text("cycle_end_ts,contract_id,delivered_cum,linear_goal\n")
        rc = run(["metrics", "--timeseries", ts,
                  "--contracts", tmp_path / "contracts.jsonl"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {ts}: no rows\n"

    def test_metrics_on_undecodable_timeseries(self, tmp_path, capsys):
        # A byte that is not UTF-8 fails with its line, as in the JSONL files.
        write_demo_inputs(tmp_path)
        ts = tmp_path / "ts.csv"
        ts.write_bytes(b"cycle_end_ts,contract_id,delivered_cum,linear_goal\n"
                       + b"2026-03-02T12:00:00,males,1.0,1.0\n" * 3
                       + b"2026-03-03T00:00:00,m\xffales,1.0,1.0\n")
        rc = run(["metrics", "--timeseries", ts,
                  "--contracts", tmp_path / "contracts.jsonl"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: {ts}:5: bad row: 'utf-8' codec can't decode byte 0xff")

    def test_metrics_on_wrong_header(self, tmp_path, capsys):
        write_demo_inputs(tmp_path)
        ts = tmp_path / "ts.csv"
        ts.write_text("\nts,contract_id,delivered_cum,linear_goal\n"
                      "2026-03-02T12:00:00,males,1.0,1.0\n")
        rc = run(["metrics", "--timeseries", ts,
                  "--contracts", tmp_path / "contracts.jsonl"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {ts}:2: bad row: unexpected timeseries header "
            "['ts', 'contract_id', 'delivered_cum', 'linear_goal']\n")

    @pytest.mark.parametrize("row, message", [
        ("2026-03-03T00:00:00,ghost,1.0,1.0", "unknown contract 'ghost'"),
        ("2026-03-03T00:00:00,males,abc,1.0", "could not convert string to float"),
        ("2026-03-03T00:00:00,males,1.0,", "could not convert string to float"),
        ("Monday,males,1.0,1.0", "Invalid isoformat string"),
        ("2026-03-03T00:00:00,males,nan,1.0", "must be finite"),
        ("2026-03-03T00:00:00,males,1.0,-inf", "must be finite"),
        ("2026-03-03T00:00:00,males,1.0", "expected 4, got 3"),
        ("2026-03-03T00:00:00,males,1.0,1.0,1.0", "expected 4"),
    ])
    def test_metrics_bad_row_fails_with_path_and_line(self, tmp_path, capsys, row,
                                                      message):
        write_demo_inputs(tmp_path)
        ts = tmp_path / "ts.csv"
        ts.write_text("cycle_end_ts,contract_id,delivered_cum,linear_goal\n"
                      f"2026-03-02T12:00:00,males,1.0,1.0\n{row}\n")
        rc = run(["metrics", "--timeseries", ts,
                  "--contracts", tmp_path / "contracts.jsonl"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ts}:3: bad row: ")
        assert message in err


def copy_scenario(scen, dest):
    dest.mkdir()
    for f in ("supply.jsonl", "contracts.jsonl", "impressions.jsonl"):
        (dest / f).write_bytes((scen / f).read_bytes())
    return dest


class TestBadConfig:
    @pytest.fixture(scope="class")
    def scen(self, tmp_path_factory):
        scen = tmp_path_factory.mktemp("scen")
        assert run(["scenario", "--out-dir", scen, "--contracts", 3,
                    "--attributes", 2, "--days", 1, "--daily-traffic", 200,
                    "--seed", 5]) == 0
        return scen

    @pytest.mark.parametrize("cfg, field", [
        ({"shards": "2"}, "shards"),
        ({"reopt_period_hours": "24"}, "reopt_period_hours"),
        ({"seed": "x", "mode": "sampled"}, "seed"),
        ({"seed": 1.5, "mode": "sampled"}, "seed"),
        ({"feedback": {"delta_hours": "4"}}, "delta_hours"),
        ([1], "config"),
        ({"feedback": 3}, "feedback"),
        ({"forecast_error_per_node": {"n1": "2"}}, "forecast_error_per_node:"),
        ({"sim_start": 5}, "sim_start"),
        ({"baseline_comparator": "false"}, "baseline_comparator"),
        # Values that test false are values too: only absent or null is unset.
        ({"feedback": []}, "feedback"),
        ({"feedback": 0}, "feedback"),
        ({"feedback": ""}, "feedback"),
        ({"feedback": False}, "feedback"),
        ({"sim_start": 0}, "sim_start"),
        ({"sim_start": ""}, "sim_start"),
        ({"sim_end": 0}, "sim_end"),
        ({"sim_end": ""}, "sim_end"),
        ({"sim_end": "tomorrow"}, "sim_end"),
        # ISO-8601, but outside datetime's years once in UTC.
        ({"sim_start": "0001-01-01T00:00:00+01:00"}, "sim_start"),
        ({"sim_end": "9999-12-31T23:59:59-01:00"}, "sim_end"),
        # An unknown field, at the top or inside feedback, is an error.
        ({"algoritm": "dual", "reopt_period_hour": 2, "mode": "expected"}, "algoritm"),
        ({"reopt_period_hour": 2}, "reopt_period_hour"),
        ({"feedback": {"boost": 2}}, "boost"),
        ({"feedback": {"delta_hours": 4, "boost_behind ": 2}}, "boost_behind "),
    ])
    def test_bad_field_names_file_and_field(self, scen, tmp_path, capsys, cfg, field):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        rc = run(["simulate", "--config", path, "--scenario", scen,
                  "--out-dir", tmp_path / "out"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {field} ")

    def test_every_field_is_known(self, scen, tmp_path):
        # The unknown-field check rejects no field that the reader reads.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "algorithm": "hwm", "reopt_period_hours": 6,
            "forecast_error_multiplier": 1.0, "forecast_error_per_node": {},
            "seed": 1, "mode": "expected", "shards": 1,
            "sim_start": None, "sim_end": None,
            "feedback": {"delta_hours": 4, "boost_behind": 1.5, "damp_ahead": 10,
                         "release_within_cycles": 2}}))
        assert run(["simulate", "--config", path, "--scenario", scen,
                    "--out-dir", tmp_path / "out"]) == 0
        assert (tmp_path / "out" / "report.json").exists()

    def test_unknown_field_lists_the_fields(self, scen, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"feedback": {}, "baseline_comparator": True}))
        rc = run(["simulate", "--config", path, "--scenario", scen,
                  "--out-dir", tmp_path / "out", "--baseline"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {path}: baseline_comparator is not a config field; the fields "
            "are algorithm, feedback, reopt_period_hours, forecast_error_multiplier, "
            "forecast_error_per_node, seed, mode, shards, sim_start, sim_end\n")
        assert not (tmp_path / "out").exists()
        path.write_text(json.dumps({"feedback": {"boost": 2}}))
        assert run(["simulate", "--config", path, "--scenario", scen,
                    "--out-dir", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: boost is not a feedback field; the fields are "
            "delta_hours, boost_behind, damp_ahead, release_within_cycles\n")

    def test_empty_feedback_object_is_feedback_with_defaults(self, tmp_path):
        # 2x forecast and 6 h re-plans: feedback changes the delivery.
        scen = tmp_path / "scen"
        assert run(["scenario", "--out-dir", scen, "--contracts", 6, "--days", 3,
                    "--daily-traffic", 2000, "--seed", 2]) == 0
        defaults = {"delta_hours": 4, "boost_behind": 1.5, "damp_ahead": 10,
                    "release_within_cycles": 2}
        reports = {}
        for name, feedback in (("empty", {}), ("defaults", defaults), ("off", None)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"reopt_period_hours": 6,
                                        "forecast_error_multiplier": 2.0,
                                        "feedback": feedback}))
            out = tmp_path / name
            assert run(["simulate", "--config", path, "--scenario", scen,
                        "--out-dir", out]) == 0
            reports[name] = (out / "report.json").read_text()
        assert reports["empty"] == reports["defaults"] != reports["off"]

    @pytest.mark.parametrize("hours, message", [
        (1e308, "reopt_period_hours 1e+308 is longer than the longest timedelta"),
        (10 ** 400, "reopt_period_hours must be a finite number, got an integer "
                    "of 401 digits"),
    ])
    def test_unusable_period_fails_before_the_engine(self, scen, tmp_path, capsys,
                                                     hours, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"reopt_period_hours": hours}))
        rc = run(["simulate", "--config", path, "--scenario", scen,
                  "--out-dir", tmp_path / "out"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("cfg, message", [
        ({"forecast_error_multiplier": 0}, "forecast error multiplier must be positive"),
        ({"forecast_error_per_node": {"n0000": 0}},
         "node n0000: error multiplier must be positive"),
        ({"forecast_error_per_node": [1]},
         "forecast_error_per_node must be a JSON object, got [1]"),
        ({"algorithm": "lp"}, "unknown algorithm 'lp'"),
        ({"mode": "exact"}, "unknown mode 'exact'"),
        ({"shards": 0}, "shards must be at least 1"),
    ])
    def test_bad_value_fails_with_message(self, scen, tmp_path, capsys, cfg, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        rc = run(["simulate", "--config", path, "--scenario", scen,
                  "--out-dir", tmp_path / "out"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cfg, no_contracts, message", [
        ({"sim_start": "2026-03-02T06:00:00", "sim_end": "2026-03-02T06:00:00"},
         False, "simulation window is empty"),
        ({}, True, "no contracts to simulate"),
    ])
    def test_nothing_to_simulate_fails(self, scen, tmp_path, capsys, cfg, no_contracts,
                                       message):
        copy = copy_scenario(scen, tmp_path / "scen")
        if no_contracts:
            (copy / "contracts.jsonl").write_text("")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        rc = run(["simulate", "--config", path, "--scenario", copy,
                  "--out-dir", tmp_path / "out"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out" / "report.json").exists()

    def test_period_under_half_a_microsecond_rejected_on_load(self, tmp_path):
        # Its timedelta is zero, so the cycle loop would never end: this
        # must fail in the config, before any engine runs.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"reopt_period_hours": 1e-10}))
        with pytest.raises(sim.SimulationError, match=(
                f"^{path}: reopt_period_hours 1e-10 is under half a microsecond$")):
            sim.load_config(path)

    def test_undecodable_config_names_file(self, scen, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"algorithm": "hwm", "seed": 1\xff}')
        rc = run(["simulate", "--config", path, "--scenario", scen,
                  "--out-dir", tmp_path / "out"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 30")

    @pytest.mark.parametrize("name, message", [
        ("contracts.jsonl", "duplicate contract ids: c000"),
        ("supply.jsonl", "duplicate supply node ids: n0000"),
    ])
    def test_duplicate_ids_rejected(self, scen, tmp_path, capsys, name, message):
        # The first record of one input file appended a second time.
        copy = copy_scenario(scen, tmp_path / "scen")
        with open(copy / name, "a", encoding="utf-8") as fh:
            fh.write((scen / name).read_text().splitlines()[0] + "\n")
        path = tmp_path / "config.json"
        path.write_text("{}")
        rc = run(["simulate", "--config", path, "--scenario", copy,
                  "--out-dir", tmp_path / "out"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "plan"])
    def test_booked_below_demand_rejected(self, scen, tmp_path, capsys, command):
        copy = copy_scenario(scen, tmp_path / "scen")
        lines = (scen / "contracts.jsonl").read_text().splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), "booked": -5})
        (copy / "contracts.jsonl").write_text("\n".join(lines) + "\n")
        if command == "simulate":
            (tmp_path / "config.json").write_text("{}")
            argv = ["simulate", "--config", tmp_path / "config.json",
                    "--scenario", copy, "--out-dir", tmp_path / "out"]
        else:
            argv = ["plan", "--supply", copy / "supply.jsonl",
                    "--contracts", copy / "contracts.jsonl",
                    "--out", tmp_path / "plan.jsonl"]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {copy / 'contracts.jsonl'}:1: bad contract record: ")
        assert "booked -5 is below demand" in err

    def test_command_line_overrides_keep_checks(self, scen, tmp_path, capsys):
        # --mode sampled on a two-shard config must fail as the same
        # settings in the file do.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"shards": 2}))
        rc = run(["simulate", "--config", path, "--scenario", scen,
                  "--out-dir", tmp_path / "out", "--mode", "sampled"])
        assert rc == 1
        assert "sampled mode runs a single worker" in capsys.readouterr().err


class TestFlightMix:
    @pytest.mark.parametrize("mix, message", [
        ("day=1,weird=2", "unknown flight class 'weird'"),
        ("day", "--flight-mix item 'day' is not class=weight"),
        ("day=0.5,week", "--flight-mix item 'week' is not class=weight"),
        ("day=x", "--flight-mix item 'day=x' is not class=weight"),
        ("day=0, day=1", "--flight-mix lists class 'day' twice"),
    ])
    def test_bad_mix_fails(self, tmp_path, capsys, mix, message):
        rc = run(["scenario", "--out-dir", tmp_path / "scen", "--contracts", 2,
                  "--days", 1, "--daily-traffic", 100, "--flight-mix", mix])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "scen").exists()

    @pytest.mark.parametrize("mix", ["week=1e308,day=1e308", "day=inf", "day=nan,week=1"])
    def test_weights_or_total_not_finite_fail(self, tmp_path, capsys, mix):
        # Two finite weights whose sum overflows used to fail inside
        # random.choices, with a message that names no flag.
        rc = run(["scenario", "--out-dir", tmp_path / "scen", "--contracts", 2,
                  "--days", 1, "--daily-traffic", 100, "--flight-mix", mix])
        assert rc == 1
        assert capsys.readouterr().err == ("error: flight mix weights must be finite, "
                                           "non-negative and not all zero\n")
        assert not (tmp_path / "scen").exists()


class TestScenarioDimensions:
    @pytest.mark.parametrize("traffic", [-50, 0])
    def test_non_positive_daily_traffic_fails(self, tmp_path, capsys, traffic):
        rc = run(["scenario", "--out-dir", tmp_path / "scen", "--contracts", 2,
                  "--days", 1, "--daily-traffic", traffic])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: scenario dimensions must be positive\n"
        assert not (tmp_path / "scen").exists()

    def test_too_many_attributes_fails(self, tmp_path, capsys):
        rc = run(["scenario", "--out-dir", tmp_path / "scen", "--contracts", 2,
                  "--days", 1, "--daily-traffic", 100, "--attributes", 7])
        assert rc == 1
        assert capsys.readouterr().err == "error: at most 6 attribute dimensions\n"
        assert not (tmp_path / "scen").exists()

    @pytest.mark.parametrize("flag", ["--contracts", "--attributes", "--days"])
    def test_non_positive_dimension_fails(self, tmp_path, capsys, flag):
        # The check that daily_traffic joined still rejects each other zero.
        dims = {"--contracts": 2, "--attributes": 2, "--days": 1,
                "--daily-traffic": 100, flag: 0}
        rc = run(["scenario", "--out-dir", tmp_path / "scen",
                  *[str(x) for item in dims.items() for x in item]])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: scenario dimensions must be positive\n"
        assert not (tmp_path / "scen").exists()
