import json
from collections import Counter
from datetime import timedelta

import pytest

from gdserve import cli, kernels, model, simulate as sim, targeting as tg
from gdserve.scenario import demo_graph
from conftest import FLIGHT_START


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

    def test_consistent_edge_override_accepted(self, tmp_path):
        g = write_demo_inputs(tmp_path)
        with open(tmp_path / "edges.jsonl", "w") as fh:
            for sid, cid in g.edges:
                fh.write(json.dumps({"supply_id": sid, "contract_id": cid}) + "\n")
        rc = run(["plan", "--supply", tmp_path / "supply.jsonl",
                  "--contracts", tmp_path / "contracts.jsonl",
                  "--edges", tmp_path / "edges.jsonl",
                  "--out", tmp_path / "plan.jsonl"])
        assert rc == 0

    def test_inconsistent_edge_override_rejected(self, tmp_path, capsys):
        write_demo_inputs(tmp_path)
        (tmp_path / "edges.jsonl").write_text(
            json.dumps({"supply_id": "nv_unknown", "contract_id": "males"}) + "\n")
        rc = run(["plan", "--supply", tmp_path / "supply.jsonl",
                  "--contracts", tmp_path / "contracts.jsonl",
                  "--edges", tmp_path / "edges.jsonl",
                  "--out", tmp_path / "plan.jsonl"])
        assert rc == 1
        assert "inconsistent" in capsys.readouterr().err


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

    def test_seed_from_environment(self, tmp_path, monkeypatch):
        self.make_plan(tmp_path)
        write_impressions(tmp_path / "impressions.jsonl",
                          [{"gender": "male", "age_bucket": "5"}] * 200)
        monkeypatch.setenv("GD_SEED", "7")
        run(["serve", "--plan", tmp_path / "plan.jsonl",
             "--contracts", tmp_path / "contracts.jsonl",
             "--impressions", tmp_path / "impressions.jsonl",
             "--out", tmp_path / "env.jsonl"])
        monkeypatch.delenv("GD_SEED")
        run(["serve", "--plan", tmp_path / "plan.jsonl",
             "--contracts", tmp_path / "contracts.jsonl",
             "--impressions", tmp_path / "impressions.jsonl",
             "--out", tmp_path / "flag.jsonl", "--seed", 7])
        assert (tmp_path / "env.jsonl").read_bytes() == \
            (tmp_path / "flag.jsonl").read_bytes()

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


class TestDecisionLines:
    """Each `gdserve serve` line is the bytes json.dumps writes for the
    decision dict of one draw (`kernels.draw_index`) from the plan's slice
    for the impression's eligible, planned, in-flight contracts."""

    EVENTS = [("plain", {"state": "CA", "age_bucket": "5"}),
              ('quote " back \\ snow \u2603 e\u0301 \u00e9', {"gender": "male"}),
              ("nothing eligible", {"state": "TX"}),
              ("\u00fcber", {"gender": "male", "age_bucket": "5"})]

    def reference(self, tmp_path, plan_path, seed):
        contracts = model.load_contracts(tmp_path / "contracts.jsonl")
        plan = cli._load_plan(plan_path)
        lines = []
        for n, ev in enumerate(sim.load_impressions(tmp_path / "impressions.jsonl")):
            cands = [c.id for c in contracts if c.id in plan and c.in_flight(ev.ts)
                     and tg.eligible(ev.attributes, c.targeting)]
            u = sim.impression_uniform(seed, n)
            probs = plan.effective_probs(cands)
            sel = kernels.draw_index([p for _, p in probs], u)
            lines.append(json.dumps({
                "impression_id": ev.id, "chosen": probs[sel][0] if sel >= 0 else None,
                "probs": [[cid, p] for cid, p in probs], "u": u}) + "\n")
        return "".join(lines)

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
        assert got == self.reference(tmp_path, plan_path, 4)
        decisions = [json.loads(line) for line in got.splitlines()]
        assert {d["impression_id"] for d in decisions} == {e[0] for e in self.EVENTS}
        assert any(d["probs"] == [] and d["chosen"] is None for d in decisions)
        assert any(d["chosen"] is not None for d in decisions)


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
        ("eligible_supply", "400"), ("eligible_supply", -1)])
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

    def test_metrics_on_empty_timeseries(self, tmp_path, capsys):
        write_demo_inputs(tmp_path)
        ts = tmp_path / "ts.csv"
        ts.write_text("cycle_end_ts,contract_id,delivered_cum,linear_goal\n")
        rc = run(["metrics", "--timeseries", ts,
                  "--contracts", tmp_path / "contracts.jsonl"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {ts}: no rows\n"


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
    ])
    def test_bad_field_names_file_and_field(self, scen, tmp_path, capsys, cfg, field):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        rc = run(["simulate", "--config", path, "--scenario", scen,
                  "--out-dir", tmp_path / "out"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {field} ")

    @pytest.mark.parametrize("name, message", [
        ("contracts.jsonl", "duplicate contract ids: c000"),
        ("supply.jsonl", "duplicate supply node ids: n0000"),
    ])
    def test_duplicate_ids_rejected(self, scen, tmp_path, capsys, name, message):
        # The first record of one input file appended a second time.
        copy = tmp_path / "scen"
        copy.mkdir()
        for f in ("supply.jsonl", "contracts.jsonl", "impressions.jsonl"):
            (copy / f).write_bytes((scen / f).read_bytes())
        with open(copy / name, "a", encoding="utf-8") as fh:
            fh.write((scen / name).read_text().splitlines()[0] + "\n")
        path = tmp_path / "config.json"
        path.write_text("{}")
        rc = run(["simulate", "--config", path, "--scenario", copy,
                  "--out-dir", tmp_path / "out"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out" / "report.json").exists()

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
