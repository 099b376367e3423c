import dataclasses
import json
import re

import pytest

from gdserve import cli, dual, hwm, model, simulate
from gdserve.scenario import demo_graph
from conftest import make_contract


def two_node_graph():
    nodes = [model.SupplyNode("a", {"state": "CA"}, 100),
             model.SupplyNode("b", {"state": "WA"}, 50)]
    contracts = [make_contract("c1", "state = CA", 50)]
    return model.build_graph(nodes, contracts)


class TestAllocationGraph:
    def test_duplicate_ids(self):
        nodes = [model.SupplyNode("a", {"x": "1"}, 1),
                 model.SupplyNode("a", {"x": "2"}, 1)]
        with pytest.raises(model.GraphDataError, match="duplicate supply node ids: a"):
            model.AllocationGraph(nodes, [], [])
        contracts = [make_contract("c1", "x = 1", 5), make_contract("c2", "x = 2", 5),
                     make_contract("c1", "x = 2", 5)]
        with pytest.raises(model.GraphDataError, match="duplicate contract ids: c1$"):
            model.AllocationGraph(nodes[:1], contracts, [])

    def test_edge_naming_no_node_or_contract(self):
        # Planning and serving read the edges through separate structures,
        # so an edge they could read differently fails where it is built.
        g = demo_graph()
        with pytest.raises(model.GraphDataError,
                           match=r"^edge \('ca_male', 'ghost'\) names no contract"):
            model.AllocationGraph(g.supply_nodes, g.contracts,
                                  g.edges + [("ca_male", "ghost")])
        with pytest.raises(model.GraphDataError,
                           match=r"^edge \('ghost', 'age5'\) names no supply node"):
            model.AllocationGraph(g.supply_nodes, g.contracts,
                                  [("ghost", "age5")] + g.edges)

    def test_edge_listed_twice(self):
        # A repeated edge would count its node's supply twice in a
        # contract's eligible supply (700 in place of 640 for age5).
        g = demo_graph()
        with pytest.raises(model.GraphDataError,
                           match=r"^edge \('ca_male', 'age5'\) is listed twice$"):
            model.AllocationGraph(g.supply_nodes, g.contracts,
                                  g.edges + [("ca_male", "age5")])

    def test_holds_only_its_data(self):
        assert ([f.name for f in dataclasses.fields(model.AllocationGraph)]
                == ["supply_nodes", "contracts", "edges"])


class TestFeasibility:
    def test_half_allocation_feasible(self):
        nodes = [model.SupplyNode("a", {"x": "1"}, 100)]
        contracts = [make_contract("c1", "x = 1", 50)]
        g = model.build_graph(nodes, contracts)
        alloc = {("a", "c1"): 0.5}
        report = model.check_feasibility(g, alloc)
        assert report.feasible
        assert report.demand_slack["c1"] == pytest.approx(0.0)
        assert report.supply_excess["a"] == pytest.approx(-0.5)

    def test_zero_allocation_infeasible(self):
        g = two_node_graph()
        report = model.check_feasibility(g, {})
        assert not report.feasible
        assert report.demand_slack["c1"] == -50

    def test_plan_induced_allocation_feasible(self, three_contract_graph):
        plan = hwm.generate_hwm_plan(three_contract_graph)
        alloc, _ = model.forecast_allocation(three_contract_graph, plan)
        report = model.check_feasibility(three_contract_graph, alloc)
        assert report.feasible
        for slack in report.demand_slack.values():
            assert slack == pytest.approx(0.0, abs=1e-9)

    def test_unknown_edge_rejected(self):
        g = two_node_graph()
        alloc = {("b", "c1"): 0.1}
        with pytest.raises(model.GraphDataError, match="'b'.*'c1'"):
            model.check_feasibility(g, alloc)

    def test_negative_entry_reported(self):
        g = two_node_graph()
        alloc = {("a", "c1"): -0.2}
        report = model.check_feasibility(g, alloc)
        assert report.negative_entries == [("a", "c1")]
        assert not report.feasible


# One good record for each reader of a JSON-lines file.
READERS = [
    ("supply", '{"id": "n1", "attributes": {"x": "1"}, "supply": 5}',
     model.load_supply),
    ("contracts", '{"id": "c1", "targeting": "x = 1", "demand": 5, '
     '"start": "2026-03-02T00:00:00", "end": "2026-03-09T00:00:00"}',
     model.load_contracts),
    ("impressions", '{"id": "i1", "ts": "2026-03-02T00:00:00", '
     '"attributes": {"x": "1"}}', simulate.load_impressions),
    ("hwm_plan", '{"contract_id": "c1", "eligible_supply": 5, "alpha": 0.5}',
     hwm.load_hwm_plan),
    ("dual_plan", '{"contract_id": "c1", "theta": 0.5, "alpha": 0.0, '
     '"penalty": 10.0}', dual.load_dual_plan),
    ("plan", '{"contract_id": "c1", "theta": 0.5, "alpha": 0.0, '
     '"penalty": 10.0}', cli._load_plan),
]


class TestRoundTrip:
    def test_supply_and_contracts_round_trip(self, tmp_path, three_contract_graph):
        g = three_contract_graph
        model.save_supply(g.supply_nodes, tmp_path / "supply.jsonl")
        model.save_contracts(g.contracts, tmp_path / "contracts.jsonl")
        nodes = model.load_supply(tmp_path / "supply.jsonl")
        contracts = model.load_contracts(tmp_path / "contracts.jsonl")
        rebuilt = model.build_graph(nodes, contracts)
        assert [n.id for n in rebuilt.supply_nodes] == [n.id for n in g.supply_nodes]
        assert all(a.forecast_supply == b.forecast_supply
                   and a.attributes == b.attributes
                   for a, b in zip(rebuilt.supply_nodes, g.supply_nodes))
        assert all(a.targeting == b.targeting and a.demand == b.demand
                   and a.start == b.start and a.end == b.end
                   and a.booked_demand == b.booked_demand
                   and a.penalty == b.penalty
                   for a, b in zip(rebuilt.contracts, g.contracts))
        assert rebuilt.edges == g.edges

    def test_penalty_and_booked_round_trip(self, tmp_path):
        c = make_contract("c1", "x = 1", 5, penalty=7.5, booked_demand=9)
        model.save_contracts([c], tmp_path / "contracts.jsonl")
        loaded = model.load_contracts(tmp_path / "contracts.jsonl")[0]
        assert loaded.penalty == 7.5
        assert loaded.booked_demand == 9

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "contracts.jsonl"
        path.write_text('{"id": "c1", "targeting": "x = 1", "demand": 5, '
                        '"start": "2026-03-02T00:00:00", "end": "2026-03-09T00:00:00"}\n'
                        '{"id": "c2"}\n')
        with pytest.raises(model.GraphDataError, match=":2"):
            model.load_contracts(path)

    @pytest.mark.parametrize("value", ["true", "NaN", "Infinity", '"5"'])
    def test_bad_supply_number_reports_line(self, tmp_path, value):
        path = tmp_path / "supply.jsonl"
        path.write_text('{"id": "n1", "attributes": {"x": "1"}, "supply": 5}\n'
                        f'{{"id": "n2", "attributes": {{}}, "supply": {value}}}\n')
        with pytest.raises(model.GraphDataError, match=f"{path}:2: bad supply record"):
            model.load_supply(path)

    @pytest.mark.parametrize("key, value", [
        ("demand", "NaN"), ("demand", "true"), ("demand", "Infinity"),
        ("booked", "NaN"), ("booked", "true"),
        ("penalty", "Infinity"), ("penalty", "NaN"), ("penalty", "false")])
    def test_bad_contract_number_reports_line(self, tmp_path, key, value):
        fields = {"id": '"c1"', "targeting": '"x = 1"', "demand": "5",
                  "start": '"2026-03-02T00:00:00"', "end": '"2026-03-09T00:00:00"',
                  key: value}
        path = tmp_path / "contracts.jsonl"
        path.write_text("\n" + "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items())
                        + "}\n")
        with pytest.raises(model.GraphDataError, match=f"{path}:2: bad contract record"):
            model.load_contracts(path)

    @pytest.mark.parametrize("attrs", ['{"age_bucket": 5}', '[[1, "x"]]',
                                       '[["age_bucket", "5"]]', "null", '"x"',
                                       '{"state": null}', '{"state": ["CA"]}'])
    def test_bad_attributes_report_line(self, tmp_path, attrs):
        path = tmp_path / "supply.jsonl"
        path.write_text('{"id": "n1", "attributes": {"x": "1"}, "supply": 5}\n'
                        f'{{"id": "n2", "attributes": {attrs}, "supply": 5}}\n')
        with pytest.raises(model.GraphDataError, match=f"{path}:2: bad supply record"):
            model.load_supply(path)
        path = tmp_path / "impressions.jsonl"
        path.write_text('{"id": "i1", "ts": "2026-03-02T00:00:00", "attributes": {}}\n'
                        f'{{"id": "i2", "ts": "2026-03-02T00:00:00", "attributes": {attrs}}}\n')
        with pytest.raises(model.GraphDataError, match=f"{path}:2: bad impression"):
            simulate.load_impressions(path)

    @pytest.mark.parametrize("name, record, read", READERS)
    def test_deep_nesting_reports_line(self, tmp_path, name, record, read):
        # The JSON decoder raises RecursionError on a value nested this deep.
        path = tmp_path / f"{name}.jsonl"
        deep = "[" * 100_000 + "]" * 100_000
        path.write_text(f'{record}\n{record[:-1]}, "deep": {deep}}}\n', encoding="utf-8")
        with pytest.raises(model.GraphDataError, match=f"^{path}:2: bad "):
            read(path)

    def test_deeply_nested_attribute_reports_line(self, tmp_path):
        path = tmp_path / "impressions.jsonl"
        path.write_text('{"id": "i1", "ts": "2026-03-02T00:00:00", "attributes": {"x": "1"}}\n'
                        '{"id": "i2", "ts": "2026-03-02T00:00:01", "attributes": {"x": '
                        + "[" * 100_000 + "]" * 100_000 + "}}\n")
        with pytest.raises(model.GraphDataError,
                           match=f"^{path}:2: bad impression: maximum recursion depth"):
            simulate.load_impressions(path)

    @pytest.mark.parametrize("tail", ["\u00a0", "\x0c"])
    @pytest.mark.parametrize("name, record, read", READERS)
    def test_only_json_whitespace_is_stripped(self, tmp_path, name, record,
                                              read, tail):
        # json.loads rejects U+00A0 and U+000C around a value, and so must
        # every reader, on a record line and on an otherwise blank line.
        path = tmp_path / f"{name}.jsonl"
        with pytest.raises(ValueError, match="Extra data"):
            json.loads(record + tail)
        path.write_text(f"\n{record}{tail}\n", encoding="utf-8")
        with pytest.raises(model.GraphDataError, match=f"{path}:2: "):
            read(path)
        path.write_text(f" \t\r\n{tail}\n{record}\n", encoding="utf-8")
        with pytest.raises(model.GraphDataError, match=f"{path}:2: "):
            read(path)
        path.write_text(f" \t\r\n{record} \t\r\n", encoding="utf-8")
        loaded = read(path)
        assert len(getattr(loaded, "entries", loaded)) == 1

    @pytest.mark.parametrize("name, record, read", READERS)
    def test_undecodable_line_reports_line(self, tmp_path, name, record, read):
        # A byte that is not UTF-8 fails with its line, even when the text
        # reader decodes it in the same chunk as the lines before it, and a
        # bad record before it fails first.
        path = tmp_path / f"{name}.jsonl"
        good, bad = record.encode("utf-8"), b"{\xff" + record.encode("utf-8")[1:]
        path.write_bytes(good + b"\n" + b" \n" * 300 + bad + b"\n" + good + b"\n")
        with pytest.raises(model.GraphDataError,
                           match=f"{path}:302: bad .*: 'utf-8' codec can't decode "
                                 "byte 0xff in position 1"):
            read(path)
        path.write_bytes(good + b"\n{}\n" + bad + b"\n")
        with pytest.raises(model.GraphDataError, match=f"{path}:2: bad "):
            read(path)

    def test_missing_attributes_are_empty(self, tmp_path):
        path = tmp_path / "supply.jsonl"
        path.write_text('{"id": "n1", "supply": 5}\n')
        assert model.load_supply(path)[0].attributes == {}

    def test_loaded_counts_keep_their_json_type(self, tmp_path):
        path = tmp_path / "contracts.jsonl"
        path.write_text('{"id": "c1", "targeting": "x = 1", "demand": 5, "booked": 7.5, '
                        '"start": "2026-03-02T00:00:00", "end": "2026-03-09T00:00:00"}\n')
        c = model.load_contracts(path)[0]
        assert type(c.demand) is int and type(c.booked_demand) is float
        assert c.penalty == 10.0

    def test_booked_zero_is_below_demand(self, tmp_path):
        # 0 is a booked total like any other, not "booked not given".
        path = tmp_path / "contracts.jsonl"
        path.write_text('{"id": "c1", "targeting": "x = 1", "demand": 5, "booked": 0, '
                        '"start": "2026-03-02T00:00:00", "end": "2026-03-09T00:00:00"}\n')
        with pytest.raises(model.GraphDataError,
                           match=f"{path}:1: bad contract record: booked 0 is below demand 5"):
            model.load_contracts(path)
        with pytest.raises(model.GraphDataError,
                           match="^contract c1: booked 0 must be positive$"):
            make_contract("c1", "x = 1", 5, booked_demand=0)
        assert make_contract("c1", "x = 1", 5).booked_demand == 5

    @pytest.mark.parametrize("name, record, message", [
        ("supply", {"id": "n0000", "attributes": {}, "supply": -5},
         "supply node n0000: negative supply"),
        ("contract", {"penalty": 0}, "contract c000: penalty must be positive"),
        ("contract", {"targeting": "gender male"},
         "targeting: got 'male' at offset 7 (expected one of: =, IN)"),
    ])
    def test_bad_value_reports_line_and_message(self, tmp_path, name, record, message):
        path = tmp_path / f"{name}.jsonl"
        if name == "contract":
            record = {"id": "c000", "targeting": "x = 1", "demand": 5,
                      "start": "2026-03-02T00:00:00", "end": "2026-03-09T00:00:00",
                      **record}
        path.write_text(json.dumps(record) + "\n")
        load = model.load_supply if name == "supply" else model.load_contracts
        with pytest.raises(model.GraphDataError) as err:
            load(path)
        assert str(err.value) == f"{path}:1: bad {name} record: {message}"

    def test_bad_targeting_reports_line_and_offset(self, tmp_path):
        path = tmp_path / "contracts.jsonl"
        path.write_text('{"id": "c1", "targeting": "x = 1", "demand": 5, '
                        '"start": "2026-03-02T00:00:00", "end": "2026-03-09T00:00:00"}\n'
                        '{"id": "c2", "targeting": "x = 1 AND", "demand": 5, '
                        '"start": "2026-03-02T00:00:00", "end": "2026-03-09T00:00:00"}\n')
        with pytest.raises(model.GraphDataError,
                           match=f"{path}:2: bad contract record: targeting: "
                                 ".* at offset 9"):
            model.load_contracts(path)

    @pytest.mark.parametrize("targeting, reason", [
        ("(" * 400 + "TRUE" + ")" * 400, "targeting: '\\(' nests deeper than 100 levels "
                                         "at offset 100"),
        ("NOT " * 5000 + "TRUE", "targeting: 'NOT' nests deeper than 100 levels at offset 400"),
        (5, "targeting must be a string, got 5"),
    ])
    def test_unparseable_targeting_reports_line(self, tmp_path, targeting, reason):
        path = tmp_path / "contracts.jsonl"
        path.write_text("".join(json.dumps({
            "id": cid, "targeting": text, "demand": 5, "start": "2026-03-02T00:00:00",
            "end": "2026-03-09T00:00:00"}) + "\n" for cid, text in
            [("c1", "x = 1"), ("c2", targeting)]))
        with pytest.raises(model.GraphDataError,
                           match=f"^{path}:2: bad contract record: {reason}$"):
            model.load_contracts(path)

    def test_zulu_timestamps_accepted(self):
        ts = model.parse_ts("2026-03-02T00:00:00Z")
        assert ts.year == 2026
        assert ts.tzinfo is None

    def test_offset_timestamps_normalized_to_utc(self):
        ts = model.parse_ts("2026-03-02T05:00:00+05:00")
        assert ts == model.parse_ts("2026-03-02T00:00:00Z")

    @pytest.mark.parametrize("text", ["0001-01-01T00:00:00+01:00",
                                      "9999-12-31T23:59:59-01:00"])
    def test_offset_timestamp_out_of_range_in_utc_rejected(self, text):
        with pytest.raises(ValueError, match=re.escape(f"timestamp '{text}' is out of range")):
            model.parse_ts(text)

    def test_contract_start_out_of_range_fails_with_path_and_line(self, tmp_path):
        path = tmp_path / "contracts.jsonl"
        path.write_text('{"id": "c1", "targeting": "x = 1", "demand": 5, '
                        '"start": "0001-01-01T00:00:00+01:00", "end": "2026-03-09T00:00:00"}\n')
        with pytest.raises(model.GraphDataError,
                           match=f"{path}:1: bad contract record: timestamp "):
            model.load_contracts(path)


class TestContractInvariants:
    def test_demand_positive(self):
        with pytest.raises(model.GraphDataError, match="demand"):
            make_contract("c1", "x = 1", 0)

    @pytest.mark.parametrize("booked", [0, -3])
    def test_booked_positive(self, booked):
        # A booked total is the divisor of the smoothness metric.
        with pytest.raises(model.GraphDataError,
                           match=f"^contract c1: booked {booked} must be positive$"):
            make_contract("c1", "x = 1", 5, booked_demand=booked)
        # Feedback may report a demand above the booked total.
        assert make_contract("c1", "x = 1", 9, booked_demand=5).booked_demand == 5

    @pytest.mark.parametrize("value, shown", [
        (float("inf"), "inf"), (float("nan"), "nan"), (-float("inf"), "-inf"),
        (10 ** 400, "an integer of 401 digits"),
        # Past the 4,300 digits that `str` converts; its digits are counted
        # from its bits.
        (10 ** 4300 - 1, "an integer of 4300 digits"), (-10 ** 4300, "an integer of 4301 digits"),
        (10 ** 5000, "an integer of 5001 digits"), (2 ** 20000, "an integer of 6021 digits")],
        ids=["inf", "nan", "-inf", "10**400", "10**4300-1", "-10**4300", "10**5000", "2**20000"])
    def test_numbers_are_finite(self, value, shown):
        # The library builds no node or contract that its loaders reject.
        message = f"must be a finite number, got {shown}$"
        with pytest.raises(model.GraphDataError, match=f"^supply node n: supply {message}"):
            model.SupplyNode("n", {}, value)
        for field, kw in [("demand", {}), ("booked", {"booked_demand": value}),
                          ("penalty", {"penalty": value})]:
            with pytest.raises(model.GraphDataError, match=f"^contract c1: {field} {message}"):
                make_contract("c1", "x = 1", value if field == "demand" else 5, **kw)

    def test_flight_ordering(self):
        with pytest.raises(model.GraphDataError, match="start"):
            make_contract("c1", "x = 1", 10, days=-1)
