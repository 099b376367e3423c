import random
import re

import pytest

from gdserve import targeting as tg
from conftest import random_attrs, random_targeting


class TestParser:
    def test_single_equality(self):
        assert tg.parse_targeting("gender = male") == tg.Equals("gender", "male")

    def test_conjunction(self):
        expr = tg.parse_targeting("state = CA AND age_bucket = 5")
        assert expr == tg.And((tg.Equals("state", "CA"), tg.Equals("age_bucket", "5")))

    def test_membership_or_negation(self):
        expr = tg.parse_targeting("state IN {CA, NV} OR NOT gender = male")
        assert expr == tg.Or((tg.In("state", frozenset({"CA", "NV"})),
                              tg.Not(tg.Equals("gender", "male"))))

    def test_precedence_and_binds_tighter(self):
        expr = tg.parse_targeting("a = 1 OR b = 2 AND c = 3")
        assert expr == tg.Or((tg.Equals("a", "1"),
                              tg.And((tg.Equals("b", "2"), tg.Equals("c", "3")))))

    def test_parens_and_true(self):
        expr = tg.parse_targeting("(TRUE)")
        assert expr == tg.TrueExpr()
        expr = tg.parse_targeting("NOT (a = 1 OR b = 2)")
        assert isinstance(expr, tg.Not) and isinstance(expr.child, tg.Or)

    def test_whitespace_insensitive(self):
        a = tg.parse_targeting("state=CA AND age_bucket=5")
        b = tg.parse_targeting("  state =  CA   AND age_bucket = 5 ")
        assert a == b

    def test_syntax_error_offset_and_expected(self):
        with pytest.raises(tg.TargetingSyntaxError) as err:
            tg.parse_targeting("state = ")
        assert err.value.offset == 8
        assert "value" in err.value.expected

        with pytest.raises(tg.TargetingSyntaxError) as err:
            tg.parse_targeting("state ! CA")
        assert err.value.offset == 6

        with pytest.raises(tg.TargetingSyntaxError) as err:
            tg.parse_targeting("a = 1 b = 2")
        assert err.value.offset == 6
        assert "OR" in err.value.expected or "AND" in err.value.expected

    @pytest.mark.parametrize("text, offset", [
        ("(" * 400 + "TRUE" + ")" * 400, tg.MAX_NESTING),
        ("NOT " * 5000 + "TRUE", 4 * tg.MAX_NESTING),
        ("NOT (" * (tg.MAX_NESTING // 2) + "(a = 1" + ")" * (tg.MAX_NESTING // 2 + 1),
         5 * (tg.MAX_NESTING // 2)),
    ])
    def test_nesting_beyond_limit_fails_at_offset(self, text, offset):
        # It used to overflow Python's stack with a RecursionError.
        with pytest.raises(tg.TargetingSyntaxError, match="nests deeper than") as err:
            tg.parse_targeting(text)
        assert err.value.offset == offset

    def test_nesting_at_limit_parses(self):
        depth = tg.MAX_NESTING
        assert tg.parse_targeting("(" * depth + "TRUE" + ")" * depth) == tg.TrueExpr()
        expr = tg.parse_targeting("NOT " * depth + "a = 1")
        assert tg.unparse(expr) == "NOT " * depth + "a = 1"
        assert tg.parse_targeting(tg.unparse(expr)) == expr
        assert tg.eligible({"a": "1"}, expr) is (depth % 2 == 0)
        mixed = "(NOT " * (depth // 2) + "a = 1" + ")" * (depth // 2)
        assert tg.parse_targeting(mixed) == tg.parse_targeting("NOT " * (depth // 2) + "a = 1")

    @pytest.mark.parametrize("text", [5, None, ["TRUE"]])
    def test_non_string_rejected(self, text):
        with pytest.raises(TypeError,
                           match=re.escape(f"targeting must be a string, got {text!r}")):
            tg.parse_targeting(text)

    def test_unparse_reparse_identity(self):
        rng = random.Random(7)
        for _ in range(300):
            expr = random_targeting(rng)
            text = tg.unparse(expr)
            assert tg.parse_targeting(text) == expr


class TestEligibility:
    def test_basic_match(self):
        expr = tg.parse_targeting("gender = male")
        assert tg.eligible({"gender": "male", "age_bucket": "5"}, expr)

    def test_absent_attribute_fails_positive_predicate(self):
        expr = tg.parse_targeting("gender = male")
        assert not tg.eligible({"state": "CA", "age_bucket": "5"}, expr)

    def test_not_of_absent_attribute(self):
        expr = tg.parse_targeting("NOT gender = male")
        assert tg.eligible({"state": "CA", "age_bucket": "5"}, expr)

    def test_true_always_matches(self):
        rng = random.Random(3)
        for _ in range(50):
            assert tg.eligible(random_attrs(rng), tg.TrueExpr())

    def test_single_child_and_equals_child(self):
        rng = random.Random(4)
        for _ in range(100):
            expr = random_targeting(rng)
            attrs = random_attrs(rng)
            assert tg.eligible(attrs, tg.And((expr,))) == tg.eligible(attrs, expr)

    def test_de_morgan(self):
        rng = random.Random(5)
        for _ in range(300):
            x = random_targeting(rng, depth=2)
            y = random_targeting(rng, depth=2)
            attrs = random_attrs(rng)
            lhs = tg.eligible(attrs, tg.Not(tg.And((x, y))))
            rhs = tg.eligible(attrs, tg.Or((tg.Not(x), tg.Not(y))))
            assert lhs == rhs

    def test_matches_reference_evaluator(self):
        rng = random.Random(6)
        for _ in range(2000):
            expr = random_targeting(rng)
            if rng.random() < 0.2:
                expr = rng.choice([tg.And, tg.Or])((expr,))
            attrs = random_attrs(rng) if rng.random() < 0.9 else {}
            assert tg.eligible(attrs, expr) is _reference_eligible(attrs, expr)

    def test_rejects_what_is_not_an_expression(self):
        for expr in ("gender = male", None, tg.And((tg.TrueExpr(), 42)),
                     tg.Not(("gender", "male"))):
            with pytest.raises(TypeError, match="not a targeting expression"):
                tg.eligible({"gender": "male"}, expr)
            with pytest.raises(TypeError, match="not a targeting expression"):
                tg.AttributeIndex([{"gender": "male"}]).matches(expr)


class TestAttributeIndex:
    """`AttributeIndex.matches` is `eligible` for every map of a batch at once."""

    def test_bit_k_is_eligible_of_map_k(self):
        rng = random.Random(12)
        for _ in range(2000):
            expr = random_targeting(rng)
            roll = rng.random()
            if roll < 0.2:
                expr = rng.choice([tg.And, tg.Or])((expr,))
            elif roll < 0.22:
                expr = rng.choice([tg.And, tg.Or])(())
            # At least 130 maps, so a bitset spans several int digits; some
            # maps have no attributes at all.
            maps = [random_attrs(rng) if rng.random() < 0.95 else {}
                    for _ in range(rng.randint(130, 200))]
            got = tg.AttributeIndex(maps).matches(expr)
            want = [k for k, attrs in enumerate(maps) if tg.eligible(attrs, expr)]
            assert 0 <= got < 1 << len(maps)
            assert tg.members(got) == want

    def test_empty_batch_matches_nothing(self):
        rng = random.Random(13)
        index = tg.AttributeIndex([])
        for expr in [tg.TrueExpr(), tg.Not(tg.Equals("gender", "male"))] + \
                [random_targeting(rng) for _ in range(200)]:
            assert index.matches(expr) == 0

    def test_members(self):
        assert tg.members(0) == []
        assert tg.members(1) == [0]
        assert tg.members(0b1011 << 200) == [200, 201, 203]


def _reference_eligible(attrs, expr) -> bool:
    """The grammar's meaning, evaluated without shortcuts: an absent
    attribute fails Equals and In."""
    if isinstance(expr, tg.TrueExpr):
        return True
    if isinstance(expr, tg.Equals):
        return expr.attr in attrs and attrs[expr.attr] == expr.value
    if isinstance(expr, tg.In):
        return expr.attr in attrs and attrs[expr.attr] in expr.values
    if isinstance(expr, tg.Not):
        return not _reference_eligible(attrs, expr.child)
    results = [_reference_eligible(attrs, c) for c in expr.children]
    return all(results) if isinstance(expr, tg.And) else any(results)


class TestBuildEdges:
    def test_empty_contracts(self, three_contract_graph):
        assert tg.build_edges(three_contract_graph.supply_nodes, []) == []

    def test_fully_qualified_node_matches_all_three(self, three_contract_graph):
        g = three_contract_graph
        edges = [cid for sid, cid in g.edges if sid == "ca_male"]
        assert sorted(edges) == ["age5", "california", "males"]

    def test_partial_node_matches_one(self, three_contract_graph):
        g = three_contract_graph
        from gdserve.model import SupplyNode
        node = SupplyNode("wa_unknown", {"state": "WA", "age_bucket": "5"}, 10)
        edges = tg.build_edges([node], g.contracts)
        assert edges == [("wa_unknown", "age5")]

    def test_matches_exhaustive_double_loop(self):
        from gdserve.model import SupplyNode
        from conftest import make_contract
        rng = random.Random(11)
        nodes = [SupplyNode(f"n{i}", random_attrs(rng), 10) for i in range(50)]
        contracts = []
        for j in range(50):
            expr = random_targeting(rng)
            c = make_contract(f"c{j}", "TRUE", 10)
            contracts.append(type(c)(c.id, expr, c.demand, c.start, c.end))
        got = set(tg.build_edges(nodes, contracts))
        want = {(n.id, c.id) for n in nodes for c in contracts
                if tg.eligible(n.attributes, c.targeting)}
        assert got == want

    def test_random_trees_equal_sorted_double_loop(self):
        from gdserve.model import SupplyNode
        from conftest import make_contract
        rng = random.Random(14)
        # Ids out of order, so the result must be sorted, not listed.
        nodes = [SupplyNode(f"n{i:03d}", random_attrs(rng), 10) for i in range(150)]
        rng.shuffle(nodes)
        contracts = []
        for j in range(60):
            expr = random_targeting(rng)
            if rng.random() < 0.2:
                expr = rng.choice([tg.And, tg.Or])((expr,))
            c = make_contract(f"c{j:02d}", "TRUE", 10)
            contracts.append(type(c)(c.id, expr, c.demand, c.start, c.end))
        rng.shuffle(contracts)
        want = sorted((n.id, c.id) for n in nodes for c in contracts
                      if tg.eligible(n.attributes, c.targeting))
        assert tg.build_edges(nodes, contracts) == want

    def test_one_pass_iterables(self, three_contract_graph):
        # Contracts were iterated once per node, so a generator gave the
        # edges of the first node only.
        g = three_contract_graph
        edges = tg.build_edges(iter(g.supply_nodes), (c for c in g.contracts))
        assert len(edges) == 11
        assert edges == tg.build_edges(g.supply_nodes, g.contracts)

    def test_deterministic_order(self):
        from gdserve.model import SupplyNode
        from conftest import make_contract
        nodes = [SupplyNode("b", {"x": "1"}, 1), SupplyNode("a", {"x": "1"}, 1)]
        contracts = [make_contract("c2", "x = 1", 1), make_contract("c1", "x = 1", 1)]
        assert tg.build_edges(nodes, contracts) == [
            ("a", "c1"), ("a", "c2"), ("b", "c1"), ("b", "c2")]
