"""Unit tests for request parsing, canonical keys, and response documents."""

import json

import pytest

from repro.query.result import ResultTable
from repro.server import BadRequest, ServerDefaults
from repro.server.protocol import (
    parse_query_request,
    parse_update_request,
    result_document,
)

QUERY = "SELECT ID, COUNTP(clq3-unlb, SUBGRAPH(ID, 1)) AS c FROM nodes LIMIT 2"


def parse(body, headers=None, content_type="application/json", defaults=None):
    if isinstance(body, dict):
        body = json.dumps(body).encode()
    elif isinstance(body, str):
        body = body.encode()
    return parse_query_request(
        headers or {}, body, content_type, defaults or ServerDefaults()
    )


class TestQueryParsing:
    def test_json_body(self):
        req = parse({"query": QUERY})
        assert req.budget is None
        assert req.degrade is False
        assert "COUNTP" in req.canonical

    def test_text_plain_body(self):
        req = parse(QUERY, content_type="text/plain; charset=utf-8")
        assert req.canonical == parse({"query": QUERY}).canonical

    def test_spelling_variants_share_one_canonical_form(self):
        spaced = QUERY.replace(" ", "  ").replace("SELECT", "SELECT\n")
        assert parse({"query": spaced}).canonical == parse({"query": QUERY}).canonical

    def test_non_select_statements_are_rejected(self):
        # The query grammar only admits SELECT; anything else fails at
        # parse and surfaces as a 400, never a server error.
        with pytest.raises(BadRequest, match="does not parse"):
            parse({"query": "EXPLAIN " + QUERY})
        with pytest.raises(BadRequest, match="does not parse"):
            parse({"query": "PATTERN p = (a)-(b)"})

    def test_parse_error_is_bad_request(self):
        with pytest.raises(BadRequest, match="does not parse"):
            parse({"query": "SELEC oops"})

    def test_malformed_bodies(self):
        with pytest.raises(BadRequest, match="empty"):
            parse(b"")
        with pytest.raises(BadRequest, match="not valid JSON"):
            parse("{nope")
        with pytest.raises(BadRequest, match="JSON object"):
            parse("[1, 2]")
        with pytest.raises(BadRequest, match='string "query"'):
            parse({"query": 7})


def spec(**limits):
    """A normalized budget spec (validate_spec fills absent keys with None)."""
    return {"timeout": None, "max_ops": None, "max_results": None, **limits}


class TestBudgetPrecedence:
    def test_defaults_apply(self):
        defaults = ServerDefaults(budget={"max_ops": 100}, degrade=True)
        req = parse({"query": QUERY}, defaults=defaults)
        assert req.budget == spec(max_ops=100)
        assert req.degrade is True

    def test_body_overrides_defaults(self):
        defaults = ServerDefaults(budget={"max_ops": 100})
        req = parse(
            {"query": QUERY, "budget": {"max_ops": 7, "timeout": 1.5},
             "degrade": True},
            defaults=defaults,
        )
        assert req.budget == spec(max_ops=7, timeout=1.5)
        assert req.degrade is True

    def test_headers_override_body(self):
        req = parse(
            {"query": QUERY, "budget": {"max_ops": 7}, "degrade": True},
            headers={"X-Repro-Max-Ops": "3", "X-Repro-Degrade": "off"},
        )
        assert req.budget == spec(max_ops=3)
        assert req.degrade is False

    def test_invalid_specs_are_bad_requests(self):
        with pytest.raises(BadRequest):
            parse({"query": QUERY, "budget": {"max_opps": 3}})
        with pytest.raises(BadRequest):
            parse({"query": QUERY, "budget": {"max_ops": 0}})
        with pytest.raises(BadRequest):
            parse({"query": QUERY, "budget": "cheap"})
        with pytest.raises(BadRequest):
            parse({"query": QUERY}, headers={"X-Repro-Max-Ops": "many"})
        with pytest.raises(BadRequest):
            parse({"query": QUERY, "degrade": "maybe"})


class TestUpdateParsing:
    def test_valid_batch(self):
        ops = parse_update_request(json.dumps({"ops": [
            {"op": "add_node", "node": 9, "attrs": {"kind": "hub"}},
            {"op": "add_edge", "u": 1, "v": 9},
            {"op": "remove_edge", "u": 0, "v": 1},
            {"op": "remove_node", "node": 3},
        ]}).encode())
        assert [op["op"] for op in ops] == [
            "add_node", "add_edge", "remove_edge", "remove_node",
        ]

    @pytest.mark.parametrize("body,excerpt", [
        ({"ops": []}, "non-empty"),
        ({"ops": "add it"}, "non-empty"),
        ({"ops": [3]}, "must be an object"),
        ({"ops": [{"op": "upsert_edge", "u": 1, "v": 2}]}, "must be one of"),
        ({"ops": [{"op": "add_edge", "u": 1}]}, '"u" and "v"'),
        ({"ops": [{"op": "add_node"}]}, '"node"'),
        ({"ops": [{"op": "add_edge", "u": 1, "v": 2, "attrs": 5}]},
         "attrs must be an object"),
        ({"ops": [{"op": "remove_edge", "u": 1, "v": 2, "attrs": {}}]},
         "takes no attrs"),
    ])
    def test_invalid_batches(self, body, excerpt):
        with pytest.raises(BadRequest, match=excerpt):
            parse_update_request(json.dumps(body).encode())

    @pytest.mark.parametrize("op", [
        {"op": "add_node", "node": [1, 2]},
        {"op": "remove_node", "node": {"id": 1}},
        {"op": "add_edge", "u": None, "v": 2},
        {"op": "remove_edge", "u": 1, "v": [2]},
    ])
    def test_non_scalar_ids(self, op):
        with pytest.raises(BadRequest, match="must be a string, number or boolean"):
            parse_update_request(json.dumps({"ops": [op]}).encode())


class TestResultDocument:
    def test_complete_result(self):
        table = ResultTable(["ID", "c"], [(1, 2), (3, 0)])
        doc = result_document(table, graph_version=41, coalesced=True)
        assert doc == {
            "columns": ["ID", "c"],
            "rows": [[1, 2], [3, 0]],
            "graph_version": 41,
            "coalesced": True,
        }

    def test_partial_result_carries_notes(self):
        table = ResultTable(["c"], [(1,)], partial=True, notes=["c: estimated"])
        doc = result_document(table, graph_version=0, coalesced=False)
        assert doc["partial"] is True
        assert doc["notes"] == ["c: estimated"]
