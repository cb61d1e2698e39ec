"""Wire protocol for the census daemon: request parsing, canonical keys,
response documents.

Everything client-supplied funnels through here so the HTTP handler
only ever sees validated values.  Malformed input raises
:class:`BadRequest`, which the handler maps to a 400 with a JSON error
body — never a stack trace.

**Canonical query keys.**  ``POST /query`` bodies carry query-language
text; two textually different spellings of the same query (whitespace,
optional aliases, redundant parentheses) must coalesce and cache as
one.  The canonical form is ``unparse(parse(text))`` — the PR 3 query
unparser emits a single normalized spelling per AST, so string equality
of canonical text is AST equality.

**Budgets.**  Per-request execution budgets come from the JSON body
(``budget`` object) or headers (``X-Repro-Timeout``, ``X-Repro-Max-Ops``,
``X-Repro-Max-Results``), headers winning; ``degrade`` likewise from
the body or ``X-Repro-Degrade``.  Absent values fall back to the
server's defaults.  Validation lives in
:func:`repro.exec.budget.validate_spec`.
"""

import json

from repro.errors import ParseError, QueryError
from repro.exec.budget import validate_spec
from repro.lang.ast import SelectQuery
from repro.lang.parser import parse_query
from repro.lang.unparse import unparse_query

#: Request headers carrying per-request budget overrides.
HEADER_TIMEOUT = "X-Repro-Timeout"
HEADER_MAX_OPS = "X-Repro-Max-Ops"
HEADER_MAX_RESULTS = "X-Repro-Max-Results"
HEADER_DEGRADE = "X-Repro-Degrade"

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


class BadRequest(Exception):
    """Client error: the handler answers 400 with this message."""


class QueryRequest:
    """A validated ``POST /query``: AST, canonical text, limits."""

    __slots__ = ("query", "canonical", "budget", "degrade")

    def __init__(self, query, canonical, budget, degrade):
        self.query = query
        self.canonical = canonical
        self.budget = budget
        self.degrade = degrade


def _parse_json_body(raw, what):
    if not raw:
        raise BadRequest(f"empty {what} body")
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequest(f"{what} body is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise BadRequest(f"{what} body must be a JSON object")
    return doc


def _parse_bool(value, what):
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in _TRUE:
            return True
        if lowered in _FALSE:
            return False
    raise BadRequest(f"{what} must be a boolean, got {value!r}")


def _header_number(headers, name, kind):
    raw = headers.get(name)
    if raw is None:
        return None
    try:
        return kind(raw)
    except ValueError:
        raise BadRequest(f"header {name} must be a {kind.__name__}, got {raw!r}") from None


def parse_query_request(headers, raw_body, content_type, defaults):
    """Validate a ``POST /query`` into a :class:`QueryRequest`.

    ``defaults`` is the server's :class:`ServerDefaults`-like object with
    ``budget`` (spec dict or ``None``) and ``degrade`` attributes.
    Bodies may be raw query text (``text/plain``) or a JSON object with
    a ``query`` field plus optional ``budget`` / ``degrade``.
    """
    body_budget = {}
    degrade = None
    if content_type.startswith("text/plain"):
        try:
            text = raw_body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BadRequest(f"query text is not UTF-8: {exc}") from None
    else:
        doc = _parse_json_body(raw_body, "query")
        text = doc.get("query")
        if not isinstance(text, str):
            raise BadRequest('query body needs a string "query" field')
        if "budget" in doc and doc["budget"] is not None:
            if not isinstance(doc["budget"], dict):
                raise BadRequest('"budget" must be an object')
            body_budget = doc["budget"]
        if "degrade" in doc and doc["degrade"] is not None:
            degrade = _parse_bool(doc["degrade"], '"degrade"')

    try:
        ast = parse_query(text)
    except (ParseError, QueryError) as exc:
        raise BadRequest(f"query does not parse: {exc}") from None
    if not isinstance(ast, SelectQuery):
        raise BadRequest("only SELECT statements can be served")
    try:
        canonical = unparse_query(ast)
    except (ParseError, QueryError) as exc:
        raise BadRequest(f"query is not canonicalizable: {exc}") from None

    spec = dict(defaults.budget or {})
    for key, value in body_budget.items():
        spec[key] = value
    header_overrides = {
        "timeout": _header_number(headers, HEADER_TIMEOUT, float),
        "max_ops": _header_number(headers, HEADER_MAX_OPS, int),
        "max_results": _header_number(headers, HEADER_MAX_RESULTS, int),
    }
    for key, value in header_overrides.items():
        if value is not None:
            spec[key] = value
    try:
        budget = validate_spec(spec or None)
    except ValueError as exc:
        raise BadRequest(str(exc)) from None

    header_degrade = headers.get(HEADER_DEGRADE)
    if header_degrade is not None:
        degrade = _parse_bool(header_degrade, f"header {HEADER_DEGRADE}")
    if degrade is None:
        degrade = defaults.degrade

    return QueryRequest(ast, canonical, budget, degrade)


def parse_update_request(raw_body):
    """Validate a ``POST /update`` body into a list of op dicts."""
    from repro.server.state import UPDATE_OPS

    doc = _parse_json_body(raw_body, "update")
    ops = doc.get("ops")
    if not isinstance(ops, list) or not ops:
        raise BadRequest('update body needs a non-empty "ops" array')
    for i, op in enumerate(ops):
        if not isinstance(op, dict):
            raise BadRequest(f"ops[{i}] must be an object")
        kind = op.get("op")
        if kind not in UPDATE_OPS:
            raise BadRequest(
                f"ops[{i}].op must be one of {list(UPDATE_OPS)}, got {kind!r}"
            )
        fields = ("u", "v") if kind in ("add_edge", "remove_edge") else ("node",)
        if any(field not in op for field in fields):
            raise BadRequest(f'ops[{i}] ({kind}) needs "' + '" and "'.join(fields) + '"')
        for field in fields:
            if op[field] is None or isinstance(op[field], (list, dict)):
                raise BadRequest(f"ops[{i}].{field} must be a string, number or boolean")
        attrs = op.get("attrs")
        if attrs is not None and not isinstance(attrs, dict):
            raise BadRequest(f"ops[{i}].attrs must be an object")
        if kind in ("remove_edge", "remove_node") and "attrs" in op:
            raise BadRequest(f"ops[{i}] ({kind}) takes no attrs")
    return ops


def result_document(table, graph_version, coalesced, request_id=None,
                    trace_id=None, sampled=None):
    """The JSON document for a successful query response.

    Request identity fields are included only when ``request_id`` is
    given, so pre-telemetry callers keep their exact document shape.
    """
    doc = {
        "columns": table.columns,
        "rows": [list(r) for r in table.rows],
        "graph_version": graph_version,
        "coalesced": coalesced,
    }
    if request_id is not None:
        doc["request_id"] = request_id
        doc["trace_id"] = trace_id
        doc["sampled"] = bool(sampled)
    if table.partial:
        doc["partial"] = True
        doc["notes"] = table.notes
    return doc


def error_document(message, **extra):
    doc = {"error": message}
    doc.update(extra)
    return doc


def encode(doc):
    """Serialize a response document (graph node ids may be arbitrary
    hashables; anything non-JSON falls back to ``repr``)."""
    return json.dumps(doc, default=repr).encode("utf-8")
