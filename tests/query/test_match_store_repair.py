"""Differential tests for match-store repair across update batches.

After every ``GraphState.apply`` batch, each stored match list must
equal a fresh ``find_matches`` pass over the updated graph — for
patterns with negated edges, node and edge predicates, labels and
subpatterns, under random edge, node and attribute updates — and the
engine's answers must equal a new engine's.
"""

import random

import pytest

from repro.census import IncrementalCensus
from repro.errors import GraphError
from repro.graph import Graph
from repro.matching import Pattern, find_matches
from repro.matching.predicates import Comparison, attr, const, edge_attr
from repro.obs import ObsContext
from repro.query.engine import QueryEngine
from repro.server import GraphState

NODES = 24
SPARE = 4  # ids NODES..NODES+SPARE-1 start absent and get created by updates


def triangle():
    p = Pattern("tri")
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_edge("A", "C")
    return p


def open_triad():
    p = Pattern("open")
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_edge("A", "C", negated=True)
    p.add_subpattern("mid", ["B"])
    return p


def weighted_path():
    p = Pattern("heavy")
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_predicate(Comparison(attr("B", "w"), ">=", const(1)))
    p.add_predicate(Comparison(attr("A", "w"), ">", attr("C", "w")))
    p.add_predicate(Comparison(edge_attr("A", "B", "kind"), "=", const("x")))
    return p


def far_ends():
    # Reads the adjacency of a pair that no positive edge joins.
    p = Pattern("far")
    p.add_edge("A", "B")
    p.add_edge("B", "C")
    p.add_predicate(Comparison(edge_attr("A", "C", "kind"), "!=", const("x")))
    return p


def labeled_edge():
    p = Pattern("lab")
    p.add_node("A", label="a")
    p.add_node("B", label="b")
    p.add_edge("A", "B")
    return p


def lonely():
    p = Pattern("lonely")
    p.add_node("A", label="a")
    return p


def dot():
    p = Pattern("dot")
    p.add_node("A")
    return p


PATTERNS = [triangle, open_triad, weighted_path, far_ends, labeled_edge, lonely, dot]


def random_graph(rng):
    g = Graph()
    for n in range(NODES):
        g.add_node(n, label=rng.choice("ab"), w=rng.randrange(3))
    while g.num_edges < 2 * NODES:
        u, v = rng.sample(range(NODES), 2)
        g.add_edge(u, v, kind=rng.choice("xy"))
    return g


def random_op(rng, g, allow_remove_node=True):
    nodes = sorted(g.nodes())
    edges = sorted(g.edges())
    kind = rng.choice(["add_edge"] * 3 + ["remove_edge"] * 3 + ["edge_attr", "add_node",
                                                                "node_attr", "remove_node"])
    if kind == "remove_edge" and edges:
        u, v = rng.choice(edges)
        return {"op": "remove_edge", "u": u, "v": v}
    if kind == "edge_attr" and edges:
        u, v = rng.choice(edges)
        return {"op": "add_edge", "u": u, "v": v, "attrs": {"kind": rng.choice("xy")}}
    if kind == "node_attr":
        return {"op": "add_node", "node": rng.choice(nodes),
                "attrs": rng.choice([{"w": rng.randrange(3)}, {"label": rng.choice("ab")}])}
    if kind == "add_node":
        return {"op": "add_node", "node": NODES + rng.randrange(SPARE),
                "attrs": {"label": rng.choice("ab"), "w": rng.randrange(3)}}
    if kind == "remove_node" and allow_remove_node and len(nodes) > NODES // 2:
        return {"op": "remove_node", "node": rng.choice(nodes)}
    u, v = rng.sample(range(NODES + SPARE), 2)
    op = {"op": "add_edge", "u": u, "v": v}
    if rng.random() < 0.7:
        op["attrs"] = {"kind": rng.choice("xy")}
    return op


def random_batch(rng, g, allow_remove_node=True):
    """1-4 ops, each valid after the ones before it."""
    shadow = g.copy()
    batch = []
    for _ in range(rng.randint(1, 4)):
        op = random_op(rng, shadow, allow_remove_node)
        if op["op"] == "add_edge":
            shadow.add_edge(op["u"], op["v"], **op.get("attrs", {}))
        elif op["op"] == "remove_edge":
            shadow.remove_edge(op["u"], op["v"])
        elif op["op"] == "add_node":
            shadow.add_node(op["node"], **op["attrs"])
        else:
            shadow.remove_node(op["node"])
        batch.append(op)
    return batch


def embedding_keys(matches):
    return sorted(sorted(m.mapping.items()) for m in matches)


def stored(engine, pattern, distinct):
    with ObsContext() as obs:
        matches = engine.match_store.matches(
            engine.graph, engine.graph_version,
            (pattern.name, engine.matcher),
            pattern, engine.matcher, distinct,
        )
    assert dict(obs.counter_table()).get("query.match_store.hits") == 1, "entry was dropped"
    return matches


def check_store(engine, patterns):
    live = engine.base_graph
    for pattern in patterns:
        assert embedding_keys(stored(engine, pattern, False)) == embedding_keys(
            find_matches(live, pattern, distinct=False)), pattern.name
        distinct = stored(engine, pattern, True)
        assert sorted(sorted(map(repr, m.canonical_key[0])) for m in distinct) == sorted(
            sorted(map(repr, m.canonical_key[0])) for m in find_matches(live, pattern)
        ), pattern.name
        assert len({m.canonical_key for m in distinct}) == len(distinct)


def populate(engine, patterns):
    for pattern in patterns:
        engine.define_pattern(pattern)
    for pattern in patterns:
        engine.execute(f"SELECT ID, COUNTP({pattern.name}, SUBGRAPH(ID, 1)) AS c FROM nodes")


@pytest.mark.parametrize("backend", ["dict", "csr"])
@pytest.mark.parametrize("seed", range(6))
def test_repaired_store_equals_fresh_matching_after_every_batch(backend, seed):
    rng = random.Random(seed)
    g = random_graph(rng)
    patterns = [make() for make in PATTERNS]
    engine = QueryEngine(g, backend=backend)
    populate(engine, patterns)
    state = GraphState(engine)
    for _ in range(12):
        state.apply(random_batch(rng, g))
        check_store(engine, patterns)
    queries = [
        "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 2)) AS c FROM nodes",
        "SELECT ID, COUNTSP(mid, open, SUBGRAPH(ID, 1)) AS c FROM nodes",
        "SELECT ID, COUNTP(heavy, SUBGRAPH(ID, 1)) AS c FROM nodes WHERE RND() < 0.5",
        "SELECT ID, COUNTP(far, SUBGRAPH(ID, 1)) AS c FROM nodes",
    ]
    fresh = QueryEngine(g.copy(), backend=backend)
    for pattern in PATTERNS:
        fresh.define_pattern(pattern())
    for q in queries:
        assert engine.execute(q).rows == fresh.execute(q).rows, q


def test_repair_alongside_a_maintained_census():
    rng = random.Random(7)
    g = random_graph(rng)
    engine = QueryEngine(g, backend="csr")
    patterns = [triangle(), open_triad()]
    populate(engine, patterns)
    maintained = IncrementalCensus(g, open_triad(), 1)
    state = GraphState(engine, maintained=maintained)
    for _ in range(8):
        state.apply(random_batch(rng, g, allow_remove_node=False))
        check_store(engine, patterns)


def test_failed_batch_drops_entries_and_serves_fresh_lists():
    g = random_graph(random.Random(3))
    engine = QueryEngine(g)
    populate(engine, [triangle()])
    state = GraphState(engine)
    u, v = next((u, v) for u in range(NODES) for v in range(NODES)
                if u != v and not g.has_edge(u, v))
    with pytest.raises(GraphError):
        state.apply([{"op": "add_edge", "u": u, "v": v},
                     {"op": "remove_edge", "u": u, "v": u + NODES * 10}])
    assert len(engine.match_store) == 0
    q = "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) AS c FROM nodes"
    fresh = QueryEngine(g.copy())
    fresh.define_pattern(triangle())
    assert engine.execute(q).rows == fresh.execute(q).rows


def test_stale_csr_snapshot_is_not_repaired():
    # The source graph moved without refresh_snapshot(): stored lists
    # describe the old snapshot, so a batch must drop, not repair, them.
    g = random_graph(random.Random(5))
    engine = QueryEngine(g, backend="csr")
    populate(engine, [triangle()])
    a, b = next((u, v) for u in range(NODES) for v in range(NODES)
                if u != v and not g.has_edge(u, v))
    g.add_edge(a, b)
    with ObsContext() as obs:
        GraphState(engine).apply([{"op": "add_node", "node": NODES}])
    assert dict(obs.counter_table()).get("query.match_store.drops") == 1
    assert len(engine.match_store) == 0
    q = "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) AS c FROM nodes"
    fresh = QueryEngine(g.copy(), backend="csr")
    fresh.define_pattern(triangle())
    assert engine.execute(q).rows == fresh.execute(q).rows
