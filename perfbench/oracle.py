"""An independent per-node census: the benchmark's reference answers.

For every node ``n`` it counts the distinct match subgraphs of a pattern
whose nodes all lie within ``k`` hops of ``n``.  Matches are
non-induced, and automorphic embeddings of one subgraph count once.
Nothing here calls ``repro``: matches are enumerated by hand-written
loops for exactly the patterns the workloads use, and containment is a
boolean k-hop reachability matrix.  Its time and memory enter no metric.
"""

import numpy as np


def adjacency(num_nodes, edges):
    adj = [set() for _ in range(num_nodes)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def hood_matrix(adj, k):
    """``R[n, x]`` is true when ``x`` is within ``k`` hops of ``n``."""
    n = len(adj)
    reach = np.zeros((n, n), dtype=bool)
    for src in range(n):
        seen = {src}
        frontier = [src]
        for _ in range(k):
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        reach[src, list(seen)] = True
    return reach


def _triangles(adj):
    for u in range(len(adj)):
        for v in adj[u]:
            if v <= u:
                continue
            for w in adj[u] & adj[v]:
                if w > v:
                    yield (u, v, w)


def matches(pattern, adj, labels):
    """Distinct match subgraphs of ``pattern`` as an ``(M, size)`` array."""
    if pattern == "clq3-unlb":
        rows = list(_triangles(adj))
        size = 3
    elif pattern == "clq3":
        # Labels A, B, C are distinct, so a triangle matches exactly
        # when its three labels are A, B and C, and then in one way.
        rows = [t for t in _triangles(adj)
                if sorted(labels[x] for x in t) == ["A", "B", "C"]]
        size = 3
    elif pattern == "path2":
        rows = [(a, b, c)
                for b in range(len(adj)) if labels[b] == "B"
                for a in adj[b] if labels[a] == "A"
                for c in adj[b] if labels[c] == "C"]
        size = 3
    elif pattern == "sqr":
        rows = [(a, b, c, d)
                for a in range(len(adj)) if labels[a] == "A"
                for b in adj[a] if labels[b] == "B"
                for c in adj[b] if labels[c] == "C"
                for d in adj[c] if labels[d] == "D" and d in adj[a]]
        size = 4
    else:
        raise ValueError(f"no oracle for pattern {pattern!r}")
    return np.array(rows, dtype=np.int64).reshape(-1, size)


def census(reach, found, chunk=512):
    """Per-node count of the matches in ``found`` inside each row's hood."""
    counts = np.zeros(reach.shape[0], dtype=np.int64)
    for lo in range(0, len(found), chunk):
        part = found[lo:lo + chunk]
        inside = reach[:, part[:, 0]]
        for col in range(1, part.shape[1]):
            inside &= reach[:, part[:, col]]
        counts += inside.sum(axis=1)
    return counts


class Oracle:
    """Per-(pattern, k) node counts of one graph, computed on demand."""

    def __init__(self, num_nodes, edges, labels=None):
        self.adj = adjacency(num_nodes, edges)
        self.labels = labels
        self._reach = {}
        self._matches = {}
        self._counts = {}

    def counts(self, pattern, k):
        key = (pattern, k)
        if key not in self._counts:
            if k not in self._reach:
                self._reach[k] = hood_matrix(self.adj, k)
            if pattern not in self._matches:
                self._matches[pattern] = matches(pattern, self.adj, self.labels)
            self._counts[key] = census(self._reach[k], self._matches[pattern]).tolist()
        return self._counts[key]


def self_check():
    """Check the oracle on small graphs whose counts are known by hand.

    Returns a list of failure messages (empty when every case holds).
    """
    cases = [
        # A triangle 0-1-2 with a tail 2-3-4: node 3 reaches 0 and 1 in
        # two hops, node 4 does not.
        (5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], None, "clq3-unlb",
         {1: [1, 1, 1, 0, 0], 2: [1, 1, 1, 1, 0]}),
        # K4 holds four triangles, all inside every 1-hop hood.
        (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], None, "clq3-unlb",
         {1: [4, 4, 4, 4]}),
        # Square A-B-C-D with chord A-C: one sqr, one A-B-C triangle
        # (A-C-D has the wrong labels), one A-B-C path.
        (4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], "ABCD", "sqr",
         {1: [1, 0, 1, 0], 2: [1, 1, 1, 1]}),
        (4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], "ABCD", "clq3",
         {1: [1, 1, 1, 0]}),
        (4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], "ABCD", "path2",
         {1: [1, 1, 1, 0]}),
        # A triangle labeled A, A, B matches no clq3.
        (3, [(0, 1), (1, 2), (0, 2)], "AAB", "clq3", {1: [0, 0, 0]}),
        # Cycle A-B-C-B: two A-B-C paths, each inside one B's 1-hop hood.
        (4, [(0, 1), (1, 2), (2, 3), (3, 0)], "ABCB", "path2",
         {1: [0, 1, 0, 1], 2: [2, 2, 2, 2]}),
    ]
    failures = []
    for num_nodes, edges, labels, pattern, expected in cases:
        oracle = Oracle(num_nodes, edges, list(labels) if labels else None)
        for k, want in expected.items():
            got = oracle.counts(pattern, k)
            if got != want:
                failures.append(f"oracle {pattern} k={k} on {edges}: {got} != {want}")
    return failures
