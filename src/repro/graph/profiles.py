"""Node profiles and the profile index (Section III-A of the paper).

A node profile is the vector of neighbor counts per label.  A database
node ``n`` is a candidate for a pattern node ``v`` iff the profile of
``v`` is contained in the profile of ``n`` — for every label, ``n`` has
at least as many neighbors with that label as ``v`` does.  The paper
computes each database node profile once and stores it "along with the
graph as an index"; :class:`NodeProfileIndex` plays that role, and every
backend serves one as ``graph.profile_index``: a :class:`CSRGraph` reads
it off its label-partitioned adjacency, while :class:`Graph` and
:class:`DiskGraph` keep a :class:`NodeProfileIndex` built on first use
and rebuilt after any ``version`` bump (:func:`versioned_profile_index`).
"""

from collections import Counter, defaultdict

from repro.exec.budget import current_budget
from repro.graph.graph import LABEL_KEY
from repro.obs import current_obs


def node_profile(graph, node):
    """Return ``Counter(label -> #neighbors with that label)`` of ``node``."""
    counts = Counter()
    for nbr in graph.neighbors(node):
        counts[graph.node_attr(nbr, LABEL_KEY)] += 1
    return counts


def profile_contains(big, small):
    """True if profile ``small`` is contained in profile ``big``."""
    for label, need in small.items():
        if big.get(label, 0) < need:
            return False
    return True


class NodeProfileIndex:
    """Precomputed profiles + label buckets for a database graph.

    - ``profile(n)`` returns the cached profile of node ``n``.
    - ``nodes_with_label(l)`` returns the set of nodes labeled ``l`` —
      the first filter when enumerating candidates for a labeled pattern
      node.

    The build is O(V+E): each node's label is read once, then each
    adjacency list once.  It ticks the ambient budget once per node.
    """

    def __init__(self, graph):
        labels = {n: graph.node_attr(n, LABEL_KEY) for n in graph.nodes()}
        budget = current_budget()
        self._profiles = {}
        self._by_label = defaultdict(set)
        for n, label in labels.items():
            if budget is not None:
                budget.tick()
            self._profiles[n] = Counter(labels[x] for x in graph.neighbors(n))
            self._by_label[label].add(n)

    def profile(self, node):
        return self._profiles[node]

    def nodes_with_label(self, label):
        """Nodes whose label equals ``label``.

        ``label=None`` is the anonymous label: in an unlabeled graph all
        nodes carry it, so the bucket is the whole node set.
        """
        return self._by_label.get(label, set())

    def labels(self):
        return set(self._by_label)

    def candidates(self, label, pattern_profile):
        """Nodes labeled ``label`` whose profile contains ``pattern_profile``."""
        return [
            n
            for n in self._by_label.get(label, ())
            if profile_contains(self._profiles[n], pattern_profile)
        ]

    def __len__(self):
        return len(self._profiles)


def versioned_profile_index(graph, cached):
    """``(version, index)`` for a mutable ``graph``.

    ``cached`` is the pair the graph kept from its last call (or
    ``None``); it is returned as is while ``graph.version`` stands, and
    replaced by a fresh build otherwise.  The build runs in a
    ``graph.profile_index`` span; the ``graph.profile_index.builds`` /
    ``.reuses`` counters say which way each call went.  A build cut
    short (a :class:`~repro.errors.BudgetExceeded`) raises before the
    caller can keep anything.
    """
    obs = current_obs()
    version = graph.version
    if cached is not None and cached[0] == version:
        obs.add("graph.profile_index.reuses")
        return cached
    with obs.span("graph.profile_index", nodes=len(graph)):
        index = NodeProfileIndex(graph)
        obs.add("graph.profile_index.builds")
    return version, index
