"""The query engine's match store: global match lists reused across
queries and repaired across graph updates.

The node-driven plan does one global pattern-matching pass and then
counts (ND-PVOT, §IV).  That pass depends only on the pattern, the
matcher and the graph — not on ``k``, the WHERE focal set or the census
algorithm — so :class:`MatchStore` keeps its result under the key
(pattern name, matcher, graph version), valid while the name still
resolves to the pattern object the entry was built from, and queries
that differ only in the parts it does not depend on skip matching.
Redefining a pattern misses only that pattern's entry.

- **What an entry holds**: every embedding of the pattern, automorphic
  ones included (``find_matches(distinct=False)``), in the matcher's
  order.  ``COUNTSP`` censuses adopt that list; ``COUNTP`` censuses
  adopt its distinct-subgraph view (first embedding per subgraph),
  which is exactly the list ``find_matches(distinct=True)`` returns.
  Handed-out lists are never mutated afterwards.
- **Bound**: at most :data:`CACHE_ENTRIES` entries, least recently
  used evicted first, all at one graph version: the first entry stored
  at a newer version drops every older one.
- **Budgets**: a hit charges ``count_result(len(embeddings))``, what
  the matching pass would have charged; a pass that raises (a blown
  budget, a fault) stores nothing.
- **Updates** (:meth:`MatchStore.apply`): the one place update ops
  become graph mutations.  The store applies each op and repairs every
  entry after it with :class:`repro.matching.seeded.EmbeddingSet`,
  then stores the entries at the batch's new version.  An entry whose
  repair fails is dropped, and so is every entry when an op fails or
  the store's version is not the live graph's.  A maintained census
  (:class:`repro.census.IncrementalCensus`) reads its pattern's entry
  from a store, so served queries and the census share one repair.

Counters: ``query.match_store.{hits,misses,repairs,drops}``; gauge:
``query.match_store.entries``.
"""

import threading
from collections import OrderedDict

from repro.census import base as census_base
from repro.exec.budget import current_budget
from repro.matching.base import dedupe_matches
from repro.matching.seeded import EmbeddingSet
from repro.obs import current_obs, get_logger

logger = get_logger("repro.query.match_store")

#: Entries kept by the match store and by the engine's aggregate cache.
CACHE_ENTRIES = 8

#: The :class:`~repro.matching.seeded.EmbeddingSet` repair run after
#: each update op.
_REPAIRS = {"add_node": "node_added", "add_edge": "edge_added",
            "remove_edge": "edge_removed", "remove_node": "node_removed"}


class LRUCache:
    """A thread-safe mapping holding the :data:`CACHE_ENTRIES` most
    recently used keys."""

    def __init__(self):
        self._data = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, default=None):
        with self._lock:
            try:
                self._data.move_to_end(key)
            except KeyError:
                return default
            return self._data[key]

    def put(self, key, value):
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > CACHE_ENTRIES:
                self._data.popitem(last=False)

    def clear(self):
        with self._lock:
            self._data.clear()

    def __len__(self):
        return len(self._data)


class _Entry:
    """One pattern's embeddings plus lazily built views of them."""

    __slots__ = ("pattern", "embeddings", "_views")

    def __init__(self, pattern, embeddings):
        self.pattern = pattern
        # A plain list until the first repair needs the indexed set.
        self.embeddings = embeddings
        self._views = {False: embeddings}

    def __len__(self):
        return len(self.embeddings)

    def view(self, distinct):
        # setdefault: readers building a view concurrently all get the
        # first one stored.
        views = self._views
        if distinct not in views:
            if False not in views:
                views.setdefault(False, self.embeddings.matches())
            if distinct:
                views.setdefault(True, dedupe_matches(views[False]))
        return views[distinct]

    def repairable(self, graph):
        if not isinstance(self.embeddings, EmbeddingSet):
            self.embeddings = EmbeddingSet(graph, self.pattern, self.embeddings)
        self._views = {}
        return self.embeddings


class MatchStore:
    """Global match lists keyed by pattern, matcher and graph version."""

    def __init__(self):
        self._entries = OrderedDict()
        self._version = None
        self._lock = threading.Lock()

    def __len__(self):
        return len(self._entries)

    def matches(self, graph, version, key, pattern, matcher, distinct):
        """The global match list of ``pattern`` on ``graph`` at ``version``.

        ``key`` is the version-free part of the store key (pattern name,
        matcher); an entry built from another ``pattern`` object (the
        name was redefined since) is a miss.  ``distinct`` selects one
        embedding per match subgraph; otherwise every embedding is
        returned.
        """
        obs = current_obs()
        with self._lock:
            entry = self._entries.get(key) if version == self._version else None
            if entry is not None and entry.pattern is pattern:
                self._entries.move_to_end(key)
            else:
                entry = None
        if entry is not None:
            obs.add("query.match_store.hits")
            budget = current_budget()
            if budget is not None:
                budget.count_result(len(entry))
            return entry.view(distinct)
        obs.add("query.match_store.misses")
        # Looked up on the census layer's module, the entry point every
        # algorithm's own matching pass goes through.
        embeddings = census_base.find_matches(graph, pattern, method=matcher,
                                              distinct=False)
        entry = _Entry(pattern, embeddings)
        with self._lock:
            if self._version is None or version > self._version:
                self._drop_all(obs)
                self._version = version
            if version == self._version:
                stored = self._entries.get(key)
                if stored is not None and stored.pattern is pattern:
                    entry = stored
                else:
                    self._entries[key] = entry
                    self._entries.move_to_end(key)
                self._evict()
            self._gauge(obs)
        return entry.view(distinct)

    def retain(self, version):
        """Drop every entry not valid at ``version``."""
        with self._lock:
            if version != self._version:
                obs = current_obs()
                self._drop_all(obs)
                self._gauge(obs)

    def clear(self):
        with self._lock:
            obs = current_obs()
            self._drop_all(obs)
            self._version = None
            self._gauge(obs)

    # -- repair across updates -------------------------------------------
    def apply(self, graph, ops):
        """Apply ``POST /update`` op dicts to the mutable ``graph``,
        repairing every entry after each op, and store the entries at
        the new ``graph.version``.  Returns the changed nodes: the
        endpoints of every op but an attr-free add of what exists.

        The entries are dropped first unless the store's version is
        ``graph.version`` (a stale CSR snapshot's entries do not
        describe ``graph``), and all of them when an op raises.
        """
        obs = current_obs()
        with self._lock:
            if self._version != getattr(graph, "version", None):
                self._drop_all(obs)
            entries, self._entries, self._version = self._entries, OrderedDict(), None
            self._gauge(obs)
        changed = set()
        try:
            for op in ops:
                kind, attrs = op["op"], op.get("attrs") or {}
                ends = (op["node"],) if kind.endswith("_node") else (op["u"], op["v"])
                existed, args = False, ()
                if kind == "add_node":
                    existed = graph.has_node(*ends)
                    args = (existed, attrs)
                elif kind == "add_edge":
                    existed = graph.has_edge(*ends)
                    args = (existed, attrs, [x for x in ends if not graph.has_node(x)])
                getattr(graph, kind)(*ends, **attrs)
                if not existed or attrs:
                    changed.update(ends)
                for key, entry in list(entries.items()):
                    try:
                        getattr(entry.repairable(graph), _REPAIRS[kind])(*ends, *args)
                    except Exception:  # noqa: BLE001 - the entry goes, the update stays
                        logger.exception("match store: cannot repair %r after %s", key, kind)
                        del entries[key]
                        obs.add("query.match_store.drops")
        except BaseException:
            if entries:
                obs.add("query.match_store.drops", len(entries))
            raise
        with self._lock:
            self._drop_all(obs)
            self._entries = entries
            self._version = getattr(graph, "version", None)
            self._evict()
            obs.add("query.match_store.repairs", len(entries))
            self._gauge(obs)
        return changed

    # -- internals (lock held) ---------------------------------------------
    def _drop_all(self, obs):
        if self._entries:
            obs.add("query.match_store.drops", len(self._entries))
            self._entries = OrderedDict()

    def _evict(self):
        while len(self._entries) > CACHE_ENTRIES:
            self._entries.popitem(last=False)

    def _gauge(self, obs):
        obs.set_gauge("query.match_store.entries", len(self._entries))

