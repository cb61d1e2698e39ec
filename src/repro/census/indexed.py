"""Bit-parallel ND-PVOT over an int index of the graph.

The set-based focal loop in :mod:`repro.census.nd_pvot` runs one Python
BFS per focal node.  Given dense int node indexes and contiguous
adjacency arrays, a much stronger strategy exists: process focal nodes
in blocks of 64, one bit per source.

Per block, a uint64 vector holds, for every indexed node, the set of
sources whose BFS frontier currently contains it.  One frontier
expansion for all 64 sources is a single ``np.bitwise_or.reduceat``
over the CSR adjacency slices (node v collects the OR of its neighbors'
frontier words).  Containment tests collapse the same way: a census
match is inside ``S(s, k)`` for every source ``s`` whose bit survives
ANDing the region words of its far images — one vector op across *all*
units at once.  Per-source counts fall out of unpacking the surviving
bit columns.

The index comes from one of two places:

- a :class:`repro.graph.csr.CSRGraph` already has one — its
  ``node_index`` and ``union_adjacency()`` are used zero-copy
  (``snapshot``);
- any other graph (the dict :class:`repro.graph.graph.Graph`, a
  :class:`repro.storage.DiskGraph`) gets a transient index over the
  **k-hop ball of the focal set** (``ball``): one multi-source BFS to
  depth k, which reads the adjacency of every ball node nearer than k
  exactly once and keeps only the edges inside the ball.  That costs
  O(ball), never O(graph), so a small focal set stays cheap; with every
  node focal the first BFS layer is the whole graph and nothing more is
  read.  A match image outside the ball maps to one sentinel slot whose
  words are always 0: it lies more than k hops from every focal node,
  so no region contains it.  Nothing is kept across calls.

Counts and observability counters equal the set loop's exactly, and so
do the work units ticked on an ambient execution budget.  The kernel
needs numpy >= 2 (``np.bitwise_count``); :func:`kernel_available` says
whether it can run.
"""

from itertools import chain, count

try:  # pragma: no cover - exercised via both branches in tests
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

from repro.exec.faults import fault_point
from repro.graph.csr import CSRGraph

# np.bitwise_count arrived in numpy 2.0; on numpy 1.x the generic
# set-based loop must run instead of this module's bit-parallel path.
_HAS_BITWISE_COUNT = _np is not None and hasattr(_np, "bitwise_count")


def kernel_available():
    """True when :func:`pvot_indexed_counts` can run (numpy >= 2)."""
    return _np is not None and _HAS_BITWISE_COUNT


class IndexedCounts:
    """Counts plus the counters the generic loop would have produced,
    and where the kernel's index came from."""

    __slots__ = ("counts", "bulk", "checked", "visited", "index_source", "indexed_nodes")

    def __init__(self, counts, bulk, checked, visited, index_source, indexed_nodes):
        self.counts = counts
        self.bulk = bulk
        self.checked = checked
        self.visited = visited
        self.index_source = index_source
        self.indexed_nodes = indexed_nodes


def _ball_index(graph, focal, k, budget):
    """Int index over the k-hop ball of ``focal``.

    Returns ``(index, indptr, indices)``: slots ``0 .. n-1`` are the
    ball's nodes, layer by layer, slot ``n`` the empty sentinel row.  Each
    node nearer than k is read once and keeps its whole adjacency (all
    of it lies in the ball).  A node at exactly k is never read: its row
    holds its edges to layer k-1, the reverse of edges already read.  A
    source reaches it last, at step k, so its own word is never expanded
    and its edges to other layer-k nodes would carry nothing.
    """
    index = {}
    for node in focal:
        if node not in index:
            index[node] = len(index)
    get = index.get
    # Per read layer: its nodes' degrees and their neighbors' slots.
    degrees = []
    slots = []
    frontier = list(index)
    for _ in range(k):
        if not frontier:
            break
        if budget is not None:
            # The ball's nodes are among the nodes the blocks then
            # visit and tick; here only the deadline is checked, so both
            # ND-PVOT loops spend the same work total.
            budget.check()
        adjacency = list(map(graph.neighbors, frontier))
        degrees.extend(map(len, adjacency))
        layer = list(map(get, chain.from_iterable(adjacency)))
        frontier = []
        if None in layer:
            # New nodes: the next layer, slotted in one pass.
            frontier = list(set(chain.from_iterable(adjacency)).difference(index))
            index.update(zip(frontier, count(len(index))))
            layer = list(map(get, chain.from_iterable(adjacency)))
        slots.append(layer)

    n_read = len(degrees)
    n_unread = len(index) - n_read
    lengths = _np.array(degrees, dtype=_np.int64)
    read_indptr = _np.zeros(n_read + 1, dtype=_np.int64)
    _np.cumsum(lengths, out=read_indptr[1:])
    read_indices = _np.fromiter(chain.from_iterable(slots), dtype=_np.int64,
                                count=int(read_indptr[-1]))
    # Rows of the unread nodes (and the empty sentinel after them): the
    # read edges that end there, reversed.
    outward = read_indices >= n_read
    back_dst = read_indices[outward] - n_read
    back_src = _np.repeat(_np.arange(n_read, dtype=_np.int64), lengths)[outward]
    back_src = back_src[_np.argsort(back_dst, kind="stable")]
    back_lengths = _np.bincount(back_dst, minlength=n_unread + 1)
    indptr = _np.concatenate((read_indptr, read_indptr[-1] + _np.cumsum(back_lengths)))
    indices = _np.concatenate((read_indices, back_src))
    return index, indptr, indices


def _layer_words(indptr, indices, degree_zero, source_words, k):
    """Bit-parallel bounded BFS: 64 sources per call.

    ``source_words`` is the (n,) uint64 layer-0 vector (bit s set on the
    node that is source s).  Returns ``(layers, reached)`` where
    ``layers[d]`` marks, per node, the sources whose BFS reaches it at
    distance exactly ``d``, and ``reached`` is their OR.
    """
    reached = source_words.copy()
    layers = [source_words]
    frontier = source_words
    # reduceat rejects start offsets == len(array) (which trailing
    # isolated nodes produce) and yields garbage (the element at the
    # start offset) for empty slices.  Padding the gathered vector with
    # one zero keeps every raw offset in range without truncating any
    # slice — clamping offsets instead would shorten the last
    # non-isolated node's slice — and the empty rows are zeroed after.
    starts = indptr[:-1]
    pad = _np.zeros(1, dtype=_np.uint64)
    for _ in range(k):
        if not frontier.any():
            break
        if not len(indices):
            break
        gathered = _np.concatenate((frontier[indices], pad))
        nbr_or = _np.bitwise_or.reduceat(gathered, starts)
        nbr_or[degree_zero] = 0
        frontier = nbr_or & ~reached
        if not frontier.any():
            break
        reached |= frontier
        layers.append(frontier)
    return layers, reached


def _bit_columns(words):
    """(len(words), 64) 0/1 matrix; column ``s`` is source ``s``'s bit."""
    return _np.unpackbits(
        words.view(_np.uint8), bitorder="little"
    ).reshape(len(words), 64)


def pvot_indexed_counts(graph, focal_nodes, pmi, far_names, k, bulk_depth, prefix_at,
                        budget=None):
    """ND-PVOT's focal loop, bit-parallel over an int index of ``graph``.

    ``pmi`` is the pivot-mode :class:`repro.census.pmi.PatternMatchIndex`;
    ``far_names`` the containment variables at pivot distance >= 1,
    sorted by decreasing distance; ``prefix_at[d]`` how many of them
    need an explicit region test when the anchor sits at depth ``d``.
    ``budget`` is ticked per 64-source block with the visited nodes,
    then the checked units, as the set loop ticks them.  Returns
    :class:`IndexedCounts`, or ``None`` when the kernel cannot run
    (:func:`kernel_available`) — the caller then runs the generic
    set-based loop.  Counts and counters match it exactly.
    """
    if not kernel_available():
        return None

    focal = list(focal_nodes)
    if isinstance(graph, CSRGraph):
        index_source = "snapshot"
        index = graph.node_index
        raw_indptr, raw_indices = graph.union_adjacency()
        indptr = _np.frombuffer(raw_indptr, dtype=_np.int64)
        indices = _np.frombuffer(raw_indices, dtype=_np.int64)
    else:
        index_source = "ball"
        index, indptr, indices = _ball_index(graph, focal, k, budget)
    indexed_nodes = len(index)
    # A snapshot indexes every image; in a ball an image outside it
    # reads the sentinel slot.
    sentinel = indexed_nodes
    n_slots = len(indptr) - 1
    degree_zero = indptr[:-1] == indptr[1:]

    # Per-unit structure: the anchor (pivot image) index and the far
    # image indexes, column per far variable.  An anchor outside the
    # ball is farther than k from every source: its units never count.
    anchors = []
    anchor_units = []  # parallel: number of units anchored there
    unit_anchor = []
    img_cols = [[] for _ in far_names]
    slot = index.get
    for anchor in pmi.anchored_nodes():
        a_idx = slot(anchor)
        if a_idx is None:
            continue
        units = pmi.matches_at(anchor)
        anchors.append(a_idx)
        anchor_units.append(len(units))
        for unit in units:
            unit_anchor.append(a_idx)
            mapping = unit.match.mapping
            for col, v in enumerate(far_names):
                img_cols[col].append(slot(mapping[v], sentinel))
    anchors = _np.array(anchors, dtype=_np.int64)
    anchor_units = _np.array(anchor_units, dtype=_np.int64)
    unit_anchor = _np.array(unit_anchor, dtype=_np.int64)
    img_cols = [_np.array(col, dtype=_np.int64) for col in img_cols]
    deferred_depths = sorted(d for d in prefix_at if d <= k)

    def count_block(block):
        """Counts of up to 64 focal nodes, one bit each, with the
        block's counters; its word vectors die with the call."""
        source_words = _np.zeros(n_slots, dtype=_np.uint64)
        rows = _np.fromiter(map(index.__getitem__, block), dtype=_np.int64, count=len(block))
        bits = _np.left_shift(_np.uint64(1), _np.arange(len(block), dtype=_np.uint64))
        # .at: a focal node listed twice holds two bits.
        _np.bitwise_or.at(source_words, rows, bits)
        layers, reached = _layer_words(indptr, indices, degree_zero, source_words, k)
        visited = int(_np.bitwise_count(reached).sum())
        if budget is not None:
            budget.tick(visited)

        block_counts = _np.zeros(64, dtype=_np.int64)
        bulk = checked = 0
        # Bulk phase: anchors within depth <= k - max_v contain every
        # anchored match wholesale.
        if bulk_depth >= 0 and anchors.size:
            near = layers[0].copy()
            for d in range(1, min(bulk_depth, len(layers) - 1) + 1):
                near |= layers[d]
            anchor_words = near[anchors]
            block_counts += anchor_units @ _bit_columns(anchor_words)
            bulk = int((anchor_units * _np.bitwise_count(anchor_words)).sum())
        # Deferred phase: anchors at depth d need their units' far
        # images (the prefix_at[d] farthest ones) tested against the
        # k-hop region — a bitword AND across all units at once.
        for d in deferred_depths:
            if d >= len(layers):
                continue
            unit_words = layers[d][unit_anchor]
            checked += int(_np.bitwise_count(unit_words).sum())
            for col in img_cols[:prefix_at[d]]:
                unit_words = unit_words & reached[col]
            block_counts += _bit_columns(unit_words).sum(axis=0, dtype=_np.int64)
        if budget is not None:
            budget.tick(checked)
        return block_counts, bulk, checked, visited

    counts = {}
    bulk = checked = visited = 0
    for start in range(0, len(focal), 64):
        fault_point("census.bfs")
        block = focal[start:start + 64]
        block_counts, block_bulk, block_checked, block_visited = count_block(block)
        bulk += block_bulk
        checked += block_checked
        visited += block_visited
        for s, node in enumerate(block):
            counts[node] = int(block_counts[s])
    return IndexedCounts(counts, bulk, checked, visited, index_source, indexed_nodes)
