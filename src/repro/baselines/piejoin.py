"""PIEJoin — prefix-tree interval join (Kunkel, Rheinländer, Schiefer,
Helmer, Bouros & Leser, SSDBM'16; paper §VII).

The last intersection-oriented competitor the paper surveys: instead of
inverted lists of *set ids*, PIEJoin indexes the prefix tree of ``S``. Every
tree node gets a preorder interval covering its subtree, and each element
maps to the (disjoint) intervals of the nodes labelled with it. Because a
set's elements appear in global order along its tree path, ``R ⊆ S`` holds
exactly when R's ordered elements can be matched by a chain of nested
intervals; the join therefore intersects *interval lists* instead of id
lists, and the index on ``S`` shrinks from one entry per token to one entry
per tree node (the paper's "uses a tree structure to reduce the size of the
inverted index on S").

Interval chains are expanded breadth-first per element: for each surviving
interval, the next element's nodes nested inside it are found by binary
search on their (sorted, disjoint) start positions. Every ``S`` set whose
end marker falls inside a fully matched chain's final interval is a result
— no verification needed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple

from ..core.order import GlobalOrder, build_order
from ..core.stats import JoinStats
from ..data.collection import SetCollection
from ..index.prefix_tree import PrefixTree, TreeNode

__all__ = ["pie_join", "PieIndex"]


class PieIndex:
    """Preorder-interval index over the prefix tree of ``S``.

    Attributes
    ----------
    starts, ends:
        Per element, parallel sorted lists: the preorder interval
        ``[starts[e][i], ends[e][i])`` belongs to the i-th tree node
        labelled ``e``. Intervals of one element are pairwise disjoint
        (an element occurs at most once on any path).
    flat_sids:
        End-marker set ids in preorder; the sets below any node form the
        slice ``flat_sids[lo:hi]`` of its interval.
    """

    def __init__(self, s_collection: SetCollection, order: GlobalOrder) -> None:
        tree = PrefixTree.build(s_collection, order)
        self.num_nodes = tree.num_nodes
        self.starts: Dict[int, List[int]] = {}
        self.ends: Dict[int, List[int]] = {}
        self.flat_sids: List[int] = []
        self.root_interval: Tuple[int, int] = (0, 0)
        self._build(tree)

    def _build(self, tree: PrefixTree) -> None:
        flat = self.flat_sids
        closes: List[Tuple[int, int, int]] = []  # (element, start, end)
        # Two-phase DFS: record each node's start on the way down (the
        # number of end markers emitted so far), close its interval on the
        # way back up.
        work: List[Tuple[TreeNode, bool]] = [(tree.root, False)]
        opened: Dict[int, int] = {}
        while work:
            node, done = work.pop()
            if done:
                start = opened.pop(id(node))
                for e in node.elements:
                    closes.append((e, start, len(flat)))
                continue
            opened[id(node)] = len(flat)
            if node.terminal_rids is not None:
                flat.extend(node.terminal_rids)
            work.append((node, True))
            for child in node.children:
                work.append((child, False))
        for e, start, end in closes:
            self.starts.setdefault(e, []).append(start)
            self.ends.setdefault(e, []).append(end)
        # Intervals were appended in close (postorder) order; the matcher
        # binary-searches them by start position.
        for e in self.starts:
            pairs = sorted(zip(self.starts[e], self.ends[e]))
            self.starts[e] = [p[0] for p in pairs]
            self.ends[e] = [p[1] for p in pairs]
        self.root_interval = (0, len(flat))

    def intervals_of(self, element: int) -> Tuple[List[int], List[int]]:
        """Sorted start/end position lists of ``element``'s tree nodes."""
        return self.starts.get(element, []), self.ends.get(element, [])


def pie_join(
    r_collection: SetCollection,
    s_collection: SetCollection,
    sink,
    order: Optional[GlobalOrder] = None,
    index: Optional[PieIndex] = None,
    stats: Optional[JoinStats] = None,
) -> None:
    """Interval-chain set containment join over the ``S`` prefix tree."""
    if order is None:
        universe = max(r_collection.max_element(), s_collection.max_element()) + 1
        order = build_order(s_collection, kind="freq_asc", universe=universe)
    if index is None:
        index = PieIndex(s_collection, order)
        if stats is not None:
            stats.tree_nodes += index.num_nodes
            stats.index_build_tokens += s_collection.total_tokens()

    flat = index.flat_sids
    searches = 0
    touched = 0
    for rid, record in enumerate(r_collection):
        if not record:
            # The empty set (validate=False) is contained in every set.
            sink.add_sids(rid, range(len(s_collection)))
            continue
        ordered = order.sort_record(record)
        # Current chain frontier: disjoint intervals, sorted by start.
        cur_starts, cur_ends = index.intervals_of(ordered[0])
        touched += len(cur_starts)
        alive = bool(cur_starts)
        for e in ordered[1:]:
            if not alive:
                break
            nxt_starts, nxt_ends = index.intervals_of(e)
            if not nxt_starts:
                alive = False
                break
            keep_s: List[int] = []
            keep_e: List[int] = []
            for a, b in zip(cur_starts, cur_ends):
                lo = bisect_left(nxt_starts, a)
                hi = bisect_right(nxt_starts, b - 1, lo)
                searches += 2
                if lo < hi:
                    keep_s.extend(nxt_starts[lo:hi])
                    keep_e.extend(nxt_ends[lo:hi])
                    touched += hi - lo
            cur_starts, cur_ends = keep_s, keep_e
            alive = bool(cur_starts)
        if alive:
            for a, b in zip(cur_starts, cur_ends):
                if b > a:
                    sink.add_sids(rid, flat[a:b])
    if stats is not None:
        stats.binary_searches += searches
        stats.entries_touched += touched
