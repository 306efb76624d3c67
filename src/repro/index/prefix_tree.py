"""Prefix tree (trie) over the subset-side collection ``R`` (paper §IV-A).

Each set in ``R`` is inserted with its elements sorted in a global order
(descending frequency by default), so sets sharing a prefix share tree
nodes and the tree-based join shares their inverted-list probes.

Two deviations from the paper's idealised picture, both forced by real data:

* **End-marker leaves.** The paper assumes every set corresponds to a unique
  leaf. Real collections contain duplicate sets and sets that are prefixes
  of other sets. We terminate every inserted set with an *end-marker* child
  node that carries the set ids (``terminal_rids``). An end-marker has no
  element; during the join its "inverted list" is the index's universe id
  list, so a probe on it always hits and Algorithms 2/3 run unmodified.
* **Multi-element nodes.** The paper notes the prefix tree can be replaced
  by a Patricia tree (radix trie) where single-child chains are merged. A
  node therefore carries a *tuple* of elements; the join probes the
  candidate in each of the node's lists. :meth:`PrefixTree.compress`
  performs the merge in place.

Join-time state (``max_sid``, ``next_max``, ``rid_list``, per-list cursors)
lives on the nodes and is (re)initialised by the join driver, so one tree can
be reused across runs and across partition-local indexes.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from typing import (
    Container,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.order import GlobalOrder
from ..data.collection import SetCollection
from ..errors import InvalidParameterError
from ..obs import registry as _obs

__all__ = ["TreeNode", "PrefixTree", "TrieSnapshot", "IncrementalPrefixTree"]

#: Shared empty rid-list; identity-compared nowhere, equality everywhere.
_EMPTY: Tuple[int, ...] = ()


class TreeNode:
    """One node of the prefix tree.

    ``elements`` is empty for the root and for end-marker leaves, a single
    element for ordinary prefix-tree nodes, and several elements for merged
    (Patricia) nodes. ``terminal_rids`` is non-None exactly on end-marker
    leaves and lists every ``R`` id whose set ends here (duplicates share).
    """

    __slots__ = (
        "elements",
        "children",
        "child_map",
        "terminal_rids",
        # join-time state, initialised by the join driver's bind step (not
        # here: skipping the writes keeps tree construction lean) ----------
        "inv",        # sequence holding the primary list (or the universe)
        "cur",        # probe cursor, bound to where the list starts in inv
        "end",        # where the list ends in ``inv``
        "more_invs",  # extra lists for merged Patricia nodes, else None
        "more_curs",
        "more_ends",
        "max_sid",
        "next_max",
        "rid_list",
        "heap",
        "only_child",
    )

    def __init__(self, elements: Tuple[int, ...] = ()) -> None:
        self.elements: Tuple[int, ...] = elements
        self.children: List["TreeNode"] = []
        self.child_map: Optional[Dict[int, "TreeNode"]] = None
        self.terminal_rids: Optional[List[int]] = None

    @property
    def is_end_marker(self) -> bool:
        """True for the virtual leaves that carry set ids."""
        return self.terminal_rids is not None

    def __repr__(self) -> str:
        tag = f"rids={self.terminal_rids}" if self.is_end_marker else f"e={self.elements}"
        return f"TreeNode({tag}, {len(self.children)} children)"


class PrefixTree:
    """Prefix tree over ``R`` under a :class:`~repro.core.order.GlobalOrder`."""

    def __init__(self, order: GlobalOrder) -> None:
        self.order = order
        self.root = TreeNode()
        self.num_sets = 0
        self.num_nodes = 1  # the root
        self.compressed = False
        # Distinct elements per partition anchor (first element), collected
        # while the tree is built so the partitioned joins (§V) can build
        # local indexes without re-walking each subtree.
        self.partition_elements: Dict[int, Set[int]] = {}
        # Sets per partition anchor, so the partitioned joins size their
        # partitions without walking the subtrees.
        self.partition_counts: Dict[int, int] = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def build(
        cls,
        r_collection: SetCollection,
        order: GlobalOrder,
        compress: bool = False,
        freeze: bool = True,
    ) -> "PrefixTree":
        """The tree over every set of ``R`` (elements in the global order).

        With ``compress=True`` the tree is path-compressed into a Patricia
        tree after construction. The frozen tree (the default) is laid
        down in bulk from the sorted sets and carries no child maps;
        ``freeze=False`` inserts set by set and keeps the per-node child
        maps, which :meth:`subsets_of` uses for element-keyed descent.
        Both give the same nodes, rid lists and partition bookkeeping.
        """
        if freeze:
            tree = cls._bulk_build(r_collection, order)
        else:
            tree = cls(order)
            for rid, record in enumerate(r_collection):
                tree.insert(order.sort_record(record), rid)
        if compress:
            tree.compress()
        return tree

    @classmethod
    def _bulk_build(
        cls, r_collection: SetCollection, order: GlobalOrder
    ) -> "PrefixTree":
        """Lay the tree down in one longest-common-prefix sweep.

        Each record is rank-sorted once; the rank lists are then sorted,
        so sets sharing a prefix are adjacent and each node is created by
        the first set that reaches it. A set that is a prefix of another
        sorts before it, so its end-marker is its node's first child, and
        duplicates (equal, adjacent, in rid order) share one end-marker.
        No child map is created: the joins walk ``children``, and a dict
        per inner node would be a large share of the tree's footprint
        (Fig 10 measures peak memory); :meth:`insert` builds maps lazily
        where it descends. The root's children are finally put in
        first-appearance order, the order set-by-set insertion gives them,
        so the partitioned joins visit equal-sized partitions alike.

        Every node stays reachable, so the cyclic collector could free
        nothing while the tree grows but would rescan it over and over;
        it is paused for the build.
        """
        tree = cls(order)
        rank = order.rank
        by_rank = [0] * len(rank)
        for element, position in enumerate(rank):
            by_rank[position] = element
        records = r_collection.records
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            ranked = [sorted(map(rank.__getitem__, rec)) for rec in records]
            root = tree.root
            path = [root]  # path[d]: the previous set's node at depth d
            prev: List[int] = []
            end_rids: Optional[List[int]] = None  # the previous set's rids
            num_nodes = 1
            partition_elements = tree.partition_elements
            partition_counts = tree.partition_counts
            anchor = first = -1  # the current partition's rank and element
            anchor_elements: Set[int] = set()
            for rid in sorted(range(len(ranked)), key=ranked.__getitem__):
                key = ranked[rid]
                size = len(key)
                if end_rids is not None and key == prev:
                    end_rids.append(rid)
                else:
                    common = 0
                    limit = min(size, len(prev))
                    while common < limit and key[common] == prev[common]:
                        common += 1
                    del path[common + 1:]
                    node = path[common]
                    for position in key[common:]:
                        child = TreeNode((by_rank[position],))
                        node.children.append(child)
                        path.append(child)
                        node = child
                    end = TreeNode()
                    end.terminal_rids = end_rids = [rid]
                    node.children.append(end)
                    num_nodes += size - common + 1
                    prev = key
                if size:
                    # Sets sharing an anchor are adjacent in the sweep.
                    if key[0] != anchor:
                        anchor = key[0]
                        first = by_rank[anchor]
                        anchor_elements = partition_elements[first] = set()
                        partition_counts[first] = 0
                    anchor_elements.update(records[rid])
                    partition_counts[first] += 1
            tree.num_nodes = num_nodes
            tree.num_sets = len(ranked)
            appearance = {
                a: i for i, a in enumerate(
                    dict.fromkeys(by_rank[key[0]] for key in ranked if key)
                )
            }
            root.children.sort(
                key=lambda c: appearance[c.elements[0]] if c.elements else -1
            )
        finally:
            if was_enabled:
                gc.enable()
        return tree

    def insert(self, sorted_elements: Sequence[int], rid: int) -> None:
        """Insert one set (already sorted in the global order) with id ``rid``."""
        node = self.root
        if sorted_elements:
            anchor = sorted_elements[0]
            anchor_elements = self.partition_elements.get(anchor)
            if anchor_elements is None:
                self.partition_elements[anchor] = set(sorted_elements)
            else:
                anchor_elements.update(sorted_elements)
            counts = self.partition_counts
            counts[anchor] = counts.get(anchor, 0) + 1
        for e in sorted_elements:
            cmap = node.child_map
            if cmap is None:
                # Fresh node, or one laid down by the bulk build: build the
                # map from the existing children.
                cmap = {c.elements[0]: c for c in node.children if c.elements}
                node.child_map = cmap
            child = cmap.get(e)
            if child is None:
                child = TreeNode((e,))
                cmap[e] = child
                node.children.append(child)
                self.num_nodes += 1
            node = child
        end = None
        for c in node.children:
            if c.is_end_marker:
                end = c
                break
        if end is None:
            end = TreeNode()
            end.terminal_rids = []
            # End-markers first: they are the cheapest children to finalize.
            node.children.insert(0, end)
            self.num_nodes += 1
        end.terminal_rids.append(rid)
        self.num_sets += 1

    def compress(self) -> None:
        """Merge single-child chains in place (Patricia / radix trie, §IV-A).

        A node with exactly one child absorbs that child's elements and
        children, provided neither is an end-marker (end-markers carry rids
        and the root must stay element-free).
        """
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node is not self.root and not node.is_end_marker:
                while len(node.children) == 1 and not node.children[0].is_end_marker:
                    child = node.children[0]
                    node.elements = node.elements + child.elements
                    node.children = child.children
                    node.child_map = child.child_map
                    self.num_nodes -= 1
            stack.extend(node.children)
        self.compressed = True

    # -- incremental rebuild ------------------------------------------------

    def live_paths(
        self, dead: Container[int]
    ) -> Iterator[Tuple[Tuple[int, ...], List[int]]]:
        """``(path elements in tree order, surviving rids)`` per end-marker.

        Paths accumulate the element tuples along each root-to-end-marker
        walk, so they come out already sorted in ``self.order`` (for
        Patricia trees the merged tuples concatenate back into the original
        ordered prefix). End-markers whose rids are all in ``dead`` are
        skipped entirely.
        """
        stack: List[Tuple[TreeNode, Tuple[int, ...]]] = [(self.root, ())]
        while stack:
            node, prefix = stack.pop()
            for child in node.children:
                rids = child.terminal_rids
                if rids is not None:
                    live = [r for r in rids if r not in dead]
                    if live:
                        yield prefix, live
                else:
                    stack.append((child, prefix + child.elements))

    def compacted(self, dead: Container[int]) -> "PrefixTree":
        """A fresh tree without the ``dead`` rids; ``self`` is untouched.

        This is the build half of the epoch-swap scheme used by
        :class:`IncrementalPrefixTree`: the caller keeps serving reads from
        ``self`` while the survivor sets are re-inserted into a new tree,
        then swaps the reference. Paths from :meth:`live_paths` are already
        in tree order, so no re-sort happens here. The new tree shares
        ``self.order`` and is re-compressed when ``self`` was. It is *not*
        frozen: the incremental tries keep inserting into it and walk it
        by child map.
        """
        tree = PrefixTree(self.order)
        for prefix, rids in self.live_paths(dead):
            for rid in rids:
                tree.insert(prefix, rid)
        if self.compressed:
            tree.compress()
        return tree

    # -- subset queries ------------------------------------------------------

    def subsets_of(self, elements: Iterable[int]) -> List[int]:
        """Rids of every stored set contained in ``elements``, ascending.

        The one subset walk (the PRETTI/LIMIT direction of §IV prefix
        sharing): the event's elements are sorted in tree order, and a
        node at event position ``start`` descends only into children keyed
        by an event element after ``start``. When a node has a child map
        and at least as many children as event elements remain, those
        elements are looked up in the map; otherwise (a frozen tree, or a
        node with few children) the children are scanned against the
        event. Either way the cost follows the part of the tree the event
        covers, not the number of stored sets. Ids outside the order's
        universe cannot occur in the tree and are ignored.
        """
        rank = self.order.rank
        universe = len(rank)
        event = sorted(
            {e for e in elements if 0 <= e < universe}, key=rank.__getitem__
        )
        position = {e: i for i, e in enumerate(event)}
        out: List[int] = []
        stack: List[Tuple[TreeNode, int]] = [(self.root, 0)]
        while stack:
            node, start = stack.pop()
            children = node.children
            if not children:
                continue
            # End-markers are always a node's first child (see insert).
            if children[0].terminal_rids is not None:
                out.extend(children[0].terminal_rids)
            cmap = node.child_map
            if cmap is not None and len(event) - start <= len(children):
                children = [cmap[e] for e in event[start:] if e in cmap]
            for child in children:
                after = _past(child.elements, position)
                if after is not None:
                    stack.append((child, after))
        out.sort()
        return out

    # -- introspection -----------------------------------------------------

    def iter_nodes(self) -> Iterable[TreeNode]:
        """All nodes, root included, in DFS order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def depth(self) -> int:
        """Longest root-to-leaf path length (in nodes below the root)."""
        best = 0
        stack: List[Tuple[TreeNode, int]] = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            if not node.children and d > best:
                best = d
            for c in node.children:
                stack.append((c, d + 1))
        return best

    def distinct_elements(self) -> set:
        """The element ids appearing anywhere in the tree."""
        out: set = set()
        for node in self.iter_nodes():
            out.update(node.elements)
        return out

    def partition_roots(self) -> List[Tuple[int, "TreeNode"]]:
        """The root's element children as ``(anchor_element, subtree)`` pairs.

        The paper's partitioner (§V-A) groups ``R`` sets by their smallest
        element in the global order — which is exactly the subtree rooted at
        each child of the tree root. End-marker children of the root (sets
        that are empty after ordering — impossible for valid input) are
        excluded.
        """
        return [
            (c.elements[0], c) for c in self.root.children if not c.is_end_marker
        ]


def _past(elements: Tuple[int, ...], position: Dict[int, int]) -> Optional[int]:
    """Event position just past a node's elements, or None when one of
    them is missing from the event (or the node is an end-marker)."""
    at: Optional[int] = None
    for e in elements:
        at = position.get(e)
        if at is None:
            return None
    return None if at is None else at + 1


# -- incremental maintenance (epoch-swapped snapshots) ------------------------


class TrieSnapshot:
    """An immutable epoch view over an :class:`IncrementalPrefixTree`.

    The snapshot pins the tree object, the writer's tombstone map with its
    size at creation time, and the rid high-watermark. Later inserts land
    in the shared tree but carry rids ``>= rid_bound`` and are filtered at
    the end-markers. Later deletes append to the shared tombstone map with
    a death ordinal ``>= dead_mark``, so this view still counts those rids
    live. A compaction swaps the writer onto a *new* tree and a fresh map,
    leaving both pinned objects intact. Taking a snapshot therefore copies
    nothing, and a pinned reader never blocks and never observes a
    half-compacted structure.

    The contract is single-writer, non-interleaved walks: a
    :meth:`subsets_of` traversal must not be suspended mid-iteration while
    the writer mutates (the serve loop guarantees this by handling requests
    to completion, one at a time).
    """

    __slots__ = ("epoch", "tree", "dead", "dead_mark", "rid_bound", "live_count")

    def __init__(
        self,
        epoch: int,
        tree: PrefixTree,
        dead: Dict[int, int],
        rid_bound: int,
        live_count: int,
    ) -> None:
        self.epoch = epoch
        self.tree = tree
        self.dead = dead
        self.dead_mark = len(dead)
        self.rid_bound = rid_bound
        self.live_count = live_count

    def subsets_of(self, elements: Iterable[int]) -> List[int]:
        """Rids of live stored sets that are subsets of ``elements``.

        Runs :meth:`PrefixTree.subsets_of` to completion, then drops rids
        issued after this snapshot was taken (a cut of the sorted list)
        and rids tombstoned before it.
        """
        rids = self.tree.subsets_of(elements)
        if rids and rids[-1] >= self.rid_bound:
            del rids[bisect_left(rids, self.rid_bound) :]
        mark = self.dead_mark
        if not mark:
            return rids
        dead = self.dead
        return [r for r in rids if dead.get(r, mark) >= mark]

    def __len__(self) -> int:
        return self.live_count


class IncrementalPrefixTree:
    """A prefix tree with inserts, tombstone deletes and epoch compaction.

    The resident server's one subset-matching structure: its subset-query
    trie and the pubsub broker's subscription trie are both instances.
    Inserts go straight into the live tree under a
    dense, monotone rid discipline; deletes are tombstones; and once
    tombstones exceed ``compact_ratio`` of the live population the tree is
    rebuilt without them via :meth:`PrefixTree.compacted` and swapped in
    under a new epoch. Readers hold :meth:`snapshot` views and are never
    invalidated by the swap.

    Tombstones live in a map ``rid -> death ordinal`` (its size when the
    rid died). Entries are only ever added until a compaction replaces the
    map, so a snapshot pins the map and its current size instead of
    copying it.

    Elements are non-negative ints ordered by an identity
    :class:`~repro.core.order.GlobalOrder` that grows with the universe —
    frequency tuning is pointless under churn.
    """

    def __init__(
        self, compact_ratio: float = 0.5, *, auto_compact: bool = True
    ) -> None:
        if not 0.0 < compact_ratio <= 1.0:
            raise InvalidParameterError(
                f"compact_ratio must be in (0, 1], got {compact_ratio}"
            )
        self._order = GlobalOrder([], "element_id")
        self._tree = PrefixTree(self._order)
        self._dead: Dict[int, int] = {}
        # Live rids by membership, not by count: after a compaction wipes
        # the tombstone set, a count alone cannot tell "already compacted
        # away" from "still live" for an old rid.
        self._members: Set[int] = set()
        self._epoch = 0
        self._next_rid = 0
        self._compact_ratio = compact_ratio
        self._auto_compact = auto_compact

    # -- introspection ------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Bumped by every compaction; snapshots carry the epoch they pin."""
        return self._epoch

    @property
    def live_count(self) -> int:
        return len(self._members)

    @property
    def dead_count(self) -> int:
        return len(self._dead)

    @property
    def next_rid(self) -> int:
        """The rid the next :meth:`insert` will assign."""
        return self._next_rid

    @property
    def needs_compaction(self) -> bool:
        """True once tombstones exceed ``compact_ratio`` of the live sets."""
        return len(self._dead) > self._compact_ratio * max(len(self._members), 1)

    @property
    def tree(self) -> PrefixTree:
        """The live tree (for footprint metering; do not mutate)."""
        return self._tree

    def __len__(self) -> int:
        return len(self._members)

    # -- mutation -----------------------------------------------------------

    def insert(self, elements: Iterable[int], rid: Optional[int] = None) -> int:
        """Insert one set; returns its rid.

        Rids are assigned densely from 0. Passing ``rid`` explicitly is an
        assert-sync seam for callers that mirror another structure's id
        space (the serve layer keeps trie rids equal to index sids): it
        must equal the next dense rid or the call raises.
        """
        record = sorted({int(e) for e in elements})
        if not record:
            raise InvalidParameterError("cannot insert an empty set")
        if record[0] < 0:
            raise InvalidParameterError(
                f"element ids must be non-negative, got {record[0]}"
            )
        if rid is None:
            rid = self._next_rid
        elif rid != self._next_rid:
            raise InvalidParameterError(
                f"rids are dense and monotone: expected {self._next_rid}, "
                f"got {rid}"
            )
        self._next_rid = rid + 1
        self._order.extend_to(record[-1] + 1)
        self._tree.insert(self._order.sort_record(record), rid)
        self._members.add(rid)
        return rid

    def mark_dead(self, rid: int) -> bool:
        """Tombstone one rid; True if it was live.

        A clean no-op (returns False) for rids never issued or already
        dead. Crossing the ``compact_ratio`` threshold triggers an
        immediate compaction when ``auto_compact`` is on.
        """
        if rid not in self._members:
            return False
        self._members.discard(rid)
        self._dead[rid] = len(self._dead)
        if self._auto_compact and self.needs_compaction:
            self.compact()
        return True

    def compact(self) -> int:
        """Rebuild without tombstones, swap the tree in, bump the epoch.

        Existing snapshots keep the old tree and stay fully readable
        throughout; only readers that take a *new* snapshot see the new
        epoch.
        """
        self._tree = self._tree.compacted(self._dead)
        self._dead = {}
        self._epoch += 1
        reg = _obs.ACTIVE
        if reg is not None:
            reg.inc("tree.trie_compactions")
        return self._epoch

    # -- serialization -------------------------------------------------------

    def dump_state(self) -> Dict[str, object]:
        """The exact logical state as JSON-serializable primitives.

        ``paths`` walks *every* end-marker — dead rids included, because
        their nodes are still in the tree until the next compaction and
        the node count is part of the byte-exact footprint. The
        incremental tree is uncompressed (one element per node), so its
        shape is a canonical function of this path set and
        :meth:`restore_state` reproduces ``num_nodes`` exactly.
        """
        return {
            "epoch": self._epoch,
            "next_rid": self._next_rid,
            "dead": sorted(self._dead),
            "paths": [
                [list(prefix), list(rids)]
                for prefix, rids in self._tree.live_paths(frozenset())
            ],
        }

    @classmethod
    def restore_state(
        cls,
        payload: Dict[str, object],
        *,
        compact_ratio: float = 0.5,
        auto_compact: bool = True,
    ) -> "IncrementalPrefixTree":
        """Rebuild the exact tree a :meth:`dump_state` payload captured.

        Inserts go through :attr:`PrefixTree.insert` directly — the dense
        monotone rid discipline of :meth:`insert` does not apply to a
        replayed path set, whose rids arrive in tree order, not issue
        order.
        """
        trie = cls(compact_ratio, auto_compact=auto_compact)
        dead_rids = payload["dead"]
        dead = {int(rid): n for n, rid in enumerate(dead_rids)}  # type: ignore[arg-type]
        for prefix, rids in payload["paths"]:  # type: ignore[union-attr]
            elements = [int(e) for e in prefix]
            if elements:  # identity order: the last element is the largest
                trie._order.extend_to(elements[-1] + 1)
            for rid in map(int, rids):
                trie._tree.insert(elements, rid)
                if rid not in dead:
                    trie._members.add(rid)
        trie._dead = dead
        trie._next_rid = int(payload["next_rid"])  # type: ignore[arg-type]
        trie._epoch = int(payload["epoch"])  # type: ignore[arg-type]
        return trie

    # -- reading ------------------------------------------------------------

    def snapshot(self) -> TrieSnapshot:
        """Pin the current epoch for reading: O(1), nothing is copied."""
        return TrieSnapshot(
            self._epoch,
            self._tree,
            self._dead,
            self._next_rid,
            len(self._members),
        )

    def subsets_of(self, elements: Iterable[int]) -> List[int]:
        """Query the current state through a fresh snapshot."""
        return self.snapshot().subsets_of(elements)
