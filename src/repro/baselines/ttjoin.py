"""TT-Join — tree-tree signature join (Yang et al., ICDE'17 / VLDBJ'18;
paper §VII).

For each ``R``, the signature is its ``k`` **least frequent** elements
(``k = 3`` in the paper's experiments). A prefix tree is built on the
signatures (ordered ascending by frequency, so the signature is simply each
set's first ``k`` elements in that order) and a second prefix tree on the
full ``S`` sets in the same order. The two trees are traversed
simultaneously: wherever a signature path embeds as a subsequence of an
``S`` path, every ``S`` set at or below that point is a candidate for every
``R`` set carrying the signature, and candidates are verified with a subset
check.

Implementation: one DFS over the ``S`` tree carrying the list of signature
nodes still *active* on the current path. Descending an ``S`` edge with
element ``e`` turns each active node into (a) its ``e``-child if it has one
— a signature element consumed; completed signatures emit right here, since
the subtree span below covers every deeper ``S`` set — and (b) itself, kept
alive only while some signature below it still needs an element ranked
after ``e`` (element ids grow monotonically along both trees' paths, so
lower-ranked needs can never be met deeper). The embedding of a sorted
signature into a sorted path is unique, hence no duplicate candidates.

The paper's Fig 10 observes TT-Join's "two sparse tree structures" cost it
memory — this reproduction keeps both trees too, plus the per-node sid spans
used to enumerate candidate subtrees in O(answer).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.order import GlobalOrder, build_order
from ..core.stats import JoinStats
from ..core.verify import is_subset_sorted
from ..data.collection import SetCollection
from ..index.prefix_tree import PrefixTree, TreeNode

__all__ = ["tt_join", "DEFAULT_K"]

DEFAULT_K = 3


def _sid_spans(tree: PrefixTree) -> Tuple[List[int], Dict[int, Tuple[int, int]]]:
    """Flatten terminal sids into DFS order; give every node its span.

    ``spans[id(node)] = (lo, hi)`` such that ``flat[lo:hi]`` are exactly the
    sids at or below ``node`` — the classic Euler-interval trick, letting the
    matcher turn "all sets under this subtree" into a slice.
    """
    flat: List[int] = []
    spans: Dict[int, Tuple[int, int]] = {}
    # Two-phase stack: record the start offset on the way down, close the
    # span on the way back up.
    stack: List[Tuple[TreeNode, bool]] = [(tree.root, False)]
    starts: Dict[int, int] = {}
    while stack:
        node, processed = stack.pop()
        if not processed:
            starts[id(node)] = len(flat)
            if node.terminal_rids is not None:
                flat.extend(node.terminal_rids)
            stack.append((node, True))
            for child in node.children:
                stack.append((child, False))
        else:
            spans[id(node)] = (starts.pop(id(node)), len(flat))
    return flat, spans


class _SigNode:
    """Signature-tree node in matcher-friendly form.

    ``end_rids`` are the R ids whose signature completes here; ``children``
    maps the next signature element to the deeper node; ``max_needed`` is
    the largest element rank any signature below still needs — the pruning
    bound for skip-descent.
    """

    __slots__ = ("children", "end_rids", "max_needed")

    def __init__(self) -> None:
        self.children: Dict[int, "_SigNode"] = {}
        self.end_rids: Optional[List[int]] = None
        self.max_needed = -1


def _build_sig_tree(
    r_collection: SetCollection, order: GlobalOrder, k: int
) -> Tuple[_SigNode, int]:
    """Prefix tree over the k-least-frequent-element signatures."""
    rank = order.rank
    root = _SigNode()
    num_nodes = 1
    for rid, record in enumerate(r_collection):
        ordered = order.sort_record(record)[:k]
        node = root
        for e in ordered:
            child = node.children.get(e)
            if child is None:
                child = _SigNode()
                node.children[e] = child
                num_nodes += 1
            r = rank[e]
            if r > node.max_needed:
                node.max_needed = r
            node = child
        if node.end_rids is None:
            node.end_rids = []
        node.end_rids.append(rid)
    # Propagate max_needed upward: a node must stay active while anything
    # in its subtree still needs a later element.
    def finalize(node: _SigNode) -> int:
        best = node.max_needed
        for child in node.children.values():
            sub = finalize(child)
            if sub > best:
                best = sub
        node.max_needed = best
        return best

    # k is small (3 by default), so recursion depth is bounded by k.
    finalize(root)
    return root, num_nodes


def tt_join(
    r_collection: SetCollection,
    s_collection: SetCollection,
    sink,
    k: int = DEFAULT_K,
    order: Optional[GlobalOrder] = None,
    stats: Optional[JoinStats] = None,
) -> None:
    """Signature tree vs data tree join with verification."""
    if k < 1:
        from ..errors import InvalidParameterError

        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if order is None:
        universe = max(r_collection.max_element(), s_collection.max_element()) + 1
        order = build_order(s_collection, kind="freq_asc", universe=universe)

    sig_root, sig_nodes = _build_sig_tree(r_collection, order, k)
    # Empty sets (validate=False) end at the signature root, which the
    # traversal below never matches; each is contained in every S set.
    for rid in sig_root.end_rids or ():
        sink.add_sids(rid, range(len(s_collection)))
    s_tree = PrefixTree.build(s_collection, order)
    flat_sids, spans = _sid_spans(s_tree)
    if stats is not None:
        stats.tree_nodes += sig_nodes + s_tree.num_nodes
        # Both trees are construction work, like the others' inverted index.
        stats.index_build_tokens += s_collection.total_tokens()
        stats.index_build_tokens += sum(
            min(k, len(rec)) for rec in r_collection
        )

    rank = order.rank
    r_records = r_collection.records
    s_records = s_collection.records
    add = sink.add
    candidates = 0
    # Unit work of the simultaneous traversal: one (S-node, active
    # signature-node) check; plus the verification scans. Without these the
    # method's dominant costs would be invisible to the cost comparison.
    touched = 0

    # DFS over the S tree, carrying the signature nodes active on this path.
    stack: List[Tuple[TreeNode, List[_SigNode]]] = [(s_tree.root, [sig_root])]
    while stack:
        ns, active = stack.pop()
        for cs in ns.children:
            if cs.terminal_rids is not None:
                continue
            e = cs.elements[0]
            rank_e = rank[e]
            surviving: List[_SigNode] = []
            for nr in active:
                touched += 1
                matched = nr.children.get(e)
                if matched is not None:
                    if matched.end_rids is not None:
                        # Signature complete at cs: candidates are every S
                        # set at or below this node.
                        lo, hi = spans[id(cs)]
                        for rid in matched.end_rids:
                            record = r_records[rid]
                            touched += (hi - lo) * len(record)
                            for j in range(lo, hi):
                                sid = flat_sids[j]
                                candidates += 1
                                if is_subset_sorted(record, s_records[sid]):
                                    add(rid, sid)
                    if matched.children:
                        surviving.append(matched)
                if nr.max_needed > rank_e:
                    # Something below nr still needs an element ranked after
                    # e, so it may appear deeper on this S branch.
                    surviving.append(nr)
            if surviving:
                stack.append((cs, surviving))
    if stats is not None:
        stats.candidates += candidates
        stats.entries_touched += touched
