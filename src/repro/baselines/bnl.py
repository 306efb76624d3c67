"""BNL — block nested loop with inverted-list intersection (Mamoulis,
SIGMOD'03; paper §VII).

The original intersection-oriented method: build the inverted index on
``S``, then for each ``R`` intersect its inverted lists *one by one*
("rip-cutting", shortest list first). Every entry of every intermediate list
is touched, which is exactly the cost the cross-cutting framework avoids.
"""

from __future__ import annotations

from typing import Optional

from ..core.stats import JoinStats
from ..data.collection import SetCollection
from ..index.inverted import InvertedIndex
from ..index.search import intersect_sorted, intersect_sorted_merge

__all__ = ["bnl_join"]


def bnl_join(
    r_collection: SetCollection,
    s_collection: SetCollection,
    sink,
    index: Optional[InvertedIndex] = None,
    gallop: bool = False,
    stats: Optional[JoinStats] = None,
) -> None:
    """Rip-cutting intersection join.

    ``gallop=True`` swaps the faithful linear-merge intersection for a
    skipping one — the ablation showing how much of LCJoin's advantage is
    pure intersection skipping.
    """
    if index is None:
        index = InvertedIndex.build(s_collection)
        if stats is not None:
            stats.index_build_tokens += index.construction_cost
    intersect = intersect_sorted if gallop else intersect_sorted_merge
    touched = 0
    for rid, record in enumerate(r_collection):
        if not record:
            # The empty set (validate=False) is contained in every set.
            sink.add_sids(rid, index.universe)
            continue
        lists = sorted(index.get_lists(record), key=len)
        if not lists or not lists[0]:
            continue
        result = lists[0]
        touched += len(result)
        for lst in lists[1:]:
            touched += len(lst) if not gallop else len(result)
            result = intersect(result, lst)
            if not result:
                break
        if result:
            sink.add_sids(rid, result)
    if stats is not None:
        stats.entries_touched += touched
