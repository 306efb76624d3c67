"""Inverted index on the superset-side collection ``S`` (paper §III-A).

For each distinct element ``e`` of ``S``, the index keeps the sorted list of
ids of the sets containing ``e``. Construction is a single sequential pass:
ids are appended in insertion order, which is already ascending, so no sort
is needed (exactly the procedure described in §III-A).

The index also provides **local index** construction (paper §V): given the
subset of ``S`` ids that contain a partition's anchor element, build a
smaller index whose lists are sub-lists of the global ones, optionally
restricted to the elements a partition actually probes.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..data.collection import SetCollection
from ..obs import registry as _obs

__all__ = ["InvertedIndex", "EMPTY_LIST"]

#: Shared immutable stand-in for "element not in S"; keeps probe code branchless.
EMPTY_LIST: Tuple[int, ...] = ()


def _debug_check(index: "InvertedIndex") -> None:
    """REPRO_CHECK=1 hook: validate sortedness after a build.

    The environment test runs first so the disabled path costs one dict
    lookup and never imports :mod:`repro.core.selfcheck` (which would pull
    the whole core package into index-only consumers).
    """
    if os.environ.get("REPRO_CHECK", "") in ("", "0"):
        return
    from ..core.selfcheck import check_sorted_lists

    check_sorted_lists(index)


class InvertedIndex:
    """Sorted inverted lists over a :class:`~repro.data.collection.SetCollection`.

    Attributes
    ----------
    lists:
        ``lists[e]`` is the ascending list of set ids containing element
        ``e``; missing elements map to the shared empty tuple.
    universe:
        Ascending list of **all** set ids covered by this index. For a
        global index this is ``[0, 1, ..., len(S)-1]``; for a local index it
        is the sub-list of ids that contain the partition anchor. The prefix
        tree's end-marker leaves use it as their virtual inverted list.
    inf_sid:
        The sentinel id standing for the paper's ``S_∞``: one past the
        largest id the *underlying collection* can produce.
    """

    __slots__ = ("lists", "universe", "inf_sid", "_construction_cost")

    def __init__(
        self,
        lists: Dict[int, List[int]],
        universe: Sequence[int],
        inf_sid: int,
        construction_cost: int = 0,
    ) -> None:
        self.lists: Dict[int, Sequence[int]] = dict(lists)
        self.universe: Sequence[int] = universe
        self.inf_sid = inf_sid
        self._construction_cost = construction_cost

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, s_collection: SetCollection) -> "InvertedIndex":
        """Build the global index for ``S`` in one sequential pass."""
        lists: Dict[int, List[int]] = {}
        cost = 0
        for sid, record in enumerate(s_collection):
            cost += len(record)
            for e in record:
                bucket = lists.get(e)
                if bucket is None:
                    lists[e] = [sid]
                else:
                    bucket.append(sid)
        n = len(s_collection)
        index = cls(lists, range(n), inf_sid=n, construction_cost=cost)
        reg = _obs.ACTIVE
        if reg is not None:
            reg.inc("index.builds")
            reg.inc("index.tokens", cost)
        _debug_check(index)
        return index

    def build_local(
        self,
        member_sids: Sequence[int],
        s_collection: SetCollection,
        needed_elements: Optional[Set[int]] = None,
    ) -> "InvertedIndex":
        """Build the local index ``I_e`` for a partition (paper §V-A).

        ``member_sids`` is the ascending list of ids of the ``S`` sets that
        contain the partition anchor (i.e. the global list ``I[e]``). Every
        local list is a sub-list of the corresponding global list, so the
        binary search cost of the tree-based method drops proportionally.

        ``needed_elements`` optionally restricts the lists materialised to
        the elements the partition's prefix tree actually contains; the sets
        are still scanned in full, so the metered construction cost stays
        ``Σ_{S ∈ I[e]} |S|`` as in the paper's cost estimate.
        """
        lists: Dict[int, List[int]] = {}
        cost = 0
        if needed_elements is None:
            for sid in member_sids:
                record = s_collection[sid]
                cost += len(record)
                for e in record:
                    bucket = lists.get(e)
                    if bucket is None:
                        lists[e] = [sid]
                    else:
                        bucket.append(sid)
        else:
            for sid in member_sids:
                record = s_collection[sid]
                cost += len(record)
                for e in record:
                    if e in needed_elements:
                        bucket = lists.get(e)
                        if bucket is None:
                            lists[e] = [sid]
                        else:
                            bucket.append(sid)
        local = InvertedIndex(
            lists,
            list(member_sids),
            inf_sid=self.inf_sid,
            construction_cost=cost,
        )
        reg = _obs.ACTIVE
        if reg is not None:
            reg.inc("index.local_builds")
            reg.inc("index.tokens", cost)
        _debug_check(local)
        return local

    def append_set(self, record: Sequence[int]) -> int:
        """Append one set to a *global* index, returning its new id.

        Ids are assigned monotonically, so each posting append keeps the
        lists sorted — the incremental form of :meth:`build`. Only global
        indexes (whose universe is the contiguous ``range``) support
        appends; a local index is a frozen restriction by construction.
        """
        if not isinstance(self.universe, range):
            raise ValueError("cannot append to a local (partition) index")
        sid = self.inf_sid
        for e in set(record):
            bucket = self.lists.get(e)
            if bucket is None:
                self.lists[e] = [sid]
            else:
                bucket.append(sid)
        self.inf_sid = sid + 1
        self.universe = range(self.inf_sid)
        self._construction_cost += len(record)
        if os.environ.get("REPRO_CHECK", "") not in ("", "0"):
            # Incremental form of _debug_check: a full O(index) validation
            # per append would swamp streaming workloads, but monotone ids
            # only need the last two entries of each touched bucket.
            from ..errors import InvariantViolation

            for e in set(record):
                bucket = self.lists[e]
                if len(bucket) >= 2 and bucket[-2] >= bucket[-1]:
                    raise InvariantViolation(
                        f"append_set broke sortedness of list {e}: "
                        f"...{bucket[-2]}, {bucket[-1]}"
                    )
        return sid

    # -- accessors ----------------------------------------------------------

    def __getitem__(self, element: int) -> Sequence[int]:
        """The inverted list of ``element`` (empty tuple if absent)."""
        return self.lists.get(element, EMPTY_LIST)

    def __contains__(self, element: int) -> bool:
        return element in self.lists

    def __len__(self) -> int:
        """Number of distinct elements indexed."""
        return len(self.lists)

    def list_length(self, element: int) -> int:
        """``|I[e]|`` — 0 for elements not in ``S``."""
        lst = self.lists.get(element)
        return len(lst) if lst is not None else 0

    def get_lists(self, elements: Iterable[int]) -> List[Sequence[int]]:
        """The inverted lists for a record, empty tuples included."""
        get = self.lists.get
        return [get(e, EMPTY_LIST) for e in elements]

    def int_span(self, element: int) -> Tuple[Sequence[int], int, int]:
        """Element's list as ``(seq, lo, hi)``: here the whole list."""
        lst = self.lists.get(element, EMPTY_LIST)
        return lst, 0, len(lst)

    @property
    def construction_cost(self) -> int:
        """Tokens touched while building — ``Σ|S|`` in the paper's cost model."""
        return self._construction_cost

    def size_in_entries(self) -> int:
        """Total number of postings, an analytic memory proxy."""
        return sum(len(lst) for lst in self.lists.values())
