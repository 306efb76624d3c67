"""In-memory container for a collection of sets.

A :class:`SetCollection` is the input type every join algorithm in this
library consumes: an ordered list of records, each record a duplicate-free
tuple of integer element ids. Records keep their insertion index as their id
(``rid`` for the left relation, ``sid`` for the right), matching the paper's
convention that inverted lists are "ordered by their subscripts".

Elements may be arbitrary hashable values at the boundary
(:meth:`SetCollection.from_iterable` maps them through an
:class:`ElementDictionary`), but internally everything is ``int`` so the hot
loops stay allocation-free.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import DatasetError

__all__ = ["ElementDictionary", "SetCollection", "CollectionStats"]


class ElementDictionary:
    """Bidirectional mapping between raw element values and dense int ids.

    Shared between the two sides of a join so that an element means the same
    id in ``R`` and ``S``.
    """

    def __init__(self) -> None:
        self._to_id: Dict[Hashable, int] = {}
        self._to_value: List[Hashable] = []

    def __len__(self) -> int:
        return len(self._to_value)

    def encode(self, value: Hashable) -> int:
        """Return the id for ``value``, assigning a fresh one if unseen."""
        eid = self._to_id.get(value)
        if eid is None:
            eid = len(self._to_value)
            self._to_id[value] = eid
            self._to_value.append(value)
        return eid

    def encode_existing(self, value: Hashable) -> Optional[int]:
        """Return the id for ``value`` or ``None`` if it was never seen."""
        return self._to_id.get(value)

    def decode(self, eid: int) -> Hashable:
        """Return the raw value for an element id."""
        return self._to_value[eid]

    def __contains__(self, value: Hashable) -> bool:
        return value in self._to_id


@dataclass(frozen=True)
class CollectionStats:
    """Summary statistics in the shape of the paper's Table II."""

    num_sets: int
    min_size: int
    max_size: int
    avg_size: float
    num_elements: int
    total_tokens: int

    def as_row(self) -> Tuple[int, str, int]:
        """Render as (``# of Sets``, ``Min/Max/Avg Size``, ``# of Elements``)."""
        return (
            self.num_sets,
            f"{self.min_size} / {self.max_size} / {self.avg_size:.1f}",
            self.num_elements,
        )


class SetCollection:
    """An ordered collection of integer sets, the join operand type.

    Records are stored as sorted tuples of distinct ints. The *storage* order
    is ascending element id; algorithms that need a different global order
    (e.g. descending frequency) re-sort views on demand via
    :meth:`record_in_order`.
    """

    def __init__(
        self,
        records: Iterable[Sequence[int]],
        dictionary: Optional[ElementDictionary] = None,
        validate: bool = True,
    ) -> None:
        self._records: List[Tuple[int, ...]] = []
        self._dictionary = dictionary
        append = self._records.append
        for i, rec in enumerate(records):
            tup = tuple(sorted(set(rec)))
            if validate:
                if not tup:
                    raise DatasetError(f"record {i} is empty; sets must be non-empty")
                if tup[0] < 0:
                    raise DatasetError(f"record {i} contains a negative element id")
            append(tup)

    # -- construction -----------------------------------------------------

    @classmethod
    def _trusted(
        cls,
        records: List[Tuple[int, ...]],
        dictionary: Optional[ElementDictionary] = None,
    ) -> "SetCollection":
        """Adopt records that are already normalised, without a copy.

        For records taken from another collection (sorted, duplicate-free
        int tuples): the list is adopted as it is, with no re-sort and no
        check. The caller hands it over and must not mutate it afterwards.
        """
        collection = cls.__new__(cls)
        collection._records = records
        collection._dictionary = dictionary
        return collection

    @classmethod
    def from_iterable(
        cls,
        sets: Iterable[Iterable[Hashable]],
        dictionary: Optional[ElementDictionary] = None,
    ) -> "SetCollection":
        """Build a collection from sets of arbitrary hashable elements.

        Pass the same ``dictionary`` for both join operands so element ids
        agree across them.
        """
        d = dictionary if dictionary is not None else ElementDictionary()
        encoded = ([d.encode(v) for v in rec] for rec in sets)
        return cls(encoded, dictionary=d)

    @classmethod
    def from_records(cls, records: Iterable[Sequence[int]]) -> "SetCollection":
        """Build a collection from already-encoded integer records."""
        return cls(records)

    def append(self, record: Iterable[Hashable]) -> int:
        """Append one set, returning its new id.

        Raw values are encoded through the collection's dictionary when it
        has one; otherwise the record must be integer element ids. This is
        the growth path for streaming workloads (see
        :meth:`repro.core.containment_index.ContainmentIndex.add`).
        """
        encoded = (
            [self._dictionary.encode(v) for v in record]
            if self._dictionary is not None
            else list(record)  # type: ignore[arg-type]
        )
        tup = tuple(sorted(set(encoded)))
        if not tup:
            raise DatasetError("cannot append an empty set")
        if tup[0] < 0:
            raise DatasetError("cannot append negative element ids")
        self._records.append(tup)
        return len(self._records) - 1

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return iter(self._records)

    def __getitem__(self, idx: int) -> Tuple[int, ...]:
        return self._records[idx]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetCollection):
            return NotImplemented
        return self._records == other._records

    def __repr__(self) -> str:
        return f"SetCollection({len(self._records)} sets)"

    # -- accessors ----------------------------------------------------------

    @property
    def records(self) -> List[Tuple[int, ...]]:
        """The underlying list of sorted element-id tuples (do not mutate)."""
        return self._records

    @property
    def dictionary(self) -> Optional[ElementDictionary]:
        """The element dictionary, if the collection was built through one."""
        return self._dictionary

    def record_in_order(self, idx: int, rank: Sequence[int]) -> List[int]:
        """Record ``idx`` with elements sorted by the global order ``rank``.

        ``rank[e]`` is the position of element ``e`` in the global order;
        smaller rank means earlier (see :mod:`repro.core.order`).
        """
        return sorted(self._records[idx], key=rank.__getitem__)

    def element_frequencies(self) -> Counter:
        """Count, for each element, in how many sets it occurs."""
        freq: Counter = Counter()
        for rec in self._records:
            freq.update(rec)
        return freq

    def max_element(self) -> int:
        """Largest element id present, or ``-1`` when there is none.

        Empty records (admitted by ``validate=False``) hold no element.
        """
        return max((rec[-1] for rec in self._records if rec), default=-1)

    def total_tokens(self) -> int:
        """Total number of element occurrences, ``Σ|S|`` in the cost model."""
        return sum(len(rec) for rec in self._records)

    def stats(self) -> CollectionStats:
        """Summary statistics in the shape of the paper's Table II."""
        if not self._records:
            return CollectionStats(0, 0, 0, 0.0, 0, 0)
        sizes = [len(rec) for rec in self._records]
        distinct = set()
        for rec in self._records:
            distinct.update(rec)
        total = sum(sizes)
        return CollectionStats(
            num_sets=len(self._records),
            min_size=min(sizes),
            max_size=max(sizes),
            avg_size=total / len(self._records),
            num_elements=len(distinct),
            total_tokens=total,
        )

    def sample(self, fraction: float, seed: int = 0) -> "SetCollection":
        """A deterministic prefix-free subsample used by the cardinality sweeps.

        The paper varies cardinality "using 20%, 40%, ... of the sets". We
        shuffle deterministically and take the first ``fraction`` of records
        so that the 20% sample is a subset of the 40% sample, mirroring how
        an incremental data load would behave.
        """
        if not 0.0 < fraction <= 1.0:
            raise DatasetError(f"fraction must be in (0, 1], got {fraction}")
        if fraction == 1.0:
            return self
        import random

        order = list(range(len(self._records)))
        random.Random(seed).shuffle(order)
        keep = sorted(order[: max(1, int(len(order) * fraction))])
        return SetCollection._trusted(
            [self._records[i] for i in keep], dictionary=self._dictionary
        )

    def decode_record(self, idx: int) -> List[Hashable]:
        """Record ``idx`` translated back through the element dictionary."""
        if self._dictionary is None:
            raise DatasetError("collection has no element dictionary to decode with")
        return [self._dictionary.decode(e) for e in self._records[idx]]
