"""PSJ — Partitioned Set Join (Ramasamy, Patel, Naughton & Kaushik,
VLDB'00; paper §VII).

A hash function maps elements onto ``num_partitions`` buckets. Every ``R``
set lands in exactly one bucket — that of one designated element (here its
first element, any fixed choice works) — while every ``S`` set is
*replicated* into the bucket of each of its distinct element hashes, since a
superset must contain the designated element whatever it is. Pairs are then
verified bucket-locally.

The replication of ``S`` and the residual quadratic verification inside
buckets are why partition-based union-oriented methods fell behind
(paper §VII); the extra benchmark shows it directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.stats import JoinStats
from ..core.verify import is_subset_sorted
from ..data.collection import SetCollection
from ..errors import InvalidParameterError

__all__ = ["psj_join"]


def _bucket_of(element: int, num_partitions: int) -> int:
    return (element * 2654435761) % num_partitions


def psj_join(
    r_collection: SetCollection,
    s_collection: SetCollection,
    sink,
    num_partitions: int = 64,
    stats: Optional[JoinStats] = None,
) -> None:
    """Partition, replicate ``S``, verify within buckets."""
    if num_partitions < 1:
        raise InvalidParameterError(
            f"num_partitions must be >= 1, got {num_partitions}"
        )
    r_buckets: Dict[int, List[int]] = {}
    for rid, record in enumerate(r_collection):
        if not record:
            # The empty set (validate=False) is contained in every set.
            sink.add_sids(rid, range(len(s_collection)))
            continue
        b = _bucket_of(record[0], num_partitions)
        r_buckets.setdefault(b, []).append(rid)

    s_buckets: Dict[int, List[int]] = {}
    for sid, record in enumerate(s_collection):
        seen = set()
        for e in record:
            b = _bucket_of(e, num_partitions)
            if b not in seen:
                seen.add(b)
                s_buckets.setdefault(b, []).append(sid)

    r_records = r_collection.records
    s_records = s_collection.records
    add = sink.add
    candidates = 0
    for b, rids in r_buckets.items():
        sids = s_buckets.get(b)
        if not sids:
            continue
        for rid in rids:
            record = r_records[rid]
            for sid in sids:
                candidates += 1
                if is_subset_sorted(record, s_records[sid]):
                    add(rid, sid)
    if stats is not None:
        stats.candidates += candidates
