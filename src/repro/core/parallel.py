"""Multiprocess set containment joins with a shared superset-side index.

The containment join is embarrassingly parallel on the subset side: for any
split ``R = R₁ ∪ R₂``, ``R ⋈⊆ S = (R₁ ⋈⊆ S) ∪ (R₂ ⋈⊆ S)``. This module
splits ``R``, joins each chunk against ``S`` in a worker process with any
registered method, and remaps the chunk-local rids back to the original ids.

All workers join against the *same* ``S``, so the expensive superset-side
structures are built **once in the parent** and distributed instead of being
rebuilt per worker:

* ``backend="csr"`` / ``backend="hybrid"`` — the array index
  (:class:`~repro.index.storage.CSRInvertedIndex` or its bitmap-carrying
  :class:`~repro.index.storage.HybridInvertedIndex` subclass) is exported
  to ``multiprocessing.shared_memory``; every worker attaches the same
  physical pages (zero-copy, constant cost per worker regardless of index
  size). When shared memory is unavailable the index rides along
  fork-inherited buffers, and as a last resort it is pickled into the
  jobs. The partitioned methods build *local* indexes per partition, so
  they ship the python index whatever the backend and repack in-worker.
* ``backend="python"`` — the :class:`~repro.index.inverted.InvertedIndex`
  (and, for the tree/partition methods, the frequency
  :class:`~repro.core.order.GlobalOrder`) is built once and pickled into
  each job. Measured on the AOL surrogate at scale 0.002 (73k sets, 183k
  postings): one parent-side build 29 ms + 11 ms ``dumps``, then ~31 ms
  ``loads`` per worker — per-worker cost comparable to a rebuild in pure
  wall-clock, but the build work is paid once instead of ``workers``
  times, the ``order`` rebuild (a full frequency count) *is* eliminated
  per worker, and the pickle blob (0.6 MB here) ships over the same pipe
  the job already uses. The CSR path above removes even that copy.

Chunking. For the methods that take a global ``order`` (``tree``,
``tree_et``, ``all_partition``, ``lcjoin``) the default is
``strategy="partition"``: whole smallest-element partitions (§V) are dealt
to chunks by longest-processing-time on an estimated cost
(:func:`plan_partition_split`), so each chunk holds whole root subtrees of
the serial prefix tree and builds only its own partitions' local indexes.
A partition heavier than a chunk's fair share is dealt record by record
instead, so the run always gets exactly the requested number of chunks
(speculation, requeue granularity and the run manifest depend on it). On
the AOL surrogate (5,822 sets) at 8 chunks this cut the binary searches
summed over the chunks from 171,768 (round-robin) to 69,456 (serial:
38,508) and the prefix-tree nodes from 14,772 to 12,019 (serial: 11,688
plus one root per extra chunk, plus the one partition dealt). The other
methods default to ``strategy="round_robin"``: record ``i`` goes to chunk
``i % chunks``. Contiguous equal-size chunks (``strategy="contiguous"``)
skew badly when record sizes are correlated with position — common after
frequency reordering or sorted data loads — leaving one worker with all the
big sets.

Transport. A chunk's pairs never become tuples in the worker: they are
emitted into a :class:`~repro.core.results.ColumnSink`, remapped to global
rids with one numpy add or gather, and shipped as a
:class:`~repro.core.results.ChunkResult` — two ``int64`` columns plus the
worker's :class:`~repro.core.stats.JoinStats` — through the supervisor,
the shard protocol, the run log's spills and resumed chunks unchanged. The
parent concatenates the columns in chunk-id order and builds the pair list
once; with ``collect="count"`` a chunk ships only its count.

Since the chunks are independently re-executable, worker failures are
recoverable: dispatch runs through :class:`~repro.core.supervisor
.Supervisor`, which detects crashed and hung workers, retries chunks with
capped exponential backoff (``retries=``, ``task_timeout=``, ``backoff=``),
downgrades the payload path when shared memory misbehaves, and — after
exhausting retries — falls back to in-process execution on the python
backend. ``return_report=True`` returns the structured
:class:`~repro.core.results.JoinReport` of all that alongside the pairs;
see the "Failure model" section of ``docs/internals.md``.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import multiprocessing
import os
import time
import uuid
import warnings
from itertools import chain
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .shard import ShardPolicy

from ..data.collection import SetCollection
from ..errors import (
    DeadlineExceededError,
    DegradedExecutionWarning,
    InvalidParameterError,
    JoinCancelledError,
)
from ..faults import FaultPlan
from ..index.inverted import InvertedIndex
from ..index.storage import CSRInvertedIndex, HybridInvertedIndex, SharedCSRHandle
from ..memory.meter import collection_footprint
from ..obs.registry import active_or_null
from ..obs.spans import trace_span
from .api import BACKEND_METHODS, BACKENDS, join_into
from .order import GlobalOrder, build_order
from .results import (
    AttemptRecord,
    ChunkReport,
    ChunkResult,
    ColumnSink,
    CountSink,
    JoinReport,
)
from .runlog import (
    CancelToken,
    RunLog,
    RunManifest,
    collection_fingerprint,
    deadline_at,
    signal_cancellation,
)
from .stats import JoinStats
from .supervisor import Supervisor

__all__ = [
    "parallel_join",
    "split_collection",
    "plan_partition_split",
    "apply_partition_split",
    "build_method_index",
]

#: How the superset-side index ships to a worker: tagged payload resolved
#: by :func:`_resolve_index` — ("direct"|"pickle", index), ("shm", handle),
#: or ("fork", token).
_IndexPayload = Tuple[str, Any]

#: A planned partition split: ``(anchor, chunk)`` pairs sorted by anchor;
#: chunk ``-1`` deals that partition's records round-robin.
PartitionSplit = List[Tuple[int, int]]

#: Methods that accept a prebuilt global ``index=`` (superset side).
_INDEX_METHODS = frozenset(
    {"framework", "framework_et", "tree", "tree_et", "all_partition", "lcjoin"}
)
#: The subset of those that probe the global index directly and therefore
#: consume an array (CSR/hybrid) ``index=`` as-is. The partitioned methods
#: need the python index API (anchor lists, ``build_local``) and repack
#: per partition, so they always ship the python index.
_ARRAY_INDEX_METHODS = frozenset({"framework", "framework_et", "tree", "tree_et"})
#: Methods that accept a prebuilt global ``order=`` as well.
_ORDER_METHODS = frozenset({"tree", "tree_et", "all_partition", "lcjoin"})

#: Fork-inherited payloads: populated in the parent immediately before the
#: workers fork, read by workers through copy-on-write memory, and dropped
#: in the parent's ``finally``. Keyed by id so nested/concurrent joins
#: cannot collide.
_FORK_SHARED: Dict[int, CSRInvertedIndex] = {}


def _partition_keys(
    collection: SetCollection, order: GlobalOrder
) -> Tuple[np.ndarray, np.ndarray]:
    """Each record's partition anchor and its rarest element's S-frequency.

    The anchor is the record's smallest element in ``order``, i.e. its
    first element in the prefix tree, so records sharing an anchor form
    one root subtree (§V). An empty record (only possible with
    ``validate=False``) gets the anchor ``-1``. Both columns come from one
    segmented minimum over the flattened records.
    """
    records = collection.records
    lengths = np.fromiter(map(len, records), dtype=np.int64, count=len(records))
    flat = np.fromiter(
        chain.from_iterable(records), dtype=np.int64, count=int(lengths.sum())
    )
    rank = np.asarray(order.rank, dtype=np.int64)
    freq = np.zeros(len(rank), dtype=np.int64)
    for element, count in order.frequency.items():
        if element < len(freq):
            freq[element] = count
    anchors = np.full(len(records), -1, dtype=np.int64)
    rarest = np.zeros(len(records), dtype=np.int64)
    nonempty = lengths > 0
    if flat.size:
        # Empty records own no tokens, so the non-empty records' starts
        # delimit contiguous, non-empty segments of ``flat``.
        starts = (np.cumsum(lengths) - lengths)[nonempty]
        by_rank = np.empty_like(rank)
        by_rank[rank] = np.arange(len(rank))
        anchors[nonempty] = by_rank[np.minimum.reduceat(rank[flat], starts)]
        rarest[nonempty] = np.minimum.reduceat(freq[flat], starts)
    return anchors, rarest


def plan_partition_split(
    collection: SetCollection, chunks: int, order: GlobalOrder
) -> PartitionSplit:
    """Deal whole smallest-element partitions to ``chunks`` chunks.

    A partition's cost is estimated as ``freq_S(e) + Σ_{r ∈ R_e}
    max(1, min_{x ∈ r} freq_S(x))``: the length of the superset list
    ``I[e]`` its local index is built from, plus, per set, the length of
    its rarest element's list, which bounds both the set's results and its
    probe work. (``|R_e| · freq_S(e)`` alone left one of two chunks 2.3x
    heavier than the other on the AOL surrogate, because it charges a
    set of rare elements like one of frequent ones.) Partitions are placed
    heaviest first on the least-loaded chunk (longest-processing-time), so
    each chunk gets whole root subtrees of the serial prefix tree and
    builds only its own local indexes. A partition costing more than a
    chunk's fair share (``total / chunks``) is instead dealt record by
    record, round-robin, across all chunks. If some chunk would still be
    empty (fewer partitions than chunks), every partition is dealt, which
    is exactly :func:`split_collection`'s ``round_robin`` split.

    Returns the split as ``(anchor, chunk)`` pairs sorted by anchor, with
    chunk ``-1`` marking a dealt partition; :func:`apply_partition_split`
    turns it into chunks. The run manifest stores this list, so a resumed
    run rebuilds the identical chunks without planning again.
    """
    chunks = min(chunks, len(collection))
    if chunks == 0:
        return []
    keys, rarest = _partition_keys(collection, order)
    anchors, partition_of, sizes = np.unique(
        keys, return_inverse=True, return_counts=True
    )
    base = np.array([order.frequency[e] for e in anchors.tolist()], dtype=np.float64)
    cost = base + np.bincount(
        partition_of, weights=np.maximum(1, rarest), minlength=len(anchors)
    )
    heavy = cost > cost.sum() / chunks
    dealt = heavy[partition_of]
    dealt_chunk = np.arange(int(dealt.sum())) % chunks
    per_record = (cost / sizes)[partition_of[dealt]]
    loads = np.bincount(dealt_chunk, weights=per_record, minlength=chunks)
    counts = np.bincount(dealt_chunk, minlength=chunks)
    heap = [(float(loads[c]), int(counts[c]), c) for c in range(chunks)]
    heapq.heapify(heap)
    chunk_of = np.full(len(anchors), -1, dtype=np.int64)
    light = np.flatnonzero(~heavy)
    for p in light[np.lexsort((anchors[light], -sizes[light], -cost[light]))]:
        load, count, chunk = heapq.heappop(heap)
        chunk_of[p] = chunk
        heapq.heappush(heap, (load + float(cost[p]), count + int(sizes[p]), chunk))
    if any(count == 0 for __, count, __ in heap):
        chunk_of[:] = -1
    return list(zip(anchors.tolist(), chunk_of.tolist()))


def apply_partition_split(
    collection: SetCollection,
    chunks: int,
    order: GlobalOrder,
    split: PartitionSplit,
) -> List[List[int]]:
    """The global rid list of each chunk under a planned partition split.

    Records of a whole partition go to its chunk; records of dealt
    partitions (chunk ``-1``) go round-robin in rid order, one shared
    counter across all dealt partitions. Rids stay ascending within each
    chunk.
    """
    keys, __ = _partition_keys(collection, order)
    ordered = sorted(split)
    anchors = np.array([a for a, __ in ordered], dtype=np.int64)
    targets = np.array([c for __, c in ordered], dtype=np.int64)
    at = np.minimum(np.searchsorted(anchors, keys), max(0, len(anchors) - 1))
    unknown = (
        np.flatnonzero(anchors[at] != keys) if len(anchors) else np.arange(len(keys))
    )
    if len(unknown):
        rid = int(unknown[0])
        raise InvalidParameterError(
            f"partition split names no chunk for anchor {int(keys[rid])} "
            f"of record {rid}"
        )
    chunk_of = targets[at]
    dealt = chunk_of < 0
    chunk_of[dealt] = np.arange(int(dealt.sum())) % chunks
    by_chunk = np.argsort(chunk_of, kind="stable")
    bounds = np.searchsorted(chunk_of[by_chunk], np.arange(chunks + 1))
    return [by_chunk[bounds[c]: bounds[c + 1]].tolist() for c in range(chunks)]


def split_collection(
    collection: SetCollection,
    chunks: int,
    strategy: str = "contiguous",
    order: Optional[GlobalOrder] = None,
    split: Optional[PartitionSplit] = None,
) -> List[Tuple[Union[int, List[int]], SetCollection]]:
    """Split into up to ``chunks`` pieces together with their rid mapping.

    ``strategy="contiguous"`` yields equal-size runs and an ``int`` rid
    offset per piece. ``strategy="round_robin"`` deals record ``i`` to
    piece ``i % chunks`` and yields the explicit global-rid list per piece;
    it balances per-chunk work when record sizes are sorted (e.g. after a
    frequency reorder), where contiguous runs would put all the large sets
    in one chunk. ``strategy="partition"`` needs the global ``order`` and
    keeps smallest-element partitions whole (:func:`plan_partition_split`,
    or the given ``split`` when resuming a recorded one). Every strategy
    yields exactly ``min(chunks, len(collection))`` non-empty pieces.
    """
    if chunks < 1:
        raise InvalidParameterError(f"chunks must be >= 1, got {chunks}")
    n = len(collection)
    if n == 0:
        return []
    chunks = min(chunks, n)
    records = collection.records
    out: List[Tuple[Union[int, List[int]], SetCollection]] = []
    if strategy == "contiguous":
        size = (n + chunks - 1) // chunks
        for lo in range(0, n, size):
            piece = SetCollection._trusted(records[lo: lo + size])
            out.append((lo, piece))
        return out
    if strategy == "round_robin":
        rid_lists = [list(range(c, n, chunks)) for c in range(chunks)]
    elif strategy == "partition":
        if order is None:
            raise InvalidParameterError("strategy='partition' needs an order")
        if split is None:
            split = plan_partition_split(collection, chunks, order)
        rid_lists = apply_partition_split(collection, chunks, order, split)
    else:
        raise InvalidParameterError(
            f"unknown split strategy {strategy!r}; "
            "expected 'contiguous', 'round_robin' or 'partition'"
        )
    for rids in rid_lists:
        piece = SetCollection._trusted([records[i] for i in rids])
        out.append((rids, piece))
    return out


def build_method_index(
    s_collection: SetCollection,
    method: str,
    backend: str,
    index: Optional[Union[InvertedIndex, CSRInvertedIndex]] = None,
) -> Optional[Union[InvertedIndex, CSRInvertedIndex]]:
    """The superset-side index this ``(method, backend)`` pair consumes.

    One decision point shared by the driver (which builds once and ships
    the result to every worker) and by shard nodes (which build their own
    copy in-process — sharded runs share no memory across nodes). The
    array-probing methods take the CSR/hybrid index directly; the
    partitioned methods need the python index API (anchor lists,
    ``build_local``) whatever the backend and repack per partition; the
    baselines build their own structures and take no index at all. A
    caller-provided ``index`` is converted when the backend needs the
    array form, and passed through otherwise.
    """
    if backend != "python" and method in _ARRAY_INDEX_METHODS:
        cls = HybridInvertedIndex if backend == "hybrid" else CSRInvertedIndex
        if index is None:
            return cls.build(s_collection)
        if isinstance(index, InvertedIndex):
            return cls.from_index(index)
        return index
    if index is None and method in _INDEX_METHODS:
        return InvertedIndex.build(s_collection)
    return index


def _resolve_index(
    payload: Optional[_IndexPayload],
) -> Optional[Union[InvertedIndex, CSRInvertedIndex]]:
    """Turn a shipped index payload back into a probe-ready index."""
    if payload is None:
        return None
    kind, value = payload
    if kind == "direct" or kind == "pickle":
        return value
    if kind == "shm":
        # Dispatch on the handle's kind tag through the class methods (not
        # attach_shared_index) so tests can monkeypatch attachment per class.
        if getattr(value, "kind", "csr") == "hybrid":
            return HybridInvertedIndex.from_shared_memory(value)
        return CSRInvertedIndex.from_shared_memory(value)
    if kind == "fork":
        return _FORK_SHARED[value]
    raise InvalidParameterError(f"unknown index payload {kind!r}")


class ChunkJob(NamedTuple):
    """Everything one chunk attempt needs, as shipped to a worker.

    ``collect="count"`` makes the worker return only the pair count.
    """

    rid_map: Union[int, List[int]]
    r_chunk: SetCollection
    s_collection: SetCollection
    method: str
    backend: str
    payload: Optional[_IndexPayload]
    extra: Dict[str, Any]
    kwargs: Dict[str, Any]
    collect: str = "pairs"


def _join_chunk(args: Tuple[Any, ...]) -> ChunkResult:
    """Join one chunk in this process; rids come back global.

    The chunk's pairs land in a :class:`ColumnSink`, so no per-pair tuple
    is built here, and the chunk-local rids are mapped back with one numpy
    add (contiguous offset) or gather (explicit rid list). The worker's
    counters ride along in ``ChunkResult.stats``.
    """
    job = ChunkJob(*args)
    kw = dict(job.kwargs)
    kw.update(job.extra)
    index = _resolve_index(job.payload)
    # Segments attached from shared memory must be detached even when the
    # join raises: an exception that leaves the attachment open pins the
    # mapping (and, pre-3.13, keeps the resource tracker believing the
    # worker still uses it) for the rest of the worker's lifetime. The
    # creator's unlink in parallel_join's ``finally`` does not release
    # *this worker's* mapping — only close() does.
    attached = job.payload is not None and job.payload[0] == "shm"
    try:
        if index is not None:
            kw["index"] = index
        stats = JoinStats()
        sink: Union[ColumnSink, CountSink] = (
            CountSink() if job.collect == "count" else ColumnSink()
        )
        join_into(
            job.r_chunk, job.s_collection, sink, method=job.method,
            stats=stats, backend=job.backend, **kw,
        )
        if isinstance(sink, CountSink):
            return ChunkResult(count=len(sink), stats=stats)
        rids, sids = sink.columns()
        if isinstance(job.rid_map, int):
            rids += job.rid_map
        else:
            rids = np.asarray(job.rid_map, dtype=np.int64)[rids]
        return ChunkResult(rids, sids, len(sids), stats)
    finally:
        if attached and isinstance(index, CSRInvertedIndex):
            index.close()


def _merge_results(
    results: List[ChunkResult], collect: str, stats: Optional[JoinStats]
) -> Union[List[Tuple[int, int]], int]:
    """Fold settled chunks (in chunk-id order) into the caller's answer.

    Only settled results reach here — a superseded speculative twin's
    result and counters were dropped when its chunk settled — so every
    counter merged into ``stats`` belongs to exactly one winning attempt.
    The pair list is built once, from the concatenated columns.
    """
    if stats is not None:
        for result in results:
            if result.stats is not None:
                stats.merge(result.stats)
    if collect == "count":
        return sum(result.count for result in results)
    rids = np.concatenate([result.rids for result in results])
    sids = np.concatenate([result.sids for result in results])
    # Every few hundred new tuples would trigger a young collection that
    # can free nothing (the tuples are all live): pause the collector for
    # the bulk build.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return list(zip(rids.tolist(), sids.tolist()))
    finally:
        if was_enabled:
            gc.enable()


# -- memory-budget admission control ---------------------------------------
#
# Analytic bytes-per-entry figures for the admission model, derived from the
# structures' actual layouts: a pure-python posting/record entry is a boxed
# int in a tuple slot (28-byte small int + 8-byte pointer, amortised over
# CPython's allocation rounding ≈ 96 bytes with the per-list overheads
# folded in); a CSR entry is one int32 value + one int64 composite key plus
# the amortised offsets row. These deliberately over-estimate — admission
# control exists to avoid the OOM killer, and the meter's analytic
# footprints (entries, not bytes) stay the ground truth for *relative*
# comparisons.
_PY_BYTES_PER_ENTRY = 96
_CSR_BYTES_PER_ENTRY = 24
#: Fixed per-chunk overhead (job tuple, pipe buffers, interpreter slack).
_CHUNK_FIXED_BYTES = 1 << 16


def _admit_memory(
    budget: int,
    r_entries: int,
    s_entries: int,
    workers: int,
    num_chunks: int,
    max_chunks: int,
    backend: str,
    allow_split: bool,
    index_shared: Optional[bool] = None,
) -> Tuple[int, int, List[str]]:
    """Fit the run under ``memory_budget`` bytes; returns the adjusted plan.

    The model: the superset-side index is a *fixed* cost paid once when it
    is shared (CSR via shm/fork) and a *per-worker* cost when it is pickled
    into each job (python backend); each concurrent worker additionally
    holds one R-chunk. Two knobs, applied in order: split R into more
    (smaller) chunks until one worker fits, then cap the number of
    concurrent workers so the sum fits. ``allow_split=False`` (resume: the
    chunk split is fixed by the manifest) only caps workers. Raises
    :class:`InvalidParameterError` when even the minimal configuration
    (one worker, single-record chunks) exceeds the budget.

    ``index_shared`` overrides the backend-derived sharing assumption:
    sharded runs pass ``False`` because every shard node builds its own
    index copy (no cross-shard shared memory), so even the array backends
    pay the index per concurrent node there.
    """
    per_entry = _PY_BYTES_PER_ENTRY
    index_bytes = s_entries * (
        _CSR_BYTES_PER_ENTRY
        if backend in ("csr", "hybrid")
        else _PY_BYTES_PER_ENTRY
    )
    shared_index = (
        backend in ("csr", "hybrid") if index_shared is None else index_shared
    )
    fixed = index_bytes if shared_index else 0
    per_worker_index = 0 if shared_index else index_bytes
    avail = budget - fixed

    def chunk_cost(chunks: int) -> int:
        return -(-r_entries // chunks) * per_entry + _CHUNK_FIXED_BYTES

    if avail < per_worker_index + chunk_cost(max_chunks):
        raise InvalidParameterError(
            f"memory_budget={budget} cannot admit this join: the "
            f"{'shared ' if shared_index else ''}index costs "
            f"{index_bytes} bytes and the smallest possible worker needs "
            f"{per_worker_index + chunk_cost(max_chunks)} more; raise the "
            "budget or shrink the inputs"
        )
    notes: List[str] = []
    metrics = active_or_null()
    if allow_split and per_worker_index + chunk_cost(num_chunks) > avail:
        max_entries = (avail - per_worker_index - _CHUNK_FIXED_BYTES) // per_entry
        new_chunks = min(max_chunks, -(-r_entries // max(1, max_entries)))
        if new_chunks > num_chunks:
            notes.append(
                f"memory budget {budget}: R split into {new_chunks} chunks "
                f"(was {num_chunks}) so one chunk fits a worker"
            )
            metrics.inc("supervisor.memory_splits")
            num_chunks = new_chunks
    allowed = int(avail // max(1, per_worker_index + chunk_cost(num_chunks)))
    if allowed < workers:
        allowed = max(1, allowed)
        notes.append(
            f"memory budget {budget}: concurrency capped at {allowed} "
            f"worker(s) (was {workers})"
        )
        metrics.inc("supervisor.memory_caps")
        workers = allowed
    return num_chunks, workers, notes


def parallel_join(
    r_collection: SetCollection,
    s_collection: SetCollection,
    method: str = "lcjoin",
    workers: Optional[int] = None,
    backend: str = "python",
    strategy: Optional[str] = None,
    index: Optional[Union[InvertedIndex, CSRInvertedIndex]] = None,
    retries: int = 2,
    task_timeout: Optional[float] = None,
    backoff: float = 0.05,
    backoff_cap: float = 2.0,
    fallback: bool = True,
    faults: Optional[FaultPlan] = None,
    return_report: bool = False,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    deadline: Optional[float] = None,
    memory_budget: Optional[int] = None,
    cancel: Optional[CancelToken] = None,
    shards: Optional[int] = None,
    shard_policy: Optional["ShardPolicy"] = None,
    collect: str = "pairs",
    stats: Optional[JoinStats] = None,
    **kwargs: Any,
) -> Union[
    List[Tuple[int, int]], int, Tuple[Union[List[Tuple[int, int]], int], JoinReport]
]:
    """Join with ``workers`` processes (defaults to the CPU count).

    Returns the pair list (rids refer to ``r_collection``) — or, with
    ``collect="count"``, only the number of pairs, which the workers then
    ship instead of their pairs — or ``(result, report)`` with
    ``return_report=True``. With one worker (or one chunk) everything runs
    in-process, so tests and small inputs pay no fork cost.

    ``stats`` receives the algorithm counters of every chunk's *settled*
    attempt (probes, rounds, index builds, tree nodes, ...); counters of
    failed attempts and of a speculative twin that lost its race are
    dropped, and chunks loaded from a checkpoint contribute none. The
    caller adds ``results`` and ``elapsed_seconds``.

    The superset-side index is built **once** here and shared with every
    worker — via shared memory for the array backends (``"csr"`` and
    ``"hybrid"``; zero-copy attach, bitmap rows included), via pickling for
    the Python backend (see the module docstring for the measured
    pickle-vs-rebuild costs). Pass a prebuilt ``index=`` to skip
    even the single parent-side build, e.g. when issuing many joins against
    the same ``S``. ``strategy`` selects the ``R`` chunking
    (:func:`split_collection`). By default the methods that take a global
    ``order`` split by whole smallest-element partitions
    (``"partition"``) and the others deal records round-robin
    (``"round_robin"``).

    Multi-process runs are supervised: each chunk is a tracked task with up
    to ``retries`` re-dispatches (exponential ``backoff`` capped at
    ``backoff_cap``) and an optional per-attempt ``task_timeout`` that
    catches hung workers. A chunk whose retries are exhausted falls back to
    in-process python-backend execution unless ``fallback=False``, in which
    case :class:`~repro.errors.WorkerFailedError` /
    :class:`~repro.errors.JoinTimeoutError` is raised. ``faults`` (or the
    ``REPRO_FAULTS`` environment variable) injects deterministic worker
    faults for testing — see :mod:`repro.faults`.

    **Durability.** ``checkpoint_dir=`` arms the run log
    (:mod:`repro.core.runlog`): a write-ahead manifest (recording the
    chunk split) plus one atomic, checksummed spill per settled chunk, so
    a driver crash loses at most the in-flight chunks. Checkpointed runs
    always ship pairs, since a spill holds them, even for
    ``collect="count"``. ``resume=True`` validates the manifest against
    the current datasets/parameters (refusing with
    :class:`~repro.errors.ResumeMismatchError` on mismatch; the default
    ``strategy=None`` adopts the manifest's), rebuilds the recorded
    chunks, loads every verified spill, and dispatches only the
    remainder; torn spills are discarded and re-executed. While a
    checkpoint is armed SIGINT/SIGTERM cancel the run *cooperatively*:
    in-flight workers are killed, settled spills stay on disk, the
    ABORTED marker is written, and
    :class:`~repro.errors.JoinCancelledError` is raised. ``deadline=``
    bounds the run's wall clock the same way
    (:class:`~repro.errors.DeadlineExceededError`), and
    ``memory_budget=`` (bytes) admission-controls the plan — oversized
    chunks are split and concurrency capped, each decision recorded in the
    report and warned as :class:`~repro.errors.DegradedExecutionWarning`.

    **Sharding.** ``shards=N`` replaces the shared-memory worker pool with
    the scale-out coordinator (:class:`~repro.core.shard.ShardCoordinator`):
    N independent long-lived *nodes*, each building its own index copy —
    no cross-shard shared memory — with per-shard heartbeats, straggler
    speculation, and whole-shard crash recovery (``shard_policy=`` tunes
    the thresholds). ``workers`` is ignored in this mode; ``retries``,
    ``backoff``/``backoff_cap``, ``fallback``, ``faults`` and the whole
    durability contract above apply unchanged, so a killed coordinator
    resumes a sharded run exactly like a killed driver resumes a pooled
    one.
    """
    workers = workers if workers is not None else multiprocessing.cpu_count()
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    if backend not in BACKENDS:
        raise InvalidParameterError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend != "python" and method not in BACKEND_METHODS:
        raise InvalidParameterError(
            f"backend={backend!r} is only supported by "
            f"{sorted(BACKEND_METHODS)}; got method={method!r}"
        )
    if collect not in ("pairs", "count"):
        raise InvalidParameterError(
            f"parallel joins collect 'pairs' or 'count', got {collect!r}"
        )
    if deadline is not None and deadline <= 0:
        raise InvalidParameterError(f"deadline must be positive, got {deadline}")
    if memory_budget is not None and memory_budget <= 0:
        raise InvalidParameterError(
            f"memory_budget must be positive, got {memory_budget}"
        )
    if resume and checkpoint_dir is None:
        raise InvalidParameterError("resume=True requires checkpoint_dir=")
    if shards is not None and shards < 1:
        raise InvalidParameterError(f"shards must be >= 1, got {shards}")
    if shard_policy is not None and shards is None:
        raise InvalidParameterError("shard_policy= requires shards=")
    if faults is None:
        faults = FaultPlan.from_env()

    use_shards = shards is not None
    policy: Optional["ShardPolicy"] = None
    if use_shards:
        # Lazy import: shard.py consumes this module's job machinery, so
        # the modules are mutually recursive by design (as with api.py).
        from .shard import ShardCoordinator, ShardPolicy

        policy = shard_policy if shard_policy is not None else ShardPolicy()

    n_records = len(r_collection)
    if shards is not None and policy is not None:
        # More chunks than shards keeps requeue/speculation granular: a
        # dead shard re-runs a slice of its work, not all of it.
        num_chunks = shards * policy.chunks_per_shard
    else:
        num_chunks = workers
    runlog: Optional[RunLog] = None
    completed: Dict[int, ChunkResult] = {}
    discarded: List[int] = []
    split: Optional[PartitionSplit] = None
    kwargs_repr = repr(sorted(kwargs.items()))
    if checkpoint_dir is not None and n_records > 0:
        r_fp = collection_fingerprint(r_collection)
        s_fp = collection_fingerprint(s_collection)
        if resume and RunLog.exists(checkpoint_dir):
            runlog = RunLog.open(checkpoint_dir, plan=faults)
            runlog.manifest.validate(
                r_fp, s_fp, method, backend,
                strategy if strategy is not None else runlog.manifest.strategy,
                kwargs_repr, n_records,
            )
            # The manifest's chunk split is authoritative: spilled chunk
            # ids only name the same work under the same split. ``workers``
            # still caps concurrency below.
            num_chunks = runlog.manifest.num_chunks
            strategy = runlog.manifest.strategy
            split = runlog.manifest.split
            runlog.reclaim_stale_segments()
            completed, discarded = runlog.load_chunks()
    if strategy is None:
        strategy = "partition" if method in _ORDER_METHODS else "round_robin"

    admission_notes: List[str] = []
    if memory_budget is not None and n_records > 0:
        concurrency = shards if shards is not None else workers
        num_chunks, concurrency, admission_notes = _admit_memory(
            memory_budget,
            collection_footprint(r_collection),
            collection_footprint(s_collection),
            concurrency,
            num_chunks,
            max_chunks=n_records,
            backend=backend,
            allow_split=runlog is None,
            index_shared=False if use_shards else None,
        )
        if use_shards:
            shards = concurrency
        else:
            workers = concurrency
        for note in admission_notes:
            warnings.warn(note, DegradedExecutionWarning, stacklevel=2)

    extra: Dict[str, Any] = {}
    order: Optional[GlobalOrder] = kwargs.get("order")
    if n_records > 0 and order is None and (
        method in _ORDER_METHODS or strategy == "partition"
    ):
        universe = max(
            r_collection.max_element(), s_collection.max_element()
        ) + 1
        order = build_order(s_collection, universe=universe)
        if method in _ORDER_METHODS:
            extra["order"] = order
    if strategy == "partition" and split is None and order is not None:
        split = plan_partition_split(r_collection, num_chunks, order)
    chunks = split_collection(
        r_collection, num_chunks, strategy=strategy, order=order, split=split
    )
    if not chunks:
        report = JoinReport(workers=workers)
        empty: Union[List[Tuple[int, int]], int] = 0 if collect == "count" else []
        return (empty, report) if return_report else empty
    if runlog is None and checkpoint_dir is not None:
        manifest = RunManifest(
            run_id=uuid.uuid4().hex,
            r_fingerprint=r_fp,
            s_fingerprint=s_fp,
            method=method,
            backend=backend,
            strategy=strategy,
            kwargs_repr=kwargs_repr,
            num_chunks=len(chunks),
            n_records=n_records,
            created=time.time(),
            split=split,
        )
        runlog = RunLog.create(checkpoint_dir, manifest, plan=faults)

    if runlog is not None and len(completed) == len(chunks):
        # Every chunk already settled durably (e.g. resuming a COMPLETE
        # run): no index build, no dispatch — just merge the spills.
        report = JoinReport(
            chunks=[
                ChunkReport(
                    chunk=i,
                    size=len(piece),
                    attempts=[
                        AttemptRecord(
                            number=0, mode="checkpoint",
                            outcome="resumed", duration=0.0,
                        )
                    ],
                )
                for i, (__, piece) in enumerate(chunks)
            ],
            workers=workers,
            fault_plan=faults.describe() if faults is not None else None,
            resumed_chunks=sorted(completed),
            reexecuted_chunks=sorted(discarded),
            checkpoint_dir=checkpoint_dir,
        )
        runlog.mark_complete()
        resumed = _merge_results(
            [completed[i] for i in range(len(chunks))], collect, stats
        )
        return (resumed, report) if return_report else resumed

    # A spill holds the chunk's pairs, so checkpointed runs ship pairs
    # even when the caller only wants the count.
    ship = collect if runlog is None else "pairs"
    shared_index = (
        None
        if use_shards
        else build_method_index(s_collection, method, backend, index)
    )

    in_process = not use_shards and (len(chunks) == 1 or workers == 1)
    handle: Optional[SharedCSRHandle] = None
    fork_token: Optional[int] = None
    own_token = cancel is None
    token = cancel
    if token is None and (runlog is not None or deadline is not None):
        token = CancelToken()
    deadline_mark = deadline_at(deadline)
    with contextlib.ExitStack() as scope:
        if runlog is not None and token is not None:
            # Durable runs turn SIGINT/SIGTERM into a graceful abort:
            # settle-or-kill in-flight chunks, flush spills, write ABORTED.
            scope.enter_context(signal_cancellation(token))
        try:
            primary_mode = "none"
            payloads: Dict[str, Optional[_IndexPayload]] = {"none": None, "local": None}
            if shared_index is not None:
                payloads["pickle"] = ("pickle", shared_index)
                if in_process:
                    primary_mode = "direct"
                    payloads["direct"] = ("direct", shared_index)
                elif backend != "python" and isinstance(
                    shared_index, CSRInvertedIndex
                ):
                    try:
                        handle = shared_index.to_shared_memory()
                        primary_mode = "shm"
                        payloads["shm"] = ("shm", handle)
                    except OSError:
                        # No usable /dev/shm (containers with tiny or absent
                        # shm mounts). Fall back to fork-inherited copy-on-
                        # write pages, then to plain pickling.
                        if multiprocessing.get_start_method() == "fork":
                            fork_token = id(shared_index)
                            _FORK_SHARED[fork_token] = shared_index
                            primary_mode = "fork"
                            payloads["fork"] = ("fork", fork_token)
                        else:  # pragma: no cover - non-fork platforms only
                            primary_mode = "pickle"
                else:
                    primary_mode = "pickle"
            if runlog is not None and handle is not None:
                # Persist the segment names: a hard driver kill leaks them
                # in /dev/shm, and resume reclaims exactly this list.
                runlog.record_segments([name for name, __, __ in handle.segments])

            def make_job(chunk_id: int, mode: str) -> ChunkJob:
                rid_map, piece = chunks[chunk_id]
                if mode == "local":
                    # Degradation terminus: in-process, pure-python backend,
                    # method builds its own chunk-scoped structures. Slowest
                    # path, fewest moving parts.
                    return ChunkJob(rid_map, piece, s_collection, method,
                                    "python", None, extra, kwargs, ship)
                return ChunkJob(rid_map, piece, s_collection, method, backend,
                                payloads[mode], extra, kwargs, ship)

            on_result = runlog.record_chunk if runlog is not None else None
            by_chunk: Dict[int, ChunkResult]
            if in_process:
                by_chunk, report = _run_in_process(
                    chunks,
                    make_job,
                    primary_mode,
                    completed=completed,
                    on_result=on_result,
                    cancel=token,
                    deadline_mark=deadline_mark,
                )
            elif shards is not None and policy is not None:
                coordinator = ShardCoordinator(
                    chunks=chunks,
                    s_collection=s_collection,
                    method=method,
                    backend=backend,
                    extra=extra,
                    kwargs=kwargs,
                    shards=shards,
                    policy=policy,
                    retries=retries,
                    backoff=backoff,
                    backoff_cap=backoff_cap,
                    fallback=fallback,
                    plan=faults,
                    make_job=make_job,
                    runner=_join_chunk,
                    on_result=on_result,
                    cancel=token,
                    deadline_mark=deadline_mark,
                    completed=completed,
                    collect=ship,
                )
                by_chunk = coordinator.run()
                report = coordinator.report
            else:
                supervisor = Supervisor(
                    num_chunks=len(chunks),
                    make_job=make_job,
                    runner=_join_chunk,
                    primary_mode=primary_mode,
                    workers=workers,
                    retries=retries,
                    task_timeout=task_timeout,
                    backoff=backoff,
                    backoff_cap=backoff_cap,
                    fallback=fallback,
                    plan=faults,
                    chunk_sizes=[len(piece) for __, piece in chunks],
                    on_result=on_result,
                    cancel=token,
                    deadline_at=deadline_mark,
                    completed=completed,
                )
                by_chunk = supervisor.run()
                report = supervisor.report
        except BaseException as exc:
            if runlog is not None:
                runlog.mark_aborted(f"{type(exc).__name__}: {exc}")
            raise
        finally:
            if handle is not None:
                handle.cleanup()
            if fork_token is not None:
                _FORK_SHARED.pop(fork_token, None)
            if own_token and token is not None:
                token.close()
    report.degradations.extend(admission_notes)
    if runlog is not None:
        runlog.mark_complete()
        report.checkpoint_dir = checkpoint_dir
        report.reexecuted_chunks = sorted(discarded)
        report.degradations.extend(runlog.notes)
    with trace_span("parallel.merge"):
        # Chunk-id order, not settle order: the pair list is identical
        # however retries, speculation and requeues shuffled the work.
        out = _merge_results(
            [by_chunk[i] for i in range(len(chunks))], collect, stats
        )
    if (
        backend != "python"
        and isinstance(out, list)
        and os.environ.get("REPRO_CHECK", "") not in ("", "0")
    ):
        # REPRO_CHECK=1 sanitizer: the merged pair set against a serial
        # python-backend join (size-capped inside).
        from .selfcheck import crosscheck_backends

        crosscheck_backends(r_collection, s_collection, out, method, backend=backend)
    return (out, report) if return_report else out


def _run_in_process(
    chunks: List[Tuple[Union[int, List[int]], SetCollection]],
    make_job: Callable[[int, str], ChunkJob],
    primary_mode: str,
    completed: Optional[Dict[int, ChunkResult]] = None,
    on_result: Optional[Callable[[int, int, ChunkResult], None]] = None,
    cancel: Optional[CancelToken] = None,
    deadline_mark: Optional[float] = None,
) -> Tuple[Dict[int, ChunkResult], JoinReport]:
    """The no-fork fast path, reported in the same shape as supervised runs.

    Honours the same durability contract as the supervised path: resumed
    chunks are merged without re-execution, each settled chunk streams
    through ``on_result``, and cancellation/deadline are checked between
    chunks (a cooperative abort cannot interrupt a chunk mid-join without
    a worker process to kill).
    """
    completed = completed or {}
    report = JoinReport(workers=1)
    metrics = active_or_null()
    results: Dict[int, ChunkResult] = {}
    start = time.perf_counter()
    for chunk_id, (__, piece) in enumerate(chunks):
        if chunk_id in completed:
            results[chunk_id] = completed[chunk_id]
            report.chunks.append(
                ChunkReport(
                    chunk=chunk_id,
                    size=len(piece),
                    attempts=[
                        AttemptRecord(
                            number=0, mode="checkpoint",
                            outcome="resumed", duration=0.0,
                        )
                    ],
                )
            )
            report.resumed_chunks.append(chunk_id)
            continue
        if cancel is not None and cancel.cancelled:
            metrics.inc("supervisor.cancellations")
            raise JoinCancelledError(
                cancel.reason or "cancelled", chunk_id, len(chunks)
            )
        if deadline_mark is not None and time.monotonic() >= deadline_mark:
            metrics.inc("supervisor.deadline_aborts")
            raise DeadlineExceededError(
                "overall deadline exceeded", chunk_id, len(chunks)
            )
        t0 = time.perf_counter()
        result = _join_chunk(make_job(chunk_id, primary_mode))
        results[chunk_id] = result
        if on_result is not None:
            on_result(chunk_id, 1, result)
        report.chunks.append(
            ChunkReport(
                chunk=chunk_id,
                size=len(piece),
                attempts=[
                    AttemptRecord(
                        number=1,
                        mode=primary_mode,
                        outcome="ok",
                        duration=time.perf_counter() - t0,
                    )
                ],
            )
        )
    report.elapsed_seconds = time.perf_counter() - start
    return results, report
