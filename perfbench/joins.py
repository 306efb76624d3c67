"""The batch-join phase: ``lcjoin`` self joins in four execution modes.

Every mode returns the full pair list (``collect="pairs"``, what ``lcjoin
join`` does by default). Each timed repetition starts from a collected heap
with the previous result dropped, one round before timing is a discarded
warm-up, and the reported figure is the per-mode mean. Results are checked
against a pinned digest (``oracle.json``) or, for a seed without one,
against the independent posting-set oracle of :class:`common.SetTable`.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import time
from typing import Dict, List, Optional, Tuple

from common import SetTable, Tally, mean, metric, pair_digest, sorted_digest, timed

from repro import set_containment_join
from repro.core.order import build_order
from repro.core.parallel import parallel_join
from repro.core.partition import lcjoin
from repro.core.results import make_sink
from repro.core.stats import JoinStats
from repro.data.collection import SetCollection
from repro.index.inverted import InvertedIndex
from repro.index.prefix_tree import PrefixTree
from repro.index.storage import HybridInvertedIndex

#: Execution modes, in the order each timed round runs them.
MODES: Tuple[Tuple[str, Dict[str, object]], ...] = (
    ("join_s", {}),
    ("join_hybrid_s", {"backend": "hybrid"}),
    ("join_workers2_s", {"workers": 2}),
    ("join_shards2_s", {"shards": 2}),
)

ORACLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle.json")


def load_pinned(workload: str, seed: int) -> Optional[Tuple[int, str]]:
    """The pinned ``(pairs, sha256)`` for this workload and seed, if any."""
    with open(ORACLE_PATH, encoding="utf-8") as handle:
        pins = json.load(handle)
    entry = pins.get(workload, {}).get(str(seed))
    if entry is None:
        return None
    return int(entry["pairs"]), str(entry["sha256"])


def oracle_digest(collection: SetCollection) -> Tuple[int, str]:
    """Digest of the self-join pairs found by :class:`common.SetTable`.

    Shares nothing with the library's join code. Pairs come out in
    ascending order, so they are hashed as they are found.
    """
    table = SetTable()
    for record in collection.records:
        table.add(record)
    return sorted_digest(
        (rid, sid)
        for rid, record in enumerate(collection.records)
        for sid in table.supersets(record)
    )


def expected_digest(
    workload: str, seed: int, collection: SetCollection
) -> Tuple[int, str]:
    pinned = load_pinned(workload, seed)
    if pinned is not None:
        return pinned
    return oracle_digest(collection)


def run_mode(collection: SetCollection, options: Dict[str, object]) -> List[Tuple[int, int]]:
    return set_containment_join(
        collection, collection, method="lcjoin", collect="pairs", **options
    )


def check_modes(
    collection: SetCollection, expected: Tuple[int, str], tally: Tally
) -> None:
    """The discarded warm-up round: every mode once, checked by digest."""
    for name, options in MODES:
        __, pairs = timed(lambda: run_mode(collection, options))
        tally.check(
            pair_digest(pairs) == expected,
            f"{name}: pair set differs from the oracle",
        )
        del pairs


def time_rounds(
    collection: SetCollection,
    expected: Tuple[int, str],
    seconds: float,
    samples: Dict[str, List[float]],
    tally: Tally,
) -> None:
    """Timed rounds of every mode for about ``seconds`` (at least one).

    Each repetition starts from a collected heap with the previous result
    dropped; every result is checked by pair count.
    """
    count = expected[0]
    deadline = time.perf_counter() + seconds
    while True:
        for name, options in MODES:
            elapsed, pairs = timed(lambda: run_mode(collection, options))
            tally.check(len(pairs) == count, f"{name}: {len(pairs)} pairs, want {count}")
            del pairs
            samples.setdefault(name, []).append(elapsed)
        if time.perf_counter() >= deadline:
            break
    gc.collect()


def join_metrics(samples: Dict[str, List[float]]) -> Dict[str, Dict[str, object]]:
    return {name: metric(mean(samples[name]), "s") for name, __ in MODES}


def _report_times(report, wall: float) -> Tuple[float, float, float, int, int]:
    """(busy, longest chunk, wait, attempts, retries) of a JoinReport."""
    busy = sum(a.duration for c in report.chunks for a in c.attempts)
    longest = max((c.wall_clock for c in report.chunks), default=0.0)
    attempts = sum(len(c.attempts) for c in report.chunks)
    retries = sum(c.retries for c in report.chunks)
    return busy, longest, max(0.0, wall - longest), attempts, retries


def join_layers(
    collection: SetCollection, expected: Tuple[int, str], tally: Tally
) -> Dict[str, Dict[str, object]]:
    """Per-layer timings and counters of one serial join and both coordinators."""
    count = expected[0]
    out: Dict[str, Dict[str, object]] = {}
    universe = collection.max_element() + 1

    t_order, order = timed(lambda: build_order(collection, universe=universe))
    t_index, index = timed(lambda: InvertedIndex.build(collection))
    t_tree, tree = timed(lambda: PrefixTree.build(collection, order))
    t_pack, packed = timed(lambda: HybridInvertedIndex.from_index(index))
    del packed
    out["order.build_s"] = metric(t_order, "s")
    out["index.build_s"] = metric(t_index, "s")
    out["tree.build_s"] = metric(t_tree, "s")
    out["tree.nodes"] = metric(tree.num_nodes, "count")
    out["index.pack_hybrid_s"] = metric(t_pack, "s")

    for key, backend in (("probe_s", "python"), ("probe_hybrid_s", "hybrid")):
        stats = JoinStats()
        sink = make_sink("count")
        elapsed, __ = timed(lambda: lcjoin(
            collection, collection, sink, order=order, index=index, tree=tree,
            stats=stats, backend=backend,
        ))
        tally.check(len(sink) == count, f"{key}: {len(sink)} results, want {count}")
        out[key] = metric(elapsed, "s")
        if backend == "python":
            out["join.binary_searches"] = metric(stats.binary_searches, "count")
            out["join.rounds"] = metric(stats.rounds, "count")
            out["join.partitions_local"] = metric(stats.partitions_local, "count")
            out["join.partitions_global"] = metric(stats.partitions_global, "count")
            out["join.index_build_tokens"] = metric(stats.index_build_tokens, "count")
            out["join.results"] = metric(len(sink), "count")
            out["probe.results_per_search"] = metric(
                len(sink) / max(1, stats.binary_searches), "ratio"
            )
            traced = t_order + t_index + t_tree + elapsed

    untraced, pairs = timed(lambda: run_mode(collection, {}))

    def emit():
        sink = make_sink("pairs")
        for rid, sid in pairs:
            sink.add(rid, sid)
        return sink

    t_emit, sink = timed(emit)
    tally.check(len(sink) == count, "emit: pair count changed")
    tally.check(pair_digest(pairs) == expected,
                "join_s: pair set differs from the oracle")
    out["emit_s"] = metric(t_emit, "s")
    # The layer-by-layer serial join against one untraced call.
    out["trace.overhead_ratio"] = metric((traced + t_emit) / untraced, "ratio")
    del sink, pairs

    for prefix, options in (("parallel", {"workers": 2}), ("shard", {"shards": 2})):
        wall, (pairs, report) = timed(lambda: parallel_join(
            collection, collection, method="lcjoin", return_report=True, **options
        ))
        tally.check(len(pairs) == count, f"{prefix}: {len(pairs)} pairs, want {count}")
        busy, longest, wait, attempts, retries = _report_times(report, wall)
        out[f"{prefix}.busy_s"] = metric(busy, "s")
        out[f"{prefix}.max_chunk_s"] = metric(longest, "s")
        out[f"{prefix}.wait_s"] = metric(wait, "s")
        if prefix == "parallel":
            out["parallel.attempts"] = metric(attempts, "count")
            out["parallel.retries"] = metric(retries, "count")
            out["parallel.result_bytes"] = metric(
                len(pickle.dumps(pairs, protocol=pickle.HIGHEST_PROTOCOL)), "bytes"
            )
        else:
            out["shard.speculated"] = metric(len(report.speculated_chunks), "count")
        del pairs, report
    gc.collect()
    return out
