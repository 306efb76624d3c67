"""Durability-tax benchmark: fsync-on-ack publish vs the in-memory server.

The acceptance gate for the write-ahead log is *relative*: with one
million resident subscriptions (``REPRO_BENCH_SERVE_SUBS`` overrides for
CI smoke runs), steady-state publish p99 through the durable state —
every op appended and checksummed before its ack, in one-op group
commits — must stay within 2x of the in-memory path measured in the
same run. A publish record carries a count and digest of the matched
ids and forces no fsync of its own (``UNFORCED_OPS`` in
``repro.serve.wal``). Measuring both sides in one process keeps the
comparison immune to machine drift; the absolute in-memory baseline is
pinned separately in ``BENCH_serve.json``.

Emits ``benchmarks/results/BENCH_serve_durable.json``.
"""

from __future__ import annotations

import json
import os
import random
import time

import pytest

from repro.serve.state import LatencyRecorder, ServeState
from repro.serve.wal import DurableServeState

#: Resident subscription population (shared with benchmarks/test_serve.py).
NUM_SUBS = int(os.environ.get("REPRO_BENCH_SERVE_SUBS", "1000000"))
VOCAB = 50_000
MEASURED = 300
WARMUP = 20

#: The acceptance gate: durable p99 within this factor of in-memory p99.
MAX_DURABLE_RATIO = 2.0

_results = {}


def _keywords(rng, k):
    # The same mildly skewed draw as benchmarks/test_serve.py, so the two
    # reports describe the same workload.
    return [
        f"k{rng.randint(0, 199)}" if rng.random() < 0.5
        else f"k{rng.randint(0, VOCAB - 1)}"
        for _ in range(k)
    ]


def _populate(state, seed):
    rng = random.Random(seed)
    started = time.perf_counter()
    for _ in range(NUM_SUBS):
        state.broker.subscribe(frozenset(_keywords(rng, rng.randint(1, 4))))
    subscribe_seconds = time.perf_counter() - started
    # Keep the first publish out of the timed loop.
    state.handle("publish", {"keywords": _keywords(rng, 12)}, None)
    state.sync()
    return subscribe_seconds


def _measure_publishes(state, seed):
    rng = random.Random(seed)
    rec = LatencyRecorder(capacity=MEASURED)
    matched = 0
    for _ in range(WARMUP):
        state.handle("publish", {"keywords": _keywords(rng, 12)}, None)
        state.sync()
    started = time.perf_counter()
    for _ in range(MEASURED):
        t0 = time.perf_counter()
        out = state.handle("publish", {"keywords": _keywords(rng, 12)}, None)
        # The latency that matters is the *acknowledgeable* one: for the
        # durable state that includes the group commit.
        state.sync()
        rec.record(time.perf_counter() - t0)
        matched += out["count"]
    wall = time.perf_counter() - started
    summary = rec.summary()
    summary["ops_per_second"] = MEASURED / wall if wall else 0.0
    summary["total_matched"] = matched
    return summary


def _cell(summary, subscribe_seconds):
    return {
        "subscriptions": NUM_SUBS,
        "subscribe_seconds": round(subscribe_seconds, 3),
        "measured_publishes": MEASURED,
        "total_matched": summary["total_matched"],
        "publish_p50_ms": round(summary["p50_ms"], 4),
        "publish_p99_ms": round(summary["p99_ms"], 4),
        "publish_mean_ms": round(summary["mean_ms"], 4),
        "publishes_per_second": round(summary["ops_per_second"], 1),
    }


def test_publish_memory_vs_durable(benchmark, tmp_path):
    """One run, both paths: the identical op stream, with and without WAL."""

    def job():
        memory = ServeState()
        build = _populate(memory, seed=42)
        _results["memory"] = _cell(_measure_publishes(memory, seed=7), build)

        durable = DurableServeState(
            data_dir=str(tmp_path / "bench-data"),
            # Far above the measured op count: checkpoint cost is a
            # different (amortised) cell, not part of per-op ack latency.
            snapshot_every=1_000_000,
        )
        build = _populate(durable, seed=42)
        summary = _measure_publishes(durable, seed=7)
        _results["durable"] = _cell(summary, build)
        _results["durable"]["wal_records"] = durable.wal.last_seq
        _results["durable"]["wal_bytes"] = os.path.getsize(durable.wal.path)
        durable.wal.close()  # no shutdown checkpoint: 1M-sub snapshot
        # The two states saw byte-identical publish streams.
        assert (
            _results["durable"]["total_matched"]
            == _results["memory"]["total_matched"]
        )

    benchmark.pedantic(job, rounds=1, iterations=1)


def test_serve_durable_report(benchmark):
    """Assert the 2x gate and write BENCH_serve_durable.json."""
    if "durable" not in _results:
        pytest.skip("the comparison cell did not run")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    memory_p99 = _results["memory"]["publish_p99_ms"]
    durable_p99 = _results["durable"]["publish_p99_ms"]
    ratio = durable_p99 / memory_p99 if memory_p99 else float("inf")
    out_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "BENCH_serve_durable.json")
    report = {
        "figure": "serve_durable",
        "subscriptions": NUM_SUBS,
        "gate": {"max_durable_to_memory_p99_ratio": MAX_DURABLE_RATIO},
        "observed": {
            "memory_publish_p99_ms": memory_p99,
            "durable_publish_p99_ms": durable_p99,
            "p99_ratio": round(ratio, 4),
        },
        "cells": _results,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    assert ratio <= MAX_DURABLE_RATIO, (durable_p99, memory_p99, ratio)
