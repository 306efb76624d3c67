"""Backend gate for the paper's method: ``lcjoin`` on python, csr and hybrid.

The end-to-end cost of ``set_containment_join(R, R, method="lcjoin")``
returning the full pair list, serial, with the probe-side index on each
backend, on the AOL surrogate at 50 % of its base scale (short sets, many
results) and the TWITTER surrogate (long sets, probe-heavy). Backends
alternate within each repetition, every repetition starts from a collected
heap, and each cell is the median of ``REPS`` repetitions. Beside the join
cells, each workload records the median seconds of ``PrefixTree.build``
(the ``tree.build`` layer) over ``REPS`` builds.

The tree traversal reads list items one at a time, so an array backend
cannot make it faster than python lists; what it can do is cost little
more. It still costs about 14 % more on both workloads, so the ROADMAP
target (hybrid at least as fast as python) is not met: the array backends
pack the global index and every partition-local one into numpy arrays
before probing, and a memoryview item read allocates the int that a list
read finds ready-made. The gate is on ``hybrid / python`` per workload: it
must stay at or below the ratio measured when the gate was set plus the
run-to-run noise measured alongside it (``MEASURED`` and ``NOISE`` below;
both are written to ``BENCH_tree_backends.json``). The gate runs on any
CPU count: the figures were taken on a 2-CPU VM, the box the tests run on.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import statistics
import time
from typing import Dict, List, Tuple

import pytest

from repro import set_containment_join
from repro.core.order import build_order
from repro.index.prefix_tree import PrefixTree

from conftest import BASE_SCALES, bench_scale, real_dataset

WORKLOADS = {"aol@50%": ("aol", 0.5), "twitter": ("twitter", 1.0)}
BACKENDS = ("python", "csr", "hybrid")
REPS = 5

#: Median ``hybrid / python`` ratio over eight calibration runs of this file
#: on a 2-CPU x86-64 VM, and the run-to-run noise: the largest distance of
#: one run's ratio from that median, rounded up to the next 0.05. A ratio
#: fails the gate above ``MEASURED + NOISE``. (The same runs: aol@50%
#: hybrid 1.004-1.174, csr 1.059-1.163; twitter hybrid 0.955-1.285, csr
#: 0.932-1.201. The python cells took 0.63-0.74 s and 0.93-1.05 s.)
MEASURED = {
    "aol@50%": 1.143,
    "twitter": 1.143,
}
NOISE = {
    "aol@50%": 0.15,
    "twitter": 0.2,
}

_cells: Dict[str, Dict[str, Dict[str, object]]] = {}


def _time_backends(data) -> Tuple[Dict[str, List[float]], int]:
    """Per-backend samples (warm-up dropped) and the pair count all agree on."""
    samples: Dict[str, List[float]] = {backend: [] for backend in BACKENDS}
    counts = set()
    for __ in range(REPS + 1):  # the first round warms up and is dropped
        for backend in BACKENDS:
            gc.collect()
            start = time.perf_counter()
            pairs = set_containment_join(
                data, data, method="lcjoin", backend=backend
            )
            elapsed = time.perf_counter() - start
            counts.add(len(pairs))
            del pairs
            samples[backend].append(elapsed)
    assert len(counts) == 1, f"backends disagree on the pair count: {counts}"
    return {backend: times[1:] for backend, times in samples.items()}, counts.pop()


def _time_tree_build(data) -> List[float]:
    order = build_order(data, universe=data.max_element() + 1)
    times = []
    for __ in range(REPS):
        gc.collect()
        start = time.perf_counter()
        tree = PrefixTree.build(data, order)
        times.append(time.perf_counter() - start)
        del tree
    return times


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tree_backend_cell(benchmark, workload):
    name, fraction = WORKLOADS[workload]
    data = real_dataset(name, fraction)
    holder: List[Tuple[Dict[str, List[float]], int]] = []
    benchmark.pedantic(
        lambda: holder.append(_time_backends(data)), rounds=1, iterations=1
    )
    samples, pairs = holder[0]
    cells: Dict[str, Dict[str, object]] = {
        backend: {
            "median_seconds": round(statistics.median(times), 4),
            "samples": [round(t, 4) for t in times],
            "num_sets": len(data),
            "pairs": pairs,
        }
        for backend, times in samples.items()
    }
    build = _time_tree_build(data)
    cells["tree.build"] = {
        "median_seconds": round(statistics.median(build), 4),
        "samples": [round(t, 4) for t in build],
        "num_sets": len(data),
    }
    _cells[workload] = cells


def test_tree_backend_gate(benchmark):
    for workload in WORKLOADS:
        if workload not in _cells:
            pytest.skip("cells did not run")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    ratios = {}
    for workload, cells in sorted(_cells.items()):
        python = float(cells["python"]["median_seconds"])
        for backend in ("csr", "hybrid"):
            ratios[f"{workload}:{backend}"] = round(
                float(cells[backend]["median_seconds"]) / python, 3
            )
    gates = {key: round(MEASURED[key] + NOISE[key], 3) for key in MEASURED}
    out_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "BENCH_tree_backends.json")
    report = {
        "figure": "tree_backends",
        "method": "lcjoin",
        "collect": "pairs",
        "scales": {
            workload: BASE_SCALES[name] * fraction * bench_scale()
            for workload, (name, fraction) in WORKLOADS.items()
        },
        "cpu_count": multiprocessing.cpu_count(),
        "reps": REPS,
        "measured_ratio": MEASURED,
        "noise": NOISE,
        "max_ratio": gates,
        "ratios": ratios,
        "cells": _cells,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\n[benchmarks] wrote tree backend comparison to {path}")
    print(f"ratios: {ratios}")
    for workload, gate in gates.items():
        ratio = ratios[f"{workload}:hybrid"]
        assert ratio <= gate, (
            f"{workload} hybrid/python ratio {ratio:.3f} over its gate "
            f"{gate:.3f} (measured {MEASURED[workload]} + noise {NOISE[workload]})"
        )
