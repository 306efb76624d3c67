"""Parallel-scaling gate: serial vs ``workers=2`` vs ``shards=2`` ``lcjoin``.

The end-to-end cost of the out-of-process execution modes, measured the way
a user sees it: ``set_containment_join(R, R, method="lcjoin")`` returning
the full pair list, serial and through both coordinators, on the AOL
surrogate at 50 % of its base scale (results-heavy: pair transport and
emission matter) and the TWITTER surrogate (probe-heavy: transport is
negligible). Modes alternate within each repetition, every repetition
starts from a collected heap, and each cell is the median of ``REPS``
repetitions.

The gate is on the ratios ``workers2 / serial`` and ``shards2 / serial``.
Each must stay at or below the ratio measured when the gate was set plus
the run-to-run noise measured alongside it (``MEASURED`` and ``NOISE``
below; both are written to ``BENCH_parallel.json``). The gate runs on
any CPU count: the figures were taken on a 2-CPU VM, the box the tests
run on.
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

from conftest import BASE_SCALES, bench_scale, real_dataset

WORKLOADS = {"aol@50%": ("aol", 0.5), "twitter": ("twitter", 1.0)}
MODES = {"serial": {}, "workers2": {"workers": 2}, "shards2": {"shards": 2}}
REPS = 5

#: Median ratio over eight calibration runs of this file on a 2-CPU
#: x86-64 VM, and the run-to-run noise: the largest distance of one run's
#: ratio from that median, rounded up to the next 0.05. A ratio fails the
#: gate above ``MEASURED + NOISE``. (The same runs: aol@50% workers2
#: 0.844-1.017, shards2 0.870-1.021; twitter workers2 0.650-0.924,
#: shards2 0.607-0.716.)
MEASURED = {
    "aol@50%:workers2": 0.874,
    "aol@50%:shards2": 0.930,
    "twitter:workers2": 0.684,
    "twitter:shards2": 0.654,
}
NOISE = {
    "aol@50%:workers2": 0.15,
    "aol@50%:shards2": 0.10,
    "twitter:workers2": 0.25,
    "twitter:shards2": 0.10,
}

_cells: Dict[str, Dict[str, Dict[str, object]]] = {}


def _time_modes(data) -> Tuple[Dict[str, List[float]], int]:
    """Per-mode samples (warm-up dropped) and the pair count all agree on."""
    samples: Dict[str, List[float]] = {mode: [] for mode in MODES}
    counts = set()
    for __ in range(REPS + 1):  # the first round warms up and is dropped
        for mode, options in MODES.items():
            gc.collect()
            start = time.perf_counter()
            pairs = set_containment_join(data, data, method="lcjoin", **options)
            elapsed = time.perf_counter() - start
            counts.add(len(pairs))
            del pairs
            samples[mode].append(elapsed)
    assert len(counts) == 1, f"modes disagree on the pair count: {counts}"
    return {mode: times[1:] for mode, times in samples.items()}, counts.pop()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_parallel_cell(benchmark, workload):
    name, fraction = WORKLOADS[workload]
    data = real_dataset(name, fraction)
    holder: List[Tuple[Dict[str, List[float]], int]] = []
    benchmark.pedantic(
        lambda: holder.append(_time_modes(data)), rounds=1, iterations=1
    )
    samples, pairs = holder[0]
    _cells[workload] = {
        mode: {
            "median_seconds": round(statistics.median(times), 4),
            "samples": [round(t, 4) for t in times],
            "num_sets": len(data),
            "pairs": pairs,
        }
        for mode, times in samples.items()
    }


def test_parallel_gate(benchmark):
    for workload in WORKLOADS:
        if workload not in _cells:
            pytest.skip("cells did not run")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    ratios = {}
    for workload, cells in sorted(_cells.items()):
        serial = float(cells["serial"]["median_seconds"])
        for mode in ("workers2", "shards2"):
            ratios[f"{workload}:{mode}"] = round(
                float(cells[mode]["median_seconds"]) / serial, 3
            )
    gates = {key: round(MEASURED[key] + NOISE[key], 3) for key in MEASURED}
    out_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "BENCH_parallel.json")
    report = {
        "figure": "parallel_scaling",
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
    print(f"\n[benchmarks] wrote parallel scaling to {path}")
    print(f"ratios: {ratios}")
    for key, ratio in ratios.items():
        assert ratio <= gates[key], (
            f"{key} ratio {ratio:.3f} over its gate {gates[key]:.3f} "
            f"(measured {MEASURED[key]} + noise {NOISE[key]})"
        )
