"""End-to-end benchmark: batch ``lcjoin`` joins plus the resident service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload aol --seed 1 --seconds 36 --trace 0

Each workload generates its inputs from ``--seed`` and runs three phases
against them: the batch join in four execution modes, an in-memory server
under open-loop read traffic, and a durable server under open-loop write
traffic that is SIGKILLed and restarted. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the workload with one set-up and one
block and prints per-layer metrics, measured by timing each layer's public
functions.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the seed and the generated workload's shape. See README.md for the
layer-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import ROOT, SRC

WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Interleaved join/read/write blocks per untraced run.
BLOCKS = 3
#: Timed restarts after each block's SIGKILL; ``recover_s`` is their mean.
RECOVER_REPS = 4
#: Share of ``--seconds`` given to the join, read and write phases.
PHASE_SHARE = {"join": 0.5, "read": 0.3, "write": 0.2}


@dataclass(frozen=True)
class Workload:
    dataset: str
    scale: float
    #: Exact set count and the accepted range of self-join pairs; a seed
    #: whose workload falls outside is a shape failure.
    sets: int
    pairs_range: Tuple[int, int]
    #: Open-loop rates (requests per second) of the read and write mixes.
    read_rate: float
    write_rate: float


WORKLOADS: Dict[str, Workload] = {
    # Results-heavy: short, skewed sets; ~45 pairs per set.
    "aol": Workload(
        dataset="aol", scale=0.0008 * 0.2, sets=5822,
        pairs_range=(250_000, 450_000),
        read_rate=360.0, write_rate=700.0,
    ),
    # Probe-heavy: long sets, almost only reflexive pairs.
    "twitter": Workload(
        dataset="twitter", scale=0.0002, sets=5763,
        pairs_range=(5_763, 6_000),
        read_rate=310.0, write_rate=550.0,
    ),
}


class Env:
    """The inputs and the two live servers of one set-up."""

    def __init__(self) -> None:
        self.collection = None
        self.read_model = None
        self.write_model = None
        self.read_server = None
        self.write_server = None
        self.write_dir = ""
        self.write_slice = None
        self.fresh: List[List[int]] = []
        self.read_subs: List[List[str]] = []
        self.write_subs: List[List[str]] = []

    def stop(self) -> None:
        for server in (self.read_server, self.write_server):
            if server is not None:
                server.stop()
        self.read_server = self.write_server = None


def setup(spec: Workload, seed: int, workdir: str, tally, rep: int, env: Env) -> float:
    """Generate inputs into ``env``, start and preload both servers; time
    the program's part (dataset load, server start-up, preload, first
    publish)."""
    from repro.data.collection import SetCollection
    from repro.data.io import load_collection, save_collection
    from repro.data.realworld import generate_real_world

    import serving

    generated = generate_real_world(spec.dataset, scale=spec.scale, seed=seed)
    os.makedirs(workdir, exist_ok=True)
    full_path = os.path.join(workdir, "dataset.txt")
    save_collection(generated, full_path)
    # Appends draw fresh records of the same distribution (another seed).
    extra = generate_real_world(spec.dataset, scale=spec.scale, seed=seed + 10_000)
    env.fresh = [list(r) for r in extra.records[:4000]]
    write_slice = SetCollection(generated.records[: serving.WRITE_RECORDS])
    write_path = os.path.join(workdir, "write-dataset.txt")
    save_collection(write_slice, write_path)
    env.write_dir = os.path.join(workdir, f"data-{rep}")
    env.read_model = serving.Model(generated.records)
    env.write_model = serving.Model(write_slice.records)
    read_rng = random.Random(f"{seed}-read-subs")
    write_rng = random.Random(f"{seed}-write-subs")

    start = time.perf_counter()
    env.collection = load_collection(full_path)
    env.read_server = serving.ServerProcess(workdir, f"read{rep}", full_path)
    env.write_server = serving.ServerProcess(
        workdir, f"write{rep}", write_path, data_dir=env.write_dir
    )
    env.read_server.wait_ready()
    serving.preload_subscriptions(
        env.read_server, env.read_model, serving.READ_SUBS, read_rng, tally
    )
    env.write_server.wait_ready()
    serving.preload_subscriptions(
        env.write_server, env.write_model, serving.WRITE_SUBS, write_rng, tally
    )
    elapsed = time.perf_counter() - start
    env.read_subs = [sorted(s) for s in env.read_model.subs.sets.values()]
    env.write_subs = [sorted(s) for s in env.write_model.subs.sets.values()]
    env.write_slice = write_slice
    return elapsed


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> tuple:
    """Set up, run every phase, check; return (info, metrics, tally)."""
    import gc

    import joins
    import serving
    from common import Tally, mean, median, metric, peak_rss_mb, quantile

    spec = WORKLOADS[workload]
    tally = Tally()
    metrics: Dict[str, Dict[str, object]] = {}
    env = Env()
    try:
        setups = []
        for rep in range(1 if trace else SETUP_REPS):
            # Only the last set-up is kept; its memory alone stays resident.
            env.stop()
            if env.write_dir:
                shutil.rmtree(env.write_dir, ignore_errors=True)
            env = Env()
            setups.append(setup(spec, seed, workdir, tally, rep, env))
        collection = env.collection
        expected = joins.expected_digest(workload, seed, collection)
        tally.check(len(collection) == spec.sets,
                    f"shape: {len(collection)} sets, want {spec.sets}")
        lo, hi = spec.pairs_range
        tally.check(lo <= expected[0] <= hi,
                    f"shape: {expected[0]} pairs outside [{lo}, {hi}]")
        info = {"workload": workload, "seed": seed, "sets": len(collection),
                "pairs": expected[0], "read_rate": spec.read_rate,
                "write_rate": spec.write_rate}
        # Keep the benchmark's own long-lived objects (models, inputs) out
        # of the collector's way while the program runs.
        gc.collect()
        gc.freeze()

        blocks = 1 if trace else BLOCKS
        if trace:
            metrics.update(joins.join_layers(collection, expected, tally))
        else:
            joins.check_modes(collection, expected, tally)
        join_samples: Dict[str, List[float]] = {}
        read_lat: Dict[str, List[float]] = {}
        write_lat: Dict[str, List[float]] = {}
        late: List[float] = []
        read = write = None
        recoveries: List[float] = []
        killed_dir = os.path.join(workdir, "data-killed")
        with env.write_server.client() as client:
            before = client.stats()
        # The phases run in interleaved blocks so that each metric's
        # samples span the whole run rather than one stretch of it.
        for block in range(blocks):
            if not trace:
                joins.time_rounds(
                    collection, expected, seconds * PHASE_SHARE["join"] / blocks,
                    join_samples, tally)
            read = serving.build_schedule(
                env.read_model, serving.READ_MIX,
                int(spec.read_rate * seconds * PHASE_SHARE["read"] / blocks),
                random.Random(f"{seed}-read-{block}"), env.fresh)
            lat, block_late = serving.run_schedule(
                env.read_server, read, spec.read_rate, tally)
            _extend(read_lat, lat)
            late += block_late
            write = serving.build_schedule(
                env.write_model, serving.WRITE_MIX,
                int(spec.write_rate * seconds * PHASE_SHARE["write"] / blocks),
                random.Random(f"{seed}-write-{block}"), env.fresh)
            lat, block_late = serving.run_schedule(
                env.write_server, write, spec.write_rate, tally)
            _extend(write_lat, lat)
            late += block_late
            # Crash after every write block, so restarts too are spread over
            # the run. The timed restarts all recover the data dir as the
            # first crash left it, so they read a log of one length; the
            # live server restarts untimed and serves the next block.
            serving.crash(env.write_server, tally)
            if block == 0:
                shutil.copytree(env.write_dir, killed_dir)
            recoveries += serving.time_restarts(
                workdir, killed_dir, str(block), 1 if trace else RECOVER_REPS)
            __, env.write_server = serving.restart(
                workdir, env.write_dir, f"live{block}")
            if block < blocks - 1:
                serving.warm_up(env.write_server)
        with env.write_server.client() as client:
            after = client.stats()

        if trace:
            layers, handler_s = serving.state_layers(
                collection, env.read_subs, read, env.fresh, tally)
            metrics.update(layers)
            metrics["server.rtt_overhead_us"] = metric(
                serving.rtt_overhead_us(env.read_server, read, handler_s), "us")
        env.read_server.stop()
        env.read_server = None

        if trace:
            metrics.update(serving.wal_layers(
                workdir, env.write_slice, env.write_subs, write, killed_dir))
        serving.check_recovered(
            env.write_server, env.write_model, random.Random(f"{seed}-check"), tally)
        env.stop()
        gc.unfreeze()

        if trace:
            metrics["incr.compactions"] = metric(
                after["index_epoch"] - before["index_epoch"], "count")
            metrics["trie.compactions"] = metric(
                after["trie_epoch"] - before["trie_epoch"], "count")
            metrics.update(serving.tail_metrics(read_lat, write_lat))
            metrics["gen.late_ms"] = metric(quantile(late, 0.99) * 1e3, "ms")
            metrics["error_ratio"] = metric(
                tally.failed / max(1, tally.attempted), "ratio")
        else:
            metrics.update(joins.join_metrics(join_samples))
            metrics.update(serving.read_metrics(read_lat))
            metrics.update(serving.write_metrics(write_lat))
            metrics["recover_s"] = metric(mean(recoveries), "s")
            metrics["setup_s"] = metric(median(setups), "s")
            metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MB")
    finally:
        env.stop()
    return info, metrics, tally


def _extend(into: Dict[str, List[float]], more: Dict[str, List[float]]) -> None:
    for kind, values in more.items():
        into.setdefault(kind, []).extend(values)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its servers and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the library sources are missing ({SRC})", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        info, metrics, tally = run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    correct = tally.failed == 0 and not tally.problems
    info["problems"] = tally.problems[:10]
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
