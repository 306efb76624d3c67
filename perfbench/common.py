"""Small helpers shared by the benchmark's workloads."""

from __future__ import annotations

import gc
import hashlib
import itertools
import os
import random
import resource
import statistics
import time
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Pairs converted to bytes at a time while hashing a pair list.
DIGEST_SLICE = 1 << 16


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    """Mean of repeated timings.

    The host alternates for seconds at a time between a fast and a slow
    state about 1.5 times slower. A median of a dozen repetitions jumps
    between the two when a run spends about half its time in each, while a
    mean moves in proportion, so run-to-run spread is smaller.
    """
    return float(statistics.fmean(values))


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0..1) of a non-empty sample."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return float(ordered[rank])


def timed(fn: Callable[[], object]) -> Tuple[float, object]:
    """Run ``fn`` once after a full collection; return (seconds, result)."""
    gc.collect()
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def sorted_digest(pairs: Iterable[Tuple[int, int]]) -> Tuple[int, str]:
    """``(count, sha256)`` of pairs given in ascending order.

    The hash covers the pairs as consecutive int64 values; they are
    converted a slice at a time, so hashing adds little to peak memory.
    """
    digest = hashlib.sha256()
    count = 0
    it = iter(pairs)
    while True:
        chunk = list(itertools.islice(it, DIGEST_SLICE))
        if not chunk:
            return count, digest.hexdigest()
        digest.update(np.asarray(chunk, dtype=np.int64).tobytes())
        count += len(chunk)


def pair_digest(pairs: Iterable[Tuple[int, int]]) -> Tuple[int, str]:
    """``(count, sha256)`` of a pair set, independent of emission order."""
    return sorted_digest(sorted(pairs))


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest reaped child.

    This process runs the serial joins; it also holds the benchmark's own
    inputs, models and schedules, which take a few MB.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


class Tally:
    """Counts attempted operations and failures across a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def check(self, condition: bool, problem: str) -> bool:
        """Count one checked outcome; record ``problem`` if it failed."""
        self.attempted += 1
        if not condition:
            self.failed += 1
            self.problems.append(problem)
        return condition

    def fail(self, count: int, problem: str) -> None:
        self.attempted += count
        self.failed += count
        self.problems.append(problem)


class SetTable:
    """Live sets by id, with per-member posting sets for containment lookups.

    The benchmark's one containment oracle, independent of the library: a
    set's supersets are the ids present in every one of its members'
    posting sets.
    """

    def __init__(self) -> None:
        self.sets: Dict[int, frozenset] = {}
        self.postings: Dict[Any, set] = {}
        self.ids: List[int] = []
        self._slot: Dict[int, int] = {}
        self.next_id = 0

    def add(self, members: Sequence[Any]) -> int:
        ident = self.next_id
        self.next_id += 1
        value = frozenset(members)
        self.sets[ident] = value
        for member in value:
            self.postings.setdefault(member, set()).add(ident)
        self._slot[ident] = len(self.ids)
        self.ids.append(ident)
        return ident

    def remove(self, ident: int) -> None:
        value = self.sets.pop(ident)
        for member in value:
            self.postings[member].discard(ident)
        slot = self._slot.pop(ident)
        last = self.ids.pop()
        if last != ident:
            self.ids[slot] = last
            self._slot[last] = slot

    def pick(self, rng: random.Random) -> int:
        return self.ids[rng.randrange(len(self.ids))]

    def supersets(self, query: Sequence[Any]) -> List[int]:
        lists = sorted((self.postings.get(m, set()) for m in set(query)), key=len)
        found = set(lists[0]) if lists else set()
        for other in lists[1:]:
            found &= other
        return sorted(found)

    def subsets(self, query: Sequence[Any]) -> List[int]:
        wanted = set(query)
        candidates = set()
        for member in wanted:
            candidates |= self.postings.get(member, set())
        return sorted(i for i in candidates if self.sets[i] <= wanted)
