"""The resident-service phases: ``lcjoin serve`` under open-loop traffic.

Two servers run as subprocesses of the benchmark, each started through the
real CLI on a unix socket inside the run's work directory:

* the *read* server is in memory, preloaded with the workload's dataset
  and keyword subscriptions; its traffic is superset point queries, subset
  queries and publishes, with no write-ahead log at all;
* the *write* server is durable (``--data-dir``, fsync on, a snapshot every
  512 logged ops), preloaded with a small slice of the dataset so index and
  trie compactions and snapshots each cycle several times per run; about
  half of its traffic is writes. The phase ends with SIGKILL; timed
  restarts recover from the data directory as the first crash left it.

A plain dict-of-sets :class:`Model` of live records and subscriptions is
advanced while the schedule is generated, so every write's result is
predicted and a deterministic sample of reads carries its expected answer;
all comparisons happen after the timed loop.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import SRC, SetTable, Tally, median, metric, quantile
from openloop import run_open_loop, schedule_times, split_by_kind

from repro.data.collection import SetCollection
from repro.errors import ReproError
from repro.serve import ServeClient
from repro.serve import protocol
from repro.serve.state import ServeState
from repro.serve.wal import WAL_NAME, DurableServeState, WriteAheadLog

#: Keyword vocabulary and hot head of the subscription generator.
VOCAB = 50_000
HOT = 200
#: Keywords per published event.
EVENT_KEYWORDS = 12
#: Logged ops between snapshots (the CLI default, passed explicitly).
SNAPSHOT_EVERY = 512
#: Logged ops past the last snapshot when the durable server is killed.
RECOVERY_TAIL = 256
#: Every SAMPLE_EVERY-th read carries an expected answer.
SAMPLE_EVERY = 11
#: Subscriptions sent per ``batch`` request while preloading.
PRELOAD_BATCH = 64
#: Read server: keyword subscriptions preloaded next to the full dataset.
READ_SUBS = 10_000
#: Write server: the dataset's first WRITE_RECORDS sets and WRITE_SUBS
#: subscriptions, small enough that index and trie compactions and
#: snapshots each cycle several times per run.
WRITE_RECORDS = 300
WRITE_SUBS = 5_000
#: Seconds a starting server may take to listen.
START_TIMEOUT = 120.0
#: Sampled queries and publishes checked against the model after restart.
RECOVERED_SAMPLES = 24

#: Request mixes: (kind, share); ``subquery`` is a ``direction="sub"`` query.
READ_MIX = (("query", 0.60), ("subquery", 0.20), ("publish", 0.20))
WRITE_MIX = (
    ("append", 0.15), ("delete", 0.15), ("subscribe", 0.10),
    ("unsubscribe", 0.10), ("query", 0.30), ("subquery", 0.10),
    ("publish", 0.10),
)
WRITE_KINDS = frozenset({"append", "delete", "subscribe", "unsubscribe"})


def keywords(rng: random.Random, k: int) -> List[str]:
    """Skewed keyword draw: half from a hot head, half from the vocabulary."""
    return [
        f"k{rng.randint(0, HOT - 1)}" if rng.random() < 0.5
        else f"k{rng.randint(0, VOCAB - 1)}"
        for __ in range(k)
    ]


def subscription_keywords(rng: random.Random) -> List[str]:
    return keywords(rng, rng.randint(1, 4))


# --------------------------------------------------------------------------
# The reference model
# --------------------------------------------------------------------------


class Model:
    """Live records (by sid) and subscriptions (by sub id)."""

    def __init__(self, records: Sequence[Sequence[int]]) -> None:
        self.records = SetTable()
        self.subs = SetTable()
        for record in records:
            self.records.add(record)


# --------------------------------------------------------------------------
# Schedules
# --------------------------------------------------------------------------


class Schedule:
    """Requests in send order, with each one's kind and expected result."""

    def __init__(self) -> None:
        self.requests: List[Dict[str, Any]] = []
        self.kinds: List[str] = []
        self.expect: List[Optional[Any]] = []

    def add(self, kind: str, request: Dict[str, Any], expect: Optional[Any]) -> None:
        request["id"] = len(self.requests)
        self.requests.append(request)
        self.kinds.append(kind)
        self.expect.append(expect)


def _query_record(model: Model, rng: random.Random) -> List[int]:
    record = sorted(model.records.sets[model.records.pick(rng)])
    if len(record) > 1 and rng.random() < 0.5:
        record.pop(rng.randrange(len(record)))
    return record


def _event_record(model: Model, rng: random.Random) -> List[int]:
    merged = set()
    for __ in range(3):
        merged |= model.records.sets[model.records.pick(rng)]
    return sorted(merged)


def build_schedule(
    model: Model,
    mix: Sequence[Tuple[str, float]],
    count: int,
    rng: random.Random,
    fresh: Sequence[Sequence[int]],
) -> Schedule:
    """Draw ``count`` requests from ``mix``, advancing ``model`` as it goes.

    ``fresh`` supplies records for appends (cycled). Writes always carry
    their predicted result; reads carry one on every SAMPLE_EVERY-th draw.
    """
    kinds = [kind for kind, __ in mix]
    weights = [share for __, share in mix]
    sched = Schedule()
    appended = 0
    for i in range(count):
        kind = rng.choices(kinds, weights)[0]
        if kind == "delete" and len(model.records.ids) < 2:
            kind = "append"
        if kind == "unsubscribe" and len(model.subs.ids) < 2:
            kind = "subscribe"
        sampled = i % SAMPLE_EVERY == 0
        if kind == "query":
            record = _query_record(model, rng)
            sched.add(kind, {"op": "query", "record": record},
                      model.records.supersets(record) if sampled else None)
        elif kind == "subquery":
            record = _event_record(model, rng)
            sched.add(kind, {"op": "query", "record": record, "direction": "sub"},
                      model.records.subsets(record) if sampled else None)
        elif kind == "publish":
            event = keywords(rng, EVENT_KEYWORDS)
            sched.add(kind, {"op": "publish", "keywords": event},
                      model.subs.subsets(event) if sampled else None)
        elif kind == "append":
            record = list(fresh[appended % len(fresh)])
            appended += 1
            sched.add(kind, {"op": "append", "record": record},
                      {"sid": model.records.add(record)})
        elif kind == "delete":
            sid = model.records.pick(rng)
            model.records.remove(sid)
            sched.add(kind, {"op": "delete", "sid": sid}, {"removed": True})
        elif kind == "subscribe":
            words = subscription_keywords(rng)
            sched.add(kind, {"op": "subscribe", "keywords": words},
                      {"sub_id": model.subs.add(words)})
        else:
            sub_id = model.subs.pick(rng)
            model.subs.remove(sub_id)
            sched.add(kind, {"op": "unsubscribe", "sub_id": sub_id},
                      {"removed": True})
    return sched


def check_response(kind: str, response: Dict[str, Any], expect: Any) -> bool:
    if not response.get("ok"):
        return False
    result = response.get("result")
    if kind in WRITE_KINDS:
        return result == expect
    if kind == "publish":
        return sorted(result.get("matched", [])) == expect
    return sorted(result.get("matches", [])) == expect


# --------------------------------------------------------------------------
# Server processes
# --------------------------------------------------------------------------


class ServerProcess:
    """One ``lcjoin serve`` subprocess on a unix socket in ``workdir``."""

    def __init__(
        self,
        workdir: str,
        name: str,
        dataset: Optional[str],
        data_dir: Optional[str] = None,
    ) -> None:
        self.workdir = workdir
        self.socket_path = os.path.join(workdir, f"{name}.sock")
        self.log_path = os.path.join(workdir, f"{name}.log")
        args = [sys.executable, "-m", "repro.cli", "serve"]
        if dataset is not None:
            args.append(os.path.abspath(dataset))
        args += ["--socket", f"{name}.sock"]
        if data_dir is not None:
            args += ["--data-dir", os.path.abspath(data_dir),
                     "--snapshot-every", str(SNAPSHOT_EVERY)]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env.pop("REPRO_FAULTS", None)
        env.pop("REPRO_TRACE", None)
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            args, cwd=workdir, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self._log,
        )

    @property
    def address(self) -> str:
        """The socket path relative to the current directory (short enough
        for ``AF_UNIX`` even in a deep checkout)."""
        return os.path.relpath(self.socket_path)

    def wait_ready(self) -> None:
        deadline = time.perf_counter() + START_TIMEOUT
        while time.perf_counter() < deadline:
            with open(self.log_path, "rb") as handle:
                if b"# listening on" in handle.read():
                    return
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(f"server did not start: {self.tail()}")

    def tail(self) -> str:
        with open(self.log_path, "rb") as handle:
            return handle.read()[-2000:].decode("utf-8", "replace")

    def client(self) -> ServeClient:
        return ServeClient(socket_path=self.address, timeout=120.0)

    def raw_socket(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(self.address)
        return sock

    def kill(self) -> None:
        """SIGKILL and reap (the crash the durable server must survive)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)
        self._log.close()

    def stop(self) -> None:
        """Ask for a clean shutdown; kill if it does not come."""
        if self.proc.poll() is None:
            try:
                with self.client() as client:
                    client.shutdown()
                self.proc.wait(timeout=30)
            except (OSError, ReproError, subprocess.TimeoutExpired):
                pass  # the kill below ends it either way
        self.kill()


def preload_subscriptions(
    server: ServerProcess, model: Model, count: int, rng: random.Random,
    tally: Tally,
) -> None:
    """Subscribe ``count`` keyword sets in batches; check every sub id."""
    with server.client() as client:
        done = 0
        while done < count:
            size = min(PRELOAD_BATCH, count - done)
            words = [subscription_keywords(rng) for __ in range(size)]
            responses = client.batch([("subscribe", {"keywords": w}) for w in words])
            expected = [model.subs.add(w) for w in words]
            got = [r.get("result", {}).get("sub_id") for r in responses]
            tally.check(got == expected, "preload: unexpected sub ids")
            done += size
        # The first publish builds the subscription trie lazily: part of
        # set-up, never of a timed request.
        client.publish(keywords(rng, EVENT_KEYWORDS))


# --------------------------------------------------------------------------
# Phases
# --------------------------------------------------------------------------


def run_schedule(
    server: ServerProcess, sched: Schedule, rate: float, tally: Tally,
) -> Tuple[Dict[str, List[float]], List[float]]:
    """Drive ``sched`` open-loop at ``rate``; check results; return
    latencies by kind (seconds) and per-request lateness."""
    keep = [e is not None for e in sched.expect]
    sock = server.raw_socket()
    try:
        result = run_open_loop(
            sock, sched.requests, schedule_times(rate, len(sched.requests)),
            keep=keep,
        )
    finally:
        sock.close()
    for problem in result.errors:
        tally.problems.append(problem)
    for i, (kind, expect) in enumerate(zip(sched.kinds, sched.expect)):
        response = result.responses[i]
        if result.latency[i] is None:
            tally.fail(1, f"request {i} ({kind}) unanswered")
        elif expect is not None or (response is not None and not response.get("ok")):
            tally.check(
                response is not None and check_response(kind, response, expect),
                f"request {i} ({kind}): {str(response)[:200]}",
            )
        else:
            tally.ok()
    return split_by_kind(sched.kinds, result.latency), result.late


def _ms(values: Sequence[float], q: float) -> float:
    return quantile(values, q) * 1000.0


def read_metrics(lat: Dict[str, List[float]]) -> Dict[str, Dict[str, object]]:
    """Read-phase medians: the gated read latencies.

    Tails are left to the traced run. On a shared host a slow stretch
    lengthens every service time, and queueing multiplies that in the
    tail: read p90s spread 0.2–0.3 and p99s 0.3–0.6 of their median from
    run to run, beyond the largest bound the benchmark may set.
    """
    return {
        f"{kind}_p50_ms": metric(_ms(lat[kind], 0.50), "ms")
        for kind in ("query", "subquery", "publish")
    }


def write_metrics(lat: Dict[str, List[float]]) -> Dict[str, Dict[str, object]]:
    return {"write_p50_ms": metric(_ms(_writes(lat), 0.50), "ms")}


def tail_metrics(
    read: Dict[str, List[float]], write: Dict[str, List[float]]
) -> Dict[str, Dict[str, object]]:
    """Unbounded tail latencies for the traced run."""
    out = {}
    for kind in ("query", "subquery", "publish"):
        out[f"r.{kind}_p90_ms"] = metric(_ms(read[kind], 0.90), "ms")
        out[f"r.{kind}_p99_ms"] = metric(_ms(read[kind], 0.99), "ms")
    out["w.write_p99_ms"] = metric(_ms(_writes(write), 0.99), "ms")
    out["w.query_p99_ms"] = metric(_ms(write["query"], 0.99), "ms")
    out["w.publish_p99_ms"] = metric(_ms(write["publish"], 0.99), "ms")
    return out


def _writes(lat: Dict[str, List[float]]) -> List[float]:
    return [v for kind in WRITE_KINDS for v in lat.get(kind, [])]


def settle_log_tail(server: ServerProcess, tally: Tally) -> None:
    """Leave exactly RECOVERY_TAIL logged ops after the last snapshot.

    Publishes are logged but change no state, so single publishes (each its
    own group commit) top the tail up without touching the model, and every
    restart then loads one snapshot and replays the same number of records.
    A tail already past the target is first run into the next snapshot,
    whose timing depends on how many ops the current boot has logged.
    """
    event = [f"k{HOT}"]
    with server.client() as client:

        def tail_and_snapshot() -> Tuple[int, int]:
            wal = client.stats()["wal"]
            return wal["last_seq"] - wal["snapshot_seq"], wal["snapshot_seq"]

        tail, snapshot = tail_and_snapshot()
        if tail > RECOVERY_TAIL:
            first = snapshot
            for __ in range(2 * SNAPSHOT_EVERY // 32):
                for __ in range(32):
                    client.publish(event)
                tail, snapshot = tail_and_snapshot()
                if snapshot != first:
                    break
        for __ in range(RECOVERY_TAIL - tail):
            client.publish(event)
        tail, __ = tail_and_snapshot()
    tally.check(tail == RECOVERY_TAIL, f"log tail {tail}, want {RECOVERY_TAIL}")


def crash(server: ServerProcess, tally: Tally) -> None:
    """Settle the log tail, then SIGKILL the durable server."""
    settle_log_tail(server, tally)
    server.kill()


def restart(workdir: str, data_dir: str, name: str) -> Tuple[float, ServerProcess]:
    """Start a durable server on ``data_dir``; return the seconds from spawn
    until it answered a ping, and the server."""
    start = time.perf_counter()
    server = ServerProcess(workdir, name, None, data_dir=data_dir)
    try:
        server.wait_ready()
        with server.client() as client:
            client.ping()
    except BaseException:
        server.kill()
        raise
    return time.perf_counter() - start, server


def time_restarts(workdir: str, data_dir: str, tag: str, restarts: int) -> List[float]:
    """Recover from ``data_dir`` ``restarts`` times, killing each server once
    it answered; return each restart's seconds.

    A restart that is killed before any request logs nothing, so every
    restart decodes the same log and replays the same tail.
    """
    times = []
    for attempt in range(restarts):
        elapsed, server = restart(workdir, data_dir, f"timed{tag}-{attempt}")
        server.kill()
        times.append(elapsed)
    return times


def warm_up(server: ServerProcess) -> None:
    """One publish, which rebuilds the restored broker's trie lazily."""
    with server.client() as client:
        client.publish(keywords(random.Random(0), EVENT_KEYWORDS))


def check_recovered(
    server: ServerProcess, model: Model, rng: random.Random, tally: Tally,
) -> None:
    """After restart: stats counts and sampled answers must equal the model."""
    with server.client() as client:
        stats = client.stats()
        tally.check(
            stats["live_records"] == len(model.records.sets),
            f"recovered live_records {stats['live_records']} != "
            f"{len(model.records.sets)}",
        )
        tally.check(
            stats["subscriptions"] == len(model.subs.sets),
            f"recovered subscriptions {stats['subscriptions']} != "
            f"{len(model.subs.sets)}",
        )
        for i in range(RECOVERED_SAMPLES):
            if i % 3 == 0:
                record = _query_record(model, rng)
                got = sorted(client.query(record)["matches"])
                want = model.records.supersets(record)
            elif i % 3 == 1:
                record = _event_record(model, rng)
                got = sorted(client.query(record, direction="sub")["matches"])
                want = model.records.subsets(record)
            else:
                event = keywords(rng, EVENT_KEYWORDS)
                got = sorted(client.publish(event))
                want = model.subs.subsets(event)
            tally.check(got == want, f"recovered answer {i} differs from the model")


# --------------------------------------------------------------------------
# Traced, in-process layer timings
# --------------------------------------------------------------------------


def _median_us(fn, items) -> float:
    samples = []
    for item in items:
        start = time.perf_counter()
        fn(item)
        samples.append(time.perf_counter() - start)
    return median(samples) * 1e6


def state_layers(
    collection: SetCollection,
    subs: Sequence[Sequence[str]],
    read: Schedule,
    fresh: Sequence[Sequence[int]],
    tally: Tally,
) -> Tuple[Dict[str, Dict[str, object]], float]:
    """Handler, broker, trie and incremental-index timings, in process.

    Returns the metrics and the median in-process superset-query handler
    time (seconds), the base for the socket round-trip overhead.
    """
    out: Dict[str, Dict[str, object]] = {}
    state = ServeState(collection)
    for words in subs:
        state.handle("subscribe", {"keywords": list(words)}, None)
    rng = random.Random(5)
    event = keywords(rng, EVENT_KEYWORDS)
    start = time.perf_counter()
    state.broker.publish(event)
    out["broker.first_publish_s"] = metric(time.perf_counter() - start, "s")

    supers = [r["record"] for r, k in zip(read.requests, read.kinds) if k == "query"][:400]
    subqs = [r["record"] for r, k in zip(read.requests, read.kinds) if k == "subquery"][:100]
    events = [r["keywords"] for r, k in zip(read.requests, read.kinds) if k == "publish"][:60]

    handle = state.handle
    query_s = _median_us(lambda r: handle("query", {"record": r}, None), supers) / 1e6
    out["state.query_us"] = metric(query_s * 1e6, "us")
    out["state.subquery_us"] = metric(_median_us(
        lambda r: handle("query", {"record": r, "direction": "sub"}, None), subqs), "us")
    out["state.publish_ms"] = metric(_median_us(
        lambda e: handle("publish", {"keywords": e}, None), events) / 1000.0, "ms")
    matched = []

    def broker_publish(e):
        matched.append(len(state.broker.publish(e)))

    out["broker.publish_ms"] = metric(_median_us(broker_publish, events) / 1000.0, "ms")
    out["broker.matches_per_publish"] = metric(sum(matched) / len(matched), "count")
    out["trie.subsets_us"] = metric(_median_us(
        lambda r: state.trie.snapshot().subsets_of(r), subqs), "us")
    out["incr.supersets_us"] = metric(_median_us(
        lambda r: state.index.snapshot().supersets_of(r), supers), "us")

    appended: List[int] = []

    def append(r):
        appended.append(handle("append", {"record": list(r)}, None)["sid"])

    out["state.append_us"] = metric(_median_us(append, fresh[:300]), "us")
    out["state.delete_us"] = metric(_median_us(
        lambda sid: tally.check(handle("delete", {"sid": sid}, None)["removed"],
                                "in-process delete missed"), appended), "us")
    new_subs = [subscription_keywords(rng) for __ in range(300)]
    out["state.subscribe_us"] = metric(_median_us(
        lambda w: handle("subscribe", {"keywords": w}, None), new_subs), "us")
    compact = []
    for r in fresh[:200]:
        state.index.append(list(r))
    for __ in range(3):
        start = time.perf_counter()
        state.index.compact()
        compact.append(time.perf_counter() - start)
    out["incr.compact_s"] = metric(median(compact), "s")

    # The server's direction: it decodes requests and encodes responses.
    reqs = read.requests[:500]
    lines = [protocol.encode_message(r) for r in reqs]
    out["protocol.decode_us"] = metric(_median_us(protocol.decode_line, lines), "us")
    responses = [protocol.ok_response(r["id"], handle(r["op"], r, None))
                 for r in reqs[:200]]
    out["protocol.encode_us"] = metric(
        _median_us(protocol.encode_message, responses), "us")
    return out, query_s


def rtt_overhead_us(server: ServerProcess, read: Schedule, handler_s: float) -> float:
    """Median closed-loop socket round trip minus the in-process handler."""
    supers = [r["record"] for r, k in zip(read.requests, read.kinds) if k == "query"][:400]
    with server.client() as client:
        rtt = _median_us(client.query, supers)
    return rtt - handler_s * 1e6


def wal_layers(
    workdir: str,
    collection: SetCollection,
    subs: Sequence[Sequence[str]],
    write: Schedule,
    killed_dir: str,
) -> Dict[str, Dict[str, object]]:
    """WAL append/sync, snapshot and replay timings; all in process.

    ``killed_dir`` is the data directory as the write server's first crash
    left it, the one every timed restart recovers from.
    """
    out: Dict[str, Dict[str, object]] = {}
    # Append and group-commit sync on a standalone log.
    wal = WriteAheadLog(os.path.join(workdir, "wal-bench"))
    appends, syncs = [], []
    try:
        for req, kind, expect in zip(write.requests, write.kinds, write.expect):
            if kind not in WRITE_KINDS:
                continue
            params = {k: v for k, v in req.items() if k not in ("id", "op")}
            start = time.perf_counter()
            wal.append(req["op"], params, expect)
            appends.append(time.perf_counter() - start)
            if len(appends) % 8 == 0:
                start = time.perf_counter()
                wal.sync()
                syncs.append(time.perf_counter() - start)
    finally:
        wal.close()
    out["wal.append_us"] = metric(median(appends) * 1e6, "us")
    out["wal.sync_ms"] = metric(median(syncs) * 1e3, "ms")
    log_path = os.path.join(killed_dir, WAL_NAME)
    with open(log_path, "rb") as handle:
        records = sum(1 for __ in handle)
    out["wal.bytes_per_op"] = metric(os.path.getsize(log_path) / max(1, records), "bytes")

    # Snapshots: replay the same traffic on an in-process durable state,
    # syncing every 8 requests as a drained batch would.
    snap_dir = os.path.join(workdir, "wal-snap")
    state = DurableServeState(collection, data_dir=snap_dir, snapshot_every=SNAPSHOT_EVERY)
    snap_times = []
    try:
        for i in range(0, len(subs), PRELOAD_BATCH):
            for words in subs[i:i + PRELOAD_BATCH]:
                state.handle("subscribe", {"keywords": list(words)}, None)
            state.sync()
        last = state.handle("stats", {}, None)["wal"]["snapshot_seq"]
        for i, req in enumerate(write.requests):
            state.handle(req["op"], req, None)
            if i % 8 == 7:
                start = time.perf_counter()
                state.sync()
                elapsed = time.perf_counter() - start
                seq = state.handle("stats", {}, None)["wal"]["snapshot_seq"]
                if seq != last:
                    snap_times.append(elapsed)
                    last = seq
    finally:
        state.wal.close()
    out["wal.snapshots"] = metric(len(snap_times), "count")
    out["wal.snapshot_s"] = metric(median(snap_times) if snap_times else 0.0, "s")

    copy = os.path.join(workdir, "wal-replay")
    shutil.copytree(killed_dir, copy)
    start = time.perf_counter()
    replayed = DurableServeState(None, data_dir=copy)
    out["wal.replay_s"] = metric(time.perf_counter() - start, "s")
    replayed.wal.close()
    return out
