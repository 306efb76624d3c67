"""Tests of the benchmark's own machinery: oracles, model and generator.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time

import pytest

import joins
import run
import serving
from common import pair_digest
from openloop import run_open_loop, schedule_times

from repro import set_containment_join
from repro.data.realworld import generate_real_world
from repro.serve.state import ServeState


def _workload_sample(name: str, seed: int, fraction: float):
    spec = run.WORKLOADS[name]
    full = generate_real_world(spec.dataset, scale=spec.scale, seed=seed)
    return full.sample(fraction, seed=seed)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_naive_join_agrees_with_lcjoin_on_a_sample(name):
    sample = _workload_sample(name, seed=7, fraction=0.08)
    naive = set_containment_join(sample, sample, method="naive")
    assert pair_digest(naive) == joins.oracle_digest(sample)
    for __, options in joins.MODES:
        assert pair_digest(joins.run_mode(sample, options)) == pair_digest(naive)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_second_seed_gives_the_same_shape(name):
    spec = run.WORKLOADS[name]
    lo, hi = spec.pairs_range
    for seed in (1, 2):
        data = generate_real_world(spec.dataset, scale=spec.scale, seed=seed)
        assert len(data) == spec.sets
        assert lo <= joins.oracle_digest(data)[0] <= hi


def test_pinned_digests_match_the_oracle():
    with open(joins.ORACLE_PATH, encoding="utf-8") as handle:
        pins = json.load(handle)
    name = sorted(pins)[0]
    seed = sorted(pins[name], key=int)[0]
    spec = run.WORKLOADS[name]
    data = generate_real_world(spec.dataset, scale=spec.scale, seed=int(seed))
    assert joins.load_pinned(name, int(seed)) == joins.oracle_digest(data)


def test_model_predicts_every_response_of_a_write_mix():
    data = _workload_sample("aol", seed=3, fraction=0.05)
    state = ServeState(data)
    model = serving.Model(data.records)
    rng = random.Random(1)
    for __ in range(200):
        words = serving.subscription_keywords(rng)
        assert state.handle("subscribe", {"keywords": words}, None)["sub_id"] == model.subs.add(words)
    fresh = [list(r) for r in _workload_sample("aol", seed=4, fraction=0.05).records]
    sched = serving.build_schedule(model, serving.WRITE_MIX, 600, rng, fresh)
    checked = 0
    for req, kind, expect in zip(sched.requests, sched.kinds, sched.expect):
        result = state.handle(req["op"], req, None)
        if expect is not None:
            response = {"ok": True, "result": result}
            assert serving.check_response(kind, response, expect), (kind, req)
            checked += 1
    assert checked > 300
    assert len(state.index) == len(model.records.sets)
    assert len(state.broker) == len(model.subs.sets)


def _stub_server(sock: socket.socket, stall_at: int, stall_s: float) -> None:
    """Answer every line at once, except sleep ``stall_s`` before ``stall_at``."""
    buf = b""
    with sock:
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                return
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                request = json.loads(line)
                if request["id"] == stall_at:
                    time.sleep(stall_s)
                sock.sendall(json.dumps({"id": request["id"], "ok": True}).encode() + b"\n")


def test_open_loop_records_a_stall_on_every_request_queued_behind_it():
    rate, count, stall_at, stall_s = 200.0, 200, 60, 0.3
    client, server = socket.socketpair()
    thread = threading.Thread(target=_stub_server, args=(server, stall_at, stall_s))
    thread.start()
    try:
        due = schedule_times(rate, count)
        requests = [{"id": i, "op": "ping"} for i in range(count)]
        result = run_open_loop(client, requests, due)
    finally:
        client.close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert result.failed == 0
    # The generator kept to its schedule through the stall ...
    assert max(result.late) < 0.05
    # ... so every request due before the stall ended waited for it,
    # measured from its due time.
    stall_end = due[stall_at] + stall_s
    behind = [i for i in range(stall_at, count) if due[i] < stall_end]
    assert len(behind) >= int(stall_s * rate) - 1
    for i in behind:
        assert result.latency[i] >= stall_end - due[i] - 0.01, i
    # Requests due well after the stall see no trace of it.
    assert max(result.latency[i] for i in range(count - 20, count)) < 0.05
