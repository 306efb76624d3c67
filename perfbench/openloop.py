"""Open-loop NDJSON load generator over one connection.

Requests are sent on a fixed schedule whether or not earlier ones have been
answered, and every latency is measured from the moment the request was
*due*, not from when it was written. A server that stalls therefore cannot
hide the stall by receiving less load: every request queued behind the stall
records the wait (no coordinated omission).

The loop is single-threaded: it writes every due request, then waits in
``select`` for responses until the next due time. ``late`` records how far
behind schedule each request was actually written.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["OpenLoopResult", "run_open_loop", "schedule_times", "split_by_kind"]

#: Seconds after the last send that unanswered requests are waited for.
DRAIN_TIMEOUT = 30.0


def schedule_times(rate: float, count: int) -> List[float]:
    """Due offsets (seconds from start) for ``count`` evenly spaced sends."""
    return [i / rate for i in range(count)]


@dataclass
class OpenLoopResult:
    """Per-request outcome, indexed like the request list."""

    latency: List[Optional[float]]
    responses: List[Optional[Dict[str, Any]]]
    late: List[float]
    wall: float
    failed: int = 0
    errors: List[str] = field(default_factory=list)


def run_open_loop(
    sock: socket.socket,
    requests: Sequence[Dict[str, Any]],
    due: Sequence[float],
    *,
    keep: Optional[Sequence[bool]] = None,
) -> OpenLoopResult:
    """Send ``requests[i]`` at ``start + due[i]``; collect every response.

    Each request dict must carry a unique integer ``id`` equal to its index.
    ``keep[i]`` chooses whether the decoded response is retained (the model
    check samples a few); latencies are always kept. Requests still
    unanswered DRAIN_TIMEOUT seconds after the last send count as failed.
    """
    n = len(requests)
    lines = [
        (json.dumps(req, separators=(",", ":")) + "\n").encode("utf-8")
        for req in requests
    ]
    latency: List[Optional[float]] = [None] * n
    responses: List[Optional[Dict[str, Any]]] = [None] * n
    late = [0.0] * n
    sock.setblocking(False)
    sel = selectors.DefaultSelector()
    sel.register(sock, selectors.EVENT_READ)
    outbuf = bytearray()
    inbuf = bytearray()
    answered = 0
    nxt = 0
    start = time.perf_counter() + 0.005
    deadline: Optional[float] = None
    try:
        while answered < n:
            now = time.perf_counter()
            while nxt < n and start + due[nxt] <= now:
                outbuf += lines[nxt]
                late[nxt] = now - (start + due[nxt])
                nxt += 1
            if outbuf:
                try:
                    sent = sock.send(outbuf)
                    del outbuf[:sent]
                except BlockingIOError:
                    pass
            if nxt >= n and deadline is None:
                deadline = now + DRAIN_TIMEOUT
            if deadline is not None and now > deadline:
                break
            if nxt < n:
                timeout = max(0.0, start + due[nxt] - time.perf_counter())
            else:
                timeout = 0.05
            if outbuf:
                timeout = min(timeout, 0.001)
            for __ in sel.select(timeout):
                try:
                    chunk = sock.recv(1 << 16)
                except BlockingIOError:
                    continue
                if not chunk:
                    raise ConnectionError("server closed the connection")
                received = time.perf_counter()
                inbuf += chunk
                while True:
                    cut = inbuf.find(b"\n")
                    if cut < 0:
                        break
                    line = bytes(inbuf[:cut])
                    del inbuf[: cut + 1]
                    obj = json.loads(line)
                    rid = obj.get("id")
                    if not isinstance(rid, int) or not 0 <= rid < n:
                        continue
                    if latency[rid] is None:
                        answered += 1
                    latency[rid] = received - (start + due[rid])
                    if keep is None or keep[rid] or not obj.get("ok"):
                        responses[rid] = obj
    except (ConnectionError, OSError) as exc:
        errors = [f"{type(exc).__name__}: {exc}"]
    else:
        errors = []
    finally:
        sel.unregister(sock)
        sel.close()
        sock.setblocking(True)
    wall = time.perf_counter() - start
    failed = sum(1 for value in latency if value is None)
    failed += sum(
        1 for obj in responses if obj is not None and not obj.get("ok")
    )
    return OpenLoopResult(latency, responses, late, wall, failed, errors)


def split_by_kind(
    kinds: Sequence[str], latency: Sequence[Optional[float]]
) -> Dict[str, List[float]]:
    """Group answered latencies by request kind."""
    out: Dict[str, List[float]] = {}
    for kind, value in zip(kinds, latency):
        if value is not None:
            out.setdefault(kind, []).append(value)
    return out
