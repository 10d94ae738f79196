"""Load drivers: closed-loop concurrency and open-loop arrivals.

The second llm-d-benchmark axis: the same request sequence can be
driven two ways, and the two answer different questions —

* **closed loop** (:func:`run_closed_loop`) — ``concurrency`` worker
  threads, each with its own keep-alive
  :class:`~repro.oracle.client.OracleClient`, each replaying its
  deterministic slice of the sequence back-to-back.  The offered load
  adapts to the server (a slow server is offered less), so this
  measures *sustainable throughput at a fixed concurrency* — the E20
  shape.
* **open loop** (:func:`run_open_loop`) — requests fire at
  pre-computed schedule offsets regardless of completions (Poisson
  arrivals, or the ``burst`` profile's simultaneous packets).  The
  offered load does **not** adapt, so this is the shape that actually
  stresses admission control: a slow server faces the same arrival
  storm and must shed.

Both drivers share the outcome contract: every issued request produces
exactly one :class:`~repro.loadgen.metrics.QueryOutcome` — a response
(any status) records its latency and body-derived answer; a transport
death records ``status=None`` with infinite latency.  Nothing is
retried (``max_attempts=1``): the harness is an *observer* of failure
semantics, so a 503 must surface in the report, not be absorbed by the
client's backoff ladder the way a production caller would.

Requests are assigned to workers by stride (worker ``w`` takes indices
``w, w+W, w+2W, ...``), a pure function of the worker count — so the
(request → connection) mapping is as deterministic as the sequence
itself.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..oracle.client import OracleClient, OracleClientError
from .metrics import QueryOutcome
from .profiles import Request

__all__ = ["outcome", "run_closed_loop", "run_open_loop"]


def outcome(
    req: Request,
    index: int,
    status: int,
    body: Dict[str, object],
    latency_ms: float = math.inf,
) -> QueryOutcome:
    """The outcome of one answered request, from its status and JSON
    body (served, or answered in-process for the engine replay)."""
    if status == 200:
        answer = body.get("distances") if req.kind == "batch" else body.get("distance")
        error = None
    else:
        answer, error = None, str(body.get("error", body))
    return QueryOutcome(
        index=index, tenant=req.tenant, kind=req.kind,
        status=status, latency_ms=latency_ms, answer=answer,
        pairs=req.pairs, error=error,
    )


def _issue(
    client: OracleClient, req: Request, index: int
) -> QueryOutcome:
    """One request → one outcome; never raises."""
    t0 = time.perf_counter()
    try:
        status, body = client.query(dict(req.payload), name=req.tenant)
    except OracleClientError as exc:
        # Transport death (refused/reset/timeout with max_attempts=1):
        # no status line was read, so there is no latency to report.
        return QueryOutcome(
            index=index, tenant=req.tenant, kind=req.kind,
            status=None, latency_ms=math.inf, pairs=req.pairs,
            error=str(exc),
        )
    return outcome(
        req, index, status, body, (time.perf_counter() - t0) * 1e3
    )


def _make_client(base_url: str, timeout_s: float) -> OracleClient:
    # max_attempts=1: the harness observes failures, it must not mask
    # them (chaos accounting equates report counts with server counters).
    return OracleClient(base_url, max_attempts=1, timeout_s=timeout_s)


def run_closed_loop(
    base_url: str,
    requests: Sequence[Request],
    concurrency: int,
    timeout_s: float = 30.0,
) -> Tuple[float, List[QueryOutcome], Dict[str, object]]:
    """Drive ``requests`` with ``concurrency`` closed-loop keep-alive
    clients; returns ``(duration_s, outcomes, driver_stats)``."""
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    concurrency = min(int(concurrency), max(1, len(requests)))
    barrier = threading.Barrier(concurrency + 1)
    outcomes: List[Optional[QueryOutcome]] = [None] * len(requests)

    def work(w: int) -> None:
        with _make_client(base_url, timeout_s) as client:
            barrier.wait()
            for i in range(w, len(requests), concurrency):
                outcomes[i] = _issue(client, requests[i], i)

    threads = [
        threading.Thread(target=work, args=(w,), name=f"loadgen-closed-{w}")
        for w in range(concurrency)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    duration = time.perf_counter() - t0
    return duration, list(outcomes), {"concurrency": concurrency}


def run_open_loop(
    base_url: str,
    requests: Sequence[Request],
    offsets_s: np.ndarray,
    workers: Optional[int] = None,
    timeout_s: float = 30.0,
) -> Tuple[float, List[QueryOutcome], Dict[str, object]]:
    """Fire request ``i`` at ``t0 + offsets_s[i]`` regardless of
    completions; returns ``(duration_s, outcomes, driver_stats)``.

    ``workers`` threads (default: enough to cover the largest
    simultaneous packet, capped at 128) pre-exist the run and each
    sleeps until its next request's scheduled time.  If every worker is
    still busy at an arrival time the request fires late; the report's
    ``max_lateness_ms`` makes that visible, so an under-provisioned
    harness cannot silently turn an open-loop run into a closed one.
    """
    if len(offsets_s) != len(requests):
        raise ValueError(
            f"schedule length {len(offsets_s)} != request count "
            f"{len(requests)}"
        )
    if workers is None:
        workers = min(128, max(8, len(requests) // 2))
    workers = min(int(workers), max(1, len(requests)))
    barrier = threading.Barrier(workers + 1)
    outcomes: List[Optional[QueryOutcome]] = [None] * len(requests)
    lateness = [0.0] * workers
    t0_box = [0.0]

    def work(w: int) -> None:
        with _make_client(base_url, timeout_s) as client:
            barrier.wait()
            t0 = t0_box[0]
            for i in range(w, len(requests), workers):
                delay = t0 + float(offsets_s[i]) - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                else:
                    lateness[w] = max(lateness[w], -delay)
                outcomes[i] = _issue(client, requests[i], i)

    threads = [
        threading.Thread(target=work, args=(w,), name=f"loadgen-open-{w}")
        for w in range(workers)
    ]
    for t in threads:
        t.start()
    t0_box[0] = time.perf_counter() + 0.005  # let workers clear the barrier
    barrier.wait()
    for t in threads:
        t.join()
    duration = time.perf_counter() - t0_box[0]
    return duration, list(outcomes), {
        "workers": workers,
        "max_lateness_ms": max(lateness) * 1e3,
    }
