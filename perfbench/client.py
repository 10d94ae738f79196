"""The benchmark's own load generator: raw keep-alive sockets.

Independent of ``repro.oracle.client`` and ``repro.loadgen`` on purpose,
so the instrument does not change when the program under test does.
Rules it keeps:

* at most ``nproc`` threads (the calling thread counts) and at most
  ``nproc`` connections at any time;
* ``TCP_NODELAY`` and exactly one ``sendall`` per request (per line on
  ``/stream``);
* open-loop latency is measured from each request's *due* time, so a
  late client shows up as latency, not as a lighter load; how late each
  send ran against the schedule is recorded separately.

Every record is a tuple of perf_counter timestamps; callers turn them
into metrics.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

NPROC = os.cpu_count() or 1

_clock = time.perf_counter


class ClientLimitError(RuntimeError):
    """The load generator would exceed its thread or connection budget."""


class Budget:
    """Counts live connections and checks the thread budget."""

    def __init__(self, limit: int = NPROC):
        self.limit = limit
        self.conns = 0
        self.max_conns = 0
        self.max_threads = threading.active_count()
        self._lock = threading.Lock()

    def open(self) -> None:
        with self._lock:
            if self.conns + 1 > self.limit:
                raise ClientLimitError(
                    f"connection budget of {self.limit} exceeded"
                )
            self.conns += 1
            self.max_conns = max(self.max_conns, self.conns)

    def close(self) -> None:
        with self._lock:
            self.conns -= 1

    def check_threads(self) -> None:
        live = threading.active_count()
        self.max_threads = max(self.max_threads, live)
        if live > self.limit:
            raise ClientLimitError(
                f"thread budget of {self.limit} exceeded ({live} live)"
            )


BUDGET = Budget()


class Conn:
    """One keep-alive HTTP/1.1 connection speaking just enough HTTP."""

    def __init__(self, port: int, host: str = "127.0.0.1",
                 timeout: float = 30.0):
        BUDGET.open()
        try:
            self.sock = socket.create_connection((host, port), timeout=timeout)
        except BaseException:
            BUDGET.close()
            raise
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()
        self.closed = False

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            try:
                self.sock.close()
            finally:
                BUDGET.close()

    def __enter__(self) -> "Conn":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def read_line(self) -> bytes:
        """One ``\\n``-terminated line (used by the ndjson stream)."""
        while True:
            at = self.buf.find(b"\n")
            if at >= 0:
                line = bytes(self.buf[:at + 1])
                del self.buf[:at + 1]
                return line
            self._fill()

    def read_head(self) -> Tuple[int, Dict[str, str]]:
        while True:
            at = self.buf.find(b"\r\n\r\n")
            if at >= 0:
                break
            self._fill()
        head = bytes(self.buf[:at]).decode("latin-1").split("\r\n")
        del self.buf[:at + 4]
        status = int(head[0].split()[1])
        headers = {}
        for line in head[1:]:
            key, _, val = line.partition(":")
            headers[key.strip().lower()] = val.strip()
        return status, headers

    def request(
        self, method: str, path: str, body: bytes = b"",
        request_id: Optional[str] = None,
    ) -> Tuple[int, bytes, float, float, float, float]:
        """One request/response; returns
        ``(status, body, t_start, t_written, t_first_byte, t_done)``."""
        head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        if body:
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        if request_id:
            head += f"X-Request-Id: {request_id}\r\n"
        wire = (head + "\r\n").encode("latin-1") + body
        t0 = _clock()
        self.sock.sendall(wire)
        t1 = _clock()
        if not self.buf:
            self._fill()
        t2 = _clock()
        status, headers = self.read_head()
        length = int(headers.get("content-length", "0"))
        while len(self.buf) < length:
            self._fill()
        payload = bytes(self.buf[:length])
        del self.buf[:length]
        t3 = _clock()
        if headers.get("connection", "").lower() == "close":
            self.close()
        return status, payload, t0, t1, t2, t3

    def get_json(self, path: str) -> Tuple[int, object]:
        status, payload, *_ = self.request("GET", path)
        return status, json.loads(payload)

    def get_text(self, path: str) -> Tuple[int, str]:
        status, payload, *_ = self.request("GET", path)
        return status, payload.decode()


def poisson_schedule(rng, rate: float, count: int) -> List[float]:
    """Arrival offsets (s) of the first ``count`` events of a Poisson
    process at ``rate``."""
    return list(itertools.accumulate(
        rng.exponential(1.0 / rate, size=count).tolist()
    ))


def _sleep_until(t: float) -> None:
    while True:
        left = t - _clock()
        if left <= 0:
            return
        # Sleep most of the gap, spin the last fraction of a millisecond.
        time.sleep(left - 0.0002 if left > 0.0005 else 0)


def _run_workers(worker: Callable[[int], None], count: int) -> None:
    """Run ``worker(i)`` for ``i < count`` on the caller's thread plus
    ``count - 1`` extra threads (so ``count`` threads in total)."""
    if count > BUDGET.limit:
        raise ClientLimitError(f"{count} workers exceed {BUDGET.limit}")
    errors: List[BaseException] = []

    def _guard(i: int) -> None:
        try:
            worker(i)
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)

    extra = [
        threading.Thread(target=_guard, args=(i,), daemon=True)
        for i in range(1, count)
    ]
    for t in extra:
        t.start()
    BUDGET.check_threads()
    _guard(0)
    for t in extra:
        t.join()
    if errors:
        raise errors[0]


# A record: (due, t_start, t_written, t_first_byte, t_done, status,
#            index, payload_bytes)
Record = Tuple[float, float, float, float, float, int, int, bytes]


def _single_body(u: int, v: int, debug: bool) -> bytes:
    if debug:
        return b'{"u": %d, "v": %d, "debug": true}' % (u, v)
    return b'{"u": %d, "v": %d}' % (u, v)


def open_loop_http(
    port: int, path: str, pairs: Sequence[Tuple[int, int]],
    offsets: Sequence[float], connections: int, debug: bool = False,
    id_prefix: Optional[str] = None,
) -> List[Record]:
    """Single-pair requests due at ``offsets`` (request ``i`` asks
    ``pairs[i]``), served by ``connections`` keep-alive connections that
    each take the next due request when free."""
    counter = itertools.count()
    total = len(offsets)
    records: List[List[Record]] = [[] for _ in range(connections)]
    conns = [Conn(port) for _ in range(connections)]
    base = _clock() + 0.01

    def worker(slot: int) -> None:
        conn, out = conns[slot], records[slot]
        while True:
            i = next(counter)
            if i >= total:
                return
            due = base + offsets[i]
            _sleep_until(due)
            u, v = pairs[i]
            rid = f"{id_prefix}-{i}" if id_prefix else None
            status, payload, t0, t1, t2, t3 = conn.request(
                "POST", path, _single_body(u, v, debug), rid
            )
            out.append((due, t0, t1, t2, t3, status, i, payload))

    try:
        _run_workers(worker, connections)
    finally:
        for c in conns:
            c.close()
    return [r for part in records for r in part]


def closed_loop_http(
    port: int, path: str, make_body: Callable[[int], bytes],
    connections: int, seconds: float,
) -> List[Record]:
    """Back-to-back requests on ``connections`` connections for
    ``seconds``; ``make_body(i)`` builds request ``i``'s body."""
    counter = itertools.count()
    records: List[List[Record]] = [[] for _ in range(connections)]
    conns = [Conn(port) for _ in range(connections)]
    stop = _clock() + seconds

    def worker(slot: int) -> None:
        conn, out = conns[slot], records[slot]
        while _clock() < stop:
            i = next(counter)
            status, payload, t0, t1, t2, t3 = conn.request(
                "POST", path, make_body(i)
            )
            out.append((t0, t0, t1, t2, t3, status, i, payload))

    try:
        _run_workers(worker, connections)
    finally:
        for c in conns:
            c.close()
    return [r for part in records for r in part]


def stream(
    port: int, path: str, pairs: Sequence[Tuple[int, int]],
    offsets: Optional[Sequence[float]] = None, window: int = 0,
    seconds: float = 0.0,
) -> List[Record]:
    """Pipeline single queries over one ``POST /stream`` connection:
    the calling thread writes, one extra thread reads.

    Open loop when ``offsets`` is given (line ``i`` due at
    ``offsets[i]``); otherwise closed loop for ``seconds`` with at most
    ``window`` lines in flight.  Responses come back in request order.
    """
    conn = Conn(port)
    closed = offsets is None
    slots = threading.Semaphore(window) if closed else None
    sent: List[Tuple[float, float, float]] = []  # (due, t_start, t_written)
    got: List[Tuple[float, float, bytes]] = []  # (t_first, t_done, line)
    done_writing = threading.Event()

    def reader(_slot: int) -> None:
        status, _ = conn.read_head()
        if status != 200:
            raise ConnectionError(f"/stream answered {status}")
        while True:
            if not conn.buf:
                try:
                    conn._fill()
                except ConnectionError:
                    return
            t2 = _clock()
            line = conn.read_line()
            got.append((t2, _clock(), line))
            if slots is not None:
                slots.release()
            if done_writing.is_set() and len(got) >= len(sent):
                return

    def writer(_slot: int) -> None:
        conn.sock.sendall(
            f"POST {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()
        )
        base = _clock() + 0.01
        stop = base + seconds
        for i in itertools.count():
            if closed:
                if _clock() >= stop:
                    break
                slots.acquire()
                due = _clock()
            else:
                if i >= len(offsets):
                    break
                due = base + offsets[i]
                _sleep_until(due)
            u, v = pairs[i % len(pairs)]
            t0 = _clock()
            conn.sock.sendall(_single_body(u, v, False) + b"\n")
            sent.append((due, t0, _clock()))
        done_writing.set()
        conn.sock.sendall(b"\n")  # a blank line ends the stream

    try:
        _run_workers(lambda s: writer(s) if s == 0 else reader(s), 2)
    finally:
        conn.close()
    if len(got) != len(sent):
        raise ConnectionError(
            f"/stream answered {len(got)} of {len(sent)} lines"
        )
    out: List[Record] = []
    for i, ((due, t0, t1), (t2, t3, line)) in enumerate(zip(sent, got)):
        body = json.loads(line)
        out.append((due, t0, t1, t2, t3, int(body.get("status", 0)), i, line))
    return out
