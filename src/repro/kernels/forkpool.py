"""One supervised fork-worker pool: the primitive behind both the
kernel shard pool (:mod:`repro.kernels.parallel`) and the sharded
oracle's worker pool (:mod:`repro.oracle.sharded`).

A :class:`ForkPool` forks one worker per *slot* (a stateless index, or
a shard backend) and gives each its own pipe.  A worker loops: receive
a message, run ``handler(slot, msg)``, reply ``("ok", out)`` or
``("error", exc)``.  :meth:`ForkPool.roundtrip` sends to every
addressed slot, then collects, watching the workers through
``proc.is_alive()`` and the ``REPRO_POOL_TIMEOUT`` no-progress budget:
a dead or hung worker or a torn pipe raises :class:`PoolBroken` and
stops the workers, while a worker's own exception is re-raised once
every reply is drained (the pool stays usable).

:meth:`ForkPool.run` carries the one failure ladder (DESIGN.md §7,
§10): the first :class:`PoolBroken` rebuilds the workers once, the
second degrades the pool, and from then on every call runs the
caller's serial function — identical results — until the owner drops
the pool.  Both steps warn with :class:`ParallelFallback`.

Workers fork lazily at the first round trip (or :meth:`ForkPool.start`)
and stop with the pool object, at interpreter exit at the latest.  The
resource tracker is started before the first fork, so workers attaching
the parent's shared memory share the parent's tracker, and every worker
closes the parent-side pipe ends it inherited: when the parent dies,
however it dies, the workers read EOF and exit, and the tracker then
unlinks whatever segments the parent left.  Stopping is cooperative
too: the owner closes its pipe ends, and only a worker still running
after a grace period gets SIGTERM, then SIGKILL.  Workers drop inherited
signal handlers and the wakeup fd, so a signal never reaches the parent.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import warnings
import weakref
from multiprocessing.connection import wait
from typing import Callable, Dict, Iterable

__all__ = [
    "ENV_POOL_TIMEOUT_VAR",
    "ForkPool",
    "ParallelFallback",
    "PoolBroken",
    "fork_available",
    "pool_timeout",
]

#: Hung-worker budget override (seconds): a round trip whose workers
#: make no progress for this long is declared broken.
ENV_POOL_TIMEOUT_VAR = "REPRO_POOL_TIMEOUT"

#: Default hung-worker budget — generous, because a legitimate shard on
#: a loaded host can be slow; the *liveness* check (dead workers) fires
#: within a poll interval regardless.
_DEFAULT_POOL_TIMEOUT = 120.0

#: How often a waiting round trip wakes to check worker liveness.
_POLL = 0.05

#: How long stopping waits for workers to exit on EOF, and then on
#: SIGTERM, before it escalates.
_STOP_GRACE = 1.0


class ParallelFallback(UserWarning):
    """Warned when parallel execution degrades: ``backend="parallel"``
    without numba (once per process), and every pool rebuild or
    degrade; the message names the rung actually taken."""


class PoolBroken(Exception):
    """A worker died, stopped making progress, or its pipe tore."""


def pool_timeout() -> float:
    """The hung-worker budget in seconds (``REPRO_POOL_TIMEOUT``
    override)."""
    value = os.environ.get(ENV_POOL_TIMEOUT_VAR)
    if not value:
        return _DEFAULT_POOL_TIMEOUT
    try:
        timeout = float(value)
    except ValueError:
        raise ValueError(
            f"{ENV_POOL_TIMEOUT_VAR}={value!r} is not a number of seconds"
        )
    if timeout <= 0:
        raise ValueError(
            f"{ENV_POOL_TIMEOUT_VAR} must be > 0, got {timeout!r}"
        )
    return timeout


def fork_available() -> bool:
    """Whether this process can fork pool workers: the platform has the
    ``fork`` start method and this process is not itself a (daemonic)
    pool worker."""
    if _IN_WORKER:
        return False
    return "fork" in multiprocessing.get_all_start_methods()


#: True inside a pool worker: daemonic processes cannot fork, and each
#: inherits ``_FORK_LOCK`` held, so a nested pool must never start.
_IN_WORKER = False
#: Parent-side pipe ends of every running pool in this process.
_PARENT_ENDS: set = set()
#: Serializes forking, so no worker inherits a half-built pool.
_FORK_LOCK = threading.Lock()


def _worker_main(conn, slot, handler) -> None:
    global _IN_WORKER
    _IN_WORKER = True
    # The owner stops workers through their pipes; SIGTERM is the
    # fallback and must kill, not run (or wake) the parent's handlers.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for inherited in _PARENT_ENDS:
        inherited.close()
    _PARENT_ENDS.clear()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        try:
            reply = ("ok", handler(slot, msg))
        except Exception as exc:
            reply = ("error", exc)
        try:
            conn.send(reply)
        except Exception:
            break


def _stop_workers(procs, conns) -> None:
    # An idle worker reads EOF and exits; a busy or hung one is
    # terminated once the grace period is up, and killed after another.
    for conn in conns:
        _PARENT_ENDS.discard(conn)
        conn.close()
    deadline = time.monotonic() + _STOP_GRACE
    for proc in procs:
        proc.join(timeout=max(0.0, deadline - time.monotonic()))
    alive = [proc for proc in procs if proc.is_alive()]
    for proc in alive:
        proc.terminate()
    for proc in alive:
        proc.join(timeout=_STOP_GRACE)
        if proc.is_alive():
            proc.kill()
            proc.join()


class ForkPool:
    """Forked workers, one per slot, each on its own pipe, with the
    shared supervision and failure ladder (see the module docstring).
    ``handler(slot, msg)`` runs in the worker of ``slots[i]`` for every
    message sent to index ``i``; ``name`` labels the warnings.  Calls
    are serialized by an internal lock."""

    def __init__(self, slots: Iterable, handler: Callable, name: str):
        self.slots = list(slots)
        self.name = name
        self.rebuilds = 0
        self.degraded = False
        self._handler = handler
        self._lock = threading.RLock()
        self._procs = self._conns = self._finalizer = None

    @property
    def active(self) -> bool:
        """Whether the workers are running."""
        return self._procs is not None

    def start(self) -> None:
        """Fork the workers unless they are running (idempotent)."""
        if self.active:
            return
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        ctx = multiprocessing.get_context("fork")
        procs, conns = [], []
        with _FORK_LOCK:
            try:
                for slot in self.slots:
                    parent, child = ctx.Pipe()
                    _PARENT_ENDS.add(parent)
                    conns.append(parent)
                    try:
                        proc = ctx.Process(
                            target=_worker_main,
                            args=(child, slot, self._handler),
                            daemon=True,
                        )
                        proc.start()
                    finally:
                        child.close()
                    procs.append(proc)
            except BaseException:
                _stop_workers(procs, conns)
                raise
        self._procs, self._conns = procs, conns
        self._finalizer = weakref.finalize(self, _stop_workers, procs, conns)

    def close(self) -> None:
        """Stop the workers (idempotent).  The ladder state stays; a
        later round trip forks afresh unless the pool is degraded."""
        with self._lock:
            if self._finalizer is not None:
                self._finalizer()
            self._procs = self._conns = self._finalizer = None

    def roundtrip(self, msgs: Dict[int, object]) -> Dict[int, object]:
        """Send ``msgs[i]`` to the worker of ``slots[i]`` for every key,
        then collect the replies as ``{i: out}``.  Raises
        :class:`PoolBroken` (workers stopped) on a dead or hung worker
        or a torn pipe, and re-raises a worker's own exception once
        every reply is in."""
        with self._lock:
            try:
                self.start()
            except Exception as exc:
                raise PoolBroken(f"could not fork workers: {exc}") from exc
            try:
                for i, msg in msgs.items():
                    try:
                        self._conns[i].send(msg)
                    except OSError as exc:
                        raise PoolBroken(f"worker {i} pipe tore: {exc}")
                replies = self._collect(list(msgs))
            except BaseException:
                self.close()
                raise
        for status, out in replies.values():
            if status == "error":
                raise out
        return {i: out for i, (_, out) in replies.items()}

    def run(
        self,
        msgs: Dict[int, object],
        serial: Callable[[Dict[int, object]], Dict[int, object]],
    ) -> Dict[int, object]:
        """:meth:`roundtrip` under the failure ladder: rebuild once,
        then ``serial(msgs)`` for this and every later call."""
        with self._lock:
            while not self.degraded:
                try:
                    return self.roundtrip(msgs)
                except PoolBroken as exc:
                    if self.rebuilds == 0:
                        self.rebuilds = 1
                        then = "rebuilding the workers once and retrying"
                    else:
                        self.degraded = True
                        then = (
                            "degrading to in-process serial execution "
                            "(identical results) until the pool is reset"
                        )
                    warnings.warn(
                        f"{self.name}: {exc}; {then}", ParallelFallback,
                        stacklevel=3,
                    )
            return serial(msgs)

    def _collect(self, indices) -> Dict[int, tuple]:
        pending = {self._conns[i]: i for i in indices}
        replies: Dict[int, tuple] = {}
        budget = pool_timeout()
        deadline = time.monotonic() + budget
        while pending:
            ready = wait(list(pending), timeout=_POLL)
            for conn in ready:
                i = pending.pop(conn)
                try:
                    replies[i] = conn.recv()
                except (EOFError, OSError):
                    self._procs[i].join(timeout=1.0)  # reap for the code
                    raise PoolBroken(self._died(i))
            if ready:
                deadline = time.monotonic() + budget
                continue
            for i in pending.values():
                if not self._procs[i].is_alive():
                    raise PoolBroken(self._died(i))
            if time.monotonic() >= deadline:
                raise PoolBroken(
                    f"workers made no progress for {budget:g}s "
                    f"(set {ENV_POOL_TIMEOUT_VAR} to adjust)"
                )
        return replies

    def _died(self, i: int) -> str:
        code = self._procs[i].exitcode
        return f"worker {i} died mid-task (exit code {code})"
