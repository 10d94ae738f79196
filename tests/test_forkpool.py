"""The supervised fork-worker pool (``repro.kernels.forkpool``): round
trips, supervision, the shared failure ladder, and what a pool leaves
behind — no shared-memory segments after a SIGKILLed parent, no stderr
noise from a normal streamed build."""

import os
import signal
import subprocess
import sys
import time
import warnings

import pytest

from repro.kernels import forkpool
from repro.kernels import parallel as par
from repro.kernels.forkpool import ForkPool, ParallelFallback, PoolBroken

pytestmark = pytest.mark.skipif(
    not forkpool.fork_available(), reason="fork start method unavailable"
)

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _echo(slot, msg):
    if msg == "boom":
        raise ValueError(f"bad message for slot {slot}")
    if msg == "die":
        os._exit(3)
    if msg == "hang":
        time.sleep(60)
    return slot, msg


def _serial(msgs):
    return {i: ("serial", msg) for i, msg in msgs.items()}


@pytest.fixture
def pool():
    p = ForkPool(["a", "b"], _echo, "test pool")
    yield p
    p.close()


class TestRoundtrip:
    def test_routes_by_slot_index(self, pool):
        assert pool.roundtrip({0: 1, 1: 2}) == {0: ("a", 1), 1: ("b", 2)}
        assert pool.roundtrip({1: 3}) == {1: ("b", 3)}
        assert pool.active

    def test_worker_error_reraised_and_pool_survives(self, pool):
        with pytest.raises(ValueError, match="slot a"):
            pool.roundtrip({0: "boom", 1: 1})
        assert pool.active
        assert pool.roundtrip({0: 5, 1: 6}) == {0: ("a", 5), 1: ("b", 6)}

    def test_dead_worker_is_pool_broken(self, pool):
        with pytest.raises(PoolBroken, match="died mid-task"):
            pool.roundtrip({0: "die", 1: 1})
        assert not pool.active

    def test_hung_worker_is_pool_broken(self, pool, monkeypatch):
        monkeypatch.setenv(forkpool.ENV_POOL_TIMEOUT_VAR, "0.3")
        start = time.monotonic()
        with pytest.raises(PoolBroken, match="no progress"):
            pool.roundtrip({0: "hang"})
        assert time.monotonic() - start < 10
        assert not pool.active

    def test_close_lets_idle_workers_exit_on_eof(self, pool):
        pool.roundtrip({0: 1, 1: 2})
        procs = list(pool._procs)
        pool.close()
        assert [proc.exitcode for proc in procs] == [0, 0]

    def test_stop_ignores_inherited_sigterm_handler(self, monkeypatch):
        """A pool forked under a parent's SIGTERM handler (a server's
        drain hook) still stops a hung worker with SIGTERM, promptly,
        and the parent's handler never runs."""
        fired = []
        previous = signal.signal(
            signal.SIGTERM, lambda *_: fired.append(os.getpid())
        )
        monkeypatch.setenv(forkpool.ENV_POOL_TIMEOUT_VAR, "0.3")
        pool = ForkPool(["a", "b"], _echo, "test pool")
        try:
            pool.start()
            procs = list(pool._procs)
            start = time.monotonic()
            with pytest.raises(PoolBroken, match="no progress"):
                pool.roundtrip({0: "hang"})
            assert time.monotonic() - start < 5
        finally:
            pool.close()
            signal.signal(signal.SIGTERM, previous)
        assert [proc.exitcode for proc in procs] == [-signal.SIGTERM, 0]
        assert fired == []

    def test_close_is_idempotent_and_start_is_lazy(self, pool):
        assert not pool.active
        pool.roundtrip({0: 1})
        pool.close()
        pool.close()
        assert not pool.active
        assert pool.roundtrip({1: 2}) == {1: ("b", 2)}


class TestLadder:
    def test_rebuild_once_then_serial_until_reset(self, pool):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert pool.run({0: "die"}, _serial) == {0: ("serial", "die")}
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, ParallelFallback)]
        assert len(messages) == 2
        assert "rebuilding" in messages[0] and "died mid-task" in messages[0]
        assert "serial" in messages[1]
        assert pool.rebuilds == 1 and pool.degraded
        # Sticky: a healthy message still runs serially, nothing forks.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pool.run({1: 7}, _serial) == {1: ("serial", 7)}
        assert not pool.active

    def test_one_failure_rebuilds_and_answers(self, tmp_path):
        flag = tmp_path / "died"

        def die_once(slot, msg):
            if not flag.exists():
                flag.write_text("1")
                os._exit(9)
            return slot, msg

        flaky = ForkPool(["a"], die_once, "flaky pool")
        try:
            with warnings.catch_warnings(record=True):
                warnings.simplefilter("always")
                assert flaky.run({0: 1}, _serial) == {0: ("a", 1)}
            assert flaky.rebuilds == 1 and not flaky.degraded
            assert flaky.active
        finally:
            flaky.close()


# ----------------------------------------------------------------------
# What a pool leaves behind
# ----------------------------------------------------------------------

_KILL_SNIPPET = """
import os, signal, threading
import numpy as np
from repro.kernels import parallel as par
from repro.oracle.faults import FAULTS

par.MIN_PARALLEL_CELLS = 0
publish = par._publish_shared


def published(payload):
    segments, slots = publish(payload)
    print(" ".join(shm.name for shm in segments), flush=True)
    threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGKILL)).start()
    return segments, slots


par._publish_shared = published
FAULTS.arm("parallel.worker", "delay", seconds=1.0)
s = np.random.default_rng(0).uniform(1, 10, size=(64, 64))
par.minplus_parallel(s, s)
print("not killed", flush=True)
"""

_BUILD_SNIPPET = """
import sys
from repro.graph import generators
from repro.kernels import parallel as par
from repro.oracle.sharded import build_sharded_oracle

g = generators.make_family("er_sparse", 2048, seed=0)
build_sharded_oracle(g, sys.argv[1], shards=2)
print(par.pool_active())
"""


def _env(**extra):
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_FAULTS", "REPRO_KERNEL_BACKEND")}
    env.update(PYTHONPATH=SRC, **extra)
    return env


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
def test_sigkilled_parent_leaks_no_shared_memory():
    """The parent dies mid pool call holding published segments; the
    workers see EOF and exit, and the resource tracker they share with
    the parent unlinks every segment."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILL_SNIPPET],
        env=_env(REPRO_KERNEL_WORKERS="2"), start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        # The orphaned workers hold the pipes: EOF means they exited.
        stdout, stderr = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # don't leave them running
        raise
    assert proc.returncode == -signal.SIGKILL, stderr
    names = stdout.split()
    assert len(names) == 2 and "not killed" not in stdout
    deadline = time.monotonic() + 10
    leaked = names
    while leaked and time.monotonic() < deadline:
        time.sleep(0.1)
        leaked = [n for n in names if os.path.exists(f"/dev/shm/{n}")]
    assert not leaked


@pytest.mark.skipif(par.numba_available(), reason="numba rung: no pool")
def test_streamed_tz_build_leaves_stderr_empty(tmp_path):
    """``"auto"`` promotes the build's exploration onto the pool without
    announcing the numba fallback, and shared memory is released
    without resource-tracker noise."""
    proc = subprocess.run(
        [sys.executable, "-c", _BUILD_SNIPPET, str(tmp_path / "o")],
        env=_env(REPRO_KERNEL_WORKERS="2"),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]  # the pool was engaged
    assert proc.stderr == ""
