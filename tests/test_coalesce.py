"""The request coalescer and the HTTP serving front end.

Unit level: :class:`QueryCoalescer`'s flush rule (queries parked while
a flush runs form the next batch; a lone query flushes at once; close
drains), per-request deadline handling inside a parked batch, and
fault-injected flush failures mapping to *per-request* errors.  A
``coalesce.flush`` delay stalls one flush so batching is deterministic.
HTTP level: keep-alive connections, coalesced ``/query`` singles
showing up as multi-query batches in ``/info``, explicit-batch bypass,
served answers bit-identical to in-process ``query_batch``, and the
keep-alive client's transparent reconnect.  The failure-semantics
contract (503/504/413/400, drain, disconnect accounting) is exercised
by the chaos suite in ``test_resilience.py``.
"""

import json
import socket
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro import oracle
from repro.graph import generators as gen
from repro.oracle import (
    DistanceOracle,
    FAULTS,
    OracleClient,
    build_oracle,
    start_async_server,
)
from repro.oracle.coalesce import CoalescerClosed, QueryCoalescer
from repro.oracle.resilience import (
    AdmissionController,
    Deadline,
    DeadlineExceeded,
)


@pytest.fixture(autouse=True)
def clean_faults():
    FAULTS.disarm()
    yield
    FAULTS.disarm()


@pytest.fixture(scope="module")
def graph():
    return gen.make_family("er_sparse", 70, seed=5)


@pytest.fixture(scope="module")
def exact(graph):
    from repro.graph.distances import all_pairs_distances

    return all_pairs_distances(graph)


@pytest.fixture(scope="module")
def artifact(graph):
    return build_oracle(graph, variant="exact", rng=np.random.default_rng(2))


@pytest.fixture
def engine(artifact):
    return DistanceOracle(artifact, cache_size=0)


# ----------------------------------------------------------------------
# Unit: flush triggers
# ----------------------------------------------------------------------

def _stall_first_flush(co, seconds=0.3):
    """Park one query and wait until the flusher has taken it into a
    ``coalesce.flush`` delay: whatever is submitted next parks behind
    the stalled flush, so batching no longer depends on timing."""
    FAULTS.arm("coalesce.flush", "delay", seconds=seconds, times=1)
    first = co.submit(0, 1)
    deadline = time.monotonic() + 5
    while co.stats()["batches"] < 1 and time.monotonic() < deadline:
        time.sleep(0.001)
    assert co.stats()["batches"] == 1
    return first


class TestCoalescerUnit:
    def test_queries_parked_during_a_flush_form_one_batch(
        self, engine, exact
    ):
        co = QueryCoalescer(engine)
        try:
            first = _stall_first_flush(co)
            futures = [co.submit(0, v) for v in range(1, 9)]
            assert first.result(timeout=5) == float(exact[0, 1])
            values = [f.result(timeout=5) for f in futures]
            assert values == [float(exact[0, v]) for v in range(1, 9)]
            stats = co.stats()
            # All eight parked behind the stalled flush: one next gather.
            assert stats["batches"] == 2
            assert stats["coalesced"] == 9
            assert stats["largest_batch"] == 8
            assert stats["flushes"] == {"ready": 2, "drain": 0}
        finally:
            co.close()

    def test_lone_query_flushes_at_once(self, engine, exact):
        co = QueryCoalescer(engine)
        try:
            assert co.submit(0, 3).result(timeout=5) == float(exact[0, 3])
            stats = co.stats()
            assert stats["batches"] == 1 and stats["largest_batch"] == 1
            assert stats["flushes"]["ready"] == 1
        finally:
            co.close()

    def test_drain_flushes_parked_queries(self, engine, exact):
        co = QueryCoalescer(engine)
        first = _stall_first_flush(co)
        futures = [co.submit(0, v) for v in range(2, 6)]
        co.close()  # parked queries are answered, not abandoned
        assert first.result(timeout=5) == float(exact[0, 1])
        assert [f.result(timeout=5) for f in futures] == [
            float(exact[0, v]) for v in range(2, 6)
        ]
        assert co.stats()["flushes"] == {"ready": 1, "drain": 1}

    def test_submit_after_close_raises(self, engine):
        co = QueryCoalescer(engine)
        co.close()
        with pytest.raises(CoalescerClosed):
            co.submit(0, 1)

    def test_expired_deadline_rejected_individually(self, engine, exact):
        co = QueryCoalescer(engine)
        try:
            first = _stall_first_flush(co)
            dead = Deadline(0.0)
            time.sleep(0.005)
            doomed = co.submit(0, 1, deadline=dead)
            alive = co.submit(0, 2)
            # The expired waiter fails alone; its batch-mate is served.
            assert alive.result(timeout=5) == float(exact[0, 2])
            with pytest.raises(DeadlineExceeded) as err:
                doomed.result(timeout=5)
            assert err.value.progress == {"completed": 0, "total": 1}
            assert first.result(timeout=5) == float(exact[0, 1])
        finally:
            co.close()

    def test_flush_fault_fails_each_parked_request(self, engine):
        co = QueryCoalescer(engine)
        try:
            first = _stall_first_flush(co)
            FAULTS.arm("coalesce.flush", "error", times=1)
            futures = [co.submit(0, v) for v in range(1, 4)]
            first.result(timeout=5)
            for f in futures:
                with pytest.raises(Exception) as err:
                    f.result(timeout=5)
                assert "InjectedFault" in type(err.value).__name__
            # The coalescer survives the failed flush.
            assert co.submit(0, 1).result(timeout=5) >= 0
        finally:
            co.close()

    def test_close_idempotent_and_thread_exits(self, engine):
        baseline = threading.active_count()
        co = QueryCoalescer(engine)
        assert threading.active_count() == baseline + 1
        co.close()
        co.close()
        assert threading.active_count() == baseline

    def test_rejects_bad_parameters(self, engine):
        # No timer or size knob is left to misconfigure: a batch is
        # bounded by its mount's admission slots, which must exist.
        with pytest.raises(TypeError):
            QueryCoalescer(engine, window_ms=1.0)
        with pytest.raises(ValueError):
            AdmissionController(0)


# ----------------------------------------------------------------------
# HTTP: the async front end
# ----------------------------------------------------------------------

@pytest.fixture
def async_server(artifact):
    handle = start_async_server(DistanceOracle(artifact))
    host, port = handle.server_address[:2]
    try:
        yield handle, f"http://{host}:{port}"
    finally:
        handle.drain_and_shutdown()


class TestAsyncFrontend:
    def test_concurrent_singles_coalesce_into_one_gather(
        self, async_server, exact
    ):
        handle, base = async_server
        out = {}
        # The first flush stalls, so the singles that arrive meanwhile
        # park together whatever the scheduling.
        FAULTS.arm("coalesce.flush", "delay", seconds=0.5, times=1)

        def fire(v):
            with OracleClient(base) as c:
                out[v] = c.query({"u": 0, "v": v})

        threads = [
            threading.Thread(target=fire, args=(v,)) for v in range(1, 17)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for v in range(1, 17):
            status, body = out[v]
            assert status == 200
            assert body["distance"] == pytest.approx(float(exact[0, v]))
        info = json.loads(
            urllib.request.urlopen(base + "/info", timeout=5).read()
        )
        stats = info["coalescing"]
        assert stats["coalesced"] == 16
        # Fewer gathers than queries: coalescing actually happened.
        assert stats["batches"] < 16
        assert stats["largest_batch"] >= 2
        assert info["http"]["frontend"] == "async"

    def test_keep_alive_many_queries_one_connection(self, async_server, exact):
        handle, base = async_server
        with OracleClient(base) as c:
            for v in range(1, 30):
                status, body = c.query({"u": 0, "v": v})
                assert status == 200
                assert body["distance"] == pytest.approx(float(exact[0, v]))
            assert c.reconnects == 0

    def test_explicit_batch_bypasses_coalescer(self, async_server, exact):
        handle, base = async_server
        pairs = [[0, v] for v in range(1, 11)]
        with OracleClient(base) as c:
            before = handle.router.services()[0].coalescer.stats()["coalesced"]
            status, body = c.query({"pairs": pairs})
            assert status == 200
            assert body["distances"] == pytest.approx(
                [float(exact[0, v]) for v in range(1, 11)]
            )
            after = handle.router.services()[0].coalescer.stats()["coalesced"]
        assert after == before  # the batch never parked

    def test_results_bit_identical_to_in_process_query_batch(
        self, artifact, exact
    ):
        rng = np.random.default_rng(11)
        n = artifact.n
        queries = [(int(rng.integers(n)), int(rng.integers(n)))
                   for _ in range(60)]
        values = DistanceOracle(artifact, cache_size=0).query_batch(
            [u for u, _ in queries], [v for _, v in queries]
        )
        expected = [float(x) if np.isfinite(x) else None for x in values]

        handle = start_async_server(DistanceOracle(artifact, cache_size=0))
        base_a = "http://%s:%s" % handle.server_address[:2]
        try:
            with OracleClient(base_a) as c:
                got_async = [
                    c.query({"u": u, "v": v})[1]["distance"]
                    for u, v in queries
                ]
        finally:
            handle.drain_and_shutdown()
        assert got_async == expected

    def test_out_of_range_vertex_is_400_not_batch_poison(
        self, async_server, exact
    ):
        handle, base = async_server
        n = handle.router.services()[0].oracle.n
        ok = {}

        def good():
            with OracleClient(base) as c:
                ok["status"], ok["body"] = c.query({"u": 0, "v": 1})

        t = threading.Thread(target=good)
        t.start()
        with OracleClient(base) as c:
            bad_status, bad_body = c.query({"u": 0, "v": n + 5})
        t.join()
        assert bad_status == 400 and "out of range" in bad_body["error"]
        assert ok["status"] == 200  # the batch-mate was unharmed

    def test_drain_shutdown_restores_thread_count(self, artifact):
        baseline = threading.active_count()
        handle = start_async_server(DistanceOracle(artifact))
        base = "http://%s:%s" % handle.server_address[:2]
        with OracleClient(base) as c:
            assert c.query({"u": 0, "v": 1})[0] == 200
        assert handle.drain_and_shutdown() is True
        deadline = time.monotonic() + 5
        while threading.active_count() > baseline and \
                time.monotonic() < deadline:
            time.sleep(0.02)
        # Loop thread, executor workers, and coalescer are all gone.
        assert threading.active_count() <= baseline

    def test_healthz_and_unknown_route(self, async_server):
        handle, base = async_server
        health = json.loads(
            urllib.request.urlopen(base + "/healthz", timeout=5).read()
        )
        assert health["ok"] is True
        with OracleClient(base) as c:
            status, _ = c.query({"u": 0, "v": 1}, name="nope")
            assert status == 404


# ----------------------------------------------------------------------
# The keep-alive client's reconnect discipline
# ----------------------------------------------------------------------

class TestClientReconnect:
    def test_stale_socket_transparent_reconnect(self, artifact):
        eng = DistanceOracle(artifact, cache_size=0)
        handle = start_async_server(eng)
        host, port = handle.server_address[:2]
        base = f"http://{host}:{port}"
        client = OracleClient(base)
        try:
            assert client.query({"u": 0, "v": 1})[0] == 200
            assert client.reconnects == 0
            # Kill the server; restart on the same port: the client's
            # kept-alive socket is now stale.
            handle.drain_and_shutdown()
            handle = start_async_server(eng, port=port)
            status, body = client.query({"u": 0, "v": 2})
            assert status == 200 and "distance" in body
            assert client.reconnects == 1
            assert client.retries == 0  # transparent, not a backoff retry
        finally:
            client.close()
            handle.drain_and_shutdown()

    def test_fresh_connection_failure_not_masked(self):
        # Nothing listens here: a fresh-connection failure must surface
        # through the backoff ladder, not loop on "reconnect".
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        client = OracleClient(
            f"http://127.0.0.1:{port}", max_attempts=2,
            backoff_s=0.01, jitter=0.0,
        )
        with pytest.raises(oracle.ClientRetriesExhausted):
            client.query({"u": 0, "v": 1})
        assert client.reconnects == 0
