"""The repo benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every workload builds a Thorup-Zwick
(``tz``) distance oracle from a seeded ``er_sparse`` graph with the code
under test, checks it, then serves it with ``repro serve --frontend
async`` (default limits) and drives it with the benchmark's own load
generator (``client.py``):

* ``tz_build``     streamed 2-shard build at n=8192 (the measured part),
                   then light/heavy/saturating point ``/query`` traffic
                   on the artifact it built;
* ``point_http``   unsharded n=4096 mount; open-loop Poisson single
                   ``/query`` over 2 keep-alive connections;
* ``point_stream`` the same mount; single queries pipelined over one
                   ``/stream`` connection.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones, as ``BENCHMARK.json`` lists them (README.md defines
both).  Human-readable report lines go
to stdout, the last stdout line is the JSON result; the full report is
written under ``.perfbench/reports/`` and program output under
``.perfbench/logs/``.  Exit code 0 only if every served answer is
bit-identical to an in-process ``DistanceOracle.query_batch`` over the
same artifact files and the artifact passes its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from client import BUDGET, Conn, closed_loop_http, open_loop_http, \
    poisson_schedule, stream as stream_run
from server import Server, metric_sum

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

_clock = time.perf_counter

# Traffic shapes.  Rates are queries/s; the heavy rates sit near a fifth
# of each mount's closed-loop capacity on a 2-core host, so the heavy
# phase loads the server without saturating it even while other tenants
# take a third of the CPU.  A run is
# SERVERS x ROUNDS_PER_SERVER rounds; each round's saturating phase fills
# what is left of its --seconds share.
STREAM_WINDOW = 32
PAIR_POOL = 1 << 16
SETUP_REPEATS = 4
SERVERS = 4
ROUNDS_PER_SERVER = 4
LIGHT_REQUESTS = 100
MIN_MAX_PHASE_S = 0.2
NPROC = os.cpu_count() or 1
WARMUP_QUERIES = 100

WORKLOADS = {
    "tz_build": {"n": 8192, "shards": 2, "shape": "http",
                 "light_qps": 150.0, "heavy_qps": 220.0, "heavy_n": 100},
    "point_http": {"n": 4096, "shards": 0, "shape": "http",
                   "light_qps": 150.0, "heavy_qps": 350.0, "heavy_n": 100},
    "point_stream": {"n": 4096, "shards": 0, "shape": "stream",
                     "light_qps": 150.0, "heavy_qps": 1600.0,
                     "heavy_n": 300},
}


class BenchError(RuntimeError):
    """A wrong answer or a broken run: exit nonzero, print no result."""


def log(msg: str) -> None:
    print(msg, flush=True)


def median(xs: Sequence[float]) -> float:
    return float(statistics.median(xs))


def tail(xs: Sequence[float]) -> float:
    """The highest percentile with at least 10 samples beyond it: the
    11th largest sample (p90 of 100, p96.7 of 300)."""
    s = sorted(xs)
    if len(s) < 100:
        raise BenchError(f"only {len(s)} latency samples; need 100")
    return s[-11]


def count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


# ----------------------------------------------------------------------
# Host and inputs
# ----------------------------------------------------------------------

def fingerprint() -> Dict[str, object]:
    import numpy
    import scipy

    from repro import kernels

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel_backend": kernels.resolve_backend(None),
        "auto_promotes_to_parallel": bool(kernels.parallel_profitable()),
    }


def steal_s() -> float:
    """Host CPU time stolen from this machine's CPUs so far (/proc/stat)."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def make_graph(n: int, seed: int, path: str) -> Dict[str, object]:
    from repro.graph import generators, io

    g = generators.make_family("er_sparse", n, seed=seed)
    io.save_graph(path, g)
    return {"family": "er_sparse", "n": int(g.n), "m": int(g.m)}


def make_pairs(n: int, seed: int):
    import numpy as np

    rng = np.random.default_rng([seed, 7])
    return rng.integers(0, n, size=(PAIR_POOL, 2), dtype=np.int64)


# ----------------------------------------------------------------------
# Build
# ----------------------------------------------------------------------

def run_build(graph: str, out: str, shards: int, seed: int, trace: bool,
              log_path: str) -> Dict[str, object]:
    """One build in a fresh process; wall, CPU and peak RSS from wait4."""
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, os.path.join(HERE, "build.py"), graph, out,
           "--shards", str(shards), "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(log_path, "ab") as err, \
            open(log_path + ".out", "wb") as out_fh:
        t0 = _clock()
        proc = subprocess.Popen(cmd, stdout=out_fh, stderr=err, env=env)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = _clock() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"build exited {proc.returncode}; see {log_path}")
    with open(log_path + ".out") as fh:
        last = fh.read().strip().splitlines()[-1]
    result = json.loads(last)["build"]
    result.update(
        wall_s=wall,
        cpu_util=(ru.ru_utime + ru.ru_stime) / wall,
        peak_rss_mb=ru.ru_maxrss / 1024.0,
    )
    return result


def build_layers(b: Dict[str, object]) -> Dict[str, float]:
    spans = b["spans"]
    stats = b["stats"]
    block = spans.get("block_s", 0.0)
    if "sharded_build_s" in spans:  # build_sharded_oracle self time
        write = spans["sharded_build_s"] - block - spans["sample_hierarchy_s"]
    else:
        write = spans["save_s"]
    return {
        "emulator.sample_hierarchy_s": spans["sample_hierarchy_s"],
        "kernels.explore_s": spans["explore_s"],
        "emulator.arc_rule_s": block - spans["explore_s"],
        "oracle.write_s": write,
        "kernels.explore_cells": spans["explore_cells"],
        "emulator.arcs_per_cell": spans["arcs"] / spans["explore_cells"],
        # The unsharded build holds every arc at once.
        "oracle.peak_resident_arcs": stats.get(
            "peak_resident_arcs", stats["bunch_edges"]
        ),
        "oracle.bytes_written": b["bytes_written"],
        "build.cpu_util": b["cpu_util"],
    }


# ----------------------------------------------------------------------
# Reference answers and artifact checks
# ----------------------------------------------------------------------

def reference(path: str, pairs, graph: Optional[str], seed: int):
    """Expected answers from an in-process oracle over the same files;
    the artifact loads with ``verify=True``; given the input ``graph``,
    sampled sources satisfy d <= est <= (2k-1) d against exact BFS."""
    import numpy as np

    from repro import oracle
    from repro.graph import io
    from repro.graph.distances import bfs_distances

    art = oracle.load_artifact(path, verify=True)
    ref = oracle.DistanceOracle(art)
    expected = ref.query_batch(pairs[:, 0], pairs[:, 1])
    if not np.all(np.isfinite(expected)):
        raise BenchError("reference oracle returned non-finite distances")
    checksums = art.manifest.get("checksums") or {}
    info = {
        "artifact_checksum": hashlib.sha256(
            json.dumps(checksums, sort_keys=True).encode()
        ).hexdigest()[:16],
        "answers_digest": hashlib.sha256(
            np.ascontiguousarray(expected).tobytes()
        ).hexdigest()[:16],
        "k": int((art.manifest.get("stats") or {}).get("k", 0)),
        "arcs": int((art.manifest.get("stats") or {}).get("bunch_edges", 0)),
    }
    smap = art.manifest.get("shard_map")
    if smap:
        bounds = np.asarray(smap["bounds"])
        su = np.searchsorted(bounds, pairs[:, 0], side="right")
        sv = np.searchsorted(bounds, pairs[:, 1], side="right")
        info["cross_shard_share"] = float(np.mean(su != sv))
    else:
        info["cross_shard_share"] = 0.0
    if graph is not None:
        g = io.load_graph(graph)
        k = info["k"]
        rng = np.random.default_rng([seed, 11])
        targets = np.arange(g.n, dtype=np.int64)
        for s in rng.choice(g.n, size=16, replace=False):
            exact = bfs_distances(g, int(s))
            est = ref.query_batch(np.full(g.n, s, dtype=np.int64), targets)
            if not (np.all(exact <= est) and
                    np.all(est <= (2 * k - 1) * exact)):
                raise BenchError(f"stretch bound violated from source {s}")
        info["stretch_checked_sources"] = 16
    return expected, info


def check_records(records, expected, start: int) -> int:
    """Count non-200 responses; raise on any wrong answer.  Request
    ``i`` asked pair ``start + i`` of the pool."""
    failed = 0
    for rec in records:
        status, idx, payload = rec[5], rec[6], rec[7]
        if status != 200:
            failed += 1
            continue
        body = json.loads(payload)
        want = float(expected[(start + idx) % len(expected)])
        if float(body["distance"]) != want:
            raise BenchError(
                f"query {idx} ({body.get('u')},{body.get('v')}): "
                f"served {body['distance']} != engine {want}"
            )
    return failed


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------

def start_server(path: str, log_path: str, pairs):
    """Spawn, wait for ``/healthz``, warm up; returns (server, seconds)."""
    t0 = _clock()
    srv = Server(SRC, f"bench={path}", log_path)
    try:
        srv.wait_ready()
        with Conn(srv.port) as c:
            for i in range(WARMUP_QUERIES):
                u, v = pairs[i]
                status, *_ = c.request(
                    "POST", "/query", b'{"u": %d, "v": %d}' % (u, v)
                )
                if status != 200:
                    raise BenchError(f"warm-up query answered {status}")
    except BaseException:
        srv.stop()
        raise
    return srv, _clock() - t0


def latencies_ms(records) -> List[float]:
    return [(r[4] - r[0]) * 1000.0 for r in records]


def lateness_ms(records) -> List[float]:
    return [max(0.0, r[1] - r[0]) * 1000.0 for r in records]


class Session:
    """Traffic against the current server: walks the pair pool, checks
    every answer, counts attempts and failures."""

    def __init__(self, pairs, expected, rng):
        self.srv = None
        self.plist = [(int(u), int(v)) for u, v in pairs]
        self.expected = expected
        self.rng = rng
        self.cursor = 0
        self.attempted = 0
        self.failed = 0
        self.lateness: List[float] = []

    def _take(self, count: int) -> int:
        start = self.cursor
        self.cursor = (self.cursor + count) % len(self.plist)
        return start

    def _window(self, start: int, count: int):
        n = len(self.plist)
        return [self.plist[(start + i) % n] for i in range(count)]

    def _account(self, records, start: int) -> None:
        self.attempted += len(records)
        self.failed += check_records(records, self.expected, start)

    def open_loop(self, path: str, rate: float, count: int,
                  debug: Optional[str] = None, stream: bool = False):
        """``count`` requests on a Poisson schedule at ``rate``; with
        ``debug`` each carries ``"debug": true`` and an
        ``X-Request-Id`` of ``<debug>-<index>``."""
        offsets = poisson_schedule(self.rng, rate, count)
        start = self._take(len(offsets))
        window = self._window(start, len(offsets))
        if stream:
            recs = stream_run(self.srv.port, "/stream", window, offsets)
        else:
            recs = open_loop_http(
                self.srv.port, path, window, offsets, connections=2,
                debug=debug is not None, id_prefix=debug,
            )
        self._account(recs, start)
        self.lateness.extend(lateness_ms(recs))
        return recs

    def closed_loop(self, shape: str, seconds: float):
        """Saturate the server for ``seconds``; returns the records, the
        queries answered, their wall time and the (client, server) CPU
        seconds spent."""
        start = self.cursor
        cpu0, scpu0 = time.process_time(), self.srv.cpu_s()
        if shape == "stream":
            window = self._window(start, PAIR_POOL)
            recs = stream_run(self.srv.port, "/stream", window,
                              window=STREAM_WINDOW, seconds=seconds)
        else:
            n = len(self.plist)

            def body(i):
                u, v = self.plist[(start + i) % n]
                return b'{"u": %d, "v": %d}' % (u, v)

            recs = closed_loop_http(self.srv.port, "/query", body, 2, seconds)
        wall = max(r[4] for r in recs) - min(r[1] for r in recs)
        cpu = (time.process_time() - cpu0, self.srv.cpu_s() - scpu0)
        self._account(recs, start)
        self.cursor = (start + len(recs)) % len(self.plist)
        return recs, len(recs), wall, cpu


def stage_delta(before, after, stage: str):
    """(seconds, observations) a stage histogram gained between scrapes."""
    name = "repro_stage_duration_seconds"
    return tuple(
        metric_sum(after, f"{name}_{part}", stage=stage)
        - metric_sum(before, f"{name}_{part}", stage=stage)
        for part in ("sum", "count")
    )


def span_layers(recs, serialize_us: float) -> Dict[str, float]:
    """Join client spans with the server's ``spans_ms`` by request id.

    Means, so the parts add up: client write + wait + read is the
    latency the client saw (schedule lateness excluded); the server
    stages plus ``unattributed_us`` (socket, event-loop queueing,
    response write) equal it."""
    parts = {k: [] for k in ("write", "wait", "read", "parse", "admission",
                             "park", "gather")}
    for _due, t0, t1, t2, t3, status, idx, payload in recs:
        if status != 200:
            continue
        body = json.loads(payload)
        trace = body.get("trace") or {}
        if not str(trace.get("id", "")).endswith(f"-{idx}"):
            raise BenchError(f"request {idx}: trace id not echoed")
        spans = trace.get("spans_ms") or {}
        parts["write"].append((t1 - t0) * 1e6)
        parts["wait"].append((t2 - t1) * 1e6)
        parts["read"].append((t3 - t2) * 1e6)
        for stage in ("parse", "admission", "park", "gather"):
            parts[stage].append(float(spans.get(stage, 0.0)) * 1000.0)
    mean = {k: statistics.fmean(v) for k, v in parts.items()}
    client_total = mean["write"] + mean["wait"] + mean["read"]
    server_total = (mean["parse"] + mean["admission"] + mean["park"]
                    + mean["gather"] + serialize_us)
    return {
        "client.write_us": mean["write"],
        "client.wait_us": mean["wait"],
        "client.read_us": mean["read"],
        "service.parse_us": mean["parse"],
        "service.admission_us": mean["admission"],
        "coalesce.park_us": mean["park"],
        "engine.gather_us": mean["gather"],
        "service.serialize_us": serialize_us,
        "unattributed_us": client_total - server_total,
    }


class Counters:
    """Server-side counters summed over every served session."""

    def __init__(self):
        self.values: Dict[str, float] = {}
        self.shard_queries: Optional[List[int]] = None
        self.shard_gather: Dict[str, List[float]] = {}

    def add(self, key: str, value: float) -> None:
        self.values[key] = self.values.get(key, 0.0) + value

    def account(self, before, after) -> None:
        (m0, i0), (m1, i1) = before, after
        c0 = i0.get("coalescing") or {}
        c1 = i1.get("coalescing") or {}
        for key in ("batches", "coalesced"):
            self.add(key, c1.get(key, 0) - c0.get(key, 0))
        for reason in ("window", "size", "drain"):
            self.add(f"flush.{reason}",
                     (c1.get("flushes") or {}).get(reason, 0)
                     - (c0.get("flushes") or {}).get(reason, 0))
        seconds, count = stage_delta(m0, m1, "flush")
        self.add("flush_s", seconds)
        self.add("flush_n", count)
        gather = "repro_engine_gather_seconds_sum"
        self.add("gather_s", metric_sum(m1, gather) - metric_sum(m0, gather))
        shard = "repro_shard_gather_seconds"
        for labels in {ls for (name, ls) in m1 if name == shard + "_sum"}:
            acc = self.shard_gather.setdefault(dict(labels)["shard"], [0, 0])
            for j, part in enumerate(("sum", "count")):
                key = (f"{shard}_{part}", labels)
                acc[j] += m1[key] - m0.get(key, 0.0)
        s0, s1 = i0.get("stats") or {}, i1.get("stats") or {}
        self.add("queries", s1.get("queries", 0) - s0.get("queries", 0))
        if s1.get("shard_queries"):
            per = [b - a for a, b in zip(s0["shard_queries"],
                                         s1["shard_queries"])]
            self.shard_queries = [
                a + b for a, b in zip(self.shard_queries or [0] * len(per),
                                      per)
            ]

    def shard_gather_us(self) -> Dict[str, float]:
        """Mean round trip of one shard's share of a batch, per shard."""
        return {sid: total / count * 1e6
                for sid, (total, count) in sorted(self.shard_gather.items())
                if count}

    def layers(self) -> Dict[str, float]:
        v = self.values
        out = {
            "coalesce.batch_size": (
                v["coalesced"] / v["batches"] if v["batches"] else 0.0
            ),
            "coalesce.flush_us": (
                v["flush_s"] / v["flush_n"] * 1e6 if v["flush_n"] else 0.0
            ),
            "engine.gather_us_per_query": v["gather_s"] / v["queries"] * 1e6,
            "sharded.imbalance": 1.0,
        }
        for reason in ("window", "size", "drain"):
            out[f"coalesce.flushes.{reason}"] = v[f"flush.{reason}"]
        if self.shard_queries:
            out["sharded.imbalance"] = (
                max(self.shard_queries) / statistics.fmean(self.shard_queries)
            )
        return out


def serve(spec, art, pairs, expected, seed, seconds, trace, logs, report):
    """SERVERS set-ups, each followed by ROUNDS_PER_SERVER rounds of the
    light, heavy and saturating phases.  Latencies and rates are
    per-round figures, reported for the best round."""
    import numpy as np

    shape = spec["shape"]
    rng = np.random.default_rng([seed, 13])
    rounds = SERVERS * ROUNDS_PER_SERVER
    per_round = seconds / rounds
    light_n, heavy_n = LIGHT_REQUESTS, spec["heavy_n"]
    # The saturating phase fills what is left of the round.
    busy = light_n / spec["light_qps"] + heavy_n / spec["heavy_qps"]
    max_s = max(MIN_MAX_PHASE_S, per_round - busy)

    sess = Session(pairs, expected, rng)
    counters = Counters()
    setups: List[float] = []
    traced: List[tuple] = []
    serialize = [0.0, 0.0]
    results: List[Dict[str, float]] = []  # one per round

    def one_round(srv, debug: Optional[str]) -> Dict[str, float]:
        got: Dict[str, float] = {}
        steal0, t0 = steal_s(), _clock()
        m0 = srv.metrics() if debug else None
        light = sess.open_loop("/query", spec["light_qps"], light_n,
                               debug=debug)
        lat = latencies_ms(light)
        if debug:
            secs, count = stage_delta(m0, srv.metrics(), "serialize")
            serialize[0] += secs
            serialize[1] += count
            traced.extend(light)
            got["traced_p50"] = median(lat)
        else:
            got["p50_ms.light"] = median(lat)
            got["client.tail_ms.light"] = tail(lat)
        recs = sess.open_loop("/query", spec["heavy_qps"], heavy_n,
                              stream=shape == "stream")
        lat = latencies_ms(recs)
        got["p50_ms.heavy"] = median(lat)
        got["client.tail_ms.heavy"] = tail(lat)
        _, queries, wall, cpu = sess.closed_loop(shape, max_s)
        got["max_qps"] = queries / wall
        got["client.cpu_us_per_query"] = cpu[0] / queries * 1e6
        got["server.cpu_us_per_query"] = cpu[1] / queries * 1e6
        # Share of our CPUs the host gave to other tenants meanwhile.
        got["steal"] = (steal_s() - steal0) / ((_clock() - t0) * NPROC)
        return got

    peak = 0.0
    for i in range(SERVERS):
        srv, took = start_server(
            art, os.path.join(logs, f"server{i}.log"), pairs
        )
        setups.append(took)
        sess.srv = srv
        try:
            before = srv.metrics(), srv.info()
            for r in range(ROUNDS_PER_SERVER):
                # Traced runs alternate traced and plain light phases,
                # so the tracing overhead is their difference.
                results.append(one_round(
                    srv, f"s{i}r{r}" if trace and r % 2 else None
                ))
            counters.account(before, (srv.metrics(), srv.info()))
            peak = max(peak, srv.peak_rss_mb())
        finally:
            srv.stop()

    # Best round: other tenants of a shared host only ever slow a round
    # down, so the best of 16 is the steadiest reading of the program.
    out: Dict[str, float] = {}
    for key in {k for x in results for k in x} - {"steal"}:
        values = [x[key] for x in results if key in x]
        out[key] = (max if key == "max_qps" else min)(values)
    out["setup_s"] = median(setups)
    out["peak_rss_mb"] = peak
    out["client.lateness_ms"] = statistics.fmean(sess.lateness)
    out.update(counters.layers())
    if trace:
        out.update(span_layers(
            traced, serialize[0] / serialize[1] * 1e6 if serialize[1] else 0.0
        ))
        out["trace.overhead_pct"] = (
            (out["traced_p50"] - out["p50_ms.light"])
            / out["p50_ms.light"] * 100.0
        )
    report["server_setup_s"] = setups
    report["server_log_lines"] = sum(
        count_lines(os.path.join(logs, f"server{i}.log"))
        for i in range(SERVERS)
    )
    report["rounds"] = {
        "count": rounds, "light_requests": light_n, "heavy_requests": heavy_n,
        "max_phase_s": max_s, "tail": "11th largest", "per_round": results,
    }
    if counters.shard_queries:
        report["shard_queries"] = counters.shard_queries
        report["shard_gather_us"] = counters.shard_gather_us()
    report["requests"] = {"attempted": sess.attempted, "failed": sess.failed}
    report["client_max_threads"] = BUDGET.max_threads
    report["client_max_connections"] = BUDGET.max_conns
    return out, sess


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool):
    spec = dict(WORKLOADS[workload], name=workload)
    stamp = f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    work = os.path.join(STATE, "work", stamp)
    logs = os.path.join(STATE, "logs", stamp)
    os.makedirs(work, exist_ok=True)
    os.makedirs(logs, exist_ok=True)
    report: Dict[str, object] = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "host": fingerprint(),
    }
    steal0 = steal_s()
    try:
        return _run(spec, seed, seconds, trace, work, logs, report)
    finally:
        report["host_steal_s"] = steal_s() - steal0
        shutil.rmtree(work, ignore_errors=True)


def _run(spec, seed, seconds, trace, work, logs, report):
    n, shards = spec["n"], spec["shards"]
    graph = os.path.join(work, "graph.npz")
    art = os.path.join(work, "artifact")
    build_log = os.path.join(logs, "build.log")
    metrics: Dict[str, float] = {}

    if spec["name"] == "tz_build":
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = _clock()
            props = make_graph(n, seed, graph)
            setups.append(_clock() - t0)
    else:
        props = make_graph(n, seed, graph)
    report["input"] = dict(props, variant="tz", shards=shards)

    built = run_build(graph, art, shards, seed, trace, build_log)
    if trace:
        metrics.update(build_layers(built))
    report["build"] = {k: built[k] for k in
                       ("wall_s", "cpu_util", "peak_rss_mb", "stats",
                        "bytes_written")}
    report["build_log_lines"] = count_lines(build_log)

    pairs = make_pairs(n, seed)
    expected, ref_info = reference(
        art, pairs, graph if spec["name"] == "tz_build" else None, seed
    )
    report["input"].update(
        arcs=ref_info["arcs"], k=ref_info["k"],
        pairs=f"uniform over [0, n)^2, pool of {PAIR_POOL}",
        cross_shard_share=ref_info["cross_shard_share"],
        light=f"{spec['light_qps']:g} q/s on /query, 2 connections",
        heavy=(f"{spec['heavy_qps']:g} q/s on /stream"
               if spec["shape"] == "stream" else
               f"{spec['heavy_qps']:g} q/s on /query, 2 connections"),
        batch_size=1,
    )
    report["checks"] = ref_info

    served, sess = serve(spec, art, pairs, expected, seed, seconds, trace,
                         logs, report)
    metrics.update(served)
    metrics["sharded.cross_shard_share"] = ref_info["cross_shard_share"]
    metrics["build_s"] = built["wall_s"]
    if spec["name"] == "tz_build":
        metrics["setup_s"] = median(setups)
        metrics["peak_rss_mb"] = built["peak_rss_mb"]
        report["server_peak_rss_mb"] = served["peak_rss_mb"]
    attempted = sess.attempted + 1
    return metrics, attempted, sess.failed, report


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        metrics, attempted, failed, report = run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    table = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(table) - set(metrics))
    if missing:
        print(f"FAILED: metrics not measured: {missing}", file=sys.stderr)
        return 1
    out = {name: {"value": float(metrics[name]), "unit": unit}
           for name, unit in table.items()}
    report["metrics"] = out
    os.makedirs(os.path.join(STATE, "reports"), exist_ok=True)
    path = os.path.join(
        STATE, "reports",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
    )
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    log(f"workload {args.workload}  seed {args.seed}  host {report['host']}")
    log(f"input {report['input']}")
    log(f"checks {report['checks']}")
    log(f"logs: build {report['build_log_lines']} lines, server "
        f"{report['server_log_lines']} lines; client peak threads "
        f"{report['client_max_threads']}, connections "
        f"{report['client_max_connections']}; host CPU stolen "
        f"{report['host_steal_s']:.2f} s")
    for name, m in out.items():
        log(f"  {name:<30} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:  # reported ungated; --trace 1 emits them as metrics
        for name in ("client.tail_ms.light", "client.tail_ms.heavy"):
            log(f"  {name:<30} {metrics[name]:>14.6g} ms (no bound)")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": out}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
