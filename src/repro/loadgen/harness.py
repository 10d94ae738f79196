"""The run harness: profile x driver -> one JSON report.

This is the llm-d-benchmark "launcher" equivalent for the oracle
serving stack: pick a named :class:`~repro.loadgen.profiles.WorkloadProfile`,
mount one or more artifacts behind the real HTTP front end (the same
code paths ``repro serve`` runs), drive the
profile's deterministic request sequence with the matching driver, and
reduce the outcomes to the fixed metrics table
(:mod:`repro.loadgen.metrics`), annotated with the server's own
counters scraped from ``GET /info`` — coalescing stats, admission
admitted/rejected, engine cache hits — so a report can be
cross-checked against what the server says happened (the chaos suite
asserts the two agree exactly).  The same request sequence is then
replayed in-process through :meth:`OracleRouter.handle`; the report's
``identical_to_engine`` says whether the served answers digest equal to
the replay's, i.e. whether HTTP serving changed any answer bit.

The sweep axes come from the registries: profiles from
:func:`repro.loadgen.profiles.all_profiles`, variants from
:mod:`repro.variants` (:func:`sweepable_variants` lists every
oracle-buildable ``(variant, kind)`` — the same derivation the
benchmark plans use).

Entry points: :func:`run` (build tenants, run one profile, check the
served answers against the in-process engine) backs the
``repro loadgen`` CLI and the E21 benchmark; :func:`run_profile` is the
served-run core the tests drive directly.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import variants
from ..graph import generators
from ..oracle import (
    DEFAULT_LIMITS,
    DistanceOracle,
    OracleClient,
    OracleRouter,
    ServingLimits,
    ShardedOracle,
    build_oracle,
    is_sharded_artifact,
    start_async_server,
)
from ..telemetry import MetricsSnapshot, parse_exposition
from .drivers import outcome, run_closed_loop, run_open_loop
from .metrics import QueryOutcome, answers_digest, summarize
from .profiles import (
    LoadgenError,
    ProfileContext,
    Request,
    WorkloadProfile,
    get_profile,
)

__all__ = [
    "build_tenants",
    "engine_answers_digest",
    "load_mounts",
    "run",
    "run_profile",
    "scrape_metrics",
    "sweepable_variants",
    "write_report",
]

#: Default knobs for a full run and the ``--quick`` smoke.
DEFAULTS = {
    "family": "er_sparse", "n": 256, "variant": "exact",
    "requests": 400, "concurrency": 16, "rate": 400.0,
}
QUICK = {
    "family": "er_sparse", "n": 96, "variant": "exact",
    "requests": 96, "concurrency": 8, "rate": 600.0,
}

#: Variants a multi-tenant run mounts when none are given explicitly:
#: one per artifact kind family, cheapest-to-build first.  Validated
#: against the registry at use (a renamed variant fails loudly here).
DEFAULT_TENANT_VARIANTS = ("exact", "tz", "near-additive")


def sweepable_variants() -> Tuple[Tuple[str, str], ...]:
    """Every oracle-buildable ``(variant, kind)`` pair, from the PR 5
    registry — the sweep axis that makes each serving variant
    loadgen-coverable without the harness naming any of them."""
    return tuple((s.name, s.kind) for s in variants.all_variants())


# ----------------------------------------------------------------------
# Tenants: build or load the mounted oracles
# ----------------------------------------------------------------------

def build_tenants(
    profile_name: str,
    family: str = DEFAULTS["family"],
    n: int = DEFAULTS["n"],
    variant: str = DEFAULTS["variant"],
    seed: int = 0,
) -> List[Tuple[str, DistanceOracle]]:
    """Build in-memory tenant oracles for one profile run: a single
    ``variant`` artifact normally, or one artifact per
    :data:`DEFAULT_TENANT_VARIANTS` entry (all over the *same* graph)
    when the profile needs multiple tenants."""
    profile = get_profile(profile_name)
    if profile.min_tenants > 1:
        names = DEFAULT_TENANT_VARIANTS
    else:
        names = (variant,)
    for name in names:
        variants.get_variant(name)  # unknown names fail before building
    g = generators.make_family(family, n, seed=seed)
    rng = np.random.default_rng(seed)
    return [
        (name, DistanceOracle(build_oracle(g, variant=name, rng=rng)))
        for name in names
    ]


def load_mounts(
    mounts: Sequence[Tuple], mmap: bool = False
) -> List[Tuple[str, DistanceOracle]]:
    """Load prebuilt artifacts from ``(name, path)`` /
    ``(name, path, options)`` mount tuples — the same shape
    ``repro serve --artifact`` parses; ``name=None`` defaults to the
    manifest variant."""
    out: List[Tuple[str, DistanceOracle]] = []
    for item in mounts:
        name, path = item[0], item[1]
        options = dict(item[2]) if len(item) > 2 else {}
        kwargs = {}
        if "cache_size" in options:
            kwargs["cache_size"] = int(options.pop("cache_size"))
        if "backend" in options:
            kwargs["backend"] = options.pop("backend")
        shards = options.pop("shards", None)
        if options:
            raise LoadgenError(
                f"unknown mount option(s) {sorted(options)} for "
                f"loadgen artifact {name or path!r}"
            )
        if shards is not None or is_sharded_artifact(path):
            oracle = ShardedOracle.load(
                path,
                shards=int(shards) if shards is not None else None,
                mmap=mmap,
                **kwargs,
            )
        else:
            oracle = DistanceOracle.load(path, mmap=mmap, **kwargs)
        mount_name = name or oracle.artifact.variant
        if isinstance(oracle, ShardedOracle):
            oracle.set_mount(mount_name)
        out.append((mount_name, oracle))
    return out


# ----------------------------------------------------------------------
# Server lifecycle and the in-process reference
# ----------------------------------------------------------------------

def _start_server(
    oracles: Sequence[Tuple[str, DistanceOracle]],
    limits: Optional[ServingLimits],
):
    """Serve the mounted oracles over HTTP; returns
    ``(base_url, stop_callable)``."""
    router = OracleRouter()
    for name, oracle in oracles:
        router.mount(name, oracle, limits=limits)
    handle = start_async_server(router, limits=limits)
    base = "http://%s:%s" % handle.server_address[:2]
    return base, handle.drain_and_shutdown


def _requests(
    profile_name: str,
    oracles: Sequence[Tuple[str, DistanceOracle]],
    requests: int,
    seed: int,
    params: Optional[Dict[str, object]],
) -> Tuple[WorkloadProfile, ProfileContext, Dict[str, object], List[Request]]:
    """The profile's seeded request sequence over these tenants, with
    the context and resolved params that produced it."""
    profile = get_profile(profile_name)
    ctx = ProfileContext(
        tenants=tuple((name, o.n) for name, o in oracles),
        requests=int(requests),
        seed=int(seed),
    )
    resolved = profile.resolve_params(params, n=ctx.first_tenant[1])
    return profile, ctx, resolved, profile.build_requests(ctx, **resolved)


def engine_answers_digest(
    oracles: Sequence[Tuple[str, DistanceOracle]],
    reqs: Sequence[Request],
) -> str:
    """The answers digest of ``reqs`` answered in-process, one by one,
    through :meth:`OracleRouter.handle` — the reference a served run's
    ``answers_digest`` must equal."""
    router = OracleRouter()
    for name, oracle in oracles:
        router.mount(name, oracle)
    return answers_digest([
        outcome(req, i, *router.handle(dict(req.payload), name=req.tenant))
        for i, req in enumerate(reqs)
    ])


def scrape_info(base_url: str, timeout_s: float = 10.0) -> Dict[str, object]:
    """One ``GET /info`` snapshot (merged, all mounts)."""
    with OracleClient(base_url, max_attempts=1, timeout_s=timeout_s) as client:
        status, body = client.info()
    if status != 200:
        raise LoadgenError(f"GET /info returned {status}: {body}")
    return body


def scrape_metrics(base_url: str, timeout_s: float = 10.0) -> MetricsSnapshot:
    """One parsed ``GET /metrics`` snapshot (the registry is
    process-global, so loadgen scrapes *around* each run and reports the
    delta — a second run in the same process starts from the first's
    counters)."""
    with OracleClient(base_url, max_attempts=1, timeout_s=timeout_s) as client:
        return parse_exposition(client.metrics_text())


def _metrics_section(delta: MetricsSnapshot) -> Dict[str, object]:
    """The report's ``server.metrics`` block from a scrape-around
    delta: request counts by mount/status plus the server-side latency
    and stage histograms (cumulative buckets, exactly as exposed)."""
    requests_total: Dict[str, Dict[str, int]] = {}
    for labels, value in delta.samples.get("repro_requests_total", ()):
        if value:
            mount = labels.get("mount", "")
            requests_total.setdefault(mount, {})[
                labels.get("status", "")
            ] = int(value)
    deadline: Dict[str, int] = {}
    for labels, value in delta.samples.get(
        "repro_deadline_exceeded_total", ()
    ):
        if value:
            deadline[labels.get("mount", "")] = int(value)
    latency = {
        mount: delta.histogram("repro_request_duration_seconds", mount=mount)
        for mount in sorted(
            {
                labels.get("mount", "")
                for labels, _ in delta.samples.get(
                    "repro_request_duration_seconds_count", ()
                )
            }
        )
    }
    stages = {
        stage: delta.histogram("repro_stage_duration_seconds", stage=stage)
        for stage in sorted(
            {
                labels.get("stage", "")
                for labels, _ in delta.samples.get(
                    "repro_stage_duration_seconds_count", ()
                )
            }
        )
    }
    # Per-shard routed-query counts (present only when a sharded oracle
    # is mounted) — the zipf_hotspot imbalance report: a hot vertex
    # range shows up as one shard's count dwarfing the others.
    shard_queries: Dict[str, Dict[str, int]] = {}
    for labels, value in delta.samples.get("repro_shard_queries_total", ()):
        if value:
            mount = labels.get("mount", "")
            shard_queries.setdefault(mount, {})[
                labels.get("shard", "")
            ] = int(value)
    out = {
        "requests_total": requests_total,
        "deadline_exceeded_total": deadline,
        "request_duration_seconds": latency,
        "stage_duration_seconds": stages,
    }
    if shard_queries:
        out["shard_queries_total"] = {
            mount: dict(sorted(counts.items(), key=lambda kv: int(kv[0])))
            for mount, counts in shard_queries.items()
        }
    return out


def _server_section(info: Dict[str, object]) -> Dict[str, object]:
    """The report's ``server`` block: per-mount admission/cache/coalesce
    counters plus an aggregate coalescing rollup (sum over mounts)."""
    per_mount = {}
    agg = {"batches": 0, "coalesced": 0, "largest_batch": 0}
    for name, entry in info.get("artifacts", {}).items():
        coalescing = entry["coalescing"]
        per_mount[name] = {
            "serving": entry.get("serving"),
            "engine": entry.get("stats"),
            "coalescing": coalescing,
        }
        agg["batches"] += coalescing["batches"]
        agg["coalesced"] += coalescing["coalesced"]
        agg["largest_batch"] = max(
            agg["largest_batch"], coalescing["largest_batch"]
        )
    agg["mean_batch"] = (
        agg["coalesced"] / agg["batches"] if agg["batches"] else 0.0
    )
    return {"http": info.get("http"), "mounts": per_mount, "coalescing": agg}


# ----------------------------------------------------------------------
# Run one profile
# ----------------------------------------------------------------------

def run_profile(
    profile_name: str,
    oracles: Sequence[Tuple[str, DistanceOracle]],
    *,
    requests: int = DEFAULTS["requests"],
    concurrency: int = DEFAULTS["concurrency"],
    rate: float = DEFAULTS["rate"],
    seed: int = 0,
    driver: Optional[str] = None,
    params: Optional[Dict[str, object]] = None,
    limits: Optional[ServingLimits] = None,
    open_workers: Optional[int] = None,
    timeout_s: float = 30.0,
) -> Tuple[Dict[str, object], List[QueryOutcome]]:
    """Drive one profile against a served mount; returns
    ``(report, outcomes)``.

    The report is the per-run metrics block from
    :func:`repro.loadgen.metrics.summarize` plus run identity (profile,
    resolved params, seed, driver), driver stats, the scraped server
    counters, and the ordered-answers digest the fidelity check
    compares.  ``driver=None`` uses the profile's default; ``limits``
    defaults to the stock :data:`~repro.oracle.DEFAULT_LIMITS`.
    """
    profile, ctx, resolved, reqs = _requests(
        profile_name, oracles, requests, seed, params
    )
    drv = driver or profile.driver
    base, stop = _start_server(oracles, limits or DEFAULT_LIMITS)
    try:
        metrics_before = scrape_metrics(base)
        if drv == "closed":
            duration, outcomes, driver_stats = run_closed_loop(
                base, reqs, concurrency, timeout_s=timeout_s
            )
        elif drv == "open":
            offsets = profile.build_schedule(ctx, rate, **resolved)
            duration, outcomes, driver_stats = run_open_loop(
                base, reqs, offsets, workers=open_workers,
                timeout_s=timeout_s,
            )
        else:
            raise LoadgenError(
                f"unknown driver {drv!r}; expected 'closed' or 'open'"
            )
        info = scrape_info(base)
        metrics_after = scrape_metrics(base)
    finally:
        stop()
    server = _server_section(info)
    server["metrics"] = _metrics_section(metrics_after.delta(metrics_before))
    report = summarize(outcomes, duration)
    report.update({
        "profile": profile.name,
        "driver": drv,
        "seed": int(seed),
        "params": resolved,
        "tenants": [name for name, _ in oracles],
        "driver_stats": driver_stats,
        "server": server,
        "answers_digest": answers_digest(outcomes),
    })
    return report, outcomes


# ----------------------------------------------------------------------
# The CLI / benchmark entry point
# ----------------------------------------------------------------------

def run(
    profile_name: str,
    *,
    oracles: Optional[Sequence[Tuple[str, DistanceOracle]]] = None,
    mounts: Optional[Sequence[Tuple]] = None,
    family: Optional[str] = None,
    n: Optional[int] = None,
    variant: Optional[str] = None,
    seed: int = 0,
    requests: Optional[int] = None,
    concurrency: Optional[int] = None,
    rate: Optional[float] = None,
    driver: Optional[str] = None,
    params: Optional[Dict[str, object]] = None,
    limits: Optional[ServingLimits] = None,
    quick: bool = False,
    timeout_s: float = 30.0,
) -> Dict[str, object]:
    """One profile against a served mount, checked against the engine.

    Tenant sources, in precedence order: ``oracles`` (pre-built
    engines), ``mounts`` (on-disk artifact mount tuples), else built
    from ``family``/``n``/``variant``.  Explicit knobs beat the
    ``quick``/full defaults.  The report is :func:`run_profile`'s with
    ``tenants`` described in full, plus ``quick`` and
    ``identical_to_engine``: whether the served ordered answers digest
    equals the same requests answered in-process
    (:func:`engine_answers_digest`), i.e. bit-identical per-query
    results.
    """
    base_knobs = QUICK if quick else DEFAULTS
    family = family or base_knobs["family"]
    n = n or base_knobs["n"]
    variant = variant or base_knobs["variant"]
    requests = requests or base_knobs["requests"]
    concurrency = concurrency or base_knobs["concurrency"]
    rate = rate or base_knobs["rate"]

    if oracles is None:
        if mounts:
            oracles = load_mounts(mounts)
        else:
            oracles = build_tenants(
                profile_name, family=family, n=n, variant=variant, seed=seed
            )

    report, _ = run_profile(
        profile_name, oracles,
        requests=requests, concurrency=concurrency, rate=rate,
        seed=seed, driver=driver, params=params, limits=limits,
        timeout_s=timeout_s,
    )
    reqs = _requests(profile_name, oracles, requests, seed, params)[3]
    report.update({
        "quick": bool(quick),
        "tenants": [
            {"name": name, "variant": o.artifact.variant,
             "kind": o.kind, "n": o.n}
            for name, o in oracles
        ],
        "identical_to_engine": (
            report["answers_digest"] == engine_answers_digest(oracles, reqs)
        ),
    })
    return report


def write_report(report: Dict[str, object], path: str) -> str:
    """Persist one report as JSON (the artifact CI and benchmarks
    consume); returns the path."""
    out_dir = os.path.dirname(os.path.abspath(path))
    os.makedirs(out_dir, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
