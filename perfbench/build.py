"""Build one oracle artifact from a saved graph, as a library user does.

    python build.py GRAPH.npz OUT_DIR --shards S --seed N [--trace]

``--shards 0`` builds the unsharded layout (``build_oracle`` then
``save_artifact``); ``--shards S`` the streamed sharded layout
(``build_sharded_oracle``).  Both are what ``repro build-oracle`` runs,
with the hierarchy rng seeded from ``--seed`` the same way.

With ``--trace`` the public layer functions are wrapped from outside
and their spans and counts, kept in memory, are printed at exit:

* ``emulator.sampling.sample_hierarchy`` — hierarchy sampling;
* ``emulator.thorup_zwick.iter_tz_bunch_arc_blocks`` — each block
  (distance exploration plus the arc rule);
* ``kernels.sharded_bfs`` — the exploration inside each block, with
  the rows x n cells it materialized;
* ``oracle.build_sharded_oracle`` / ``oracle.save_artifact`` — the
  writer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_clock = time.perf_counter


def _install_tracing(spans: dict) -> None:
    from repro import kernels, oracle
    from repro.emulator import sampling, thorup_zwick
    from repro.oracle import sharded

    def timed(fn, key):
        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[key] = spans.get(key, 0.0) + _clock() - t0
        return wrapper

    def timed_iter(fn, key, on_item):
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = _clock()
                try:
                    item = next(it)
                except StopIteration:
                    spans[key] = spans.get(key, 0.0) + _clock() - t0
                    return
                spans[key] = spans.get(key, 0.0) + _clock() - t0
                on_item(item)
                yield item
        return wrapper

    def count(key, value):
        spans[key] = spans.get(key, 0) + value

    def on_explore(item):
        _lo, _hi, block = item
        count("explore_cells", int(block.shape[0]) * int(block.shape[1]))

    def on_block(item):
        count("arcs", int(item[2].size))

    hier = timed(sampling.sample_hierarchy, "sample_hierarchy_s")
    sampling.sample_hierarchy = hier
    thorup_zwick.sample_hierarchy = hier
    thorup_zwick.iter_tz_bunch_arc_blocks = timed_iter(
        thorup_zwick.iter_tz_bunch_arc_blocks, "block_s", on_block
    )
    kernels.sharded_bfs = timed_iter(
        kernels.sharded_bfs, "explore_s", on_explore
    )
    sharded_build = timed(sharded.build_sharded_oracle, "sharded_build_s")
    sharded.build_sharded_oracle = sharded_build
    oracle.build_sharded_oracle = sharded_build
    oracle.save_artifact = timed(oracle.save_artifact, "save_s")


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("graph")
    ap.add_argument("out")
    ap.add_argument("--shards", type=int, default=0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import numpy as np

    from repro import oracle
    from repro.graph import io

    spans: dict = {}
    if args.trace:
        _install_tracing(spans)
    g = io.load_graph(args.graph)
    rng = np.random.default_rng(args.seed)
    t0 = _clock()
    if args.shards:
        manifest = oracle.build_sharded_oracle(
            g, args.out, shards=args.shards, variant="tz", rng=rng
        )
    else:
        artifact = oracle.build_oracle(g, variant="tz", rng=rng)
        oracle.save_artifact(artifact, args.out)
        manifest = artifact.manifest
    wall = _clock() - t0
    stats = manifest.get("stats") or {}
    result = {
        "build_call_s": wall,
        "stats": stats,
        "bytes_written": _dir_bytes(args.out),
    }
    if args.trace:
        result["spans"] = spans
    print(json.dumps({"build": result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
