"""CPU milliseconds per query, per process, of a live QueryEngine.

Builds the search_terms index of perfbench (a seeded code corpus,
default build knobs), starts a 2-server ``QueryEngine``, warms it, sends
N distinct ``TermQueries`` (every one a result-cache miss) and prints
the CPU ms per query of the driver, of each ``ray::ShardServer`` and of
every other process (Ray's own), read with ``perfbench.sysmon.cpu_ticks``,
then each server's mean ``server.score`` microseconds over the batch
(from ``engine.metrics()["per_server"]``).
``ops_per_cpu_s`` sums all of them; this shows which process a change
moved.

Usage (from the repository root)::

    python3 scripts/cpu_per_query.py --seed 41 --queries 2000

The corpus is cached under ``.pb/`` like perfbench's; the index and
Ray's session live in ``.pb/cpq/`` and the index is removed at exit.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import ray  # noqa: E402

from cb import build, shard  # noqa: E402
from perfbench import inputs, sysmon, workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=41)
    ap.add_argument("--queries", type=int, default=2000)
    ap.add_argument("--docs", type=int, default=3000)
    args = ap.parse_args()

    work = os.path.join(ROOT, ".pb")
    run = os.path.join(work, "cpq")
    os.makedirs(run, exist_ok=True)
    src = inputs.corpus_dir(work, args.seed, args.docs)
    queries = inputs.TermQueries(inputs.oracle(src), args.seed)
    index = os.path.join(run, f"idx-s{args.seed}")
    shutil.rmtree(index, ignore_errors=True)
    ctx = types.SimpleNamespace(
        ncpu=len(os.sched_getaffinity(0)),
        plasma_dir=run,  # Ray's object store file, inside the checkout
        ray_tmp=os.path.join(work, "r"),
    )
    workloads.start_ray(ctx, traced=False)
    engine = None
    try:
        build.build_index(src, index, text_col="content", id_col=None)
        engine = shard.QueryEngine(index, num_servers=2)
        engine.warm(min_df=0)
        for q in queries.take(20):  # first-call costs stay out of the count
            engine.query(q, k=10)
        servers = sysmon.ray_workers("ray::ShardServer")
        batch = queries.take(args.queries)
        m0 = engine.metrics()["per_server"]
        c0 = sysmon.cpu_ticks()
        for q in batch:
            engine.query(q, k=10)
        c1 = sysmon.cpu_ticks()
        m1 = engine.metrics()["per_server"]
    finally:
        if engine is not None:
            engine.shutdown()
        ray.shutdown()
        shutil.rmtree(index, ignore_errors=True)

    def ms_per_query(keys) -> float:
        ticks = sum(c1[key] - c0.get(key, 0) for key in keys)
        return 1000.0 * ticks / os.sysconf("SC_CLK_TCK") / len(batch)

    driver = [key for key in c1 if key[0] == os.getpid()]
    per_server = sorted(key for key in c1 if key[0] in servers)
    other = [key for key in c1 if key not in driver and key not in per_server]
    print(f"{len(batch)} queries, seed {args.seed}: CPU ms per query")
    print(f"  driver           {ms_per_query(driver):7.3f}")
    for key in per_server:
        print(f"  ShardServer {key[0]:<5}{ms_per_query([key]):7.3f}")
    print(f"  other processes  {ms_per_query(other):7.3f}")
    print(f"  all processes    {ms_per_query(list(c1)):7.3f}")
    print("mean server.score us per query (the serve-score layer):")
    for i, (a, b) in enumerate(zip(m0, m1)):
        ta, tb = a["timers"]["server.score"], b["timers"]["server.score"]
        n = tb["count"] - ta["count"]
        mean = 1e6 * (tb["total_sec"] - ta["total_sec"]) / n if n else 0.0
        print(f"  server {i}         {mean:7.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
