"""CPU seconds of one engine start + warm, per process.

The start-up twin of ``scripts/cpu_per_query.py``.  Builds the
search_terms index of perfbench (a seeded code corpus, default build
knobs), then starts a 2-server ``QueryEngine`` and runs
``warm(min_df=0)`` — what search_terms' ``setup_s`` times — ``--starts``
times, and prints the CPU seconds each start cost the driver, each
``ray::ShardServer`` and every other process (Ray's own: raylet, GCS,
idle workers), read with ``perfbench.sysmon.cpu_ticks``.  A server's
CPU includes its worker boot and ``import cb.shard``; each server's
own wall-clock timers ``server.init`` (the scope's ``__init__``) and
``server.warm`` follow, in pool order.

Usage (from the repository root)::

    python3 scripts/setup_cpu.py --seed 41 --starts 3

The corpus is cached under ``.pb/`` like perfbench's; the index and
Ray's session live in ``.pb/setup/`` and the index is removed at exit.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import ray  # noqa: E402

from cb import build, shard  # noqa: E402
from perfbench import inputs, sysmon, workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=41)
    ap.add_argument("--starts", type=int, default=3)
    ap.add_argument("--docs", type=int, default=3000)
    args = ap.parse_args()

    work = os.path.join(ROOT, ".pb")
    run = os.path.join(work, "setup")
    os.makedirs(run, exist_ok=True)
    src = inputs.corpus_dir(work, args.seed, args.docs)
    index = os.path.join(run, f"idx-s{args.seed}")
    shutil.rmtree(index, ignore_errors=True)
    ctx = types.SimpleNamespace(
        ncpu=len(os.sched_getaffinity(0)),
        plasma_dir=run,  # Ray's object store file, inside the checkout
        ray_tmp=os.path.join(work, "r"),
    )
    tick = os.sysconf("SC_CLK_TCK")
    workloads.start_ray(ctx, traced=False)
    try:
        build.build_index(src, index, text_col="content", id_col=None)
        for i in range(args.starts):
            c0, t0 = sysmon.cpu_ticks(), time.perf_counter()
            engine = shard.QueryEngine(index, num_servers=2)
            try:
                engine.warm(min_df=0)
                wall = time.perf_counter() - t0
                c1 = sysmon.cpu_ticks()
                servers = sysmon.ray_workers("ray::ShardServer")
                timers = [m["timers"] for m in engine.metrics()["per_server"]]
            finally:
                engine.shutdown()

            def cpu_s(keys) -> float:
                return sum(c1[key] - c0.get(key, 0) for key in keys) / tick

            driver = [key for key in c1 if key[0] == os.getpid()]
            per_server = sorted(key for key in c1 if key[0] in servers)
            other = [key for key in c1 if key not in driver and key not in per_server]
            print(f"start {i + 1}/{args.starts}, seed {args.seed}: CPU s (wall {wall:.2f} s)")
            print(f"  driver           {cpu_s(driver):7.3f}")
            for key in per_server:
                print(f"  ShardServer {key[0]:<5}{cpu_s([key]):7.3f}")
            print(f"  other processes  {cpu_s(other):7.3f}")
            print(f"  all processes    {cpu_s(list(c1)):7.3f}")
            for j, t in enumerate(timers):
                init, warm = (t[name]["total_sec"] for name in ("server.init", "server.warm"))
                print(f"  server {j}: server.init {init:.3f} s, server.warm {warm:.3f} s wall")
    finally:
        ray.shutdown()
        shutil.rmtree(index, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
