"""Wall and CPU seconds of index builds, per process.

The build twin of ``scripts/setup_cpu.py``.  In one Ray session it
runs ``cb.build.build_index`` over a seeded code corpus (perfbench's
generator, default build knobs) ``--builds`` times, and prints for
each build its wall time and the CPU seconds it cost the driver, the
Ray task workers (every ``ray::`` process: the Ray Data stages run
there) and Ray's own processes (raylet, GCS and the rest), read with
``perfbench.sysmon.cpu_ticks``.  The first build pays the worker
boots and imports, so it is reported apart (``cold``); the median of
the others follows.

Usage (from the repository root)::

    python3 scripts/build_cpu.py --seed 41 --docs 3000 --builds 5

The corpus is cached under ``.pb/`` like perfbench's; the index and
Ray's session live in ``.pb/buildcpu/`` and the index is removed at
exit.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import ray  # noqa: E402

from cb import build  # noqa: E402
from perfbench import inputs, sysmon, workloads  # noqa: E402

COLUMNS = ("wall", "driver", "workers", "ray", "all")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=41)
    ap.add_argument("--docs", type=int, default=3000)
    ap.add_argument("--builds", type=int, default=5)
    args = ap.parse_args()

    work = os.path.join(ROOT, ".pb")
    run = os.path.join(work, "buildcpu")
    os.makedirs(run, exist_ok=True)
    src = inputs.corpus_dir(work, args.seed, args.docs)
    index = os.path.join(run, f"idx-s{args.seed}")
    ctx = types.SimpleNamespace(
        ncpu=len(os.sched_getaffinity(0)),
        plasma_dir=run,  # Ray's object store file, inside the checkout
        ray_tmp=os.path.join(work, "r"),
    )
    tick = os.sysconf("SC_CLK_TCK")
    rows = []
    workloads.start_ray(ctx, traced=False)
    try:
        print(f"{args.docs}-doc builds, seed {args.seed}: seconds")
        print("  build      " + "".join(f"{c:>9}" for c in COLUMNS))
        for i in range(args.builds):
            shutil.rmtree(index, ignore_errors=True)
            c0, t0 = sysmon.cpu_ticks(), time.perf_counter()
            build.build_index(src, index, text_col="content", id_col=None)
            wall = time.perf_counter() - t0
            c1 = sysmon.cpu_ticks()
            workers = sysmon.ray_workers("ray::")

            def cpu_s(keys) -> float:
                return sum(c1[key] - c0.get(key, 0) for key in keys) / tick

            driver = [key for key in c1 if key[0] == os.getpid()]
            task = [key for key in c1 if key[0] in workers]
            other = [key for key in c1 if key not in driver and key not in task]
            row = (wall, cpu_s(driver), cpu_s(task), cpu_s(other), cpu_s(list(c1)))
            name = f"{i + 1} (cold)" if i == 0 else str(i + 1)
            print(f"  {name:<9}" + "".join(f"{v:9.3f}" for v in row))
            if i:
                rows.append(row)
        if rows:
            med = [statistics.median(col) for col in zip(*rows)]
            print(f"  {'median':<9}" + "".join(f"{v:9.3f}" for v in med) + "  (warm builds)")
    finally:
        ray.shutdown()
        shutil.rmtree(index, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
