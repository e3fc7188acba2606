"""The benchmark's tracing hooks still fit the serving classes.

``perfbench/trace.py`` wraps ``ShardServer``'s ``__init__``, ``warm`` and
``score`` on the class Ray ships to the actors, and perfbench measures
the servers' memory by the process title ``ray::ShardServer``.  A
refactor of ``cb.shard`` that renamed or restructured the actor class
would silently break ``--trace 1`` or the PSS filter; this guard runs
both installers in a fresh interpreter (no Ray session) and checks
what they patched.  It only reads perfbench.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_PROBE = """
import inspect

from perfbench import trace, workloads
from cb import shard

trace.install_worker()
trace.install_driver()
server = shard.ShardServer.__ray_metadata__.modified_class
assert server.__name__ == "ShardServer", server.__name__
assert workloads.SearchTerms.pss_workers == "ray::" + server.__name__
for name in ("__init__", "warm", "score"):
    fn = vars(server)[name]
    assert fn.__code__ is trace.traced("probe", len).__code__, name  # a span wrapper
    assert inspect.unwrap(fn) is getattr(shard.ShardScope, name), name
print("ok")
"""


def test_perfbench_hooks_patch_the_serving_actor():
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().endswith("ok")
