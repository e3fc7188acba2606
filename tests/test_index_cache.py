"""The oracle pipelines' index cache (cb.pipelines._cached_index): a
documents or embeddings table rewritten in place is rebuilt, never
served stale."""

import glob
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from cb import pipelines

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write_docs(sf_dir: str, texts: list[str]) -> None:
    rows = [{"doc_id": 1 + i, "text": t} for i, t in enumerate(texts)]
    pq.write_table(pa.Table.from_pylist(rows), pipelines.docs_path(sf_dir))


def test_rewritten_documents_table_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setattr(pipelines, "INDEX_CACHE", str(tmp_path / "cache"))
    sf = str(tmp_path / "sf")
    os.makedirs(sf)
    _write_docs(sf, ["hash join table", "merge sort window", "table scan"])
    first = pipelines.get_index(sf)
    assert first.n_docs == 3
    assert pipelines.get_index(sf).index_dir == first.index_dir  # a hit
    _write_docs(sf, ["hash join table", "merge sort window", "table scan", "zebra"])
    second = pipelines.get_index(sf)
    assert second.n_docs == 4
    assert second.index_dir != first.index_dir
    assert not os.path.exists(first.index_dir)  # the stale entry is dropped


def _write_embeddings(sf_dir: str, first_id: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((120, 8)).astype(np.float32)
    pq.write_table(
        pa.table({
            "vec_id": pa.array(range(first_id, first_id + len(vecs)), pa.int64()),
            "embedding": pa.array(vecs.tolist(), pa.list_(pa.float32())),
        }),
        os.path.join(sf_dir, "embeddings.parquet"),
    )


def test_rewritten_embeddings_table_rebuilds_the_ivf_index(tmp_path, monkeypatch):
    monkeypatch.setattr(pipelines, "INDEX_CACHE", str(tmp_path / "cache"))
    sf = str(tmp_path / "sf")
    os.makedirs(sf)
    _write_embeddings(sf, first_id=1, seed=1)
    first = pipelines.q_ann_ivf(sf)
    assert first.num_rows > 0
    assert set(first["vec_id"].to_pylist()) <= set(range(1, 121))
    # the same sf dir, a new table: ids the old IVF index never held
    _write_embeddings(sf, first_id=1000, seed=2)
    second = pipelines.q_ann_ivf(sf)
    assert second.num_rows > 0
    assert set(second["vec_id"].to_pylist()) <= set(range(1000, 1120))
    entries = glob.glob(str(tmp_path / "cache" / "ivf-*"))
    assert entries == [pipelines._ivf_index(sf)]  # a hit; the stale entry is dropped


_USER = """
import os, sys
from cb import pipelines
pipelines.INDEX_CACHE = sys.argv[1]
def build(sf, d):
    os.makedirs(d)
    open(os.path.join(d, "_global.json"), "w").close()
print(pipelines._cached_index("docs", sys.argv[2], build), flush=True)
sys.stdin.readline()  # keeps using the entry until its stdin closes
"""


def _use(cache: str, sf: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", _USER, cache, sf], cwd=ROOT,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )


def test_a_miss_never_evicts_an_entry_another_process_uses(tmp_path):
    """One process keeps using entry K1 while another misses on K2 of
    the same sf dir: K1 survives.  Once no process uses them, the next
    miss evicts both stale entries."""
    cache, sf = str(tmp_path / "cache"), str(tmp_path / "sf")
    os.makedirs(sf)
    table = pipelines.docs_path(sf)

    def run_once(content: str) -> str:
        with open(table, "w") as f:
            f.write(content)  # a new size: a new cache key
        p = _use(cache, sf)
        out, _ = p.communicate("\n", timeout=120)
        assert p.returncode == 0
        return out.strip()

    with open(table, "w") as f:
        f.write("a")
    holder = _use(cache, sf)
    try:
        k1 = holder.stdout.readline().strip()
        assert os.path.isdir(k1)
        k2 = run_once("bb")
        assert k2 != k1
        assert os.path.isdir(k1) and os.path.isdir(k2)  # K1 is in use: kept
    finally:
        holder.communicate("\n", timeout=120)
    assert holder.returncode == 0
    k3 = run_once("ccc")
    assert glob.glob(os.path.join(cache, "*")) == [k3]  # no user left: evicted
    assert glob.glob(os.path.join(cache, ".*")) == [pipelines._lock_path(k3)]
