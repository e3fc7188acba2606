"""The oracle pipelines' index cache (cb.pipelines._cached_index): a
documents or embeddings table rewritten in place is rebuilt, never
served stale."""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from cb import pipelines


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
