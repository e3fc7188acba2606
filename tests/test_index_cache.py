"""The oracle pipelines' index cache (cb.pipelines._cached_index): a
documents table rewritten in place is rebuilt, never served stale."""

import os

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
