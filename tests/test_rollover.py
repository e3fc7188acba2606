"""_rollover lifecycle (cb/rollover.py): generation sealing, chunk
idempotence (crash re-run convergence), sealed-generation build
stability, and alias-wide search spanning generations."""

import os

import numpy as np
import pyarrow as pa
import pytest

from cb import rollover
from cb.shard import LocalSearcher

TEXTS = [
    "alpha join merge window",
    "join table scan alpha",
    "merge join window table",
    "quantum zebra dance",
    "join window merge scan table",
    "alpha beta join",
    "window scan merge",
    "table join alpha window",
    "zebra join table",
    "merge alpha scan",
]


def _docs(n=10):
    return pa.table(
        {
            "doc_id": pa.array([100 + 3 * i for i in range(n)], pa.int64()),
            "text": pa.array([TEXTS[i % len(TEXTS)] for i in range(n)], pa.string()),
        }
    )


def test_sealing_and_placement(tmp_path):
    root = str(tmp_path / "ro")
    rollover.init(root, "docs", max_docs=4)
    t = _docs(10)
    # 3 chunks of uneven sizes: rolls happen mid-chunk
    rollover.ingest_chunk(root, "c0", t.slice(0, 5))
    rollover.ingest_chunk(root, "c1", t.slice(5, 3))
    rollover.ingest_chunk(root, "c2", t.slice(8, 2))
    lay = rollover.layout(root).to_pylist()
    assert [g["index"] for g in lay] == ["docs-000001", "docs-000002", "docs-000003"]
    assert [g["n_docs"] for g in lay] == [4, 4, 2]
    assert [g["sealed"] for g in lay] == [True, True, False]


def test_chunk_idempotence(tmp_path):
    root = str(tmp_path / "ro")
    rollover.init(root, "docs", max_docs=4)
    t = _docs(10)
    rollover.ingest_chunk(root, "c0", t.slice(0, 5))
    before = rollover.layout(root).to_pylist()
    # crash re-run: the same chunk key is a no-op
    rollover.ingest_chunk(root, "c0", t.slice(0, 5))
    assert rollover.layout(root).to_pylist() == before
    rollover.ingest_chunk(root, "c1", t.slice(5, 5))
    final = rollover.layout(root).to_pylist()
    rollover.ingest_chunk(root, "c1", t.slice(5, 5))
    assert rollover.layout(root).to_pylist() == final


def test_build_and_alias_search(tmp_path):
    root = str(tmp_path / "ro")
    rollover.init(root, "docs", max_docs=4)
    t = _docs(10)
    rollover.ingest_chunk(root, "c0", t)
    rollover.build_generations(root)
    dirs, write = rollover.resolve(root)
    assert len(dirs) == 3 and write == dirs[-1]
    # read alias spans every generation: the union of per-generation
    # hits covers exactly the docs matching the term, each scored by
    # its own generation's statistics (ES alias-over-indices behavior)
    hits = set()
    for dd in dirs:
        hits |= {d for d, _ in LocalSearcher(dd).query("join", k=10, algo="taat")}
    ids = t["doc_id"].to_numpy()
    want = {int(ids[i]) for i in range(10) if "join" in TEXTS[i % len(TEXTS)]}
    assert hits == want
    # sealed generations never rebuild: their _global.json is stable
    marks = {}
    for dd in dirs[:2]:
        marks[dd] = os.path.getmtime(os.path.join(dd, "_global.json"))
    rollover.build_generations(root)
    for dd, mt in marks.items():
        assert os.path.getmtime(os.path.join(dd, "_global.json")) == mt


def test_open_generation_rebuilds_on_growth(tmp_path):
    root = str(tmp_path / "ro")
    rollover.init(root, "docs", max_docs=6)
    t = _docs(10)
    rollover.ingest_chunk(root, "c0", t.slice(0, 8))
    rollover.build_generations(root)
    dirs, write = rollover.resolve(root)
    n0 = len(LocalSearcher(write).query("join", k=10, algo="taat"))
    rollover.ingest_chunk(root, "c1", t.slice(8, 2))
    rollover.build_generations(root)
    dirs2, write2 = rollover.resolve(root)
    assert write2 == write  # still the open tail (8+2 = 10 < 2*6)
    n1 = len(LocalSearcher(write2).query("join", k=10, algo="taat"))
    assert n1 >= n0
    lay = rollover.layout(root).to_pylist()
    assert [g["n_docs"] for g in lay] == [6, 4]


def test_init_rejects_conflicting_config(tmp_path):
    root = str(tmp_path / "ro")
    st = rollover.init(root, "docs", max_docs=4)
    # identical arguments: idempotent, returns the stored state
    assert rollover.init(root, "docs", max_docs=4) == st
    with pytest.raises(ValueError, match="max_docs"):
        rollover.init(root, "docs", max_docs=8)
    with pytest.raises(ValueError, match="alias"):
        rollover.init(root, "logs", max_docs=4)
    assert rollover.init(root, "docs", max_docs=4) == st
