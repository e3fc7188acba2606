"""Document deletion (tombstones): queries mask deleted docs exactly;
the index stays immutable (ES DELETE-by-id parity)."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from cb import docmeta as dm
from cb.build import build_index
from cb.shard import LocalSearcher, QueryEngine, delete_docs, load_tombstones

DOCS = [
    (1, "hash join over the big table", "en"),
    (2, "hash join deprecated path", "en"),
    (3, "merge sort window frame", "fr"),
    (4, "join hash reversed words", "en"),
    (5, "the quick hash join trick", "fr"),
]


@pytest.fixture()
def built(tmp_path):
    rows = [{"doc_id": i, "text": t, "lang": lang} for i, t, lang in DOCS]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=4)
    dm.ensure_docmeta(idx, src, ["lang"])
    return idx


def test_delete_masks_every_query_path(built):
    before = LocalSearcher(built)
    full = before.query("hash join", k=10, algo="taat")
    assert {d for d, _ in full} == {1, 2, 4, 5}
    assert delete_docs(built, [2, 5]) == 2
    assert list(load_tombstones(built)) == [2, 5]

    s = LocalSearcher(built)
    live = dict(full)
    # plain BM25: tombstoned docs gone, survivors keep EXACT scores
    res = s.query("hash join", k=10, algo="taat")
    assert {d for d, _ in res} == {1, 4}
    for d, sc in res:
        assert sc == live[d]
    assert s.query("hash join", k=10, algo="wand") == res
    # phrase
    assert {d for d, _ in s.phrase_query("hash join", k=10)} == {1}
    # filtered
    assert {d for d, _ in s.filtered_query("hash join", {"lang": "en"}, k=10)} == {1, 4}
    # query string
    assert {d for d, _ in s.search('"hash join" -deprecated', k=10)} == {1}


def test_delete_engine_parity_both_modes(built):
    delete_docs(built, [1])
    s = LocalSearcher(built)
    engine = QueryEngine(built, num_servers=2)
    try:
        for q in ("hash join", "merge window", "zebra"):
            assert engine.query(q, k=10) == s.query(q, k=10, algo="taat"), q
        assert engine.phrase_query("hash join", k=10) == s.phrase_query("hash join", k=10)
        assert engine.search('"hash join"', k=10) == s.search('"hash join"', k=10)
        assert engine.filtered_query("join", {"lang": "en"}, k=10) == \
            s.filtered_query("join", {"lang": "en"}, k=10)
    finally:
        engine.shutdown()


def test_delete_idempotent_and_cumulative(built):
    assert delete_docs(built, [3]) == 1
    assert delete_docs(built, [3, 4]) == 2  # union, not append-duplicate
    assert list(load_tombstones(built)) == [3, 4]


def test_delete_by_query_counts_and_serving(built):
    engine = QueryEngine(built, num_servers=2)
    try:
        # no-match query tombstones nothing
        assert engine.delete_by_query("zebraquantum") == 0
        # "deprecated" matches exactly doc 2
        assert engine.delete_by_query("deprecated") == 1
        # idempotent: matched docs already tombstoned
        assert engine.delete_by_query("deprecated") == 0
        # boolean queries work: phrase restricts the match set
        assert engine.delete_by_query('"merge sort"') == 1  # doc 3
    finally:
        engine.shutdown()
    # the DELETING engine keeps serving its start-time tombstones…
    # …a NEW engine observes them (the delete_docs contract)
    fresh = QueryEngine(built, num_servers=2)
    try:
        assert {d for d, _ in fresh.query("hash join", k=10)} == {1, 4, 5}
        assert fresh.query("sort", k=10) == []
    finally:
        fresh.shutdown()


def test_compaction_byte_identical_to_fresh_survivor_build(tmp_path):
    """compact_index physically drops tombstoned docs; the result must
    be byte-identical (postings + docstats parquet) to a FRESH build
    over only the surviving documents."""
    import hashlib
    import os

    from cb.build import build_index, compact_index

    rows = [
        {"doc_id": 100 + i * 7, "text": f"doc {i} shares join merge window tokens t{i} u{i % 5}"}
        for i in range(40)
    ]
    src_all = str(tmp_path / "all.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src_all)
    idx = str(tmp_path / "idx")
    build_index(src_all, idx, text_col="text", id_col="doc_id", num_parts=4)
    dead = [rows[i]["doc_id"] for i in (0, 3, 11, 12, 39)]
    delete_docs(idx, dead)
    meta = compact_index(idx)

    survivors = [r for r in rows if r["doc_id"] not in set(dead)]
    src_live = str(tmp_path / "live.parquet")
    pq.write_table(pa.Table.from_pylist(survivors), src_live)
    fresh_dir = str(tmp_path / "fresh")
    build_index(src_live, fresh_dir, text_col="text", id_col="doc_id", num_parts=4)

    def shas(d):
        out = {}
        for root, _, files in os.walk(d):
            for f in files:
                if f.endswith(".parquet"):
                    p = os.path.join(root, f)
                    with open(p, "rb") as fh:
                        out[os.path.relpath(p, d)] = hashlib.sha256(fh.read()).hexdigest()
        return out

    assert shas(idx) == shas(fresh_dir)
    assert meta.n_docs == len(survivors)
    assert len(load_tombstones(idx)) == 0  # cleared
    # queries over the compacted index behave like the fresh one
    a, b = LocalSearcher(idx), LocalSearcher(fresh_dir)
    for q in ("join merge", "window", "doc"):
        assert a.query(q, k=10, algo="wand") == b.query(q, k=10, algo="wand")


def test_compaction_leaves_buckets_without_tombstones_untouched(tmp_path):
    """Block summaries do not depend on N or avgdl, so compaction
    rewrites only the bucket files whose doc range holds a tombstone:
    every other posting and docstats file keeps its bytes and its inode."""
    import glob
    import hashlib
    import os

    from cb.build import ID_BITS, DEFAULT_RANGE_BITS, compact_index

    shift = ID_BITS - DEFAULT_RANGE_BITS
    rows = [
        {"doc_id": (b << shift) + j, "text": f"join merge w{j} v{b} t{(b + j) % 3}"}
        for b in range(6)
        for j in range(1, 6)
    ]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=2)

    def files():
        out = {}
        for p in glob.glob(os.path.join(idx, "*", "**", "bucket=*.parquet"), recursive=True):
            with open(p, "rb") as fh:
                out[os.path.relpath(p, idx)] = (
                    hashlib.sha256(fh.read()).hexdigest(), os.stat(p).st_ino
                )
        return out

    before = files()
    delete_docs(idx, [(3 << shift) + 2, (3 << shift) + 4])
    compact_index(idx)
    after = files()
    untouched = {f for f in before if "bucket=3.parquet" not in f}
    assert len(untouched) > 6
    for f in untouched:
        assert after[f] == before[f], f
    changed = [f for f in before if f not in untouched]
    assert changed and all(after.get(f) != before[f] for f in changed)
    assert LocalSearcher(idx).query("join merge", k=50) == LocalSearcher(idx).query(
        "join merge", k=50, algo="wand"
    )


def test_compaction_sentinel_cleared_and_forced_rerun(tmp_path):
    """The _compacting.json sentinel marks a mid-compaction index; a
    successful compact clears it, and a dangling sentinel (crash after
    tombstone removal) is cleared by the next compact_index call."""
    import os

    from cb.build import build_index, compact_index

    rows = [
        {"doc_id": 10 + i, "text": f"join merge tok{i}"} for i in range(12)
    ]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=4)
    delete_docs(idx, [11, 15])
    compact_index(idx)
    sentinel = os.path.join(idx, "_compacting.json")
    assert not os.path.exists(sentinel)
    # dangling sentinel with no tombstones (crash between tombstone
    # removal and sentinel clear): next call is a no-op that clears it
    with open(sentinel, "w") as f:
        f.write("{}")
    compact_index(idx)
    assert not os.path.exists(sentinel)


def test_decode_partition_flat_roundtrip(tmp_path):
    import numpy as np

    """_decode_partition_flat is the exact inverse of
    encode_partition_rows: re-encoding the decoded arrays reproduces the
    partition table bit-for-bit."""
    from cb.build import (
        IndexMeta,
        _decode_partition_flat,
        build_index,
        encode_partition_rows,
        read_partition_table,
    )

    rng = np.random.default_rng(5)
    rows = [
        {
            "doc_id": int(i * 13 + 7),
            "text": " ".join(
                f"w{int(rng.integers(40))}" for _ in range(int(rng.integers(3, 200)))
            ),
        }
        for i in range(300)
    ]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=2)
    meta = IndexMeta(idx)
    checked = 0
    for p in range(meta.num_parts):
        tbl = read_partition_table(idx, p)
        flat, store_positions = _decode_partition_flat(tbl)
        assert store_positions
        re_tbl = encode_partition_rows(flat, store_positions=True)
        assert re_tbl.equals(tbl), f"partition {p} round-trip mismatch"
        checked += tbl.num_rows
    assert checked > 30


def test_pit_semantics_and_refresh(tmp_path):
    """A live engine is an implicit point-in-time over deletes: docs
    tombstoned AFTER the servers start stay visible until _refresh;
    refresh() makes the delete visible without a restart."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from cb.build import build_index
    from cb.shard import QueryEngine, delete_docs

    rows = [
        {"doc_id": i, "text": t}
        for i, t in [
            (1, "hash join table"), (2, "hash join path"),
            (3, "merge sort"), (4, "join hash again"),
        ]
    ]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=2)
    eng = QueryEngine(idx, num_servers=2)
    try:
        before = eng.query("hash join", k=10)
        assert 2 in [d for d, _ in before]
        delete_docs(idx, [2])
        # PIT: the running engine still serves doc 2
        assert eng.query("hash join", k=10) == before
        assert eng.refresh() == 1
        after = eng.query("hash join", k=10)
        assert 2 not in [d for d, _ in after]
        assert after == [(d, s) for d, s in before if d != 2]
    finally:
        eng.shutdown()
