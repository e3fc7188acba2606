"""Corpus-size-derived doc-range bucketing (range_bits auto-tuning) and
doc-sharded serving beyond the old 16-bucket ceiling."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from cb import build, shard


def test_auto_range_bits_thresholds():
    f = build.auto_range_bits
    # floor: tiny corpora stay at the 16-bucket default
    assert f(0) == build.DEFAULT_RANGE_BITS
    assert f(10_000) == build.DEFAULT_RANGE_BITS
    assert f(1 << 22) == build.DEFAULT_RANGE_BITS  # 4M / 256k = 16 buckets
    # growth: ~256k docs per bucket
    assert f(1 << 23) == 5
    assert f(1 << 24) == 6
    # cap: file-count fan-out bounded at 256 buckets
    assert f(10**9) == 8
    assert f(10**12) == 8
    # monotone non-decreasing over a sweep
    vals = [f(n) for n in (1, 10**3, 10**5, 10**7, 10**9, 10**11)]
    assert vals == sorted(vals)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("rb")
    rng = np.random.default_rng(11)
    vocab = [f"tok{i}" for i in range(60)]
    rows = [
        {
            "doc_id": i,
            "text": " ".join(rng.choice(vocab, size=rng.integers(5, 30))),
        }
        for i in range(400)
    ]
    src = str(d / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    return d, src


def test_auto_build_small_corpus_uses_default(corpus, ray_session):
    d, src = corpus
    idx = str(d / "idx_auto")
    meta = build.build_index(
        src, idx, text_col="text", id_col="doc_id", num_parts=4, range_bits="auto"
    )
    assert meta.range_bits == build.DEFAULT_RANGE_BITS


def test_wide_pool_beyond_16_servers(corpus, ray_session):
    """range_bits=5 -> 32 doc-range buckets -> a 20-server doc-sharded
    pool loads disjoint bucket slices and matches the in-process
    searcher bitwise."""
    d, src = corpus
    idx = str(d / "idx5")
    build.build_index(
        src, idx, text_col="text", id_col="doc_id", num_parts=4, range_bits=5
    )
    s = shard.LocalSearcher(idx)
    eng = shard.QueryEngine(idx, num_servers=20)
    try:
        for q in ("tok1 tok2", "tok10", "tok3 tok40 tok55", "absent"):
            assert eng.query(q, k=10) == s.query(q, k=10, algo="taat"), q
    finally:
        eng.shutdown()
    # the old ceiling still guards misconfiguration
    with pytest.raises(ValueError, match="num_servers"):
        shard.QueryEngine(idx, num_servers=33)


def test_auto_num_parts_thresholds():
    f = build.auto_num_parts
    # floor: tiny corpora stay at the 8-partition default
    assert f(0) == build.DEFAULT_NUM_PARTS
    assert f(10_000) == build.DEFAULT_NUM_PARTS
    assert f(1 << 21) == build.DEFAULT_NUM_PARTS  # 2M / 256k = 8 parts
    # growth: ~256k docs per term partition
    assert f(1 << 22) == 16
    assert f(10**8) == 382
    # cap: the ~100 TB operating point (DESIGN_SCALE.md P ~ 150k-260k)
    assert f(10**12) == 1 << 18
    vals = [f(n) for n in (1, 10**4, 10**6, 10**8, 10**10, 10**12)]
    assert vals == sorted(vals)


def test_auto_num_parts_build(corpus, ray_session):
    """num_parts="auto" resolves from the parquet row count and the
    index layout records the resolved value."""
    d, src = corpus
    idx = str(d / "idx_auto_parts")
    meta = build.build_index(
        src, idx, text_col="text", id_col="doc_id", num_parts="auto", range_bits="auto"
    )
    assert meta.num_parts == build.DEFAULT_NUM_PARTS
    s = shard.LocalSearcher(idx)
    assert s.query("tok1", k=5, algo="wand")


def test_32_server_doc_sharded_parity(tmp_path, ray_session):
    """range_bits=6 -> 64 doc-range buckets -> a 32-server doc-sharded
    pool (past the old 16-bucket ceiling) matches the in-process
    searcher bitwise.  Doc ids are spread across the 63-bit space so
    every server's bucket slice is non-trivial (content-hash ids are
    uniform in production)."""
    rng = np.random.default_rng(23)
    vocab = [f"tok{i}" for i in range(60)]
    rows = [
        {
            "doc_id": int(rng.integers(0, 1 << 62)),
            "text": " ".join(rng.choice(vocab, size=rng.integers(5, 30))),
        }
        for i in range(500)
    ]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "idx6")
    build.build_index(src, idx, text_col="text", id_col="doc_id", num_parts=4, range_bits=6)
    s = shard.LocalSearcher(idx)
    eng = shard.QueryEngine(idx, num_servers=32)
    try:
        for q in ("tok1 tok2", "tok10", "tok3 tok40 tok55", "tok7 tok8 tok9"):
            assert eng.query(q, k=10) == s.query(q, k=10, algo="taat"), q
    finally:
        eng.shutdown()


def test_sparse_bucket_universe_single_and_multifield(tmp_path, ray_session):
    """range_bits=61 (bucket = id >> 2) is too wide to enumerate, so
    :func:`cb.shard.doc_slices` lists the live buckets from the docstats
    files — for a multifield index, from its field sub-indexes — and
    both pools serve bitwise like their in-process searchers."""
    from cb import multifield

    rng = np.random.default_rng(31)
    vocab = [f"tok{i}" for i in range(30)]
    rows = [
        {
            "doc_id": i,
            "title": " ".join(rng.choice(vocab, size=3)),
            "text": " ".join(rng.choice(vocab, size=rng.integers(5, 20))),
        }
        for i in range(60)
    ]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "idx61")
    build.build_index(src, idx, text_col="text", id_col="doc_id", num_parts=4, range_bits=61)
    mf = str(tmp_path / "mf61")
    multifield.build_multifield(
        src, mf, ["title", "text"], id_col="doc_id", num_parts=4, range_bits=61
    )
    live = list(range(15))  # ids 0..59 >> 2
    for d in (idx, mf):
        slices = shard.doc_slices(d, 61, 3)
        assert sorted(b for sl in slices for b in sl) == live
        assert all(b % 3 == s for s, sl in enumerate(slices) for b in sl)
    qs = ("tok1 tok2", "tok10", "tok3 tok20 tok25")
    s = shard.LocalSearcher(idx)
    eng = shard.QueryEngine(idx, num_servers=3)
    try:
        for q in qs:
            assert eng.query(q, k=10) == s.query(q, k=10, algo="taat"), q
    finally:
        eng.shutdown()
    ms = multifield.MultiFieldSearcher(mf)
    eng = multifield.MultiFieldEngine(mf, num_servers=3)
    try:
        for q in qs:
            got = eng.search(q, k=10)
            assert got and got == ms.search(q, k=10), q
    finally:
        eng.shutdown()
