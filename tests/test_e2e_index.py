"""End-to-end: build index over the synthetic corpus, compare the engine
(TAAT + block-max WAND, local and actor-pool paths) against the
brute-force oracle — rank-identical doc ids AND bitwise-equal float64
scores (SURVEY.md §5 'what the reference lacks')."""

import os

import numpy as np
import pytest
import ray

from cb import corpus as corpus_mod
from cb import query as query_mod
from cb import shard as shard_mod
from cb.build import build_index

N_DOCS = 300


def _queries(oracle):
    """Deterministic query mix: hot/rare/multi/absent/camel forms."""
    by_df = sorted(oracle.df.items(), key=lambda kv: (-kv[1], kv[0]))
    hot = [t for t, _ in by_df[:5]]
    mid = [t for t, _ in by_df[len(by_df) // 2 : len(by_df) // 2 + 5]]
    rare = [t for t, _ in by_df[-5:]]
    qs = []
    qs += hot + mid + rare
    qs += [f"{hot[0]} {rare[0]}", f"{hot[0]} {hot[1]} {mid[0]}", " ".join(hot[:4])]
    qs += [f"{mid[1]} {mid[2]} {rare[1]}", f"{rare[2]} {rare[3]}"]
    qs += ["zzzabsentterm", f"{hot[2]} zzzabsentterm", ""]
    qs += ["camelCaseIdent", "snake_case_ident", "getHTTPResponseCode x86_64"]
    return qs


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    idx_dir = str(tmp_path_factory.mktemp("index"))
    corpus_dir = str(tmp_path_factory.mktemp("corpus"))
    tbl = corpus_mod.generate_corpus(N_DOCS, seed=42)
    with_id = corpus_mod.with_identity(tbl)
    import pyarrow.parquet as pq, os
    pq.write_table(tbl, os.path.join(corpus_dir, "c.parquet"))
    # path source -> exercises the hash-exchange merge (the production path)
    meta = build_index(corpus_dir + "/c.parquet", idx_dir, text_col="content", id_col=None, num_parts=4, range_bits=3)
    oracle = query_mod.Oracle(
        with_id["doc_id"].to_pylist(), with_id["content"].to_pylist()
    )
    return idx_dir, meta, oracle


def test_global_stats_match(built):
    idx_dir, meta, oracle = built
    assert meta.n_docs == oracle.n_docs
    assert meta.total_tokens == int(oracle.doc_len.sum())
    assert meta.avgdl == oracle.avgdl


def test_docstats_match(built):
    idx_dir, meta, oracle = built
    stats = shard_mod.DocStats.load(idx_dir)
    want = dict(zip(oracle.doc_ids, oracle.doc_len.tolist()))
    got = dict(zip(stats.ids.tolist(), stats.lens.tolist()))
    assert got == want


def test_df_cf_match(built):
    idx_dir, meta, oracle = built
    searcher = shard_mod.LocalSearcher(idx_dir)
    cf = {}
    for c in oracle.tf:
        for t, n in c.items():
            cf[t] = cf.get(t, 0) + n
    seen = set()
    for p in searcher.parts.values():
        for term in p.offsets:
            assert term not in seen  # each term lives in exactly one partition
            seen.add(term)
            cp = p.get(term)
            assert cp.df == oracle.df[term], term
            assert cp.cf == cf[term], term
            ids, tfs, dls = cp.decode_all()
            assert np.all(np.diff(ids) > 0)  # strictly sorted, no dups
    assert seen == set(oracle.df.keys())


def test_hot_terms_are_chunked(built):
    """Skew handling: hot terms span multiple doc-id-range chunks whose
    ordered concatenation is the global posting list."""
    idx_dir, meta, oracle = built
    searcher = shard_mod.LocalSearcher(idx_dir)
    hot = max(oracle.df, key=oracle.df.get)
    cp = searcher.get_postings(hot)
    assert len(cp.chunks) > 1  # uniform 63-bit ids spread over buckets
    ids, _, _ = cp.decode_all()
    assert np.all(np.diff(ids) > 0)  # chunks concatenate in id order


def test_topk_rank_identical_to_oracle(built):
    idx_dir, meta, oracle = built
    searcher = shard_mod.LocalSearcher(idx_dir)
    for q in _queries(oracle):
        for k in (1, 3, 10):
            want = oracle.topk(q, k)
            for algo in ("taat", "wand"):
                got = searcher.query(q, k, algo=algo)
                assert got == want, (q, k, algo)  # ids AND exact float scores


def test_wand_equals_taat_large_k(built):
    idx_dir, meta, oracle = built
    searcher = shard_mod.LocalSearcher(idx_dir)
    for q in _queries(oracle):
        assert searcher.query(q, 50, algo="wand") == searcher.query(q, 50, algo="taat")


def test_actor_pool_matches_oracle(built):
    idx_dir, meta, oracle = built
    engine = shard_mod.QueryEngine(idx_dir, num_servers=2)
    qs = _queries(oracle)
    got = engine.query_many(qs, k=10)
    for q, res in zip(qs, got):
        assert res == oracle.topk(q, 10), q


def test_content_sha256_invariant(built):
    # per-row invariant required by BASELINE.json input_hint
    import hashlib

    tbl = corpus_mod.generate_corpus(20, seed=42)
    out = corpus_mod.with_identity(tbl)
    for row in out.to_pylist():
        assert row["content_sha256"] == hashlib.sha256(row["content"].encode()).hexdigest()


def test_manifests_written(built):
    idx_dir, meta, oracle = built
    from cb import manifest

    found = 0
    for p in range(meta.num_parts):
        mpath = os.path.join(idx_dir, "parts", f"part={p}", "manifest.json")
        if os.path.exists(mpath):
            m = manifest.read(mpath)
            assert m["status"] == "done"
            assert m["partition"] == p
            found += 1
    assert found >= 1


def test_search_after_pages_tile_the_ranking(built):
    """Pages concatenated == the full ranking, no gaps or overlaps."""
    idx_dir, meta, oracle = built
    engine = shard_mod.QueryEngine(idx_dir, num_servers=2)
    try:
        q = "import return value"
        full = engine.query(q, k=40)
        pages, after = [], None
        while True:
            page = engine.search_after(q, k=7, after=after)
            if not page:
                break
            pages.extend(page)
            after = (page[-1][1], page[-1][0])
            if len(pages) >= len(full):
                break
        assert pages[: len(full)] == full
    finally:
        engine.shutdown()


def test_more_like_this_excludes_source_and_is_deterministic(built):
    idx_dir, meta, oracle = built
    engine = shard_mod.QueryEngine(idx_dir, num_servers=2)
    try:
        target_id = oracle.doc_ids[0]
        # tokenizer output is idempotent: re-joined tokens re-tokenize
        # to the same multiset, so this is the doc's term vector
        text = " ".join(oracle.tokens[0])
        res = engine.more_like_this(text, k=10, exclude=target_id)
        assert res and all(d != target_id for d, _ in res)
        assert res == engine.more_like_this(text, k=10, exclude=target_id)
        # without exclusion the source doc itself dominates (it matches
        # its own top terms best or near-best)
        incl = engine.more_like_this(text, k=3)
        assert target_id in {d for d, _ in incl}
    finally:
        engine.shutdown()


def _rewrite_bytes(path: str) -> bytes:
    import pyarrow as pa
    import pyarrow.parquet as pq

    sink = pa.BufferOutputStream()
    pq.write_table(pq.read_table(path), sink)
    return sink.getvalue().to_pybytes()


def test_build_writes_final_bytes(built, tmp_path):
    """Every parquet file a build writes is already in its final bytes:
    equal to a rewrite of its own parquet read-back, with and without
    positions — so no pass needs to read a posting file back and
    rewrite it."""
    import glob

    import pyarrow.parquet as pq

    idx_dir = built[0]
    src = str(tmp_path / "c.parquet")
    pq.write_table(corpus_mod.generate_corpus(120, seed=5), src)
    nopos = str(tmp_path / "nopos")
    build_index(src, nopos, text_col="content", num_parts=2, positions=False)
    for d in (idx_dir, nopos):
        files = glob.glob(os.path.join(d, "**", "*.parquet"), recursive=True)
        assert any("bucket=" in f for f in files)
        for f in files:
            with open(f, "rb") as fh:
                assert fh.read() == _rewrite_bytes(f), f


def test_build_is_one_execution(tmp_path, monkeypatch):
    """A fast-path build is ONE Ray Data execution: the per-partition
    finalize (``_termdf``, manifests, stale-file removal) rides the
    shuffle's stat rows, with no second pass over the written files."""
    import pyarrow.parquet as pq
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    src = str(tmp_path / "c.parquet")
    pq.write_table(corpus_mod.generate_corpus(120, seed=5), src)
    runs = []
    execute = StreamingExecutor.execute
    monkeypatch.setattr(
        StreamingExecutor, "execute", lambda self, *a, **k: runs.append(1) or execute(self, *a, **k)
    )
    idx = str(tmp_path / "idx")
    meta = build_index(src, idx, text_col="content", num_parts=3, range_bits=2)
    assert len(runs) == 1
    for p in range(meta.num_parts):
        pdir = os.path.join(idx, "parts", f"part={p}")
        assert {"manifest.json", "_termdf.parquet"} <= set(os.listdir(pdir)), p
