"""Randomized stress: block-max WAND == exhaustive TAAT == direct oracle
over many synthetic posting universes, with a tiny block size so every
query crosses block and chunk boundaries."""

import numpy as np
import pytest

from cb import compress, scoring, wand
from cb.shard import ChunkedPostings, DocStats, GlobalStats

RANGE_SHIFT = 61  # 4 chunks over the 63-bit id space


def _build_universe(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    n_docs = int(rng.integers(20, 300))
    vocab = [f"t{i}" for i in range(int(rng.integers(4, 30)))]
    doc_ids = np.sort(
        rng.choice(np.iinfo(np.int64).max, size=n_docs, replace=False)
    ).astype(np.int64)
    tf = {}
    for t in vocab:
        df = int(rng.integers(1, n_docs + 1))
        docs = np.sort(rng.choice(n_docs, size=df, replace=False))
        tf[t] = {int(d): int(rng.integers(1, 20)) for d in docs}
    doc_len = np.zeros(n_docs, dtype=np.int64)
    for t, m in tf.items():
        for d, f in m.items():
            doc_len[d] += f
    doc_len = np.maximum(doc_len, 1)
    avgdl = float(doc_len.sum()) / n_docs
    stats = DocStats(doc_ids.copy(), doc_len.copy(), n_docs, avgdl)
    postings = {}
    for t, m in tf.items():
        idx = np.array(sorted(m.keys()))
        ids = doc_ids[idx]
        tfs = np.array([m[int(i)] for i in idx], dtype=np.int64)
        dls = doc_len[idx]
        rows = []
        for bucket in range(1 << (63 - RANGE_SHIFT)):
            lo = bucket << RANGE_SHIFT
            hi = (bucket + 1) << RANGE_SHIFT
            mask = (ids >= lo) & (ids < hi)
            if mask.any():
                r = compress.encode_postings(t, ids[mask], tfs[mask], dls[mask])
                r["bucket"] = bucket
                rows.append(r)
        postings[t] = ChunkedPostings(t, rows)
    return vocab, tf, doc_ids, doc_len, avgdl, stats, postings, n_docs, rng


def _oracle(terms, tf, doc_ids, doc_len, avgdl, n_docs, k):
    scores = {}
    for i, gid in enumerate(doc_ids):
        s = np.float64(0.0)
        hit = False
        for t in sorted(terms):
            f = tf.get(t, {}).get(i)
            if f:
                hit = True
                s = s + scoring.idf(len(tf[t]), n_docs) * scoring.u_factor(
                    f, doc_len[i], avgdl
                )
        if hit:
            scores[int(gid)] = float(s)
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def _bits(res):
    return [(d, np.float64(s).tobytes()) for d, s in res]


@pytest.mark.parametrize("seed", range(25))
def test_wand_taat_oracle_agree(seed, monkeypatch):
    monkeypatch.setattr(compress, "BLOCK", 8)  # force multi-block postings
    vocab, tf, doc_ids, doc_len, avgdl, stats, postings, n_docs, rng = _build_universe(seed)
    for _ in range(8):
        m = int(rng.integers(1, 5))
        terms = list(rng.choice(vocab, size=min(m, len(vocab)), replace=False))
        terms = sorted(set(terms))
        k = int(rng.integers(1, 20))
        idfs = {t: float(scoring.idf(postings[t].df, n_docs)) for t in terms}
        sub = {t: postings[t] for t in terms}
        want = _oracle(terms, tf, doc_ids, doc_len, avgdl, n_docs, k)
        got_taat = wand.topk_taat(sub, idfs, stats, k)
        got_wand = wand.topk_wand(sub, idfs, stats, k)
        assert got_taat == want, (seed, terms, k)
        assert got_wand == want, (seed, terms, k)
        # block bounds are computed at query time from the avgdl-free
        # (max tf, min dl) summaries, so WAND stays exact when a scope
        # scores with an avgdl other than the build's (a fed overlay)
        for factor in (0.05, 3.0, 40.0):
            other = GlobalStats(n_docs, avgdl * factor)
            want = _oracle(terms, tf, doc_ids, doc_len, other.avgdl, n_docs, k)
            got_taat = wand.topk_taat(sub, idfs, other, k)
            assert got_taat == want, (seed, factor, terms, k)
            assert _bits(wand.topk_wand(sub, idfs, other, k)) == _bits(got_taat), (
                seed, factor, terms, k,
            )


def test_old_format_index_fails_loud(tmp_path):
    """Bucket files from before the avgdl-free block summaries (a
    ``block_umax`` column, no ``block_bounds``) must be refused at load
    with the file named, in process and in a serving pool."""
    import glob
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from cb.build import build_index
    from cb.shard import LocalSearcher, QueryEngine

    src = str(tmp_path / "docs.parquet")
    words = ["alpha", "beta", "gamma", "delta"]
    pq.write_table(
        pa.table(
            {
                "doc_id": list(range(1, 41)),
                "text": [" ".join(words[: 1 + i % 4]) for i in range(40)],
            }
        ),
        src,
    )
    idx = str(tmp_path / "idx")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=2)
    assert LocalSearcher(idx).query("alpha", k=3, algo="wand")
    files = glob.glob(os.path.join(idx, "parts", "part=*", "bucket=*.parquet"))
    assert files
    for f in files:
        t = pq.read_table(f)
        i = t.schema.get_field_index("block_bounds")
        umax = pa.array([[1.0] * (len(b) // 2) for b in t["block_bounds"].to_pylist()])
        pq.write_table(t.remove_column(i).add_column(i, "block_umax", umax), f)
    with pytest.raises(ValueError, match=r"bucket=\d+\.parquet.*rebuild the index"):
        LocalSearcher(idx)
    eng = QueryEngine(idx, num_servers=1)
    try:
        with pytest.raises(Exception, match="rebuild the index"):
            eng.query("alpha", k=3)
    finally:
        eng.shutdown()


def test_k_zero_and_negative():
    import numpy as np
    from cb import compress
    from cb.shard import ChunkedPostings, GlobalStats
    ids = np.arange(1, 50, dtype=np.int64)
    tfs = np.ones(len(ids), dtype=np.int64)
    dls = np.full(len(ids), 10, dtype=np.int64)
    row = compress.encode_postings("t", ids, tfs, dls)
    row["bucket"] = 0
    cp = ChunkedPostings("t", [row])
    stats = GlobalStats(100, 10.0)
    for fn in (wand.topk_taat, wand.topk_wand):
        assert fn({"t": cp}, {"t": 1.0}, stats, 0) == []
        with pytest.raises(ValueError):  # rejected, not read as a slice bound
            fn({"t": cp}, {"t": 1.0}, stats, -3)


def test_cold_term_decodes_without_chunk_rows(tmp_path):
    """A decoded-cache miss in ``taat_scores`` is one columnar decode of
    the term's rows: scoring a term ``warm`` skipped builds no per-chunk
    ``PostingList`` rows, and scores it bitwise like a fully warmed scope."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from cb.build import build_index
    from cb.shard import LocalSearcher

    rng = np.random.Generator(np.random.PCG64(3))
    rare = [f"rare{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(40)]
    texts = [
        " ".join(["common"] * int(rng.integers(1, 4)) + [rare[int(rng.integers(40))] for _ in range(6)])
        for _ in range(200)
    ]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({"doc_id": list(range(1, 201)), "text": texts}), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=2)
    cold, full = LocalSearcher(idx), LocalSearcher(idx)
    assert cold.warm(min_df=50) >= 1
    full.warm(0)
    assert not any(t in cold.decoded for t in rare)
    for t in rare:
        got, want = cold.score([t], 10), full.score([t], 10)
        assert _bits(got) == _bits(want), t
        assert cold.get_postings(t)._chunks is None, t
