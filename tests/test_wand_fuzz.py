"""Randomized stress: block-max WAND == exhaustive TAAT == direct oracle
over many synthetic posting universes, with a tiny block size so every
query crosses block and chunk boundaries."""

import numpy as np
import pytest

from cb import compress, scoring, wand
from cb.shard import ChunkedPostings, DocStats

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
                r = compress.encode_postings(t, ids[mask], tfs[mask], dls[mask], avgdl)
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


def test_unannotated_index_fails_loud_for_wand():
    """An index whose block-max annotation pass never ran must refuse
    WAND with a clear error (TAAT still works)."""
    import numpy as np
    from cb import compress
    from cb.shard import ChunkedPostings, GlobalStats
    ids = np.arange(1, 300, dtype=np.int64) * 7
    tfs = np.ones(len(ids), dtype=np.int64)
    dls = np.full(len(ids), 50, dtype=np.int64)
    row = compress.encode_postings("t", ids, tfs, dls, avgdl=None)
    row["bucket"] = 0
    cp = ChunkedPostings("t", [row])
    stats = GlobalStats(1000, 50.0)
    got = wand.topk_taat({"t": cp}, {"t": 1.0}, stats, 5)
    assert len(got) == 5
    with pytest.raises(ValueError, match="block-max metadata"):
        wand.topk_wand({"t": cp}, {"t": 1.0}, stats, 5)


def test_k_zero_and_negative():
    import numpy as np
    from cb import compress
    from cb.shard import ChunkedPostings, GlobalStats
    ids = np.arange(1, 50, dtype=np.int64)
    tfs = np.ones(len(ids), dtype=np.int64)
    dls = np.full(len(ids), 10, dtype=np.int64)
    row = compress.encode_postings("t", ids, tfs, dls, avgdl=10.0)
    row["bucket"] = 0
    cp = ChunkedPostings("t", [row])
    stats = GlobalStats(100, 10.0)
    for fn in (wand.topk_taat, wand.topk_wand):
        assert fn({"t": cp}, {"t": 1.0}, stats, 0) == []
        with pytest.raises(ValueError):  # rejected, not read as a slice bound
            fn({"t": cp}, {"t": 1.0}, stats, -3)
