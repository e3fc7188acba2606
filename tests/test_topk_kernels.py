"""The two kernels every TAAT query runs, against the code they replaced.

- ``rank_topk`` (partition cut + lexsort of the survivors) must return
  exactly what one full ``np.lexsort`` returned, on ties across the
  k-th place, NaN, +-inf, -0.0 next to 0.0 and negative scores.
- ``wand.ordered_sum`` (one stable merge + ``np.bincount``) must be
  bitwise the per-term ``searchsorted`` accumulation loop: each doc's
  contributions add in run order from 0.0.
- A negative ``k`` is rejected on every top-k path; ``k == 0`` is [].
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from cb import wand
from cb.aggs import _merge_topk
from cb.build import build_index
from cb.query import check_algo, rank_topk
from cb.shard import LocalSearcher, QueryEngine, delete_docs


def _lexsort_topk(doc_ids, scores, k):
    """The former ``rank_topk``: a full lexsort, then the first k."""
    order = np.lexsort((doc_ids, -scores))
    return [(int(doc_ids[i]), float(scores[i])) for i in order[:k]]


def _searchsorted_sum(ids, vals):
    """The former TAAT accumulation: unique universe, one
    searchsorted and one fancy-index ``+=`` per run, in run order."""
    universe = np.unique(np.concatenate(ids))
    acc = np.zeros(len(universe), dtype=np.float64)
    for i, v in zip(ids, vals):
        acc[np.searchsorted(universe, i)] += v
    return universe, acc


def _bits(res):
    """A ranked list with each score as its float64 bytes (NaN-safe,
    and -0.0 differs from 0.0)."""
    return [(d, np.float64(s).tobytes()) for d, s in res]


SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, -1.5, 1.5, 2.0])


def _scores(rng, n, kind):
    if kind == "ties":  # few distinct values: ties across every cut
        return rng.choice(np.array([0.5, 1.0, 1.0, 2.0, 3.5]), n)
    if kind == "specials":
        return rng.choice(SPECIALS, n)
    if kind == "negative":
        return -rng.random(n) * 10.0
    if kind == "mostly_nan":
        s = np.full(n, np.nan)
        s[rng.random(n) < 0.2] = 1.25
        return s
    return rng.random(n) * 10.0 - 2.0


@pytest.mark.parametrize("kind", ["ties", "specials", "negative", "mostly_nan", "mixed"])
def test_rank_topk_matches_full_lexsort(kind):
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(1, 300))
        ids = rng.permutation(n * 3)[:n].astype(np.int64)
        scores = _scores(rng, n, kind)
        for k in sorted({0, 1, max(n - 1, 0), n, n + 5, int(rng.integers(1, n + 1))}):
            want = _lexsort_topk(ids, scores, k)
            got = rank_topk(ids, scores, k)
            assert _bits(got) == _bits(want), (kind, n, k)
            assert all(type(d) is int and type(s) is float for d, s in got)


def test_rank_topk_edges():
    empty = np.array([], dtype=np.int64)
    assert rank_topk(empty, np.array([], dtype=np.float64), 5) == []
    ids = np.array([7, 3, 5, 1], dtype=np.int64)
    # a tie straddling the cut keeps the lower doc ids
    assert rank_topk(ids, np.array([1.0, 2.0, 1.0, 1.0]), 2) == [(3, 2.0), (1, 1.0)]
    # -0.0 ties with 0.0 (doc id breaks it) and keeps its sign
    got = rank_topk(ids, np.array([0.0, -0.0, -1.0, np.nan]), 2)
    assert _bits(got) == _bits([(3, -0.0), (7, 0.0)])
    # fewer than k non-NaN scores: NaN sorts last
    got = rank_topk(ids, np.array([np.nan, 1.0, np.nan, -np.inf]), 3)
    assert _bits(got[:2]) == _bits([(3, 1.0), (1, -np.inf)]) and np.isnan(got[2][1])


def _runs(rng, n_runs, layout):
    if layout == "identical":
        base = np.unique(rng.integers(0, 400, 150))
        ids = [base] * n_runs
    elif layout == "disjoint":
        owner = rng.integers(0, n_runs, 600)
        ids = [np.flatnonzero(owner == r) for r in range(n_runs)]
    else:
        ids = [np.unique(rng.integers(0, 400, int(rng.integers(1, 200)))) for _ in range(n_runs)]
    ids = [a.astype(np.int64) for a in ids]
    # magnitudes spread over 16 decades: any change of summation order shows
    vals = [rng.random(len(a)) * 10.0 ** rng.integers(-8, 8, len(a)) for a in ids]
    return ids, vals


@pytest.mark.parametrize("layout", ["overlapping", "disjoint", "identical"])
def test_ordered_sum_bitwise_matches_searchsorted_loop(layout):
    rng = np.random.default_rng(7)
    for n_runs in [1, 2, 3, 8, 9, 17, 40]:
        ids, vals = _runs(rng, n_runs, layout)
        want_u, want_acc = _searchsorted_sum(ids, vals)
        got_u, got_acc = wand.ordered_sum(ids, vals)
        assert got_u.tobytes() == want_u.tobytes(), (layout, n_runs)
        assert got_acc.dtype == np.float64
        assert got_acc.tobytes() == want_acc.tobytes(), (layout, n_runs)


def test_ordered_sum_keeps_run_order():
    """The bitwise check above has teeth: over 40 identical runs the
    reversed run order, and ``np.add.reduceat``'s pairwise sums, give
    different bits than the spec's run order."""
    rng = np.random.default_rng(7)
    ids, vals = _runs(rng, 40, "identical")
    _, acc = wand.ordered_sum(ids, vals)
    _, rev = wand.ordered_sum(ids[::-1], vals[::-1])
    assert acc.tobytes() != rev.tobytes()
    stacked = np.stack(vals, axis=1).ravel()
    pairwise = np.add.reduceat(stacked, np.arange(0, len(stacked), 40))
    assert acc.tobytes() != pairwise.tobytes()


def test_ordered_sum_empty_runs():
    u, acc = wand.ordered_sum([np.array([], dtype=np.int64)] * 2, [np.array([])] * 2)
    assert len(u) == 0 and len(acc) == 0 and acc.dtype == np.float64


DOCS = [
    "hash join over the big table",
    "hash join deprecated path",
    "merge sort window frame",
    "join hash reversed words",
    "the quick hash join trick",
]


@pytest.fixture()
def built(tmp_path):
    rows = [{"doc_id": i + 1, "text": t} for i, t in enumerate(DOCS)]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=4)
    return idx


def test_negative_k_is_rejected_by_the_kernels():
    with pytest.raises(ValueError):
        rank_topk(np.array([1, 2]), np.array([1.0, 2.0]), -1)
    with pytest.raises(ValueError):
        _merge_topk([[(1, 1.0)], [(2, 2.0)]], -1)
    with pytest.raises(ValueError):
        wand.topk_taat({}, {}, None, -1)
    with pytest.raises(ValueError):
        wand.topk_wand({}, {}, None, -1)


def _assert_k_contract(search):
    for algo in ("taat", "wand"):
        for text in ("hash join", "zebra", ""):
            with pytest.raises(ValueError):
                search(text, -1, algo)
            assert search(text, 0, algo) == []
        assert len(search("hash join", 2, algo)) == 2


def test_negative_k_local_searcher(built):
    _assert_k_contract(lambda q, k, a: LocalSearcher(built).query(q, k=k, algo=a))
    delete_docs(built, [1])
    _assert_k_contract(lambda q, k, a: LocalSearcher(built).query(q, k=k, algo=a))


def test_negative_k_query_engine(built):
    engine = QueryEngine(built, num_servers=2)
    try:
        _assert_k_contract(lambda q, k, a: engine.query(q, k=k, algo=a))
        with pytest.raises(ValueError):
            engine.query_terms(["hash"], k=-1)
        delete_docs(built, [1])
        engine.refresh()
        _assert_k_contract(lambda q, k, a: engine.query(q, k=k, algo=a))
        # the servers' own tombstone path rejects it too, and the
        # error reaches the driver with its type
        for algo in ("taat", "wand"):
            with pytest.raises(ValueError):
                engine.pool.gather("score", ["hash", "join"], -1, algo=algo)
        for bad in ("bogus", "WAND"):
            with pytest.raises(ValueError, match="taat"):
                engine.query("hash join", k=2, algo=bad)
            with pytest.raises(ValueError, match="wand"):
                engine.query_many(["hash join"], k=2, algo=bad)
    finally:
        engine.shutdown()


def test_unknown_algo_is_rejected(built):
    """An unknown ``algo`` is a ValueError naming both algorithms, not a
    silent TAAT; the idf memo returns the bits a fresh idf gives."""
    assert check_algo("taat") == "taat" and check_algo("wand") == "wand"
    s = LocalSearcher(built)
    for bad in ("bogus", "WAND", ""):
        with pytest.raises(ValueError, match="taat.*wand"):
            s.query("import parse", algo=bad)
        with pytest.raises(ValueError, match="taat.*wand"):
            s.score_many([["hash"]], 10, algo=bad)
    want = s.query("hash join", k=3)
    assert s.query("hash join", k=4)[:3] == want  # second call: memo hits
    fresh = LocalSearcher(built)
    _, idfs = fresh._live_idfs(["hash", "join"])
    assert idfs == s._live_idfs(["hash", "join"])[1] and set(s._idfs) >= {"hash", "join"}


def _dense(universe, ids, vals):
    return wand.dense_sum(universe, [np.searchsorted(universe, a) for a in ids], vals)


@pytest.mark.parametrize("layout", ["overlapping", "disjoint", "identical"])
def test_dense_sum_bitwise_matches_ordered_sum(layout):
    """The dense kernel gives ordered_sum's bits, over a universe equal
    to the runs' union and over one many times larger."""
    rng = np.random.default_rng(11)
    for n_runs in [1, 2, 3, 9, 40]:
        ids, vals = _runs(rng, n_runs, layout)
        want_u, want_acc = wand.ordered_sum(ids, vals)
        for extra in (0, 5000):
            universe = np.union1d(np.concatenate(ids), np.arange(10**6, 10**6 + extra))
            got_u, got_acc = _dense(universe, ids, vals)
            assert got_u.tobytes() == want_u.tobytes(), (layout, n_runs, extra)
            assert got_acc.tobytes() == want_acc.tobytes(), (layout, n_runs, extra)


def test_dense_sum_edges():
    one = np.array([42], dtype=np.int64)
    u, acc = _dense(one, [one, one], [np.array([0.25]), np.array([1e-17])])
    assert u.tolist() == [42] and acc.tobytes() == np.array([0.25 + 1e-17]).tobytes()
    # a zero-weight term's doc is matched, with score 0.0
    uni = np.array([3, 5, 9], dtype=np.int64)
    u, acc = _dense(uni, [np.array([5])], [np.array([0.0])])
    assert u.tolist() == [5] and acc.tolist() == [0.0]
    empty = np.array([], dtype=np.int64)
    u, acc = _dense(uni, [empty, empty], [np.array([]), np.array([])])
    assert len(u) == 0 and len(acc) == 0
    assert wand.doc_ordinals(uni, np.array([5, 7])) is None  # 7 is not in it
    assert wand.doc_ordinals(None, uni) is None
    # warm maps many terms' runs at once, so ids come unsorted; an id
    # above the universe anywhere in them gives None, not an IndexError
    assert wand.doc_ordinals(uni, np.array([3, 9, 5, 3, 5, 9])).tolist() == [0, 2, 1, 0, 1, 2]
    assert wand.doc_ordinals(uni, np.array([3, 9, 12, 5])) is None
    assert wand.doc_ordinals(uni[:0], np.array([3])) is None


def test_scope_caches_ordinals_and_scores_like_merge(built, monkeypatch):
    """warm(0) stores every term's ordinals, so the first query maps
    none; a min_df > 0 warm maps a cold term on first use; the dense
    path scores bitwise like the merge path, tombstones and refresh
    included."""
    from cb.shard import GlobalStats

    s = LocalSearcher(built)
    uni = s.stats.universe
    assert uni.tolist() == [1, 2, 3, 4, 5]
    s.warm(0)
    assert all(uni[o].tobytes() == i.tobytes() for i, _, o in s.decoded.values())
    calls = []
    real = wand.doc_ordinals
    monkeypatch.setattr(wand, "doc_ordinals", lambda *a: calls.append(1) or real(*a))
    s.query("hash join window", k=5)
    assert calls == []
    cold = LocalSearcher(built)
    cold.warm(min_df=3)
    assert "window" not in cold.decoded
    cold.query("window", k=5)
    assert calls and cold.decoded["window"][2] is not None
    merge = GlobalStats(s.stats.n_docs, s.stats.avgdl)  # no universe
    for text in ("hash join", "the quick window", "merge sort frame path"):
        terms = sorted(set(text.split()))
        live, idfs = s._live_idfs(terms)
        got = wand.taat_scores(live, idfs, s.stats, s.decoded)
        want = wand.taat_scores(live, idfs, merge, {})
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    want = s.query("hash join", k=5)
    delete_docs(built, [1])
    engine = QueryEngine(built, num_servers=1)
    try:
        engine.refresh()
        assert engine.query("hash join", k=5) == [r for r in want if r[0] != 1]
    finally:
        engine.shutdown()
    assert LocalSearcher(built).query("hash join", k=5) == [r for r in want if r[0] != 1]
