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
from cb.query import rank_topk
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
    finally:
        engine.shutdown()
