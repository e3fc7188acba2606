"""Positional postings + exact phrase queries vs the phrase oracle."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from cb import compress
from cb import corpus as cm
from cb import query as qm
from cb import shard as sm
from cb.build import build_index


def test_positions_roundtrip():
    rng = np.random.Generator(np.random.PCG64(5))
    n = 300
    ids = np.sort(rng.choice(2**40, size=n, replace=False)).astype(np.int64)
    tfs = rng.integers(1, 9, size=n).astype(np.int64)
    dls = rng.integers(5, 500, size=n).astype(np.int64)
    pos_parts = [np.sort(rng.choice(1000, size=int(t), replace=False)) for t in tfs]
    poss = np.concatenate(pos_parts).astype(np.int64)
    row = compress.encode_postings("t", ids, tfs, dls, positions=poss)
    pl = compress.PostingList(row)
    flat, offsets = pl.decode_positions()
    assert np.array_equal(flat, poss)
    assert np.array_equal(np.diff(offsets), tfs)
    assert pl.has_positions


def test_no_positions_raises():
    row = compress.encode_postings(
        "t", np.array([1, 2]), np.array([1, 1]), np.array([3, 3])
    )
    pl = compress.PostingList(row)
    with pytest.raises(ValueError, match="no positions"):
        pl.decode_positions()


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    tbl = cm.generate_corpus(250, seed=42)
    d = tmp_path_factory.mktemp("pcorpus")
    pq.write_table(tbl, str(d / "c.parquet"))
    idx = str(tmp_path_factory.mktemp("pidx"))
    build_index(str(d / "c.parquet"), idx, num_parts=4, range_bits=3)
    wid = cm.with_identity(tbl)
    oracle = qm.Oracle(wid["doc_id"].to_pylist(), wid["content"].to_pylist())
    return idx, oracle


def _phrases(oracle):
    # real adjacent pairs/triples from the corpus + misses
    qs = []
    for toks in oracle.tokens[:40]:
        if len(toks) >= 3:
            qs.append(" ".join(toks[1:3]))
            qs.append(" ".join(toks[0:3]))
    qs += ["zebra quantum", "import zebra", "import", ""]
    # order matters: a reversed real bigram usually should NOT match
    if oracle.tokens[6]:
        t = oracle.tokens[6]
        if len(t) >= 2 and t[0] != t[1]:
            qs.append(f"{t[1]} {t[0]}")
    return sorted(set(qs))


def test_phrase_matches_oracle_local(built):
    idx, oracle = built
    s = sm.LocalSearcher(idx)
    n_nonempty = 0
    for q in _phrases(oracle):
        for k in (1, 5, 20):
            want = oracle.phrase_topk(q, k)
            got = s.phrase_query(q, k)
            assert got == want, (q, k)
            n_nonempty += bool(want)
    assert n_nonempty > 10  # the phrase set actually matches things


def test_phrase_is_stricter_than_bag_of_words(built):
    idx, oracle = built
    s = sm.LocalSearcher(idx)
    q = " ".join(oracle.tokens[10][:3])
    bag = {d for d, _ in s.query(q, 250, algo="taat")}
    phr = {d for d, _ in s.phrase_query(q, 250)}
    assert phr <= bag
    assert len(phr) >= 1


def test_phrase_actor_path(built):
    idx, oracle = built
    engine = sm.QueryEngine(idx, num_servers=2)
    try:
        for q in _phrases(oracle)[:10]:
            assert engine.phrase_query(q, 10) == oracle.phrase_topk(q, 10), q
    finally:
        engine.shutdown()


def test_slop_widens_matches_and_zero_is_adjacent():
    import numpy as np

    from cb.phrase import _matches_with_slop, phrase_topk

    pos = {
        # doc 1: "a x b" -> gap 1;  doc 2: "a b" adjacent; doc 3: "b a"
        ("a", 1): [1], ("b", 1): [3],
        ("a", 2): [1], ("b", 2): [2],
        ("a", 3): [2], ("b", 3): [1],
    }

    def pf(term, doc):
        return np.array(pos.get((term, doc), []), dtype=np.int64)

    assert not _matches_with_slop(["a", "b"], pf, 1, 0)
    assert _matches_with_slop(["a", "b"], pf, 1, 1)
    assert _matches_with_slop(["a", "b"], pf, 2, 0)
    # out of order never matches, any slop
    assert not _matches_with_slop(["a", "b"], pf, 3, 5)
    # greedy chain: 3 terms, budget spans the total extra gap
    pos3 = {("a", 9): [1], ("b", 9): [4], ("c", 9): [6]}

    def pf3(term, doc):
        return np.array(pos3.get((term, doc), []), dtype=np.int64)

    assert _matches_with_slop(["a", "b", "c"], pf3, 9, 3)   # extra = 3
    assert not _matches_with_slop(["a", "b", "c"], pf3, 9, 2)


def _brute_phrase_prefix(oracle, text, k, max_expansions=None):
    """Brute-force match_phrase_prefix over the oracle corpus: fixed
    tokens adjacent, then any token completing the prefix; scored by
    BM25 of the unique fixed terms, ties doc asc."""
    from cb import analyze, scoring

    toks = analyze.tokenize(text)
    fixed, prefix = toks[:-1], toks[-1]
    vocab = sorted(t for t in oracle.df if t.startswith(prefix))
    if max_expansions is not None:
        vocab = vocab[:max_expansions]
    exp = set(vocab)
    out = []
    for i, d in enumerate(oracle.doc_ids):
        tl = oracle.tokens[i]
        n = len(fixed)
        hit = any(
            tl[j:j + n] == fixed and tl[j + n] in exp
            for j in range(len(tl) - n)
        )
        if not hit:
            continue
        s = np.float64(0.0)
        for t in sorted(set(fixed)):
            tf = oracle.tf[i].get(t)
            if tf:
                s = s + scoring.idf(oracle.df[t], oracle.n_docs) * scoring.u_factor(
                    tf, oracle.doc_len[i], oracle.avgdl
                )
        out.append((d, float(s)))
    out.sort(key=lambda t: (-t[1], t[0]))
    return out[:k]


def _prefix_queries(oracle):
    qs = []
    for toks in oracle.tokens[:40]:
        if len(toks) >= 2:
            qs.append(f"{toks[0]} {toks[1][:2]}")
            qs.append(f"{toks[0]} {toks[1]}")  # full-word prefix
    # bare prefix (no fixed terms): score-0 contract, doc-id order
    qs.append(oracle.tokens[0][0][:2])
    return qs[:25]


def test_phrase_prefix_matches_brute_force(built):
    idx, oracle = built
    engine = sm.QueryEngine(idx, num_servers=2)
    try:
        n_nonempty = 0
        for q in _prefix_queries(oracle):
            for k in (3, 20):
                want = _brute_phrase_prefix(oracle, q, k)
                got = engine.phrase_prefix_query(q, k=k, max_expansions=None)
                assert [d for d, _ in got] == [d for d, _ in want], (q, k)
                assert np.allclose([s for _, s in got], [s for _, s in want])
                n_nonempty += bool(want)
        assert n_nonempty > 10
    finally:
        engine.shutdown()


def test_phrase_prefix_expansion_cap_and_term_mode(built):
    idx, oracle = built
    q = None
    for toks in oracle.tokens:
        if len(toks) >= 2:
            q = f"{toks[0]} {toks[1][:1]}"  # 1-char prefix: many completions
            break
    engine = sm.QueryEngine(idx, num_servers=3)
    try:
        full = engine.phrase_prefix_query(q, k=50, max_expansions=None)
        assert [d for d, _ in full] == [
            d for d, _ in _brute_phrase_prefix(oracle, q, 50)
        ]
        capped = engine.phrase_prefix_query(q, k=50, max_expansions=1)
        want = _brute_phrase_prefix(oracle, q, 50, max_expansions=1)
        assert [d for d, _ in capped] == [d for d, _ in want]
        # the cap can only shrink the match set
        assert {d for d, _ in capped} <= {d for d, _ in full}
    finally:
        engine.shutdown()


def test_phrase_prefix_tombstones(built, tmp_path):
    import shutil

    idx, oracle = built
    priv = str(tmp_path / "idx")
    shutil.copytree(idx, priv)
    q = None
    for toks in oracle.tokens:
        if len(toks) >= 2:
            q = f"{toks[0]} {toks[1][:2]}"
            break
    engine = sm.QueryEngine(priv, num_servers=2)
    try:
        before = engine.phrase_prefix_query(q, k=10, max_expansions=None)
        assert before
    finally:
        engine.shutdown()
    sm.delete_docs(priv, [before[0][0]])
    engine = sm.QueryEngine(priv, num_servers=2)
    try:
        after = engine.phrase_prefix_query(q, k=10, max_expansions=None)
        assert before[0][0] not in {d for d, _ in after}
    finally:
        engine.shutdown()


def _brute_span_near(oracle, ta, tb, slop):
    out = []
    for d, toks in zip(oracle.doc_ids, oracle.tokens):
        pa_ = [i for i, w in enumerate(toks) if w == ta]
        pb_ = [i for i, w in enumerate(toks) if w == tb]
        if not pa_ or not pb_:
            continue
        gap = min(abs(x - y) for x in pa_ for y in pb_) - 1
        if gap <= slop:
            out.append((d, gap))
    return sorted(out)


def _brute_span_first(oracle, term, end):
    out = []
    for d, toks in zip(oracle.doc_ids, oracle.tokens):
        pos = [i for i, w in enumerate(toks) if w == term]
        if pos and pos[0] < end:
            out.append((d, pos[0]))
    return sorted(out)


def test_span_near_modes_match_brute_force(built):
    idx, oracle = built
    # pick real co-occurring pairs from the corpus plus a miss
    pairs = []
    for toks in oracle.tokens:
        uniq = sorted(set(toks))
        if len(uniq) >= 2:
            pairs.append((uniq[0], uniq[1]))
        if len(pairs) >= 4:
            break
    specs = [(a, b, s) for a, b in pairs for s in (0, 3, 50)]
    specs.append((pairs[0][0], "zebraqq", 5))
    n_hits = 0
    engine = sm.QueryEngine(idx, num_servers=3)
    try:
        for ta, tb, slop in specs:
            if ta == "zebraqq" or tb == "zebraqq":
                continue
            got = engine.span_near(f"{ta} {tb}", slop)
            want = _brute_span_near(oracle, ta, tb, slop)
            assert got == want, (ta, tb, slop)
            n_hits += len(got)
    finally:
        engine.shutdown()
    assert n_hits > 0


def test_span_first_matches_brute_force(built):
    idx, oracle = built
    terms = sorted({t[0] for t in oracle.tokens if t})[:4]
    engine = sm.QueryEngine(idx, num_servers=2)
    try:
        for term in terms:
            for end in (1, 3, 10**9):
                got = engine.span_first(term, end)
                assert got == _brute_span_first(oracle, term, end), (term, end)
    finally:
        engine.shutdown()


def test_span_near_tombstones(built, tmp_path):
    import shutil

    idx, oracle = built
    a, b = None, None
    for toks in oracle.tokens:
        uniq = sorted(set(toks))
        if len(uniq) >= 2:
            a, b = uniq[0], uniq[1]
            break
    priv = str(tmp_path / "idx")
    shutil.copytree(idx, priv)
    engine = sm.QueryEngine(priv, num_servers=2)
    try:
        before = engine.span_near(f"{a} {b}", 100)
        assert before
    finally:
        engine.shutdown()
    victim = before[0][0]
    sm.delete_docs(priv, [victim])
    engine = sm.QueryEngine(priv, num_servers=2)
    try:
        after = engine.span_near(f"{a} {b}", 100)
        assert victim not in {d for d, _ in after}
        assert sorted(set(before) - {before[0]}) == after
    finally:
        engine.shutdown()
