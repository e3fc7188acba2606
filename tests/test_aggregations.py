"""Range, composite, and top_hits aggregations: brute-force parity,
pool-size invariance, paging, and tombstone masking.  (The DuckDB
value-parity for the packaged entries lives in test_oracle_parity.)"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from cb import docmeta as dm
from cb import rpc
from cb.build import build_index
from cb.shard import QueryEngine, delete_docs

DOCS = [
    # (doc_id, text, lang, source, n_chars)
    (1, "hash join over the big table", "en", "s0", 150),
    (2, "hash join deprecated path", "en", "s1", 250),
    (3, "merge sort window frame", "fr", "s0", 350),
    (4, "join hash reversed words", "en", "s0", 450),
    (5, "the quick hash join trick", "fr", "s1", 550),
    (6, "unrelated quantum zebra", "en", "s0", 650),
    (7, "join column index scan", "de", "s1", 125),
    (8, "sort merge join pipeline", "de", "s0", 825),
]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    d = tmp_path_factory.mktemp("aggs")
    rows = [
        {"doc_id": i, "text": t, "lang": lang, "source": src, "n_chars": n}
        for i, t, lang, src, n in DOCS
    ]
    src_file = str(d / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src_file)
    idx = str(d / "idx")
    build_index(src_file, idx, text_col="text", id_col="doc_id", num_parts=4)
    dm.ensure_docmeta(idx, src_file, ["lang", "source", "n_chars"])
    return idx


RANGES = [(None, 200), (200, 500), (500, None)]


def _brute_ranges(match_ids):
    byid = {i: n for i, _, _, _, n in DOCS}
    out = []
    for lo, hi in RANGES:
        out.append(
            sum(
                1
                for i in match_ids
                if (lo is None or byid[i] >= lo) and (hi is None or byid[i] < hi)
            )
        )
    return out


def test_range_agg_counts_and_pool_invariance(built):
    # 'join' matches docs 1,2,4,5,7,8
    want = _brute_ranges([1, 2, 4, 5, 7, 8])
    for ns in (1, 4):
        eng = QueryEngine(built, num_servers=ns)
        try:
            got = eng.range_agg("join", {"n_chars": RANGES})
        finally:
            eng.shutdown()
        assert got["n_chars"] == want, (ns, got)


def test_range_agg_zero_match_emits_zeroes(built):
    eng = QueryEngine(built, num_servers=2)
    try:
        got = eng.range_agg("nosuchterm", {"n_chars": RANGES})
    finally:
        eng.shutdown()
    assert got["n_chars"] == [0, 0, 0]


def test_composite_paging_partitions_key_order(built):
    # 'join' buckets by (lang, source):
    # de: s0{8}, s1{7}; en: s0{1,4}, s1{2}; fr: s1{5}
    want = [
        (("de", "s0"), 1),
        (("de", "s1"), 1),
        (("en", "s0"), 2),
        (("en", "s1"), 1),
        (("fr", "s1"), 1),
    ]
    eng = QueryEngine(built, num_servers=2)
    try:
        p1, after = eng.composite("join", ["lang", "source"], size=2)
        assert p1 == want[:2]
        assert after == ("de", "s1")
        p2, after2 = eng.composite("join", ["lang", "source"], size=2, after=after)
        assert p2 == want[2:4]
        p3, after3 = eng.composite("join", ["lang", "source"], size=2, after=after2)
        assert p3 == want[4:]
        assert after3 is None  # exhausted
        # one big page == concatenation of the small pages
        full, _ = eng.composite("join", ["lang", "source"], size=100)
        assert full == want
    finally:
        eng.shutdown()


def _brute_top_hits(eng, query, k_per):
    """Recompute per-lang top hits from the flat ranked list."""
    flat = eng.query(query, k=100)
    lang = {i: l for i, _, l, _, _ in DOCS}
    out = {}
    for d, s in sorted(flat, key=lambda r: (-r[1], r[0])):
        out.setdefault(lang[d], [])
        if len(out[lang[d]]) < k_per:
            out[lang[d]].append((d, s))
    return out


def test_top_hits_matches_flat_ranking(built):
    for ns in (1, 3):
        eng = QueryEngine(built, num_servers=ns)
        try:
            got = eng.top_hits("hash join", "lang", 2)
            want = _brute_top_hits(eng, "hash join", 2)
        finally:
            eng.shutdown()
        assert set(got) == set(want)
        for lang in want:
            assert [d for d, _ in got[lang]] == [d for d, _ in want[lang]]
            np.testing.assert_allclose(
                [s for _, s in got[lang]], [s for _, s in want[lang]], rtol=0, atol=0
            )


def test_top_hits_respects_tombstones(built, tmp_path):
    import shutil

    idx = str(tmp_path / "idx2")
    shutil.copytree(built, idx)
    delete_docs(idx, [1, 5])
    eng = QueryEngine(idx, num_servers=2)
    try:
        got = eng.top_hits("hash join", "lang", 3)
    finally:
        eng.shutdown()
    hit_ids = {d for hits in got.values() for d, _ in hits}
    assert 1 not in hit_ids and 5 not in hit_ids
    assert 2 in hit_ids and 4 in hit_ids


def test_composite_and_pct_ranks_with_null_docmeta(tmp_path):
    """Null key/metric values: composite drops null-key buckets (the
    driver's key sort needs a total order) and percentile_ranks divides
    by the NON-NULL count, matching the SQL mirror's count(col)."""
    rows = [
        {"doc_id": i, "text": t, "lang": lang, "n_chars": n}
        for i, t, lang, n in [
            (1, "alpha beta", "en", 100),
            (2, "alpha gamma", None, 300),
            (3, "alpha delta", "fr", None),
            (4, "alpha zeta", "en", 500),
        ]
    ]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=2)
    dm.ensure_docmeta(idx, src, ["lang", "n_chars"])
    eng = QueryEngine(idx, num_servers=2)
    try:
        buckets, after = eng.composite("alpha", ["lang"], size=10)
        assert buckets == [(("en",), 2), (("fr",), 1)]  # null lang dropped
        assert after is None
        pr = eng.percentile_ranks("alpha", "n_chars", [100, 400])
        # non-null n_chars among matches: {100, 300, 500} -> n=3
        assert pr == {100: 1 / 3, 400: 2 / 3}
    finally:
        eng.shutdown()


def test_sampler_deterministic_and_pool_invariant(built):
    outs = []
    for ns in (1, 4):
        eng = QueryEngine(built, num_servers=ns)
        try:
            outs.append(eng.sample("join", 3))
            # rerun in the same pool: identical (no RNG state)
            assert eng.sample("join", 3) == outs[-1]
            assert eng.sample("nosuchterm", 3) == []
            # k larger than the match set: the whole set, hash-ordered
            full = eng.sample("join", 100)
            assert sorted(full) == [1, 2, 4, 5, 7, 8]
        finally:
            eng.shutdown()
    assert outs[0] == outs[1]  # pool-size invariant


def test_filters_agg_counts_and_pool_invariance(built):
    # main 'join' matches {1,2,4,5,7,8}
    filters = {"has_merge": "merge", "hj": '"hash join"', "en_only": "table lang:en"}
    # merge: {3,8} ∩ main = {8}; "hash join" phrase: {1,2,5} ∩ main = all 3
    # table+lang:en: {1,6}∩en={1,6} -> ∩ main = {1}
    want = {"has_merge": 1, "hj": 3, "en_only": 1}
    for ns in (1, 4):
        eng = QueryEngine(built, num_servers=ns)
        try:
            assert eng.filters_agg("join", filters) == want, ns
            assert eng.filters_agg("nosuchterm", filters) == \
                {k: 0 for k in filters}
        finally:
            eng.shutdown()


def test_explain_sums_to_score(built):
    for ns in (1, 3):
        eng = QueryEngine(built, num_servers=ns)
        try:
            for q in ("hash join", "merge sort", "join column"):
                top = eng.query(q, k=3)
                for doc_id, score in top:
                    rows = eng.explain(q, doc_id)
                    assert rows, (q, doc_id)
                    # accumulate in sorted-term order == TAAT spec order
                    acc = np.float64(0.0)
                    for _, _, _, contrib in sorted(rows, key=lambda r: r[0]):
                        acc += contrib
                    assert acc == score, (q, doc_id)
            assert eng.explain("nosuchterm", 1) == []
            assert eng.explain("hash join", 999999) == []
        finally:
            eng.shutdown()


def test_adjacency_matrix_counts(built):
    filters = {"m": "merge", "hj": '"hash join"'}
    # main 'join' = {1,2,4,5,7,8}; merge∩main={8}; phrase∩main={1,2,5}
    want = {("hj", "hj"): 3, ("hj", "m"): 0, ("m", "m"): 1}
    for ns in (1, 4):
        eng = QueryEngine(built, num_servers=ns)
        try:
            assert eng.adjacency_matrix("join", filters) == want, ns
            # diagonal == filters_agg buckets
            fa = eng.filters_agg("join", filters)
            am = eng.adjacency_matrix("join", filters)
            assert all(am[(n, n)] == fa[n] for n in filters)
        finally:
            eng.shutdown()


def test_match_request_cache(built):
    """ES request-cache analog: repeated full-match aggregations over
    the same query reuse the server-side match set (counter grows,
    outputs identical), and different queries / clause shapes don't
    collide."""
    eng = QueryEngine(built, num_servers=2)
    try:
        f1 = eng.facets("join lang:en", facet_cols=["source"])
        r1 = eng.range_agg("join lang:en", {"n_chars": RANGES})
        f2 = eng.facets("join lang:en", facet_cols=["source"])
        r2 = eng.range_agg("join lang:en", {"n_chars": RANGES})
        assert f1 == f2 and r1 == r2
        hits = eng.metrics()["servers"]["counters"].get("server.match_cache_hit", 0)
        assert hits >= 2  # facets rep + range reused the facets match
        # a different query must NOT hit the cached set
        other = eng.facets("merge", facet_cols=["source"])
        assert other != f1
    finally:
        eng.shutdown()


def _brute_function_score(query_terms, spec, k, engine):
    """Brute-force mirror: full-match scores from explain sums are
    overkill; instead pull a huge top-k and recombine via docmeta."""
    base = engine.query_terms(sorted(set(query_terms)), k=100)
    byid = {i: n for i, _, _, _, n in DOCS}
    out = []
    for doc, s in base:
        x = byid[doc]
        if spec["kind"] == "saturation":
            c = s + spec["w"] * (float(x) / float(x + spec["pivot"]))
        else:
            c = s * (max(spec["scale"] - abs(x - spec["origin"]), 0) / float(spec["scale"]))
        out.append((doc, c))
    out.sort(key=lambda t: (-t[1], t[0]))
    return out[:k]


def test_function_score_parity_and_pool_invariance(built):
    sat = {"kind": "saturation", "col": "n_chars", "w": 2.0, "pivot": 200}
    dec = {"kind": "linear_decay", "col": "n_chars", "origin": 300, "scale": 250}
    outs = {}
    for ns in (1, 4):
        eng = QueryEngine(built, num_servers=ns)
        try:
            for name, spec in (("sat", sat), ("dec", dec)):
                got = eng.function_score("hash join", spec, k=5)
                want = _brute_function_score(["hash", "join"], spec, 5, eng)
                assert [d for d, _ in got] == [d for d, _ in want], (name, ns)
                assert np.allclose([s for _, s in got], [s for _, s in want])
                outs.setdefault(name, []).append(got)
            assert eng.function_score("nosuchterm", sat, k=5) == []
        finally:
            eng.shutdown()
    for name in outs:
        assert outs[name][0] == outs[name][1], name  # pool-size invariant


def test_function_score_reorders_vs_bm25(built, tmp_path):
    """The feature must be able to change the retrieval ranking (that
    is the point of function_score vs rescore)."""
    import shutil

    sat = {"kind": "saturation", "col": "n_chars", "w": 50.0, "pivot": 100}
    priv = str(tmp_path / "idx")  # private copy: the test tombstones it
    shutil.copytree(built, priv)
    built = priv
    eng = QueryEngine(built, num_servers=2)
    try:
        base = [d for d, _ in eng.query("join", k=6)]
        fs = [d for d, _ in eng.function_score("join", sat, k=6)]
        assert sorted(base) == sorted(fs)  # same match set
        assert base != fs  # big weight on n_chars flips the order
        # tombstoned docs must not resurface through function_score
        delete_docs(built, [fs[0]])
        eng2 = QueryEngine(built, num_servers=2)
        try:
            fs2 = [d for d, _ in eng2.function_score("join", sat, k=6)]
            assert fs[0] not in fs2
        finally:
            eng2.shutdown()
    finally:
        eng.shutdown()


def test_count_api_all_query_shapes(built):
    """ES _count: match-set sizes across the query-string surface, ids
    never shipped."""
    engine = QueryEngine(built, num_servers=2)
    try:
        assert engine.count("hash join") == 6       # OR match
        assert engine.count('"hash join"') == 3     # phrase
        assert engine.count("join -deprecated") == 5
        assert engine.count("join lang:en") == 3    # filter
        assert engine.count("zzznope") == 0
    finally:
        engine.shutdown()


def test_count_respects_tombstones(tmp_path):
    rows = [{"doc_id": i, "text": "hash join"} for i in range(1, 6)]
    src = str(tmp_path / "d.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=2)
    delete_docs(idx, [2, 4])
    engine = QueryEngine(idx, num_servers=2)
    try:
        assert engine.count("hash") == 3
    finally:
        engine.shutdown()


def test_regexp_query_whole_terms_re2(built):
    """ES regexp semantics: anchored on whole vocabulary terms (never
    substrings), expansion == scoring_boolean BM25 over matched terms."""
    engine = QueryEngine(built, num_servers=2)
    try:
        # 'jo.n' matches whole term 'join' but NOT 'joined' substrings
        want = engine.query_terms(["join"], k=10)
        assert engine.regexp_query("jo.n", k=10) == want
        # alternation expands to a multi-term set
        want2 = engine.query_terms(["merge", "sort"], k=10)
        assert engine.regexp_query("(merge|sort)", k=10) == want2
        # unanchored fragment must NOT match ('as' inside 'hash')
        assert engine.regexp_query("as", k=10) == []
    finally:
        engine.shutdown()


def test_significant_bg_modes(built):
    """significant_terms_filtered: a 2-server pool equals the 1-server
    pool (whole index, trivial merge), so fg/bg counts merge exactly
    across slices; plus the fg-subset-of-bg invariant."""
    from cb.shard import QueryEngine

    res = {}
    for ns in (1, 2):
        eng = QueryEngine(built, num_servers=ns)
        try:
            res[ns] = eng.significant_terms_filtered(
                "join", "lang:en", top_n=5, min_df=1
            )
        finally:
            eng.shutdown()
    assert res[2] == res[1]
    assert res[2], "expected suggestions"
    for t, fg, bg, s in res[2]:
        assert 1 <= fg <= bg


def test_alias_api(built):
    """put/get/delete alias; filtered alias == filtered_query; bare
    alias == plain query; unknown alias raises."""
    import pytest as _pytest

    from cb.shard import QueryEngine, delete_alias, get_aliases, put_alias

    put_alias(built, "en-only", {"lang": "en"})
    put_alias(built, "everything")
    assert set(get_aliases(built)) == {"en-only", "everything"}
    eng = QueryEngine(built, num_servers=2)
    try:
        assert eng.search_alias("en-only", "hash join", k=5) == \
            eng.filtered_query("hash join", {"lang": "en"}, k=5)
        assert eng.search_alias("everything", "hash join", k=5) == \
            eng.query("hash join", k=5)
        with _pytest.raises(KeyError):
            eng.search_alias("nope", "hash", k=5)
        assert delete_alias(built, "everything")
        assert not delete_alias(built, "everything")
        eng.refresh_aliases()
        with _pytest.raises(KeyError):
            eng.search_alias("everything", "hash", k=5)
    finally:
        eng.shutdown()


def test_terms_orderby_metric_modes_and_exactness(built):
    """Metric-ordered terms agg: the brute-force exact ordering (sums
    reduce BEFORE the cut)."""
    from cb import analyze
    from cb.shard import QueryEngine

    toks = {i: set(analyze.tokenize(t)) for i, t, *_ in DOCS}
    meta = {i: (lang, src, n) for i, _, lang, src, n in DOCS}
    matched = [i for i in toks if "join" in toks[i]]
    agg = {}
    for i in matched:
        lang, src, n = meta[i]
        c, sm = agg.get(src, (0, 0))
        agg[src] = (c + 1, sm + n)
    want = sorted(
        ((v, c, sm / c) for v, (c, sm) in agg.items()),
        key=lambda r: (-r[2], r[0]),
    )[:5]
    eng = QueryEngine(built, num_servers=2)
    try:
        got = eng.terms_orderby_metric("join", "source", "n_chars", 5)
    finally:
        eng.shutdown()
    assert got == want


def test_histogram_zerofill_axis(built):
    """Zero-filled histogram: extended bounds emit zero buckets, data
    buckets outside bounds still appear, counts match the plain
    histogram."""
    from cb.shard import QueryEngine

    eng = QueryEngine(built, num_servers=2)
    try:
        plain = eng.histogram("join", {"n_chars": 100}).get("n_chars", {})
        got = eng.histogram_zerofill("join", "n_chars", 100, (0, 1000))
    finally:
        eng.shutdown()
    gm = dict(got)
    assert set(gm) == set(range(0, 1100, 100)) | set(plain)
    for b, c in plain.items():
        assert gm[b] == c
    assert sum(1 for _, c in got if c == 0) >= 1


# every registry entry's spec over the DOCS columns
PROTOCOL_SPECS = {
    "facets": (["lang", "source"], ["n_chars"]),
    "extended_stats": ["n_chars"],
    "histogram": {"n_chars": 200},
    "range": {"n_chars": RANGES},
    "composite": ["lang", "source"],
    "top_hits": ("lang", 2),
    "top_metrics": ("lang", "n_chars", ["source"], 1),
    "terms_stats": ("source", "n_chars", 5),
    "function_score": ({"kind": "saturation", "col": "n_chars", "w": 2.0, "pivot": 200}, 5),
}


@pytest.fixture(scope="module")
def pools(tmp_path_factory):
    """Single-field and multifield 1- and 2-server pools over DOCS, plus
    the in-process multifield searcher (title = the first two words).
    Doc ids are spread one per doc-range bucket (bucket = id >> 59), so
    both servers of a 2-server pool hold docs."""
    from cb import multifield

    d = tmp_path_factory.mktemp("protocol")
    rows = [
        {"doc_id": i << 59, "text": t, "title": " ".join(t.split()[:2]),
         "body": " ".join(t.split()[2:]), "lang": lang, "source": src, "n_chars": n}
        for i, t, lang, src, n in DOCS
    ]
    src_file = str(d / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src_file)
    sf, mf = str(d / "sf"), str(d / "mf")
    build_index(src_file, sf, text_col="text", id_col="doc_id", num_parts=4)
    multifield.build_multifield(src_file, mf, ["title", "body"], id_col="doc_id", num_parts=4)
    cols = ["lang", "source", "n_chars"]
    dm.ensure_docmeta(sf, src_file, cols)
    dm.ensure_docmeta(multifield.field_dir(mf, "title"), src_file, cols)
    engines = {
        "sf": [QueryEngine(sf, num_servers=n) for n in (2, 1)],
        "mf": [multifield.MultiFieldEngine(mf, num_servers=n) for n in (2, 1)],
    }
    yield engines, multifield.MultiFieldSearcher(mf)
    for e in engines["sf"] + engines["mf"]:
        e.shutdown()


@pytest.mark.parametrize("name", sorted(PROTOCOL_SPECS))
def test_protocol_entry_pool_and_reference_parity(pools, name):
    """Every registry entry, for a matching and a no-match query: the
    2-server pool, the 1-server pool and the in-process reference agree
    bitwise, on the single-field and the multifield engine; the
    no-match result is the entry's ``empty``."""
    from cb.aggs import AGGS
    from cb.shard import _terms_clause

    assert set(PROTOCOL_SPECS) == set(AGGS)
    engines, searcher = pools
    entry, spec = AGGS[name], PROTOCOL_SPECS[name]
    for q in ("hash join", "absentterm"):
        # single-field top_hits scores the bare analyzed terms
        sq = _terms_clause(q) if name == "top_hits" else q
        parts = rpc.get(engines["sf"][0]._agg_refs(sq, name, spec))
        if q != "absentterm":  # both slices take part in the merge
            assert all(p != entry.empty(spec) for p in parts), name
        two, one = (e._agg(sq, name, spec) for e in engines["sf"])
        assert two == one, (name, q)
        mtwo, mone = (e._agg(q, name, spec) for e in engines["mf"])
        ref = entry.merge([searcher.agg(q, name, spec)], spec)
        assert mtwo == mone == ref, (name, q)
        if q == "absentterm":
            assert two == mtwo == entry.empty(spec), name
        else:
            assert two != entry.empty(spec) and mtwo != entry.empty(spec), name
