"""Multi-field analyzed indexes: most_fields scoring, field:term
routing, topology parity, mapping-driven build."""

from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from cb import analyze, multifield, scoring
from cb.query import rank_topk

DOCS = [
    # (doc_id, title, body)
    (11, "fast hash join", "the table scan uses a hash join over rows"),
    (22, "merge sort window", "sort merge frames the window computation"),
    (33, "zebra quantum", "unrelated words entirely about zebras"),
    (44, "table of contents", "join the merge of sorted tables"),
    (55, "hash functions", "quantum hash zebra table"),
]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    d = tmp_path_factory.mktemp("mf")
    rows = [
        {"doc_id": i, "title": t, "body": b} for i, t, b in DOCS
    ]
    src = str(d / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(d / "idx")
    multifield.build_multifield(src, idx, ["title", "body"], id_col="doc_id", num_parts=4)
    return idx


def _reference(query, k=10):
    """Sequential most_fields spec: per-field BM25 (sorted-term sum,
    per-field df/avgdl), doc score = sum over fields in index order."""
    field_terms, excluded = multifield.route_terms(query, ["title", "body"])
    toks = {
        f: {i: analyze.tokenize(v) for i, t, b in DOCS for v in [(t if f == "title" else b)]}
        for f in ("title", "body")
    }
    scores: dict[int, float] = {}
    for f in ("title", "body"):
        tf = {i: Counter(ts) for i, ts in toks[f].items()}
        dl = {i: len(ts) for i, ts in toks[f].items()}
        n = len(DOCS)
        avgdl = sum(dl.values()) / n
        df = Counter()
        for c in tf.values():
            df.update(c.keys())
        for i, _, _ in DOCS:
            s = np.float64(0.0)
            hit = False
            for t in field_terms[f]:
                c = tf[i].get(t)
                if c:
                    hit = True
                    s = s + scoring.idf(df[t], n) * scoring.u_factor(c, dl[i], avgdl)
            if hit:
                scores[i] = float(np.float64(scores.get(i, 0.0)) + s)
    for i, _, _ in DOCS:
        if i in scores and any(
            t in toks[f][i] for f in ("title", "body") for t in excluded
        ):
            del scores[i]
    if not scores:
        return []
    ids = np.array(sorted(scores), dtype=np.int64)
    vals = np.array([scores[i] for i in ids], dtype=np.float64)
    return rank_topk(ids, vals, k)


QUERIES = (
    "hash join",                 # unscoped -> scored in both fields
    "title:hash",                # scoped to title only
    "body:join title:merge",     # two scoped terms
    "table -zebra",              # exclusion across fields
    "zebra",                     # matches title of 33, body of 55
    "title:quantum body:quantum",
    "absentterm",
)


def test_searcher_matches_reference(built):
    s = multifield.MultiFieldSearcher(built)
    for q in QUERIES:
        assert s.search(q, k=10) == _reference(q), q


def test_engine_bitwise_parity_with_searcher(built):
    s = multifield.MultiFieldSearcher(built)
    for n in (1, 2, 3):
        eng = multifield.MultiFieldEngine(built, num_servers=n)
        try:
            for q in QUERIES:
                assert eng.search(q, k=10) == s.search(q, k=10), (n, q)
        finally:
            eng.shutdown()


def test_field_scoping_changes_results(built):
    s = multifield.MultiFieldSearcher(built)
    both = {d for d, _ in s.search("hash", k=10)}
    title_only = {d for d, _ in s.search("title:hash", k=10)}
    assert title_only == {11, 55}   # hash in title
    assert both == {11, 55}         # hash somewhere
    # scoping to body: doc 55 has hash in body too, 11 only in body text
    body_only = {d for d, _ in s.search("body:hash", k=10)}
    assert body_only == {11, 55}
    # but scores differ between scoped and unscoped (sum of two fields)
    assert dict(s.search("hash", k=10)) != dict(s.search("title:hash", k=10))


def test_errors(built):
    s = multifield.MultiFieldSearcher(built)
    # a non-analyzed filter field with no docmeta table built -> error
    with pytest.raises(ValueError, match="filter fields"):
        s.search("lang:en hash")
    with pytest.raises(ValueError, match="negated scoped"):
        s.search('-title:"hash join"')


# -- phrases: unscoped (any field), field-scoped, negated ------------------

def test_phrase_any_field(built):
    s = multifield.MultiFieldSearcher(built)
    # "hash join" adjacent in doc 11's title AND body (stop-filtered
    # stream); nowhere else
    assert {d for d, _ in s.search('"hash join"')} == {11}
    # "zebra quantum" adjacent only in 33's title (55's body has them
    # non-adjacent/reversed)
    assert {d for d, _ in s.search('"zebra quantum"')} == {33}
    # required phrase restricts membership; free terms still score
    assert {d for d, _ in s.search('table "hash join"')} == {11}


def test_phrase_scoped_field(built):
    s = multifield.MultiFieldSearcher(built)
    assert {d for d, _ in s.search('title:"hash join"')} == {11}
    assert {d for d, _ in s.search('body:"hash join"')} == {11}
    # scoped to a field where the phrase never occurs -> empty
    assert s.search('body:"zebra quantum"') == []


def test_phrase_negated(built):
    s = multifield.MultiFieldSearcher(built)
    with_table = {d for d, _ in s.search("table")}
    assert with_table == {11, 44, 55}
    assert {d for d, _ in s.search('table -"hash join"')} == {44, 55}


def test_phrase_engine_parity(built):
    s = multifield.MultiFieldSearcher(built)
    queries = (
        '"hash join"', 'title:"hash join"', 'table -"hash join"',
        '"zebra quantum" table', 'body:"merge frames"',
    )
    for n in (1, 2, 3):
        eng = multifield.MultiFieldEngine(built, num_servers=n)
        try:
            for q in queries:
                assert eng.search(q, k=10) == s.search(q, k=10), (n, q)
        finally:
            eng.shutdown()


def test_docmeta_filters(tmp_path):
    """field:val on a NON-analyzed column -> docmeta filter context
    (membership only), on the searcher and the doc-sharded pool."""
    from cb.docmeta import build_from_mapping

    rows = [
        {"doc_id": i, "title": t, "body": b, "lang": ("en" if i % 2 else "de")}
        for i, t, b in DOCS
    ]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "idx")
    build_from_mapping(
        src, idx,
        {"id": "doc_id", "analyzed": ["title", "body"], "not_analyzed": ["lang"]},
        num_parts=4,
    )
    s = multifield.MultiFieldSearcher(idx)
    unfiltered = {d for d, _ in s.search("table")}
    assert unfiltered == {11, 44, 55}
    en = {d for d, _ in s.search("table lang:en")}
    assert en == {11, 55}  # odd ids are en
    de = {d for d, _ in s.search("table lang:de")}
    assert de == {44}
    # filters change membership, never scores
    all_scores = dict(s.search("table"))
    for d, sc in s.search("table lang:en"):
        assert sc == all_scores[d]
    with pytest.raises(ValueError, match="unknown filter fields"):
        s.search("table nosuch:x")
    eng = multifield.MultiFieldEngine(idx, num_servers=2)
    try:
        for q in ("table lang:en", "table lang:de", 'hash "hash join" lang:en'):
            assert eng.search(q, k=10) == s.search(q, k=10), q
    finally:
        eng.shutdown()


def test_mapping_driven_multifield(tmp_path):
    from cb.docmeta import build_from_mapping

    rows = [{"doc_id": i, "title": t, "body": b} for i, t, b in DOCS]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "idx")
    m = build_from_mapping(
        src, idx, {"id": "doc_id", "analyzed": ["title", "body"]}, num_parts=4
    )
    assert m["fields"] == ["title", "body"]
    s = multifield.MultiFieldSearcher(idx)
    assert {d for d, _ in s.search("title:hash", k=10)} == {11, 55}


def test_aggregations_pool_parity(built, tmp_path):
    """facets/histogram over the FULL multifield match set: in-process
    searcher == doc-sharded pool at every server count, plus a
    hand-computed spot check."""
    import os

    from cb import docmeta as docmeta_mod

    meta_rows = [
        {"doc_id": i, "cat": ("even" if i % 2 == 0 else "odd"), "nlen": i * 10}
        for i, _, _ in DOCS
    ]
    mp = str(tmp_path / "meta.parquet")
    pq.write_table(pa.Table.from_pylist(meta_rows), mp)
    docmeta_mod.ensure_docmeta(
        multifield.field_dir(built, "title"), mp, ["cat", "nlen"]
    )
    s = multifield.MultiFieldSearcher(built)

    # spot check: "table -zebra" matches 11 (body) and 44 (title+body);
    # 55 has table but is excluded by zebra
    facets, stats = s.facet_counts("table -zebra", facet_cols=["cat"], stats_cols=["nlen"])
    assert facets == {"cat": {"even": 1, "odd": 1}}
    assert stats == {"nlen": (2, 550, 110, 440)}
    assert s.histogram("table -zebra", {"nlen": 100}) == {"nlen": {100: 1, 400: 1}}
    # zero-match query -> empty aggs
    assert s.facet_counts("absentterm", facet_cols=["cat"])[0] == {"cat": {}}
    assert s.histogram("absentterm", {"nlen": 100}) == {"nlen": {}}

    for n in (1, 2, 3):
        eng = multifield.MultiFieldEngine(built, num_servers=n)
        try:
            for q in QUERIES:
                assert eng.facets(q, facet_cols=["cat"], stats_cols=["nlen"]) == \
                    s.facet_counts(q, facet_cols=["cat"], stats_cols=["nlen"]), (n, q)
                assert eng.histogram(q, {"nlen": 100}) == s.histogram(q, {"nlen": 100}), (n, q)
        finally:
            eng.shutdown()


def _mlt_reference(doc_fields, k=10, max_terms=15, exclude=None):
    """Spec MLT: per-field top tf*idf selection + field-scoped
    most_fields scoring (same shape as _reference)."""
    toks = {
        f: {i: analyze.tokenize(v) for i, t, b in DOCS for v in [(t if f == "title" else b)]}
        for f in ("title", "body")
    }
    scores: dict[int, float] = {}
    for f in ("title", "body"):
        tf = {i: Counter(ts) for i, ts in toks[f].items()}
        dl = {i: len(ts) for i, ts in toks[f].items()}
        n = len(DOCS)
        avgdl = sum(dl.values()) / n
        df = Counter()
        for c in tf.values():
            df.update(c.keys())
        qtf = Counter(analyze.tokenize(doc_fields.get(f) or ""))
        sel = [
            (t, c * float(scoring.idf(df[t], n))) for t, c in qtf.items() if t in df
        ]
        sel.sort(key=lambda kv: (-kv[1], kv[0]))
        terms = sorted(t for t, _ in sel[:max_terms])
        for i, _, _ in DOCS:
            s = np.float64(0.0)
            hit = False
            for t in terms:
                c = tf[i].get(t)
                if c:
                    hit = True
                    s = s + scoring.idf(df[t], n) * scoring.u_factor(c, dl[i], avgdl)
            if hit:
                scores[i] = float(np.float64(scores.get(i, 0.0)) + s)
    if exclude is not None:
        scores.pop(exclude, None)
    if not scores:
        return []
    ids = np.array(sorted(scores), dtype=np.int64)
    vals = np.array([scores[i] for i in ids], dtype=np.float64)
    return rank_topk(ids, vals, k)


def test_more_like_this_matches_reference_and_pool(built):
    s = multifield.MultiFieldSearcher(built)
    likes = [
        ({"title": "hash join", "body": "table scan hash"}, 11),
        ({"title": "merge sort", "body": "the window frames sort"}, 22),
        ({"body": "quantum zebra table"}, None),
    ]
    for doc_fields, exclude in likes:
        want = _mlt_reference(doc_fields, k=10, exclude=exclude)
        got = s.more_like_this(doc_fields, k=10, exclude=exclude)
        assert got == want, doc_fields
        for n in (1, 2, 3):
            eng = multifield.MultiFieldEngine(built, num_servers=n)
            try:
                assert eng.more_like_this(doc_fields, k=10, exclude=exclude) == want, n
            finally:
                eng.shutdown()


def test_search_after_pages_are_ranking_slices(built):
    s = multifield.MultiFieldSearcher(built)
    full = s.search("hash table merge join sort", k=10)
    assert len(full) >= 4
    for cut in (1, 2, 3):
        after = full[cut - 1]
        assert s.search_after("hash table merge join sort", k=10, after=(after[1], after[0])) == full[cut:]
    eng = multifield.MultiFieldEngine(built, num_servers=2)
    try:
        after = full[1]
        assert eng.search_after(
            "hash table merge join sort", k=10, after=(after[1], after[0])
        ) == full[2:]
    finally:
        eng.shutdown()


def test_significant_terms_pool_parity_and_sanity(built):
    s = multifield.MultiFieldSearcher(built)
    for q, field in (("hash", "body"), ("merge", "title"), ("table", "body")):
        want = s.significant_terms(q, field, top_n=5, min_df=1)
        for n in (1, 2, 3):
            eng = multifield.MultiFieldEngine(built, num_servers=n)
            try:
                assert eng.significant_terms(q, field, top_n=5, min_df=1) == want, (n, q)
            finally:
                eng.shutdown()
    # sanity: the match set of "zebra" (docs 33, 55) overrepresents
    # "quantum" (in both matched docs' fields) vs the corpus
    top = s.significant_terms("zebra", "title", top_n=5, min_df=1)
    assert any(t == "quantum" for t, _, _, _ in top)


def test_multifield_range_composite_top_hits(built, tmp_path):
    """Round-5 aggregations over the FULL multifield match set:
    in-process searcher == doc-sharded pool at every server count;
    top_hits per-group lists equal the flat most_fields ranking
    regrouped; composite pages partition the key-ordered buckets."""
    from cb import docmeta as docmeta_mod

    meta_rows = [
        {"doc_id": i, "cat": ("even" if i % 2 == 0 else "odd"), "nlen": i * 10}
        for i, _, _ in DOCS
    ]
    mp = str(tmp_path / "meta.parquet")
    pq.write_table(pa.Table.from_pylist(meta_rows), mp)
    docmeta_mod.ensure_docmeta(
        multifield.field_dir(built, "title"), mp, ["cat", "nlen"]
    )
    s = multifield.MultiFieldSearcher(built)
    ranges = {"nlen": [(None, 200), (200, 450), (450, None)]}

    # spot check: "table -zebra" matches 11 (nlen 110) and 44 (nlen 440)
    assert s.range_counts("table -zebra", ranges) == {"nlen": [1, 1, 0]}
    assert s.range_counts("absentterm", ranges) == {"nlen": [0, 0, 0]}
    assert s.composite_counts("table -zebra", ["cat"]) == {("odd",): 1, ("even",): 1}
    assert s.composite_counts("absentterm", ["cat"]) == {}

    # top_hits == flat ranking regrouped by cat
    cat = {i: ("even" if i % 2 == 0 else "odd") for i, _, _ in DOCS}
    for q in QUERIES:
        flat = s.search(q, k=100)
        want: dict = {}
        for d, sc in flat:
            want.setdefault(cat[d], [])
            if len(want[cat[d]]) < 2:
                want[cat[d]].append((d, sc))
        assert s.top_hits(q, "cat", 2) == want, q

    for n in (1, 3):
        eng = multifield.MultiFieldEngine(built, num_servers=n)
        try:
            for q in QUERIES:
                assert eng.range_agg(q, ranges) == s.range_counts(q, ranges), (n, q)
                assert eng.top_hits(q, "cat", 2) == s.top_hits(q, "cat", 2), (n, q)
                merged = s.composite_counts(q, ["cat", "nlen"])
                keys = sorted(merged)
                p1, a1 = eng.composite(q, ["cat", "nlen"], size=2)
                assert p1 == [(k, merged[k]) for k in keys[:2]], (n, q)
                if a1 is not None:
                    p2, _ = eng.composite(q, ["cat", "nlen"], size=2, after=a1)
                    assert p2 == [(k, merged[k]) for k in keys[2:4]], (n, q)
        finally:
            eng.shutdown()


def test_apply_synonyms_routed_rules():
    routed = multifield.route_query("merge fast^2 title:window", ["title", "body"])
    out = multifield.apply_synonyms_routed(
        routed, {"merge": ["combine"], "fast": ["combine"], "window": ["frame"]}
    )
    # scoped source -> scoped synonym: frame joins title only
    assert "frame" in out["field_terms"]["title"]
    assert "frame" not in out["field_terms"]["body"]
    # unscoped sources expand in both fields; derived weight = global
    # max over sources (merge 1.0, fast 2.0 -> combine 2.0)
    for f in ("title", "body"):
        assert "combine" in out["field_terms"][f]
    assert out["weights"]["combine"] == 2.0
    assert out["weights"]["frame"] == 1.0
    # explicit wins: a synonym that is already a query term anywhere is
    # neither re-weighted nor re-scoped
    routed2 = multifield.route_query("merge^3 title:sort", ["title", "body"])
    out2 = multifield.apply_synonyms_routed(routed2, {"merge": ["sort"]})
    assert out2["weights"].get("sort", 1.0) == 1.0
    assert "sort" not in out2["field_terms"]["body"]
    # original routed dict untouched
    assert "combine" not in routed["field_terms"]["body"]


def test_multifield_synonym_search_parity(built):
    s = multifield.MultiFieldSearcher(built)
    syn = {"sort": ["hash"]}
    base = {d for d, _ in s.search("sort", k=10)}
    expanded = {d for d, _ in s.search("sort", k=10, synonyms=syn)}
    assert base < expanded  # hash docs pulled in
    # absent synonym changes nothing, scores bitwise
    assert s.search("sort", k=10, synonyms={"sort": ["warpdrive"]}) == \
        s.search("sort", k=10)
    # pool == in-process searcher under the same map
    for n in (1, 3):
        eng = multifield.MultiFieldEngine(built, num_servers=n)
        try:
            for q in ("sort merge", "title:sort zebra", "table^2 scan"):
                assert eng.search(q, k=10, synonyms=syn) == \
                    s.search(q, k=10, synonyms=syn), (n, q)
        finally:
            eng.shutdown()


def test_synonyms_after_wildcard_expansion_weights(built):
    """Synonyms derived from boosted terms keep the boost even when the
    query also carries wildcard atoms (expand_routed sets field_weights,
    which scoring prefers — derived synonyms must land there too)."""
    s = multifield.MultiFieldSearcher(built)
    # fast^2 -> table derived at weight 2 in both fields == typing
    # table^2 explicitly; has* keeps the expansion machinery engaged
    got = s.search("fast^2 has*", k=10, synonyms={"fast": ["table"]})
    want = s.search("fast^2 table^2 has*", k=10)
    assert got == want
    # and a boosted wildcard source: synonyms derive from the ATOM
    # weight sum, not the 1.0 default — and stay scoped to the fields
    # where the wildcard actually expanded ('fast' lives only in the
    # title vocabulary here)
    routed = multifield.route_query("fas*^3", ["title", "body"])
    routed = multifield.expand_routed(routed, {"title": ["fast"], "body": ["table"]})
    out = multifield.apply_synonyms_routed(routed, {"fast": ["table"]})
    assert out["field_weights"]["title"]["table"] == 3.0
    assert "table" not in out["field_terms"]["body"]
    assert out["weights"]["table"] == 3.0


def test_repeat_queries_decode_nothing(built, monkeypatch):
    """A multifield scope decodes each (field, term) once: its decoded
    cache serves every later scored, required, msm or excluded use, and
    the top-k is bitwise an uncached scope's."""
    from cb.shard import ChunkedPostings

    decodes = []
    decode_all = ChunkedPostings.decode_all
    monkeypatch.setattr(
        ChunkedPostings, "decode_all", lambda self: decodes.append(self.term) or decode_all(self)
    )
    queries = QUERIES + ("+hash join table", "hash join table msm:2")

    def bits(res):
        return [(d, s.hex()) for d, s in res]

    s = multifield.MultiFieldSearcher(built)
    first = {q: bits(s.search(q, k=10)) for q in queries}
    assert len(decodes) == sum(len(c) for c in s.decoded.values()) > 0
    n = len(decodes)
    for _ in range(3):
        for q in queries:
            assert bits(s.search(q, k=10)) == first[q], q
    assert len(decodes) == n  # repeats decode nothing
    for q in queries:  # no cache: the same bits
        r = s._routed(q)
        assert bits(
            multifield._score_fields(r, s._get, s.stats, s.fields, 10, s.tombstones)
        ) == first[q], q
    assert len(decodes) > n


def test_warm_leaves_first_query_nothing_to_decode(tmp_path, monkeypatch):
    """``MultiFieldSearcher.warm`` fills every field's decoded cache with
    the single-field columnar pass, so the first query of a warmed term
    decodes no postings; results are bitwise an unwarmed scope's, and
    the pool engine's warm fans out to every server."""
    from cb import compress
    from cb.shard import ChunkedPostings

    rows = [
        {"doc_id": i, "title": f"join w{i % 3} t{i}", "body": f"w1 w2 join body{i % 5}"}
        for i in range(1, 41)
    ]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "idx")
    multifield.build_multifield(src, idx, ["title", "body"], id_col="doc_id", num_parts=4)

    decodes = []
    for cls in (ChunkedPostings, compress.PostingList):
        orig = cls.decode_all
        monkeypatch.setattr(
            cls, "decode_all", lambda self, _o=orig: decodes.append(1) or _o(self)
        )
    cold = multifield.MultiFieldSearcher(idx)
    want = cold.search("join w1 w2", k=10)
    assert want and decodes  # an unwarmed scope decodes on first use

    s = multifield.MultiFieldSearcher(idx)
    n_terms = sum(len(s.term_dfs(f, analyze.tokenize(" ".join(r[f] for r in rows))))
                  for f in s.fields)
    del decodes[:]
    assert s.warm() == n_terms
    assert s.warm() == 0  # already decoded: nothing left to warm
    assert s.search("join w1 w2", k=10) == want
    assert decodes == []
    assert s.metrics()["counters"]["server.terms_warmed"] == n_terms

    eng = multifield.MultiFieldEngine(idx, num_servers=2)
    try:
        assert eng.warm(min_df=0) > 0
        assert eng.search("join w1 w2", k=10) == want
    finally:
        eng.shutdown()
