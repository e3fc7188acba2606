"""Lucene-lite query strings: parse + ES-aligned semantics + pool parity."""

import re

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from cb import docmeta as dm, querylang
from cb.build import build_index
from cb.shard import LocalSearcher, QueryEngine

DOCS = [
    (1, "hash join over the big table", "en", "s0"),
    (2, "hash join deprecated path", "en", "s1"),
    (3, "merge sort window frame", "fr", "s0"),
    (4, "join hash reversed words", "en", "s0"),   # terms, but not the phrase
    (5, "the quick hash join trick", "fr", "s1"),
    (6, "unrelated quantum zebra", "en", "s0"),
]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    d = tmp_path_factory.mktemp("ql")
    rows = [
        {"doc_id": i, "text": t, "lang": lang, "source": src}
        for i, t, lang, src in DOCS
    ]
    src_file = str(d / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src_file)
    idx = str(d / "idx")
    build_index(src_file, idx, text_col="text", id_col="doc_id", num_parts=4)
    dm.ensure_docmeta(idx, src_file, ["lang", "source"])
    return idx


def test_parse():
    p = querylang.parse('error timeout "hash join" lang:en -deprecated')
    assert p["terms"] == ["error", "timeout"]
    assert p["phrases"] == [["hash", "join"]]
    assert p["filters"] == {"lang": "en"}
    assert p["excluded"] == ["deprecated"]


def test_terms_or_semantics(built):
    s = LocalSearcher(built)
    got = {d for d, _ in s.search("hash join", k=10)}
    assert got == {1, 2, 4, 5}  # any-term match, scored


def test_phrase_required(built):
    s = LocalSearcher(built)
    got = {d for d, _ in s.search('"hash join"', k=10)}
    assert got == {1, 2, 5}  # doc 4 has both terms but not adjacent in order


def test_exclusion(built):
    s = LocalSearcher(built)
    got = {d for d, _ in s.search('"hash join" -deprecated', k=10)}
    assert got == {1, 5}


def test_parse_negated_phrase():
    p = querylang.parse('window -"hash join" -deprecated')
    assert p["terms"] == ["window"]
    assert p["excluded_phrases"] == [["hash", "join"]]
    assert p["excluded"] == ["deprecated"]
    assert p["phrases"] == []


def test_negated_phrase(built):
    s = LocalSearcher(built)
    # docs with "hash" but NOT the exact phrase "hash join": doc 4 only
    got = {d for d, _ in s.search('hash -"hash join"', k=10)}
    assert got == {4}
    # negated phrase whose terms never co-occur: drops nothing
    got = {d for d, _ in s.search('hash -"zebra join"', k=10)}
    assert got == {1, 2, 4, 5}
    # negated phrase with a term absent from the corpus: drops nothing
    got = {d for d, _ in s.search('hash -"warp join"', k=10)}
    assert got == {1, 2, 4, 5}


def test_field_filter(built):
    s = LocalSearcher(built)
    got = {d for d, _ in s.search('"hash join" lang:en', k=10)}
    assert got == {1, 2}
    got2 = {d for d, _ in s.search("hash join lang:en source:s0", k=10)}
    assert got2 == {1, 4}


def test_filter_without_docmeta_raises(tmp_path):
    rows = [{"doc_id": 1, "text": "alpha beta"}]
    src = str(tmp_path / "d.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=2)
    with pytest.raises(ValueError, match="docmeta"):
        LocalSearcher(idx).search("alpha lang:en", k=5)


def test_missing_docmeta_is_one_error_in_process_and_pool(tmp_path):
    """An index without docmeta rejects a filtered search and a facet
    request with the same ValueError in process and through the pool
    (not a server-side FileNotFoundError)."""
    rows = [{"doc_id": i, "text": f"alpha w{i % 7} beta"} for i in range(40)]
    src = str(tmp_path / "d.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=2)
    local = LocalSearcher(idx)
    eng = QueryEngine(idx, num_servers=2)
    try:
        for scope in (local, eng):
            with pytest.raises(ValueError, match="no docmeta table is loaded"):
                scope.search("alpha lang:py", k=5)
            with pytest.raises(ValueError, match="no docmeta table is loaded"):
                scope.facets("alpha", facet_cols=["lang"])
            # plain term queries never need it
            assert scope.search("alpha", k=5) == local.query("alpha", k=5)
    finally:
        eng.shutdown()


def test_scores_match_plain_bm25(built):
    """Query-string scores for pure-term queries equal plain BM25."""
    s = LocalSearcher(built)
    assert s.search("hash join", k=10) == s.query("hash join", k=10, algo="taat")


QUERIES = [
    "hash join",
    '"hash join"',
    '"hash join" -deprecated',
    '"hash join" lang:en',
    "hash join lang:en source:s0",
    "merge window",
    '-zebra hash',
    'quantum "merge sort"',
]


def test_engine_parity_both_modes(built):
    s = LocalSearcher(built)
    for ns in (1, 2, 3):
        engine = QueryEngine(built, num_servers=ns)
        try:
            for q in QUERIES:
                assert engine.search(q, k=10) == s.search(q, k=10), (ns, q)
        finally:
            engine.shutdown()


# ---------------------------------------------------------------- v2 syntax


def test_parse_v2_atoms():
    p = querylang.parse('+merge sort^2 mer* h?sh~ windw~1 "a b"^3 n_chars:[10 TO 20]')
    assert p["required"] == ["merge"]
    assert p["weights"]["merge"] == 1.0
    assert p["weights"]["sort"] == 2.0
    # "a b" tokenizes to [b] only (a is a stopword): phrase boost 3
    assert p["weights"]["b"] == 3.0
    kinds = [(a["kind"], a.get("pattern") or a.get("term")) for a in p["expands"]]
    assert ("wildcard", "mer*") in kinds
    # h?sh~  -> fuzzy parse wins only when the ~ suffix matches; the ?
    # makes the base un-tokenizable to one token, so it falls through
    # to wildcard after the ~ strip
    assert ("wildcard", "h?sh") in kinds
    assert {"kind": "fuzzy", "term": "windw", "dist": 1, "boost": 1.0} in p["expands"]
    r = p["filters"]["n_chars"]
    assert isinstance(r, querylang.Range)
    assert (r.lo, r.hi, r.lo_incl, r.hi_incl) == ("10", "20", True, True)


def test_parse_range_variants():
    for q, lo, hi, li, hi_i in [
        ("x:{1 TO 5}", "1", "5", False, False),
        ("x:[1 TO 5}", "1", "5", True, False),
        ("x:>=3", "3", None, True, True),
        ("x:>3", "3", None, False, True),
        ("x:<=3", None, "3", True, True),
        ("x:<3", None, "3", True, False),
        ("x:[* TO 9]", None, "9", True, True),
    ]:
        r = querylang.parse(q)["filters"]["x"]
        assert isinstance(r, querylang.Range), q
        assert (r.lo, r.hi) == (lo, hi), q
        assert (r.lo_incl, r.hi_incl) == (li, hi_i), q
    with pytest.raises(ValueError):
        querylang.parse("x:[oops]")


@pytest.mark.parametrize("q, construct", [
    ("(hash OR join) AND merge", "parentheses"),
    ("hash AND join", "'AND'"),
    ("hash OR join", "'OR'"),
    ("NOT hash", "'NOT'"),
    ("hash && join", "'&&'"),
    ("hash || join", "'||'"),
    ("lang:(en)", "parentheses"),
    ("-(hash)", "parentheses"),
])
def test_parse_rejects_boolean_syntax(q, construct):
    """Boolean operators and grouping have no grammar here: they raise
    instead of scoring the operands as free terms."""
    with pytest.raises(ValueError, match="unsupported boolean query syntax.*" + re.escape(construct)):
        querylang.parse(q)


def test_parse_allows_parens_in_phrases_and_ranges():
    p = querylang.parse('"hash (join)" x:[1 TO 5] and or not')
    assert p["phrases"] == [["hash", "join"]]
    assert "x" in p["filters"]
    assert "not" in p["terms"]  # lowercase operator words are plain terms


def test_parse_duplicate_terms_additive():
    p = querylang.parse("merge merge sort")
    assert p["weights"] == {"merge": 2.0, "sort": 1.0}


def test_expand_wildcard_and_fuzzy():
    vocab = ["merge", "merged", "mering", "sort", "marge", "msort"]
    p = querylang.parse("mer* marge~1^2")
    e = querylang.expand(p, vocab)
    assert e["expands"] == []
    # mer* -> merge, merged, mering at 1.0
    assert e["weights"]["mering"] == 1.0
    # marge~1 matches marge (0) and merge (1 substitution), at boost 2
    assert e["weights"]["marge"] == 2.0
    assert e["weights"]["merge"] == 1.0 + 2.0  # wildcard + fuzzy overlap


def test_execute_rejects_unexpanded():
    p = querylang.parse("mer*")
    with pytest.raises(ValueError, match="expand"):
        querylang.execute(p, get_postings=lambda t: None, stats=None, k=5)


def test_damerau_levenshtein_matches_duckdb():
    import duckdb

    import numpy as np

    rng = np.random.default_rng(5)
    alpha = "abcde"
    words = [
        "".join(alpha[i] for i in rng.integers(0, len(alpha), rng.integers(0, 9)))
        for _ in range(60)
    ]
    con = duckdb.connect()
    for i in range(0, len(words) - 1, 2):
        a, b = words[i], words[i + 1]
        if not a or not b:
            continue  # duckdb rejects empty strings; engine defines len
        want = con.sql(f"select damerau_levenshtein('{a}','{b}')").fetchone()[0]
        assert querylang.damerau_levenshtein(a, b) == want, (a, b)


def test_boost_scales_single_term_score(built):
    s = LocalSearcher(built)
    base = dict(s.search("zebra", k=10))
    boosted = dict(s.search("zebra^2.5", k=10))
    assert set(base) == set(boosted)
    for d in base:
        assert boosted[d] == pytest.approx(base[d] * 2.5, rel=1e-12)


def test_required_term_gates_membership(built):
    s = LocalSearcher(built)
    any_match = {d for d, _ in s.search("hash window", k=10)}
    must = {d for d, _ in s.search("+window hash", k=10)}
    assert any_match == {1, 2, 3, 4, 5}
    assert must == {3}  # only doc 3 contains window


def test_wildcard_and_fuzzy_search(built):
    s = LocalSearcher(built)
    got = {d for d, _ in s.search("quan*", k=10)}
    assert got == {6}  # quantum
    got = {d for d, _ in s.search("zebr~1", k=10)}
    assert got == {6}
    got = {d for d, _ in s.search("xyzzy*", k=10)}
    assert got == set()


def test_range_filter(tmp_path):
    rows = [
        {"doc_id": i, "text": f"common word{i}", "lang": "en", "n": i * 10}
        for i in range(1, 7)
    ]
    src = str(tmp_path / "d.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "i")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=2)
    dm.ensure_docmeta(idx, src, ["lang", "n"])
    s = LocalSearcher(idx)
    assert {d for d, _ in s.search("common n:[20 TO 40]", k=10)} == {2, 3, 4}
    assert {d for d, _ in s.search("common n:{20 TO 40}", k=10)} == {3}
    assert {d for d, _ in s.search("common n:>=50", k=10)} == {5, 6}
    assert {d for d, _ in s.search("common n:<20 lang:en", k=10)} == {1}


def test_engine_v2_parity_both_modes(built):
    queries = [
        "hash^2 join",
        "+window merge",
        "ha?h jo*",
        "zebr~1 merge",
        'mer* -deprecated lang:fr',
    ]
    local = LocalSearcher(built)
    eng = QueryEngine(built, num_servers=2)
    try:
        for q in queries:
            assert eng.search(q, k=10) == local.search(q, k=10), q
    finally:
        eng.shutdown()


def test_facets_local(built):
    s = LocalSearcher(built)
    facets, stats = s.facets("hash join", facet_cols=["lang", "source"])
    # matches docs 1,2,4,5: langs en,en,en,fr; sources s0,s1,s0,s1
    assert facets["lang"] == {"en": 3, "fr": 1}
    assert facets["source"] == {"s0": 2, "s1": 2}
    assert stats == {}


def test_facets_stats_and_no_match(tmp_path):
    rows = [
        {"doc_id": i, "text": f"common word{i}", "lang": "en", "n": i * 10}
        for i in range(1, 7)
    ]
    src = str(tmp_path / "d.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "i")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=2)
    dm.ensure_docmeta(idx, src, ["lang", "n"])
    s = LocalSearcher(idx)
    _, stats = s.facets("common n:[20 TO 50]", stats_cols=["n"])
    assert stats["n"] == (4, 140, 20, 50)
    facets, stats = s.facets("nosuchterm", facet_cols=["lang"], stats_cols=["n"])
    assert facets == {"lang": {}}
    assert stats == {"n": (0, 0, None, None)}


def test_facets_engine_parity_both_modes(built):
    local = LocalSearcher(built)
    queries = ["hash join", '"hash join"', "mer* -deprecated", "+join lang:en"]
    eng = QueryEngine(built, num_servers=2)
    try:
        for q in queries:
            got = eng.facets(q, facet_cols=["lang", "source"])
            want = local.facets(q, facet_cols=["lang", "source"])
            assert got == want, q
    finally:
        eng.shutdown()


def test_facets_respect_tombstones(built, tmp_path):
    import shutil

    from cb.shard import delete_docs

    idx2 = str(tmp_path / "idx2")
    shutil.copytree(built, idx2)
    delete_docs(idx2, [1, 5])
    s = LocalSearcher(idx2)
    facets, _ = s.facets("hash join", facet_cols=["lang"])
    assert facets["lang"] == {"en": 2}  # docs 2 and 4 survive


def test_histogram_modes_agree_and_sum_matches_stats(tmp_path):
    rows = [
        {"doc_id": i, "text": f"common word{i}", "lang": "en", "n": i * 10}
        for i in range(1, 7)
    ]
    src = str(tmp_path / "d.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "i")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=2)
    dm.ensure_docmeta(idx, src, ["lang", "n"])
    queries = ["common", "common n:[20 TO 50]", "nosuchterm"]
    results = {}
    # 1 server = whole index (trivial merge); 2 servers must merge to it
    for ns in (1, 2):
        eng = QueryEngine(idx, num_servers=ns)
        try:
            results[ns] = [eng.histogram(q, {"n": 25}) for q in queries]
            if ns == 2:
                for q, h in zip(queries, results[ns]):
                    _, stats = eng.facets(q, stats_cols=["n"])
                    # total histogram mass == the stats agg's count,
                    # buckets interval-aligned
                    assert sum(h["n"].values()) == stats["n"][0], q
                    assert all(b % 25 == 0 for b in h["n"]), q
        finally:
            eng.shutdown()
    assert results[2] == results[1]
    # n = 10..60, interval 25 -> buckets 0 (10,20), 25 (30,40), 50 (50,60)
    assert results[2][0] == {"n": {0: 2, 25: 2, 50: 2}}
    assert results[2][2] == {"n": {}}  # no match -> empty histogram


def test_significant_terms_modes_agree(built):
    """A 2-server pool's significant_terms equal the 1-server pool's
    (whole index, trivial merge): per-slice counts merge exactly."""
    results = {}
    for ns in (1, 2):
        eng = QueryEngine(built, num_servers=ns)
        try:
            for q in ["hash join", "mer* -deprecated"]:
                results[ns, q] = eng.significant_terms(q, top_n=5, min_df=1)
        finally:
            eng.shutdown()
    for q in ["hash join", "mer* -deprecated"]:
        assert results[2, q] == results[1, q], q
        assert results[2, q], q  # non-vacuous
        # scores descend; fg <= df always
        scores = [s for _, _, _, s in results[2, q]]
        assert scores == sorted(scores, reverse=True)
        assert all(fg <= df for _, fg, df, _ in results[2, q])


def test_minimum_should_match(built):
    s = LocalSearcher(built)
    all_docs = {d for d, _ in s.search("hash join table", k=10)}
    two_plus = {d for d, _ in s.search("hash join table msm:2", k=10)}
    three = {d for d, _ in s.search("hash join table msm:3", k=10)}
    assert three <= two_plus <= all_docs
    # docs 1 ("hash join ... table") has all 3; 2/4/5 have hash+join
    assert three == {1}
    assert two_plus == {1, 2, 4, 5}
    # msm <= 1 is the default OR semantics
    assert {d for d, _ in s.search("hash join table msm:1", k=10)} == all_docs
    with pytest.raises(ValueError, match="msm"):
        querylang.parse("a msm:x")


def test_apply_synonyms_rules():
    p = querylang.parse("merge fast^2")
    out = querylang.apply_synonyms(
        p, {"merge": ["join", "combine"], "fast": ["quick", "join"]}
    )
    # derived synonyms take the max source weight; join reachable from
    # merge (1.0) and fast (2.0) -> 2.0
    assert out["weights"] == {
        "merge": 1.0, "fast": 2.0, "join": 2.0, "combine": 1.0, "quick": 2.0,
    }
    # explicit term beats derived weight
    p2 = querylang.parse("merge join")
    out2 = querylang.apply_synonyms(p2, {"merge": ["join"]})
    assert out2["weights"] == {"merge": 1.0, "join": 1.0}
    # original parse dict untouched
    assert "combine" not in p["weights"]


def test_apply_synonyms_requires_expanded():
    p = querylang.parse("mer* fast")
    with pytest.raises(ValueError):
        querylang.apply_synonyms(p, {"fast": ["quick"]})
    # after expand() it applies cleanly
    out = querylang.apply_synonyms(
        querylang.expand(p, ["merge", "fast"]), {"fast": ["quick"]}
    )
    assert "quick" in out["weights"]


def test_synonym_search_engine(built):
    s = LocalSearcher(built)
    # 'sort' alone misses the hash-join docs; synonym sort->hash pulls
    # them in, scored at hash's own df
    base = {d for d, _ in s.search("sort", k=10)}
    syn = {d for d, _ in s.search("sort", k=10, synonyms={"sort": ["hash"]})}
    assert base < syn
    assert syn == base | {d for d, _ in s.search("hash", k=10)}
    # synonym absent from the corpus changes nothing (identical scores)
    assert s.search("sort", k=10, synonyms={"sort": ["warpdrive"]}) == \
        s.search("sort", k=10)
    # pool == in-process searcher with the same synonym map
    eng = QueryEngine(built, num_servers=2)
    try:
        assert eng.search("sort merge", k=10, synonyms={"sort": ["hash"]}) == \
            s.search("sort merge", k=10, synonyms={"sort": ["hash"]})
    finally:
        eng.shutdown()
