"""Suggesters over the index vocabulary: prefix completion and fuzzy
did-you-mean, checked against a brute-force oracle over the corpus
vocabulary (verifies the per-partition _termdf df-sum merge and the
two-phase top-k)."""

import os
from collections import Counter

import pyarrow.parquet as pq
import pytest

from cb import analyze
from cb import corpus as corpus_mod
from cb import querylang, suggest
from cb.build import build_index

N_DOCS = 200
K = 4


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    idx_dir = str(tmp_path_factory.mktemp("sindex"))
    corpus_dir = str(tmp_path_factory.mktemp("scorpus"))
    tbl = corpus_mod.generate_corpus(N_DOCS, seed=7)
    pq.write_table(tbl, os.path.join(corpus_dir, "c.parquet"))
    # num_parts=4 so every term's df is split across partition summaries
    meta = build_index(
        corpus_dir + "/c.parquet", idx_dir, text_col="content",
        id_col=None, num_parts=4, range_bits=3,
    )
    df = Counter()
    for text in tbl["content"].to_pylist():
        df.update(set(analyze.tokenize(text)))
    return meta, df


def _oracle_prefix(df, prefix, k):
    cand = [(t, n) for t, n in df.items() if t.startswith(prefix)]
    cand.sort(key=lambda tn: (-tn[1], tn[0]))
    return cand[:k]


def _oracle_fuzzy(df, q, max_dist, k):
    cand = []
    for t, n in df.items():
        d = querylang.damerau_levenshtein(q, t)
        if d <= max_dist:
            cand.append((d, -n, t))
    cand.sort()
    return [(t, d, -negn) for d, negn, t in cand[:k]]


def test_prefix_suggest_matches_oracle(built):
    meta, df = built
    prefixes = ["a", "re", "x", "zzznope"]
    out = suggest.prefix_suggest(meta, prefixes, k=K)
    got = {}
    for r in out.to_pylist():
        got.setdefault(r["prefix_id"], []).append((r["rank"], r["term"], r["df"]))
    for pid, pref in enumerate(prefixes):
        want = _oracle_prefix(df, pref, K)
        rows = sorted(got.get(pid, []))
        assert [(t, n) for _, t, n in rows] == want, pref
        assert [r[0] for r in rows] == list(range(1, len(want) + 1))


def test_fuzzy_suggest_matches_oracle(built):
    meta, df = built
    # derive typos from real vocabulary terms so matches exist
    terms = sorted(df)
    queries = [terms[0], terms[len(terms) // 2][:-1] + "x", "qqqqqqqq"]
    out = suggest.fuzzy_suggest(meta, queries, max_dist=2, k=K)
    got = {}
    for r in out.to_pylist():
        got.setdefault(r["query_id"], []).append(
            (r["rank"], r["term"], r["dist"], r["df"])
        )
    for qid, q in enumerate(queries):
        want = _oracle_fuzzy(df, q, 2, K)
        rows = sorted(got.get(qid, []))
        assert [(t, d, n) for _, t, d, n in rows] == want, q
        assert [r[0] for r in rows] == list(range(1, len(want) + 1))


def test_fuzzy_exact_term_ranks_first(built):
    meta, df = built
    term = max(df, key=lambda t: (df[t], t))
    out = suggest.fuzzy_suggest(meta, [term], max_dist=2, k=K)
    top = [r for r in out.to_pylist() if r["rank"] == 1][0]
    assert top["term"] == term and top["dist"] == 0 and top["df"] == df[term]


def test_engine_suggest_term_gates(tmp_path):
    """QueryEngine.suggest_term: analyzer + missing-mode + length +
    prefix-length gates, (dist, df desc, term) ranking."""
    import pyarrow as pa

    from cb.shard import QueryEngine

    rows = [
        {"doc_id": 1, "text": "merge window table"},
        {"doc_id": 2, "text": "merge window"},
        {"doc_id": 3, "text": "window spark"},
        {"doc_id": 4, "text": "tables merge"},
    ]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=2)

    text = "windoow mrge table sprk zz vindow the"
    # tokens (stopword 'the' dropped): windoow mrge table sprk zz vindow
    engine = QueryEngine(idx, num_servers=2)
    try:
        got = engine.suggest_term(text, k=2)
        assert got == [
            (1, "windoow", 1, "window", 1, 3),
            (2, "mrge", 1, "merge", 1, 3),
            # pos 3 'table' skipped: in vocab (suggest_mode=missing)
            (4, "sprk", 1, "spark", 1, 1),
            # pos 5 'zz' skipped: shorter than min_word_length
            # pos 6 'vindow' no rows: prefix_length=1 bars 'window'
        ]
        always = engine.suggest_term(text, k=2, suggest_mode="always")
        assert (3, "table", 1, "tables", 1, 1) in always
        assert [r for r in always if r[0] != 3] == got
    finally:
        engine.shutdown()
