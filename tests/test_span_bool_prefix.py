"""span_or_first / span_not / match_bool_prefix / top_metrics:
brute-force parity at two pool sizes, and tombstone masking.
(DuckDB value-parity for the packaged entries lives in
test_oracle_parity.)"""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from cb import analyze, docmeta as dm
from cb.build import build_index
from cb.shard import QueryEngine, delete_docs

DOCS = [
    (1, "hash join over the big table", "en", "s0", 150),
    (2, "hash join deprecated path", "en", "s1", 250),
    (3, "merge sort window frame", "fr", "s0", 350),
    (4, "join hash reversed words", "en", "s0", 450),
    (5, "the quick hash join trick", "fr", "s1", 550),
    (6, "unrelated quantum zebra", "en", "s2", 650),
    (7, "join column index scan", "de", "s1", 125),
    (8, "sort merge join pipeline", "de", "s0", 825),
]
TOKS = {i: analyze.tokenize(t) for i, t, _, _, _ in DOCS}


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    d = tmp_path_factory.mktemp("spanbp")
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


def _brute_span_or_first(terms, end):
    want = []
    for i in sorted(TOKS):
        pos = [TOKS[i].index(t) for t in terms if t in TOKS[i]]
        if pos and min(pos) < end:
            want.append((i, min(pos)))
    return want


def _brute_span_not(ta, tb, slop):
    want = []
    for i in sorted(TOKS):
        apos = [p for p, w in enumerate(TOKS[i]) if w == ta]
        bpos = [p for p, w in enumerate(TOKS[i]) if w == tb]
        valid = [
            p for p in apos
            if all(abs(p - q) - 1 > slop for q in bpos)
        ]
        if valid:
            want.append((i, min(valid)))
    return want


def test_span_or_first_brute_and_modes(built):
    cases = [("merge zebra", 2), ("join sort", 1), ("hash window", 4)]
    for text, end in cases:
        terms = sorted(set(analyze.tokenize(text)))
        want = _brute_span_or_first(terms, end)
        for ns in (2, 3):
            eng = QueryEngine(built, num_servers=ns)
            try:
                got = eng.span_or_first(text, end)
            finally:
                eng.shutdown()
            assert got == want, (text, end, ns, got, want)


def test_span_not_brute_and_modes(built):
    cases = [("join hash", 0), ("join hash", 1), ("merge sort", 0), ("sort merge", 2)]
    for text, slop in cases:
        ta, tb = analyze.tokenize(text)
        want = _brute_span_not(ta, tb, slop)
        for ns in (2, 3):
            eng = QueryEngine(built, num_servers=ns)
            try:
                got = eng.span_not(text, slop)
            finally:
                eng.shutdown()
            assert got == want, (text, slop, ns, got, want)


def test_span_not_exclude_absent_everywhere(built):
    # exclude term not in the corpus -> every include occurrence valid
    eng = QueryEngine(built, num_servers=2)
    try:
        got = eng.span_not("zebra window", 5)
    finally:
        eng.shutdown()
    assert got == [(6, TOKS[6].index("zebra"))]


def test_match_bool_prefix_semantics(built):
    # prefix 'jo' expands to {join}; complete term 'merge' scores BM25.
    # Docs matching only the prefix (1,2,4,5,7) rank by the constant 1.0
    # + nothing; doc 8 has merge AND join -> top.
    eng = QueryEngine(built, num_servers=2)
    try:
        got = eng.match_bool_prefix("merge jo", k=10)
        ref = {d: s for d, s in eng.query("merge", k=10, algo="taat")}
    finally:
        eng.shutdown()
    ids = [d for d, _ in got]
    assert ids[0] in (3, 8)  # merge-scorers lead
    by_id = dict(got)
    # join-containing docs carry exactly +1.0 over their merge-only score
    for d in (1, 2, 4, 5, 7):
        assert by_id[d] == 1.0
    assert by_id[8] == ref[8] + 1.0
    assert by_id[3] == ref[3]  # merge only, no join


def test_match_bool_prefix_prefix_only_query(built):
    eng = QueryEngine(built, num_servers=3)
    try:
        got = eng.match_bool_prefix("quant", k=10)
    finally:
        eng.shutdown()
    assert got == [(6, 1.0)]


def test_top_metrics_winner_per_group(built):
    eng = QueryEngine(built, num_servers=2)
    try:
        hits = eng.top_metrics("join", "lang", "n_chars", metric_cols=("source",))
    finally:
        eng.shutdown()
    # join matches 1,2,4,5,7,8; max n_chars per lang:
    # en: 4 (450), fr: 5 (550), de: 8 (825)
    assert {v: h[0][0] for v, h in hits.items()} == {"en": 4, "fr": 5, "de": 8}
    assert hits["de"][0][2] == ("s0",)


def test_new_surface_tombstones(built, tmp_path):
    import shutil

    idx = str(tmp_path / "idx2")
    shutil.copytree(built, idx)
    delete_docs(idx, [6, 8])
    eng = QueryEngine(idx, num_servers=2)
    try:
        assert eng.span_or_first("zebra merge", 5) == [(3, 0)]
        assert all(d != 8 for d, _ in eng.span_not("sort merge", 2))
        assert all(d != 6 for d, _ in eng.match_bool_prefix("quant", k=10))
        hits = eng.top_metrics("join", "lang", "n_chars")
        assert hits["de"][0][0] == 7  # doc 8 tombstoned -> 7 wins
    finally:
        eng.shutdown()
