"""msearch (batched query-string fan-out): bitwise parity with the
sequential search loop across modes, empty-query slots, synonyms.
(DuckDB value-parity for the packaged entry lives in
test_oracle_parity.)"""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from cb import docmeta as dm
from cb.build import build_index
from cb.shard import QueryEngine

DOCS = [
    (1, "hash join over the big table scan", "en", "s0", 150),
    (2, "join the path then hash it again join", "en", "s1", 250),
    (3, "merge sort window frame sort merge window", "fr", "s0", 350),
    (4, "join hash reversed words hash join", "en", "s0", 450),
    (5, "the quick hash trick join hash", "fr", "s1", 550),
    (6, "unrelated quantum zebra", "en", "s2", 650),
    (7, "scan table join column index scan table", "de", "s1", 125),
    (8, "sort merge join pipeline window", "de", "s0", 825),
]

QUERIES = [
    "hash join",
    '"merge sort" window',
    "join -hash",
    "table lang:en",
    "",                      # empty slot must stay aligned
    "scan +join -zebra",
    "nonexistentterm",
]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    d = tmp_path_factory.mktemp("msearch")
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


def test_msearch_matches_sequential_both_modes(built):
    for ns in (2, 3):
        eng = QueryEngine(built, num_servers=ns)
        try:
            want = [eng.search(q, k=5) for q in QUERIES]
            got = eng.msearch(QUERIES, k=5)
        finally:
            eng.shutdown()
        assert got == want, ns
        assert got[4] == []  # the empty query keeps its slot


def test_msearch_synonyms(built):
    syn = {"lookup": ["scan"]}
    eng = QueryEngine(built, num_servers=2)
    try:
        want = eng.search("lookup table", k=5, synonyms=syn)
        got = eng.msearch(["lookup table"], k=5, synonyms=syn)
    finally:
        eng.shutdown()
    assert got == [want] and want
