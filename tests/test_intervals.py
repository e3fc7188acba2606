"""intervals query: brute-force parity (ordered + unordered),
parity at two pool sizes, and tombstone masking.  (DuckDB value-parity
for the packaged entry lives in test_oracle_parity.)"""

from itertools import product

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from cb import analyze, docmeta as dm
from cb.build import build_index
from cb.shard import QueryEngine, delete_docs

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
TOKS = {i: analyze.tokenize(t) for i, t, _, _, _ in DOCS}


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    d = tmp_path_factory.mktemp("intervals")
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


def _brute(terms, max_gaps, ordered):
    """Min over one-occurrence-per-term tuples of width - n, exhaustive."""
    want = []
    for i in sorted(TOKS):
        occs = [[p for p, w in enumerate(TOKS[i]) if w == t] for t in terms]
        if any(not o for o in occs):
            continue
        best = None
        for tup in product(*occs):
            if ordered and any(
                tup[j] >= tup[j + 1] for j in range(len(tup) - 1)
            ):
                continue
            g = max(tup) - min(tup) + 1 - len(terms)
            if best is None or g < best:
                best = g
        if best is not None and best <= max_gaps:
            want.append((i, best))
    return want


CASES = [
    ("hash join", 0, True),
    ("hash join", 2, True),
    ("join hash", 1, True),
    ("hash join", 1, False),
    ("merge sort window", 2, False),
    ("merge sort window", 4, True),
    ("scan table join", 5, False),
    ("table scan join", 3, True),
]


def test_intervals_brute_and_modes(built):
    for text, g, ordered in CASES:
        terms = analyze.tokenize(text)
        want = _brute(terms, g, ordered)
        for ns in (2, 3):
            eng = QueryEngine(built, num_servers=ns)
            try:
                got = eng.intervals(text, g, ordered)
            finally:
                eng.shutdown()
            assert got == want, (text, g, ordered, ns, got, want)


def test_intervals_validation(built):
    eng = QueryEngine(built, num_servers=2)
    try:
        with pytest.raises(ValueError):
            eng.intervals("hash", 1)
        with pytest.raises(ValueError):
            eng.intervals("hash hash", 1)
        assert eng.intervals("zebra quantum", -1) == []
    finally:
        eng.shutdown()


def test_intervals_tombstones(built):
    text, g, ordered = "hash join", 2, True
    want_full = _brute(analyze.tokenize(text), g, ordered)
    assert any(d == 2 for d, _ in want_full)
    delete_docs(built, [2])  # last test in the module: no restore needed
    eng = QueryEngine(built, num_servers=2)
    try:
        got = eng.intervals(text, g, ordered)
    finally:
        eng.shutdown()
    assert got == [(d, gg) for d, gg in want_full if d != 2]
