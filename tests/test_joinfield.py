"""ES join-field (has_child / has_parent) semantics: brute-force
parity at several pool sizes, min_children, and tombstone masking.
(DuckDB value-parity for the packaged entries lives in
test_oracle_parity.)"""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from cb import docmeta as dm
from cb.build import build_index
from cb.shard import QueryEngine, delete_docs

DOCS = [
    # (doc_id, text, lang, source, n_chars)
    (1, "hash join over the big table", "en", "s0", 150),
    (2, "hash join deprecated path", "en", "s1", 250),
    (3, "merge sort window frame", "fr", "s0", 350),
    (4, "join hash reversed words", "en", "s0", 450),
    (5, "the quick hash join trick", "fr", "s1", 550),
    (6, "unrelated quantum zebra", "en", "s2", 650),
    (7, "join column index scan", "de", "s1", 125),
    (8, "sort merge join pipeline", "de", "s0", 825),
]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    d = tmp_path_factory.mktemp("joinfield")
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


def _brute_parents(idx, query, min_children):
    """Per-parent (max score, n_children) from the engine's own
    full-match scores (search with a huge k), independent of the
    join_children grouping kernel."""
    eng = QueryEngine(idx, num_servers=1)
    try:
        hits = eng.search(query, k=10_000)
    finally:
        eng.shutdown()
    src = {i: s for i, _, _, s, _ in DOCS}
    agg = {}
    for doc_id, score in hits:
        v = src[doc_id]
        mx, n = agg.get(v, (float("-inf"), 0))
        agg[v] = (max(mx, score), n + 1)
    rows = [(v, mx, n) for v, (mx, n) in agg.items() if n >= min_children]
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows


def test_has_child_brute_parity_and_topologies(built):
    want = _brute_parents(built, "hash join", min_children=1)
    for ns in (1, 3, 4):
        eng = QueryEngine(built, num_servers=ns)
        try:
            got = eng.has_child("hash join", "source", k=10, min_children=1)
        finally:
            eng.shutdown()
        assert got == want, (ns, got, want)


def test_has_child_min_children_drops_thin_parents(built):
    # 'merge sort' matches docs 3 and 8 (both s0): min_children=2 keeps
    # s0; 'quantum' matches only doc 6 (s2) -> nothing survives.
    eng = QueryEngine(built, num_servers=2)
    try:
        got = eng.has_child("merge sort", "source", min_children=2)
        assert [(v, n) for v, _, n in got] == [("s0", 2)]
        assert eng.has_child("quantum", "source", min_children=2) == []
    finally:
        eng.shutdown()


def test_has_parent_members_and_scores(built):
    # parent query 'quantum zebra' matches only doc 6 -> parent s2;
    # s2 has exactly one member (doc 6) which inherits the parent score.
    eng = QueryEngine(built, num_servers=2)
    try:
        res = eng.has_parent("quantum zebra", "source", k=10)
        hits = eng.search("quantum zebra", k=10)
    finally:
        eng.shutdown()
    assert [d for d, _ in res] == [6]
    assert res[0][1] == hits[0][1]


def test_has_parent_all_group_members_returned(built):
    # 'window' matches doc 3 (s0): every s0 doc (1,3,4,8) inherits the
    # parent score, ranked by doc_id on the all-tie score.
    eng = QueryEngine(built, num_servers=3)
    try:
        res = eng.has_parent("window", "source", k=10)
    finally:
        eng.shutdown()
    assert [d for d, _ in res] == [1, 3, 4, 8]
    assert len({s for _, s in res}) == 1


def test_joinfield_tombstones(built, tmp_path):
    # delete doc 8 -> 'merge sort' loses one s0 child; has_parent on
    # 'window' no longer lists doc 8 as an s0 member.
    import shutil

    idx = str(tmp_path / "idx2")
    shutil.copytree(built, idx)
    delete_docs(idx, [8])
    eng = QueryEngine(idx, num_servers=2)
    try:
        hc = eng.has_child("merge sort", "source", min_children=1)
        hp = eng.has_parent("window", "source", k=10)
    finally:
        eng.shutdown()
    assert [(v, n) for v, _, n in hc] == [("s0", 1)]
    assert [d for d, _ in hp] == [1, 3, 4]
