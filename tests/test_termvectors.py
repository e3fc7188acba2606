"""Term vectors from the positional index: brute parity vs the
analyzer, pool-size invariance, tombstones, no-positions guard."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from cb import analyze
from cb import corpus as cm
from cb import shard as sm
from cb import termvectors
from cb.build import build_index, read_partition_table


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    tbl = cm.generate_corpus(250, seed=11)
    d = tmp_path_factory.mktemp("tvcorpus")
    pq.write_table(tbl, str(d / "c.parquet"))
    idx = str(tmp_path_factory.mktemp("tvidx"))
    build_index(str(d / "c.parquet"), idx, num_parts=3, range_bits=3)
    wid = cm.with_identity(tbl)
    texts = dict(zip(wid["doc_id"].to_pylist(), wid["content"].to_pylist()))
    return idx, texts


def _brute(texts, doc):
    toks = analyze.tokenize(texts[doc])
    out = []
    for term in sorted(set(toks)):
        pos = [i for i, t in enumerate(toks) if t == term]
        out.append((doc, term, len(pos), len(toks), pos))
    return out


def test_term_vectors_brute_parity_and_topologies(built):
    idx, texts = built
    ids = sorted(texts)
    sel = [ids[0], ids[100], ids[-1]]
    want = [r for d in sel for r in _brute(texts, d)]
    for ns in (1, 4):
        eng = sm.QueryEngine(idx, num_servers=ns)
        try:
            got = eng.term_vectors(sel)
        finally:
            eng.shutdown()
        assert [(d, t, tf, dl, list(p)) for d, t, tf, dl, p in got] == want, ns


def test_term_vectors_unknown_and_tombstoned(built, tmp_path):
    import shutil

    idx, texts = built
    ids = sorted(texts)
    eng = sm.QueryEngine(idx, num_servers=2)
    try:
        assert eng.term_vectors([999999999]) == []  # absent doc
    finally:
        eng.shutdown()
    priv = str(tmp_path / "idx")
    shutil.copytree(idx, priv)
    sm.delete_docs(priv, [ids[0]])
    eng = sm.QueryEngine(priv, num_servers=2)
    try:
        got = eng.term_vectors([ids[0], ids[1]])
        assert {r[0] for r in got} == {ids[1]}  # tombstoned doc omitted
    finally:
        eng.shutdown()


def test_term_vectors_requires_positions(built):
    import pyarrow as pa

    idx, texts = built
    doc = sorted(texts)[0]
    for p in range(3):
        t = read_partition_table(idx, p)
        if t.num_rows == 0:
            continue
        # simulate a pre-positional index: blank the positional stream
        i = t.column_names.index("pos_blob")
        stripped = t.set_column(
            i, "pos_blob", pa.array([b""] * t.num_rows, pa.binary())
        )
        if termvectors.doc_term_vectors(t, doc):  # doc lives in this part
            with pytest.raises(ValueError, match="no positions"):
                termvectors.doc_term_vectors(stripped, doc)


def test_term_vectors_store_path_matches_index_path(built, tmp_path):
    """Doc-store term vectors (re-analyze stored text) == index-path
    term vectors — cross-proving the positional index against the
    analyzer; missing text column raises."""
    import pyarrow as pa
    import pyarrow.parquet as pq2

    from cb import docmeta as dm

    idx, texts = built
    # docmeta with the stored text column
    rows = [{"doc_id": d, "text": t} for d, t in texts.items()]
    src = str(tmp_path / "d.parquet")
    pq2.write_table(pa.Table.from_pylist(rows), src)
    dm.ensure_docmeta(idx, src, ["text"])
    ids = sorted(texts)
    sel = [ids[0], ids[50], ids[-1], 424242]  # incl. an absent id
    eng = sm.QueryEngine(idx, num_servers=3)
    try:
        via_index = eng.term_vectors(sel)
        via_store = eng.term_vectors(sel, source="store")
        assert [(d, t, tf, dl, list(p)) for d, t, tf, dl, p in via_index] == [
            (d, t, tf, dl, list(p)) for d, t, tf, dl, p in via_store
        ]
        assert via_store
    finally:
        eng.shutdown()
