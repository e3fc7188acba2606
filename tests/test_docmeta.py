"""Filtered search (X5 per-field-mapping parity): docmeta side table +
ES-style filter context — membership changes, scores do not."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from cb import docmeta as dm
from cb.build import build_index
from cb.shard import LocalSearcher, QueryEngine

TEXTS = [
    ("alpha join merge window", "en"),
    ("join table scan alpha", "fr"),
    ("merge join window table", "en"),
    ("quantum zebra dance", "de"),
    ("join window merge scan table", "fr"),
    ("alpha beta join", "en"),
]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    d = tmp_path_factory.mktemp("docmeta")
    rows = [
        {"doc_id": 1000 + i * 7, "text": t, "lang": lang, "source": f"s{i % 2}"}
        for i, (t, lang) in enumerate(TEXTS)
    ]
    src = str(d / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(d / "idx")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=4)
    dm.ensure_docmeta(idx, src, ["lang", "source"])
    return idx, rows


def test_docmeta_mask(built):
    idx, rows = built
    meta = dm.DocMeta(idx)
    ids = np.array([r["doc_id"] for r in rows], dtype=np.int64)
    got = meta.mask(ids, {"lang": "en"})
    want = np.array([r["lang"] == "en" for r in rows])
    assert np.array_equal(got, want)
    # conjunction + set membership + missing ids
    got2 = meta.mask(ids, {"lang": {"en", "fr"}, "source": "s0"})
    want2 = np.array([r["lang"] in ("en", "fr") and r["source"] == "s0" for r in rows])
    assert np.array_equal(got2, want2)
    assert not meta.mask(np.array([999999]), {"lang": "en"}).any()


def test_filtered_query_membership_not_scores(built):
    idx, rows = built
    s = LocalSearcher(idx)
    unfiltered = dict(s.query("join merge", k=10, algo="taat"))
    for lang in ("en", "fr", "de"):
        res = s.filtered_query("join merge", {"lang": lang}, k=10)
        allowed = {r["doc_id"] for r in rows if r["lang"] == lang}
        assert {d for d, _ in res} <= allowed
        # scores identical to the unfiltered run (filter context)
        for d, sc in res:
            assert sc == unfiltered[d]
    # union over langs == unfiltered result set
    union = set()
    for lang in ("en", "fr", "de"):
        union |= {d for d, _ in s.filtered_query("join merge", {"lang": lang}, k=10)}
    assert union == set(unfiltered)


def test_filtered_query_via_engine(built):
    idx, rows = built
    s = LocalSearcher(idx)
    engine = QueryEngine(idx, num_servers=2)
    try:
        for q in ("join merge", "alpha table", "zebra"):
            for lang in ("en", "fr"):
                assert engine.filtered_query(q, {"lang": lang}, k=10) == \
                    s.filtered_query(q, {"lang": lang}, k=10)
    finally:
        engine.shutdown()


def test_doc_vs_term_topology_bitwise_parity(built):
    """The doc-sharded pool at 1-3 servers must be bitwise-identical to
    the in-process searcher — scores included (global df drives idf
    even on a doc-range slice)."""
    idx, rows = built
    s = LocalSearcher(idx)
    queries = ["join merge", "alpha table scan", "window", "zebra", "join window merge scan"]
    for ns, min_df in ((1, 0), (2, 2), (3, 1)):
        engine = QueryEngine(idx, num_servers=ns)
        try:
            engine.warm(min_df=min_df)  # pre-decode must not change results
            for q in queries:
                assert engine.query(q, k=10) == s.query(q, k=10, algo="taat"), (ns, q)
                assert engine.query(q, k=10, algo="wand") == \
                    s.query(q, k=10, algo="wand"), (ns, q, "wand")
                assert engine.phrase_query(q, k=10) == s.phrase_query(q, k=10), (ns, q)
                assert engine.filtered_query(q, {"lang": "en"}, k=10) == \
                    s.filtered_query(q, {"lang": "en"}, k=10), (ns, q)
            many = engine.query_many(queries, k=10)
            assert many == [s.query(q, k=10, algo="taat") for q in queries], ns
        finally:
            engine.shutdown()


def test_build_from_mapping(built, tmp_path):
    """Mapping-JSON-driven build (X5): one config names the analyzed
    field and the not_analyzed filter columns; filtered search works
    immediately."""
    import json

    src = os.path.join(os.path.dirname(built[0]), "docs.parquet")
    mpath = str(tmp_path / "mapping.json")
    with open(mpath, "w") as f:
        json.dump({"id": "doc_id", "analyzed": "text", "not_analyzed": ["lang"]}, f)
    idx = str(tmp_path / "idx")
    meta = dm.build_from_mapping(src, idx, mpath, num_parts=4)
    assert meta.n_docs == len(built[1])
    s = LocalSearcher(idx)
    res = s.filtered_query("join merge", {"lang": "en"}, k=10)
    allowed = {r["doc_id"] for r in built[1] if r["lang"] == "en"}
    assert res and {d for d, _ in res} <= allowed
    with pytest.raises(ValueError):
        dm.build_from_mapping(
            src, str(tmp_path / "idx2"),
            {"analyzed": "text", "not_analyzed": ["lang"]}, num_parts=4,
        )


def test_ensure_docmeta_idempotent_and_rebuilds_on_col_change(built):
    idx, rows = built
    p = os.path.join(idx, "docmeta", "_meta.json")
    mtime = os.stat(p).st_mtime_ns
    src = os.path.join(os.path.dirname(idx), "docs.parquet")
    dm.ensure_docmeta(idx, src, ["lang", "source"])
    assert os.stat(p).st_mtime_ns == mtime  # unchanged -> no rebuild
    dm.ensure_docmeta(idx, src, ["lang"])
    assert os.stat(p).st_mtime_ns != mtime  # column set changed -> rebuilt
    meta = dm.DocMeta(idx)
    assert set(meta.cols) == {"lang"}


def _write_docs(path, rows):
    pq.write_table(pa.Table.from_pylist(rows), path)


def test_ensure_docmeta_rebuilds_on_lineage_change(tmp_path):
    rows = [
        {"doc_id": 1 + i, "text": t, "lang": lang}
        for i, (t, lang) in enumerate(TEXTS)
    ]
    src = str(tmp_path / "docs.parquet")
    _write_docs(src, rows)
    idx = str(tmp_path / "idx")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=4)
    dm.ensure_docmeta(idx, src, ["lang"])
    # grow the corpus (same path, new bytes) and reindex
    new_row = {"doc_id": 999, "text": "join fresh doc", "lang": "zh"}
    _write_docs(src, rows + [new_row])
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=4)
    # without the lineage check this is a silent no-op and doc 999 is
    # invisible to every filtered search
    dm.ensure_docmeta(idx, src, ["lang"])
    meta = dm.DocMeta(idx)
    assert meta.mask(np.array([999]), {"lang": "zh"}).all()
    s = LocalSearcher(idx)
    assert 999 in {d for d, _ in s.filtered_query("join", {"lang": "zh"}, k=10)}


def test_refresh_docmeta_hook(tmp_path):
    rows = [{"doc_id": 1, "text": "alpha join", "lang": "en"}]
    src = str(tmp_path / "docs.parquet")
    _write_docs(src, rows)
    idx = str(tmp_path / "idx")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=4)
    assert dm.refresh_docmeta(idx, src) is False  # no table yet -> no-op
    dm.ensure_docmeta(idx, src, ["lang"])
    _write_docs(src, rows + [{"doc_id": 2, "text": "join beta", "lang": "fr"}])
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=4)
    assert dm.refresh_docmeta(idx, src) is True  # reuses stored cols
    assert dm.DocMeta(idx).mask(np.array([2]), {"lang": "fr"}).all()


def test_docmeta_orphan_buckets_removed_and_not_loaded(tmp_path):
    # ids in two doc-range buckets (range_bits=4 -> bucket = id >> 59)
    hi = 1 << 59
    rows_big = [
        {"doc_id": 1, "text": "alpha join", "lang": "en"},
        {"doc_id": hi + 1, "text": "beta join", "lang": "fr"},
    ]
    src = str(tmp_path / "docs.parquet")
    _write_docs(src, rows_big)
    idx = str(tmp_path / "idx")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=4)
    dm.ensure_docmeta(idx, src, ["lang"])
    assert os.path.exists(os.path.join(idx, "docmeta", "bucket=1.parquet"))
    # shrink to bucket 0 only and rebuild
    _write_docs(src, rows_big[:1])
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=4)
    dm.ensure_docmeta(idx, src, ["lang"])
    assert not os.path.exists(os.path.join(idx, "docmeta", "bucket=1.parquet"))
    meta = dm.DocMeta(idx)
    assert not meta.mask(np.array([hi + 1]), {"lang": "fr"}).any()
    # even if a stale file resurfaces, membership comes from _meta.json
    pq.write_table(
        pa.table({"doc_id": pa.array([hi + 1], pa.int64()),
                  "lang": pa.array(["fr"])}),
        os.path.join(idx, "docmeta", "bucket=1.parquet"),
    )
    meta2 = dm.DocMeta(idx)
    assert not meta2.mask(np.array([hi + 1]), {"lang": "fr"}).any()


def test_geo_distance_filter_derived(built):
    # _geo_distance filter context: membership from the doc_id-derived
    # coordinates, conjoinable with column filters, scores untouched
    from cb import geo

    idx, rows = built
    meta = dm.DocMeta(idx)
    ids = np.array([r["doc_id"] for r in rows], dtype=np.int64)
    lat, lon = geo.derive_coords(ids)
    d = geo.haversine_km(lat, lon, 12.34, 56.78)
    spec = {"lat": 12.34, "lon": 56.78, "radius_km": float(np.median(d))}
    got = meta.mask(ids, {"_geo_distance": spec})
    assert np.array_equal(got, d < spec["radius_km"])
    both = meta.mask(ids, {"_geo_distance": spec, "lang": "en"})
    want = (d < spec["radius_km"]) & np.array([r["lang"] == "en" for r in rows])
    assert np.array_equal(both, want)
    # engine path: filtered results are a subset with unchanged scores
    s = LocalSearcher(idx)
    unfiltered = dict(s.query("join merge", k=10, algo="taat"))
    res = s.filtered_query("join merge", {"_geo_distance": spec}, k=10)
    for doc, sc in res:
        assert sc == unfiltered[doc]
        assert d[ids.tolist().index(doc)] < spec["radius_km"]


def test_geo_distance_filter_from_columns(tmp_path):
    # source=(lat_col, lon_col): coordinates come from docmeta columns,
    # the real-deployment path (no derivation)
    from cb import geo

    rows = [
        {"doc_id": 10 + i, "text": "join merge window", "lat": la, "lon": lo}
        for i, (la, lo) in enumerate(
            [(0.0, 0.0), (10.0, 10.0), (45.0, 90.0), (-60.0, 120.0)]
        )
    ]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=2)
    dm.ensure_docmeta(idx, src, ["lat", "lon"])
    meta = dm.DocMeta(idx)
    ids = np.array([r["doc_id"] for r in rows], dtype=np.int64)
    got = meta.mask(
        ids,
        {"_geo_distance": {"lat": 0.0, "lon": 0.0, "radius_km": 3000.0,
                           "source": ("lat", "lon")}},
    )
    lat = np.array([r["lat"] for r in rows])
    lon = np.array([r["lon"] for r in rows])
    d = geo.haversine_km(lat, lon, 0.0, 0.0)
    assert np.array_equal(got, d < 3000.0)
    assert got[0] and got[1] and not got[2] and not got[3]
