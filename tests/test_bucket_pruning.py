"""Bucket-pruned partition layout: doc-sharded servers read ONLY their
assigned bucket files — proven by deleting every other bucket file and
serving bitwise-identical results (the same proof style as the IVF
probed-subset test)."""

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from cb import scoring, wand
from cb.build import IndexMeta, build_index
from cb.compress import PostingList
from cb.shard import (
    DocStats, LocalSearcher, QueryEngine, ShardPartition, ShardServer, _merge_topk,
)

HI = 1 << 59  # bucket stride at range_bits=4 (bucket = id >> 59)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    d = tmp_path_factory.mktemp("bp")
    rows = []
    rng = np.random.default_rng(11)
    for b in range(4):  # docs spread over 4 doc-range buckets
        for i in range(25):
            words = " ".join(
                f"w{int(rng.integers(30))}" for _ in range(int(rng.integers(5, 40)))
            )
            rows.append({"doc_id": b * HI + 1 + i * 3, "text": f"join merge {words}"})
    src = str(d / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(d / "idx")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=4)
    return idx


def test_layout_one_file_per_bucket(built):
    meta = IndexMeta(built)
    seen_buckets = set()
    for p in range(meta.num_parts):
        for f in glob.glob(os.path.join(meta.part_dir(p), "bucket=*.parquet")):
            b = int(os.path.basename(f)[len("bucket=") : -len(".parquet")])
            t = pq.read_table(f)
            assert set(t["bucket"].to_pylist()) == {b}
            seen_buckets.add(b)
        assert os.path.exists(os.path.join(meta.part_dir(p), "_termdf.parquet"))
    assert seen_buckets == {0, 1, 2, 3}


def test_server_never_reads_unassigned_buckets(built, tmp_path):
    """Delete every bucket file OUTSIDE the assignment; a bucket-sliced
    load still works and returns exactly the full index's doc-range
    slice — so a partition bigger than worker memory serves fine."""
    meta = IndexMeta(built)
    full = LocalSearcher(built)
    assigned = [0, 2]
    pruned = str(tmp_path / "pruned")
    shutil.copytree(built, pruned)
    removed = 0
    for p in range(meta.num_parts):
        for f in glob.glob(os.path.join(pruned, "parts", f"part={p}", "bucket=*.parquet")):
            b = int(os.path.basename(f)[len("bucket=") : -len(".parquet")])
            if b not in assigned:
                os.remove(f)
                removed += 1
    assert removed > 0
    pmeta = IndexMeta(pruned)
    lo, hi = assigned[0] * HI, (assigned[0] + 1) * HI  # bucket 0 range
    for p in range(meta.num_parts):
        sliced = ShardPartition(pmeta.part_dir(p), buckets=assigned)
        whole = full.parts[p]
        for term in whole.offsets:
            w = whole.get(term)
            s = sliced.get(term)
            ids_w, tfs_w, _ = w.decode_all()
            keep = np.zeros(len(ids_w), dtype=bool)
            for b in assigned:
                keep |= (ids_w >> 59) == b
            if not keep.any():
                assert s is None or s.df == 0
                continue
            ids_s, tfs_s, _ = s.decode_all()
            assert np.array_equal(ids_s, ids_w[keep])
            assert np.array_equal(tfs_s, tfs_w[keep])
            # corpus-global df survives the slice (idf exactness)
            assert s.gdf == w.df


def test_doc_sharded_pool_on_pruned_files_bitwise(built, tmp_path):
    """A 2-server doc-sharded pool serves bitwise-identical results even
    when each server's UNASSIGNED bucket files are physically absent
    from the other's view — here simulated by the pool itself, whose
    servers read disjoint file sets by construction; parity vs the
    in-process searcher proves no server needed foreign buckets."""
    full = LocalSearcher(built)
    with pytest.raises(TypeError):
        QueryEngine(built, 2, mode="term")  # one serving topology
    eng = QueryEngine(built, num_servers=2)
    try:
        for q in ("join merge", "w1 w2 w3", "join w5", "zzz absent"):
            assert eng.query(q, k=10) == full.query(q, k=10, algo="taat")
    finally:
        eng.shutdown()


def test_pruned_load_reads_fraction_of_bytes(built):
    """Bytes on disk for one server's bucket subset are a strict
    fraction of the partition total (the (S-1)/S read saving)."""
    meta = IndexMeta(built)
    total = 0
    subset = 0
    for p in range(meta.num_parts):
        for f in glob.glob(os.path.join(meta.part_dir(p), "bucket=*.parquet")):
            b = int(os.path.basename(f)[len("bucket=") : -len(".parquet")])
            sz = os.path.getsize(f)
            total += sz
            if b in (0, 2):
                subset += sz
    assert 0 < subset < total
    assert subset / total < 0.75  # ~half the buckets -> well under all


def _server(idx, buckets, fed=None):
    """A ShardServer instance in this process (no actor)."""
    return ShardServer.__ray_metadata__.modified_class(idx, buckets, fed=fed)


def _per_term_decoded(srv, min_df):
    """What warm must store: per term with df >= min_df, the per-row
    PostingList decode of its rows (an independent reference, not the
    columnar decode warm uses), concatenated, and its u_factor."""
    want = {}
    for part in srv.parts.values():
        for term, (start, stop, _, _) in part.offsets.items():
            if part.get(term).gdf >= min_df:
                rows = part.table.slice(start, stop - start).to_pylist()
                decoded = [PostingList(r).decode_all() for r in rows]
                ids, tfs, dls = (np.concatenate([d[j] for d in decoded]) for j in range(3))
                want[term] = (ids, scoring.u_factor(tfs, dls, srv.stats.avgdl))
    return want


def _assert_bitwise(got: dict, want: dict):
    assert got.keys() == want.keys()
    for t, w in want.items():
        (ids, u), (g_ids, g_u) = w[:2], got[t][:2]
        assert g_ids.dtype == ids.dtype and g_u.dtype == u.dtype, t
        assert g_ids.tobytes() == ids.tobytes(), t
        assert g_u.tobytes() == u.tobytes(), t


@pytest.mark.parametrize("case", ["doc_slice", "all_buckets", "missing_part", "fed"])
def test_columnar_warm_matches_per_term_decode(built, tmp_path, case):
    """warm's one-pass-per-partition decode stores bitwise what a
    per-term decode would, returns the number of terms it warmed, and
    warms nothing on a second call."""
    meta = IndexMeta(built)
    idx, buckets, fed = built, [0, 2], None
    if case == "all_buckets":
        # a 1-server pool's slice: every bucket, so whole partitions
        buckets = list(range(1 << meta.range_bits))
    elif case == "missing_part":
        # part 0 has no file in this server's slice (table is None)
        idx = str(tmp_path / "idx")
        shutil.copytree(built, idx)
        os.remove(os.path.join(idx, "parts", "part=0", "bucket=1.parquet"))
        buckets = [1]
    elif case == "fed":
        # a federation override: other N/avgdl and per-term dfs
        fed = str(tmp_path / "fed")
        os.makedirs(os.path.join(fed, "feddf"))
        with open(os.path.join(fed, "fed.json"), "w") as f:
            json.dump({"n_docs": 3 * meta.n_docs, "avgdl": 1.7 * meta.avgdl}, f)
        for p in range(meta.num_parts):
            t = pq.read_table(os.path.join(meta.part_dir(p), "_termdf.parquet"))
            pq.write_table(
                t.set_column(t.schema.get_field_index("df"), "df", pc.multiply(t["df"], 3)),
                os.path.join(fed, "feddf", f"part={p}.parquet"),
            )
    probe = _server(idx, buckets, fed)
    if case == "missing_part":
        assert probe.parts[0].table is None
        assert any(part.table is not None for part in probe.parts.values())
    gdfs = sorted(part.get(t).gdf for part in probe.parts.values() for t in part.offsets)
    for min_df in (0, gdfs[len(gdfs) // 2], gdfs[-1] + 1):
        srv = _server(idx, buckets, fed)
        want = _per_term_decoded(srv, min_df)
        assert srv.warm(min_df) == len(want)
        _assert_bitwise(srv.decoded, want)
        assert set(want) <= set(srv.cache)
        assert srv.warm(min_df) == 0
        snap = srv.metrics()
        assert snap["timers"]["server.warm"]["count"] == 2
        assert snap["counters"]["server.terms_warmed"] == len(want)
    assert 0 < len(_per_term_decoded(probe, gdfs[len(gdfs) // 2])) < len(gdfs)


def test_taat_miss_caches_what_warm_stores(built):
    """A decoded-cache miss in taat_scores fills the cache with exactly
    the (ids, u, ords) warm would have stored, and scores identically."""
    warm, cold = _server(built, [1, 3]), _server(built, [1, 3])
    warm.warm(0)
    terms = sorted(warm.decoded)[::3]
    postings = {t: cold.get_postings(t) for t in terms}
    idfs = {t: float(scoring.idf(p.gdf, cold.n_docs)) for t, p in postings.items()}
    got = wand.taat_scores(postings, idfs, cold.stats, cold.decoded)
    _assert_bitwise(cold.decoded, {t: warm.decoded[t] for t in terms})
    assert all(cold.decoded[t][2].tobytes() == warm.decoded[t][2].tobytes() for t in terms)
    want = wand.taat_scores(postings, idfs, warm.stats, warm.decoded)
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


def test_slice_universe_is_its_docstats(built, tmp_path):
    """A scope's doc universe is its slice's docstats ids, read by
    bucket file; a docstats layout not named by bucket (a resumable
    build's ``shard=<s>`` files) is filtered by id to the same slice."""
    whole = DocStats.load(built)
    merged = str(tmp_path / "merged")
    shutil.copytree(built, merged)
    ddir = os.path.join(merged, "docstats")
    files = sorted(glob.glob(os.path.join(ddir, "bucket=*.parquet")))
    tbl = pa.concat_tables([pq.ParquetFile(f).read() for f in files])
    for f in files:
        os.remove(f)
    pq.write_table(tbl, os.path.join(ddir, "shard=0.parquet"))
    for buckets in ([0, 2], [1], [3]):
        keep = np.isin(whole.ids // HI, buckets)
        for idx in (built, merged):
            ds = DocStats.load(idx, buckets)
            assert ds.ids.tolist() == whole.ids[keep].tolist(), (idx, buckets)
            assert ds.lens.tolist() == whole.lens[keep].tolist(), (idx, buckets)
        assert _server(merged, buckets).stats.universe.tolist() == whole.ids[keep].tolist()
