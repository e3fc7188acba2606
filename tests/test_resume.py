"""Resumability: fresh build == resumed build byte-for-byte; finished
partitions are not recomputed (north_rule / BASELINE.md criterion)."""

import hashlib
import json
import os

import pyarrow.parquet as pq
import pytest

from cb import corpus as corpus_mod
from cb.build import build_index
from cb.resumable import build_index_resumable

import ray


def _sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _index_files(index_dir):
    out = {}
    for root, _, files in os.walk(index_dir):
        for f in files:
            p = os.path.join(root, f)
            rel = os.path.relpath(p, index_dir)
            if rel.startswith("_shuffle"):
                continue
            out[rel] = p
    return out


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("corpus"))
    corpus_mod.write_corpus(d, 200, seed=42, n_files=4)
    return d


def test_fresh_equals_fresh(corpus_files, tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    build_index_resumable(corpus_files, a, num_parts=4)
    build_index_resumable(corpus_files, b, num_parts=4)
    fa, fb = _index_files(a), _index_files(b)
    keys_a = {k for k in fa if not k.endswith("manifest.json")}
    keys_b = {k for k in fb if not k.endswith("manifest.json")}
    assert keys_a == keys_b
    for k in sorted(keys_a):
        if k.endswith(".parquet"):
            assert _sha(fa[k]) == _sha(fb[k]), k


def test_resume_skips_done_partitions(corpus_files, tmp_path):
    a = str(tmp_path / "a")
    build_index_resumable(corpus_files, a, num_parts=4)
    ref = {k: _sha(p) for k, p in _index_files(a).items() if k.endswith(".parquet")}

    b = str(tmp_path / "b")
    build_index_resumable(corpus_files, b, num_parts=4)
    # wound the index: drop one partition dir and one docstats shard
    import shutil

    shutil.rmtree(os.path.join(b, "parts", "part=2"))
    os.unlink(os.path.join(b, "docstats", "shard=1.parquet"))
    os.unlink(os.path.join(b, "_shuffle", "shard=1", "manifest.json"))

    before = {
        k: os.stat(p).st_mtime_ns
        for k, p in _index_files(b).items()
        if "/bucket=" in k and k.startswith("parts/")
    }
    build_index_resumable(corpus_files, b, num_parts=4)
    after_files = _index_files(b)
    # untouched partitions not rewritten
    for k, mt in before.items():
        assert os.stat(after_files[k]).st_mtime_ns == mt, f"{k} was recomputed"
    # wounded pieces regenerated identically
    got = {k: _sha(p) for k, p in after_files.items() if k.endswith(".parquet")}
    assert got == ref


def test_fast_path_value_equivalent(corpus_files, tmp_path):
    """Fast (in-memory shuffle) and resumable builds agree on every
    posting, docstat and global stat, and write the same partition
    files."""
    a = str(tmp_path / "fast")
    b = str(tmp_path / "resum")
    ds = ray.data.read_parquet(corpus_files)
    meta_a = build_index(ds, a, num_parts=4)
    meta_b = build_index_resumable(corpus_files, b, num_parts=4)
    assert (meta_a.n_docs, meta_a.total_tokens, meta_a.avgdl) == (
        meta_b.n_docs,
        meta_b.total_tokens,
        meta_b.avgdl,
    )

    def postings_map(index_dir, num_parts):
        rows = {}
        for p in range(num_parts):
            from cb.build import read_partition_table

            t = read_partition_table(index_dir, p)
            if t.num_rows == 0:
                continue
            for r in t.to_pylist():
                rows[(r["term"], r["bucket"])] = (
                    r["df"], r["cf"], r["ids_blob"], r["tfs_blob"],
                    tuple(r["block_bounds"]),
                )
        return rows

    assert postings_map(a, 4) == postings_map(b, 4)

    def docstats_map(index_dir):
        d = os.path.join(index_dir, "docstats")
        out = {}
        for f in os.listdir(d):
            if f.endswith(".parquet"):
                for r in pq.read_table(os.path.join(d, f)).to_pylist():
                    out[r["doc_id"]] = r["doc_len"]
        return out

    assert docstats_map(a) == docstats_map(b)

    # the partitions are the same files: every bucket file and
    # _termdf.parquet byte for byte, manifests apart from lineage, and
    # the fast path's partition hash is the sha256 of its bucket files'
    # sha256 hex digests in bucket order
    def bucket_no(f):
        return int(f[len("bucket=") : -len(".parquet")])

    for p in range(4):
        pa_, pb = (os.path.join(d, "parts", f"part={p}") for d in (a, b))
        fa, fb = (sorted(f for f in os.listdir(d) if f.endswith(".parquet")) for d in (pa_, pb))
        assert fa == fb and "_termdf.parquet" in fa, p
        for f in fa:
            assert _sha(os.path.join(pa_, f)) == _sha(os.path.join(pb, f)), (p, f)
        ma, mb = (json.load(open(os.path.join(d, "manifest.json"))) for d in (pa_, pb))
        assert ma.pop("lineage") == "fast-path" and mb.pop("lineage") != "fast-path"
        assert ma == mb, p
        digests = "".join(
            _sha(os.path.join(pa_, f))
            for f in sorted((f for f in fa if f.startswith("bucket=")), key=bucket_no)
        )
        assert ma["file_sha256"] == hashlib.sha256(digests.encode()).hexdigest(), p


def test_resumable_with_id_column_input(tmp_path):
    """Resumable build over a (doc_id, text) table (documents shape)
    agrees with the fast path on stats and postings."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from cb import corpus as cm
    from cb.build import build_index

    tbl = cm.generate_corpus(80, seed=42)
    wid = cm.with_identity(tbl)
    docs = pa.table({"doc_id": wid["doc_id"], "text": wid["content"]})
    src = tmp_path / "docs"
    src.mkdir()
    pq.write_table(docs.slice(0, 40), str(src / "a.parquet"))
    pq.write_table(docs.slice(40, 40), str(src / "b.parquet"))

    a = str(tmp_path / "fast")
    b = str(tmp_path / "resum")
    build_index(str(src), a, text_col="text", id_col="doc_id", num_parts=4)
    build_index_resumable(str(src), b, text_col="text", id_col="doc_id", num_parts=4)
    from cb.build import IndexMeta

    ma, mb = IndexMeta(a), IndexMeta(b)
    assert (ma.n_docs, ma.total_tokens, ma.avgdl) == (mb.n_docs, mb.total_tokens, mb.avgdl)

    from cb.shard import LocalSearcher

    sa, sb = LocalSearcher(a), LocalSearcher(b)
    for q in ("import", "def merge", "getValue"):
        assert sa.query(q, 10, algo="wand") == sb.query(q, 10, algo="wand")


def test_incremental_append(corpus_files, tmp_path):
    """The reference's continuous-ingest story (offset checkpoints,
    MasterScheduler incremental shards) maps to: grow the input file
    list and re-run the resumable build — only NEW shards are
    tokenized (old shard manifests skip), partitions re-merge from the
    durable partials, and the result is byte-identical to a fresh build
    over the full corpus."""
    import glob

    all_files = sorted(glob.glob(os.path.join(corpus_files, "*.parquet")))
    assert len(all_files) == 4
    inc = str(tmp_path / "inc")
    # phase 1: first two shards only
    build_index_resumable(all_files[:2], inc, num_parts=4)
    from cb.build import IndexMeta

    assert IndexMeta(inc).n_docs == 100  # half the corpus

    # phase 2: append the remaining shards
    from cb import resumable as rz

    mtimes_before = {}
    for s in (0, 1):
        p = os.path.join(inc, "_shuffle", f"shard={s}", "manifest.json")
        mtimes_before[s] = os.stat(p).st_mtime_ns
    build_index_resumable(all_files, inc, num_parts=4)
    # old shards were skipped, not re-tokenized
    for s in (0, 1):
        p = os.path.join(inc, "_shuffle", f"shard={s}", "manifest.json")
        assert os.stat(p).st_mtime_ns == mtimes_before[s]

    fresh = str(tmp_path / "fresh")
    build_index_resumable(all_files, fresh, num_parts=4)
    fa, fb = _index_files(inc), _index_files(fresh)
    for k in sorted(fa):
        if k.endswith(".parquet"):
            assert _sha(fa[k]) == _sha(fb[k]), k
    ma, mb = IndexMeta(inc), IndexMeta(fresh)
    assert (ma.n_docs, ma.total_tokens, ma.avgdl) == (mb.n_docs, mb.total_tokens, mb.avgdl)


def test_watch_loop_incremental(corpus_files, tmp_path):
    """Two watch ticks over a GROWING directory: tick 0 indexes the
    initial files, a file lands between ticks, tick 1 re-indexes
    incrementally (old shards skip) — final index byte-identical to a
    fresh build over everything (the continuous-shoveling parity)."""
    import glob
    import shutil

    from cb import resumable as rz

    src = str(tmp_path / "incoming")
    os.makedirs(src)
    all_files = sorted(glob.glob(os.path.join(corpus_files, "*.parquet")))
    for f in all_files[:2]:
        shutil.copy(f, src)
    idx = str(tmp_path / "idx")
    seen = []

    def grow(_interval):
        # simulate a file arriving while the watcher sleeps
        if len(seen) == 1:
            for f in all_files[2:]:
                shutil.copy(f, src)

    def record(tick, meta):
        seen.append((tick, meta.n_docs if meta else 0))

    rz.watch(src, idx, max_ticks=2, sleep_fn=grow, on_tick=record)
    assert seen[0][1] == 100 and seen[1][1] == 200  # half then full corpus

    fresh = str(tmp_path / "fresh")
    build_index_resumable(sorted(glob.glob(os.path.join(src, "*.parquet"))), fresh, num_parts=rz.build.DEFAULT_NUM_PARTS)
    fa, fb = _index_files(idx), _index_files(fresh)
    keys = {k for k in fa if k.endswith(".parquet")}
    assert keys == {k for k in fb if k.endswith(".parquet")}
    for k in sorted(keys):
        assert _sha(fa[k]) == _sha(fb[k]), k


def test_watch_quiet_tick_noop(corpus_files, tmp_path):
    """An unchanged directory between ticks must not rewrite anything."""
    from cb import resumable as rz

    import glob
    import shutil

    src = str(tmp_path / "incoming")
    os.makedirs(src)
    for f in sorted(glob.glob(os.path.join(corpus_files, "*.parquet")))[:2]:
        shutil.copy(f, src)
    idx = str(tmp_path / "idx")
    rz.watch(src, idx, max_ticks=1, sleep_fn=lambda _s: None)
    mtimes = {
        k: os.stat(p).st_mtime_ns
        for k, p in _index_files(idx).items()
        if k.endswith(".parquet")
    }
    rz.watch(src, idx, max_ticks=2, sleep_fn=lambda _s: None)
    after = _index_files(idx)
    for k, mt in mtimes.items():
        assert os.stat(after[k]).st_mtime_ns == mt, f"{k} rewritten on quiet tick"


def test_chaos_random_wounds_resume_byte_identical(corpus_files, tmp_path):
    """Randomized crash-recovery soak: inflict random combinations of
    wounds (deleted partition dirs, deleted docstats shards, deleted or
    truncated shuffle manifests, stale part files) and assert the
    resumed build is byte-identical to the reference every time."""
    import glob
    import json
    import random
    import shutil

    files = sorted(glob.glob(os.path.join(corpus_files, "*.parquet")))
    ref_dir = str(tmp_path / "ref")
    build_index_resumable(files, ref_dir, num_parts=4)
    ref = {k: _sha(p) for k, p in _index_files(ref_dir).items() if k.endswith(".parquet")}

    rng = random.Random(7)
    for trial in range(4):
        idx = str(tmp_path / f"t{trial}")
        build_index_resumable(files, idx, num_parts=4)
        # wound it
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(["part", "docstats", "manifest", "garbage"])
            if kind == "part":
                p = rng.randrange(4)
                shutil.rmtree(os.path.join(idx, "parts", f"part={p}"), ignore_errors=True)
            elif kind == "docstats":
                s = rng.randrange(len(files))
                f = os.path.join(idx, "docstats", f"shard={s}.parquet")
                if os.path.exists(f):
                    os.remove(f)
                m = os.path.join(idx, "_shuffle", f"shard={s}", "manifest.json")
                if os.path.exists(m):
                    os.remove(m)
            elif kind == "manifest":
                s = rng.randrange(len(files))
                m = os.path.join(idx, "_shuffle", f"shard={s}", "manifest.json")
                if os.path.exists(m):
                    with open(m, "w") as fh:
                        fh.write("{")  # truncated write (crash mid-publish)
            else:
                # stray uncommitted file a crashed task might leave
                with open(os.path.join(idx, "parts", "part=0", "bucket=0.parquet.tmp"), "wb") as fh:
                    fh.write(b"garbage")
        build_index_resumable(files, idx, num_parts=4)
        got = {k: _sha(p) for k, p in _index_files(idx).items()
               if k.endswith(".parquet")}
        assert got == ref, f"trial {trial} diverged"


def test_empty_corpus_build(tmp_path):
    """A zero-document corpus builds a valid, queryable (empty) index."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from cb.build import build_index
    from cb.shard import LocalSearcher

    empty = pa.table(
        {
            "repo": pa.array([], type=pa.string()),
            "path": pa.array([], type=pa.string()),
            "commit": pa.array([], type=pa.string()),
            "lang": pa.array([], type=pa.string()),
            "content": pa.array([], type=pa.string()),
        }
    )
    src = tmp_path / "c.parquet"
    pq.write_table(empty, str(src))
    idx = str(tmp_path / "idx")
    meta = build_index(str(src), idx, num_parts=4)
    assert meta.n_docs == 0 and meta.avgdl == 0.0
    s = LocalSearcher(idx)
    assert s.query("anything", 10) == []


def test_stage_bodies_idempotent(corpus_files, tmp_path):
    """Re-running a stage body (simulating a Ray task retry) leaves
    byte-identical outputs."""
    import glob

    idx = str(tmp_path / "idx")
    build_index_resumable(corpus_files, idx, num_parts=4)
    ref = {k: _sha(p) for k, p in _index_files(idx).items() if k.endswith(".parquet")}

    # retry stage A on shard 0 with its manifest deleted (forces rerun)
    import pyarrow as pa

    from cb import resumable as rz

    files = sorted(glob.glob(os.path.join(corpus_files, "*.parquet")))
    os.unlink(os.path.join(idx, "_shuffle", "shard=0", "manifest.json"))
    rz.tokenize_shard(
        pa.table({"shard": [0], "path": [files[0]]}),
        shuffle_dir=os.path.join(idx, "_shuffle"),
        index_dir=idx,
        text_col="content",
        id_col=None,
        num_parts=4,
        range_bits=4,
    )
    # retry stage B on partition 1 unconditionally (wrong-lineage manifest)
    os.unlink(os.path.join(idx, "parts", "part=1", "manifest.json"))
    rz.merge_partition(
        pa.table({"part": [1]}),
        shuffle_dir=os.path.join(idx, "_shuffle"),
        index_dir=idx,
        avgdl=ref and __import__("cb.build", fromlist=["IndexMeta"]).IndexMeta(idx).avgdl,
        lineage_tag="retry",
        num_shards=4,
    )
    got = {k: _sha(p) for k, p in _index_files(idx).items() if k.endswith(".parquet")}
    assert got == ref


def test_modified_input_rebuilds_cleanly(corpus_files, tmp_path):
    """A MODIFIED input shard (stale lineage) must fully replace its old
    tokenization: stale part files are dropped before re-tokenize, so
    the re-built index is byte-identical to a fresh build over the new
    corpus (no ghost postings from the old file contents)."""
    import glob
    import shutil

    src = str(tmp_path / "src")
    shutil.copytree(corpus_files, src)
    files = sorted(glob.glob(os.path.join(src, "*.parquet")))
    idx = str(tmp_path / "idx")
    build_index_resumable(files, idx, num_parts=4)

    # modify shard 1: keep only its first 20 docs (shrinks its term set,
    # so a stale part file would carry postings for now-absent docs)
    t = pq.read_table(files[1]).slice(0, 20)
    pq.write_table(t, files[1])
    build_index_resumable(files, idx, num_parts=4)

    fresh = str(tmp_path / "fresh")
    build_index_resumable(files, fresh, num_parts=4)
    fa, fb = _index_files(idx), _index_files(fresh)
    keys_a = {k for k in fa if k.endswith(".parquet")}
    keys_b = {k for k in fb if k.endswith(".parquet")}
    assert keys_a == keys_b
    for k in sorted(keys_a):
        assert _sha(fa[k]) == _sha(fb[k]), k


def test_shrunk_input_list_drops_orphans(corpus_files, tmp_path):
    """Rebuilding with a SHRUNK input list must not merge orphaned shard
    dirs or keep their docstats (the stale-glob hazard)."""
    import glob

    files = sorted(glob.glob(os.path.join(corpus_files, "*.parquet")))
    idx = str(tmp_path / "idx")
    build_index_resumable(files, idx, num_parts=4)
    build_index_resumable(files[:2], idx, num_parts=4)

    fresh = str(tmp_path / "fresh")
    build_index_resumable(files[:2], fresh, num_parts=4)
    fa, fb = _index_files(idx), _index_files(fresh)
    keys_a = {k for k in fa if k.endswith(".parquet") and not k.startswith("_shuffle")}
    keys_b = {k for k in fb if k.endswith(".parquet") and not k.startswith("_shuffle")}
    assert keys_a == keys_b
    for k in sorted(keys_a):
        assert _sha(fa[k]) == _sha(fb[k]), k
    from cb.build import IndexMeta

    assert IndexMeta(idx).n_docs == IndexMeta(fresh).n_docs == 100


def test_rebuild_clears_stale_partition_artifacts(tmp_path):
    """Rebuild into the same index dir where a term partition receives
    ZERO buckets: the previous build's manifest.json/_termdf.parquet for
    that partition must not survive (stale df overlays / phantom
    postings)."""
    import pyarrow as pa
    from cb.build import term_partition

    src1 = str(tmp_path / "a.parquet")
    pq.write_table(
        pa.Table.from_pylist(
            [{"doc_id": i, "text": f"alpha{i} beta{i} gamma{i}"} for i in range(50)]
        ),
        src1,
    )
    idx = str(tmp_path / "idx")
    build_index(src1, idx, text_col="text", id_col="doc_id", num_parts=4)
    # second corpus: ONE term -> exactly one live partition
    keep_part = term_partition("solo", 4)
    src2 = str(tmp_path / "b.parquet")
    pq.write_table(
        pa.Table.from_pylist([{"doc_id": 1, "text": "solo"}]), src2
    )
    build_index(src2, idx, text_col="text", id_col="doc_id", num_parts=4)
    for p in range(4):
        pdir = os.path.join(idx, "parts", f"part={p}")
        has_manifest = os.path.exists(os.path.join(pdir, "manifest.json"))
        has_termdf = os.path.exists(os.path.join(pdir, "_termdf.parquet"))
        has_buckets = any(
            f.startswith("bucket=") for f in (os.listdir(pdir) if os.path.isdir(pdir) else [])
        )
        if p == keep_part:
            assert has_manifest and has_termdf and has_buckets
        else:
            assert not has_manifest and not has_termdf and not has_buckets, p

def test_rebuild_clears_stale_docstats(tmp_path):
    """Rebuild into the same index dir with a corpus that populates
    FEWER doc-range buckets: docstats/ must hold only this build's
    bucket files (DocStats.load concatenates every parquet — phantom
    docs would mis-route federated deletes and corrupt analytics)."""
    import numpy as np
    import pyarrow as pa

    from cb.shard import DocStats

    src1 = str(tmp_path / "a.parquet")
    # ids spread across the high bits -> docstats buckets 0..15
    pq.write_table(
        pa.Table.from_pylist(
            [{"doc_id": i << 59, "text": f"alpha{i} beta{i}"} for i in range(16)]
        ),
        src1,
    )
    idx = str(tmp_path / "idx")
    build_index(src1, idx, text_col="text", id_col="doc_id", num_parts=4)
    ddir = os.path.join(idx, "docstats")
    assert len(os.listdir(ddir)) == 16
    # rebuild: one doc in bucket 0
    src2 = str(tmp_path / "b.parquet")
    pq.write_table(
        pa.Table.from_pylist([{"doc_id": 1, "text": "solo"}]), src2
    )
    build_index(src2, idx, text_col="text", id_col="doc_id", num_parts=4)
    assert os.listdir(ddir) == ["bucket=0.parquet"]
    st = DocStats.load(idx)
    assert st.n_docs == 1 and list(st.ids) == [1]


def test_resumable_after_fastpath_clears_bucket_docstats(tmp_path, corpus_files):
    """A resumable build into a dir previously used by the fast path
    must drop the fast path's bucket=*.parquet docstats (they would
    double-count against the resumable shard= files)."""
    import glob as _glob

    from cb.shard import DocStats

    files = sorted(_glob.glob(os.path.join(corpus_files, "*.parquet")))
    idx = str(tmp_path / "idx")
    build_index(files[0], idx, num_parts=4)
    assert _glob.glob(os.path.join(idx, "docstats", "bucket=*.parquet"))
    build_index_resumable([files[0]], idx, num_parts=4)
    assert not _glob.glob(os.path.join(idx, "docstats", "bucket=*.parquet"))
    n = pq.read_table(files[0]).num_rows
    assert DocStats.load(idx).n_docs == n
