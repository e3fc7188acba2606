"""Checkpointed, resumable index build (north_rule: "resume without
recompute", the analog of the reference's transactional offset advance —
/root/reference/src/ConveyorBelt.Tooling/Scheduling/MasterScheduler.cs:80-87
and the mid-file ParseCursor byte offsets, FileOffset.cs:10-82).

Two stages, each idempotent and manifest-guarded, exchanging data
through durable, deterministically-named shuffle files (the map-side /
reduce-side split of an external shuffle):

  stage A  one task per INPUT SHARD (corpus parquet file):
           tokenize once -> partial postings split by term partition ->
           ``shuffle/shard=<s>/part=<p>.parquet`` + docstats ->
           ``<index>/docstats/shard=<s>.parquet`` + shard manifest
           (lineage = input path/size/mtime).  A resumed build skips
           shards whose manifest matches.
  driver   aggregates shard manifests -> ``_global.json`` (N, avgdl).
  stage B  one task per TERM PARTITION: read its shuffle files, sort,
           encode (delta+varint + block bounds), atomic write + manifest
           (lineage = the set of stage-A shard manifests).  A resumed
           build skips partitions whose manifest matches.

Both stages run as ``map_batches`` over small control datasets (one row
per shard / per partition) — Ray Data schedules, retries and
backpressures them like any other stage; the heavy data moves through
files, which is what makes a driver restart resumable.  On a cluster the
shuffle dir lives on shared storage.

Fresh build and resumed build produce byte-identical indexes
(deterministic encoding + atomic write-audit-publish); tests prove it.

INCREMENTAL INGEST follows for free: calling
:func:`build_index_resumable` again with a GROWN input list re-tokenizes
only the new shards (old shard manifests match and skip), re-merges
partitions from the durable partials, refreshes N/avgdl, and yields
an index byte-identical to a fresh build over the full corpus — the
engine's analog of the reference's incremental
offset-checkpointed shoveling (MasterScheduler.cs:80-87).
"""

from __future__ import annotations

import glob
import json
import os
from functools import partial

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from . import build, manifest

DEFAULT_BATCH = 512


def _shard_manifest_path(shuffle_dir: str, shard: int) -> str:
    return os.path.join(shuffle_dir, f"shard={shard}", "manifest.json")


def _file_lineage(path: str) -> dict:
    st = os.stat(path)
    return {"path": os.path.abspath(path), "size": st.st_size, "mtime_ns": st.st_mtime_ns}


def tokenize_shard(
    batch: pa.Table,
    *,
    shuffle_dir: str,
    index_dir: str,
    text_col: str,
    id_col: str | None,
    num_parts: int,
    range_bits: int,
) -> pa.Table:
    """Stage-A body: rows are (shard, path) control records."""
    out = []
    for shard, path in zip(batch["shard"].to_pylist(), batch["path"].to_pylist()):
        mpath = _shard_manifest_path(shuffle_dir, shard)
        lineage = _file_lineage(path)
        existing = manifest.read(mpath)
        if existing and existing.get("status") == "done" and existing.get("lineage") == lineage:
            out.append({k: [v] for k, v in existing.items() if k in ("shard", "n_docs", "total_tokens")} | {"skipped": [True]})
            continue
        # RE-tokenize (first run, or stale lineage): invalidate the old
        # manifest FIRST, then drop the old tokenization's part files —
        # a stale part=p.parquet from a modified input would otherwise be
        # silently merged alongside the fresh ones in stage B, and a
        # crash between the two steps must force a full shard redo.
        if os.path.exists(mpath):
            os.remove(mpath)
        for stale in glob.glob(os.path.join(shuffle_dir, f"shard={shard}", "part=*.parquet")):
            os.remove(stale)
        cols = None
        if id_col is not None:
            cols = [id_col, text_col]
        tbl = pq.read_table(path, columns=cols)
        if id_col is None:
            from . import corpus

            tbl = corpus.with_identity(tbl)
            use_id = "doc_id"
        else:
            use_id = id_col
        sdir = os.path.join(shuffle_dir, f"shard={shard}")
        os.makedirs(sdir, exist_ok=True)
        n_docs = 0
        total_tokens = 0
        partials = []
        stats_tabs = []
        for off in range(0, tbl.num_rows, DEFAULT_BATCH):
            chunk = tbl.slice(off, DEFAULT_BATCH)
            norm = pa.table({"doc_id": chunk[use_id].cast(pa.int64()), "text": chunk[text_col]})
            partials.append(
                build.tokenize_partials(norm, num_parts=num_parts, range_bits=range_bits)
            )
            st = build.doc_stats(norm)
            stats_tabs.append(st)
            n_docs += st.num_rows
            total_tokens += sum(st["doc_len"].to_pylist())
        allp = pa.concat_tables(partials) if partials else None
        parts_written = []
        if allp is not None and allp.num_rows:
            for p in sorted(set(allp["part"].to_pylist())):
                import pyarrow.compute as pc

                sub = allp.filter(pc.equal(allp["part"], p))
                fpath = os.path.join(sdir, f"part={p}.parquet")
                pq.write_table(sub, fpath + ".tmp")
                os.replace(fpath + ".tmp", fpath)
                parts_written.append(int(p))
        stats = (
            pa.concat_tables(stats_tabs)
            if stats_tabs
            else pa.table({"doc_id": pa.array([], pa.int64()), "doc_len": pa.array([], pa.int32())})
        )
        os.makedirs(os.path.join(index_dir, "docstats"), exist_ok=True)
        spath = os.path.join(index_dir, "docstats", f"shard={shard}.parquet")
        pq.write_table(stats, spath + ".tmp")
        os.replace(spath + ".tmp", spath)
        m = {
            "shard": int(shard),
            "status": "done",
            "lineage": lineage,
            "n_docs": int(n_docs),
            "total_tokens": int(total_tokens),
            "parts": parts_written,
        }
        manifest.write_atomic(mpath, m)
        out.append({"shard": [int(shard)], "n_docs": [int(n_docs)], "total_tokens": [int(total_tokens)], "skipped": [False]})
    return pa.concat_tables([pa.table(o) for o in out])


def merge_partition(
    batch: pa.Table,
    *,
    shuffle_dir: str,
    index_dir: str,
    avgdl: float,
    lineage_tag: str,
    num_shards: int,
) -> pa.Table:
    """Stage-B body: rows are (part,) control records."""
    rows = []
    for p in batch["part"].to_pylist():
        pdir = os.path.join(index_dir, "parts", f"part={p}")
        mpath = os.path.join(pdir, "manifest.json")
        if manifest.is_done(mpath, lineage=lineage_tag):
            m = manifest.read(mpath)
            # wrap to one-element lists: write_partition() below returns
            # its manifest pre-wrapped the same way, so both branches
            # yield identical pa.table() schemas
            rows.append({k: [v] for k, v in m.items()})
            continue
        # only shards in the CURRENT input list contribute — a bare
        # shard=*/ glob would also sweep up orphaned dirs left by a
        # shrunk or reordered input list
        files = [
            f
            for s in range(num_shards)
            for f in [os.path.join(shuffle_dir, f"shard={s}", f"part={p}.parquet")]
            if os.path.exists(f)
        ]
        if files:
            allp = pa.concat_tables([pq.read_table(f) for f in files])
            flat = build._explode_partials(allp)
            tbl = build.encode_partition_rows(flat)
        else:
            tbl = pa.Table.from_pylist([], schema=build._posting_file_schema())
        m = build.write_partition(tbl, index_dir, int(p), avgdl, lineage_tag)
        rows.append(m)
    return pa.concat_tables([pa.table(r) for r in rows])


def watch_tick(
    input_dir: str,
    index_dir: str,
    last_sig,
    *,
    text_col: str = "content",
    id_col: str | None = None,
    num_parts: int = build.DEFAULT_NUM_PARTS,
    range_bits: int = build.DEFAULT_RANGE_BITS,
    stop_after: str | None = None,
) -> tuple:
    """ONE poll of ``input_dir``: rebuild (resumable) iff the parquet
    file list or any (size, mtime) changed since ``last_sig``.  Returns
    ``(meta_or_None, new_sig)`` — pass ``new_sig`` back on the next
    tick.  ``stop_after`` is the F3 stop-offset guard (the reference's
    explicit end-offset config, BaseScheduler.cs:25-33): input files
    whose basename sorts AFTER it are never scheduled, bounding an
    otherwise-unbounded chase."""
    sig_parts = []
    for f in sorted(glob.glob(os.path.join(input_dir, "*.parquet"))):
        if stop_after is not None and os.path.basename(f) > stop_after:
            continue  # beyond the configured stop offset
        try:
            st = os.stat(f)
        except FileNotFoundError:
            continue  # deleted between glob and stat; pick up next tick
        sig_parts.append((f, st.st_size, st.st_mtime_ns))
    files = [f for f, _, _ in sig_parts]
    sig = tuple(sig_parts)
    if not files or sig == last_sig:
        return None, (last_sig if not files else sig)
    meta = build_index_resumable(
        files, index_dir,
        text_col=text_col, id_col=id_col,
        num_parts=num_parts, range_bits=range_bits,
    )
    # filtered search must keep covering newly indexed docs: the docmeta
    # side table (if one was built for this index) refreshes whenever
    # the corpus lineage changed
    from . import docmeta as docmeta_mod

    docmeta_mod.refresh_docmeta(index_dir, files)
    return meta, sig


def watch(
    input_dir: str,
    index_dir: str,
    *,
    interval_s: float = 30.0,
    max_ticks: int | None = None,
    sleep_fn=None,
    on_tick=None,
    text_col: str = "content",
    id_col: str | None = None,
    num_parts: int = build.DEFAULT_NUM_PARTS,
    range_bits: int = build.DEFAULT_RANGE_BITS,
    stop_after: str | None = None,
) -> build.IndexMeta | None:
    """Continuous-ingest driver loop (S5/W4 parity): poll ``input_dir``
    and re-run the resumable build whenever the parquet file list or any
    file's (size, mtime) changes — the engine analog of the reference's
    30-second scheduler tick + chased blob offsets
    (/root/reference/src/ConveyorBelt.Worker/WorkerRole.cs:233-247,
    FileOffset byte cursors).  Unchanged shards skip via their
    manifests, so a quiet tick that still fires costs one manifest scan;
    each rebuilt index is byte-identical to a fresh build over the
    corpus-so-far (tests).

    ``max_ticks``/``sleep_fn``/``on_tick`` exist for testing and
    embedding; the CLI (`python -m cb.cli watch`) runs it forever.
    ``stop_after`` bounds the chase (F3 stop-offset guard): files whose
    basename sorts after it are never scheduled.
    Returns the last IndexMeta built (None if no tick saw input files).
    """
    import time

    if sleep_fn is None:
        sleep_fn = time.sleep
    last_sig = None
    meta = None
    tick = 0
    while max_ticks is None or tick < max_ticks:
        new_meta, last_sig = watch_tick(
            input_dir, index_dir, last_sig,
            text_col=text_col, id_col=id_col,
            num_parts=num_parts, range_bits=range_bits,
            stop_after=stop_after,
        )
        if new_meta is not None:
            meta = new_meta
        if on_tick is not None:
            on_tick(tick, meta)
        tick += 1
        if max_ticks is None or tick < max_ticks:
            sleep_fn(interval_s)
    return meta


def _remove_orphan_shards(shuffle_dir: str, index_dir: str, num_shards: int) -> None:
    """Drop shuffle dirs + docstats files of shards beyond the current
    input list (a shrunk list must not leave their postings/doc-stats
    behind to be merged or loaded)."""
    import shutil

    for d in glob.glob(os.path.join(shuffle_dir, "shard=*")):
        try:
            s = int(os.path.basename(d).split("=", 1)[1])
        except ValueError:
            continue
        if s >= num_shards:
            shutil.rmtree(d, ignore_errors=True)
    for f in glob.glob(os.path.join(index_dir, "docstats", "shard=*.parquet")):
        try:
            s = int(os.path.basename(f)[len("shard="):-len(".parquet")])
        except ValueError:
            continue
        if s >= num_shards:
            os.remove(f)
    # a previous FAST-PATH build into this dir leaves bucket=*.parquet
    # doc-stats; DocStats.load concatenates every docstats parquet, so
    # they would double-count against this build's shard= files
    for f in glob.glob(os.path.join(index_dir, "docstats", "bucket=*.parquet")):
        os.remove(f)


def build_index_resumable(
    input_files: list[str] | str,
    index_dir: str,
    *,
    shuffle_dir: str | None = None,
    text_col: str = "content",
    id_col: str | None = None,
    num_parts: int = build.DEFAULT_NUM_PARTS,
    range_bits: int = build.DEFAULT_RANGE_BITS,
) -> build.IndexMeta:
    """Checkpointed build over a list of corpus parquet files.

    Re-running after a crash (or file deletion) recomputes ONLY missing/
    stale shards and partitions; finished units are skipped via their
    manifests.

    Scale note: stage B is one task per TERM PARTITION (whole-partition
    memory), unlike the fast path's per-(part, bucket) grain — the
    durable partials are per (shard, part), so bucket-grained merge
    tasks would re-read every shard partial 2**range_bits times.  Size
    ``num_parts`` (auto_num_parts: ~256k docs/partition) so a partition
    fits a worker; see DESIGN_SCALE.md "Round-4 build grain".
    """
    if isinstance(input_files, str):
        input_files = sorted(
            glob.glob(os.path.join(input_files, "*.parquet"))
            if os.path.isdir(input_files)
            else [input_files]
        )
    if shuffle_dir is None:
        shuffle_dir = os.path.join(index_dir, "_shuffle")
    os.makedirs(index_dir, exist_ok=True)

    # stage A: one task per input shard
    shards = ray.data.from_items(
        [{"shard": i, "path": os.path.abspath(p)} for i, p in enumerate(input_files)]
    )
    a = shards.map_batches(
        partial(
            tokenize_shard,
            shuffle_dir=shuffle_dir,
            index_dir=index_dir,
            text_col=text_col,
            id_col=id_col,
            num_parts=num_parts,
            range_bits=range_bits,
        ),
        batch_format="pyarrow",
        batch_size=1,
    )
    stats = a.take_all()
    n_docs = sum(r["n_docs"] for r in stats)
    total_tokens = sum(r["total_tokens"] for r in stats)
    _remove_orphan_shards(shuffle_dir, index_dir, len(input_files))
    build.write_global(index_dir, n_docs, total_tokens, num_parts, range_bits)
    avgdl = (total_tokens / n_docs) if n_docs else 0.0

    # lineage tag for stage B: the exact set of stage-A shard manifests
    shard_ms = []
    for i in range(len(input_files)):
        m = manifest.read(_shard_manifest_path(shuffle_dir, i))
        shard_ms.append((i, m.get("lineage") if m else None))
    lineage_tag = "sha256:" + __import__("hashlib").sha256(
        json.dumps(shard_ms, sort_keys=True).encode()
    ).hexdigest()[:16]

    # stage B: one task per term partition
    parts = ray.data.from_items([{"part": p} for p in range(num_parts)])
    b = parts.map_batches(
        partial(
            merge_partition,
            shuffle_dir=shuffle_dir,
            index_dir=index_dir,
            avgdl=avgdl,
            lineage_tag=lineage_tag,
            num_shards=len(input_files),
        ),
        batch_format="pyarrow",
        batch_size=1,
    )
    b.materialize()
    return build.IndexMeta(index_dir)
