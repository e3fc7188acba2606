"""Federated per-day / per-type indexes + exact cross-index search.

Reference parity: ConveyorBelt routes every indexed record to a
per-day Elasticsearch index named by ``IndexNamer``
(/root/reference/src/ConveyorBelt.Tooling/IndexNamer.cs:21-41, date
chars sliced from the ISO timestamp, optional prefix and
one-index-per-type mode), pushes each batch to the index of its
``@timestamp`` (NestBatchPusher.cs:66-75), and enumerates the
day-index set a query must span via ``MasterScheduler.GetIndexNames``
(MasterScheduler.cs:241-259).  Here the same lifecycle is Ray-Data
native:

- ``build_federation``: ONE streaming pass over the corpus derives the
  routing key per row (vectorized strftime on unique values through the
  byte-parity :func:`index_name`), hive-partitions the staging write
  (``write_parquet(partition_cols=...)``), then runs one distributed
  index build per key — each sub-index is an ordinary ``cb.build``
  index, so every serving/compaction/tombstone feature applies per day.
- A final per-term-partition merge job writes federation-global df
  summaries (``feddf/part=<p>.parquet``) — num_parts small tasks, no
  driver-side vocabulary.
- ``FederatedEngine``: a :class:`cb.shard.QueryEngine` per sub-index,
  constructed with ``fed=`` so every server scores with
  federation-global ``(N, avgdl, df)`` — ES ``dfs_query_then_fetch``.
  Because doc ids are content-derived and each doc lives in exactly one
  sub-index, the fan-out merge is bitwise identical to one monolithic
  index over the union corpus (tested; SQL oracle is the monolithic
  BM25 query).  Time-ranged queries prune to the day-indexes that
  overlap (the ``GetIndexNames`` read path), so a "last 2 days" query
  on a year-long federation touches 2/365ths of the postings.
- ``FederatedMultiFieldEngine``: the multifield closure; each member
  is a one-actor :class:`cb.shard.ServerPool` of
  :class:`cb.multifield.MultiFieldServer`, constructed with ``fed=``.
  Both engines share member selection, the cross-member fan-out,
  metrics and shutdown; every member, like every engine, serves
  through a ``ServerPool``.

Scale: each sub-index build is an independent distributed job over only
its partition's staging files; the staging write is the only full pass.
Query fan-out sends to every server of every selected engine, then
waits ONCE (:func:`cb.rpc.get`) — cross-index parallelism equals
in-index scatter-gather parallelism.
"""

from __future__ import annotations

import json
import os
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from . import build as build_mod
from . import analyze, manifest, rpc
from .build import DEFAULT_NUM_PARTS, DEFAULT_RANGE_BITS
from .aggs import (
    AggRoute, _collapse_from_top_hits, _jlh_rank, _merge_sig, _page_composite,
    _pct_ranges, _pct_ranks_from_counts,
)
from .shard import (
    QueryEngine, ServerPool, _merge_topk, _query_many, _terms_clause, _timed_topk,
    _wait_topk, _wait_topk_each, read_term_df,
)
from .telemetry import Telemetry, merge_snapshots

KEY_COL = "_fed_key"


def index_name(
    time_iso: str | None,
    type_name: str,
    prefix: str = "",
    one_index_per_type: bool = False,
) -> str:
    """Byte-parity port of ``IndexNamer.BuildName(string, string)``
    (IndexNamer.cs:26-41): date chars [0:4]+[5:7]+[8:10] of the ISO
    string, lowercased type name, optional prefix."""
    type_name = type_name.lower()
    if time_iso is None or len(time_iso) < 10:
        return f"{prefix}{type_name}" if one_index_per_type else prefix
    d = time_iso[0:4] + time_iso[5:7] + time_iso[8:10]
    return f"{prefix}{type_name}-{d}" if one_index_per_type else f"{prefix}{d}"


def get_index_names(
    last_offset_iso: str | None,
    type_name: str,
    prefix: str = "",
    one_index_per_type: bool = False,
    days_to_go_back: int = 7,
    today_iso: str | None = None,
    static_name: str | None = None,
) -> list[str]:
    """The day-index set a query/scheduler must span —
    ``MasterScheduler.GetIndexNames`` (MasterScheduler.cs:241-259):
    static name short-circuits; otherwise every day from the source's
    last offset (default ``days_to_go_back`` ago) through tomorrow.

    Deviation, documented: the reference's LINQ builds every name from
    the SAME offset date (the loop variable ``z`` is ignored —
    MasterScheduler.cs:256-257), returning N copies of one name; this
    implements the evident intent (one name per day)."""
    import datetime as _dt

    if static_name:
        return [static_name]
    today = (
        _dt.date.fromisoformat(today_iso[:10])
        if today_iso
        else _dt.date.today()
    )
    if last_offset_iso is None:
        start = today - _dt.timedelta(days=days_to_go_back)
    else:
        start = _dt.date.fromisoformat(last_offset_iso[:10])
    days = (today + _dt.timedelta(days=1) - start).days + 1
    if days <= 0:
        return []
    out = []
    for x in range(days):
        d = today + _dt.timedelta(days=1) - _dt.timedelta(days=x)
        out.append(index_name(d.isoformat(), type_name, prefix, one_index_per_type))
    return out


def _key_column(
    batch: pa.Table,
    ts_col: str | None,
    route_col: str | None,
    type_name: str,
    prefix: str,
    one_index_per_type: bool,
) -> pa.Array:
    """Routing key per row; names derived on the batch's few UNIQUE
    values through :func:`index_name` (byte-parity path), broadcast by
    dictionary take — no per-row Python."""
    if ts_col is not None:
        iso = pc.strftime(
            batch[ts_col].combine_chunks().cast(pa.timestamp("us")),
            format="%Y-%m-%dT%H:%M:%S",
        )
        enc = pc.dictionary_encode(iso)
        names = [
            index_name(v, type_name, prefix, one_index_per_type)
            for v in enc.dictionary.to_pylist()
        ]
    else:
        enc = pc.dictionary_encode(batch[route_col].combine_chunks().cast(pa.string()))
        names = [
            # null route value -> the bare prefix index, mirroring how a
            # null @timestamp routes in date mode (IndexNamer.cs:29-30)
            # rather than wedging the whole ingest tick on one record
            index_name(None, v if v is not None else "", prefix, one_index_per_type=True)
            for v in enc.dictionary.to_pylist()
        ]
    return pc.take(pa.array(names, type=pa.string()), enc.indices)


_CFG_KEYS = (
    "prefix", "type_name", "one_index_per_type", "routing", "ts_col",
    "route_col", "text_col", "id_col", "num_parts", "range_bits",
    "positions",
)


def _cfg_from(fg: dict) -> dict:
    """Routing/build config out of a loaded fed.json.  ``fields`` is
    optional (multifield federations; absent in pre-round-4 manifests)."""
    cfg = {k: fg[k] for k in _CFG_KEYS}
    cfg["fields"] = fg.get("fields")
    return cfg


def fed_meta_path(fed_dir: str) -> str:
    return os.path.join(fed_dir, "fed.json")


def load_fed_meta(fed_dir: str) -> dict:
    """Read fed.json, REBASING every member ``dir`` onto the fed_dir
    actually being opened.  Members live structurally at
    ``fed_dir/index=<key>`` (see _build_one), but the published dirs
    are whatever path the builder saw — so a federation that was
    snapshot-restored or moved would otherwise silently serve the OLD
    location's files (or crash).  Rebase-on-read makes fed.json
    location-independent without changing the published format."""
    with open(fed_meta_path(fed_dir)) as f:
        fg = json.load(f)
    for e in fg.get("indexes", ()):
        d = e.get("dir")
        if d:
            e["dir"] = os.path.join(fed_dir, os.path.basename(os.path.normpath(d)))
    return fg


def staging_dir(fed_dir: str, name: str) -> str:
    """The per-key slice of the routing pass — each sub-index's corpus
    of record (kept: it carries any metadata columns staged alongside
    id/text, so per-sub-index docmeta derives from ITS slice only)."""
    return os.path.join(fed_dir, "_staging", f"{KEY_COL}={name}")


def _member_docmeta_dir(fg: dict, index_dir: str) -> str:
    """Docmeta home of a federation member: the member index dir itself,
    or the FIRST field's sub-index for multifield members (where
    MultiFieldSearcher._dm reads it)."""
    fields = fg.get("fields")
    if fields:
        from .multifield import field_dir

        return field_dir(index_dir, fields[0])
    return index_dir


def ensure_fed_docmeta(fed_dir: str, cols: list[str]) -> None:
    """Per-sub-index docmeta side tables (filter-context search over a
    federation): each build reads only that sub-index's staging slice —
    no cross-index duplication, metadata shards with the docs."""
    from . import docmeta as docmeta_mod

    fg = load_fed_meta(fed_dir)
    if not fg.get("id_col"):
        raise ValueError(
            "fed docmeta needs an explicit id_col (build_federation "
            "derived ids cannot be joined back to staging rows)"
        )
    for e in fg["indexes"]:
        docmeta_mod.ensure_docmeta(
            _member_docmeta_dir(fg, e["dir"]), staging_dir(fed_dir, e["name"]),
            cols, id_col=fg["id_col"],
        )
    if fg.get("docmeta_cols") != cols:
        # recorded so refresh_federation re-ensures docmeta for the
        # sub-indexes it rebuilds
        fg["docmeta_cols"] = cols
        manifest.write_atomic(fed_meta_path(fed_dir), fg)


def feddf_path(fed_dir: str, part: int, field: str | None = None) -> str:
    if field is not None:
        return os.path.join(fed_dir, "feddf", f"field={field}", f"part={part}.parquet")
    return os.path.join(fed_dir, "feddf", f"part={part}.parquet")


def fed_overlay(
    fed_dir: str, parts: dict | None = None, field: str | None = None
) -> tuple[int, float]:
    """A federation member's scoring overlay (dfs_query_then_fetch):
    returns the federation-global ``(n_docs, avgdl)`` — of ``field`` on
    a multifield federation — and replaces the global df of every
    partition in ``parts`` (term partition -> ShardPartition) with the
    federation-global df of its feddf summary, so member top-k lists
    merge exactly.  The overlays are read per term partition from the
    tiny feddf files, never as a whole-vocabulary object."""
    fg = load_fed_meta(fed_dir)
    st = fg if field is None else fg["field_stats"][field]
    for p, part in (parts or {}).items():
        fp = feddf_path(fed_dir, p, field=field)
        if os.path.exists(fp):
            part.global_df = read_term_df(fp)
    return st["n_docs"], st["avgdl"]


@ray.remote
def _merge_part_df(index_dirs: list[str], part: int, out_path: str) -> int:
    """Federation-global df for one term partition: concat every
    sub-index's tiny ``_termdf.parquet`` summary, one Arrow group-sum.
    num_parts of these run in parallel; each touches only summaries."""
    tabs = []
    for d in index_dirs:
        f = os.path.join(d, "parts", f"part={part}", "_termdf.parquet")
        if os.path.exists(f):
            tabs.append(pq.read_table(f))
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    if not tabs:
        merged = pa.table({"term": pa.array([], pa.string()), "df": pa.array([], pa.int64())})
    else:
        t = pa.concat_tables(tabs)
        # group_by outputs keys FIRST: (term, df_sum)
        merged = (
            t.group_by("term")
            .aggregate([("df", "sum")])
            .rename_columns(["term", "df"])
            .sort_by("term")
        )
    tmp = out_path + ".tmp"
    pq.write_table(merged, tmp)
    os.replace(tmp, out_path)
    return merged.num_rows


def _stage(source, fed_dir: str, cfg: dict, columns: list[str] | None = None) -> None:
    """Routing pass: derive the key per row, hive-partition into
    ``_staging/`` (parquet write mode defaults to append — incremental
    refreshes stage ONLY the new records, old files untouched)."""
    ts_col, route_col = cfg.get("ts_col"), cfg.get("route_col")
    if isinstance(source, (str, list, tuple)):
        cols = columns
        if cols is not None:
            cols = list(dict.fromkeys(cols + [ts_col or route_col]))
        source = ray.data.read_parquet(source, columns=cols)

    def add_key(b: pa.Table) -> pa.Table:
        return b.append_column(
            KEY_COL,
            _key_column(
                b, ts_col, route_col, cfg["type_name"], cfg["prefix"],
                cfg["one_index_per_type"],
            ),
        )

    source.map_batches(add_key, batch_format="pyarrow").write_parquet(
        os.path.join(fed_dir, "_staging"), partition_cols=[KEY_COL]
    )


def _staging_lineage(fed_dir: str) -> dict[str, list]:
    """key -> sorted (file, size) list of its staging slice — the
    change signal for incremental refresh."""
    staging = os.path.join(fed_dir, "_staging")
    out: dict[str, list] = {}
    if not os.path.isdir(staging):
        return out
    for d in os.listdir(staging):
        if not d.startswith(KEY_COL + "="):
            continue
        kdir = os.path.join(staging, d)
        out[d[len(KEY_COL) + 1 :]] = sorted(
            (f, os.path.getsize(os.path.join(kdir, f)))
            for f in os.listdir(kdir)
            if f.endswith(".parquet")
        )
    return out


def _build_one(fed_dir: str, key: str, cfg: dict, swap: bool = False) -> dict:
    """(Re)build one sub-index from its FULL staging slice.  With
    ``swap`` the build lands in ``index=<key>.new`` and replaces the
    old dir only when complete — a crashed refresh leaves the old index
    serving and a re-run rebuilds from scratch."""
    sub_dir = os.path.join(fed_dir, f"index={key}")
    target = sub_dir + ".new" if swap else sub_dir
    if swap and os.path.isdir(target):
        import shutil

        shutil.rmtree(target)  # leftover from a crashed refresh
    if cfg.get("fields"):
        # multifield federation: one sub-index per analyzed field under
        # index=<key>/field=<f> — the mapping-JSON -> per-field indexes
        # story (cb.multifield) per day/type slice
        from . import multifield as mf_mod

        mf_mod.build_multifield(
            staging_dir(fed_dir, key),
            target,
            cfg["fields"],
            id_col=cfg["id_col"],
            num_parts=cfg["num_parts"],
            range_bits=cfg["range_bits"],
            positions=cfg["positions"],
        )
        metas = {
            f: build_mod.IndexMeta(mf_mod.field_dir(target, f))
            for f in cfg["fields"]
        }
        any_meta = metas[cfg["fields"][0]]
        entry_extra = {
            "field_stats": {
                f: {"n_docs": m.n_docs, "total_tokens": m.total_tokens}
                for f, m in metas.items()
            }
        }

        class _M:  # stats carrier for the shared return below
            n_docs = any_meta.n_docs
            total_tokens = sum(m.total_tokens for m in metas.values())

        meta = _M
    else:
        entry_extra = {}
        meta = build_mod.build_index(
            staging_dir(fed_dir, key),
            target,
            text_col=cfg["text_col"],
            id_col=cfg["id_col"],
            columns=[c for c in (cfg["id_col"], cfg["text_col"]) if c],
            num_parts=cfg["num_parts"],
            range_bits=cfg["range_bits"],
            positions=cfg["positions"],
        )
    if swap:
        import shutil

        old = sub_dir + ".old"
        if os.path.isdir(old):
            shutil.rmtree(old)
        # two renames, never a window with NO index dir: a crash
        # between them leaves .old (re-run rebuilds .new and finishes)
        if os.path.isdir(sub_dir):
            os.rename(sub_dir, old)
        os.rename(target, sub_dir)
        if os.path.isdir(old):
            shutil.rmtree(old)
    return {
        "name": key,
        "dir": sub_dir,
        "n_docs": meta.n_docs,
        "total_tokens": meta.total_tokens,
        **entry_extra,
    }


def _publish(fed_dir: str, cfg: dict, indexes: list[dict]) -> dict:
    """feddf merge + fed.json — LAST, so readers only ever see a
    manifest whose indexes and stats are complete."""
    from . import multifield as mf_mod

    fields = cfg.get("fields")
    if fields:
        # per-field df merges + per-field fed-global stats: each field
        # needs its own exact (N, avgdl, df) triple for the most_fields
        # sum to be bitwise the monolithic multifield score
        refs = []
        for f in fields:
            dirs = [mf_mod.field_dir(e["dir"], f) for e in indexes]
            refs += [
                _merge_part_df.remote(dirs, p, feddf_path(fed_dir, p, field=f))
                for p in range(cfg["num_parts"])
            ]
        ray.get(refs)
        field_stats = {}
        for f in fields:
            nd = sum(e["field_stats"][f]["n_docs"] for e in indexes)
            tt = sum(e["field_stats"][f]["total_tokens"] for e in indexes)
            field_stats[f] = {
                "n_docs": nd,
                "total_tokens": tt,
                "avgdl": (float(tt) / float(nd)) if nd else 0.0,
            }
        n_docs = sum(e["n_docs"] for e in indexes)
        total_tokens = sum(e["total_tokens"] for e in indexes)
        fed = {
            "version": 1,
            **cfg,
            "indexes": indexes,
            "n_docs": n_docs,
            "total_tokens": total_tokens,
            "avgdl": 0.0,  # per-field stats are authoritative (field_stats)
            "field_stats": field_stats,
        }
        manifest.write_atomic(fed_meta_path(fed_dir), fed)
        return fed
    dirs = [e["dir"] for e in indexes]
    ray.get(
        [
            _merge_part_df.remote(dirs, p, feddf_path(fed_dir, p))
            for p in range(cfg["num_parts"])
        ]
    )
    n_docs = sum(e["n_docs"] for e in indexes)
    total_tokens = sum(e["total_tokens"] for e in indexes)
    fed = {
        "version": 1,
        **cfg,
        "indexes": indexes,
        "n_docs": n_docs,
        "total_tokens": total_tokens,
        # same int-sum / float-divide as write_global: federation avgdl
        # is BITWISE the monolithic avgdl (required for exact merge)
        "avgdl": (float(total_tokens) / float(n_docs)) if n_docs else 0.0,
    }
    manifest.write_atomic(fed_meta_path(fed_dir), fed)
    return fed


def build_federation(
    source: "ray.data.Dataset | str",
    fed_dir: str,
    *,
    text_col: str = "text",
    id_col: str | None = None,
    ts_col: str | None = None,
    route_col: str | None = None,
    type_name: str = "doc",
    prefix: str = "",
    one_index_per_type: bool = False,
    columns: list[str] | None = None,
    num_parts: int = DEFAULT_NUM_PARTS,
    range_bits: int = DEFAULT_RANGE_BITS,
    positions: bool = True,
    fields: list[str] | None = None,
) -> dict:
    """Build one sub-index per routing-key value under
    ``fed_dir/index=<name>/`` plus federation-global stats.

    Exactly one of ``ts_col`` (per-day indexes, NestBatchPusher's
    ``@timestamp`` routing) or ``route_col`` (one-index-per-type,
    ``EsOneIndexPerType``) must be given.  ``num_parts`` is FIXED
    across sub-indexes (the term->partition hash must agree for the
    federation df merge); ``range_bits`` likewise passed through.
    The routing/build config is recorded in ``fed.json`` so
    :func:`refresh_federation` is self-contained.
    """
    if (ts_col is None) == (route_col is None):
        raise ValueError("exactly one of ts_col / route_col required")
    if fields is not None and id_col is None:
        raise ValueError("multifield federations (fields=) require id_col")
    cfg = {
        "prefix": prefix,
        "type_name": type_name,
        "one_index_per_type": one_index_per_type,
        "routing": "ts" if ts_col else "type",
        "ts_col": ts_col,
        "route_col": route_col,
        "text_col": text_col,
        "id_col": id_col,
        "num_parts": num_parts,
        "range_bits": range_bits,
        "positions": positions,
        "fields": fields,
    }
    if fields and columns is None:
        columns = [id_col] + list(fields)
    _stage(source, fed_dir, cfg, columns)
    indexes = [
        _build_one(fed_dir, key, cfg) for key in sorted(_staging_lineage(fed_dir))
    ]
    return _publish(fed_dir, cfg, indexes)


def init_federation(
    fed_dir: str,
    *,
    text_col: str = "text",
    id_col: str | None = None,
    ts_col: str | None = None,
    route_col: str | None = None,
    type_name: str = "doc",
    prefix: str = "",
    one_index_per_type: bool = False,
    num_parts: int = DEFAULT_NUM_PARTS,
    range_bits: int = DEFAULT_RANGE_BITS,
    positions: bool = True,
    fields: list[str] | None = None,
) -> dict:
    """An EMPTY federation (no sub-indexes yet) — the bootstrap for a
    purely streaming-fed lifecycle: ``init_federation`` once, then every
    record arrives via :func:`ingest_new_shards` ticks.  Keeps the whole
    corpus on the idempotent deterministic staging path (mixing the bulk
    append-mode staging with shard re-staging would duplicate rows on
    crash replay)."""
    if (ts_col is None) == (route_col is None):
        raise ValueError("exactly one of ts_col / route_col required")
    if fields is not None and id_col is None:
        raise ValueError("multifield federations (fields=) require id_col")
    cfg = {
        "prefix": prefix,
        "type_name": type_name,
        "one_index_per_type": one_index_per_type,
        "routing": "ts" if ts_col else "type",
        "ts_col": ts_col,
        "route_col": route_col,
        "text_col": text_col,
        "id_col": id_col,
        "num_parts": num_parts,
        "range_bits": range_bits,
        "positions": positions,
        "fields": fields,
    }
    return _publish(fed_dir, cfg, [])


def refresh_federation(source: "ray.data.Dataset | str", fed_dir: str) -> dict:
    """Incremental federation maintenance — the continuous-ingest loop
    of the reference (EventHub drain -> parse -> push to TODAY's index,
    Worker/WorkerRole + NestBatchPusher): ``source`` holds ONLY new
    records (e.g. a StreamConsumer drain directory); they are routed and
    appended to staging, and ONLY the sub-indexes whose slice changed
    are rebuilt (bounded by those days' data — historical day-indexes
    are untouched bytes on disk).  feddf + fed.json republish last;
    docmeta (if built via :func:`ensure_fed_docmeta`) refreshes for
    changed keys.  Running engines keep serving the OLD federation;
    construct a new :class:`FederatedEngine` to pick up the refresh
    (same contract as delete_docs/compaction)."""
    fg = load_fed_meta(fed_dir)
    cfg = _cfg_from(fg)
    before = _staging_lineage(fed_dir)
    _stage(source, fed_dir, cfg)
    after = _staging_lineage(fed_dir)
    changed = sorted(k for k in after if after[k] != before.get(k))
    entries = {e["name"]: e for e in fg["indexes"]}
    for key in changed:
        entries[key] = _build_one(fed_dir, key, cfg, swap=True)
        cols = fg.get("docmeta_cols")
        if cols:
            from . import docmeta as docmeta_mod

            docmeta_mod.ensure_docmeta(
                _member_docmeta_dir(fg, entries[key]["dir"]),
                staging_dir(fed_dir, key), cols, id_col=fg["id_col"],
            )
    fed = _publish(fed_dir, cfg, [entries[k] for k in sorted(entries)])
    if fg.get("docmeta_cols"):
        fed["docmeta_cols"] = fg["docmeta_cols"]
        manifest.write_atomic(fed_meta_path(fed_dir), fed)
    fed["changed"] = changed
    return fed


def expire_members(fed_dir: str, before_day: str) -> dict:
    """Retention for day-routed federations — the ES ILM delete-phase /
    curator analog (and the reference's whole operating domain: rolling
    time-partitioned log indexes): drop every member whose day key
    sorts before ``before_day`` (YYYYMMDD) and republish feddf +
    fed.json over the survivors, so the federation-global (N, avgdl,
    per-partition df) shrink EXACTLY to the remaining corpus — the
    merged top-k equals a federation freshly built without the expired
    days (bitwise, the delete+compact contract).  Ordering: publish the
    shrunk manifest FIRST, then remove the expired member dirs and
    staging slices — a crash in between leaves a correct federation
    plus orphan bytes, never a manifest naming missing dirs.  Running
    engines keep serving the OLD federation; construct a new one to
    pick up the retention (same contract as refresh/compact)."""
    import re
    import shutil

    if not re.fullmatch(r"\d{8}", before_day):
        # retention is destructive: a malformed cutoff (ISO dashes, a
        # bare month) would lexicographically no-op or misfire silently
        raise ValueError(
            f"before_day must be YYYYMMDD, got {before_day!r}"
        )
    fg = load_fed_meta(fed_dir)
    if not fg.get("ts_col"):
        raise ValueError(
            "expire_members needs day-routed members (ts_col federations)"
        )
    cfg = _cfg_from(fg)

    def day(e: dict) -> str:
        return e["name"][-8:]

    keep = [e for e in fg["indexes"] if day(e) >= before_day]
    dropped = [e for e in fg["indexes"] if day(e) < before_day]
    if not keep:
        raise ValueError(
            f"retention before_day={before_day} would drop every member; "
            "refusing (delete the federation dir explicitly instead)"
        )
    if not dropped:
        fg["dropped"] = []
        return fg
    fed = _publish(fed_dir, cfg, keep)
    if fg.get("docmeta_cols"):
        fed["docmeta_cols"] = fg["docmeta_cols"]
        manifest.write_atomic(fed_meta_path(fed_dir), fed)
    for e in dropped:
        shutil.rmtree(e["dir"], ignore_errors=True)
        shutil.rmtree(staging_dir(fed_dir, e["name"]), ignore_errors=True)
    fed["dropped"] = [e["name"] for e in dropped]
    return fed


@ray.remote
def _stage_shard(shard_path: str, fed_dir: str, cfg: dict) -> list[str]:
    """Route ONE immutable stream shard into staging with DETERMINISTIC
    per-(shard, key) filenames — a retried/crashed ingest overwrites the
    same files instead of appending duplicates (idempotent, unlike the
    bulk append-mode staging).  One task per shard; shards are consumer
    drain ranges, so they're small and many — task-parallel."""
    t = pq.read_table(shard_path)
    t = t.append_column(
        KEY_COL,
        _key_column(
            t, cfg.get("ts_col"), cfg.get("route_col"), cfg["type_name"],
            cfg["prefix"], cfg["one_index_per_type"],
        ),
    )
    import pyarrow.compute as pc

    base = os.path.basename(shard_path)[: -len(".parquet")]
    keys = sorted(set(t[KEY_COL].to_pylist()))
    for key in keys:
        sub = t.filter(pc.equal(t[KEY_COL], key)).drop_columns([KEY_COL])
        kdir = os.path.join(fed_dir, "_staging", f"{KEY_COL}={key}")
        os.makedirs(kdir, exist_ok=True)
        out = os.path.join(kdir, f"ingest-{base}.parquet")
        tmp = out + ".tmp"
        pq.write_table(sub, tmp)
        os.replace(tmp, out)
    return keys


def _ingest_state_path(fed_dir: str) -> str:
    return os.path.join(fed_dir, "_ingest.json")


def ingest_new_shards(
    shard_dir: str, fed_dir: str, stop_after: str | None = None
) -> dict:
    """Close the streaming loop: route a StreamConsumer drain
    directory's NEW shard files into the federation (the reference's
    EventHub -> parse -> today's-ES-index path, EventHubConsumer.cs +
    NestBatchPusher.cs).

    Crash-safe by construction: shards are immutable once published
    (write-audit-publish), staging filenames are deterministic per
    (shard, key) so re-staging overwrites rather than duplicates, and
    ``_ingest.json`` records (ingested, dirty-keys) AFTER staging —
    a crash at any point re-runs to the same state.  Only the
    sub-indexes whose keys went dirty are rebuilt."""
    state = {"ingested": [], "dirty": []}
    if os.path.exists(_ingest_state_path(fed_dir)):
        with open(_ingest_state_path(fed_dir)) as f:
            state = json.load(f)
    fg = load_fed_meta(fed_dir)
    cfg = _cfg_from(fg)
    seen = set(state["ingested"])
    new = sorted(
        f
        for f in os.listdir(shard_dir)
        if f.endswith(".parquet")
        and f not in seen
        # stop-offset guard (F3 parity): shards sorting after the bound
        # are never scheduled
        and (stop_after is None or f <= stop_after)
    )
    dirty = set(state["dirty"])
    if new:
        touched = ray.get(
            [
                _stage_shard.remote(os.path.join(shard_dir, f), fed_dir, cfg)
                for f in new
            ]
        )
        dirty |= {k for ks in touched for k in ks}
        state = {"ingested": sorted(seen | set(new)), "dirty": sorted(dirty)}
        manifest.write_atomic(_ingest_state_path(fed_dir), state)
    if not dirty:
        fg["changed"] = []
        return fg
    entries = {e["name"]: e for e in fg["indexes"]}
    for key in sorted(dirty):
        entries[key] = _build_one(fed_dir, key, cfg, swap=True)
        cols = fg.get("docmeta_cols")
        if cols:
            from . import docmeta as docmeta_mod

            docmeta_mod.ensure_docmeta(
                _member_docmeta_dir(fg, entries[key]["dir"]),
                staging_dir(fed_dir, key), cols, id_col=fg["id_col"],
            )
    fed = _publish(fed_dir, cfg, [entries[k] for k in sorted(entries)])
    if fg.get("docmeta_cols"):
        fed["docmeta_cols"] = fg["docmeta_cols"]
        manifest.write_atomic(fed_meta_path(fed_dir), fed)
    manifest.write_atomic(
        _ingest_state_path(fed_dir), {"ingested": state["ingested"], "dirty": []}
    )
    fed["changed"] = sorted(dirty)
    return fed


@ray.remote
def _delete_in_index(index_dir: str, ids: list[int], docstats_of: str | None = None) -> int:
    """Tombstone the subset of ``ids`` this sub-index actually holds
    (docstats intersection) — per-index tombstone lists stay
    proportional to deletes ROUTED there, not to federation-wide
    deletes.  Returns how many of ``ids`` matched.

    ``docstats_of`` points at the sub-index whose docstats define
    membership when it differs from the tombstone target: a MULTIFIELD
    member's docstats live per field sub-index (every field indexes the
    same doc ids, so the first field is authoritative) while its
    tombstones live at the member level, where MultiFieldSearcher reads
    them."""
    import numpy as np

    from .shard import DocStats, delete_docs

    ds = DocStats.load(docstats_of or index_dir)
    arr = np.array(sorted(set(int(i) for i in ids)), dtype=np.int64)
    if len(ds.ids) == 0 or len(arr) == 0:
        return 0
    pos = np.clip(np.searchsorted(ds.ids, arr), 0, len(ds.ids) - 1)
    hit = ds.ids[pos] == arr
    if not hit.any():
        return 0
    delete_docs(index_dir, arr[hit].tolist())
    return int(hit.sum())


def delete_docs_federated(fed_dir: str, doc_ids) -> dict[str, int]:
    """ES DELETE-by-id across a federation: one task per sub-index
    intersects the id list with its own docstats and tombstones only
    matches.  Query paths mask tombstones at ranking time;
    :func:`compact_federation` physically drops them."""
    fg = load_fed_meta(fed_dir)
    ids = list(doc_ids)
    fields = fg.get("fields")
    if fields:
        from .multifield import field_dir as _fdir

        counts = ray.get(
            [
                _delete_in_index.remote(
                    e["dir"], ids, docstats_of=_fdir(e["dir"], fields[0])
                )
                for e in fg["indexes"]
            ]
        )
    else:
        counts = ray.get(
            [_delete_in_index.remote(e["dir"], ids) for e in fg["indexes"]]
        )
    return {
        e["name"]: c for e, c in zip(fg["indexes"], counts) if c
    }


def compact_federation(fed_dir: str) -> dict:
    """Compact every sub-index (each its own partition-parallel Ray
    pass), then republish feddf + fed.json — N/avgdl/df all shrink to
    the survivor corpus, so post-compaction federated scores are
    bitwise a fresh federation over the survivors."""
    fg = load_fed_meta(fed_dir)
    cfg = _cfg_from(fg)
    entries = []
    fields = fg.get("fields")
    if fields:
        from .multifield import compact_multifield

        for e in fg["indexes"]:
            stats = compact_multifield(e["dir"])
            first = stats[fields[0]]
            entries.append(
                {
                    "name": e["name"],
                    "dir": e["dir"],
                    "n_docs": first["n_docs"],
                    "total_tokens": sum(v["total_tokens"] for v in stats.values()),
                    "field_stats": {
                        f: {"n_docs": v["n_docs"], "total_tokens": v["total_tokens"]}
                        for f, v in stats.items()
                    },
                }
            )
        fed = _publish(fed_dir, cfg, entries)
        if fg.get("docmeta_cols"):
            fed["docmeta_cols"] = fg["docmeta_cols"]
            manifest.write_atomic(fed_meta_path(fed_dir), fed)
        return fed
    for e in fg["indexes"]:
        meta = build_mod.compact_index(e["dir"])
        entries.append(
            {
                "name": e["name"],
                "dir": e["dir"],
                "n_docs": meta.n_docs,
                "total_tokens": meta.total_tokens,
            }
        )
    fed = _publish(fed_dir, cfg, entries)
    if fg.get("docmeta_cols"):
        fed["docmeta_cols"] = fg["docmeta_cols"]
        manifest.write_atomic(fed_meta_path(fed_dir), fed)
    return fed


class _Federation(AggRoute):
    """What both federation engines share: the federation's metadata,
    one member per sub-index (``member(index_dir)``; each has
    ``metrics`` and ``shutdown``), day/name selection, the one
    cross-member fan-out, the federation's own phase timers, metrics
    and shutdown."""

    def __init__(self, fed_dir: str, multifield: bool, member):
        self.meta = load_fed_meta(fed_dir)
        if bool(self.meta.get("fields")) != multifield:
            raise ValueError(
                "this federation is single-field; use FederatedEngine" if multifield
                else "this federation is MULTIFIELD; use FederatedMultiFieldEngine"
            )
        self.fed_dir = fed_dir
        self.members = {e["name"]: member(e["dir"]) for e in self.meta["indexes"]}
        self.telemetry = Telemetry()  # federation-level fan-out timers

    def _select(
        self,
        names: list[str] | None = None,
        start_day: str | None = None,
        end_day: str | None = None,
    ) -> list[str]:
        """The members a query spans: ``names`` (default all), pruned
        to the day range (the GetIndexNames read path)."""
        sel = list(self.members) if names is None else [n for n in names if n in self.members]
        if start_day or end_day:
            # day-named indexes end in YYYYMMDD: lexicographic == chronological
            def day(n: str) -> str:
                return n[-8:]

            sel = [
                n
                for n in sel
                if (start_day is None or day(n) >= start_day)
                and (end_day is None or day(n) <= end_day)
            ]
        return sel

    def _handles(self, names: list[str], dispatch) -> list:
        """Every named member's reply handles, in name order:
        ``dispatch(member)`` sends that member's requests and returns
        its handles (None: nothing to ask).  Callers wait ONCE over the
        result, so cross-index latency is max(member), not the sum."""
        return [h for n in names for h in dispatch(self.members[n]) or ()]

    def _boosted(self, indices_boost: dict | None, names: list[str], dispatch, k: int):
        """ES ``indices_boost``: each member's scores multiply by its
        per-index boost BEFORE the cross-index merge.  Members hold
        disjoint doc sets and a POSITIVE constant scale preserves each
        member's internal order, so the per-server local top-k cut stays
        valid and the merged result is the exact boosted global ranking;
        exact-binary boosts keep the multiply bitwise vs a SQL mirror."""
        ib = dict(indices_boost or {})
        for n, w in ib.items():
            if not float(w) > 0.0:
                raise ValueError(
                    f"indices_boost[{n!r}] = {w}: boosts must be > 0 "
                    "(a non-positive scale invalidates the per-member top-k cut)"
                )
        per = [(float(ib.get(n, 1.0)), dispatch(self.members[n]) or ()) for n in names]
        got = rpc.get([h for _, hs in per for h in hs])
        weights = [w for w, hs in per for _ in hs]
        return _merge_topk(
            [part if w == 1.0 else [(d, s * w) for d, s in part] for w, part in zip(weights, got)],
            k,
        )

    def metrics(self) -> dict:
        """Federation-wide telemetry: the federation's own fan-out phase
        timers (dispatch / wait / merge / total — federated queries
        bypass member query paths), each member's metrics, and the
        additive roll-up of every member's server counters (the
        TelemetryProvider analog across the whole fan-out)."""
        per = {n: m.metrics() for n, m in self.members.items()}
        return {
            "engine": self.telemetry.snapshot(),
            "servers": merge_snapshots([m["servers"] for m in per.values()]),
            "members": per,
        }

    def shutdown(self) -> None:
        for m in self.members.values():
            m.shutdown()
        self.members = {}


class FederatedEngine(_Federation):
    """Cross-index search over a federation — the engine analog of one
    ES query spanning ``logstash-*``-style day indexes.

    Each sub-index gets its own :class:`QueryEngine` pool whose servers
    score with federation-global stats (``fed=``), so per-index top-k
    lists are globally comparable and the driver merge by
    ``(score desc, doc_id asc)`` is exact — bitwise equal to one
    monolithic index (dfs_query_then_fetch semantics).

    ``names=`` / day-range args prune the fan-out to the sub-indexes a
    time-bounded query can match (GetIndexNames read path).

    Aggregations (:mod:`cb.aggs`) collect every selected member's
    server replies in :meth:`_agg_parts`; they read docmeta columns built
    by :func:`ensure_fed_docmeta`, and scored ones (top_hits,
    function_score) score with the feddf overlay, so each merge is
    bitwise the monolithic pool's."""

    def __init__(self, fed_dir: str, num_servers: int = 2):
        super().__init__(
            fed_dir, False, lambda d: QueryEngine(d, num_servers, fed=fed_dir)
        )

    @property
    def engines(self) -> dict[str, QueryEngine]:
        """The member engines by sub-index name."""
        return self.members

    def query(
        self,
        text: str,
        k: int = 10,
        algo: str = "taat",
        names: list[str] | None = None,
        start_day: str | None = None,
        end_day: str | None = None,
    ) -> list[tuple[int, float]]:
        """Fan out to the selected sub-indexes, ONE wait over every
        server's score reply, exact merge."""
        t0 = time.perf_counter()
        terms = sorted(set(analyze.tokenize(text)))
        handles = self._handles(
            self._select(names, start_day, end_day), lambda e: e._dispatch(terms, k, algo)
        )
        return _timed_topk(self.telemetry, t0, handles, k)

    def query_boosted(
        self,
        text: str,
        k: int = 10,
        indices_boost: dict[str, float] | None = None,
        algo: str = "taat",
        **sel,
    ) -> list[tuple[int, float]]:
        """ES ``indices_boost`` (see :meth:`_Federation._boosted`)."""
        terms = sorted(set(analyze.tokenize(text)))
        return self._boosted(
            indices_boost, self._select(**sel), lambda e: e._dispatch(terms, k, algo), k
        )

    def phrase_query(
        self, text: str, k: int = 10, slop: int = 0, **sel
    ) -> list[tuple[int, float]]:
        """Phrase fan-out: replies collected across every selected
        engine, ONE wait (cross-index latency = max, not sum)."""
        return _wait_topk(
            self._handles(self._select(**sel), lambda e: e._dispatch_phrase(text, k, slop)), k
        )

    def search(self, query_string: str, k: int = 10, **sel) -> list[tuple[int, float]]:
        """Query-string search across the federation.  Exactness notes:
        wildcard/fuzzy atoms expand per sub-index against ITS vocab
        (scoring_boolean — each matched term scores at the atom's boost,
        no match-count dependence), and a term absent from a sub-index
        can't contribute to that sub-index's disjoint docs, so the union
        of per-index expansions scores bitwise like one monolithic
        expansion; +required/-negated/phrase clauses are per-doc.
        Metadata filters need docmeta built per sub-index
        (:func:`ensure_fed_docmeta`).  Replies are collected from every
        selected engine before ONE wait — cross-index latency is
        max(sub-index), not sum."""
        return _wait_topk(
            self._handles(self._select(**sel), lambda e: e._dispatch_search(query_string, k)), k
        )

    def msearch(
        self, query_strings: list[str], k: int = 10, **sel
    ) -> list[list[tuple[int, float]]]:
        """ES ``_msearch`` across the federation: EVERY query's requests
        across EVERY selected sub-index are in flight before any reply
        is awaited — one wait drains query_count x member_count x
        servers replies, so the wall clock is max over all cells, not the
        sequential sum.  Bitwise identical to a search() loop (same
        kernels, same per-query merge)."""
        names = self._select(**sel)
        return _wait_topk_each(
            [self._handles(names, lambda e: e._dispatch_search(q, k)) for q in query_strings], k
        )

    def _agg_parts(self, query: str | dict, name: str, spec, **sel) -> list:
        """The aggregation route: every selected member engine's server
        replies (each member parses and expands against its own
        vocabulary), drained by ONE wait."""
        return rpc.get(
            self._handles(self._select(**sel), lambda e: e._agg_refs(query, name, spec))
        )

    def facets(
        self, query_string: str, facet_cols=(), stats_cols=(), **sel
    ) -> tuple[dict, dict]:
        return self._agg(query_string, "facets", (list(facet_cols), list(stats_cols)), **sel)

    def more_like_this(
        self,
        doc_text: str,
        k: int = 10,
        max_terms: int = 15,
        exclude: int | None = None,
        algo: str = "taat",
        **sel,
    ) -> list[tuple[int, float]]:
        """Federation-exact more_like_this: the feddf overlay makes ANY
        sub-engine's term_dfs federation-global (the merged summaries
        include terms a sub-index never saw), and the fed.json N feeds
        the selection idf — so term selection and ranking are bitwise
        the monolithic more_like_this."""
        import collections

        from . import scoring

        toks = collections.Counter(analyze.tokenize(doc_text))
        if not toks or not self.members:
            return []
        dfs = next(iter(self.members.values())).term_dfs(list(toks))
        n = self.meta["n_docs"]
        scored = [
            (t, toks[t] * float(scoring.idf(dfs[t], n))) for t in toks if t in dfs
        ]
        scored.sort(key=lambda kv: (-kv[1], kv[0]))
        terms = sorted(t for t, _ in scored[:max_terms])
        # tokenizer is idempotent on its own output: joined terms
        # re-tokenize to exactly this term set
        res = self.query(
            " ".join(terms), k + (1 if exclude is not None else 0), algo, **sel
        )
        if exclude is not None:
            res = [r for r in res if r[0] != exclude][:k]
        return res

    def search_after(
        self,
        text: str,
        k: int = 10,
        after: tuple[float, int] | None = None,
        algo: str = "taat",
        **sel,
    ) -> list[tuple[int, float]]:
        """Cursor pagination across the federation (same doubling
        re-rank as QueryEngine.search_after; sub-engines' server-side
        result caches absorb the repeats)."""
        from .query import page_after

        return page_after(
            lambda q, kk: self.query(q, k=kk, algo=algo, **sel), text, k, after
        )

    def histogram(self, query_string: str, histos: dict, **sel) -> dict:
        return self._agg(query_string, "histogram", histos, **sel)

    def range_agg(self, query_string: str, ranges: dict, **sel) -> dict:
        return self._agg(query_string, "range", ranges, **sel)

    def composite(
        self, query_string: str, cols: list[str], size: int,
        after: tuple | None = None, **sel,
    ) -> tuple[list[tuple[tuple, int]], tuple | None]:
        return _page_composite(
            self._agg(query_string, "composite", list(cols), **sel), size, after
        )

    def top_hits(self, text: str, group_col: str, k_per: int, **sel) -> dict:
        return self._agg(_terms_clause(text), "top_hits", (group_col, k_per), **sel)

    def collapse(
        self, text: str, group_col: str, k: int, **sel
    ) -> list[tuple[int, float, object]]:
        return _collapse_from_top_hits(self.top_hits(text, group_col, 1, **sel), k)

    def percentile_ranks(
        self, query_string: str, col: str, values: list[int], **sel
    ) -> dict[int, float] | None:
        cnts = self.range_agg(query_string, {col: _pct_ranges(values)}, **sel)[col]
        return _pct_ranks_from_counts(cnts, values)

    def function_score(
        self, query_string: str, spec: dict, k: int = 10, **sel
    ) -> list[tuple[int, float]]:
        return self._agg(query_string, "function_score", (spec, k), **sel)

    def phrase_prefix_query(
        self, text: str, k: int = 10, max_expansions: int | None = None, **sel
    ) -> list[tuple[int, float]]:
        """Federated match_phrase_prefix.  The prefix expands per
        member against ITS vocabulary (ES itself expands per shard); a
        completion absent from a member can't match that member's
        disjoint docs, so with max_expansions=None (default here) the
        union is EXACTLY the monolithic result.  A finite cap applies
        per member (ES parity) and may admit more total completions
        than one monolithic index would."""
        return _wait_topk(
            self._handles(
                self._select(**sel),
                lambda e: e._dispatch_phrase_prefix(text, k, max_expansions),
            ),
            k,
        )

    def term_vectors(self, doc_ids: list[int], **sel) -> list[tuple]:
        """Federated _termvectors: fan out to every selected member
        (content-derived doc ids are federation-unique, so concat is
        duplicate-free), one wait."""
        handles = self._handles(
            self._select(**sel), lambda e: e._dispatch_term_vectors(list(doc_ids))
        )
        rows = [r for part in rpc.get(handles) for r in part]
        rows.sort(key=lambda r: (r[0], r[1]))
        return rows

    def query_many(self, texts: list[str], k: int = 10, algo: str = "taat", **sel_kwargs):
        """Batched federation fan-out: every server of every selected
        sub-index gets ONE score_many request covering all queries (the
        same round-trip amortization as QueryEngine.query_many, across
        the whole federation); exact because every (engine, server)
        scope is a disjoint doc set."""
        pools = [self.members[n].pool for n in self._select(**sel_kwargs)]
        return _query_many(pools, texts, k, algo)

    def warm(self, min_df: int = 0) -> int:
        return sum(e.warm(min_df) for e in self.members.values())


class FederatedMultiFieldEngine(_Federation):
    """Cross-index MULTIFIELD search (mapping JSON -> analyzed fields
    -> per-day sub-indexes -> one query spanning them): each member
    scores every field with federation-global per-field stats
    (``field_stats`` + per-field feddf overlays), so the merged top-k
    is bitwise the monolithic multifield result — the multifield
    closure of the single-field FederatedEngine contract.  Each member
    is a one-actor :class:`cb.shard.ServerPool` of
    :class:`cb.multifield.MultiFieldServer` over the whole sub-index,
    constructed with ``fed=``; it routes and expands each query string
    against its own vocabularies.  The aggregation methods are
    MultiFieldEngine's, over every selected member's disjoint doc
    set."""

    def __init__(self, fed_dir: str):
        from .multifield import MultiFieldServer

        super().__init__(
            fed_dir, True, lambda d: ServerPool(MultiFieldServer, [(d,)], fed=fed_dir)
        )

    def _call(self, names: list[str], method: str, *args) -> list:
        """Send ``method`` to the named members, then wait: name order."""
        return rpc.get(self._handles(names, lambda p: p.fanout(method, *args)))

    def warm(self, min_df: int = 0) -> int:
        """Pre-decode every member's terms with df >= min_df in every
        field (:meth:`cb.multifield.MultiFieldSearcher.warm`), so the
        first user query of a term pays no decode; blocks until done.
        Returns the number of (field, term) pairs warmed."""
        return sum(self._call(list(self.members), "warm", min_df))

    def search(
        self, query: str, k: int = 10,
        mode: str = "most_fields", tie_breaker: float = 0.0, **sel,
    ) -> list[tuple[int, float]]:
        """Fan out the multifield query string, ONE wait, exact
        merge by (score desc, doc_id asc) — members hold disjoint doc
        sets, so the merge is the global top-k.  ``mode="best_fields"``
        (dis_max) combines per doc, so the disjoint-member merge stays
        bitwise the monolithic result, exactly like most_fields."""
        t0 = time.perf_counter()
        handles = self._handles(
            self._select(**sel), lambda p: p.fanout("search", query, k, mode=mode, tie_breaker=tie_breaker),
        )
        return _timed_topk(self.telemetry, t0, handles, k)

    def search_boosted(
        self,
        query: str,
        k: int = 10,
        indices_boost: dict[str, float] | None = None,
        mode: str = "most_fields",
        tie_breaker: float = 0.0,
        **sel,
    ) -> list[tuple[int, float]]:
        """ES ``indices_boost`` on the MULTIFIELD federation (see
        :meth:`_Federation._boosted`), composing with any multi_match
        mode."""
        return self._boosted(
            indices_boost, self._select(**sel),
            lambda p: p.fanout("search", query, k, mode=mode, tie_breaker=tie_breaker), k,
        )

    def _agg_parts(self, query: str, name: str, spec, **sel) -> list:
        """The aggregation route: every selected member's partial, ONE
        wait.  Membership is stats-independent and per-member vocab
        expansion is scoring_boolean-safe, so the merge equals the
        monolithic multifield aggregation."""
        return self._call(self._select(**sel), "agg", query, name, spec)

    def facets(
        self, query: str, facet_cols=(), stats_cols=(), **sel
    ) -> tuple[dict, dict]:
        return self._agg(query, "facets", (list(facet_cols), list(stats_cols)), **sel)

    def histogram(self, query: str, histos: dict, **sel) -> dict:
        return self._agg(query, "histogram", histos, **sel)

    def range_agg(self, query: str, ranges: dict, **sel) -> dict:
        return self._agg(query, "range", ranges, **sel)

    def composite(
        self, query: str, cols: list[str], size: int,
        after: tuple | None = None, **sel,
    ) -> tuple[list[tuple[tuple, int]], tuple | None]:
        return _page_composite(self._agg(query, "composite", list(cols), **sel), size, after)

    def top_hits(self, query: str, group_col: str, k_per: int, **sel) -> dict:
        return self._agg(query, "top_hits", (group_col, k_per), **sel)

    def function_score(
        self, query: str, spec: dict, k: int = 10, **sel
    ) -> list[tuple[int, float]]:
        return self._agg(query, "function_score", (spec, k), **sel)

    def collapse(
        self, query: str, group_col: str, k: int, **sel
    ) -> list[tuple[int, float, object]]:
        return _collapse_from_top_hits(self.top_hits(query, group_col, 1, **sel), k)

    def more_like_this(
        self,
        doc_fields: dict,
        k: int = 10,
        max_terms: int = 15,
        exclude: int | None = None,
        **sel,
    ) -> list[tuple[int, float]]:
        """Federation-wide most_fields MLT: every member selects the
        same terms (fed-global df overlays), member top-k lists merge
        exactly, the source doc drops at the driver — bitwise the
        monolithic multifield MLT."""
        kk = k + (1 if exclude is not None else 0)
        names = self._select(**sel)
        if not names:
            return []
        res = _merge_topk(self._call(names, "more_like_this", doc_fields, kk, max_terms), kk)
        if exclude is not None:
            res = [r for r in res if r[0] != exclude][:k]
        return res

    def search_after(self, query: str, k: int = 10, after=None, **sel):
        from .query import page_after

        return page_after(
            lambda q, kk: self.search(q, kk, **sel), query, k, after
        )

    def significant_terms(
        self, query: str, field: str, top_n: int = 10, min_df: int = 2, **sel
    ) -> list[tuple[str, int, int, float]]:
        """Federation-wide significant_terms of ``field``: per-member
        fg counts add (disjoint docs), match totals add, JLH at the
        driver with fed-global df and N."""
        names = self._select(**sel)
        parts = self._call(names, "significant_counts", query, field, min_df)
        fg, m = _merge_sig(parts)
        if not fg or not names:
            return []
        dfs = self._call(names[:1], "term_dfs", field, sorted(fg))[0]
        n_docs = self.meta["field_stats"][field]["n_docs"]
        return _jlh_rank(fg, m, dfs, n_docs, top_n)
