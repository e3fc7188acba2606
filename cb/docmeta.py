"""Per-field mapping / not_analyzed metadata columns (X5 parity).

The reference configures per-field behavior through mapping JSONs
pushed to Elasticsearch — analyzed text vs ``not_analyzed`` keyword
fields usable as exact-match filters
(/root/reference/src/ConveyorBelt.Tooling/Scheduling/MasterScheduler.cs:205-239
and mappings/*.json).  The engine analog: the index's text column is
analyzed into postings (cb.build); the columns named here are stored
UNANALYZED in a doc-range-bucketed side table (``docmeta/``) and
combined with BM25 at query time as a filter context — exactly the ES
``bool: {must: match, filter: term}`` shape, where the filter does not
change scoring.

Layout mirrors docstats: one parquet file per doc-id range bucket,
sorted by doc_id, so a doc-sharded serving topology loads only its own
bucket range (the filter table shards WITH the postings, nothing
corpus-global).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from .build import ID_BITS, IndexMeta


def _source_lineage(source) -> list | None:
    """Corpus lineage for staleness checks: sorted (path, size, mtime_ns)
    triples of the source parquet files; None for in-memory Datasets
    (caller can pass an explicit tag instead)."""
    import glob as _glob

    if isinstance(source, (list, tuple)):
        files = sorted(os.path.abspath(p) for p in source)
    elif isinstance(source, str):
        if os.path.isdir(source):
            files = sorted(_glob.glob(os.path.join(source, "*.parquet")))
        else:
            files = [source]
    else:
        return None
    out = []
    for f in files:
        st = os.stat(f)
        out.append([os.path.abspath(f), st.st_size, st.st_mtime_ns])
    return out


def build_docmeta(
    source: str | list | ray.data.Dataset,
    index_dir: str,
    meta_cols: list[str],
    *,
    id_col: str = "doc_id",
) -> dict:
    """One pruned-columns pass over the corpus -> ``docmeta/bucket=<b>``
    files (sorted by doc_id) + ``docmeta/_meta.json``.  Idempotent; the
    bucketing uses the index's own range_bits so metadata buckets align
    with posting doc-range buckets.  ``_meta.json`` records the source
    lineage (file/size/mtime list) so :func:`ensure_docmeta` rebuilds
    when the corpus changed, and the bucket MEMBERSHIP, so stale bucket
    files from an earlier, larger build are neither loaded nor left on
    disk."""
    import ray.data

    meta = IndexMeta(index_dir)
    range_bits = meta.range_bits
    lineage = _source_lineage(source)
    if isinstance(source, (str, list, tuple)):
        ds = ray.data.read_parquet(source, columns=[id_col] + meta_cols)
    else:
        ds = source

    shift = ID_BITS - range_bits
    out_dir = os.path.join(index_dir, "docmeta")
    os.makedirs(out_dir, exist_ok=True)

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        bucket = (ids >> shift).astype(np.int32)
        return batch.append_column("bucket", pa.array(bucket, type=pa.int32()))

    def write_bucket(group: pa.Table) -> pa.Table:
        b = int(group["bucket"][0].as_py())
        group = group.drop_columns(["bucket"]).sort_by(id_col)
        fpath = os.path.join(out_dir, f"bucket={b}.parquet")
        pq.write_table(group, fpath + ".tmp")
        os.replace(fpath + ".tmp", fpath)
        return pa.table(
            {"bucket": pa.array([b], type=pa.int32()),
             "n_docs": pa.array([group.num_rows], type=pa.int64())}
        )

    counts = (
        ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(write_bucket, batch_format="pyarrow")
        .take_all()
    )
    written = {int(r["bucket"]) for r in counts}
    # orphan cleanup: a rebuild over a smaller/re-bucketed corpus must
    # not leave previous buckets behind to be served by doc-sharded
    # loaders (they load by _meta.json membership, but dead files are
    # also confusing and unbounded)
    import glob as _glob

    for f in _glob.glob(os.path.join(out_dir, "bucket=*.parquet")):
        b = int(os.path.basename(f)[len("bucket=") : -len(".parquet")])
        if b not in written:
            os.remove(f)
    m = {
        "cols": meta_cols,
        "id_col": id_col,
        "range_bits": range_bits,
        "lineage": lineage,
        "buckets": {str(r["bucket"]): int(r["n_docs"]) for r in counts},
    }
    tmp = os.path.join(out_dir, "_meta.json.tmp")
    with open(tmp, "w") as f:
        json.dump(m, f)
    os.replace(tmp, os.path.join(out_dir, "_meta.json"))
    return m


def ensure_docmeta(
    index_dir: str, source: str | list, meta_cols: list[str], *, id_col: str = "doc_id"
) -> None:
    """Build the docmeta table if absent, its column set changed, or the
    SOURCE changed (lineage mismatch): docs indexed after the docmeta
    build would otherwise be silently excluded from every filtered /
    query-string search (DocMeta.mask -> False for unknown ids)."""
    p = os.path.join(index_dir, "docmeta", "_meta.json")
    if os.path.exists(p):
        with open(p) as f:
            m = json.load(f)
        if (
            m.get("cols") == meta_cols
            and m.get("id_col") == id_col
            and m.get("lineage") == _source_lineage(source)
        ):
            return
    build_docmeta(source, index_dir, meta_cols, id_col=id_col)


@ray.remote
def _update_bucket(
    fpath: str, ids: np.ndarray, id_col: str, col: str, op: str, value
) -> int:
    """Rewrite ONE docmeta bucket file with the update applied to its
    matched rows (vectorized if_else; atomic tmp+rename).  Returns the
    number of rows changed."""
    tbl = pq.read_table(fpath)
    bids = tbl[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    m = np.isin(bids, ids, assume_unique=True)
    n = int(m.sum())
    if n == 0:
        return 0
    cur = tbl[col]
    if op == "set":
        new = pc.if_else(pa.array(m), pa.scalar(value, type=cur.type), cur)
    elif op == "add":
        new = pc.if_else(
            pa.array(m), pc.add(cur, pa.scalar(value, type=cur.type)), cur
        )
    else:
        raise ValueError(f"unknown update op {op!r}")
    out = tbl.set_column(tbl.column_names.index(col), col, new)
    pq.write_table(out, fpath + ".tmp")
    os.replace(fpath + ".tmp", fpath)
    return n


def update_docs(
    index_dir: str, doc_ids, col: str, op: str, value, *, update_id: str | None = None
) -> int:
    """ES ``_update_by_query``'s write half: apply ``col op value``
    (op = ``set`` | ``add``, the painless-script analog) to the given
    doc ids IN PLACE in the docmeta store.  Bucket-pruned — only the
    bucket files whose doc-id range holds a matched id are rewritten,
    one Ray task each (task memory = one bucket file, parallelism =
    touched buckets).  With ``update_id``, per-bucket ``.done``
    sentinels under ``docmeta/_updates/<update_id>/`` make a crashed
    run convergent on re-run (finished buckets skip; ``add`` is never
    applied twice) — the same deterministic-replay shape as federated
    shard ingest.  Note: a later docmeta REBUILD from the source corpus
    (refresh_docmeta / lineage change) reverts in-place updates, as an
    ES reindex-from-source would."""
    out_dir = os.path.join(index_dir, "docmeta")
    with open(os.path.join(out_dir, "_meta.json")) as f:
        m = json.load(f)
    ids = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
    if len(ids) == 0:
        return 0
    shift = ID_BITS - int(m["range_bits"])
    live = set(map(int, m["buckets"]))
    touched = sorted(set((ids >> shift).tolist()) & live)
    sdir = None
    if update_id is not None:
        sdir = os.path.join(out_dir, "_updates", str(update_id))
        os.makedirs(sdir, exist_ok=True)
        touched = [
            b for b in touched if not os.path.exists(os.path.join(sdir, f"b{b}.done"))
        ]
    if not touched:
        return 0
    ids_ref = ray.put(ids)
    futs = {
        b: _update_bucket.remote(
            os.path.join(out_dir, f"bucket={b}.parquet"),
            ids_ref, m["id_col"], col, op, value,
        )
        for b in touched
    }
    total = 0
    for b, f in futs.items():
        total += ray.get(f)
        if sdir is not None:
            done = os.path.join(sdir, f"b{b}.done")
            with open(done + ".tmp", "w") as fh:
                fh.write("1")
            os.replace(done + ".tmp", done)
    return total


def refresh_docmeta(index_dir: str, source: str | list) -> bool:
    """Re-run :func:`ensure_docmeta` with the PREVIOUS build's column
    config if a docmeta table exists (no-op otherwise) — the hook the
    incremental-reindex loop (cb.resumable.watch) calls after every
    rebuild so filtered search keeps covering newly indexed docs.
    Returns True if a docmeta table exists for this index."""
    p = os.path.join(index_dir, "docmeta", "_meta.json")
    if not os.path.exists(p):
        return False
    with open(p) as f:
        m = json.load(f)
    ensure_docmeta(index_dir, source, m["cols"], id_col=m["id_col"])
    return True


def build_from_mapping(
    source: str,
    index_dir: str,
    mapping: dict | str,
    **build_kwargs,
):
    """Mapping-config-driven build — the reference's drop-a-mapping-JSON
    flow (MasterScheduler.cs:205-239 applies ``mappings/*.json`` with
    per-field ``analyzed`` / ``not_analyzed``).  The mapping names the
    analyzed text field(s) (-> postings; a LIST builds a multi-field
    index, cb.multifield) and any not_analyzed fields (-> docmeta
    filter columns):

        {"id": "doc_id", "analyzed": "text",
         "not_analyzed": ["lang", "source"]}
        {"id": "doc_id", "analyzed": ["text", "title"]}

    Accepts the dict or a path to a JSON file.  Returns the IndexMeta
    (single field) or the multifield manifest dict (field list);
    filtered search works immediately against the named fields (for a
    multi-field index the docmeta table lives under the FIRST field's
    sub-index, whose buckets every field shares).
    """
    import json as _json

    from . import build as build_mod

    if isinstance(mapping, str):
        with open(mapping) as f:
            mapping = _json.load(f)
    if (mapping.get("not_analyzed") or []) and not mapping.get("id"):
        raise ValueError(
            "not_analyzed fields need an explicit 'id' column in the "
            "mapping (derived corpus identities are not present in "
            "the source table for the docmeta pass)"
        )
    analyzed = mapping["analyzed"]
    not_analyzed = mapping.get("not_analyzed") or []
    if isinstance(analyzed, (list, tuple)):
        from . import multifield

        meta = multifield.build_multifield(
            source, index_dir, list(analyzed),
            id_col=mapping.get("id", "doc_id"), **build_kwargs,
        )
        if not_analyzed:
            build_docmeta(
                source,
                multifield.field_dir(index_dir, analyzed[0]),
                list(not_analyzed),
                id_col=mapping["id"],
            )
        return meta
    meta = build_mod.build_index(
        source,
        index_dir,
        text_col=analyzed,
        id_col=mapping.get("id"),
        **build_kwargs,
    )
    if not_analyzed:
        build_docmeta(source, index_dir, list(not_analyzed), id_col=mapping["id"])
    return meta


def _range_mask(vals: pa.Array, want, col_name: str) -> pa.Array:
    """Range comparison over a docmeta column slice.  Numeric columns
    compare against float64 bounds (Arrow promotes int vs double the
    same way DuckDB does); everything else compares as strings."""
    numeric = pa.types.is_integer(vals.type) or pa.types.is_floating(vals.type)

    def bound(v):
        if numeric:
            try:
                return pa.scalar(float(v), pa.float64())
            except ValueError:
                raise ValueError(
                    f"range bound {v!r} is not numeric but column "
                    f"{col_name!r} is {vals.type}"
                ) from None
        return pa.scalar(str(v))

    m = None
    if want.lo is not None:
        op = pc.greater_equal if want.lo_incl else pc.greater
        m = op(vals, bound(want.lo))
    if want.hi is not None:
        op = pc.less_equal if want.hi_incl else pc.less
        hi = op(vals, bound(want.hi))
        m = hi if m is None else pc.and_(m, hi)
    if m is None:  # [* TO *]: any non-null value passes
        m = pc.is_valid(vals)
    return m


class DocMeta:
    """Sorted-id metadata lookup for filter evaluation.

    ``buckets`` restricts loading to a doc-range subset (what a
    doc-sharded server passes); None loads all buckets."""

    __slots__ = ("ids", "cols")

    def __init__(self, index_dir: str, buckets: list[int] | None = None):
        out_dir = os.path.join(index_dir, "docmeta")
        with open(os.path.join(out_dir, "_meta.json")) as f:
            m = json.load(f)
        live = set(map(int, m["buckets"]))  # _meta.json membership, not
        # file existence: a stale bucket file from an earlier, larger
        # build must never serve
        want = live if buckets is None else (set(buckets) & live)
        files = [
            os.path.join(out_dir, f"bucket={b}.parquet")
            for b in sorted(want)
            if os.path.exists(os.path.join(out_dir, f"bucket={b}.parquet"))
        ]
        if files:
            tbl = pa.concat_tables([pq.read_table(f) for f in files])
            # buckets are disjoint, ascending doc-id ranges written
            # sorted; concatenation in bucket order is globally sorted
            ids = tbl[m["id_col"]].to_numpy(zero_copy_only=False).astype(np.int64)
        else:
            tbl = None
            ids = np.empty(0, dtype=np.int64)
        self.ids = ids
        self.cols = {}
        if tbl is not None:
            for c in m["cols"]:
                col = tbl[c].combine_chunks()
                self.cols[c] = col

    def gather(self, doc_ids: np.ndarray, col: str) -> pa.Array:
        """Column values aligned with ``doc_ids`` (null for ids absent
        from the table) — the facet/stats aggregation input."""
        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        if len(self.ids) == 0:
            return pa.nulls(len(doc_ids), self.cols[col].type if col in self.cols else pa.string())
        pos = np.clip(np.searchsorted(self.ids, doc_ids), 0, len(self.ids) - 1)
        vals = self.cols[col].take(pa.array(pos))
        present = pa.array(self.ids[pos] == doc_ids)
        return pc.if_else(present, vals, pa.nulls(len(doc_ids), vals.type))

    def mask(self, doc_ids: np.ndarray, filters: dict) -> np.ndarray:
        """Boolean mask: does each doc satisfy EVERY (col == value) /
        (col in values) / (col in range) condition?  Ids absent from the
        table -> False.  Range bounds compare numerically on numeric
        columns (the DuckDB oracle's int/double promotion), binary
        collation on strings."""
        from .querylang import Range

        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        if len(self.ids) == 0:
            return np.zeros(len(doc_ids), dtype=bool)
        pos = np.clip(np.searchsorted(self.ids, doc_ids), 0, len(self.ids) - 1)
        ok = self.ids[pos] == doc_ids
        filters = dict(filters)
        geo_f = filters.pop("_geo_distance", None)
        if geo_f is not None:
            # ES geo_distance in filter context: membership only, never
            # scores.  Coordinates come from docmeta columns when the
            # mapping names them (source=(lat_col, lon_col)), else from
            # the deterministic doc_id derivation the fixture uses
            # (source="derived", the default) — either way one
            # vectorized haversine over the candidate universe.
            from . import geo as geo_mod

            src = geo_f.get("source", "derived")
            if src == "derived":
                lat, lon = geo_mod.derive_coords(doc_ids)
            else:
                lat_col, lon_col = src
                lat = self.cols[lat_col].take(pa.array(pos)).to_numpy(
                    zero_copy_only=False
                )
                lon = self.cols[lon_col].take(pa.array(pos)).to_numpy(
                    zero_copy_only=False
                )
            d = geo_mod.haversine_km(lat, lon, geo_f["lat"], geo_f["lon"])
            ok &= d < geo_f["radius_km"]
        for c, want in filters.items():
            col = self.cols[c]
            vals = col.take(pa.array(pos))
            if isinstance(want, Range):
                m = _range_mask(vals, want, c)
            elif isinstance(want, (list, tuple, set, frozenset)):
                m = pc.is_in(vals, value_set=pa.array(sorted(want)))
            else:
                m = pc.equal(vals, pa.scalar(want))
            ok &= np.asarray(
                pc.fill_null(m, False).to_numpy(zero_copy_only=False), dtype=bool
            )
        return ok
