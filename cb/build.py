"""Index build pipeline — the wide shuffle of the engine.

Ray-Data-first dataflow (BASELINE.json north_star; lifecycle design in
SURVEY.md §3.4), ONE Ray Data execution per build:

    read corpus -> [identity: doc_id + sha256] (map_batches, stateless)
      -> ONE tokenize pass: per-batch PARTIAL postings (pre-aggregated
         so the shuffle moves array-valued rows, not one row per
         (doc, term) pair — the partial/combiner pattern) PLUS two kinds
         of sentinel rows riding the same exchange: per-(part, term)
         batch df under bucket TERMDF_BUCKET, and doc stats in sentinel
         partitions part >= num_parts
      -> sort(['part','bucket'])  # the one shuffle, at the
         (term-partition, doc-range-bucket) grain; a sort never splits
         a key's rows across blocks
      -> map_batches(encode_bucket, batch_size=None): each sorted block
         is encoded whole, in runs of whole groups of at most
         ENCODE_POSTINGS_BUDGET postings (one vectorized explode +
         encode per run, which also bounds a task's working set), and
         sliced into its files:
           postings parquet, ONE FILE PER DOC-RANGE BUCKET (ids+tfs+
           doc_lens varint + avgdl-free block summaries; doc-sharded
           servers read only their buckets), each written once in its
           final bytes and hashed from its serialized buffer;
           _termdf.parquet per partition (sum of the batch-df rows);
           docstats/bucket files
      -> take_all of the stat rows (one per file written) -> on the
         driver: stale-file removal, _global.json and each partition's
         manifest (write-audit-publish); no file is read back

Skew handling ("salting", reference precedent: the Modulo10 shard-key
fan-out at /root/reference/src/ConveyorBelt.Tooling/Scheduling/
Modulo10MinuteTableShardScheduler.cs:13-28): instead of detecting hot
terms, EVERY term's postings are keyed by ``(term, doc-id range
bucket)``; a hot term ("import") therefore arrives as up to
``2**range_bits`` bounded chunks whose doc-id ranges are disjoint and
ordered, so the global posting list is the ordered concatenation of its
chunks — the "re-merge" is a zero-cost concatenation at load time, never
a second shuffle.

Partition sizing at scale: a term partition (= one manifest = one
resume unit = one serving shard's file set) holds ~``total_tokens *
~10B / num_parts`` of pre-compression data; pick ``num_parts`` so that
is <~1 GiB (sandbox default 8; a 100 TB corpus wants ~64k partitions).
An encode task's working set is bounded by the postings budget, not by
a partition or a bucket: a task holds its sorted block (sized by Ray
Data's target block size) plus one run's exploded arrays.

Single-consumer pipelines are Ray Data's model, so the build's outputs
(postings, per-term df, doc stats) share ONE consumer: the sentinel
rows are separated at the encode step — the corpus is read and
tokenized exactly once, and nothing corpus-sized is ever materialized
in the object store or on the driver.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import analyze, compress, corpus, manifest

DEFAULT_NUM_PARTS = 8
DEFAULT_RANGE_BITS = 4
# sentinel bucket of the per-(part, term) batch-df rows that ride the
# build's shuffle; it sorts before a partition's doc-range buckets
TERMDF_BUCKET = -1
# the block encoder explodes and encodes whole (part, bucket) groups in
# runs of at most this many postings (a larger group is a run alone)
ENCODE_POSTINGS_BUDGET = 1 << 20
ID_BITS = 63  # doc ids are 63-bit non-negative int64


def term_partition(term: str, num_parts: int) -> int:
    """Stable term -> partition routing (crc32; identical at build and
    query time, independent of PYTHONHASHSEED)."""
    return zlib.crc32(term.encode()) % num_parts


def _normalize(ds: ray.data.Dataset, text_col: str, id_col: str | None) -> ray.data.Dataset:
    """Any input shape -> (doc_id:int64, text:string) dataset."""
    if id_col is None:
        # corpus shape (repo,path,commit,lang,content): derive identity
        ds = ds.map_batches(corpus.with_identity, batch_format="pyarrow", zero_copy_batch=True)
        id_col = "doc_id"
    def project(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b[id_col].cast(pa.int64()),
                "text": b[text_col],
            }
        )
    return ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def doc_stats(batch: pa.Table) -> pa.Table:
    lists = analyze.token_array(batch["text"])
    doc_len = np.diff(lists.offsets.to_numpy(zero_copy_only=False))
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "doc_len": pa.array(doc_len, type=pa.int32()),
        }
    )


def _empty_partials() -> pa.Table:
    return pa.table(
        {
            "part": pa.array([], type=pa.int32()),
            "term": pa.array([], type=pa.string()),
            "bucket": pa.array([], type=pa.int32()),
            "doc_ids": pa.array([], type=pa.list_(pa.int64())),
            "tfs": pa.array([], type=pa.list_(pa.int32())),
            "dls": pa.array([], type=pa.list_(pa.int32())),
            "poss": pa.array([], type=pa.list_(pa.int32())),
        }
    )


def _stats_sentinel_rows(
    stats: pa.Table, num_parts: int, range_bits: int
) -> pa.Table:
    """Doc-stats as sentinel partial rows (part = num_parts + doc-id
    bucket, term=\"\"): they ride the SAME shuffle as the postings, so
    one tokenize pass feeds both outputs."""
    ids = stats["doc_id"].to_numpy(zero_copy_only=False)
    lens = stats["doc_len"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(ids, kind="stable")
    ids, lens = ids[order], lens[order]
    shift = ID_BITS - range_bits
    buckets = (ids >> shift).astype(np.int32)
    change = np.empty(len(ids), dtype=bool)
    if len(ids) == 0:
        return _empty_partials()
    change[0] = True
    change[1:] = buckets[1:] != buckets[:-1]
    starts = np.flatnonzero(change)
    offsets = np.append(starts, len(ids)).astype(np.int64)
    off_arr = pa.array(offsets, type=pa.int64())
    zeros = pa.array(np.zeros(len(ids), dtype=np.int32), type=pa.int32())
    return pa.table(
        {
            "part": pa.array((num_parts + buckets[starts]).astype(np.int32), type=pa.int32()),
            "term": pa.array([""] * len(starts), type=pa.string()),
            "bucket": pa.array(buckets[starts], type=pa.int32()),
            "doc_ids": pa.ListArray.from_arrays(off_arr, pa.array(ids, type=pa.int64())),
            "tfs": pa.ListArray.from_arrays(off_arr, zeros),
            "dls": pa.ListArray.from_arrays(off_arr, pa.array(lens.astype(np.int32), type=pa.int32())),
            "poss": pa.ListArray.from_arrays(off_arr, zeros),
        }
    )


def tokenize_partials(
    batch: pa.Table, *, num_parts: int, range_bits: int, emit_stats: bool = False
) -> pa.Table:
    """One batch of (doc_id, text) -> partial postings rows
    (part, term, bucket, doc_ids:list, tfs:list, dls:list, poss:list),
    sorted by (term, bucket, doc_id).  ``poss`` is the flat stream of
    per-occurrence token positions in posting order (counts = tfs).

    With ``emit_stats=True`` (the fast path), two kinds of sentinel
    rows are appended so the single tokenize pass also feeds the
    per-partition ``_termdf.parquet`` and the docstats table: one
    batch-df row per (part, term) (:func:`_termdf_partials`) and the
    doc-stats rows (:func:`_stats_sentinel_rows`)."""
    occ, stats = analyze.term_occurrences(batch["doc_id"], batch["text"])
    if len(occ) == 0:
        if emit_stats and len(stats):
            return _stats_sentinel_rows(stats, num_parts, range_bits)
        return _empty_partials()
    # attach doc_len via sorted lookup
    s_ids = stats["doc_id"].to_numpy(zero_copy_only=False)
    s_len = stats["doc_len"].to_numpy(zero_copy_only=False)
    order = np.argsort(s_ids, kind="stable")
    o_ids = occ["doc_id"].to_numpy(zero_copy_only=False)
    dl = s_len[order][np.searchsorted(s_ids[order], o_ids)]
    shift = ID_BITS - range_bits
    # integer sort keys only (term via dictionary codes) — string sorts
    # at occurrence level are the build's dominant cost otherwise
    term_arr = occ["term"].combine_chunks() if isinstance(occ["term"], pa.ChunkedArray) else occ["term"]
    codes0, dictionary = _dict_indices(term_arr)
    parts_lut = np.array(
        [term_partition(t, num_parts) for t in dictionary.to_pylist()], dtype=np.int32
    )
    buckets0 = (o_ids >> shift).astype(np.int32)
    pos0 = occ["pos"].to_numpy(zero_copy_only=False)
    # sort keys (term-code, bucket, doc): composed into ONE int64 key +
    # doc id (lexsort cost scales with key count).  pos is NOT a key:
    # occurrence rows arrive in ascending pos within each doc and
    # lexsort is stable, so (code,bucket,doc,pos) order is identical —
    # and since that 4-tuple is unique per row, the permutation is the
    # same one the explicit 4-key sort produced (byte-identical output).
    ckey = (codes0.astype(np.int64) << np.int64(range_bits)) | buckets0
    order = np.lexsort((o_ids, ckey))
    codes = codes0[order]
    buckets = buckets0[order]
    ids = o_ids[order]
    poss = pos0[order]
    dl_sorted = dl[order]
    # posting boundaries: (term, bucket, doc) change
    p_change = np.empty(len(codes), dtype=bool)
    p_change[0] = True
    p_change[1:] = (
        (codes[1:] != codes[:-1]) | (buckets[1:] != buckets[:-1]) | (ids[1:] != ids[:-1])
    )
    p_starts = np.flatnonzero(p_change)
    tf_per_posting = np.diff(np.append(p_starts, len(codes)))
    # row boundaries: (term, bucket) change, evaluated at posting starts
    r_change = np.empty(len(p_starts), dtype=bool)
    r_change[0] = True
    r_change[1:] = (codes[p_starts[1:]] != codes[p_starts[:-1]]) | (
        buckets[p_starts[1:]] != buckets[p_starts[:-1]]
    )
    r_starts = np.flatnonzero(r_change)  # indices into p_starts
    post_offsets = np.append(r_starts, len(p_starts)).astype(np.int64)
    occ_offsets = np.append(p_starts[r_starts], len(codes)).astype(np.int64)

    row_codes = codes[p_starts[r_starts]]
    off_arr = pa.array(post_offsets, type=pa.int64())
    occ_arr = pa.array(occ_offsets, type=pa.int64())
    out = pa.table(
        {
            "part": pa.array(parts_lut[row_codes], type=pa.int32()),
            "term": dictionary.take(pa.array(row_codes)),
            "bucket": pa.array(buckets[p_starts[r_starts]], type=pa.int32()),
            "doc_ids": pa.ListArray.from_arrays(
                off_arr, pa.array(ids[p_starts], type=pa.int64())
            ),
            "tfs": pa.ListArray.from_arrays(
                off_arr, pa.array(tf_per_posting.astype(np.int32), type=pa.int32())
            ),
            "dls": pa.ListArray.from_arrays(
                off_arr, pa.array(dl_sorted[p_starts].astype(np.int32), type=pa.int32())
            ),
            "poss": pa.ListArray.from_arrays(
                occ_arr, pa.array(poss.astype(np.int32), type=pa.int32())
            ),
        }
    )
    if emit_stats:
        out = pa.concat_tables(
            [out, _termdf_partials(row_codes, np.diff(post_offsets), parts_lut, dictionary)]
        )
        if len(stats):
            out = pa.concat_tables([out, _stats_sentinel_rows(stats, num_parts, range_bits)])
    return out


def _termdf_partials(
    row_codes: np.ndarray, row_dfs: np.ndarray, parts_lut: np.ndarray, dictionary: pa.Array
) -> pa.Table:
    """One row per (part, term) of a batch under :data:`TERMDF_BUCKET`,
    its batch df carried as the single ``tfs`` item (the other lists
    are empty).  ``row_codes`` is non-decreasing (partial rows are
    sorted by term code), so each term is one run of rows.  The
    partition's sentinel group sums them into ``_termdf.parquet``."""
    starts = np.flatnonzero(np.diff(row_codes, prepend=-1))
    codes = row_codes[starts]
    n = len(starts)
    zeros = pa.array(np.zeros(n + 1, dtype=np.int64), type=pa.int64())
    return pa.table(
        {
            "part": pa.array(parts_lut[codes], type=pa.int32()),
            "term": dictionary.take(pa.array(codes)),
            "bucket": pa.array(np.full(n, TERMDF_BUCKET, dtype=np.int32), type=pa.int32()),
            "doc_ids": pa.ListArray.from_arrays(zeros, pa.array([], type=pa.int64())),
            "tfs": pa.ListArray.from_arrays(
                pa.array(np.arange(n + 1, dtype=np.int64), type=pa.int64()),
                pa.array(np.add.reduceat(row_dfs, starts).astype(np.int32), type=pa.int32()),
            ),
            "dls": pa.ListArray.from_arrays(zeros, pa.array([], type=pa.int32())),
            "poss": pa.ListArray.from_arrays(zeros, pa.array([], type=pa.int32())),
        }
    )


def _explode_partials(group: pa.Table, key: np.ndarray | None = None) -> dict:
    """Partial-postings rows -> flat posting/occurrence arrays sorted by
    (key, term rank, bucket, doc_id), occurrences in pos order; returns
    a dict of numpy arrays plus the term dictionary (integer sorts only
    — no string compares).  ``key`` is an optional non-negative int per
    row that sorts first: the block encoder passes each row's group
    index, so one pass explodes many ``(part, bucket)`` groups in
    output order.
    """
    ids_list = group["doc_ids"].combine_chunks() if isinstance(group["doc_ids"], pa.ChunkedArray) else group["doc_ids"]
    post_parents = pc.list_parent_indices(ids_list)
    row_of_posting = (
        post_parents.combine_chunks() if isinstance(post_parents, pa.ChunkedArray) else post_parents
    ).to_numpy(zero_copy_only=False)
    doc_flat = pc.list_flatten(group["doc_ids"]).to_numpy(zero_copy_only=False)
    tf_flat = pc.list_flatten(group["tfs"]).to_numpy(zero_copy_only=False).astype(np.int64)
    dl_flat = pc.list_flatten(group["dls"]).to_numpy(zero_copy_only=False)
    pos_flat = pc.list_flatten(group["poss"]).to_numpy(zero_copy_only=False)
    term_arr = group["term"].combine_chunks() if isinstance(group["term"], pa.ChunkedArray) else group["term"]
    row_codes, dictionary = _dict_indices(term_arr)
    # remap codes to ALPHABETICAL ranks: dictionary order is arrival
    # order (shuffle-dependent), and output row order must be
    # deterministic for the byte-identical resume guarantee.  Arrow's
    # UTF-8 byte sort == Python's code-point sort (same bytes), minus
    # the per-string Python object churn.
    order = pc.array_sort_indices(dictionary).to_numpy(zero_copy_only=False)
    rank = np.empty(len(dictionary), dtype=np.int64)
    rank[order] = np.arange(len(dictionary))
    sorted_terms = dictionary.take(pa.array(order))
    row_codes = rank[row_codes]
    buckets_row = group["bucket"].to_numpy(zero_copy_only=False)
    codes_p = row_codes[row_of_posting]
    buckets_p = buckets_row[row_of_posting]
    # sort POSTINGS (not occurrences) by (key, code, bucket, doc) — the
    # first three composed into one int64; (key,code,bucket,doc) is
    # unique per posting so the permutation is exactly the 4-key one
    bshift = int(buckets_p.max()).bit_length() if len(buckets_p) else 1
    ckey = (codes_p.astype(np.int64) << np.int64(bshift)) | buckets_p
    if key is not None and len(codes_p):
        kshift = bshift + len(dictionary).bit_length()
        if kshift + int(key.max()).bit_length() > 62:
            raise ValueError("encode run too large for a composed sort key")
        ckey |= key.astype(np.int64)[row_of_posting] << np.int64(kshift)
    order = np.lexsort((doc_flat, ckey))
    codes_p = codes_p[order]
    buckets_p = buckets_p[order]
    doc_sorted = doc_flat[order]
    tf_sorted = tf_flat[order]
    dl_sorted = dl_flat[order]
    # ragged gather of each posting's position slice into the new order
    occ_src_start = np.zeros(len(tf_flat) + 1, dtype=np.int64)
    np.cumsum(tf_flat, out=occ_src_start[1:])
    out_lens = tf_sorted
    out_offsets = np.zeros(len(out_lens) + 1, dtype=np.int64)
    np.cumsum(out_lens, out=out_offsets[1:])
    total = int(out_offsets[-1])
    gather = (
        np.repeat(occ_src_start[order], out_lens)
        + np.arange(total, dtype=np.int64)
        - np.repeat(out_offsets[:-1], out_lens)
    )
    pos_sorted = pos_flat[gather]
    return {
        "codes": codes_p,
        "dictionary": sorted_terms,
        "buckets": buckets_p,
        "doc_ids": doc_sorted,
        "tfs": tf_sorted,
        "dls": dl_sorted,
        "poss": pos_sorted,
    }


def _dict_indices(arr) -> tuple[np.ndarray, pa.Array]:
    """String column -> (int codes per row, dictionary values)."""
    d = pc.dictionary_encode(arr)
    if isinstance(d, pa.ChunkedArray):
        d = d.combine_chunks()
    return d.indices.to_numpy(zero_copy_only=False), d.dictionary


def _cumsum0(sizes: np.ndarray) -> np.ndarray:
    out = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=out[1:])
    return out


def _bin_column(data: np.ndarray, offsets: np.ndarray) -> pa.Array:
    """Row blobs = contiguous slices of one byte stream -> BinaryArray
    over the stream buffer (no per-row bytes objects)."""
    if offsets[-1] >= (1 << 31):
        # a real error, not an assert: under python -O a silent int32
        # wrap would write a corrupted index
        raise ValueError(
            f"partition blob stream is {offsets[-1]} bytes (>2GiB binary-"
            "offset limit); raise num_parts so partitions shrink"
        )
    return pa.Array.from_buffers(
        pa.binary(),
        len(offsets) - 1,
        [None, pa.py_buffer(offsets.astype(np.int32).tobytes()), pa.py_buffer(data.tobytes())],
    )


def _list_column(values: pa.Array, offsets: np.ndarray) -> pa.Array:
    return pa.ListArray.from_arrays(pa.array(offsets.astype(np.int32), type=pa.int32()), values)


def encode_partition_rows(flat: dict, store_positions: bool = True) -> pa.Table:
    """Sorted posting/occurrence arrays -> compressed rows
    (POSTING_SCHEMA + bucket).  ``store_positions=False`` drops the
    positional stream (smaller/faster index; phrase queries unavailable).

    Encodes the WHOLE partition as four varint streams (one vectorized
    pass each) and slices per-row blobs out of them — per-value bytes
    are identical to per-row :func:`cb.compress.encode_postings` calls
    (LEB128 is context-free; tests assert table equality), but the
    per-row Python call overhead (the encode stage's dominant cost at
    ~4 varint calls x row count) is gone.

    The arrays already have the shape a parquet read-back has (list
    items named ``element``, see :data:`cb.compress.POSTING_SCHEMA`), so
    a table written as is serializes to the same bytes as a rewrite of
    its own read-back: every posting file is written once, final.
    """
    codes = flat["codes"]
    if len(codes) == 0:
        return pa.Table.from_pylist([], schema=_posting_file_schema())
    n = len(codes)
    buckets = flat["buckets"]
    ids = np.ascontiguousarray(flat["doc_ids"], dtype=np.int64)
    tfs = np.ascontiguousarray(flat["tfs"], dtype=np.int64)
    dls = np.ascontiguousarray(flat["dls"], dtype=np.int64)
    poss = np.ascontiguousarray(flat["poss"], dtype=np.int64)

    r_change = np.empty(n, dtype=bool)
    r_change[0] = True
    r_change[1:] = (codes[1:] != codes[:-1]) | (buckets[1:] != buckets[:-1])
    r_starts = np.flatnonzero(r_change)
    r_ends = np.append(r_starts[1:], n)
    row_len = r_ends - r_starts  # df per row
    n_rows = len(r_starts)

    # global block structure: each row split into ceil(df/BLOCK) blocks
    n_blocks_row = (row_len + compress.BLOCK - 1) // compress.BLOCK
    blk_off = _cumsum0(n_blocks_row)
    tot_blocks = int(blk_off[-1])
    blk_row = np.repeat(np.arange(n_rows, dtype=np.int64), n_blocks_row)
    blk_starts = (
        np.repeat(r_starts, n_blocks_row)
        + (np.arange(tot_blocks, dtype=np.int64) - np.repeat(blk_off[:-1], n_blocks_row))
        * compress.BLOCK
    )
    blk_ends = np.minimum(blk_starts + compress.BLOCK, r_ends[blk_row])

    # id deltas reset at every block start (covers row starts too)
    deltas = np.empty(n, dtype=np.uint64)
    deltas[0] = np.uint64(ids[0])
    np.subtract(ids[1:], ids[:-1], out=deltas[1:], casting="unsafe")
    deltas[blk_starts] = ids[blk_starts].astype(np.uint64)
    id_bytes, id_sizes = compress.varint_encode_with_sizes(deltas)
    tf_bytes, tf_sizes = compress.varint_encode_with_sizes(tfs.astype(np.uint64))
    dl_bytes, dl_sizes = compress.varint_encode_with_sizes(dls.astype(np.uint64))
    id_cum, tf_cum, dl_cum = _cumsum0(id_sizes), _cumsum0(tf_sizes), _cumsum0(dl_sizes)
    bounds = np.append(r_starts, n)

    cols: dict[str, pa.Array] = {}
    cols["term"] = flat["dictionary"].take(pa.array(codes[r_starts]))
    cols["df"] = pa.array(row_len, type=pa.int64())
    cols["cf"] = pa.array(np.add.reduceat(tfs, r_starts), type=pa.int64())
    cols["ids_blob"] = _bin_column(id_bytes, id_cum[bounds])
    cols["tfs_blob"] = _bin_column(tf_bytes, tf_cum[bounds])
    cols["dls_blob"] = _bin_column(dl_bytes, dl_cum[bounds])

    occ_starts = _cumsum0(tfs)  # posting -> first occurrence index
    if store_positions:
        total_occ = int(occ_starts[-1])
        pdeltas = np.empty(total_occ, dtype=np.uint64)
        if total_occ:
            pdeltas[0] = np.uint64(poss[0])
            np.subtract(poss[1:], poss[:-1], out=pdeltas[1:], casting="unsafe")
            pdeltas[occ_starts[:-1]] = poss[occ_starts[:-1]].astype(np.uint64)
        pos_bytes, pos_sizes = compress.varint_encode_with_sizes(pdeltas)
        pos_cum = _cumsum0(pos_sizes)
        cols["pos_blob"] = _bin_column(pos_bytes, pos_cum[occ_starts[bounds]])
        block_pos_vals = (
            pos_cum[occ_starts[blk_starts]]
            - np.repeat(pos_cum[occ_starts[r_starts]], n_blocks_row)
        )
        cols["block_pos_off"] = _list_column(
            pa.array(block_pos_vals.astype(np.int32), type=pa.int32()), blk_off
        )
    else:
        cols["pos_blob"] = _bin_column(
            np.empty(0, dtype=np.uint8), np.zeros(n_rows + 1, dtype=np.int64)
        )
        cols["block_pos_off"] = _list_column(
            pa.array([], type=pa.int32()), np.zeros(n_rows + 1, dtype=np.int64)
        )

    cols["block_last_id"] = _list_column(
        pa.array(ids[blk_ends - 1], type=pa.int64()), blk_off
    )
    blk_bounds = compress.interleave_bounds(
        np.maximum.reduceat(tfs, blk_starts), np.minimum.reduceat(dls, blk_starts)
    )
    cols["block_bounds"] = _list_column(pa.array(blk_bounds, type=pa.int32()), 2 * blk_off)
    for name, cum in (("block_id_off", id_cum), ("block_tf_off", tf_cum), ("block_dl_off", dl_cum)):
        vals = cum[blk_starts] - np.repeat(cum[r_starts], n_blocks_row)
        cols[name] = _list_column(pa.array(vals.astype(np.int32), type=pa.int32()), blk_off)
    cols["bucket"] = pa.array(buckets[r_starts].astype(np.int32), type=pa.int32())

    schema = _posting_file_schema()
    return pa.table({f.name: cols[f.name] for f in schema}).cast(schema)


def _posting_file_schema() -> pa.Schema:
    return compress.POSTING_SCHEMA.append(pa.field("bucket", pa.int32()))


def _bucket_stats_schema() -> pa.Schema:
    return pa.schema(
        [
            ("part", pa.int64()),
            ("bucket", pa.int64()),
            ("n_rows", pa.int64()),
            ("n_postings", pa.int64()),
            ("n_docs", pa.int64()),
            ("total_tokens", pa.int64()),
            ("sha256", pa.string()),
        ]
    )


def _write_parquet(tbl: pa.Table, fpath: str) -> str:
    """Atomic parquet write from the serialized buffer; returns the
    file's sha256 hex digest (no read-back)."""
    sink = pa.BufferOutputStream()
    pq.write_table(tbl, sink)
    buf = sink.getvalue()
    with open(fpath + ".tmp", "wb") as f:
        f.write(buf)
    os.replace(fpath + ".tmp", fpath)
    return hashlib.sha256(buf).hexdigest()


def encode_bucket(
    block: pa.Table,
    *,
    index_dir: str,
    num_parts: int,
    store_positions: bool = True,
) -> pa.Table:
    """Block encoder, the ``map_batches(batch_size=None)`` body after
    ``sort(["part", "bucket"])``: every ``(part, bucket)`` group of one
    sorted block -> its file.  A sort never splits a key's rows across
    two blocks (the invariant ``map_groups`` rests on), so each group
    is whole here.

    - Posting groups (``part < num_parts``, ``bucket >= 0``) ->
      ``parts/part=<p>/bucket=<b>.parquet``.  Consecutive groups are
      exploded and encoded together, in runs of whole groups up to
      :data:`ENCODE_POSTINGS_BUDGET` postings (one larger group is a
      run of its own): one vectorized pass per run, not per group, and
      the run bounds the task's working set.  The encoded rows are
      sliced back into one file per group.  Per-row blob bytes are
      context-free (LEB128, deltas reset per row and block), so each
      file is byte-identical to its group encoded alone, and to the
      resumable path's whole-partition write (tested).
    - The :data:`TERMDF_BUCKET` group of a partition (batch-df rows
      from :func:`tokenize_partials`) -> ``_termdf.parquet``.
    - Sentinel groups (``part >= num_parts``) -> ``docstats/``.

    Every file is written once, in its final bytes (no posting byte
    depends on the corpus avgdl this same shuffle produces).  Returns
    one stats row per file written — part, bucket, its row count (the
    ``_termdf`` row count, n_terms, for the sentinel bucket), postings,
    doc-stats counters and the file's sha256 — from which the driver's
    :func:`annotate_partition` writes the manifests.
    """
    rows: dict[str, list] = {f.name: [] for f in _bucket_stats_schema()}

    def emit(part, bucket, n_rows, n_postings=0, n_docs=0, total_tokens=0, sha=""):
        for name, v in zip(rows, (part, bucket, n_rows, n_postings, n_docs, total_tokens, sha)):
            rows[name].append(v)

    n = block.num_rows
    if n == 0:
        return pa.table(rows, schema=_bucket_stats_schema())
    parts = block["part"].to_numpy(zero_copy_only=False)
    buckets = block["bucket"].to_numpy(zero_copy_only=False)
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = (parts[1:] != parts[:-1]) | (buckets[1:] != buckets[:-1])
    g_starts = np.flatnonzero(change)
    g_lens = np.diff(np.append(g_starts, n))
    g_post = np.add.reduceat(
        pc.list_value_length(block["doc_ids"]).to_numpy(zero_copy_only=False), g_starts
    )

    def encode_run(run: list[int]) -> None:
        sl = pa.concat_tables([block.slice(g_starts[g], g_lens[g]) for g in run])
        key = np.repeat(np.arange(len(run)), g_lens[run])
        tbl = encode_partition_rows(_explode_partials(sl, key), store_positions=store_positions)
        # group i owns the rows whose postings start in its range
        row_bounds = np.searchsorted(
            _cumsum0(tbl["df"].to_numpy(zero_copy_only=False)), _cumsum0(g_post[run])
        )
        for i, g in enumerate(run):
            p, b = int(parts[g_starts[g]]), int(buckets[g_starts[g]])
            pdir = os.path.join(index_dir, "parts", f"part={p}")
            os.makedirs(pdir, exist_ok=True)
            r0, r1 = int(row_bounds[i]), int(row_bounds[i + 1])
            sha = _write_parquet(tbl.slice(r0, r1 - r0), _bucket_file(pdir, b))
            emit(p, b, r1 - r0, int(g_post[g]), sha=sha)

    run: list[int] = []  # posting groups pending, in block order
    run_post = 0
    for g in range(len(g_starts)):
        p, b = int(parts[g_starts[g]]), int(buckets[g_starts[g]])
        grp = block.slice(g_starts[g], g_lens[g])
        if p >= num_parts:
            n_docs, total_tokens = write_docstats_bucket(grp, index_dir, b)
            emit(p, b, n_docs, n_docs=n_docs, total_tokens=total_tokens)
        elif b == TERMDF_BUCKET:
            pdir = os.path.join(index_dir, "parts", f"part={p}")
            os.makedirs(pdir, exist_ok=True)
            df = pc.list_flatten(grp["tfs"]).cast(pa.int64())
            emit(p, b, _write_termdf(pdir, pa.table({"term": grp["term"], "df": df})).num_rows)
        else:
            if run and run_post + g_post[g] > ENCODE_POSTINGS_BUDGET:
                encode_run(run)
                run, run_post = [], 0
            run.append(g)
            run_post += int(g_post[g])
    if run:
        encode_run(run)
    return pa.table(rows, schema=_bucket_stats_schema())


def write_docstats_bucket(group: pa.Table, index_dir: str, bucket: int) -> tuple[int, int]:
    """Sentinel group -> docstats/bucket=<b>.parquet (atomic); returns
    (docs, total tokens)."""
    ids = pc.list_flatten(group["doc_ids"]).to_numpy(zero_copy_only=False)
    lens = pc.list_flatten(group["dls"]).to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(ids, kind="stable")
    ids, lens = ids[order], lens[order]
    ddir = os.path.join(index_dir, "docstats")
    os.makedirs(ddir, exist_ok=True)
    fpath = os.path.join(ddir, f"bucket={bucket}.parquet")
    tbl = pa.table(
        {
            "doc_id": pa.array(ids, type=pa.int64()),
            "doc_len": pa.array(lens.astype(np.int32), type=pa.int32()),
        }
    )
    pq.write_table(tbl, fpath + ".tmp")
    os.replace(fpath + ".tmp", fpath)
    return len(ids), int(lens.sum())


def _bucket_file(pdir: str, bucket: int) -> str:
    return os.path.join(pdir, f"bucket={bucket}.parquet")


def read_partition_table(index_dir: str, part: int) -> pa.Table:
    """Concatenate one partition's bucket files back into the canonical
    (term asc, bucket asc) row order.  Missing partition -> empty table."""
    import glob as _glob

    pdir = os.path.join(index_dir, "parts", f"part={part}")
    files = sorted(
        _glob.glob(os.path.join(pdir, "bucket=*.parquet")),
        key=lambda f: int(os.path.basename(f)[len("bucket=") : -len(".parquet")]),
    )
    if not files:
        return pa.Table.from_pylist([], schema=_posting_file_schema())
    tbl = pa.concat_tables([pq.read_table(f) for f in files])
    # per-bucket files are term-sorted; the canonical global order is
    # (term, bucket) — utf8 byte order == code-point order, identical
    # to the build's Python-sorted term ranks
    return tbl.sort_by([("term", "ascending"), ("bucket", "ascending")]).combine_chunks()


def _write_termdf(pdir: str, tbl: pa.Table) -> pa.Table:
    """Atomic ``_termdf.parquet`` from a (term, df, ...) table, df
    summed per term — shared by the block encoder (batch-df rows), the
    full-partition write and the per-bucket compaction finalize so all
    produce identical bytes for identical content (input chunking
    normalized before the group)."""
    if tbl.num_rows:
        termdf = (
            tbl.select(["term", "df"])
            .combine_chunks()
            .group_by("term")
            .aggregate([("df", "sum")])
            .rename_columns(["term", "df"])
            .sort_by("term")
        )
    else:
        termdf = pa.table(
            {"term": pa.array([], pa.string()), "df": pa.array([], pa.int64())}
        )
    tpath = os.path.join(pdir, "_termdf.parquet")
    pq.write_table(termdf, tpath + ".tmp")
    os.replace(tpath + ".tmp", tpath)
    return termdf


def write_partition(
    tbl: pa.Table, index_dir: str, part: int, avgdl: float | None, lineage: str
) -> dict:
    """Atomic write of one partition + manifest; idempotent under retry.

    BUCKET-PRUNED layout: one parquet file per doc-range bucket
    (``bucket=<b>.parquet``, term-sorted within) plus a tiny per-term
    corpus-df summary (``_termdf.parquet``).  A doc-sharded server
    therefore reads ONLY its assigned bucket files — engine load I/O is
    ~1/S per server, and a partition larger than worker memory still
    serves because no reader ever needs the whole partition — while idf
    stays corpus-exact via the summary.  Stale bucket files from an
    earlier, larger build are removed.

    Returns the manifest as a dict of single-element lists (one output
    row for the manifests dataset).
    """
    import glob as _glob

    pdir = os.path.join(index_dir, "parts", f"part={part}")
    os.makedirs(pdir, exist_ok=True)
    written: dict[int, str] = {}
    if tbl.num_rows:
        buckets = sorted(set(tbl["bucket"].to_pylist()))
    else:
        buckets = []
    for b in buckets:
        sub = tbl.filter(pc.equal(tbl["bucket"], b))
        written[int(b)] = _write_parquet(sub, _bucket_file(pdir, int(b)))
    for f in _glob.glob(os.path.join(pdir, "bucket=*.parquet")):
        if int(os.path.basename(f)[len("bucket=") : -len(".parquet")]) not in written:
            os.remove(f)
    # per-term corpus df totals: the gdf source for bucket-sliced
    # loaders (corpus-exact idf without reading other buckets)
    termdf = _write_termdf(pdir, tbl)
    m = {
        "partition": part,
        "status": "done",
        "lineage": lineage,
        "n_rows": tbl.num_rows,
        "n_terms": termdf.num_rows,
        "n_postings": int(pc.sum(tbl["df"]).as_py() or 0),
        "n_docs": 0,
        "total_tokens": 0,
        "avgdl": avgdl,
        # partition content hash = hash of ordered per-bucket hashes
        "file_sha256": hashlib.sha256(
            "".join(written[b] for b in sorted(written)).encode()
        ).hexdigest(),
    }
    manifest.write_atomic(os.path.join(pdir, "manifest.json"), m)
    return {k: [v] for k, v in m.items()}


def annotate_partition(
    stats: list[dict], *, index_dir: str, num_parts: int, avgdl: float
) -> None:
    """Driver-side finalize from the block encoder's stat rows (one per
    file written, :func:`encode_bucket`): for each term partition,
    remove bucket files this build did not write (leftovers from an
    earlier build into the same dir) and write ``manifest.json`` —
    counters summed from the rows, ``avgdl``, and the partition hash,
    the sha256 of the bucket files' sha256 hex digests in bucket order.
    A partition that got no buckets also loses any earlier
    ``manifest.json``/``_termdf.parquet``: they would describe deleted
    data (stale df overlays, phantom postings).  No file is read: the
    manifests are byte-identical to :func:`write_partition`'s for the
    same content (the resume suite cross-checks the two paths)."""
    import glob as _glob

    buckets: dict[int, list[dict]] = {p: [] for p in range(num_parts)}
    n_terms: dict[int, int] = {}
    for r in stats:
        if r["part"] >= num_parts:
            continue
        if r["bucket"] == TERMDF_BUCKET:
            n_terms[r["part"]] = r["n_rows"]
        else:
            buckets[r["part"]].append(r)
    for p in range(num_parts):
        pdir = os.path.join(index_dir, "parts", f"part={p}")
        live = sorted(buckets[p], key=lambda r: r["bucket"])
        keep = {r["bucket"] for r in live}
        for f in _glob.glob(os.path.join(pdir, "bucket=*.parquet")):
            if int(os.path.basename(f)[len("bucket=") : -len(".parquet")]) not in keep:
                os.remove(f)
        if not live:
            for fname in ("manifest.json", "_termdf.parquet"):
                fp = os.path.join(pdir, fname)
                if os.path.exists(fp):
                    os.remove(fp)
            continue
        m = {
            "partition": p,
            "status": "done",
            "lineage": "fast-path",
            "n_rows": sum(r["n_rows"] for r in live),
            "n_terms": n_terms[p],
            "n_postings": sum(r["n_postings"] for r in live),
            "n_docs": 0,
            "total_tokens": 0,
            "avgdl": avgdl,
            "file_sha256": hashlib.sha256("".join(r["sha256"] for r in live).encode()).hexdigest(),
        }
        manifest.write_atomic(os.path.join(pdir, "manifest.json"), m)


def _decode_partition_flat(tbl: pa.Table) -> tuple[dict, bool]:
    """Whole-partition columnar decode — the inverse of
    :func:`encode_partition_rows`: :func:`cb.compress.decode_table` for
    the id/tf/dl streams plus one varint pass over the positions,
    recovering the flat (codes, buckets, doc_ids, tfs, dls, poss)
    arrays.  Returns ``(flat, store_positions)``; ``store_positions`` is
    False for indexes built without the positional stream."""
    n_rows = tbl.num_rows
    empty = {
        "codes": np.empty(0, dtype=np.int64),
        "dictionary": pa.array([], type=pa.string()),
        "buckets": np.empty(0, dtype=np.int32),
        "doc_ids": np.empty(0, dtype=np.int64),
        "tfs": np.empty(0, dtype=np.int64),
        "dls": np.empty(0, dtype=np.int64),
        "poss": np.empty(0, dtype=np.int64),
    }
    if n_rows == 0:
        return empty, True
    term_arr = tbl["term"].combine_chunks() if isinstance(tbl["term"], pa.ChunkedArray) else tbl["term"]
    codes_row, dictionary = _dict_indices(term_arr)
    dfs = tbl["df"].to_numpy(zero_copy_only=False).astype(np.int64)
    total = int(dfs.sum())
    if total == 0:
        return empty, True
    buckets_row = tbl["bucket"].to_numpy(zero_copy_only=False).astype(np.int32)
    ids, tfs, dls = compress.decode_table(tbl)
    pos_stream = compress._binary_column_stream(tbl["pos_blob"])
    total_occ = int(tfs.sum())
    store_positions = len(pos_stream) > 0 or total_occ == 0
    if store_positions and total_occ:
        pv = compress.varint_decode(pos_stream, total_occ)
        pt = np.cumsum(pv, dtype=np.uint64)
        occ_starts = _cumsum0(tfs)[:-1]  # position deltas reset per posting
        pbase = np.empty(total, dtype=np.uint64)
        pbase[0] = np.uint64(0)
        pbase[1:] = pt[occ_starts[1:] - 1]
        poss = (pt - np.repeat(pbase, tfs)).astype(np.int64)
    else:
        poss = np.empty(0, dtype=np.int64)
    flat = {
        "codes": np.repeat(codes_row.astype(np.int64), dfs),
        "dictionary": dictionary,
        "buckets": np.repeat(buckets_row, dfs),
        "doc_ids": ids,
        "tfs": tfs,
        "dls": dls,
        "poss": poss,
    }
    return flat, store_positions


def _drop_postings(fpath: str, tombs: np.ndarray) -> bool:
    """Rewrite one bucket file without the postings of the sorted doc
    ids ``tombs``; False when nothing survives (the file is removed, as
    a fresh build writes no file for an empty bucket)."""
    flat, store_positions = _decode_partition_flat(pq.read_table(fpath))
    keep = np.ones(len(flat["doc_ids"]), dtype=bool)
    if len(flat["doc_ids"]):
        pos_ = np.clip(np.searchsorted(tombs, flat["doc_ids"]), 0, len(tombs) - 1)
        keep = tombs[pos_] != flat["doc_ids"]
    occ_keep = np.repeat(keep, flat["tfs"]) if store_positions else None
    flat = {
        "codes": flat["codes"][keep],
        "dictionary": flat["dictionary"],
        "buckets": flat["buckets"][keep],
        "doc_ids": flat["doc_ids"][keep],
        "tfs": flat["tfs"][keep],
        "dls": flat["dls"][keep],
        "poss": flat["poss"][occ_keep] if store_positions else flat["poss"],
    }
    # fully-deleted term rows vanish on their own: row boundaries are
    # re-derived from the surviving (code, bucket) runs
    new_tbl = encode_partition_rows(flat, store_positions=store_positions)
    if new_tbl.num_rows == 0:
        os.remove(fpath)
        return False
    pq.write_table(new_tbl, fpath + ".tmp")
    os.replace(fpath + ".tmp", fpath)
    return True


def compact_index(index_dir: str) -> "IndexMeta":
    """Physically drop tombstoned documents (the ES segment-merge
    analog): filter every docstats bucket, recompute the corpus globals
    (N / avgdl change on compaction, exactly as a fresh build over the
    survivors would), then rewrite each bucket file that holds a
    tombstoned doc with those postings removed and block metadata
    re-derived; bucket files with no tombstone in their doc range are
    left untouched (no posting byte depends on N or avgdl).  Output is
    byte-identical to a fresh build over the surviving corpus (tested),
    and the tombstone set is cleared.

    Runs as a Ray Data pass over bucket control rows (one task per
    bucket file), like the build's finalize pass."""
    import ray.data

    from . import shard as shard_mod

    sentinel = os.path.join(index_dir, "_compacting.json")
    tomb = shard_mod.load_tombstones(index_dir)
    meta = IndexMeta(index_dir)
    if len(tomb) == 0:
        # a crash between tombstone removal and sentinel clear leaves a
        # dangling sentinel over a fully-compacted index — clear it
        if os.path.exists(sentinel):
            os.remove(sentinel)
        return meta
    # compaction-in-progress sentinel FIRST: pass 1 rewrites docstats +
    # _global.json to survivor stats before partitions are compacted, so
    # a crash mid-way leaves globals inconsistent with the postings; the
    # sentinel marks the index as mid-compaction (a re-run converges —
    # every step is idempotent — and the sentinel forces the operator to
    # know one is needed).  Cleared only after the tombstone set is.
    manifest.write_atomic(sentinel, {"tombstones": int(len(tomb))})

    # pass 1 (small): filter docstats buckets, recompute globals
    ddir = os.path.join(index_dir, "docstats")
    n_docs = 0
    total_tokens = 0
    for f in sorted(os.listdir(ddir)):
        if not f.endswith(".parquet"):
            continue
        path = os.path.join(ddir, f)
        t = pq.read_table(path)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        pos = np.clip(np.searchsorted(tomb, ids), 0, len(tomb) - 1)
        keep = tomb[pos] != ids
        if keep.all():  # no tombstone here: the file stays as is
            n_docs += t.num_rows
            total_tokens += int(pc.sum(t["doc_len"]).as_py() or 0)
            continue
        t2 = t.filter(pa.array(keep))
        if t2.num_rows == 0:
            os.remove(path)  # a fresh build writes no file for an empty bucket
            continue
        pq.write_table(t2, path + ".tmp")
        os.replace(path + ".tmp", path)
        n_docs += t2.num_rows
        total_tokens += int(pc.sum(t2["doc_len"]).as_py() or 0)
    write_global(index_dir, n_docs, total_tokens, meta.num_parts, meta.range_bits)
    avgdl = (total_tokens / n_docs) if n_docs else 0.0
    tomb_ref = ray.put(tomb)
    tomb_buckets = set((tomb >> (ID_BITS - meta.range_bits)).tolist())

    # pass 2a: PER-BUCKET rewrite — one task per (partition, bucket)
    # FILE, so task memory is bounded by a bucket file (not a whole
    # partition) and parallelism is num_parts x buckets.  A bucket with
    # no tombstone in its doc range keeps its file as is: its postings
    # and avgdl-free block summaries are what a fresh build writes.
    def compact_bucket(batch: pa.Table, *, index_dir: str) -> pa.Table:
        import hashlib

        import ray as _ray

        tombs = _ray.get(tomb_ref)
        out = {"part": [], "bucket": [], "sha": [], "n_rows": [], "n_postings": []}
        for p, b in zip(batch["part"].to_pylist(), batch["bucket"].to_pylist()):
            fpath = _bucket_file(os.path.join(index_dir, "parts", f"part={p}"), int(b))
            if int(b) in tomb_buckets and not _drop_postings(fpath, tombs):
                sha, n_rows, npost = "", 0, 0  # the bucket emptied: file removed
            else:
                with open(fpath, "rb") as f:
                    sha = hashlib.sha256(f.read()).hexdigest()
                dfs = pq.read_table(fpath, columns=["df"])["df"]
                n_rows, npost = len(dfs), int(pc.sum(dfs).as_py() or 0)
            out["part"].append(int(p))
            out["bucket"].append(int(b))
            out["sha"].append(sha)
            out["n_rows"].append(n_rows)
            out["n_postings"].append(npost)
        return pa.table(out)

    import glob as _glob

    items = []
    for p in range(meta.num_parts):
        pdir = os.path.join(index_dir, "parts", f"part={p}")
        for f in _glob.glob(os.path.join(pdir, "bucket=*.parquet")):
            items.append(
                {"part": p, "bucket": int(os.path.basename(f)[len("bucket=") : -len(".parquet")])}
            )
    stats: dict[int, list[dict]] = {p: [] for p in range(meta.num_parts)}
    if items:
        res = (
            ray.data.from_items(items)
            .map_batches(
                partial(compact_bucket, index_dir=index_dir),
                batch_format="pyarrow",
                batch_size=1,
            )
            .take_all()
        )
        for r in res:
            stats[r["part"]].append(r)

    # pass 2b: per-partition finalize — _termdf from a (term, df)-pruned
    # read of the surviving bucket files (shared writer => same bytes as
    # a fresh build), manifest counters from the per-bucket stats
    import hashlib as _hashlib

    for p in range(meta.num_parts):
        brows = stats[p]
        if not brows:
            continue  # partition had no bucket files before compaction
        pdir = os.path.join(index_dir, "parts", f"part={p}")
        live = sorted(
            (r for r in brows if r["n_rows"] > 0), key=lambda r: r["bucket"]
        )
        if live:
            termdf_src = pa.concat_tables(
                [
                    pq.read_table(_bucket_file(pdir, r["bucket"]), columns=["term", "df"])
                    for r in live
                ]
            )
        else:
            termdf_src = pa.Table.from_pylist([], schema=pa.schema(
                [("term", pa.string()), ("df", pa.int64())]
            ))
        termdf = _write_termdf(pdir, termdf_src)
        m = {
            "partition": p,
            "status": "done",
            "lineage": "compacted",
            "n_rows": int(sum(r["n_rows"] for r in brows)),
            "n_terms": termdf.num_rows,
            "n_postings": int(sum(r["n_postings"] for r in brows)),
            "n_docs": 0,
            "total_tokens": 0,
            "avgdl": avgdl,
            "file_sha256": _hashlib.sha256(
                "".join(r["sha"] for r in live).encode()
            ).hexdigest(),
        }
        manifest.write_atomic(os.path.join(pdir, "manifest.json"), m)

    os.remove(os.path.join(index_dir, "_tombstones.json"))
    os.remove(sentinel)
    return IndexMeta(index_dir)


class IndexMeta:
    """Loaded _global.json + paths."""

    def __init__(self, index_dir: str):
        self.index_dir = index_dir
        with open(os.path.join(index_dir, "_global.json")) as f:
            g = json.load(f)
        self.n_docs = g["n_docs"]
        self.total_tokens = g["total_tokens"]
        self.avgdl = g["avgdl"]
        self.num_parts = g["num_parts"]
        self.range_bits = g["range_bits"]

    def part_dir(self, part: int) -> str:
        return os.path.join(self.index_dir, "parts", f"part={part}")

    def docstats_dir(self) -> str:
        return os.path.join(self.index_dir, "docstats")

    def build_metrics(self) -> dict:
        """Per-stage observability counters surfaced from the build's
        manifests (the engine analog of the reference's per-shard-key
        counters, ShardKeyActor.cs:74-84): per-partition rows/terms/
        postings plus corpus totals, read back from what the build
        actually published — no recomputation."""
        parts = []
        for p in range(self.num_parts):
            m = manifest.read(
                os.path.join(self.index_dir, "parts", f"part={p}", "manifest.json")
            )
            if m:
                parts.append(
                    {
                        "partition": p,
                        "n_rows": m.get("n_rows", 0),
                        "n_terms": m.get("n_terms", 0),
                        "n_postings": m.get("n_postings", 0),
                        "status": m.get("status", "missing"),
                    }
                )
        return {
            "n_docs": self.n_docs,
            "total_tokens": self.total_tokens,
            "avgdl": self.avgdl,
            "num_parts": self.num_parts,
            "partitions_done": sum(1 for r in parts if r["status"] == "done"),
            "n_postings": sum(r["n_postings"] for r in parts),
            "n_rows": sum(r["n_rows"] for r in parts),
            "partitions": parts,
        }


def write_global(index_dir: str, n_docs: int, total_tokens: int, num_parts: int, range_bits: int) -> dict:
    g = {
        "n_docs": int(n_docs),
        "total_tokens": int(total_tokens),
        "avgdl": (float(total_tokens) / float(n_docs)) if n_docs else 0.0,
        "num_parts": num_parts,
        "range_bits": range_bits,
        "bm25": {"k1": 1.2, "b": 0.75},
        "analyzer": {
            "rules": analyze.SPLIT_RULES,
            "split": analyze.SPLIT_PATTERN,
            "stopwords": list(analyze.STOPWORDS),
            "max_token_len": analyze.MAX_TOKEN_LEN,
        },
        "version": 1,
    }
    manifest.write_atomic(os.path.join(index_dir, "_global.json"), g)
    return g


def auto_range_bits(
    n_docs: int,
    *,
    min_bits: int = DEFAULT_RANGE_BITS,
    max_bits: int = 8,
    docs_per_bucket: int = 1 << 18,
) -> int:
    """Corpus-size-derived doc-range bucketing.

    ``2**range_bits`` bounds BOTH the doc-sharded serving pool size and
    the per-partition file count, so the right value grows with the
    corpus: ~``docs_per_bucket`` (256k) docs per bucket keeps each
    bucket file a comfortable pruned-read unit, the floor keeps tiny
    corpora at the 16-bucket default, and the cap (256 buckets = a
    256-server pool per index group) bounds file-count fan-out — beyond
    that, scale serving by index GROUPS (cb.shard scale note), not more
    buckets."""
    import math

    if n_docs <= 0:
        return min_bits
    bits = math.ceil(math.log2(max(1, n_docs / docs_per_bucket)))
    return max(min_bits, min(max_bits, bits))


def auto_num_parts(
    n_docs: int,
    *,
    min_parts: int = DEFAULT_NUM_PARTS,
    max_parts: int = 1 << 18,
    docs_per_part: int = 1 << 18,
) -> int:
    """Corpus-size-derived term-partition count (the DESIGN_SCALE.md
    "size P so a partition is ~1 GB" rule made automatic, like
    :func:`auto_range_bits` is for buckets).

    ~``docs_per_part`` (256k) docs per term partition keeps a
    partition's pre-compression postings at roughly
    ``docs_per_part * avgdl * ~10B / num_parts``-independent ~1 GB for
    typical (~400-token) documents; the floor keeps small corpora at
    the 8-partition default, and the cap (256k partitions ≈ the 100 TB
    operating point) bounds routing-table and file-count fan-out.
    Encode parallelism and task memory do not depend on this knob: the
    encode runs once per sorted block of the ``(part, bucket)`` sort,
    in runs of at most :data:`ENCODE_POSTINGS_BUDGET` postings, so the
    value only controls file/resume/serving granularity."""
    import math

    if n_docs <= 0:
        return min_parts
    return max(min_parts, min(max_parts, math.ceil(n_docs / docs_per_part)))


def _source_row_count(path_source: str, columns=None) -> int:
    """Parquet metadata row count (no data read)."""
    import glob as _glob

    import pyarrow.parquet as _pq

    if os.path.isdir(path_source):
        files = sorted(_glob.glob(os.path.join(path_source, "*.parquet")))
    else:
        files = [path_source]
    return sum(_pq.ParquetFile(f).metadata.num_rows for f in files)


def build_index(
    source: ray.data.Dataset | str,
    index_dir: str,
    *,
    text_col: str = "content",
    id_col: str | None = None,
    columns: list[str] | None = None,
    num_parts: int | str = DEFAULT_NUM_PARTS,
    range_bits: int | str = DEFAULT_RANGE_BITS,
    batch_size: int = 2048,
    positions: bool = True,
) -> IndexMeta:
    """Fast-path build: full Ray Data pipeline, manifests written per
    partition (resume-at-write granularity).  For checkpointed resume
    without shuffle recompute use :mod:`cb.resumable`.

    ``positions=False`` skips the positional stream (~2x faster build,
    smaller index, no phrase queries).  ``range_bits="auto"`` /
    ``num_parts="auto"`` derive the doc-range bucket count and the
    term-partition count from the corpus size (:func:`auto_range_bits`
    / :func:`auto_num_parts`): free for parquet paths (metadata row
    count); for an in-memory Dataset the shared count costs a
    ``count()`` of the input pipeline.
    """
    import ray.data

    if range_bits == "auto" or num_parts == "auto":
        n = (
            _source_row_count(source, columns)
            if isinstance(source, str)
            else source.count()
        )
        if range_bits == "auto":
            range_bits = auto_range_bits(n)
        if num_parts == "auto":
            num_parts = auto_num_parts(n)
    if isinstance(source, str):
        source = ray.data.read_parquet(source, columns=columns)
    return _build_index_inner(
        source, index_dir, text_col, id_col, num_parts, range_bits, batch_size,
        positions,
    )


def reindex(
    src_index_dir: str,
    dst_index_dir: str,
    *,
    text_col: str = "text",
    num_parts: int | str = "auto",
    range_bits: int | str = "auto",
    positions: bool = True,
) -> IndexMeta:
    """ES ``_reindex``: build a NEW index from the SOURCE index's own
    document store — the docmeta table, whose stored text column the
    term-vectors store path already re-analyzes — with no access to the
    original corpus files.  Tombstoned docs are dropped in-stream, so
    reindex makes deletes physical and (with a changed analyzer or
    layout knobs) re-analyzes under the new config; pair with
    ``cb.snapshot.set_alias`` for the ES reindex-then-alias-flip
    pattern.

    Streaming at 100 TB: the doc store is one parquet file per
    doc-range bucket, read as a Ray Dataset (parallel, pruned to the
    id + text columns); the drop set is the tiny sorted tombstone
    array captured in the filter closure; everything downstream is the
    standard build pipeline (one tokenize pass, one (part, bucket)
    exchange).  Reference analog: ConveyorBelt delegates reindexing to
    Elasticsearch; here it is a first-class engine operator."""
    import ray.data

    from .shard import load_tombstones

    meta_p = os.path.join(src_index_dir, "docmeta", "_meta.json")
    if not os.path.exists(meta_p):
        raise ValueError(
            "reindex reads the source index's document store: build it "
            "with cb.docmeta.ensure_docmeta(index_dir, corpus, "
            f"[{text_col!r}, ...]) first"
        )
    with open(meta_p) as f:
        m = json.load(f)
    if text_col not in m["cols"]:
        raise ValueError(
            f"docmeta stores {m['cols']}, not the text column "
            f"{text_col!r}; rebuild the doc store with it included"
        )
    id_col = m.get("id_col", "doc_id")
    # file list from _meta.json bucket MEMBERSHIP, not a glob: a stale
    # bucket file from an earlier, larger docmeta build must never
    # resurrect phantom docs (the same rule DocMeta loads by)
    files = [
        os.path.join(src_index_dir, "docmeta", f"bucket={b}.parquet")
        for b in sorted(int(k) for k in m["buckets"])
    ]
    ds = ray.data.read_parquet(files, columns=[id_col, text_col])
    tomb = load_tombstones(src_index_dir)
    if len(tomb):
        from .shard import _live_mask

        def drop_deleted(batch: pa.Table) -> pa.Table:
            ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            return batch.filter(pa.array(_live_mask(ids, tomb)))

        ds = ds.map_batches(
            drop_deleted, batch_format="pyarrow", zero_copy_batch=True
        )
    return build_index(
        ds, dst_index_dir, text_col=text_col, id_col=id_col,
        num_parts=num_parts, range_bits=range_bits, positions=positions,
    )


def _build_index_inner(
    source: ray.data.Dataset,
    index_dir: str,
    text_col: str,
    id_col: str | None,
    num_parts: int,
    range_bits: int,
    batch_size: int,
    positions: bool = True,
) -> IndexMeta:
    ds = _normalize(source, text_col, id_col)

    # SINGLE tokenize pass: partial postings plus two kinds of sentinel
    # rows ride one shuffle — per-(part, term) batch df under
    # TERMDF_BUCKET, and doc stats in sentinel partitions
    # part >= num_parts (written to docstats/)
    partials = ds.map_batches(
        partial(
            tokenize_partials,
            num_parts=num_parts,
            range_bits=range_bits,
            emit_stats=True,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    )
    # the one exchange: a sort never splits a (part, bucket) key across
    # blocks, so each whole block is encoded in one call (runs of whole
    # groups up to ENCODE_POSTINGS_BUDGET postings) and every file of
    # the index — bucket files, _termdf, docstats — is written here
    rows = (
        partials.sort(["part", "bucket"])
        .map_batches(
            partial(
                encode_bucket,
                index_dir=index_dir,
                num_parts=num_parts,
                store_positions=positions,
            ),
            batch_format="pyarrow",
            batch_size=None,
            zero_copy_batch=True,
        )
        .take_all()
    )
    n_docs = sum(r["n_docs"] for r in rows)
    total_tokens = sum(r["total_tokens"] for r in rows)
    # stale-docstats sweep: DocStats.load concatenates EVERY parquet in
    # docstats/, so a rebuild that populates fewer doc-range buckets (or
    # follows a resumable build's shard=*.parquet layout) must not leave
    # files this build didn't write — phantom docs would mis-route
    # federated deletes and corrupt doc-length analytics while
    # write_global reports the correct smaller n_docs
    ds_written = {f"bucket={r['bucket']}.parquet" for r in rows if r["part"] >= num_parts}
    ddir = os.path.join(index_dir, "docstats")
    if os.path.isdir(ddir):
        for f in os.listdir(ddir):
            if f.endswith(".parquet") and f not in ds_written:
                os.remove(os.path.join(ddir, f))
    write_global(index_dir, n_docs, total_tokens, num_parts, range_bits)
    avgdl = (total_tokens / n_docs) if n_docs else 0.0
    # per-partition finalize on the driver, from the stat rows alone
    annotate_partition(rows, index_dir=index_dir, num_parts=num_parts, avgdl=avgdl)
    return IndexMeta(index_dir)
