"""Posting-list codec: delta + varint (FOR-style) with block-max metadata.

Per BASELINE.json north_star: postings are ``term -> sorted doc_id +
term-frequency arrays``, doc-id gaps delta-encoded then LEB128-varint
packed; every ``BLOCK`` entries carry (last doc_id, byte offsets, max
tf, min doc length) so the query side can skip blocks (block-max WAND)
and decode blocks independently.  The block summary holds no avgdl:
the query side turns it into an upper bound with the avgdl it scores
with (:func:`annotate_umax_table`), so no posting byte depends on
corpus-global statistics and every file is written once.

All encode/decode paths are numpy-vectorized (no per-posting Python
loop): encoding builds the byte stream with <=10 masked scatter passes
(one per possible varint byte), decoding recovers values with masked
gather passes over the continuation-bit structure.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import scoring

BLOCK = 128
_MAXB = 10  # max varint bytes for a 64-bit value


def varint_encode_with_sizes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """uint64 ndarray -> (LEB128 byte stream, per-value byte counts).

    All-small fast path: when every value < 128 (typical for tf/dl
    streams) the stream IS the values — one cast, ~16x over the general
    loop.  The general path scatters one byte position per pass
    (measured faster than an (n, K) byte-plane + boolean compress for
    mixed-width streams like delta-coded doc ids)."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    n = len(v)
    if n == 0:
        return np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64)
    if int(v.max()) < 128:  # 1-byte fast path
        return v.astype(np.uint8), np.ones(n, dtype=np.int64)
    nbytes = np.ones(n, dtype=np.int64)
    tmp = v >> np.uint64(7)
    while tmp.any():
        nbytes += (tmp > 0).astype(np.int64)
        tmp = tmp >> np.uint64(7)
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(nbytes[:-1], out=starts[1:])
    out = np.zeros(int(starts[-1] + nbytes[-1]), dtype=np.uint8)
    for k in range(_MAXB):
        mask = nbytes > k
        if not mask.any():
            break
        idx = starts[mask] + k
        byte = ((v[mask] >> np.uint64(7 * k)) & np.uint64(0x7F)).astype(np.uint8)
        cont = (nbytes[mask] - 1 > k).astype(np.uint8) << 7
        out[idx] = byte | cont
    return out, nbytes


def varint_encode(values: np.ndarray) -> np.ndarray:
    """uint64 ndarray -> LEB128 byte stream (uint8 ndarray)."""
    return varint_encode_with_sizes(values)[0]


def varint_decode(buf: np.ndarray, count: int | None = None) -> np.ndarray:
    """LEB128 byte stream -> uint64 ndarray (all values in the buffer)."""
    buf = np.frombuffer(buf, dtype=np.uint8) if isinstance(buf, (bytes, bytearray)) else np.asarray(buf, dtype=np.uint8)
    if len(buf) == 0:
        return np.empty(0, dtype=np.uint64)
    ends = np.flatnonzero((buf & 0x80) == 0)
    starts = np.empty(len(ends), dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    vals = np.zeros(len(ends), dtype=np.uint64)
    for k in range(int(lengths.max())):
        mask = lengths > k
        vals[mask] |= (buf[starts[mask] + k] & np.uint64(0x7F)).astype(np.uint64) << np.uint64(7 * k)
    if count is not None:
        assert len(vals) == count, f"decoded {len(vals)} values, expected {count}"
    return vals


def encode_ids(doc_ids: np.ndarray) -> np.ndarray:
    """Sorted int64 doc ids -> delta varint bytes (first id absolute)."""
    ids = np.ascontiguousarray(doc_ids, dtype=np.int64)
    deltas = np.empty(len(ids), dtype=np.uint64)
    if len(ids):
        deltas[0] = np.uint64(ids[0])
        np.subtract(ids[1:], ids[:-1], out=deltas[1:], casting="unsafe")
    return varint_encode(deltas)


def decode_ids(blob, count: int | None = None) -> np.ndarray:
    deltas = varint_decode(blob, count)
    return np.cumsum(deltas, dtype=np.uint64).astype(np.int64)


def _list(value_type: pa.DataType) -> pa.DataType:
    """A list type whose item field is named ``element`` — the name a
    parquet read-back gives it, so freshly encoded tables serialize to
    the same bytes as their own read-back."""
    return pa.list_(pa.field("element", value_type))


POSTING_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("df", pa.int64()),
        ("cf", pa.int64()),
        ("ids_blob", pa.binary()),
        ("tfs_blob", pa.binary()),
        ("dls_blob", pa.binary()),  # per-posting doc length (varint)
        ("pos_blob", pa.binary()),  # per-occurrence positions (varint deltas,
                                     # reset at each posting; counts == tf)
        ("block_last_id", _list(pa.int64())),
        # per block, interleaved: (max tf, min doc length) — avgdl-free
        ("block_bounds", _list(pa.int32())),
        ("block_id_off", _list(pa.int32())),
        ("block_tf_off", _list(pa.int32())),
        ("block_dl_off", _list(pa.int32())),
        ("block_pos_off", _list(pa.int32())),
    ]
)


def encode_postings(
    term: str,
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    doc_lens: np.ndarray,
    positions: np.ndarray | None = None,
) -> dict:
    """One term's sorted postings -> compressed row (dict per POSTING_SCHEMA).

    Per-posting doc lengths are stored IN the postings (varint stream):
    scoring never needs a doc-stats side table, which removes the
    docstats broadcast from the serving scale path entirely.

    ``block_bounds`` holds each block's (max tf, min doc length),
    interleaved; :func:`annotate_umax_table` turns it into block upper
    bounds at query time.
    """
    ids = np.ascontiguousarray(doc_ids, dtype=np.int64)
    tfs = np.ascontiguousarray(tfs, dtype=np.int64)
    dls = np.ascontiguousarray(doc_lens, dtype=np.int64)
    assert len(ids) == len(tfs) == len(dls)
    n = len(ids)
    if n == 0:
        return {
            "term": term, "df": 0, "cf": 0,
            "ids_blob": b"", "tfs_blob": b"", "dls_blob": b"", "pos_blob": b"",
            "block_last_id": [], "block_bounds": [],
            "block_id_off": [], "block_tf_off": [], "block_dl_off": [],
            "block_pos_off": [],
        }
    block_starts = np.arange(0, n, BLOCK, dtype=np.int64)
    block_ends = np.minimum(block_starts + BLOCK, n)
    # one vectorized pass over ALL blocks: deltas with a reset to the
    # absolute id at each block start (so blocks decode independently);
    # the concatenation of per-block LEB128 streams is byte-identical to
    # one stream over these reset deltas.
    deltas = np.empty(n, dtype=np.uint64)
    deltas[0] = np.uint64(ids[0])
    np.subtract(ids[1:], ids[:-1], out=deltas[1:], casting="unsafe")
    deltas[block_starts] = ids[block_starts].astype(np.uint64)
    id_bytes, id_sizes = varint_encode_with_sizes(deltas)
    tf_bytes, tf_sizes = varint_encode_with_sizes(tfs.astype(np.uint64))
    dl_bytes, dl_sizes = varint_encode_with_sizes(dls.astype(np.uint64))
    id_cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(id_sizes, out=id_cum[1:])
    tf_cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(tf_sizes, out=tf_cum[1:])
    dl_cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(dl_sizes, out=dl_cum[1:])
    bounds = interleave_bounds(
        np.maximum.reduceat(tfs, block_starts), np.minimum.reduceat(dls, block_starts)
    ).tolist()
    # positional stream: per-posting delta-encoded occurrence positions
    # (counts are the tfs, so no length prefix is needed); byte offsets
    # recorded at each BLOCK's first posting so blocks decode alone.
    if positions is not None:
        poss = np.ascontiguousarray(positions, dtype=np.int64)
        occ_starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(tfs, out=occ_starts[1:])
        assert len(poss) == occ_starts[-1], "positions must total sum(tf)"
        pdeltas = np.empty(len(poss), dtype=np.uint64)
        if len(poss):
            pdeltas[0] = np.uint64(poss[0])
            np.subtract(poss[1:], poss[:-1], out=pdeltas[1:], casting="unsafe")
            pdeltas[occ_starts[:-1]] = poss[occ_starts[:-1]].astype(np.uint64)
        pos_bytes, pos_sizes = varint_encode_with_sizes(pdeltas)
        pos_cum = np.zeros(len(poss) + 1, dtype=np.int64)
        np.cumsum(pos_sizes, out=pos_cum[1:])
        block_pos_off = pos_cum[occ_starts[block_starts]].tolist()
        pos_blob = pos_bytes.tobytes()
    else:
        pos_blob = b""
        block_pos_off = []
    return {
        "term": term,
        "df": n,
        "cf": int(tfs.sum()),
        "ids_blob": id_bytes.tobytes(),
        "tfs_blob": tf_bytes.tobytes(),
        "dls_blob": dl_bytes.tobytes(),
        "pos_blob": pos_blob,
        "block_last_id": ids[block_ends - 1].tolist(),
        "block_bounds": bounds,
        "block_id_off": id_cum[block_starts].tolist(),
        "block_tf_off": tf_cum[block_starts].tolist(),
        "block_dl_off": dl_cum[block_starts].tolist(),
        "block_pos_off": block_pos_off,
    }


def _binary_column_stream(col) -> np.ndarray:
    """Concatenated bytes of a binary column as one uint8 ndarray
    (zero-copy view over the Arrow data buffer)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if len(arr) == 0:
        return np.empty(0, dtype=np.uint8)
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int32)[arr.offset : arr.offset + len(arr) + 1]
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    return data[offs[0] : offs[-1]]


def int_column(col) -> np.ndarray:
    """Values of a fixed-width, null-free integer column as an ndarray
    of its own width: a zero-copy view over the Arrow data buffer (one
    copy when the column is chunked).  Unlike ``to_numpy`` it never
    imports pandas, which costs a serving process a large share of its
    start."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if not pa.types.is_integer(arr.type) or arr.null_count:
        raise TypeError(f"not a null-free integer column: {arr.type}, {arr.null_count} nulls")
    dtype = np.dtype(str(arr.type))
    if len(arr) == 0:
        return np.empty(0, dtype=dtype)
    end = arr.offset + len(arr)
    return np.frombuffer(arr.buffers()[1], dtype=dtype, count=end)[arr.offset : end]


def _block_starts(dfs: np.ndarray) -> np.ndarray:
    """Per-row df of a posting table -> flat posting index of every
    block start.  Row r's blocks start at row_start + {0, BLOCK,
    2*BLOCK, ...}."""
    n_blocks = (dfs + BLOCK - 1) // BLOCK
    row_starts = np.zeros(len(dfs), dtype=np.int64)
    np.cumsum(dfs[:-1], out=row_starts[1:])
    block_offsets = np.zeros(len(dfs) + 1, dtype=np.int64)
    np.cumsum(n_blocks, out=block_offsets[1:])
    block_in_row = np.arange(int(block_offsets[-1]), dtype=np.int64) - np.repeat(
        block_offsets[:-1], n_blocks
    )
    return np.repeat(row_starts, n_blocks) + block_in_row * BLOCK


def _column_varints(col, total: int) -> np.ndarray:
    """All varints of one blob column, decoded in ONE pass over the
    concatenated stream, as int64."""
    return varint_decode(_binary_column_stream(col), total).astype(np.int64)


def decode_table(tbl: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columnar decode of a posting table's (doc_ids, tfs, doc_lens)
    streams: one varint pass per stream over the concatenated blob
    columns, no per-row Python.  Row r's postings are the slice
    ``[cum_df[r], cum_df[r+1])`` of each array, equal to
    ``PostingList(row).decode_all()``.  Positions are not decoded.

    The encoded id deltas reset to an absolute id at every block start,
    so ids = running cumsum minus the cumsum just before each block."""
    dfs = int_column(tbl["df"]).astype(np.int64)
    total = int(dfs.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    starts = _block_starts(dfs)
    t = np.cumsum(varint_decode(_binary_column_stream(tbl["ids_blob"]), total), dtype=np.uint64)
    base = np.empty(len(starts), dtype=np.uint64)
    base[0] = np.uint64(0)
    base[1:] = t[starts[1:] - 1]
    ids = (t - np.repeat(base, np.diff(np.append(starts, total)))).astype(np.int64)
    return ids, _column_varints(tbl["tfs_blob"], total), _column_varints(tbl["dls_blob"], total)


def interleave_bounds(max_tf: np.ndarray, min_dl: np.ndarray) -> np.ndarray:
    """Per-block (max tf, min doc length) -> the ``block_bounds`` values
    (int32, the pair of block i at [2i, 2i+1])."""
    if len(max_tf) and max(int(max_tf.max()), int(min_dl.max())) > np.iinfo(np.int32).max:
        # a real error: a silent int32 wrap would store a wrong bound
        raise ValueError("a block's max tf or min doc length exceeds int32")
    out = np.empty(2 * len(max_tf), dtype=np.int32)
    out[0::2] = max_tf
    out[1::2] = min_dl
    return out


def annotate_umax_table(bounds: np.ndarray, avgdl: float) -> np.ndarray:
    """``block_bounds`` values -> each block's upper bound on the BM25
    u-factor under ``avgdl``: ``u_factor(max tf, min doc length)``.

    Valid for any avgdl because :func:`cb.scoring.u_factor` rises with
    tf and falls with doc length, and each float64 op rounds
    monotonically, so the bound is >= every posting's exact u in the
    block.  The query-side bound kernel: :class:`cb.wand.TermCursor`
    calls it through this module with the avgdl it scores with.  (The
    name predates the avgdl-free summaries; ``perfbench/trace.py``
    wraps it by name.)"""
    b = np.asarray(bounds, dtype=np.int64)
    return scoring.u_factor(b[0::2], b[1::2], avgdl)


class PostingList:
    """Decoded-on-demand view over one compressed posting row."""

    __slots__ = (
        "term", "df", "cf", "_ids_buf", "_tfs_buf", "_dls_buf", "_pos_buf",
        "last_ids", "bounds", "id_off", "tf_off", "dl_off", "pos_off",
    )

    def __init__(self, row: dict):
        self.term = row["term"]
        self.df = int(row["df"])
        self.cf = int(row["cf"])
        self._ids_buf = np.frombuffer(row["ids_blob"], dtype=np.uint8)
        self._tfs_buf = np.frombuffer(row["tfs_blob"], dtype=np.uint8)
        self._dls_buf = np.frombuffer(row["dls_blob"], dtype=np.uint8)
        self._pos_buf = np.frombuffer(row.get("pos_blob") or b"", dtype=np.uint8)
        self.last_ids = np.asarray(row["block_last_id"], dtype=np.int64)
        self.bounds = np.asarray(row["block_bounds"], dtype=np.int64)
        self.id_off = np.asarray(row["block_id_off"], dtype=np.int64)
        self.tf_off = np.asarray(row["block_tf_off"], dtype=np.int64)
        self.dl_off = np.asarray(row["block_dl_off"], dtype=np.int64)
        self.pos_off = np.asarray(row.get("block_pos_off") or [], dtype=np.int64)

    @property
    def has_positions(self) -> bool:
        return len(self._pos_buf) > 0 or self.cf == 0

    @property
    def n_blocks(self) -> int:
        return len(self.last_ids)

    def block_len(self, b: int) -> int:
        return min(BLOCK, self.df - b * BLOCK)

    def decode_block(self, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Block b -> (doc_ids, tfs, doc_lens), all int64."""
        id_end = self.id_off[b + 1] if b + 1 < self.n_blocks else len(self._ids_buf)
        tf_end = self.tf_off[b + 1] if b + 1 < self.n_blocks else len(self._tfs_buf)
        dl_end = self.dl_off[b + 1] if b + 1 < self.n_blocks else len(self._dls_buf)
        nb = self.block_len(b)
        deltas = varint_decode(self._ids_buf[self.id_off[b]:id_end], nb)
        ids = np.cumsum(deltas, dtype=np.uint64).astype(np.int64)
        tfs = varint_decode(self._tfs_buf[self.tf_off[b]:tf_end], nb).astype(np.int64)
        dls = varint_decode(self._dls_buf[self.dl_off[b]:dl_end], nb).astype(np.int64)
        return ids, tfs, dls

    def decode_all(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Whole-list decode in ONE varint pass per stream (not per
        block): the encoded deltas reset to an absolute id at each block
        start, so ids = running cumsum minus the cumsum just before each
        block start (vectorized with repeat)."""
        empty = np.empty(0, dtype=np.int64)
        if self.n_blocks == 0:
            return empty, empty, empty
        v = varint_decode(self._ids_buf, self.df)
        t = np.cumsum(v, dtype=np.uint64)
        starts = np.arange(0, self.df, BLOCK, dtype=np.int64)
        sizes = np.diff(np.append(starts, self.df))
        base = np.empty(len(starts), dtype=np.uint64)
        base[0] = np.uint64(0)
        base[1:] = t[starts[1:] - 1]
        ids = (t - np.repeat(base, sizes)).astype(np.int64)
        tfs = varint_decode(self._tfs_buf, self.df).astype(np.int64)
        dls = varint_decode(self._dls_buf, self.df).astype(np.int64)
        return ids, tfs, dls

    def decode_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """-> (flat positions int64, per-posting occurrence offsets).

        ``offsets`` has df+1 entries; posting i's positions are
        ``flat[offsets[i]:offsets[i+1]]`` (count == tf_i).  Raises if
        the index was built without positions."""
        if self.df == 0:
            return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
        if len(self._pos_buf) == 0:
            raise ValueError(
                f"postings for {self.term!r} carry no positions "
                "(index built by a pre-positional version)"
            )
        tfs = varint_decode(self._tfs_buf, self.df).astype(np.int64)
        offsets = np.zeros(self.df + 1, dtype=np.int64)
        np.cumsum(tfs, out=offsets[1:])
        v = varint_decode(self._pos_buf, int(offsets[-1]))
        t = np.cumsum(v, dtype=np.uint64)
        starts = offsets[:-1]
        base = np.empty(self.df, dtype=np.uint64)
        base[0] = np.uint64(0)
        base[1:] = t[starts[1:] - 1]
        flat = (t - np.repeat(base, tfs)).astype(np.int64)
        return flat, offsets
