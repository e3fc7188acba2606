"""Shard servers: stateful actor pool serving top-k BM25 queries.

The from-scratch replacement for what ConveyorBelt outsources to an
Elasticsearch cluster (README.md:5-8); structurally the analog of the
reference's long-lived stateful workers — connection+cache state loaded
once per worker (the reference's NestBatchPusher.cs:16-99 and
ElasticsearchClient.cs:22-45 index cache), here an actor that loads its
slice of the index once in ``__init__`` and serves many queries.

Topology: the index is TERM-partitioned on disk (hash(term) % num_parts),
and each partition is one parquet file per doc-range BUCKET
(cb.build).  :class:`QueryEngine` runs a DOC-SHARDED pool: server ``s``
owns the buckets :func:`doc_slices` assigns it, of EVERY partition, and
reads only those files, so load I/O and memory are ~1/S of the index
per server.  Every request fans out to every server, each answers over
its disjoint doc range (exact TAAT for top-k, block-max WAND
selectable), and the driver merges exactly — top-k by (score desc,
doc_id asc).
Aggregations follow the one protocol of :mod:`cb.aggs`:
:meth:`ShardScope.agg` computes a registry entry's partial over its
slice's match set, ``QueryEngine._agg_refs`` is the route, and the
driver merges the partials.  idf stays corpus-exact on a slice: per-term
global df comes from each partition's ``_termdf.parquet`` summary.
Scoring needs no side tables — per-posting doc lengths ride in the
postings (cb.compress) — so the only corpus-global serving state is
(N, avgdl) from ``_global.json`` (or a federation's overlay).

One scope class, one pool under every engine.  :class:`ShardScope` is
the one server-side implementation: it loads a doc-range slice
(``buckets``; None is the whole index), applies a federation's overlay
(``fed``), masks tombstones (routing WAND to exact TAAT, whose
universe can be masked before ranking), and answers every request.
:class:`ShardServer` is that class as a pool actor and
:class:`LocalSearcher` is it over the whole index in process, adding
only text front ends that analyze or parse a request before calling
the same method; the multifield index
has the same split (:class:`cb.multifield.MultiFieldSearcher` and its
actor :class:`cb.multifield.MultiFieldServer`).  :class:`ServerPool` is
the driver half of every serving pool — this module's,
:class:`cb.multifield.MultiFieldEngine`'s and each :mod:`cb.federated`
member's.  It constructs the actors, owns their connections and the
driver's phase timers, fans requests out, reports ``metrics()`` in one
shape and shuts the actors down; an engine keeps only its routing and
merging.  Ray places the server actors, runs their ``__init__`` and
kills them (the control plane).  Every request after that — ``score``,
``warm``, ``metrics``, aggregations — travels over one authenticated
socket per server (:mod:`cb.rpc`, the data plane), not as a Ray actor
task: :meth:`ServerPool.fanout` sends to every server and returns reply
handles, and :func:`cb.rpc.get` waits for them.  Replies come back in
send order, so msearch and federations put many requests in flight
before waiting, and a dead server raises :class:`cb.rpc.ServerDied`.

Load and warm stay columnar.  A server's :class:`ShardPartition` holds
its bucket rows as one Arrow table and, from one pass at load, each
term's row range and df/cf; :meth:`ShardPartition.get` returns a lazy
:class:`ChunkedPostings` view over that range, which copies and decodes
nothing until asked.  :meth:`ShardScope.warm` pre-decodes a server's
postings so the first queries do not pay it: per loaded partition it
selects the rows of the terms to warm, decodes their id/tf/dl streams
in ONE varint pass per stream (:func:`cb.compress.decode_table`),
computes the BM25 u-factor once over the flat arrays, maps the ids to
their ordinals in the slice's doc universe (the sorted doc ids of the
docstats files it owns), and caches each term's ``(ids, u, ords)`` as
slices — the decoded cache ``wand.taat_scores`` reads, where idf
multiplies at use and the ordinals let one ``np.bincount`` accumulate
a query with no sort — plus the
term's view, whose per-chunk :class:`~cb.compress.PostingList` rows
are built only if a positional reader or WAND's cursor asks.  Serving
processes never import Ray Data (every module a server loads imports
it inside the functions that build Datasets), pandas or
``pyarrow.dataset``: a server reads its parquet files with
``pq.ParquetFile(...).read()`` (``pq.read_table`` imports both) and
takes integer columns straight from their Arrow buffers
(:func:`cb.compress.int_column`; ``to_numpy`` and ``pa.array`` over
Python objects import pandas).  Only docmeta-backed requests (filters,
aggregations) may still import pandas.

Scale note (10^12 docs): with doc lengths posting-resident, serving
shards are self-contained; adding servers re-slices the doc ranges, and
doc-range index GROUPS (cb.federated) fan out and merge the same way.
"""

from __future__ import annotations

import glob
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from . import analyze, compress, phrase as phrase_mod, rpc, scoring, wand
from .aggs import (
    AGGS, AggRoute, _collapse_from_top_hits, _jlh_rank, _merge_sig,
    _merge_topk, _page_composite, _pct_ranges, _pct_ranks_from_counts,
)
from .build import ID_BITS, IndexMeta, _cumsum0, term_partition
from .compress import PostingList
from .query import check_algo, check_k
from .telemetry import Telemetry, merge_snapshots


class ChunkedPostings:
    """One term's posting list = ordered doc-id-range chunks, as a lazy
    view over the term's rows ``[start, stop)`` of a (term, bucket)-
    sorted posting table (one row per chunk).

    ``df``/``cf`` count the chunks HELD here; ``gdf`` is the term's
    corpus-global df (equal to ``df`` when a server holds the whole
    list, the partition-file total when it holds a doc-range slice) —
    idf must always use ``gdf`` or doc-sharded scores would drift.

    Nothing is copied or decoded at construction: :meth:`decode_all` is
    one columnar pass over the rows (:func:`cb.compress.decode_table`),
    and the per-chunk :class:`PostingList` rows that the positional
    readers and WAND's cursor walk are built on first access to
    ``chunks``.  ``rows`` may also be a list of row dicts (one per
    chunk, each with its ``bucket``)."""

    __slots__ = ("term", "df", "cf", "gdf", "table", "start", "stop", "_chunks")

    def __init__(
        self,
        term: str,
        rows: pa.Table | list[dict],
        global_df: int | None = None,
        *,
        start: int = 0,
        stop: int | None = None,
        df: int | None = None,
        cf: int | None = None,
    ):
        if not isinstance(rows, pa.Table):
            rows = pa.Table.from_pylist(sorted(rows, key=lambda r: r["bucket"]))
        self.term = term
        self.table = rows
        self.start = start
        self.stop = rows.num_rows if stop is None else stop
        if df is None:
            own = self._rows()
            df = sum(own["df"].to_pylist())
            cf = sum(own["cf"].to_pylist())
        self.df, self.cf = int(df), int(cf)
        self.gdf = int(global_df) if global_df is not None else self.df
        self._chunks: list[PostingList] | None = None

    def _rows(self) -> pa.Table:
        return self.table.slice(self.start, self.stop - self.start)

    @property
    def chunks(self) -> list[PostingList]:
        if self._chunks is None:
            self._chunks = [PostingList(r) for r in self._rows().to_pylist()]
        return self._chunks

    def decode_all(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return compress.decode_table(self._rows())


class DocStats:
    """doc_id -> doc_len lookup (sorted arrays + searchsorted).

    Its lengths are NOT used for scoring (doc lengths ride in the
    postings); they back doc-length ANALYTICS over the docstats table
    the build writes (e.g. the doc_stats pipelines and tests).  Its
    sorted ids are a scope's doc universe, which dense TAAT
    accumulates over (:func:`cb.wand.dense_sum`)."""

    __slots__ = ("ids", "lens", "n_docs", "avgdl")

    def __init__(self, ids: np.ndarray, lens: np.ndarray, n_docs: int, avgdl: float):
        order = np.argsort(ids, kind="stable")
        self.ids = ids[order]
        self.lens = lens[order]
        self.n_docs = n_docs
        self.avgdl = avgdl

    @classmethod
    def load(cls, index_dir: str, buckets: list[int] | None = None) -> "DocStats":
        """``buckets`` restricts the read to those doc-range bucket
        files (docstats/bucket=<b>.parquet) — a doc-sharded server
        loads only its own slice's lengths, same pruning contract as
        the postings read.  A layout not named by bucket (a resumable
        build's ``shard=<s>`` files) is read whole and filtered by id."""
        meta = IndexMeta(index_dir)
        ds_dir = meta.docstats_dir()
        names = sorted(f for f in os.listdir(ds_dir) if f.endswith(".parquet"))
        by_bucket = buckets is not None and all(f.startswith("bucket=") for f in names)
        if by_bucket:
            want = {f"bucket={b}.parquet" for b in buckets}
            names = [f for f in names if f in want]
        tables = [
            pq.ParquetFile(os.path.join(ds_dir, f)).read(columns=["doc_id", "doc_len"])
            for f in names
        ]
        ids, lens = (
            np.concatenate([np.empty(0, np.int64)] + [compress.int_column(t[c]) for t in tables])
            for c in ("doc_id", "doc_len")
        )
        if buckets is not None and not by_bucket:
            keep = np.isin(ids >> (ID_BITS - meta.range_bits), buckets)
            ids, lens = ids[keep], lens[keep]
        return cls(ids, lens, meta.n_docs, meta.avgdl)

    def lookup(self, doc_ids: np.ndarray) -> np.ndarray:
        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        pos = np.clip(np.searchsorted(self.ids, doc_ids), 0, max(len(self.ids) - 1, 0))
        if len(self.ids) == 0 or not np.array_equal(self.ids[pos], doc_ids):
            missing = doc_ids if len(self.ids) == 0 else doc_ids[self.ids[pos] != doc_ids]
            raise KeyError(f"doc ids not in docstats: {missing[:5].tolist()}...")
        return self.lens[pos]


class ShardPartition:
    """One term partition, loaded once; postings decoded on demand.

    The on-disk layout is BUCKET-PRUNED (one parquet file per doc-range
    bucket, cb.build.write_partition): ``buckets`` restricts the READ to
    a doc-range subset — a doc-sharded server touches only its own
    bucket files, so load I/O is ~1/S per server and a partition larger
    than worker memory still serves.  Per-term GLOBAL df comes from the
    partition's tiny ``_termdf.parquet`` summary, so idf stays
    corpus-exact on any slice without reading other buckets."""

    def __init__(self, path: str, buckets: list[int] | None = None):
        """Load the bucket files of the partition DIRECTORY ``path``
        (all of them, or those of ``buckets``) and its df summary."""
        import pyarrow.compute as pc

        self.table: pa.Table | None = None
        # term -> (first row, end row, df, cf) of its rows in ``table``
        self.offsets: dict[str, tuple[int, int, int, int]] = {}
        self.global_df: dict[str, int] = {}
        if not os.path.isdir(path):
            return
        want = None if buckets is None else set(buckets)
        files = []
        for f in glob.glob(os.path.join(path, "bucket=*.parquet")):
            b = int(os.path.basename(f)[len("bucket=") : -len(".parquet")])
            if want is None or b in want:
                files.append((b, f))
        global_df = None
        tdf = os.path.join(path, "_termdf.parquet")
        if os.path.exists(tdf):
            global_df = read_term_df(tdf)
        if not files:
            self.global_df = global_df or {}
            return
        tables = []
        for _, f in sorted(files):
            t = pq.ParquetFile(f).read()
            if "block_umax" in t.column_names and "block_bounds" not in t.column_names:
                raise ValueError(
                    f"{f}: old-format posting file (block_umax, no block_bounds); "
                    "rebuild the index"
                )
            tables.append(t)
        self.table = table = pa.concat_tables(tables).sort_by(
            [("term", "ascending"), ("bucket", "ascending")]
        )
        # One pass over the (term, bucket)-sorted rows: Arrow run-end
        # detection (one dictionary_encode + one vectorized diff, no
        # per-row Python compares) gives each term's row range, and one
        # reduceat per count column its df/cf.  The rows are term-sorted,
        # so the dictionary (codes in first-seen order) lists the terms
        # in run order.
        if table.num_rows:
            enc = pc.dictionary_encode(table["term"].combine_chunks())
            codes = compress.int_column(enc.indices)
            change = np.empty(len(codes), dtype=bool)
            change[0] = True
            change[1:] = codes[1:] != codes[:-1]
            starts = np.flatnonzero(change)
            stops = np.append(starts[1:], len(codes))
            dfs, cfs = (
                np.add.reduceat(compress.int_column(table[c]).astype(np.int64), starts)
                for c in ("df", "cf")
            )
            terms = enc.dictionary.to_pylist()
            self.offsets = dict(
                zip(terms, zip(starts.tolist(), stops.tolist(), dfs.tolist(), cfs.tolist()))
            )
        if global_df is None:  # no corpus summary: the rows' own df
            global_df = {t: o[2] for t, o in self.offsets.items()}
        self.global_df = global_df

    def get(self, term: str) -> ChunkedPostings | None:
        """The term's lazy postings view (nothing copied or decoded)."""
        loc = self.offsets.get(term)
        if loc is None:
            return None
        start, stop, df, cf = loc
        return ChunkedPostings(
            term, self.table, self.global_df.get(term), start=start, stop=stop, df=df, cf=cf
        )


def delete_docs(index_dir: str, doc_ids) -> int:
    """Tombstone documents (ES DELETE-by-id parity): ids are appended to
    ``_tombstones.json`` (atomic rewrite); every query path masks them
    at ranking time — postings stay immutable, deletes are metadata.
    A rebuild (or future compaction) physically drops them.  Returns
    the total tombstone count."""
    import json

    from . import manifest

    path = os.path.join(index_dir, "_tombstones.json")
    existing = manifest.read(path) or {"doc_ids": []}
    merged = sorted(set(existing["doc_ids"]) | {int(d) for d in doc_ids})
    manifest.write_atomic(path, {"doc_ids": merged})
    return len(merged)


def put_alias(index_dir: str, name: str, filters: dict | None = None) -> None:
    """ES index alias (optionally FILTERED): alias metadata is index
    state (`_aliases.json`, atomic rewrite — the `_aliases` API), and
    every query through the alias applies its filter as ES filter
    context (membership only, scores untouched).  Idempotent upsert."""
    from . import manifest

    path = os.path.join(index_dir, "_aliases.json")
    cur = manifest.read(path) or {}
    cur[name] = {"filters": dict(filters or {})}
    manifest.write_atomic(path, cur)


def delete_alias(index_dir: str, name: str) -> bool:
    """Remove an alias; returns whether it existed."""
    from . import manifest

    path = os.path.join(index_dir, "_aliases.json")
    cur = manifest.read(path) or {}
    existed = name in cur
    if existed:
        del cur[name]
        manifest.write_atomic(path, cur)
    return existed


def get_aliases(index_dir: str) -> dict:
    """Alias name -> {filters} for an index dir."""
    from . import manifest

    return manifest.read(os.path.join(index_dir, "_aliases.json")) or {}


def load_tombstones(index_dir: str) -> np.ndarray:
    from . import manifest

    t = manifest.read(os.path.join(index_dir, "_tombstones.json"))
    return np.array(sorted(t["doc_ids"]), dtype=np.int64) if t else np.empty(0, dtype=np.int64)


def _live_mask(ids: np.ndarray, tomb: np.ndarray) -> np.ndarray:
    """True where ``ids`` is NOT tombstoned (both int64; tomb sorted)."""
    if len(tomb) == 0:
        return np.ones(len(ids), dtype=bool)
    pos = np.clip(np.searchsorted(tomb, ids), 0, len(tomb) - 1)
    return tomb[pos] != ids


def _phrase_topk_live(ordered_terms, postings, stats, k, tomb, slop=0):
    """Tombstone-aware phrase top-k: over-fetch ADAPTIVELY (start at
    k + min(|tomb|, 64), escalate to the exact k + |tomb| bound only
    when the first cut might have truncated survivors), then drop dead
    docs with ONE vectorized liveness mask over the whole result id
    array — per-query cost no longer grows linearly with the total
    number of deletes ever issued."""
    if len(tomb) == 0:
        return phrase_mod.phrase_topk(ordered_terms, postings, stats, k, slop=slop)
    probe = k + min(len(tomb), 64)
    res = phrase_mod.phrase_topk(ordered_terms, postings, stats, probe, slop=slop)
    ids = np.fromiter((d for d, _ in res), dtype=np.int64, count=len(res))
    keep = _live_mask(ids, tomb)
    if int(keep.sum()) < k and len(res) == probe and probe < k + len(tomb):
        # possibly truncated: retry with the exact worst-case bound
        res = phrase_mod.phrase_topk(ordered_terms, postings, stats, k + len(tomb), slop=slop)
        ids = np.fromiter((d for d, _ in res), dtype=np.int64, count=len(res))
        keep = _live_mask(ids, tomb)
    return [r for r, ok in zip(res, keep) if ok][:k]


class GlobalStats:
    """The only corpus-global state scoring needs: N and avgdl.

    Doc lengths ride inside the postings (cb.compress), so there is NO
    doc-stats side table to broadcast to servers — the serving scale
    path needs just these two scalars per index.  ``universe`` is a
    scope's own slice's doc ids, a local index for dense TAAT, not
    corpus-global state."""

    __slots__ = ("n_docs", "avgdl", "universe")

    def __init__(self, n_docs: int, avgdl: float, universe: np.ndarray | None = None):
        self.n_docs = n_docs
        self.avgdl = avgdl
        # the scope's slice's sorted doc ids (None: unknown), which
        # ``wand.taat_scores`` accumulates over densely
        self.universe = universe


def read_term_df(path: str) -> dict[str, int]:
    """A (term, df) summary file (a partition's ``_termdf.parquet`` or
    a federation's feddf) as term -> df."""
    t = pq.ParquetFile(path).read(columns=["term", "df"])
    return dict(zip(t["term"].to_pylist(), compress.int_column(t["df"]).tolist()))


def load_vocab(meta: IndexMeta) -> list[str]:
    """Index vocabulary: the union of the partitions' ``_termdf.parquet``
    term columns (vocabulary-sized, NOT corpus-sized — this is the same
    tiny summary doc-sharded servers read for corpus-global df).  Used
    driver-side to rewrite wildcard/fuzzy query atoms into concrete
    terms; servers never need it."""
    cols = []
    for p in range(meta.num_parts):
        path = os.path.join(meta.part_dir(p), "_termdf.parquet")
        if os.path.exists(path):
            cols.append(pq.ParquetFile(path).read(columns=["term"])["term"])
    if not cols:
        return []
    return pa.chunked_array(cols).to_pylist()


def warm_partition(
    part: ShardPartition, decoded: dict, avgdl: float, min_df: int, universe: np.ndarray | None = None
) -> list[str]:
    """One columnar pass over a partition's loaded slice: select the
    rows of the terms to warm (df >= ``min_df``, not yet in
    ``decoded``; so the cached slices never pin cold postings), decode
    them with ONE varint pass per stream
    (:func:`cb.compress.decode_table`), compute the u-factor once over
    the flat arrays against ``avgdl``, map the flat ids to their
    ordinals in the slice's sorted ``universe`` with one searchsorted
    (:func:`cb.wand.doc_ordinals`; None without one), and cache each
    term's ``(ids, u, ords)`` in ``decoded`` as slices.  u is weight-independent;
    idf multiplies at use (``taat_scores``' cache contract).  Every
    scope's warm (single-field, and each field of a multifield scope)
    is this pass.  Returns the terms warmed."""
    if part.table is None:
        return []
    terms, dfs = [], []
    runs: list[list[int]] = []  # the selected row ranges, adjacent ones merged
    for term, (start, stop, df, _) in part.offsets.items():  # row order
        if term in decoded or part.global_df.get(term, df) < min_df:
            continue
        terms.append(term)
        dfs.append(df)
        if runs and runs[-1][1] == start:
            runs[-1][1] = stop
        else:
            runs.append([start, stop])
    if not terms:
        return []
    ids, tfs, dls = compress.decode_table(
        pa.concat_tables([part.table.slice(a, b - a) for a, b in runs])
    )
    u = scoring.u_factor(tfs, dls, avgdl)
    bounds = _cumsum0(np.array(dfs)).tolist()  # each term's postings
    ords = wand.doc_ordinals(universe, ids)
    for i, term in enumerate(terms):
        a, b = bounds[i], bounds[i + 1]
        decoded[term] = (ids[a:b], u[a:b], None if ords is None else ords[a:b])
    return terms


class ShardScope:
    """One doc-range slice of an index: the doc-range buckets
    ``buckets`` of every term partition (None: every bucket, the whole
    index), loaded once and serving many requests.  The one server-side
    implementation: :class:`ShardServer` is this class as a pool actor,
    and :class:`LocalSearcher` is it over the whole index in process.

    Load is PRUNED AT THE READ: the partition layout is one file per
    doc-range bucket, so a scope opens only its bucket files — bytes
    read per server ~ 1/S of the index, no loader tasks, no shared
    full-file decode, and partitions larger than one worker's memory
    still serve.  ``fed`` (a federation dir, :mod:`cb.federated`) makes
    the scope a federation member: it scores with the federation-global
    (N, avgdl) and per-term df (:func:`cb.federated.fed_overlay`), so
    top-k lists merge exactly across sub-indexes; WAND's block bounds
    use the same overlay avgdl, so it stays exact on members."""

    def __init__(self, index_dir: str, buckets: list[int] | None = None, fed: str | None = None):
        t0 = time.perf_counter()
        meta = IndexMeta(index_dir)
        self.parts = {
            p: ShardPartition(meta.part_dir(p), buckets=buckets)
            for p in range(meta.num_parts)
        }
        n_docs, avgdl = meta.n_docs, meta.avgdl
        if fed is not None:
            from .federated import fed_overlay

            n_docs, avgdl = fed_overlay(fed, self.parts)
        # the slice's doc lengths, whose sorted ids are the universe
        # dense TAAT accumulates over (None: an index with no docstats)
        self._docstats = (
            DocStats.load(index_dir, buckets) if os.path.isdir(meta.docstats_dir()) else None
        )
        self.stats = GlobalStats(
            n_docs, avgdl, None if self._docstats is None else self._docstats.ids
        )
        self.n_docs = n_docs
        self.num_parts = meta.num_parts
        self.range_bits = meta.range_bits
        self.index_dir = index_dir
        self.buckets = buckets  # this scope's doc-range slice
        # tombstones are read ONCE at scope start: deletes issued later
        # need a new engine (documented delete_docs contract)
        self.tombstones = load_tombstones(index_dir)
        self._docmeta = None  # lazy DocMeta for filtered search
        from collections import OrderedDict

        self.cache: dict[str, ChunkedPostings | None] = {}
        self.decoded: dict[str, tuple] = {}  # term -> (ids, u, ords) numpy
        self._idfs: dict[str, float] = {}  # term -> idf memo (_live_idfs)
        # (terms, k, algo) -> result, true LRU (hits refresh recency)
        self.results: OrderedDict[tuple, list] = OrderedDict()
        self._results_cap = 4096
        # ES request-cache analog: parsed clause set -> this scope's
        # matched doc ids.  Every full-match aggregation (facets,
        # histogram, range, composite, sampler, filters, adjacency,
        # significant) shares it, so repeated aggregations over the
        # same query pay the match pass once per scope lifetime.
        # Safe because the inputs are fixed per scope: the index is
        # immutable, tombstones load once, docmeta is read-only.
        self._match_cache: OrderedDict[str, np.ndarray | None] = OrderedDict()
        self._match_cache_cap = 32
        # per-scope stage counters (TelemetryProvider.cs analog);
        # rolled up by QueryEngine.metrics()
        self.telemetry = Telemetry()
        self.telemetry.record("server.init", time.perf_counter() - t0)

    def _cached_match(self, parsed: dict, dm) -> np.ndarray | None:
        """This scope's matched doc ids for a parsed clause set, LRU-
        cached (the ES request cache): None = nothing can match."""
        from . import querylang

        key = repr(parsed)
        hit = self._match_cache.get(key)
        if hit is not None or key in self._match_cache:
            self._match_cache.move_to_end(key)
            self.telemetry.incr("server.match_cache_hit")
            return hit
        universe, _, keep = querylang.match(
            parsed,
            get_postings=self.get_postings,
            stats=self.stats,
            docmeta=dm,
            decoded_cache=self.decoded,
            drop_ids=self.tombstones,
        )
        ids = None if universe is None else universe[keep]
        if len(self._match_cache) >= self._match_cache_cap:
            self._match_cache.popitem(last=False)
        self._match_cache[key] = ids
        return ids

    def _dm(self):
        """This slice's DocMeta, loaded once on first use (the bucket
        range shards the filter table with the postings).  On an index
        without one, every request that needs it is a ValueError."""
        if self._docmeta is None:
            from . import docmeta as docmeta_mod

            try:
                self._docmeta = docmeta_mod.DocMeta(self.index_dir, buckets=self.buckets)
            except FileNotFoundError:
                raise ValueError(
                    f"{self.index_dir}: no docmeta table is loaded (build one with cb.docmeta)"
                ) from None
        return self._docmeta

    def _dm_for(self, *parsed: dict):
        """DocMeta when any parsed clause set filters on metadata or
        scopes a phrase to a field, else None (plain term queries never
        load it)."""
        if any(p.get("filters") or p.get("scoped_phrases") for p in parsed):
            return self._dm()
        return None

    def get_postings(self, term: str) -> ChunkedPostings | None:
        if term not in self.cache:
            p = term_partition(term, self.num_parts)
            self.cache[term] = self.parts[p].get(term)
        return self.cache[term]

    def warm(self, min_df: int = 0) -> int:
        """Pre-decode postings + contribution vectors for this slice's
        terms with df >= min_df (the first-touch decode otherwise lands
        on the first query: p95).  Returns the number of terms warmed by
        this call (terms already decoded are skipped)."""
        with self.telemetry.timer("server.warm"):
            n = 0
            for part in self.parts.values():
                terms = warm_partition(
                    part, self.decoded, self.stats.avgdl, min_df, self.stats.universe
                )
                for term in terms:
                    # score reads df/gdf from the cached view; its chunks
                    # stay unbuilt until a positional reader or WAND asks
                    self.get_postings(term)
                n += len(terms)
        self.telemetry.incr("server.terms_warmed", n)
        return n

    def _live_idfs(self, terms) -> tuple[dict, dict]:
        """The query terms present in this slice -> their postings, and
        each one's corpus-global idf (``gdf``, so slices score alike)."""
        live = {t: p for t in terms if (p := self.get_postings(t)) is not None}
        idfs = {}
        for t, p in live.items():
            w = self._idfs.get(t)
            if w is None:  # gdf and N are fixed for the scope's lifetime
                w = self._idfs[t] = float(scoring.idf(p.gdf, self.n_docs))
            idfs[t] = w
        return live, idfs

    def score(self, terms: list[str], k: int, algo: str = "taat"):
        """Run top-k over the query terms within this slice.

        Default scorer is the vectorized exact TAAT (fastest for
        in-memory postings); ``algo="wand"`` selects block-max WAND —
        rank-identical by construction and by test.
        """
        check_k(k)
        check_algo(algo)
        key = (tuple(terms), k, algo)
        hit = self.results.get(key)
        if hit is not None:
            self.results.move_to_end(key)  # LRU: refresh recency on hit
            self.telemetry.incr("server.result_cache_hit")
            return hit  # exact: the index is immutable for a server's lifetime
        t0 = time.perf_counter()
        self.telemetry.incr("server.terms", len(terms))
        live, idfs = self._live_idfs(terms)
        if len(self.tombstones):
            # deletes present: mask the universe BEFORE ranking (WAND's
            # heap can't un-admit a tombstoned doc, so route via exact
            # TAAT — rank-identical by construction and by test)
            from .query import rank_topk

            universe, acc = wand.taat_scores(live, idfs, self.stats, decoded_cache=self.decoded)
            if universe is None:
                res = []
            else:
                keep = _live_mask(universe, self.tombstones)
                res = rank_topk(universe[keep], acc[keep], k)
        elif algo == "wand":
            res = wand.topk_wand(live, idfs, self.stats, k)
        else:
            res = wand.topk_taat(live, idfs, self.stats, k, decoded_cache=self.decoded)
        if len(self.results) >= self._results_cap:
            self.results.popitem(last=False)  # evict least-recently-used
        self.results[key] = res
        self.telemetry.record("server.score", time.perf_counter() - t0)
        return res

    def metrics(self) -> dict:
        return self.telemetry.snapshot()

    def score_filtered(self, terms: list[str], k: int, filters: dict):
        """Filtered BM25 (ES ``bool: {must: match, filter: term}``
        parity): exact TAAT over the query terms, then the metadata
        predicate masks the candidate universe BEFORE ranking — the
        filter context never changes scores, only membership."""
        from .query import rank_topk

        live, idfs = self._live_idfs(terms)
        universe, acc = wand.taat_scores(live, idfs, self.stats, decoded_cache=self.decoded)
        if universe is None:
            return []
        keep = self._dm().mask(universe, filters) & _live_mask(universe, self.tombstones)
        return rank_topk(universe[keep], acc[keep], k)

    def query_string(self, parsed: dict, k: int):
        """Lucene-lite query over this server's disjoint doc slice — the
        driver merge stays exact because every clause is evaluated per
        doc."""
        from . import querylang

        return querylang.execute(
            parsed,
            get_postings=self.get_postings,
            stats=self.stats,
            k=k,
            docmeta=self._dm_for(parsed),
            decoded_cache=self.decoded,
            drop_ids=self.tombstones,
        )

    def agg(self, parsed: dict, name: str, spec):
        """This slice's partial of registry aggregation ``name``
        (:mod:`cb.aggs`) over the parsed query's FULL match set.
        Id-only entries share the request cache; scored ones take the
        match pass's BM25 scores."""
        from . import querylang

        entry = AGGS[name]
        dm = self._dm()
        if entry.scored:
            universe, scores, keep = querylang.match(
                parsed,
                get_postings=self.get_postings,
                stats=self.stats,
                docmeta=dm,
                decoded_cache=self.decoded,
                drop_ids=self.tombstones,
            )
            if universe is None:
                return entry.empty(spec)
            ids, scores = universe[keep], scores[keep]
        else:
            ids, scores = self._cached_match(parsed, dm), None
            if ids is None:
                return entry.empty(spec)
        return entry.partial(ids, scores, dm, spec)

    def matrix_stats(self, parsed: dict, col: str) -> tuple[int, int, int, int, int, int]:
        """ES matrix_stats partials over THIS scope's full match set
        for the pair (x = docmeta ``col``, y = doc token length from
        the bucket-pruned docstats): EXACT integer
        (n, sx, sy, sxx, syy, sxy) — disjoint doc slices add exactly,
        and the driver derives means/variances/covariance/correlation
        with one double op per moment, bitwise vs the SQL mirror.
        Overflow-guarded like _stats_ext_over: vectorized when the
        whole sum provably fits int64, Python-int fold otherwise."""
        dm = self._dm()
        ids = self._cached_match(parsed, dm)
        if ids is None or len(ids) == 0:
            return (0, 0, 0, 0, 0, 0)
        if self._docstats is None:
            self._docstats = DocStats.load(self.index_dir, buckets=self.buckets)
        x = (
            dm.gather(ids, col)
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        y = self._docstats.lookup(ids)
        n = len(ids)
        bx = int(np.abs(x).max())
        by = int(np.abs(y).max())
        if n * max(bx * bx, by * by, bx * by) < (1 << 62):
            return (
                n, int(x.sum()), int(y.sum()),
                int((x * x).sum()), int((y * y).sum()), int((x * y).sum()),
            )
        xi = [int(v) for v in x]
        yi = [int(v) for v in y]
        return (
            n, sum(xi), sum(yi),
            sum(v * v for v in xi), sum(v * v for v in yi),
            sum(a * b for a, b in zip(xi, yi)),
        )

    def match_first(self, parsed: dict, k: int) -> list[int]:
        """The first ``k`` matching doc ids (id order) of THIS scope —
        the scoring-free half of ES ``constant_score``: disjoint sorted
        slices re-cut exactly at the driver."""
        dm = self._dm_for(parsed)
        ids = self._cached_match(parsed, dm)
        if ids is None:
            return []
        return np.sort(ids)[:k].tolist()

    def match_count(self, parsed: dict) -> int:
        """ES ``_count`` over THIS scope: size of the match set — ids
        never leave the server, disjoint slice counts add exactly at
        the driver."""
        dm = self._dm_for(parsed)
        ids = self._cached_match(parsed, dm)
        return 0 if ids is None else int(len(ids))

    def span_first(self, term: str, end: int) -> list[tuple[int, int]]:
        """ES ``span_first`` over THIS scope: (doc_id, first_position)
        for live docs whose first occurrence of ``term`` ends by
        position ``end`` — decoded straight off the positional
        postings, tombstone-masked, id-sorted."""
        p = self.get_postings(term)
        if p is None:
            return []
        ids, first = phrase_mod.span_first_docs(p, end)
        if len(ids) == 0:
            return []
        keep = _live_mask(ids, self.tombstones)
        return list(zip(ids[keep].tolist(), first[keep].tolist()))

    def terms_set(self, terms: list[str], spec: dict, k: int) -> list[tuple[int, float]]:
        """ES ``terms_set`` over THIS scope: BM25-scored term-OR match
        where each doc's own minimum_should_match comes from a doc
        field — ``required = min(cap, 1 + x // div)`` over the docmeta
        integer column ``spec['col']`` (the minimum_should_match_field
        contract, with the integer field derived by exact int ops so
        the SQL mirror reproduces it bit-for-bit).  Scores are the
        standard sorted-term TAAT sum; disjoint slices re-cut exactly
        at the driver."""
        from .query import rank_topk

        live, idfs = self._live_idfs(sorted(set(terms)))
        if not live:
            return []
        universe, acc = wand.taat_scores(
            live, idfs, self.stats, decoded_cache=self.decoded
        )
        if universe is None or len(universe) == 0:
            return []
        keep = _live_mask(universe, self.tombstones)
        cnt = np.zeros(len(universe), dtype=np.int64)
        for t, p in live.items():
            ids = (
                self.decoded[t][0]
                if self.decoded is not None and t in self.decoded
                else p.decode_all()[0]
            )
            cnt[np.searchsorted(universe, ids)] += 1
        dm = self._dm()
        x = (
            dm.gather(universe, spec["col"])
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        required = np.minimum(int(spec["cap"]), 1 + x // int(spec["div"]))
        keep &= cnt >= required
        ids, sc = universe[keep], acc[keep]
        if len(ids) == 0:
            return []
        return rank_topk(ids, sc, k)

    def span_or_first(self, terms: list[str], end: int) -> list[tuple[int, int]]:
        """ES ``span_first`` over a ``span_or`` of single-term clauses,
        THIS scope: (doc_id, earliest position over the term union)
        for live docs where ANY term first occurs before ``end`` —
        straight off the positional postings, tombstone-masked,
        id-sorted."""
        chunkeds = [self.get_postings(t) for t in sorted(set(terms))]
        ids, first = phrase_mod.span_or_first_docs(chunkeds, end)
        if len(ids) == 0:
            return []
        keep = _live_mask(ids, self.tombstones)
        return list(zip(ids[keep].tolist(), first[keep].tolist()))

    def span_not(self, term_a: str, term_b: str, slop: int) -> list[tuple[int, int]]:
        """ES ``span_not`` over THIS scope: (doc_id, first valid
        position) for live docs with an occurrence of ``term_a`` no
        closer than ``slop`` intervening tokens to any ``term_b`` —
        the exclusion dual of span_near, same vectorized keyed-
        searchsorted kernel (cb.phrase.span_not_docs)."""
        pa_ = self.get_postings(term_a)
        if pa_ is None:
            return []
        ids, pos = phrase_mod.span_not_docs(pa_, self.get_postings(term_b), slop)
        if len(ids) == 0:
            return []
        keep = _live_mask(ids, self.tombstones)
        return list(zip(ids[keep].tolist(), pos[keep].tolist()))

    def bool_prefix(
        self, terms: list[str], prefix_terms: list[str], k: int,
    ) -> list[tuple[int, float]]:
        """ES ``match_bool_prefix`` over THIS scope: the complete terms
        score as BM25 shoulds (TAAT) and the trailing prefix, already
        expanded against the vocabulary driver-side, contributes a
        constant 1.0 to any doc matching ANY expansion (the ES
        ``rewrite: constant_score`` default for the prefix clause).
        Union semantics: prefix-only docs match too.  One float add in
        a fixed order, so the SQL mirror (coalesce(score,0)+1.0) is
        bitwise."""
        from .query import rank_topk

        live, idfs = self._live_idfs(sorted(set(terms)))
        universe, acc = (None, None)
        if live:
            universe, acc = wand.taat_scores(
                live, idfs, self.stats, decoded_cache=self.decoded
            )
        pid_arrays = []
        for t in sorted(set(prefix_terms)):
            p = self.get_postings(t)
            if p is None:
                continue
            hit = self.decoded.get(t)
            pid_arrays.append(hit[0] if hit is not None else p.decode_all()[0])
        pids = (
            np.unique(np.concatenate(pid_arrays))
            if pid_arrays
            else np.empty(0, dtype=np.int64)
        )
        if universe is None and len(pids) == 0:
            return []
        base = universe if universe is not None else np.empty(0, dtype=np.int64)
        full = np.union1d(base, pids)
        sc = np.zeros(len(full), dtype=np.float64)
        if universe is not None:
            sc[np.searchsorted(full, universe)] = acc
        if len(pids):
            sc[np.searchsorted(full, pids)] += 1.0
        keep = _live_mask(full, self.tombstones)
        ids, sc = full[keep], sc[keep]
        if len(ids) == 0:
            return []
        return rank_topk(ids, sc, k)

    def span_near(self, term_a: str, term_b: str, slop: int) -> list[tuple[int, int]]:
        """ES ``span_near`` (in_order=false, two terms) over THIS
        scope: (doc_id, intervening-token gap) for live docs where the
        terms co-occur within ``slop`` positions — vectorized off the
        positional postings (cb.phrase.span_near_docs), tombstone-
        masked, id-sorted."""
        pa_, pb_ = self.get_postings(term_a), self.get_postings(term_b)
        if pa_ is None or pb_ is None:
            return []
        ids, gaps = phrase_mod.span_near_docs(pa_, pb_, slop)
        if len(ids) == 0:
            return []
        keep = _live_mask(ids, self.tombstones)
        return list(zip(ids[keep].tolist(), gaps[keep].tolist()))

    def intervals_q(
        self, terms: list[str], max_gaps: int, ordered: bool,
    ) -> list[tuple[int, int]]:
        """ES ``intervals`` (match rule, N single-term clauses) over
        THIS scope: (doc_id, min_gaps) for live docs where some
        one-occurrence-per-term tuple — in query order when
        ``ordered`` — spans at most ``max_gaps`` intervening positions
        (cb.phrase.intervals_docs), tombstone-masked, id-sorted."""
        chunkeds = [self.get_postings(t) for t in terms]
        ids, gaps = phrase_mod.intervals_docs(chunkeds, max_gaps, ordered)
        if len(ids) == 0:
            return []
        keep = _live_mask(ids, self.tombstones)
        return list(zip(ids[keep].tolist(), gaps[keep].tolist()))

    def reload_tombstones(self) -> int:
        """Re-read `_tombstones.json` (the ES `_refresh` visibility
        point for deletes): a running server pins the tombstone set it
        loaded — point-in-time semantics — until told to refresh.
        Clears the match-result cache (cached match sets embed the old
        mask).  Returns the live tombstone count."""
        self.tombstones = load_tombstones(self.index_dir)
        self._match_cache.clear()
        self.results.clear()  # scored-result LRU embeds the old mask
        return int(len(self.tombstones))

    def lm_counts(
        self, unigrams: list[str], bigrams: list[tuple[str, str]],
    ) -> tuple[dict, dict]:
        """Language-model count kernel over THIS scope (the phrase
        suggester's evidence): collection frequency (total occurrences,
        live docs) per requested unigram, and adjacent-pair counts per
        requested bigram off the positional postings — exact integers,
        so disjoint doc slices sum at the driver.  Only the
        candidate-set terms are decoded: the broadcast stays
        query-sized, never vocabulary-sized."""
        decs = {}
        cf: dict[str, int] = {}
        for t in unigrams:
            p = self.get_postings(t)
            if p is None:
                continue
            d = phrase_mod.decode_live(p, self.tombstones)
            decs[t] = d
            cf[t] = int(d[1].sum())
        bc: dict[tuple[str, str], int] = {}
        for a, b in bigrams:
            if a in decs and b in decs:
                c = phrase_mod.adjacent_pair_count(decs[a], decs[b])
                if c:
                    bc[(a, b)] = c
        return cf, bc

    def join_children(self, parsed: dict, parent_col: str) -> list[tuple]:
        """ES join-field ``has_child`` kernel over THIS scope: the
        query's FULL match set scored, grouped by the parent key read
        off the docmeta column — ``(parent_value, max_score,
        n_children)`` per parent seen in this scope.  Vectorized
        (dictionary-encode + lexsort + maximum.reduceat); max and count
        merge exactly across disjoint doc slices at the driver.  Null
        parent keys drop (the SQL GROUP-BY-join convention shared with
        _top_hits_over)."""
        from . import querylang

        dm = self._dm()
        universe, acc, keep = querylang.match(
            parsed,
            get_postings=self.get_postings,
            stats=self.stats,
            docmeta=dm,
            decoded_cache=self.decoded,
            drop_ids=self.tombstones,
        )
        if universe is None:
            return []
        ids, sc = universe[keep], acc[keep]
        if len(ids) == 0:
            return []
        arr = dm.gather(ids, parent_col)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        enc = arr.dictionary_encode()
        codes = enc.indices.fill_null(-1).to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, codes))
        scodes, ssc = codes[order], sc[order]
        starts = np.flatnonzero(np.r_[True, scodes[1:] != scodes[:-1]])
        maxes = np.maximum.reduceat(ssc, starts)
        counts = np.diff(np.append(starts, len(scodes)))
        dictionary = enc.dictionary.to_pylist()
        return [
            (dictionary[scodes[s]], float(m), int(c))
            for s, m, c in zip(starts, maxes, counts)
            if scodes[s] >= 0
        ]

    def parent_docs(
        self, parent_scores: dict, parent_col: str, k: int
    ) -> list[tuple[int, float]]:
        """ES ``has_parent`` second phase over THIS doc slice: every
        live doc whose parent key is in ``parent_scores`` gets its
        parent's score; local (score desc, doc_id asc) top-k.  One
        vectorized is_in over the slice's docmeta column — no postings
        touched; disjoint slices re-cut exactly at the driver."""
        import pyarrow.compute as pc_

        from .query import rank_topk

        dm = self._dm()
        if len(dm.ids) == 0 or not parent_scores:
            return []
        parents = sorted(parent_scores)
        col = dm.cols[parent_col]
        m = pc_.fill_null(
            pc_.is_in(col, value_set=pa.array(parents)), False
        ).to_numpy(zero_copy_only=False)
        ids = dm.ids[np.asarray(m, dtype=bool)]
        if len(self.tombstones):
            ids = ids[_live_mask(ids, self.tombstones)]
        if len(ids) == 0:
            return []
        vals = dm.gather(ids, parent_col).to_pylist()
        sc = np.array([parent_scores[v] for v in vals], dtype=np.float64)
        return rank_topk(ids, sc, k)

    def get_docs(self, doc_ids: list[int], cols: list[str]) -> list[tuple]:
        """ES ``_mget`` over THIS doc-range slice: (doc_id, *col
        values) for every requested id this slice's doc store holds;
        absent and tombstoned ids are omitted (the 404 half of mget),
        so the disjoint-slice fan-out concatenates duplicate-free."""
        dm = self._dm()
        ids = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
        ids = ids[_live_mask(ids, self.tombstones)]
        if len(ids) == 0 or len(dm.ids) == 0:
            return []
        pos = np.clip(np.searchsorted(dm.ids, ids), 0, len(dm.ids) - 1)
        ids = ids[dm.ids[pos] == ids]
        if len(ids) == 0:
            return []
        out_cols = [dm.gather(ids, c).to_pylist() for c in cols]
        return [
            tuple([int(i)] + [col[j] for col in out_cols])
            for j, i in enumerate(ids)
        ]

    def sample_hits(self, parsed: dict, k: int) -> list[tuple[int, int]]:
        """ES sampler aggregation, deterministically: the k lowest
        md5-hashed docs of THIS scope's full match set, as (doc_id,
        hash) pairs.  Hash order is a fixed uniform shuffle of the doc
        id space, so per-scope local top-k by (hash, doc_id) re-cut at
        the driver IS the global sample — no reservoir, no RNG state,
        rerun-stable and SQL-mirrorable."""
        from .hashing import md5_lower64

        dm = self._dm_for(parsed)
        ids = self._cached_match(parsed, dm)
        if ids is None or len(ids) == 0:
            return []
        import pyarrow.compute as pc_

        h = md5_lower64(pc_.cast(pa.array(ids), pa.string()))
        order = np.lexsort((ids, h))[:k]
        return [(int(ids[i]), int(h[i])) for i in order]

    def diversified_hits(
        self, parsed: dict, col: str, k: int, max_per: int,
    ) -> list[tuple[int, int, str]]:
        """ES diversified_sampler over THIS scope, deterministically:
        candidates for the md5(doc_id)-order uniform sample with at
        most ``max_per`` docs per distinct ``col`` value.  Per scope we
        keep the max_per LOWEST (hash, id) per value — a superset of
        every global survivor (the global per-value cut can only drop
        more), so the driver's identical re-cut is exact.  Returns
        (doc_id, hash, value) triples, ≤ max_per per value."""
        from .hashing import md5_lower64

        dm = self._dm()
        ids = self._cached_match(parsed, dm)
        if ids is None or len(ids) == 0:
            return []
        import pyarrow.compute as pc_

        vals = dm.gather(ids, col)
        enc = vals.combine_chunks().dictionary_encode() if isinstance(
            vals, pa.ChunkedArray
        ) else vals.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        dictionary = enc.dictionary.to_pylist()
        h = md5_lower64(pc_.cast(pa.array(ids), pa.string()))
        order = np.lexsort((ids, h, codes))
        sc, si, sh = codes[order], ids[order], h[order]
        starts = np.flatnonzero(np.r_[True, sc[1:] != sc[:-1]])
        rank_in_val = np.arange(len(sc)) - np.repeat(
            starts, np.diff(np.append(starts, len(sc)))
        )
        keep = rank_in_val < max_per
        return [
            (int(d), int(x), dictionary[c])
            for d, x, c in zip(si[keep], sh[keep], sc[keep])
        ]

    def boosting(
        self, parsed_pos: dict, parsed_neg: dict, negative_boost: float,
        k: int,
    ) -> list[tuple[int, float]]:
        """ES ``boosting`` query over THIS scope: the positive clause's
        full-match BM25 scores, multiplied by ``negative_boost`` for
        docs that ALSO match the negative clause — demotion is
        membership-only (ES never scores the negative query).  One
        multiply by an exact binary fraction per demoted doc, so the
        SQL mirror (score * CASE WHEN matched THEN nb ELSE 1) is
        bitwise; per-doc, so disjoint doc slices re-cut exactly."""
        from . import querylang
        from .query import rank_topk

        dm = self._dm_for(parsed_pos, parsed_neg)
        universe, acc, keep = querylang.match(
            parsed_pos,
            get_postings=self.get_postings,
            stats=self.stats,
            docmeta=dm,
            decoded_cache=self.decoded,
            drop_ids=self.tombstones,
        )
        if universe is None:
            return []
        ids, sc = universe[keep], acc[keep]
        if len(ids) == 0:
            return []
        nuni, _, nkeep = querylang.match(
            parsed_neg,
            get_postings=self.get_postings,
            stats=self.stats,
            docmeta=dm,
            decoded_cache=self.decoded,
            drop_ids=self.tombstones,
        )
        if nuni is not None:
            demote = np.isin(ids, nuni[nkeep], assume_unique=True)
            sc = np.where(demote, sc * float(negative_boost), sc)
        return rank_topk(ids, sc, k)

    def explain(self, terms: list[str], doc_id: int) -> list[tuple[str, int, int, float]]:
        """ES explain API: per-term BM25 contribution breakdown for ONE
        document — (term, tf, doc_len, contribution) for every query
        term the doc contains, computed with exactly the scoring
        kernel's idf * u factors (the sum of contributions IS the doc's
        TAAT score, bitwise).  Only the server whose slice
        holds the doc emits rows."""
        out: list[tuple[str, int, int, float]] = []
        if len(self.tombstones) and not _live_mask(
            np.array([doc_id], dtype=np.int64), self.tombstones
        )[0]:
            return out
        for t in sorted(terms):
            p = self.get_postings(t)
            if p is None:
                continue
            ids, tfs, dls = p.decode_all()
            j = int(np.searchsorted(ids, doc_id))
            if j < len(ids) and ids[j] == doc_id:
                idf = float(scoring.idf(p.gdf, self.n_docs))
                u = float(scoring.u_factor(tfs[j : j + 1], dls[j : j + 1], self.stats.avgdl)[0])
                out.append((t, int(tfs[j]), int(dls[j]), idf * u))
        return out

    def filter_counts(self, parsed: dict, named: dict) -> dict[str, int]:
        """ES ``filters`` aggregation over THIS scope: for each named
        sub-query, |match(main) ∩ match(sub)| on this disjoint doc
        slice (both match sets come from the same querylang.match
        plumbing; the driver fold is exact addition).  Sub-queries are
        parsed/expanded driver-side and shipped concrete."""
        dm = self._dm_for(parsed, *named.values())

        main = self._cached_match(parsed, dm)
        out: dict[str, int] = {}
        for name, sub_parsed in named.items():
            if main is None or len(main) == 0:
                out[name] = 0
                continue
            sub = self._cached_match(sub_parsed, dm)
            if sub is None or len(sub) == 0:
                out[name] = 0
                continue
            out[name] = int(len(np.intersect1d(main, sub, assume_unique=True)))
        return out

    def adjacency_counts(self, parsed: dict, named: dict) -> dict[tuple[str, str], int]:
        """ES ``adjacency_matrix`` aggregation over THIS scope: for
        every named filter pair (a, b) with a <= b, the count of
        main-match docs in match(a) ∩ match(b) (the diagonal (a, a) is
        the plain filters-agg bucket).  Per-name match sets are
        computed ONCE on this slice, pairwise intersections are sorted
        numpy intersects; the driver fold is exact addition."""
        dm = self._dm_for(parsed, *named.values())

        def _match_ids(p_):
            ids = self._cached_match(p_, dm)
            return np.empty(0, np.int64) if ids is None else ids

        main = _match_ids(parsed)
        names = sorted(named)
        sets = {}
        for name in names:
            sub = _match_ids(named[name])
            sets[name] = (
                np.intersect1d(main, sub, assume_unique=True)
                if len(main) and len(sub)
                else np.empty(0, np.int64)
            )
        out: dict[tuple[str, str], int] = {}
        for i, a in enumerate(names):
            out[(a, a)] = int(len(sets[a]))
            for b in names[i + 1 :]:
                out[(a, b)] = int(
                    len(np.intersect1d(sets[a], sets[b], assume_unique=True))
                )
        return out

    def significant(self, parsed: dict, min_df: int = 2) -> tuple[dict, int]:
        """Foreground term counts over THIS scope's match set (the
        per-server half of ES significant_terms): for every term in this
        slice with corpus df >= min_df, |postings(term) ∩ matched| via one
        vectorized searchsorted.  Without stored per-doc term vectors
        this walks the slice's vocabulary once per query — warmed decodes
        (``warm``) make it a pure numpy pass; scopes are disjoint doc
        slices so the driver merge is exact addition."""
        dm = self._dm_for(parsed)
        ids = self._cached_match(parsed, dm)
        if ids is None:
            return {}, 0
        return self._sig_walk(np.sort(ids), min_df)

    def significant_meta(
        self, col: str, val, min_df: int = 2
    ) -> tuple[dict, int]:
        """Foreground term counts over a PURE docmeta-filter match set
        (``col == val`` — the filter-only background population of ES
        significant_terms' background_filter): one vectorized equality
        over this slice's docmeta, tombstone-masked, then the same
        vocabulary walk as :meth:`significant`."""
        import pyarrow.compute as pc

        dm = self._dm()
        arr = dm.cols.get(col)
        if arr is None or len(dm.ids) == 0:
            return {}, 0
        mask = pc.equal(arr, val)
        matched = dm.ids[mask.fill_null(False).to_numpy(zero_copy_only=False)]
        matched = matched[_live_mask(matched, self.tombstones)]
        if len(matched) == 0:
            return {}, 0
        return self._sig_walk(matched, min_df)

    def _sig_walk(self, matched: np.ndarray, min_df: int) -> tuple[dict, int]:
        """Slice-vocabulary intersection counts over a sorted matched-id
        array (the shared half of significant / significant_meta)."""
        counts: dict[str, int] = {}
        for part in self.parts.values():
            if part.table is None:
                continue
            for term in part.offsets:
                if part.global_df.get(term, 0) < min_df:
                    continue
                if term in self.decoded:
                    ids = self.decoded[term][0]
                else:
                    cp = self.get_postings(term)
                    if cp is None:
                        continue
                    ids = cp.decode_all()[0]
                pos = np.clip(np.searchsorted(matched, ids), 0, len(matched) - 1)
                c = int(np.sum(matched[pos] == ids))
                if c:
                    counts[term] = c
        return counts, int(len(matched))

    def phrase(self, ordered_terms: list[str], k: int, slop: int = 0):
        """Exact phrase top-k (positional postings) over this slice."""
        postings = {t: self.get_postings(t) for t in set(ordered_terms)}
        return _phrase_topk_live(ordered_terms, postings, self.stats, k, self.tombstones, slop=slop)

    def phrase_prefix(self, fixed: list[str], expansions: list[str], k: int):
        """ES match_phrase_prefix over this scope (see
        cb.phrase.phrase_prefix_topk for the matching/scoring contract).
        Tombstones are dropped from the FULL match set before ranking
        (no over-fetch needed — prefix matching computes the whole set
        anyway)."""
        postings = {t: self.get_postings(t) for t in set(fixed) | set(expansions)}
        return phrase_mod.phrase_prefix_topk(
            fixed, expansions, postings, self.stats, k, drop_ids=self.tombstones
        )

    def term_vectors(self, doc_ids: list[int]) -> list[tuple]:
        """ES _termvectors API from the positional index: for each
        requested doc THIS scope owns, every (term, tf, doc_len,
        positions) posting — bucket-pruned + candidate-block decode
        (see cb.termvectors).  Tombstoned docs return nothing (ES 404
        on a deleted doc).  Only the owning server emits, so the engine
        concat is duplicate-free."""
        import pyarrow.compute as pc_

        from . import termvectors
        from .build import ID_BITS

        shift = ID_BITS - self.range_bits
        rows: list[tuple] = []
        for doc in doc_ids:
            doc = int(doc)
            if len(self.tombstones) and not _live_mask(
                np.array([doc], dtype=np.int64), self.tombstones
            )[0]:
                continue
            b = doc >> shift
            if self.buckets is not None and b not in self.buckets:
                continue
            for part in self.parts.values():
                if part.table is None:
                    continue
                t = part.table.filter(pc_.equal(part.table["bucket"], b))
                for term, tf, dl, pos in termvectors.doc_term_vectors(t, doc):
                    rows.append((doc, term, tf, dl, pos.tolist()))
        rows.sort(key=lambda r: (r[0], r[1]))
        return rows

    def term_vectors_store(
        self, doc_ids: list[int], text_col: str = "text"
    ) -> list[tuple]:
        """Doc-store term vectors: re-analyze the stored docmeta text
        column (ES's _termvectors-from-_source behavior, and the 100-TB
        fast path — O(doc length) per request, no index scan).  Output
        contract identical to :meth:`term_vectors`; the parity test
        between the two cross-proves the positional index against the
        analyzer."""
        from .build import ID_BITS

        dm = self._dm()
        if text_col not in dm.cols:
            raise ValueError(
                f"doc-store term vectors need docmeta column {text_col!r} "
                f"(has {sorted(dm.cols)}); build it with cb.docmeta or use "
                "the index path (term_vectors)"
            )
        shift = ID_BITS - self.range_bits
        ids = np.array(sorted(set(int(d) for d in doc_ids)), dtype=np.int64)
        if len(ids) and self.buckets is not None:
            ids = ids[np.isin(ids >> shift, np.array(sorted(self.buckets), dtype=np.int64))]
        if len(self.tombstones) and len(ids):
            ids = ids[_live_mask(ids, self.tombstones)]
        if len(ids) == 0:
            return []
        texts = dm.gather(ids, text_col)
        rows: list[tuple] = []
        for doc, txt in zip(ids.tolist(), texts.to_pylist()):
            if txt is None:
                continue  # id not in this scope's docmeta slice
            toks = analyze.tokenize(txt)
            by_term: dict[str, list[int]] = {}
            for i, t in enumerate(toks):
                by_term.setdefault(t, []).append(i)
            for term in sorted(by_term):
                pos = by_term[term]
                rows.append((doc, term, len(pos), len(toks), pos))
        return rows

    def score_many(self, term_lists: list[list[str]], k: int, algo: str = "taat"):
        """Batched scoring of pre-tokenized queries (one RPC amortizes
        round-trips)."""
        check_k(k)
        check_algo(algo)
        return [self.score(terms, k, algo=algo) for terms in term_lists]

    def get_dfs(self, terms: list[str]) -> dict[str, int]:
        """Corpus-global df per term from the partition ``_termdf``
        summaries — NO postings decode (powers more_like_this term
        selection)."""
        out = {}
        for t in terms:
            df = self.parts[term_partition(t, self.num_parts)].global_df.get(t)
            if df:
                out[t] = int(df)
        return out


@ray.remote
class ShardServer(ShardScope, rpc.Server):
    """A :class:`ShardScope` as a serving-pool actor (``ray::ShardServer``):
    Ray constructs it, then every request arrives over :mod:`cb.rpc`."""


class LocalSearcher(ShardScope):
    """In-process searcher over a whole built index (tests / tiny
    corpora; production serving is the :class:`ShardServer` pool): one
    :class:`ShardScope` over every bucket, plus the text front ends
    that analyze or parse a request and call the scope's method."""

    def __init__(self, index_dir: str, fed: str | None = None):
        super().__init__(index_dir, fed=fed)
        self._vocab: list[str] | None = None  # lazy, for wildcard/fuzzy

    def _parse(self, query_string: str) -> dict:
        """Parse a query string and rewrite its wildcard/fuzzy atoms
        against the vocabulary."""
        from . import querylang

        parsed = querylang.parse(query_string)
        if parsed.get("expands"):
            if self._vocab is None:
                self._vocab = load_vocab(IndexMeta(self.index_dir)) or sorted(
                    {t for p in self.parts.values() for t in p.global_df}
                )
            parsed = querylang.expand(parsed, self._vocab)
        return parsed

    def query(self, text: str, k: int = 10, algo: str = "taat") -> list[tuple[int, float]]:
        return self.score(sorted(set(analyze.tokenize(text))), k, algo=algo)

    def search(
        self, query_string: str, k: int = 10, synonyms: dict | None = None
    ) -> list[tuple[int, float]]:
        """Lucene-lite query string (terms, "phrases", field:value,
        -exclusions, +required, ^boosts, wildcards, fuzzy, ranges) —
        see :mod:`cb.querylang`.  ``synonyms`` applies the ES
        query-time synonym filter (querylang.apply_synonyms)."""
        from . import querylang

        parsed = self._parse(query_string)
        if synonyms:
            parsed = querylang.apply_synonyms(parsed, synonyms)
        return self.query_string(parsed, k)

    def facets(
        self, query_string: str, facet_cols=(), stats_cols=()
    ) -> tuple[dict, dict]:
        """({col: {value: count}}, {col: (n, sum, min, max)}) over the
        query's FULL match set."""
        return self.agg(self._parse(query_string), "facets", (list(facet_cols), list(stats_cols)))

    def filtered_query(self, text: str, filters: dict, k: int = 10) -> list[tuple[int, float]]:
        """Filtered BM25 (ES bool must+filter parity)."""
        return self.score_filtered(sorted(set(analyze.tokenize(text))), k, filters)

    def phrase_query(
        self, text: str, k: int = 10, slop: int = 0
    ) -> list[tuple[int, float]]:
        return self.phrase(analyze.tokenize(text), k, slop=slop)


def _terms_clause(text: str) -> dict:
    """A clause set of ``text``'s analyzed terms alone: each scored at
    weight 1, no phrases, exclusions or filters (querylang.match
    scores it exactly as TAAT over the terms)."""
    return {
        "terms": sorted(set(analyze.tokenize(text))),
        "phrases": [], "excluded": [], "filters": {},
    }


def doc_slices(index_dir: str, range_bits: int, num_servers: int) -> list[list[int]]:
    """Each server's doc-range buckets, pool order: server ``s`` owns
    every bucket ``b % num_servers == s``.  The bucket universe is
    ``range(2^range_bits)`` while that is enumerable; a sparse layout
    (huge range_bits over few live buckets) is discovered from the
    docstats listing instead — a multifield index keeps one per field
    sub-index — and the ownership rule is the same either way.  With a
    bucket-pruned layout every server then reads ONLY its bucket files
    (disjoint), so the pool's total load I/O is one read of the index
    regardless of S, and no file is ever decoded twice."""
    n_buckets = 1 << range_bits
    if num_servers > n_buckets:
        raise ValueError(
            f"doc-sharded pool needs num_servers <= {n_buckets} "
            f"(2^range_bits doc-range buckets)"
        )
    if range_bits <= 16:
        universe = range(n_buckets)
    else:
        files = glob.glob(os.path.join(index_dir, "docstats", "bucket=*.parquet"))
        files += glob.glob(os.path.join(index_dir, "field=*", "docstats", "bucket=*.parquet"))
        universe = sorted(
            {int(os.path.basename(f)[len("bucket="):-len(".parquet")]) for f in files}
        )
    return [[b for b in universe if b % num_servers == s] for s in range(num_servers)]


class ServerPool:
    """The driver half of a serving pool: one ``actor_cls`` actor per
    argument tuple of ``arg_lists`` (plus the shared ``kwargs``), one
    :mod:`cb.rpc` connection to each, and the driver-side
    :class:`~cb.telemetry.Telemetry` an engine records its phase timers
    in.  Engines route and merge; the pool sends, reports and shuts
    down."""

    def __init__(self, actor_cls, arg_lists, **kwargs):
        self.actors = [actor_cls.remote(*args, **kwargs) for args in arg_lists]
        self.conns = rpc.connect(self.actors)
        self.telemetry = Telemetry()

    def fanout(self, method: str, *args, **kwargs) -> list:
        """Send ``method`` to every actor WITHOUT waiting: one reply
        handle per actor, in pool order — the single dispatch shape
        every request uses (federations collect these handles across
        members and wait once)."""
        return [c.call(method, *args, **kwargs) for c in self.conns]

    def gather(self, method: str, *args, **kwargs) -> list:
        """:meth:`fanout` and wait: every actor's reply, pool order."""
        return rpc.get(self.fanout(method, *args, **kwargs))

    def metrics(self) -> dict:
        """Per-stage query telemetry: the driver-side phase timers
        (dispatch / wait / merge / total, with percentiles) plus the
        additive roll-up of every actor's counters — the
        TelemetryProvider.cs:6-27 analog for serving (build-side
        counters live in IndexMeta.build_metrics).  ``per_server`` keeps
        each actor's own snapshot (pool order), so the straggler and
        its warm/score split stay visible next to the roll-up."""
        per_server = self.gather("metrics")
        return {
            "engine": self.telemetry.snapshot(),
            "servers": merge_snapshots(per_server),
            "per_server": per_server,
        }

    def shutdown(self) -> None:
        """Close the connections and kill the actors (callers that
        create short-lived engines should clean up so actors don't
        accumulate)."""
        for c in self.conns:
            c.close()
        for a in self.actors:
            ray.kill(a)
        self.conns, self.actors = [], []


class PoolEngine(AggRoute):
    """An engine over one :class:`ServerPool` (``self.pool``)."""

    @property
    def servers(self) -> list:
        """The pool's actor handles, pool order."""
        return self.pool.actors

    def metrics(self) -> dict:
        return self.pool.metrics()

    def shutdown(self) -> None:
        self.pool.shutdown()


def _timed_topk(telemetry: Telemetry, t0: float, handles, k: int) -> list:
    """The one query phase timer: wait for the just-sent ``handles``
    (None or empty: nothing to ask) and merge their top-k lists.  From
    ``t0`` (the query's arrival) to now is ``query.dispatch``, then
    ``query.wait`` and ``query.merge``, and all of it ``query.total``."""
    t1 = time.perf_counter()
    telemetry.record("query.dispatch", t1 - t0)
    if not handles:
        telemetry.record("query.total", t1 - t0)
        return []
    scored = rpc.get(handles)
    t2 = time.perf_counter()
    telemetry.record("query.wait", t2 - t1)
    res = _merge_topk(scored, k)
    t3 = time.perf_counter()
    telemetry.record("query.merge", t3 - t2)
    telemetry.record("query.total", t3 - t0)
    return res


def _wait_topk(handles, k: int) -> list:
    """Wait for top-k reply ``handles`` (None: nothing was asked) and
    merge them exactly."""
    return _merge_topk(rpc.get(handles), k) if handles else []


def _wait_topk_each(handle_lists: list[list], k: int) -> list[list]:
    """:func:`_wait_topk` of each list, with ONE wait over all of them,
    so every list's requests are in flight before any reply is read."""
    got = rpc.get([h for hs in handle_lists for h in hs])
    out, pos = [], 0
    for hs in handle_lists:
        out.append(_merge_topk(got[pos:pos + len(hs)], k) if hs else [])
        pos += len(hs)
    return out


def _query_many(pools: list[ServerPool], texts: list[str], k: int, algo: str) -> list:
    """Batched fan-out: queries are tokenized on the driver and shipped
    as ONE score_many request per server of every pool covering every
    query — per-query round trips were the throughput ceiling for small
    queries.  Each server scores its doc slice; the driver merges per
    query (exact: every server is a disjoint doc set)."""
    check_algo(algo)
    term_lists = [sorted(set(analyze.tokenize(t))) for t in texts]
    live = [i for i, terms in enumerate(term_lists) if terms]
    batch = [term_lists[i] for i in live]
    per_server = rpc.get(
        [h for p in pools for h in p.fanout("score_many", batch, k, algo=algo)]
    )
    results: list = [[] for _ in texts]
    for j, i in enumerate(live):
        results[i] = _merge_topk([ps[j] for ps in per_server], k)
    return results


class QueryEngine(PoolEngine):
    """Driver-side facade over a doc-sharded ShardServer pool.

    Every server holds a doc-range BUCKET slice of every term
    partition; a request fans out to all servers, each answers over its
    disjoint doc subset locally (per-query work ~1/S per server —
    throughput scales by dividing work, and per-server decode/cache
    memory shrinks with the pool), and the driver merges exactly (top-k
    by (score, doc_id), aggregation partials by addition).  This is
    partition re-assignment, not replication: adding servers re-slices
    the doc ranges.  The analog of ES's doc-sharded index with
    scatter-gather search.
    """

    def __init__(self, index_dir: str, num_servers: int = 2, fed: str | None = None):
        self.meta = IndexMeta(index_dir)
        self.index_dir = index_dir
        self._aliases: dict | None = None  # lazy `_aliases.json` load
        self._fed = fed  # federation dir: servers score with fed-global stats
        # N for driver-side idf/JLH must match the df scale term_dfs
        # returns (fed-global when fed= is set)
        self._n_docs = self.meta.n_docs
        if fed is not None:
            from .federated import fed_overlay

            self._n_docs = fed_overlay(fed)[0]
        self.pool = ServerPool(
            ShardServer,
            [(index_dir, b) for b in doc_slices(index_dir, self.meta.range_bits, num_servers)],
            fed=fed,
        )
        # driver-side merged-result LRU: the index is immutable for the
        # engine's lifetime, so repeat queries skip the scatter-gather
        # fan-out entirely (a distinct query pays S RPCs)
        from collections import OrderedDict

        self._results: "OrderedDict[tuple, list]" = OrderedDict()
        self._results_cap = 8192
        self._vocab: list[str] | None = None  # lazy, for wildcard/fuzzy

    def warm(self, min_df: int = 0) -> int:
        """Pre-decode hot postings on every server (blocks until done)."""
        return sum(self.pool.gather("warm", min_df))

    def _dispatch(self, terms: list[str], k: int, algo: str):
        """Send a top-k over analyzed, sorted unique ``terms`` to every
        server without waiting; None when there is nothing to ask."""
        check_k(k)
        check_algo(algo)
        if not terms:
            return None
        return self.pool.fanout("score", terms, k, algo=algo)

    def _cache_put(self, key: tuple, res: list) -> list:
        if len(self._results) >= self._results_cap:
            self._results.popitem(last=False)  # evict least-recently-used
        self._results[key] = res
        return res

    def query(self, text: str, k: int = 10, algo: str = "taat") -> list[tuple[int, float]]:
        t0 = time.perf_counter()
        terms = sorted(set(analyze.tokenize(text)))
        key = (tuple(terms), k, algo)
        hit = self._results.get(key)
        if hit is not None:
            self._results.move_to_end(key)  # LRU: refresh recency on hit
            self.pool.telemetry.incr("query.cache_hit")
            self.pool.telemetry.record("query.total", time.perf_counter() - t0)
            return hit
        res = _timed_topk(self.pool.telemetry, t0, self._dispatch(terms, k, algo), k)
        return self._cache_put(key, res) if terms else res

    def search_alias(self, alias: str, text: str, k: int = 10) -> list[tuple[int, float]]:
        """Query THROUGH an ES index alias: the alias's filter (if any)
        applies as filter context on top of the plain term query —
        membership changes, scores don't — so a filtered alias is a
        zero-copy virtual view over the same index (aliases load once
        per engine; call refresh_aliases after a put/delete)."""
        if self._aliases is None:
            self.refresh_aliases()
        spec = self._aliases.get(alias)
        if spec is None:
            raise KeyError(f"unknown alias {alias!r}")
        filters = spec.get("filters") or {}
        if not filters:
            return self.query(text, k=k)
        return self.filtered_query(text, filters, k=k)

    def refresh(self) -> int:
        """ES ``_refresh`` for deletes: running servers pin the
        tombstone set they loaded (point-in-time semantics — a live
        engine is an implicit PIT over delete_docs/delete_by_query
        written after it started), and this makes later deletes
        visible: every server re-reads `_tombstones.json` and drops
        its match cache.  Returns the tombstone count."""
        counts = self.pool.gather("reload_tombstones")
        self._results.clear()  # merged-result LRU embeds the old mask
        return int(max(counts, default=0))

    def refresh_aliases(self) -> dict:
        """Re-read `_aliases.json` (the alias API mutates index state
        out-of-band)."""
        self._aliases = get_aliases(self.index_dir)
        return self._aliases

    def filtered_query(self, text: str, filters: dict, k: int = 10) -> list[tuple[int, float]]:
        """Filtered BM25 via the pool (scatter-gather, exact merge)."""
        terms = sorted(set(analyze.tokenize(text)))
        if not terms:
            return []
        return _merge_topk(self.pool.gather("score_filtered", terms, k, filters), k)

    def _dispatch_phrase(self, text: str, k: int, slop: int = 0):
        """Phrase dispatch without the final wait (federation
        fan-out protocol; see _dispatch_search)."""
        ordered = analyze.tokenize(text)
        if not ordered:
            return None
        return self.pool.fanout("phrase", ordered, k, slop=slop)

    def phrase_query(
        self, text: str, k: int = 10, slop: int = 0
    ) -> list[tuple[int, float]]:
        """Phrase top-k via the pool (scatter-gather, exact merge);
        ``slop`` = total extra gaps allowed between the in-order terms
        (0 = exact adjacency)."""
        return _wait_topk(self._dispatch_phrase(text, k, slop), k)

    def _dispatch_phrase_prefix(
        self, text: str, k: int, max_expansions: int | None
    ):
        ordered = analyze.tokenize(text)
        if not ordered:
            return None
        fixed, prefix = ordered[:-1], ordered[-1]
        if self._vocab is None:
            self._vocab = load_vocab(self.meta)
        expansions = sorted(t for t in self._vocab if t.startswith(prefix))
        if max_expansions is not None:
            expansions = expansions[:max_expansions]
        if not expansions:
            return None
        return self.pool.fanout("phrase_prefix", fixed, expansions, k)

    def phrase_prefix_query(
        self, text: str, k: int = 10, max_expansions: int | None = 50
    ) -> list[tuple[int, float]]:
        """ES match_phrase_prefix: the trailing token is a term PREFIX,
        expanded against the index vocabulary (the tiny ``_termdf``
        summaries, never the corpus) in term order up to
        ``max_expansions`` (None = every completion — the exact,
        SQL-mirrorable configuration); docs where the fixed tokens are
        immediately followed by any completion match, scored by BM25 of
        the fixed terms (cb.phrase.phrase_prefix_topk contract)."""
        return _wait_topk(self._dispatch_phrase_prefix(text, k, max_expansions), k)

    def _dispatch_search(self, query_string: str, k: int, synonyms: dict | None = None):
        """Query-string dispatch WITHOUT the final wait: the
        per-server reply handles, or None for an empty query — lets
        federations collect handles across sub-indexes and wait once."""
        parsed, involved = self._parsed_and_involved(query_string, synonyms)
        if not involved:
            return None
        return self.pool.fanout("query_string", parsed, k)

    def search(
        self, query_string: str, k: int = 10, synonyms: dict | None = None
    ) -> list[tuple[int, float]]:
        """Lucene-lite query string via the pool (scatter-gather, exact
        merge).  Wildcard/fuzzy atoms are rewritten ONCE here against
        the vocabulary summary; servers receive concrete terms.
        ``synonyms`` applies the ES query-time synonym filter
        (querylang.apply_synonyms) to the scored term set."""
        return _wait_topk(self._dispatch_search(query_string, k, synonyms=synonyms), k)

    def msearch(
        self, query_strings: list[str], k: int = 10,
        synonyms: dict | None = None,
    ) -> list[list[tuple[int, float]]]:
        """ES ``_msearch`` over full query strings (terms + phrases +
        filters + exclusions — the whole querylang surface, unlike the
        term-only query_many batcher): EVERY query's per-server requests
        are sent before any reply is awaited, then ONE rpc.get drains
        the flat handle list, so server work for query i+1 overlaps
        the wait for query i.  Same kernels and merge as search() —
        results are bitwise identical to the sequential loop."""
        return _wait_topk_each(
            [self._dispatch_search(q, k, synonyms=synonyms) or [] for q in query_strings], k
        )

    def _parsed_and_involved(self, query_string: str, synonyms: dict | None = None):
        """Parse (and wildcard/fuzzy-expand, then synonym-rewrite) a
        query string; ``involved`` is every term it touches — empty
        means nothing can match, so callers skip the fan-out."""
        from . import querylang

        parsed = querylang.parse(query_string)
        if parsed.get("expands"):
            if self._vocab is None:
                self._vocab = load_vocab(self.meta)
            parsed = querylang.expand(parsed, self._vocab)
        if synonyms:
            parsed = querylang.apply_synonyms(parsed, synonyms)
        involved = sorted(
            set(parsed.get("weights") or parsed["terms"])
            | {t for p in parsed["phrases"] for t in p}
            | set(parsed["excluded"])
            | {t for p in parsed.get("excluded_phrases", []) for t in p}
        )
        return parsed, involved

    def _agg_refs(self, query: str | dict, name: str, spec) -> list:
        """The aggregation route: one reply handle per server to aggregation
        ``name``'s partial over the match set of ``query`` (a query
        string, or an already-built clause set); none when the query
        involves no term, so nothing can match."""
        if isinstance(query, str):
            parsed, involved = self._parsed_and_involved(query)
        else:
            parsed, involved = query, query["terms"]
        return self.pool.fanout("agg", parsed, name, spec) if involved else []

    def _agg_parts(self, query: str | dict, name: str, spec) -> list:
        return rpc.get(self._agg_refs(query, name, spec))

    def facets(
        self, query_string: str, facet_cols=(), stats_cols=()
    ) -> tuple[dict, dict]:
        """ES facet aggregation over the query's FULL match set:
        ``({col: {value: count}}, {col: (n, sum, min, max)})``."""
        return self._agg(query_string, "facets", (list(facet_cols), list(stats_cols)))

    def _dispatch_boosting(
        self, positive: str, negative: str, negative_boost: float, k: int
    ):
        p_pos, inv_pos = self._parsed_and_involved(positive)
        if not inv_pos:
            return None
        p_neg, _ = self._parsed_and_involved(negative)
        return self.pool.fanout("boosting", p_pos, p_neg, float(negative_boost), k)

    def boosting(
        self, positive: str, negative: str,
        negative_boost: float = 0.5, k: int = 10,
    ) -> list[tuple[int, float]]:
        """ES boosting query: rank by the positive query's BM25 with
        docs matching the negative query demoted by ``negative_boost``
        (membership-only — the negative clause is never scored).  The
        demotion is per-doc, so the doc-sharded merge is the exact
        global top-k."""
        return _wait_topk(self._dispatch_boosting(positive, negative, negative_boost, k), k)

    def extended_stats(self, query_string: str, cols=("n_chars",)) -> dict:
        """ES extended_stats aggregation over the query's FULL match
        set: ``col -> (n, sum, sumsq, min, max)``; derive avg /
        variance / std at the call site (one division per moment keeps
        the result bitwise vs the SQL mirror)."""
        return self._agg(query_string, "extended_stats", list(cols))

    def matrix_stats(
        self, query_string: str, col: str = "n_chars"
    ) -> tuple[int, int, int, int, int, int]:
        """ES matrix_stats over the query's FULL match set for the pair
        (docmeta ``col``, doc token length): exact additive integer
        moment partials (n, sx, sy, sxx, syy, sxy) — derive mean /
        variance / covariance / correlation at the call site with one
        double op per moment."""
        parsed, involved = self._parsed_and_involved(query_string)
        if not involved:
            return (0, 0, 0, 0, 0, 0)
        parts = self.pool.gather("matrix_stats", parsed, col)
        out = (0, 0, 0, 0, 0, 0)
        for p in parts:
            out = tuple(a + b for a, b in zip(out, p))
        return out

    def term_dfs(self, terms: list[str]) -> dict[str, int]:
        """Corpus-global df per term via the tiny ``_termdf`` summaries
        (no postings decode).  Every server holds every partition's
        summary, so one RPC answers."""
        terms = sorted(set(terms))
        if not terms:
            return {}
        return rpc.get(self.pool.conns[0].call("get_dfs", terms))

    def query_terms(self, terms: list[str], k: int = 10, algo: str = "taat"):
        """Top-k over an explicit (pre-analyzed) term set."""
        return _wait_topk(self._dispatch(sorted(set(terms)), k, algo), k)

    def regexp_query(
        self, pattern: str, k: int = 10, algo: str = "taat"
    ) -> list[tuple[int, float]]:
        """ES ``regexp`` query, ``rewrite=scoring_boolean``: the pattern
        is anchored and matched against WHOLE vocabulary terms (ES
        regexp semantics — never substrings), every matched term joins
        a standard BM25 term query at weight 1.  Matching runs through
        pyarrow's RE2 kernel, the same engine DuckDB's
        ``regexp_full_match`` uses, so the expansion contract is RE2
        syntax exactly (no lookaround) and the SQL mirror can't drift.
        Vocabulary from the tiny ``_termdf`` summaries, one vectorized
        pass (same scale story as wildcard/fuzzy rewrite)."""
        import pyarrow.compute as pc

        if self._vocab is None:
            self._vocab = load_vocab(self.meta)
        arr = pa.array(sorted(set(self._vocab)), type=pa.string())
        mask = pc.match_substring_regex(arr, f"^(?:{pattern})$")
        terms = arr.filter(mask).to_pylist()
        if not terms:
            return []
        return self.query_terms(terms, k=k, algo=algo)

    def more_like_this(
        self,
        doc_text: str,
        k: int = 10,
        max_terms: int = 15,
        exclude: int | None = None,
        algo: str = "taat",
    ) -> list[tuple[int, float]]:
        """ES ``more_like_this`` (docs-as-query): pick the document's
        ``max_terms`` highest tf*idf terms (idf = the BM25 idf, df from
        the summary tables; ties broken by term asc for determinism),
        run a standard BM25 query with them, and drop the source doc
        (``exclude``) from the ranking."""
        import collections

        tf = collections.Counter(analyze.tokenize(doc_text))
        dfs = self.term_dfs(list(tf))
        n = self._n_docs
        scored = [
            (t, tf[t] * float(scoring.idf(dfs[t], n))) for t in tf if t in dfs
        ]
        scored.sort(key=lambda kv: (-kv[1], kv[0]))
        terms = [t for t, _ in scored[:max_terms]]
        res = self.query_terms(terms, k + (1 if exclude is not None else 0), algo)
        if exclude is not None:
            res = [r for r in res if r[0] != exclude][:k]
        return res

    def suggest_term(
        self,
        text: str,
        k: int = 5,
        max_edits: int = 2,
        prefix_length: int = 1,
        min_word_length: int = 4,
        suggest_mode: str = "missing",
    ) -> list[tuple[int, str, int, str, int, int]]:
        """ES term suggester ("did you mean"): per analyzed input token,
        the top-``k`` index-vocabulary terms within ``max_edits``
        Damerau-Levenshtein edits, ranked by (distance asc, df desc,
        term asc) — ES's default score-then-frequency sort.  Tokens
        shorter than ``min_word_length`` are skipped; ``missing`` mode
        (the ES default) skips tokens that already exist in the index.
        Candidates are prefiltered by length window and shared
        ``prefix_length`` prefix (the ES candidate-generator contract),
        so the DL pass touches a tiny slice of the vocabulary.  Vocab
        and df both come from the vocabulary-sized ``_termdf``
        summaries — no postings decode, and the only RPC is one batched
        df fetch; at 100-TB corpus scale the vocabulary stays the small
        side by construction (Heaps' law), so this remains driver-side.
        Returns ``(pos, token, rank, suggestion, distance, df)`` rows,
        ``pos``/``rank`` 1-based.  (The raw candidate machinery over an
        explicit typo list — no analyzer, no mode gates — is
        ``cb.suggest.fuzzy_suggest``; prefix completion is
        ``cb.suggest.prefix_suggest``.)"""
        from . import querylang

        toks = analyze.tokenize(text)
        if self._vocab is None:
            self._vocab = load_vocab(self.meta)
        vocab = sorted(set(self._vocab))
        vset = set(vocab)
        staged: list[tuple[int, str, list[tuple[str, int]]]] = []
        need: set[str] = set()
        for pos, tok in enumerate(toks, start=1):
            if len(tok) < min_word_length:
                continue
            if suggest_mode == "missing" and tok in vset:
                continue
            lo, hi = len(tok) - max_edits, len(tok) + max_edits
            pre = tok[:prefix_length]
            cands = [
                (t, d)
                for t in vocab
                if t != tok and lo <= len(t) <= hi and t.startswith(pre)
                and (d := querylang.damerau_levenshtein(tok, t)) <= max_edits
            ]
            staged.append((pos, tok, cands))
            need.update(t for t, _ in cands)
        dfs = self.term_dfs(sorted(need))
        out: list[tuple[int, str, int, str, int, int]] = []
        for pos, tok, cands in staged:
            ranked = sorted(cands, key=lambda td: (td[1], -dfs[td[0]], td[0]))
            for rank, (t, d) in enumerate(ranked[:k], start=1):
                out.append((pos, tok, rank, t, d, dfs[t]))
        return out

    def suggest_phrase(
        self,
        text: str,
        k: int = 3,
        max_edits: int = 1,
        prefix_length: int = 1,
        num_candidates: int = 4,
        discount: float = 0.4,
    ) -> list[tuple[int, str, float]]:
        """ES phrase suggester ("did you mean", whole-phrase): per
        analyzed token, a direct-generator candidate set — the token
        itself (distance 0, when indexed) plus vocabulary terms within
        ``max_edits`` Damerau-Levenshtein edits sharing the
        ``prefix_length`` prefix, capped to ``num_candidates`` by
        (distance asc, df desc, term asc) — then every candidate
        phrase is scored by a Stupid-Backoff bigram LM (ES's default
        smoothing, ``discount`` 0.4):

            score = log10(cf(w1)/T) + sum_i [ bigram(w_{i-1}, w_i) > 0
                      ? log10(bigram/cf(w_{i-1}))
                      : log10(discount * cf(w_i)/T) ]

        with cf = collection frequency and bigram counts read straight
        off the positional postings by ONE lm_counts fan-out (disjoint
        slices sum) and T = the index's exact
        total_tokens.  The broadcast evidence is candidate-set-sized.
        Returns (rank, phrase, score) top-k by (score desc, phrase
        asc); phrases whose words all vanished (cf 0) drop.  With
        tombstones, cf/bigram counts are live-doc exact while T stays
        build-time (document-level LM drift, not a ranking hazard)."""
        import math

        from . import querylang

        toks = analyze.tokenize(text)
        if not 2 <= len(toks) <= 4:
            raise ValueError(
                f"suggest_phrase wants 2-4 analyzed terms, got {toks}"
            )
        if self._vocab is None:
            self._vocab = load_vocab(self.meta)
        vocab = sorted(set(self._vocab))
        vset = set(vocab)
        staged = []
        need: set[str] = set()
        for tok in toks:
            lo, hi = len(tok) - max_edits, len(tok) + max_edits
            pre = tok[:prefix_length]
            cands = [
                (t, d)
                for t in vocab
                if lo <= len(t) <= hi and t.startswith(pre)
                and (d := querylang.damerau_levenshtein(tok, t)) <= max_edits
            ]
            staged.append(cands)
            need.update(t for t, _ in cands)
        dfs = self.term_dfs(sorted(need))
        cand_sets = [
            [
                t for t, _ in sorted(
                    cands, key=lambda td: (td[1], -dfs[td[0]], td[0])
                )[:num_candidates]
            ]
            for cands in staged
        ]
        if any(not c for c in cand_sets):
            return []
        from itertools import product as _product

        phrases = list(_product(*cand_sets))
        unigrams = sorted({t for c in cand_sets for t in c})
        bigrams = sorted(
            {(p[i], p[i + 1]) for p in phrases for i in range(len(p) - 1)}
        )
        parts = self.pool.gather("lm_counts", unigrams, bigrams)
        cf: dict[str, int] = {}
        bc: dict[tuple[str, str], int] = {}
        for pcf, pbc in parts:
            for t, c in pcf.items():
                cf[t] = cf.get(t, 0) + c
            for kpair, c in pbc.items():
                bc[kpair] = bc.get(kpair, 0) + c
        total = float(self.meta.total_tokens)
        scored: list[tuple[str, float]] = []
        for p in phrases:
            if any(cf.get(w, 0) == 0 for w in p):
                continue
            s = math.log10(cf[p[0]] / total)
            for i in range(1, len(p)):
                c = bc.get((p[i - 1], p[i]), 0)
                if c > 0:
                    s += math.log10(c / cf[p[i - 1]])
                else:
                    s += math.log10(discount * cf[p[i]] / total)
            scored.append((" ".join(p), s))
        scored.sort(key=lambda ps: (-ps[1], ps[0]))
        return [
            (rank, phrase, s)
            for rank, (phrase, s) in enumerate(scored[:k], start=1)
        ]

    def search_after(
        self,
        text: str,
        k: int = 10,
        after: tuple[float, int] | None = None,
        algo: str = "taat",
    ) -> list[tuple[int, float]]:
        """ES ``search_after`` parity: the next ``k`` results strictly
        after the ``(score, doc_id)`` cursor in (score desc, id asc)
        order.  Deep pages re-rank through the driver result LRU with a
        doubling fetch — exact because scores are bitwise-deterministic
        for an immutable index, so cursor equality is safe."""
        from .query import page_after

        return page_after(
            lambda q, kk: self.query(q, k=kk, algo=algo), text, k, after
        )

    def _sig_counts(
        self, query_string: str, min_df: int
    ) -> tuple[dict[str, int], int]:
        """Per-term counts over the query's FULL match set + the match
        total — the shared half of significant_terms and its
        background_filter variant: per-server slice counts add."""
        parsed, involved = self._parsed_and_involved(query_string)
        if not involved:
            return {}, 0
        return _merge_sig(self.pool.gather("significant", parsed, min_df))

    def significant_terms_filtered(
        self, query_string: str, background_filter: str,
        top_n: int = 10, min_df: int = 2,
    ) -> list[tuple[str, int, int, float]]:
        """ES significant_terms with ``background_filter``: the
        background population is the filter's match set, not the whole
        corpus — "what's special about these docs vs their SEGMENT".
        Foreground = match(query ∧ filter) (the agg runs in the
        filtered search context, so fg ⊆ bg by construction and JLH is
        well-defined); both sides ride the same vocab-walk kernel, so
        returns ``[(term, fg, bg, score)]`` with JLH over (fg/m,
        bg/nb), top_n by (score desc, term asc); the corpus-df
        ``min_df`` gate applies to both passes."""
        from . import querylang

        filt = querylang.parse(background_filter).get("filters") or {}
        if len(filt) != 1:
            raise ValueError(
                f"background_filter wants one col:value filter, got {background_filter!r}"
            )
        (col, val), = filt.items()
        fg, m = self._sig_counts(f"{query_string} {background_filter}", min_df)
        if not m:
            return []
        # pure-filter background: docmeta equality match (no scored
        # terms to ride querylang.match); disjoint slices add
        bg, nb = _merge_sig(self.pool.gather("significant_meta", col, val, min_df))
        if not nb:
            return []
        return _jlh_rank(fg, m, bg, nb, top_n)

    def significant_terms(
        self, query_string: str, top_n: int = 10, min_df: int = 2
    ) -> list[tuple[str, int, int, float]]:
        """ES significant_terms: terms overrepresented in the query's
        match set vs the corpus, scored by JLH
        ``(fg/m - df/N) * ((fg/m) / (df/N))`` — returns
        ``[(term, fg, df, score)]`` top_n by (score desc, term asc).
        Per-server slice counts add."""
        fg, m = self._sig_counts(query_string, min_df)
        if not m:
            return []
        return _jlh_rank(fg, m, self.term_dfs(sorted(fg)), self._n_docs, top_n)

    def histogram(self, query_string: str, histos: dict) -> dict:
        """ES histogram aggregation over the query's FULL match set:
        ``{col: interval}`` -> ``{col: {bucket_lo: count}}``."""
        return self._agg(query_string, "histogram", histos)

    def histogram_zerofill(
        self, query_string: str, col: str, interval: int,
        bounds: tuple[int, int],
    ) -> list[tuple[int, int]]:
        """ES histogram with ``min_doc_count: 0`` + ``extended_bounds``:
        the emitted bucket axis is the union of the data's buckets and
        the aligned ``bounds`` range, gaps (and the extension) filled
        with zero counts — the shape date_histogram dashboards rely on.
        The distributed work is the plain histogram (exact additive
        merge); zero-filling is a driver-side O(buckets) pass over the
        small bucket map."""
        h = self.histogram(query_string, {col: interval}).get(col, {})
        lo = (int(bounds[0]) // interval) * interval
        hi = (int(bounds[1]) // interval) * interval
        axis = set(range(lo, hi + interval, interval)) | set(h)
        return [(b, int(h.get(b, 0))) for b in sorted(axis)]

    def range_agg(self, query_string: str, ranges: dict) -> dict:
        """ES range aggregation over the query's FULL match set:
        ``{col: [(lo, hi), ...]}`` -> ``{col: [count, ...]}`` aligned
        with the input ranges (half-open ``[lo, hi)``, ``None`` =
        unbounded)."""
        return self._agg(query_string, "range", ranges)

    def collapse(
        self, text: str, group_col: str, k: int
    ) -> list[tuple[int, float, object]]:
        """ES field collapsing: the global top ``k`` hits keeping only
        the single best doc per ``group_col`` value, as ``(doc_id,
        score, group_value)`` triples — top_hits at k_per=1, re-cut."""
        return _collapse_from_top_hits(self.top_hits(text, group_col, 1), k)

    def percentile_ranks(
        self, query_string: str, col: str, values: list[int]
    ) -> dict[int, float] | None:
        """ES percentile_ranks aggregation over the query's FULL match
        set: for each value v, the fraction of matching docs (with a
        non-null ``col`` — nulls are outside the distribution, like
        SQL aggregate comparisons) whose ``col <= v``.  Rides the range
        aggregation, then ONE division per value.  None when the query
        matches nothing."""
        cnts = self.range_agg(query_string, {col: _pct_ranges(values)})[col]
        return _pct_ranks_from_counts(cnts, values)

    def explain(self, text: str, doc_id: int) -> list[tuple[str, int, int, float]]:
        """ES explain via the pool: per-term (term, tf, doc_len,
        contribution) for one doc — fans out, only the owning slice
        emits."""
        terms = sorted(set(analyze.tokenize(text)))
        if not terms:
            return []
        parts = self.pool.gather("explain", terms, doc_id)
        return sorted((r for p in parts for r in p), key=lambda r: r[0])

    def filters_agg(self, query_string: str, filters: dict) -> dict[str, int]:
        """ES ``filters`` aggregation: per named sub-query string, the
        count of main-match docs also matching it — per-server
        intersection counts over disjoint slices, exact additive fold.
        Both main and sub queries are parsed (and wildcard/fuzzy
        expanded) ONCE here; servers receive concrete clause sets."""
        parsed, involved = self._parsed_and_involved(query_string)
        if not involved:
            return {name: 0 for name in filters}
        named = {name: self._parsed_and_involved(fq)[0] for name, fq in filters.items()}
        parts = self.pool.gather("filter_counts", parsed, named)
        out: dict[str, int] = {name: 0 for name in filters}
        for p in parts:
            for name, c in p.items():
                out[name] += c
        return out

    def adjacency_matrix(
        self, query_string: str, filters: dict
    ) -> dict[tuple[str, str], int]:
        """ES adjacency_matrix via the pool: per named-filter pair
        (a <= b), |match(main) ∩ match(a) ∩ match(b)| — per-server
        counts over disjoint slices fold by exact addition (the same
        dispatch shape as filters_agg)."""
        parsed, involved = self._parsed_and_involved(query_string)
        names = sorted(filters)
        zero = {
            (a, b): 0 for i, a in enumerate(names) for b in names[i:]
        }
        if not involved:
            return zero
        named = {name: self._parsed_and_involved(fq)[0] for name, fq in filters.items()}
        parts = self.pool.gather("adjacency_counts", parsed, named)
        out = dict(zero)
        for p in parts:
            for key, c in p.items():
                out[key] += c
        return out

    def sample(self, query_string: str, k: int) -> list[int]:
        """ES sampler aggregation over the query's FULL match set: a
        deterministic uniform sample of k matching doc ids (lowest
        md5(doc_id), ties by id).  Per-server local top-k by (hash, id)
        re-cuts exactly at the driver; rerun-stable with no RNG."""
        parsed, involved = self._parsed_and_involved(query_string)
        if not involved:
            return []
        parts = self.pool.gather("sample_hits", parsed, k)
        merged = sorted(
            (p for part in parts for p in part), key=lambda r: (r[1], r[0])
        )[:k]
        return [d for d, _ in merged]

    def diversified_sample(
        self, query_string: str, col: str, k: int, max_per: int = 1
    ) -> list[tuple[int, str]]:
        """ES diversified_sampler over the query's FULL match set: the
        md5(doc_id)-order uniform sample of k matching docs with at
        most ``max_per`` docs sharing a ``col`` value.  Per-server
        per-value local cuts are supersets of the global survivors, so
        the driver redoes the SAME per-value + global cut exactly —
        rerun-stable, pool-invariant, no RNG.  Returns (doc_id, value)
        in sample (hash) order."""
        parsed, involved = self._parsed_and_involved(query_string)
        if not involved:
            return []
        parts = self.pool.gather("diversified_hits", parsed, col, k, max_per)
        per_val: dict[str, list[tuple[int, int]]] = {}
        for part in parts:
            for d, h, v in part:
                per_val.setdefault(v, []).append((h, d))
        survivors = []
        for v, cand in per_val.items():
            for h, d in sorted(cand)[:max_per]:
                survivors.append((h, d, v))
        survivors.sort()
        return [(d, v) for _, d, v in survivors[:k]]

    def delete_by_query(self, query_string: str) -> int:
        """ES ``_delete_by_query``: tombstone every doc matching the
        query.  Each disjoint server slice reports its full match set
        (``match_first`` at k = slice size — the same id-list shape a
        tombstone file stores, and the same materialization ES itself
        does via scroll), the driver writes ONE atomic tombstone
        update.  Returns the number of newly tombstoned docs.  Running
        servers keep serving the old tombstones (they load once at
        start — the delete_docs contract); construct a new engine to
        observe the deletes."""
        parsed, involved = self._parsed_and_involved(query_string)
        if not involved:
            return 0
        big = 1 << 62
        parts = self.pool.gather("match_first", parsed, big)
        ids = sorted({d for part in parts for d in part})
        if not ids:
            return 0
        before = len(load_tombstones(self.meta.index_dir))
        delete_docs(self.meta.index_dir, ids)
        return len(load_tombstones(self.meta.index_dir)) - before

    def update_by_query(
        self, query_string: str, col: str, op: str, value,
        update_id: str | None = None,
    ) -> int:
        """ES ``_update_by_query``: apply ``col op value`` (op =
        ``set`` | ``add`` — the painless-script analog) to the stored
        fields of every doc matching the query.  The match half is
        delete_by_query's (each disjoint slice reports its match set);
        the write half is docmeta.update_docs — bucket-pruned in-place
        rewrites, one Ray task per touched bucket, crash-convergent
        under ``update_id``.  Returns the number of docs updated.
        Running servers keep serving their loaded docmeta (it loads
        lazily once per server); construct a new engine to observe the
        updates — the same visibility contract as delete_docs."""
        from . import docmeta as docmeta_mod

        parsed, involved = self._parsed_and_involved(query_string)
        if not involved:
            return 0
        big = 1 << 62
        parts = self.pool.gather("match_first", parsed, big)
        ids = sorted({d for part in parts for d in part})
        if not ids:
            return 0
        return docmeta_mod.update_docs(
            self.meta.index_dir, ids, col, op, value, update_id=update_id
        )

    def mget(self, doc_ids, cols=("lang", "source", "n_chars")) -> list[tuple]:
        """ES ``_mget``: stored fields by id from the doc store.  Each
        server answers for its disjoint doc-range slice
        (absent/tombstoned ids 404 away)."""
        parts = self.pool.gather("get_docs", list(doc_ids), list(cols))
        return sorted(p for part in parts for p in part)

    def constant_score(
        self, query_string: str, boost: float = 1.0, k: int = 10
    ) -> list[tuple[int, float]]:
        """ES ``constant_score``: every matching doc scores exactly
        ``boost`` — membership only, no BM25 work, no postings decode
        beyond the match.  All scores tie, so the ranking is the
        deterministic (score, doc_id asc) order: the first k matching
        ids, each disjoint server slice contributing its own sorted
        prefix."""
        parsed, involved = self._parsed_and_involved(query_string)
        if not involved:
            return []
        parts = self.pool.gather("match_first", parsed, k)
        ids = sorted(d for part in parts for d in part)[:k]
        return [(d, float(boost)) for d in ids]

    def pinned(
        self, query_string: str, pinned_ids, k: int = 10
    ) -> list[tuple[int, float, int]]:
        """ES ``pinned`` query: the listed ids surface first IN THE
        GIVEN ORDER — provided they exist and are live (absent /
        tombstoned ids 404 away, matching ES) — then organic matches
        for ``query_string`` with pinned ids deduped out, k rows total.
        Rows are (doc_id, score, pinned): pinned rows keep score 0.0
        (ES's pinned constants are sentinel floats near FLT_MAX,
        intentionally out of contract) and organic rows their BM25.
        Pinned docs appear even when the organic query matches
        nothing.  Requires docmeta (the liveness probe is one mget)."""
        live = {t[0] for t in self.mget(pinned_ids, cols=("n_chars",))}
        pins = [int(d) for d in pinned_ids if int(d) in live][:k]
        pinset = set(pins)
        organic = self.search(query_string, k=k)
        org = [
            (d, s) for d, s in organic if d not in pinset
        ][: max(0, k - len(pins))]
        return (
            [(d, 0.0, 1) for d in pins]
            + [(d, float(s), 0) for d, s in org]
        )

    def span_first(self, text: str, end: int) -> list[tuple[int, int]]:
        """ES ``span_first`` (single-term inner span): docs whose first
        occurrence of the analyzed term ends by position ``end``,
        with that 0-based position — filter-context (no scores; ES span
        scoring is sloppy-freq, intentionally out of contract).
        Disjoint slices concatenate."""
        toks = analyze.tokenize(text)
        if len(toks) != 1:
            raise ValueError(f"span_first wants exactly one analyzed term, got {toks}")
        parts = self.pool.gather("span_first", toks[0], end)
        return sorted(p for part in parts for p in part)

    def terms_set(
        self, text: str, spec: dict, k: int = 10
    ) -> list[tuple[int, float]]:
        """ES ``terms_set`` query: BM25-scored term-OR match where the
        per-doc minimum_should_match is read off a doc field —
        ``required = min(cap, 1 + col // div)`` (the
        minimum_should_match_field contract over an integer docmeta
        column).  Disjoint local top-k re-cut exactly."""
        toks = sorted(set(analyze.tokenize(text)))
        if not toks:
            return []
        return _merge_topk(self.pool.gather("terms_set", toks, spec, k), k)

    def span_near(self, text: str, slop: int) -> list[tuple[int, int]]:
        """ES ``span_near`` with ``in_order: false`` over two
        single-term clauses: docs where the two analyzed terms co-occur
        within ``slop`` intervening tokens, with that minimum gap —
        filter-context (span scoring is out of contract, same as
        span_first).  Disjoint slices concatenate."""
        toks = analyze.tokenize(text)
        if len(toks) != 2 or toks[0] == toks[1]:
            raise ValueError(
                f"span_near wants exactly two distinct analyzed terms, got {toks}"
            )
        parts = self.pool.gather("span_near", toks[0], toks[1], int(slop))
        return sorted(p for part in parts for p in part)

    def _merged_parents(
        self, query_string: str, parent_col: str
    ) -> dict[object, tuple[float, int]]:
        """Shared join-field phase: per-parent (max child BM25 score,
        n_children) over the query's FULL match set, merged exactly
        across scopes (max of maxes, sum of counts)."""
        parsed, involved = self._parsed_and_involved(query_string)
        if not involved:
            return {}
        parts = self.pool.gather("join_children", parsed, parent_col)
        merged: dict[object, tuple[float, int]] = {}
        for part in parts:
            for v, mx, n in part:
                if v in merged:
                    omx, on = merged[v]
                    merged[v] = (max(omx, mx), on + n)
                else:
                    merged[v] = (mx, n)
        return merged

    def has_child(
        self, query_string: str, parent_col: str,
        k: int = 10, min_children: int = 1,
    ) -> list[tuple[object, float, int]]:
        """ES join-field ``has_child`` (score_mode=max): parents whose
        child docs match the query, scored by the best-matching child's
        BM25, with the matching-child count — ``min_children`` drops
        thin parents.  Parents never exist as index docs (the join
        field's parent side is metadata), so the result rows are
        (parent_value, score, n_children) ranked (score desc, parent
        asc) — max and count both merge exactly across disjoint doc
        slices, no float-sum order hazard."""
        merged = self._merged_parents(query_string, parent_col)
        rows = [
            (v, mx, n) for v, (mx, n) in merged.items() if n >= min_children
        ]
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows[:k]

    def has_parent(
        self, parent_query: str, parent_col: str, k: int = 10
    ) -> list[tuple[int, float]]:
        """ES join-field ``has_parent`` (score=true): child docs whose
        parent group contains a doc matching the parent query, each
        scored with its parent's (max-child) score.  Phase 1 reuses the
        has_child kernel for the matched-parent score map; phase 2
        broadcasts that tiny map and each doc slice selects its members
        with one vectorized is_in over docmeta — exact local top-k
        re-cuts at the driver."""
        merged = self._merged_parents(parent_query, parent_col)
        if not merged:
            return []
        scores = {v: mx for v, (mx, n) in merged.items()}
        return _merge_topk(self.pool.gather("parent_docs", scores, parent_col, k), k)

    def terms_orderby_metric(
        self, query_string: str, group_col: str, stat_col: str,
        top_n: int = 5,
    ) -> list[tuple[object, int, float]]:
        """ES terms aggregation ORDERED BY a metric sub-agg (``order:
        {avg_x: desc}``): buckets of ``group_col`` over the query's
        FULL match set as ``(value, count, avg(stat_col))``, ranked
        (avg desc, value asc) and cut to ``top_n`` after the counts and
        sums are complete — not the per-shard top-N merge ES warns
        about for metric-ordered terms aggs."""
        return self._agg(query_string, "terms_stats", (group_col, stat_col, top_n))

    def top_metrics(
        self, query_string: str, group_col: str, sort_col: str,
        metric_cols=(), k_per: int = 1,
    ) -> dict:
        """ES ``top_metrics`` inside a terms agg: per ``group_col``
        value of the query's FULL match set, the metric column values
        at the top ``k_per`` rows by (``sort_col`` desc, doc_id asc) —
        the "value at the max" workload (e.g. the newest doc's fields
        per group)."""
        return self._agg(
            query_string, "top_metrics", (group_col, sort_col, list(metric_cols), k_per)
        )

    def match_bool_prefix(self, text: str, k: int = 10) -> list[tuple[int, float]]:
        """ES ``match_bool_prefix``: every analyzed term but the last
        is a BM25 should; the trailing term matches as a PREFIX,
        expanded once driver-side against the tiny _termdf vocabulary
        (the wildcard/fuzzy rewrite path) and contributing a constant
        1.0 (ES's constant_score prefix rewrite).  Union semantics —
        prefix-only docs match.  Disjoint local top-k re-cut exactly."""
        toks = analyze.tokenize(text)
        if not toks:
            return []
        complete, prefix = toks[:-1], toks[-1]
        if self._vocab is None:
            self._vocab = load_vocab(self.meta)
        expansions = sorted(t for t in self._vocab if t.startswith(prefix))
        if not (complete or expansions):
            return []
        parts = self.pool.gather("bool_prefix", sorted(set(complete)), expansions, k)
        return _merge_topk(parts, k)

    def span_or_first(self, text: str, end: int) -> list[tuple[int, int]]:
        """ES ``span_first`` whose match clause is a ``span_or`` over
        the analyzed terms of ``text``: docs where the earliest
        occurrence of ANY term ends by ``end``, with that position —
        filter-context like span_first.  Disjoint slices concatenate."""
        toks = sorted(set(analyze.tokenize(text)))
        if not toks:
            return []
        parts = self.pool.gather("span_or_first", toks, end)
        return sorted(p for part in parts for p in part)

    def span_not(self, text: str, slop: int) -> list[tuple[int, int]]:
        """ES ``span_not`` over two single-term clauses (include,
        exclude) with a symmetric ``slop`` window: docs keeping an
        include occurrence clear of every exclude occurrence, with the
        first such position — filter-context, the exclusion dual of
        span_near."""
        toks = analyze.tokenize(text)
        if len(toks) != 2 or toks[0] == toks[1]:
            raise ValueError(
                f"span_not wants exactly two distinct analyzed terms, got {toks}"
            )
        parts = self.pool.gather("span_not", toks[0], toks[1], int(slop))
        return sorted(p for part in parts for p in part)

    def intervals(
        self, text: str, max_gaps: int, ordered: bool = False
    ) -> list[tuple[int, int]]:
        """ES ``intervals`` query (the ``match`` rule with ``max_gaps``
        / ``ordered``) over the analyzed terms of ``text``: docs where
        some tuple of positions, one occurrence per term (query order
        when ``ordered``), spans at most ``max_gaps`` intervening
        positions, with that minimal gap count — filter-context like
        the span family (ES interval scoring is sloppy-freq,
        intentionally out of contract).  Disjoint slices concatenate."""
        toks = analyze.tokenize(text)
        if len(toks) < 2 or len(set(toks)) != len(toks):
            raise ValueError(
                f"intervals wants >=2 distinct analyzed terms, got {toks}"
            )
        parts = self.pool.gather("intervals_q", toks, int(max_gaps), bool(ordered))
        return sorted(p for part in parts for p in part)

    def count(self, query_string: str) -> int:
        """ES ``_count``: the match-set size for a query string —
        scoring-free, ids never leave the servers (each disjoint slice
        reports its count, the driver sums)."""
        parsed, involved = self._parsed_and_involved(query_string)
        if not involved:
            return 0
        return int(sum(self.pool.gather("match_count", parsed)))

    def function_score(
        self, query_string: str, spec: dict, k: int = 10
    ) -> list[tuple[int, float]]:
        """ES function_score: full-match-set BM25 combined with a
        docmeta-feature function before the top-k cut (spec kinds:
        :func:`cb.aggs._combine_function_score`)."""
        return self._agg(query_string, "function_score", (spec, k))

    def _dispatch_term_vectors(
        self, doc_ids: list[int], source: str = "index", text_col: str = "text"
    ) -> list:
        if source == "store":
            # each server re-analyzes its own docmeta slice
            return self.pool.fanout("term_vectors_store", list(doc_ids), text_col)
        return self.pool.fanout("term_vectors", list(doc_ids))

    def term_vectors(
        self, doc_ids: list[int], source: str = "index", text_col: str = "text"
    ) -> list[tuple]:
        """ES _termvectors: (doc_id, term, tf, doc_len, positions) for
        each live requested doc.  ``source="index"`` extracts from the
        positional index (bucket + candidate-block pruned —
        cb.termvectors); ``source="store"`` re-analyzes the stored
        docmeta text column (ES-from-_source, the high-QPS scale path).
        Identical output either way; owners are disjoint, so concat
        needs no dedupe."""
        futs = self._dispatch_term_vectors(doc_ids, source, text_col)
        rows = [r for part in rpc.get(futs) for r in part]
        rows.sort(key=lambda r: (r[0], r[1]))
        return rows

    def composite(
        self, query_string: str, cols: list[str], size: int, after: tuple | None = None
    ) -> tuple[list[tuple[tuple, int]], tuple | None]:
        """ES composite aggregation over the query's full match set:
        doc counts per distinct key tuple of ``cols``, key-ordered,
        paged ``size`` buckets at a time.  Returns ``(buckets,
        after_key)`` where ``buckets`` is ``[(key_tuple, count), ...]``
        and ``after_key`` feeds the next page (None = exhausted)."""
        return _page_composite(self._agg(query_string, "composite", list(cols)), size, after)

    def top_hits(self, text: str, group_col: str, k_per: int) -> dict:
        """ES top_hits-inside-terms-agg: per group value of
        ``group_col``, the exact top ``k_per`` docs by the BM25 of
        ``text``'s analyzed terms (score desc, doc_id asc) over their
        FULL match set."""
        return self._agg(_terms_clause(text), "top_hits", (group_col, k_per))

    def query_many(self, texts: list[str], k: int = 10, algo: str = "taat"):
        """Batched fan-out: ONE score_many request per server covering
        every query (see :func:`_query_many`)."""
        return _query_many([self.pool], texts, k, algo)
