"""Named pipelines over the driver's sf-dir tables + their DuckDB oracles.

Each ``queries()`` entry in ``__ray_entry__`` maps here: a callable
``fn(sf_dir) -> pyarrow.Table / Dataset`` running the Ray-Data engine,
and (where SQL-expressible) a matching DuckDB SQL string producing the
same columns/values over the same tables.  Column names and types are
aligned on both sides; float columns either derive from exact integer
arithmetic (bitwise-reproducible) or are rounded on both sides.
"""

from __future__ import annotations

import fcntl
import functools
import glob
import hashlib
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data
from ray.data.aggregate import Sum

from . import analyze, ann, build, curation, dedup, filters, geo, lm, scoring, shard, textstats

K = 10

# Fixed query set over the documents-table vocabulary (hot terms, multi-
# term conjunctions, stopword mixes, absent terms, camelCase forms that
# must analyze like content).
QUERY_SET: tuple[str, ...] = (
    "join",
    "table",
    "spark",
    "window",
    "customer",
    "merge sort window",
    "group order column",
    "hash join table scan",
    "the fast query",
    "stream batch",
    "vector value row line",
    "zebra quantum",
    "spark zebra",
    "fastScan",
    "bigJoin smallTable",
    "agg",
    "part key hash",
    "slow big filter",
    "data stream window sort merge",
    "column",
)


def docs_path(sf_dir: str) -> str:
    return os.path.join(sf_dir, "documents.parquet")


def _collect(ds: ray.data.Dataset) -> pa.Table:
    """Dataset -> one driver-side Table via Arrow block refs (zero-copy
    from the object store) — NOT row-wise ``from_pylist(take_all())``.
    Only call on result-sized datasets.  Narrow ints/floats are widened
    (int64/float64) to keep the driver-facing schema identical to the
    Python-inferred one these pipelines historically produced."""
    from .collect import collect_table

    t = collect_table(ds)
    for i, f in enumerate(t.schema):
        if pa.types.is_integer(f.type) and f.type != pa.int64():
            t = t.set_column(i, f.name, t[f.name].cast(pa.int64()))
        elif pa.types.is_floating(f.type) and f.type != pa.float64():
            t = t.set_column(i, f.name, t[f.name].cast(pa.float64()))
    return t


INDEX_CACHE = os.path.join("/tmp", "cb_index_cache")


@functools.cache
def _cb_sources_hash() -> str:
    """Hash of every source file of the ``cb`` package: a code change
    that alters what a build writes must never read a stale index."""
    root = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for d, dirs, files in sorted(os.walk(root)):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        for f in sorted(files):
            path = os.path.join(d, f)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# cache entry dir -> the fd of its lock file, shared-locked for the
# life of this process so no other process evicts the entry
_HELD_LOCKS: dict[str, int] = {}


def _lock_path(entry: str) -> str:
    """An entry's lock file: hidden (``.<name>.lock``), so a glob of the
    entries never lists it."""
    return os.path.join(os.path.dirname(entry), f".{os.path.basename(entry)}.lock")


def _flock(path: str, op: int, fd: int | None = None) -> int:
    """``flock(op)`` on the file ``path`` (created if absent) through
    ``fd`` or a new fd, which is returned.  A lock file is unlinked only
    by an evicting process that holds it exclusively, so a lock won on
    an unlinked file is dropped and taken again on the live one."""
    while True:
        if fd is None:
            fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_CLOEXEC, 0o644)
        try:
            fcntl.flock(fd, op)
            if os.fstat(fd).st_ino == os.stat(path).st_ino:
                return fd
        except FileNotFoundError:
            pass
        except BaseException:
            os.close(fd)
            raise
        os.close(fd)
        fd = None


def _cached_index(
    kind: str, sf_dir: str, build_fn, marker: str = "_global.json",
    table: str = "documents.parquet",
) -> str:
    """The cache dir of index ``kind`` over ``sf_dir``'s ``table``,
    built by ``build_fn(sf_dir, dir)`` unless ``dir/marker`` (written
    last by the build) exists.  The key covers the sf dir, the table's
    size and mtime and :func:`_cb_sources_hash`; a miss first drops
    this kind's stale entries for the same sf dir.

    Processes share entries through lock files: a process holds a
    shared lock on each entry it uses until it exits, builds under an
    exclusive one, and a miss evicts a stale entry only when it can lock
    it exclusively at once, so never one another process is reading."""
    st = os.stat(os.path.join(sf_dir, table))
    stem = f"{kind}-{hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:12]}-"
    key = f"{st.st_size}|{st.st_mtime_ns}|{_cb_sources_hash()}"
    d = os.path.join(INDEX_CACHE, stem + hashlib.md5(key.encode()).hexdigest()[:12])
    os.makedirs(INDEX_CACHE, exist_ok=True)
    if d not in _HELD_LOCKS:
        _HELD_LOCKS[d] = _flock(_lock_path(d), fcntl.LOCK_SH)
    if not os.path.exists(os.path.join(d, marker)):
        _HELD_LOCKS[d] = fd = _flock(_lock_path(d), fcntl.LOCK_EX, _HELD_LOCKS[d])
        try:
            if not os.path.exists(os.path.join(d, marker)):  # nobody built it meanwhile
                _evict(stem, keep=d)
                shutil.rmtree(d, ignore_errors=True)  # a build cut short
                build_fn(sf_dir, d)
        finally:
            fcntl.flock(fd, fcntl.LOCK_SH)
    return d


def _evict(stem: str, keep: str) -> None:
    """Remove the cache entries named ``stem*`` but ``keep``, skipping
    each one another process holds a lock on (this process lets go of
    its own)."""
    entries = set(glob.glob(os.path.join(INDEX_CACHE, glob.escape(stem) + "*")))
    for lock in glob.glob(os.path.join(INDEX_CACHE, "." + glob.escape(stem) + "*.lock")):
        entries.add(os.path.join(INDEX_CACHE, os.path.basename(lock)[1 : -len(".lock")]))
    for old in sorted(entries - {keep}):
        if old in _HELD_LOCKS:
            os.close(_HELD_LOCKS.pop(old))
        try:
            fd = _flock(_lock_path(old), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            continue  # in use
        try:
            shutil.rmtree(old, ignore_errors=True)
            os.unlink(_lock_path(old))
        finally:
            os.close(fd)


def _build_docs_index(sf_dir: str, dst: str) -> None:
    """The documents table's index, as every cached index kind builds it."""
    build.build_index(
        docs_path(sf_dir), dst, text_col="text", id_col="doc_id",
        columns=["doc_id", "text"],
        # corpus-size-derived layout: bucket count (serving-pool width /
        # pruned-read grain) and partition count both scale with n_docs
        # (free here: parquet metadata row count)
        num_parts="auto", range_bits="auto",
    )


def get_index(sf_dir: str) -> build.IndexMeta:
    """Build (or reuse) the inverted index over the documents table."""
    return build.IndexMeta(_cached_index("docs", sf_dir, _build_docs_index))


# --------------------------------------------------------------------------
# Index / BM25 pipelines
# --------------------------------------------------------------------------

def q_doc_stats(sf_dir: str) -> pa.Table:
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id", "text"])
    out = ds.map_batches(build.doc_stats, batch_format="pyarrow", zero_copy_batch=True)
    t = _collect(out)
    return t.set_column(
        t.schema.get_field_index("doc_len"), "doc_len", t["doc_len"].cast(pa.int64())
    )


def sql_doc_stats() -> str:
    tok = analyze.sql_token_array("text")
    return f"SELECT doc_id, len({tok})::BIGINT AS doc_len FROM documents ORDER BY doc_id"


def q_term_stats(sf_dir: str) -> pa.Table:
    import glob

    meta = get_index(sf_dir)
    files = sorted(
        glob.glob(os.path.join(meta.index_dir, "parts", "part=*", "bucket=*.parquet"))
    )
    parts = ray.data.read_parquet(files, columns=["term", "df", "cf"])
    agg = parts.groupby("term").aggregate(
        Sum("df", alias_name="df"), Sum("cf", alias_name="cf")
    )
    return _collect(agg)


def sql_term_stats() -> str:
    tok = analyze.sql_token_array("text")
    return f"""
WITH toks AS (SELECT doc_id, unnest({tok}) AS term FROM documents),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM toks GROUP BY 1, 2)
SELECT term, count(*)::BIGINT AS df, sum(tf)::BIGINT AS cf FROM tf GROUP BY 1 ORDER BY term
"""


def q_corpus_stats(sf_dir: str) -> pa.Table:
    meta = get_index(sf_dir)
    return pa.table(
        {
            "n_docs": pa.array([meta.n_docs], type=pa.int64()),
            "total_tokens": pa.array([meta.total_tokens], type=pa.int64()),
            "avgdl": pa.array([meta.avgdl], type=pa.float64()),
        }
    )


def sql_corpus_stats() -> str:
    tok = analyze.sql_token_array("text")
    return f"""
WITH s AS (SELECT len({tok})::BIGINT AS dl FROM documents)
SELECT count(*)::BIGINT AS n_docs, sum(dl)::BIGINT AS total_tokens,
       sum(dl)::DOUBLE / count(*)::DOUBLE AS avgdl FROM s
"""


def _run_query_set(sf_dir: str, with_scores: bool) -> pa.Table:
    meta = get_index(sf_dir)
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    try:
        results = engine.query_many(list(QUERY_SET), k=K)
    finally:
        engine.shutdown()
    return _topk_table(results, with_scores)


def _topk_table(results, with_scores: bool) -> pa.Table:
    rows = {"query_id": [], "rank": [], "doc_id": [], "score": []}
    for qid, res in enumerate(results):
        for rank, (doc_id, score) in enumerate(res, start=1):
            rows["query_id"].append(qid)
            rows["rank"].append(rank)
            rows["doc_id"].append(doc_id)
            rows["score"].append(score)
    cols = {
        "query_id": pa.array(rows["query_id"], type=pa.int64()),
        "rank": pa.array(rows["rank"], type=pa.int64()),
        "doc_id": pa.array(rows["doc_id"], type=pa.int64()),
    }
    if with_scores:
        # rounded for the SQL-oracle value hash: DuckDB's multi-term SUM
        # accumulates in a different ulp order; bitwise raw-score parity
        # vs the Python oracle is enforced in tests/test_e2e_index.py.
        # np.round, not pc.round: pyarrow's kernel disagrees with
        # DuckDB/libc rounding on values a few ulps under the boundary.
        cols["score"] = pa.array(
            np.round(np.array(rows["score"], dtype=np.float64), 6), type=pa.float64()
        )
    return pa.table(cols)


def q_bm25_topk(sf_dir: str) -> pa.Table:
    return _run_query_set(sf_dir, with_scores=False)


def q_bm25_topk_scores(sf_dir: str) -> pa.Table:
    return _run_query_set(sf_dir, with_scores=True)


FED_NDAYS = 4
# 2026-01-05T00:00:00Z in microseconds (deterministic routing epoch)
FED_EPOCH_US = 1_767_571_200_000_000


def get_federation(sf_dir: str) -> str:
    """Build (or reuse) the per-day federated index over documents.

    Routing parity with the reference's ``@timestamp`` push
    (NestBatchPusher.cs:66-75): each doc gets a deterministic timestamp
    ``epoch + (doc_id % FED_NDAYS) days`` and flows through the
    IndexNamer day path, yielding FED_NDAYS per-day sub-indexes."""
    from . import federated

    def build_fed(sf_dir: str, fed_dir: str) -> None:
        # metadata columns ride the staging write so each sub-index's
        # docmeta (filter-context search) derives from ITS slice alone
        ds = ray.data.read_parquet(
            docs_path(sf_dir), columns=["doc_id", "text", "lang", "source", "n_chars"]
        ).map_batches(_with_fed_ts, batch_format="pyarrow")
        federated.build_federation(
            ds, fed_dir, text_col="text", id_col="doc_id", ts_col="ts", prefix="cb-"
        )

    return _cached_index("fed", sf_dir, build_fed, marker="fed.json")


def _with_fed_ts(b: pa.Table) -> pa.Table:
    """Each doc's deterministic day: ``epoch + (doc_id % FED_NDAYS)``."""
    ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    us = FED_EPOCH_US + (ids % FED_NDAYS) * 86_400_000_000
    return b.append_column("ts", pa.array(us).cast(pa.timestamp("us")))


def q_federated_bm25(sf_dir: str) -> pa.Table:
    """BM25 across the per-day federation with federation-global stats
    (ES dfs_query_then_fetch): the merged top-k is bitwise identical to
    one monolithic index over the union corpus, so the oracle is the
    monolithic BM25 SQL — a strong end-to-end check of the routing
    split, the per-partition df merge, and the cross-index merge."""
    from . import federated

    fed_dir = get_federation(sf_dir)
    eng = federated.FederatedEngine(fed_dir, num_servers=2)
    try:
        results = eng.query_many(list(QUERY_SET), k=K)
    finally:
        eng.shutdown()
    return _topk_table(results, with_scores=True)


# per-day indices_boost weights (exact binary fractions -> bitwise);
# day d = doc_id % FED_NDAYS, so the oracle re-derives the member from
# the id alone
FED_BOOSTS: tuple[float, ...] = (1.0, 0.5, 2.0, 0.25)


def q_federated_boosted(sf_dir: str) -> pa.Table:
    """ES ``indices_boost`` across the per-day federation: each day
    index's scores scale by its boost before the cross-index merge —
    per-doc over disjoint members, so the merged top-k is the exact
    boosted global ranking.  The routing day is ``doc_id % FED_NDAYS``
    (get_federation), so the oracle re-derives the boost per doc from
    the monolithic scored CTE."""
    from . import federated

    fed_dir = get_federation(sf_dir)
    eng = federated.FederatedEngine(fed_dir, num_servers=2)
    names = sorted(eng.engines)
    assert len(names) == FED_NDAYS
    ib = {n: w for n, w in zip(names, FED_BOOSTS)}
    try:
        results = [
            eng.query_boosted(q, k=K, indices_boost=ib) for q in QUERY_SET
        ]
    finally:
        eng.shutdown()
    return _topk_table(results, with_scores=True)


def sql_federated_boosted() -> str:
    base = sql_bm25(with_scores=True)
    whens = " ".join(
        f"WHEN {d} THEN CAST({w!r} AS DOUBLE)"
        for d, w in enumerate(FED_BOOSTS[:-1])
    )
    case = (
        f"(CASE doc_id % {FED_NDAYS} {whens} "
        f"ELSE CAST({FED_BOOSTS[-1]!r} AS DOUBLE) END)"
    )
    old = """ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id ASC) AS rank
  FROM scored
)"""
    assert old in base  # keep the splice honest if sql_bm25 moves
    return base.replace(
        old,
        f"""boosted AS (
  SELECT query_id, doc_id, score * {case} AS score FROM scored
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id ASC) AS rank
  FROM boosted
)""",
    )


def q_federated_querystring(sf_dir: str) -> pa.Table:
    """The full query-string surface (boosts, +required, wildcards,
    fuzzy, phrases, negation, metadata range filters) across the
    per-day federation — same invariant as federated_bm25, so the
    monolithic querystring SQL is the oracle.  Filters hit per-sub-index
    docmeta built from each day's staging slice."""
    from . import federated

    fed_dir = get_federation(sf_dir)
    federated.ensure_fed_docmeta(fed_dir, ["lang", "source", "n_chars"])
    eng = federated.FederatedEngine(fed_dir, num_servers=2)
    try:
        results = [eng.search(q, k=K) for q in SEARCH_SET]
    finally:
        eng.shutdown()
    return _topk_table(results, with_scores=True)


def q_federated_msearch(sf_dir: str) -> pa.Table:
    """ES ``_msearch`` across the per-day federation: every query's
    refs across every day member are in flight before any await (one
    drain over query x member x server refs) — bitwise identical to
    the sequential federated search loop, so it shares the monolithic
    querystring oracle."""
    from . import federated

    fed_dir = get_federation(sf_dir)
    federated.ensure_fed_docmeta(fed_dir, ["lang", "source", "n_chars"])
    eng = federated.FederatedEngine(fed_dir, num_servers=2)
    try:
        results = eng.msearch(list(SEARCH_SET), k=K)
    finally:
        eng.shutdown()
    return _topk_table(results, with_scores=True)


def q_bm25_page2(sf_dir: str) -> pa.Table:
    """ES search_after pagination: ranks K+1..2K of every query,
    continued from page 1's (score, doc_id) cursor — exact because the
    cursor comparison runs on bitwise-deterministic scores."""
    meta = get_index(sf_dir)
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    rows = {"query_id": [], "rank": [], "doc_id": [], "score": []}
    try:
        for qid, q in enumerate(QUERY_SET):
            page1 = engine.query(q, k=K)
            if len(page1) < K:
                continue  # no second page
            page2 = engine.search_after(
                q, k=K, after=(page1[-1][1], page1[-1][0])
            )
            for i, (doc_id, score) in enumerate(page2):
                rows["query_id"].append(qid)
                rows["rank"].append(K + 1 + i)
                rows["doc_id"].append(doc_id)
                rows["score"].append(score)
    finally:
        engine.shutdown()
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], type=pa.int64()),
            "rank": pa.array(rows["rank"], type=pa.int64()),
            "doc_id": pa.array(rows["doc_id"], type=pa.int64()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6),
                type=pa.float64(),
            ),
        }
    )


def sql_bm25_page2() -> str:
    """Monolithic BM25 ranking, ranks K+1..2K, only for queries whose
    first page was full (>= K results)."""
    base = sql_bm25(with_scores=True)
    # swap the final cut: rank in (K, 2K], restricted to queries with a
    # full first page
    return base.replace(
        f"FROM ranked WHERE rank <= {K} ORDER BY query_id, rank",
        f"""FROM ranked
WHERE rank > {K} AND rank <= {2 * K}
  AND query_id IN (SELECT query_id FROM ranked GROUP BY 1 HAVING count(*) > {K})
ORDER BY query_id, rank""",
    )


def get_reindexed_index(sf_dir: str) -> build.IndexMeta:
    """A cached reindex-from-doc-store copy of the documents index:
    source index built from the corpus + a doc store carrying the text
    column, then ``cb.build.reindex`` rebuilds a NEW index reading ONLY
    that store (never the corpus files)."""
    from . import docmeta as docmeta_mod

    def build_re(sf_dir: str, dst: str) -> None:
        src = _cached_index("re-src", sf_dir, _build_docs_index)
        docmeta_mod.ensure_docmeta(src, docs_path(sf_dir), ["text"])
        build.reindex(src, dst)

    return build.IndexMeta(_cached_index("re", sf_dir, build_re))


def q_reindex_topk(sf_dir: str) -> pa.Table:
    """ES ``_reindex`` proven end-to-end: the reference query set served
    from an index rebuilt out of the engine's OWN document store
    (``cb.build.reindex`` — no corpus access) must reproduce the exact
    BM25 rankings and scores of the directly-built index, which is what
    the shared ``sql_bm25`` oracle states."""
    meta = get_reindexed_index(sf_dir)
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    try:
        results = [engine.query(q, k=K) for q in QUERY_SET]
    finally:
        engine.shutdown()
    return _topk_table(results, with_scores=True)


DELETE_QUERY = "window"  # plain term: SQL-mirrorable tombstone set


def get_dbq_index(sf_dir: str) -> build.IndexMeta:
    """A dedicated index with ``delete_by_query(DELETE_QUERY)`` applied
    — dedicated because tombstoning the shared index would corrupt
    every other entry.  The delete is re-applied on every call
    (``delete_docs`` unions idempotently), so a cached dir that raced a
    crash between build and delete still converges."""
    dst = _cached_index("dbq", sf_dir, _build_docs_index)
    engine = shard.QueryEngine(dst, num_servers=2)
    try:
        engine.delete_by_query(DELETE_QUERY)
    finally:
        engine.shutdown()
    return build.IndexMeta(dst)


UBQ_QUERY = "window"
UBQ_ADD = 1000


def get_ubq_index(sf_dir: str) -> build.IndexMeta:
    """A dedicated index+docmeta with ``update_by_query`` applied —
    dedicated because the in-place docmeta rewrite would corrupt every
    other entry sharing the cached index.  The update carries a fixed
    ``update_id``, so per-bucket done-sentinels make the re-apply on
    every call (and any crashed half-run) convergent: ``add`` is never
    applied twice to a bucket."""
    from . import docmeta as docmeta_mod

    dst = _cached_index("ubq", sf_dir, _build_docs_index)
    docmeta_mod.ensure_docmeta(dst, docs_path(sf_dir), ["lang", "source", "n_chars"])
    engine = shard.QueryEngine(dst, num_servers=2)
    try:
        engine.update_by_query(
            UBQ_QUERY, "n_chars", "add", UBQ_ADD, update_id="ubq1"
        )
    finally:
        engine.shutdown()
    return build.IndexMeta(dst)


def q_update_by_query(sf_dir: str) -> pa.Table:
    """ES ``_update_by_query`` proven end-to-end: every doc matching
    UBQ_QUERY gets ``n_chars += UBQ_ADD`` written in place to its
    docmeta bucket (bucket-pruned Ray tasks, atomic rewrites,
    crash-convergent done-sentinels), then the WHOLE doc store is read
    back — the oracle recomputes the update from the raw corpus, so
    both the matched-set routing and the arithmetic are value-checked
    for all docs, updated and untouched alike."""
    import glob as _glob

    meta = get_ubq_index(sf_dir)
    files = sorted(_glob.glob(os.path.join(meta.index_dir, "docmeta", "bucket=*.parquet")))
    t = _collect(ray.data.read_parquet(files))
    return t.select(["doc_id", "lang", "source", "n_chars"]).sort_by("doc_id")


def sql_update_by_query() -> str:
    tok = analyze.sql_token_array("text")
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents)
SELECT d.doc_id, d.lang, d.source,
       (d.n_chars + CASE WHEN list_contains(t.toks, '{UBQ_QUERY}')
                         THEN {UBQ_ADD} ELSE 0 END)::BIGINT AS n_chars
FROM documents d JOIN docs t ON t.doc_id = d.doc_id
ORDER BY d.doc_id
"""


def q_delete_by_query(sf_dir: str) -> pa.Table:
    """ES ``_delete_by_query`` proven end-to-end: tombstone every doc
    matching ``DELETE_QUERY``, then serve the reference query set from
    a NEW engine (tombstones load once at server start — the
    delete_docs contract).  Survivor scores keep the BUILD-time
    df/N/avgdl (exactly ES before a merge expunges deletes), so the
    mirror is the standard BM25 ranking re-ranked over non-matching
    docs only."""
    meta = get_dbq_index(sf_dir)
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    try:
        results = [engine.query(q, k=K) for q in QUERY_SET]
    finally:
        engine.shutdown()
    return _topk_table(results, with_scores=True)


def sql_delete_by_query() -> str:
    """sql_bm25 with the deleted docs removed BEFORE ranking: scores
    (build-time stats) are untouched, membership shrinks."""
    base = sql_bm25(with_scores=True)
    old = "  FROM scored\n)"
    assert old in base  # keep the splice honest if sql_bm25 moves
    return base.replace(
        old,
        "  FROM scored\n"
        f"  WHERE doc_id NOT IN (SELECT doc_id FROM tf WHERE term = '{DELETE_QUERY}')\n)",
    )


SCROLL_PAGES = 3  # ES scroll / point-in-time: contiguous deep pages


def q_scroll_pages(sf_dir: str) -> pa.Table:
    """ES scroll (point-in-time deep pagination): ``SCROLL_PAGES``
    consecutive K-sized pages per query, each continued from the
    previous page's (score, doc_id) cursor — the iteration contract a
    reindex/export consumer drives.  Exact because scores are
    bitwise-deterministic over an immutable index, so the cursor
    comparison never skips or repeats a doc; the driver holds one page
    at a time, never the full ranking."""
    meta = get_index(sf_dir)
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    rows = {"query_id": [], "page": [], "rank": [], "doc_id": [], "score": []}
    try:
        for qid, q in enumerate(QUERY_SET):
            page = engine.query(q, k=K)
            rank = 0
            for pno in range(1, SCROLL_PAGES + 1):
                for doc_id, score in page:
                    rank += 1
                    rows["query_id"].append(qid)
                    rows["page"].append(pno)
                    rows["rank"].append(rank)
                    rows["doc_id"].append(doc_id)
                    rows["score"].append(score)
                if len(page) < K or pno == SCROLL_PAGES:
                    break
                page = engine.search_after(
                    q, k=K, after=(page[-1][1], page[-1][0])
                )
    finally:
        engine.shutdown()
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "page": pa.array(rows["page"], pa.int64()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6),
                type=pa.float64(),
            ),
        }
    )


def sql_scroll_pages() -> str:
    """The concatenated scroll pages are exactly ranks 1..pages*K."""
    base = sql_bm25(with_scores=True)
    old_tail = (
        "SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, "
        f"doc_id, round(score, 6) AS score\n"
        f"FROM ranked WHERE rank <= {K} ORDER BY query_id, rank"
    )
    assert old_tail in base  # keep the splice honest if sql_bm25 moves
    return base.replace(
        old_tail,
        f"""SELECT query_id::BIGINT AS query_id,
       (((rank - 1) // {K}) + 1)::BIGINT AS page,
       rank::BIGINT AS rank, doc_id, round(score, 6) AS score
FROM ranked WHERE rank <= {SCROLL_PAGES * K} ORDER BY query_id, rank""",
    )


SLOP_SET: tuple[tuple[str, int], ...] = (
    ("merge sort", 2),
    ("hash join", 3),
    ("sort merge window", 4),
    ("table scan", 1),
    ("data stream", 5),
    ("group order", 3),
    ("the fast query", 2),
)


def q_phrase_slop_search(sf_dir: str) -> pa.Table:
    """Proximity phrases (ES match_phrase slop, ordered flavor): terms
    in order within ``slop`` total extra gaps, ranked by BM25 of the
    phrase's unique terms."""
    meta = get_index(sf_dir)
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    try:
        results = [engine.phrase_query(p, k=K, slop=s) for p, s in SLOP_SET]
    finally:
        engine.shutdown()
    return _topk_table(results, with_scores=True)


def sql_phrase_slop_search() -> str:
    """Membership mirror: one n-way position self-join per phrase —
    strictly increasing subscripts, total span ``<= slop + n - 1``
    (existence-equivalent to the engine's greedy earliest-next chain)."""
    tok = analyze.sql_token_array("text")
    contrib = scoring.sql_score_terms("(SELECT n_docs FROM g)", "(SELECT avgdl FROM g)")
    members, qt_rows = [], []
    for qid, (p, slop) in enumerate(SLOP_SET):
        toks = analyze.tokenize(p)
        if not toks:
            continue
        for t in sorted(set(toks)):
            qt_rows.append(f"({qid}, '{t}')")
        joins = []
        for i in range(2, len(toks) + 1):
            joins.append(
                f"JOIN t p{i} ON p{i}.doc_id = p1.doc_id AND p{i}.w = '{toks[i-1]}' "
                f"AND p{i}.i > p{i-1}.i"
            )
        n = len(toks)
        span = (
            f"AND p{n}.i - p1.i - {n - 1} <= {slop}" if n > 1 else ""
        )
        members.append(
            f"SELECT DISTINCT {qid} AS query_id, p1.doc_id FROM t p1 "
            + " ".join(joins)
            + f" WHERE p1.w = '{toks[0]}' {span}"
        )
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
stats AS (SELECT doc_id, len(toks)::BIGINT AS doc_len FROM docs),
g AS (SELECT count(*)::BIGINT AS n_docs,
             sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM stats),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs) GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
t AS (SELECT doc_id, unnest(toks) AS w, generate_subscripts(toks, 1) AS i FROM docs),
qt(query_id, term) AS (VALUES {', '.join(qt_rows)}),
mdocs AS ({' UNION ALL '.join(members)}),
scored AS (
  SELECT qt.query_id, tf.doc_id,
         sum({contrib} ORDER BY qt.term) AS score
  FROM qt
  JOIN tf ON tf.term = qt.term
  JOIN df ON df.term = qt.term
  JOIN stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
),
ranked AS (
  SELECT m.query_id, m.doc_id, s.score,
         row_number() OVER (PARTITION BY m.query_id ORDER BY s.score DESC, m.doc_id ASC) AS rank
  FROM mdocs m JOIN scored s ON s.query_id = m.query_id AND s.doc_id = m.doc_id
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id,
       round(score, 6) AS score
FROM ranked WHERE rank <= {K} ORDER BY query_id, rank
"""


def q_highlight_snippets(sf_dir: str) -> pa.Table:
    """ES-highlighter parity: the best WIDTH-token window (max distinct
    query terms, hit-anchored, ties to the earliest anchor) for every
    top-K hit of the query set.  Candidate-proportional: the snippet
    stage runs only over the (query, top-k doc) pairs."""
    import pyarrow.parquet as _pq

    from . import highlight

    meta = get_index(sf_dir)
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    try:
        results = engine.query_many(list(QUERY_SET), k=K)
    finally:
        engine.shutdown()
    pairs = [(qid, d) for qid, res in enumerate(results) for d, _ in res]
    if not pairs:
        return pa.table(
            {"query_id": pa.array([], pa.int64()), "doc_id": pa.array([], pa.int64()),
             "anchor": pa.array([], pa.int64()), "n_terms": pa.array([], pa.int64()),
             "snippet": pa.array([], pa.string())}
        )
    wanted = sorted({d for _, d in pairs})
    tbl = _pq.read_table(
        docs_path(sf_dir), columns=["doc_id", "text"],
        filters=[("doc_id", "in", wanted)],
    )
    texts = dict(zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()))
    cand = pa.table(
        {
            "query_id": pa.array([q for q, _ in pairs], pa.int64()),
            "doc_id": pa.array([d for _, d in pairs], pa.int64()),
            "text": pa.array([texts[d] for _, d in pairs], pa.string()),
        }
    )
    qt = {qid: sorted(set(analyze.tokenize(q))) for qid, q in enumerate(QUERY_SET)}
    out = _collect(
        ray.data.from_arrow(cand).map_batches(
            highlight.snippet_stage(qt), batch_format="pyarrow"
        )
    )
    return out.sort_by([("query_id", "ascending"), ("doc_id", "ascending")])


def sql_highlight_snippets() -> str:
    """Mirror: same analyzer token stream (1-based subscripts), same
    hit-anchored window, same (count desc, anchor asc) pick, same
    inclusive list slice."""
    from .highlight import WIDTH

    tok = analyze.sql_token_array("text")
    contrib = scoring.sql_score_terms("(SELECT n_docs FROM g)", "(SELECT avgdl FROM g)")
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
stats AS (SELECT doc_id, len(toks)::BIGINT AS doc_len FROM docs),
g AS (SELECT count(*)::BIGINT AS n_docs,
             sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM stats),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs) GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
q(query_id, term) AS (VALUES {_query_terms_values()}),
scored AS (
  SELECT q.query_id, tf.doc_id,
         sum({contrib} ORDER BY q.term) AS score
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id ASC) AS rank
  FROM scored
),
topd AS (SELECT query_id, doc_id FROM ranked WHERE rank <= {K}),
t AS (SELECT doc_id, unnest(toks) AS w, generate_subscripts(toks, 1) AS i FROM docs),
hits AS (
  SELECT td.query_id, td.doc_id, t.i, t.w
  FROM topd td
  JOIN t ON t.doc_id = td.doc_id
  JOIN q ON q.query_id = td.query_id AND q.term = t.w
),
wnd AS (
  SELECT h1.query_id, h1.doc_id, h1.i AS anchor, count(DISTINCT h2.w)::BIGINT AS c
  FROM hits h1
  JOIN hits h2 ON h2.query_id = h1.query_id AND h2.doc_id = h1.doc_id
              AND h2.i >= h1.i AND h2.i < h1.i + {WIDTH}
  GROUP BY 1, 2, 3
),
best AS (
  SELECT query_id, doc_id, anchor, c,
         row_number() OVER (PARTITION BY query_id, doc_id
                            ORDER BY c DESC, anchor ASC) AS rn
  FROM wnd
)
SELECT b.query_id::BIGINT AS query_id, b.doc_id, b.anchor::BIGINT AS anchor,
       b.c AS n_terms,
       array_to_string(d.toks[b.anchor : b.anchor + {WIDTH - 1}], ' ') AS snippet
FROM best b JOIN docs d ON d.doc_id = b.doc_id
WHERE b.rn = 1 ORDER BY b.query_id, b.doc_id
"""


MLT_MAX_TERMS = 15
MLT_TARGETS = 3


def q_more_like_this(sf_dir: str) -> pa.Table:
    """ES ``more_like_this``: for the MLT_TARGETS lowest doc ids, select
    the doc's top tf*idf terms (df from the index's summary tables, no
    postings decode) and rank the corpus by BM25 with them, excluding
    the source doc."""
    import pyarrow.parquet as _pq

    meta = get_index(sf_dir)
    # production callers pass explicit target ids; the entry derives a
    # deterministic set (lowest MLT_TARGETS ids) so the SQL oracle can
    # mirror it — a single-column pruned read, driver-side only here
    ids = _pq.read_table(docs_path(sf_dir), columns=["doc_id"])["doc_id"].to_pylist()
    targets = sorted(ids)[:MLT_TARGETS]
    tbl = _pq.read_table(
        docs_path(sf_dir), columns=["doc_id", "text"],
        filters=[("doc_id", "in", targets)],
    )
    texts = dict(zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()))
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    try:
        results = [
            engine.more_like_this(
                texts[t], k=K, max_terms=MLT_MAX_TERMS, exclude=t
            )
            for t in targets
        ]
    finally:
        engine.shutdown()
    rows = {"target_id": [], "rank": [], "doc_id": [], "score": []}
    for t, res in zip(targets, results):
        for rank, (doc_id, score) in enumerate(res, start=1):
            rows["target_id"].append(t)
            rows["rank"].append(rank)
            rows["doc_id"].append(doc_id)
            rows["score"].append(score)
    return pa.table(
        {
            "target_id": pa.array(rows["target_id"], type=pa.int64()),
            "rank": pa.array(rows["rank"], type=pa.int64()),
            "doc_id": pa.array(rows["doc_id"], type=pa.int64()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6),
                type=pa.float64(),
            ),
        }
    )


def sql_more_like_this() -> str:
    """Full mirror: same tokenizer, same BM25 idf in the term-selection
    score, same (tf*idf desc, term asc) cut, same scoring sum order."""
    tok = analyze.sql_token_array("text")
    contrib = scoring.sql_score_terms("(SELECT n_docs FROM g)", "(SELECT avgdl FROM g)")
    half = "CAST(0.5 AS DOUBLE)"
    one = "CAST(1.0 AS DOUBLE)"
    sel_idf = f"ln({one} + ((SELECT n_docs FROM g) - df.df + {half}) / (df.df + {half}))"
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
stats AS (SELECT doc_id, len(toks)::BIGINT AS doc_len FROM docs),
g AS (SELECT count(*)::BIGINT AS n_docs,
             sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM stats),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs) GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
targets AS (SELECT doc_id AS target_id FROM documents
            ORDER BY doc_id LIMIT {MLT_TARGETS}),
seltf AS (
  SELECT t.target_id, tf.term,
         row_number() OVER (
           PARTITION BY t.target_id
           ORDER BY tf.tf * ({sel_idf}) DESC, tf.term ASC
         ) AS rn
  FROM targets t
  JOIN tf ON tf.doc_id = t.target_id
  JOIN df ON df.term = tf.term
),
q AS (SELECT target_id, term FROM seltf WHERE rn <= {MLT_MAX_TERMS}),
scored AS (
  SELECT q.target_id, tf.doc_id,
         sum({contrib} ORDER BY q.term) AS score
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN stats ON stats.doc_id = tf.doc_id
  WHERE tf.doc_id != q.target_id
  GROUP BY 1, 2
),
ranked AS (
  SELECT target_id, doc_id, score,
         row_number() OVER (PARTITION BY target_id
                            ORDER BY score DESC, doc_id ASC) AS rank
  FROM scored
)
SELECT target_id, rank::BIGINT AS rank, doc_id, round(score, 6) AS score
FROM ranked WHERE rank <= {K} ORDER BY target_id, rank
"""


def _query_terms_values() -> str:
    """(query_id, term) VALUES rows: tokenized like the engine."""
    rows = []
    for qid, q in enumerate(QUERY_SET):
        for t in sorted(set(analyze.tokenize(q))):
            rows.append(f"({qid}, '{t}')")
    return ", ".join(rows)


def sql_bm25(with_scores: bool) -> str:
    tok = analyze.sql_token_array("text")
    contrib = scoring.sql_score_terms("(SELECT n_docs FROM g)", "(SELECT avgdl FROM g)")
    score_col = ", round(score, 6) AS score" if with_scores else ""
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
stats AS (SELECT doc_id, len(toks)::BIGINT AS doc_len FROM docs),
g AS (SELECT count(*)::BIGINT AS n_docs,
             sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM stats),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs) GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
q(query_id, term) AS (VALUES {_query_terms_values()}),
scored AS (
  SELECT q.query_id, tf.doc_id,
         sum({contrib} ORDER BY q.term) AS score
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id ASC) AS rank
  FROM scored
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id{score_col}
FROM ranked WHERE rank <= {K} ORDER BY query_id, rank
"""


ALIAS_LANG = "en"


def q_alias_search(sf_dir: str) -> pa.Table:
    """ES filtered index alias: a `docs-en` alias carrying a lang
    filter is registered as index state (`_aliases.json`) and the
    whole query set runs THROUGH it — the filter applies as filter
    context (membership only), a zero-cost virtual view over the same
    index."""
    from . import docmeta as docmeta_mod

    meta = get_index(sf_dir)
    docmeta_mod.ensure_docmeta(
        meta.index_dir, docs_path(sf_dir), ["lang", "source", "n_chars"]
    )
    shard.put_alias(meta.index_dir, "docs-en", {"lang": ALIAS_LANG})
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    try:
        results = [engine.search_alias("docs-en", q, k=K) for q in QUERY_SET]
    finally:
        engine.shutdown()
    return _topk_table(results, with_scores=True)


def sql_alias_search() -> str:
    """Mirror: the bm25 scored CTE restricted to the alias's lang
    filter before ranking (filter context: scores untouched)."""
    base = sql_bm25(with_scores=True)
    return base.replace(
        "ranked AS (\n  SELECT query_id, doc_id, score,",
        f"""filtered AS (
  SELECT s.* FROM scored s JOIN documents d ON d.doc_id = s.doc_id
  WHERE d.lang = '{ALIAS_LANG}'
),
ranked AS (
  SELECT query_id, doc_id, score,""",
    ).replace("  FROM scored\n)", "  FROM filtered\n)")


FILTER_LANGS: tuple[str, ...] = ("en", "fr", "de", "es", "zh")


def q_bm25_filtered(sf_dir: str) -> pa.Table:
    """Filtered BM25 (X5 per-field-mapping parity): the lang column is
    stored not_analyzed in the docmeta side table and combined with the
    text match as an ES-style filter context — membership changes,
    scores do not.  Each query_id filters on a cycling language."""
    from . import docmeta as docmeta_mod

    meta = get_index(sf_dir)
    docmeta_mod.ensure_docmeta(meta.index_dir, docs_path(sf_dir), ["lang", "source", "n_chars"])
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    try:
        results = [
            engine.filtered_query(q, {"lang": FILTER_LANGS[qid % len(FILTER_LANGS)]}, k=K)
            for qid, q in enumerate(QUERY_SET)
        ]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "rank": [], "doc_id": [], "score": []}
    for qid, res in enumerate(results):
        for rank, (doc_id, score) in enumerate(res, start=1):
            rows["query_id"].append(qid)
            rows["rank"].append(rank)
            rows["doc_id"].append(doc_id)
            rows["score"].append(score)
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], type=pa.int64()),
            "rank": pa.array(rows["rank"], type=pa.int64()),
            "doc_id": pa.array(rows["doc_id"], type=pa.int64()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6), type=pa.float64()
            ),
        }
    )


def sql_bm25_filtered() -> str:
    tok = analyze.sql_token_array("text")
    contrib = scoring.sql_score_terms("(SELECT n_docs FROM g)", "(SELECT avgdl FROM g)")
    flt_rows = ", ".join(
        f"({qid}, '{FILTER_LANGS[qid % len(FILTER_LANGS)]}')"
        for qid in range(len(QUERY_SET))
    )
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
stats AS (SELECT doc_id, len(toks)::BIGINT AS doc_len FROM docs),
g AS (SELECT count(*)::BIGINT AS n_docs,
             sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM stats),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs) GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
q(query_id, term) AS (VALUES {_query_terms_values()}),
flt(query_id, lang) AS (VALUES {flt_rows}),
scored AS (
  SELECT q.query_id, tf.doc_id,
         sum({contrib} ORDER BY q.term) AS score
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
),
ranked AS (
  SELECT s.query_id, s.doc_id, s.score,
         row_number() OVER (PARTITION BY s.query_id ORDER BY s.score DESC, s.doc_id ASC) AS rank
  FROM scored s
  JOIN documents d ON d.doc_id = s.doc_id
  JOIN flt f ON f.query_id = s.query_id AND d.lang = f.lang
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id,
       round(score, 6) AS score
FROM ranked WHERE rank <= {K} ORDER BY query_id, rank
"""


PHRASE_SET: tuple[str, ...] = (
    "merge sort",
    "hash join",
    "table scan",
    "the fast query",
    "sort merge window",
    "window table",
    "zebra quantum",
    "spark",
    "data stream",
    "group order",
)


def q_phrase_search(sf_dir: str) -> pa.Table:
    """Exact phrase top-k over positional postings (ES match_phrase
    parity), served by the shard-server pool."""
    meta = get_index(sf_dir)
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    try:
        results = [engine.phrase_query(q, k=K) for q in PHRASE_SET]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "rank": [], "doc_id": [], "score": []}
    for qid, res in enumerate(results):
        for rank, (doc_id, score) in enumerate(res, start=1):
            rows["query_id"].append(qid)
            rows["rank"].append(rank)
            rows["doc_id"].append(doc_id)
            rows["score"].append(score)
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], type=pa.int64()),
            "rank": pa.array(rows["rank"], type=pa.int64()),
            "doc_id": pa.array(rows["doc_id"], type=pa.int64()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6), type=pa.float64()
            ),
        }
    )


def sql_phrase_search() -> str:
    tok = analyze.sql_token_array("text")
    contrib = scoring.sql_score_terms("(SELECT n_docs FROM g)", "(SELECT avgdl FROM g)")
    ph_rows, qt_rows = [], []
    for qid, p in enumerate(PHRASE_SET):
        toks = analyze.tokenize(p)
        if not toks:
            continue
        ph_rows.append(f"({qid}, '{' '.join(toks)}')")
        for t in sorted(set(toks)):
            qt_rows.append(f"({qid}, '{t}')")
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
stats AS (SELECT doc_id, len(toks)::BIGINT AS doc_len FROM docs),
g AS (SELECT count(*)::BIGINT AS n_docs,
             sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM stats),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs) GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
ph(query_id, phrase) AS (VALUES {', '.join(ph_rows)}),
qt(query_id, term) AS (VALUES {', '.join(qt_rows)}),
joined AS (SELECT doc_id, ' ' || array_to_string(toks, ' ') || ' ' AS s FROM docs),
mdocs AS (
  SELECT ph.query_id, j.doc_id
  FROM ph JOIN joined j ON j.s LIKE '% ' || ph.phrase || ' %'
),
scored AS (
  SELECT qt.query_id, tf.doc_id,
         sum({contrib} ORDER BY qt.term) AS score
  FROM qt
  JOIN tf ON tf.term = qt.term
  JOIN df ON df.term = qt.term
  JOIN stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
),
ranked AS (
  SELECT m.query_id, m.doc_id, s.score,
         row_number() OVER (PARTITION BY m.query_id ORDER BY s.score DESC, m.doc_id ASC) AS rank
  FROM mdocs m JOIN scored s ON s.query_id = m.query_id AND s.doc_id = m.doc_id
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id,
       round(score, 6) AS score
FROM ranked WHERE rank <= {K} ORDER BY query_id, rank
"""


TV_N_DOCS = 5  # term-vector request size for the packaged entry


def q_term_vectors(sf_dir: str) -> pa.Table:
    """ES _termvectors from the positional index: per requested doc,
    every (term, tf, doc_len, position) — bucket-pruned + candidate-
    block decode (cb.termvectors), no corpus re-analysis.  Requests the
    TV_N_DOCS smallest doc ids (deterministic, SQL-mirrorable)."""
    meta = get_index(sf_dir)
    ids = pq.read_table(docs_path(sf_dir), columns=["doc_id"])["doc_id"].to_numpy(
        zero_copy_only=False
    )
    sel = np.sort(ids)[:TV_N_DOCS].tolist()
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    try:
        rows = engine.term_vectors(sel)
    finally:
        engine.shutdown()
    out = {"doc_id": [], "term": [], "tf": [], "doc_len": [], "pos": []}
    for doc, term, tf, dl, pos in rows:
        for p in pos:
            out["doc_id"].append(doc)
            out["term"].append(term)
            out["tf"].append(tf)
            out["doc_len"].append(dl)
            out["pos"].append(p)
    return pa.table(
        {
            "doc_id": pa.array(out["doc_id"], pa.int64()),
            "term": pa.array(out["term"], pa.string()),
            "tf": pa.array(out["tf"], pa.int64()),
            "doc_len": pa.array(out["doc_len"], pa.int64()),
            "pos": pa.array(out["pos"], pa.int64()),
        }
    )


def sql_term_vectors() -> str:
    tok = analyze.sql_token_array("text")
    return f"""
WITH sel AS (SELECT doc_id FROM documents ORDER BY doc_id LIMIT {TV_N_DOCS}),
docs AS (SELECT doc_id, {tok} AS toks FROM documents JOIN sel USING (doc_id)),
exploded AS (
  SELECT doc_id, t AS term, (i - 1)::BIGINT AS pos, doc_len
  FROM (SELECT doc_id, unnest(toks) AS t, generate_subscripts(toks, 1) AS i,
               len(toks)::BIGINT AS doc_len
        FROM docs)
),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM exploded GROUP BY 1, 2)
SELECT e.doc_id, e.term, tf.tf, e.doc_len, e.pos
FROM exploded e JOIN tf ON tf.doc_id = e.doc_id AND tf.term = e.term
ORDER BY e.doc_id, e.term, e.pos
"""


# Registered percolator queries (cb.percolate): full querylang boolean
# layer — OR terms, phrases, +required, -exclusions, equality filters.
PERCOLATE_SET: tuple[str, ...] = (
    "hash join",
    '"merge sort"',
    "table -scan",
    "stream lang:en",
    '"group order" -window',
    "+join column",
    "zebra lang:fr",
    '-"table scan" merge',
)


def q_percolate(sf_dir: str) -> pa.Table:
    """ES percolator: the registered query set is parsed once and every
    document streams through ONE vectorized map_batches pass reporting
    which stored queries it matches — reverse search, index-free."""
    from . import percolate as perc
    from .collect import collect_table

    ds = ray.data.read_parquet(docs_path(sf_dir))
    pairs = collect_table(perc.percolate(ds, list(PERCOLATE_SET)))
    order = np.lexsort(
        (
            pairs["doc_id"].to_numpy(zero_copy_only=False),
            pairs["query_id"].to_numpy(zero_copy_only=False),
        )
    )
    return pairs.take(pa.array(order))


def sql_percolate() -> str:
    from . import querylang

    tok = analyze.sql_token_array("text")
    selects = []
    for qid, q in enumerate(PERCOLATE_SET):
        p = querylang.parse(q)
        weights = p.get("weights") or {}
        preds = []
        uni = [f"s LIKE '% {t} %'" for t in sorted(weights)]
        preds.append("(" + " OR ".join(uni) + ")")
        for t in p.get("required", []):
            preds.append(f"s LIKE '% {t} %'")
        for ph in p["phrases"]:
            preds.append(f"s LIKE '% {' '.join(ph)} %'")
        for ph in p.get("excluded_phrases", []):
            preds.append(f"NOT s LIKE '% {' '.join(ph)} %'")
        for t in p["excluded"]:
            preds.append(f"NOT s LIKE '% {t} %'")
        for col, val in p["filters"].items():
            preds.append(f"{col} = '{val}'")
        selects.append(
            f"SELECT {qid} AS query_id, doc_id FROM joined WHERE "
            + " AND ".join(preds)
        )
    body = "\nUNION ALL\n".join(selects)
    return f"""
WITH docs AS (SELECT doc_id, lang, {tok} AS toks FROM documents),
joined AS (SELECT doc_id, lang,
                  ' ' || array_to_string(toks, ' ') || ' ' AS s FROM docs),
hits AS (
{body}
)
SELECT query_id::BIGINT AS query_id, doc_id
FROM hits ORDER BY query_id, doc_id
"""


# match_phrase_prefix queries: trailing token is a term PREFIX.  Every
# entry keeps >= 1 fixed token so the BM25-of-fixed-terms score is
# non-degenerate (bare-prefix behavior is unit-tested instead).
PHRASE_PREFIX_SET: tuple[str, ...] = (
    "merge s",
    "hash j",
    "group ord",
    "window t",
    "zebra qu",
    "data st",
    "spark ze",
    "table s",
)


def q_phrase_prefix_search(sf_dir: str) -> pa.Table:
    """ES match_phrase_prefix over positional postings: the trailing
    prefix expands against the index vocabulary (every completion —
    max_expansions=None — so the LIKE mirror is exact) and a doc
    matches when the fixed tokens are immediately followed by any
    completion; scored by BM25 of the fixed terms (prefix = matching
    constraint, not a scored term)."""
    meta = get_index(sf_dir)
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    try:
        results = [
            engine.phrase_prefix_query(q, k=K, max_expansions=None)
            for q in PHRASE_PREFIX_SET
        ]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "rank": [], "doc_id": [], "score": []}
    for qid, res in enumerate(results):
        for rank, (doc_id, score) in enumerate(res, start=1):
            rows["query_id"].append(qid)
            rows["rank"].append(rank)
            rows["doc_id"].append(doc_id)
            rows["score"].append(score)
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], type=pa.int64()),
            "rank": pa.array(rows["rank"], type=pa.int64()),
            "doc_id": pa.array(rows["doc_id"], type=pa.int64()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6), type=pa.float64()
            ),
        }
    )


def sql_phrase_prefix_search() -> str:
    """LIKE mirror: '% f1 .. fn-1 pre%' on the space-joined token
    string — the wildcard immediately after the prefix accepts any
    completion of that token, exactly the unlimited-expansion engine
    configuration."""
    tok = analyze.sql_token_array("text")
    contrib = scoring.sql_score_terms("(SELECT n_docs FROM g)", "(SELECT avgdl FROM g)")
    ph_rows, qt_rows = [], []
    for qid, p in enumerate(PHRASE_PREFIX_SET):
        toks = analyze.tokenize(p)
        assert len(toks) >= 2, p
        ph_rows.append(f"({qid}, '{' '.join(toks)}')")
        for t in sorted(set(toks[:-1])):
            qt_rows.append(f"({qid}, '{t}')")
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
stats AS (SELECT doc_id, len(toks)::BIGINT AS doc_len FROM docs),
g AS (SELECT count(*)::BIGINT AS n_docs,
             sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM stats),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs) GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
ph(query_id, phrase) AS (VALUES {', '.join(ph_rows)}),
qt(query_id, term) AS (VALUES {', '.join(qt_rows)}),
joined AS (SELECT doc_id, ' ' || array_to_string(toks, ' ') || ' ' AS s FROM docs),
mdocs AS (
  SELECT ph.query_id, j.doc_id
  FROM ph JOIN joined j ON j.s LIKE '% ' || ph.phrase || '%'
),
scored AS (
  SELECT qt.query_id, tf.doc_id,
         sum({contrib} ORDER BY qt.term) AS score
  FROM qt
  JOIN tf ON tf.term = qt.term
  JOIN df ON df.term = qt.term
  JOIN stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
),
ranked AS (
  SELECT m.query_id, m.doc_id, s.score,
         row_number() OVER (PARTITION BY m.query_id ORDER BY s.score DESC, m.doc_id ASC) AS rank
  FROM mdocs m JOIN scored s ON s.query_id = m.query_id AND s.doc_id = m.doc_id
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id,
       round(score, 6) AS score
FROM ranked WHERE rank <= {K} ORDER BY query_id, rank
"""


SEARCH_SET: tuple[str, ...] = (
    "merge sort window",
    '"merge sort"',
    '"hash join" lang:en',
    "window -table",
    "column lang:fr -join",
    '"table scan" -merge lang:es',
    "spark zebra",
    "group order lang:zh",
    '"data stream" -batch',
    "customer value lang:en -row",
    'window sort -"merge sort"',
    # v2 syntax: boosts, required terms, wildcards, fuzzy, ranges
    "merge^2 sort",
    "+merge sort window",
    "mer* window",
    "h?sh join",
    "merg~1 table",
    "windw~ scan",
    "merge n_chars:[200 TO 900]",
    "sort n_chars:>=500 lang:en",
    '"hash join"^3 scan',
    "merge mer*^2",
    '+sort -"merge sort" n_chars:{100 TO 1000}',
    # minimum_should_match: >= 2 of the 3 scored terms must be present
    "merge sort window msm:2",
    "group order stream msm:3",
)


def q_msearch(sf_dir: str) -> pa.Table:
    """ES ``_msearch``: the full querystring set dispatched as ONE
    batched fan-out (every query's per-server refs in flight before any
    result is awaited, one driver drain) — bitwise identical rows to
    the sequential search loop, so it shares search_querystring's
    oracle."""
    from . import docmeta as docmeta_mod

    meta = get_index(sf_dir)
    docmeta_mod.ensure_docmeta(
        meta.index_dir, docs_path(sf_dir), ["lang", "source", "n_chars"]
    )
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    try:
        results = engine.msearch(list(SEARCH_SET), k=K)
    finally:
        engine.shutdown()
    return _topk_table(results, with_scores=True)


def q_search_querystring(sf_dir: str) -> pa.Table:
    """Lucene-lite query strings end-to-end (terms + phrases + field
    filters + exclusions) served by the doc-sharded pool."""
    from . import docmeta as docmeta_mod

    meta = get_index(sf_dir)
    docmeta_mod.ensure_docmeta(meta.index_dir, docs_path(sf_dir), ["lang", "source", "n_chars"])
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    try:
        results = [engine.search(q, k=K) for q in SEARCH_SET]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "rank": [], "doc_id": [], "score": []}
    for qid, res in enumerate(results):
        for rank, (doc_id, score) in enumerate(res, start=1):
            rows["query_id"].append(qid)
            rows["rank"].append(rank)
            rows["doc_id"].append(doc_id)
            rows["score"].append(score)
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], type=pa.int64()),
            "rank": pa.array(rows["rank"], type=pa.int64()),
            "doc_id": pa.array(rows["doc_id"], type=pa.int64()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6), type=pa.float64()
            ),
        }
    )


def _sql_range_pred(col: str, r) -> str:
    """DuckDB predicate for a querylang.Range: bounds that parse as
    numbers become numeric literals (int/double promotion matches the
    engine's float64 compare on numeric docmeta columns); anything else
    compares as a quoted string."""

    def lit(v: str) -> str:
        try:
            float(v)
            return v
        except ValueError:
            return f"'{v}'"

    parts = []
    if r.lo is not None:
        parts.append(f"d.{col} {'>=' if r.lo_incl else '>'} {lit(r.lo)}")
    if r.hi is not None:
        parts.append(f"d.{col} {'<=' if r.hi_incl else '<'} {lit(r.hi)}")
    return " AND ".join(parts) if parts else f"d.{col} IS NOT NULL"


def _querystring_sql_parts(queries) -> tuple[list[str], list[str]]:
    """Shared oracle scaffolding for query-string entries: per-query
    qatom VALUES rows (exact atoms with the engine's parse-time summed
    weight FIRST, then wildcard/fuzzy atoms in query order, so the
    ordered SQL sum reproduces expand()'s float accumulation exactly)
    and per-query membership SELECTs (phrases, +required, exclusions,
    equality + range filters)."""
    from . import querylang

    atom_rows = []
    member_selects = []
    for qid, q in enumerate(queries):
        p = querylang.parse(q)
        aid = 0
        for t in sorted(p["weights"]):
            atom_rows.append(
                f"({qid}, {aid}, 'e', '{t}', 0, CAST({p['weights'][t]!r} AS DOUBLE))"
            )
            aid += 1
        for atom in p["expands"]:
            if atom["kind"] == "wildcard":
                rx = querylang.wildcard_regex(atom["pattern"])
                atom_rows.append(
                    f"({qid}, {aid}, 'w', '{rx}', 0, CAST({atom['boost']!r} AS DOUBLE))"
                )
            else:
                atom_rows.append(
                    f"({qid}, {aid}, 'f', '{atom['term']}', {atom['dist']}, "
                    f"CAST({atom['boost']!r} AS DOUBLE))"
                )
            aid += 1
        preds = []
        for ph in p["phrases"]:
            preds.append("j.s LIKE '% " + " ".join(ph) + " %'")
        for t in p["required"]:
            preds.append(f"j.s LIKE '% {t} %'")
        for ph in p["excluded_phrases"]:
            preds.append("j.s NOT LIKE '% " + " ".join(ph) + " %'")
        for t in p["excluded"]:
            preds.append(f"j.s NOT LIKE '% {t} %'")
        for col, val in p["filters"].items():
            if isinstance(val, querylang.Range):
                preds.append(_sql_range_pred(col, val))
            else:
                preds.append(f"d.{col} = '{val}'")
        if p.get("minimum_should_match", 0) > 1:
            # >= msm DISTINCT scored (expanded) terms per doc; __QT__ is
            # the caller's expanded-term CTE name (q / qt)
            preds.append(
                f"d.doc_id IN (SELECT tf.doc_id FROM tf "
                f"JOIN __QT__ qx ON qx.term = tf.term AND qx.query_id = {qid} "
                f"GROUP BY tf.doc_id "
                f"HAVING count(DISTINCT tf.term) >= {p['minimum_should_match']})"
            )
        where = (" AND " + " AND ".join(preds)) if preds else ""
        member_selects.append(
            f"SELECT {qid} AS query_id, d.doc_id FROM documents d "
            f"JOIN joined j ON j.doc_id = d.doc_id WHERE TRUE{where}"
        )
    return atom_rows, member_selects


def sql_search_querystring() -> str:
    """Oracle generated per query from the SAME parser the engine uses —
    but expansion is INDEPENDENT: wildcard/fuzzy atoms ship as patterns
    and DuckDB matches them against the corpus term table natively
    (regexp_full_match / damerau_levenshtein), so the oracle verifies
    the engine's vocabulary rewrite rather than echoing it.  Scored
    terms -> boost-weighted BM25 sum (weight = ordered sum of matching
    atom boosts); phrases / +required -> token-joined LIKE; filters ->
    metadata equality and ranges; exclusions -> NOT LIKE."""
    from . import querylang

    tok = analyze.sql_token_array("text")
    contrib = scoring.sql_score_terms_weighted(
        "(SELECT n_docs FROM g)", "(SELECT avgdl FROM g)", "q.w"
    )
    atom_rows, member_selects = _querystring_sql_parts(SEARCH_SET)
    members = " UNION ALL ".join(member_selects).replace("__QT__", "q")
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
stats AS (SELECT doc_id, len(toks)::BIGINT AS doc_len FROM docs),
g AS (SELECT count(*)::BIGINT AS n_docs,
             sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM stats),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs) GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
joined AS (SELECT doc_id, ' ' || array_to_string(toks, ' ') || ' ' AS s FROM docs),
qatom(query_id, atom_id, kind, pat, dist, w) AS (VALUES {", ".join(atom_rows)}),
q AS (
  SELECT a.query_id, df.term, sum(a.w ORDER BY a.atom_id) AS w
  FROM qatom a JOIN df ON (
       (a.kind = 'e' AND df.term = a.pat)
    OR (a.kind = 'w' AND regexp_full_match(df.term, a.pat))
    OR (a.kind = 'f' AND abs(length(df.term) - length(a.pat)) <= a.dist
        AND damerau_levenshtein(df.term, a.pat) <= a.dist)
  )
  GROUP BY 1, 2
),
scored AS (
  SELECT q.query_id, tf.doc_id,
         sum({contrib} ORDER BY q.term) AS score
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
),
m AS ({members}),
ranked AS (
  SELECT s.query_id, s.doc_id, s.score,
         row_number() OVER (PARTITION BY s.query_id ORDER BY s.score DESC, s.doc_id ASC) AS rank
  FROM scored s JOIN m ON m.query_id = s.query_id AND m.doc_id = s.doc_id
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id,
       round(score, 6) AS score
FROM ranked WHERE rank <= {K} ORDER BY query_id, rank
"""


BOOST_SET: tuple[tuple[str, str], ...] = (
    ("merge sort window", "hash"),
    ("hash join table", "scan column"),
    ("data stream group", "window"),
    ("column row table", "merge sort"),
    ("the fast query", "join"),
)
NEGATIVE_BOOST = 0.5  # exact binary fraction: the demotion is bitwise


def q_boosting_query(sf_dir: str) -> pa.Table:
    """ES ``boosting`` query: rank by the positive query's BM25 with
    docs that ALSO match the negative query demoted by
    ``negative_boost`` — membership-only demotion (the negative clause
    is never scored), applied per doc on the FULL match set before the
    top-k cut, so the doc-sharded merge stays the exact global
    ranking."""
    from . import docmeta as docmeta_mod

    meta = get_index(sf_dir)
    docmeta_mod.ensure_docmeta(
        meta.index_dir, docs_path(sf_dir), ["lang", "source", "n_chars"]
    )
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    try:
        results = [
            engine.boosting(pos, neg, NEGATIVE_BOOST, k=K)
            for pos, neg in BOOST_SET
        ]
    finally:
        engine.shutdown()
    return _topk_table(results, with_scores=True)


def sql_boosting_query() -> str:
    """Positive-query BM25 (the querystring scoring CTEs) times
    CASE WHEN the doc matches any negative term THEN nb ELSE 1 —
    negative membership via the padded-token LIKE contract."""
    tok = analyze.sql_token_array("text")
    contrib = scoring.sql_score_terms_weighted(
        "(SELECT n_docs FROM g)", "(SELECT avgdl FROM g)", "q.w"
    )
    atom_rows, member_selects = _querystring_sql_parts(
        [pos for pos, _ in BOOST_SET]
    )
    members = " UNION ALL ".join(member_selects).replace("__QT__", "q")
    neg_selects = []
    for qid, (_, neg) in enumerate(BOOST_SET):
        ors = " OR ".join(
            f"j.s LIKE '% {t} %'" for t in analyze.tokenize(neg)
        )
        neg_selects.append(
            f"SELECT {qid} AS query_id, j.doc_id FROM joined j WHERE {ors}"
        )
    negs = " UNION ALL ".join(neg_selects)
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
stats AS (SELECT doc_id, len(toks)::BIGINT AS doc_len FROM docs),
g AS (SELECT count(*)::BIGINT AS n_docs,
             sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM stats),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs) GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
joined AS (SELECT doc_id, ' ' || array_to_string(toks, ' ') || ' ' AS s FROM docs),
qatom(query_id, atom_id, kind, pat, dist, w) AS (VALUES {", ".join(atom_rows)}),
q AS (
  SELECT a.query_id, df.term, sum(a.w ORDER BY a.atom_id) AS w
  FROM qatom a JOIN df ON (
       (a.kind = 'e' AND df.term = a.pat)
    OR (a.kind = 'w' AND regexp_full_match(df.term, a.pat))
    OR (a.kind = 'f' AND abs(length(df.term) - length(a.pat)) <= a.dist
        AND damerau_levenshtein(df.term, a.pat) <= a.dist)
  )
  GROUP BY 1, 2
),
scored AS (
  SELECT q.query_id, tf.doc_id,
         sum({contrib} ORDER BY q.term) AS score
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
),
m AS ({members}),
neg AS ({negs}),
total AS (
  SELECT s.query_id, s.doc_id,
         s.score * (CASE WHEN ng.doc_id IS NOT NULL
                         THEN CAST({NEGATIVE_BOOST!r} AS DOUBLE)
                         ELSE CAST(1 AS DOUBLE) END) AS score
  FROM scored s
  JOIN m ON m.query_id = s.query_id AND m.doc_id = s.doc_id
  LEFT JOIN neg ng ON ng.query_id = s.query_id AND ng.doc_id = s.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id ASC) AS rank
  FROM total
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id,
       round(score, 6) AS score
FROM ranked WHERE rank <= {K} ORDER BY query_id, rank
"""


FACET_SET: tuple[str, ...] = (
    "merge sort",
    '"hash join"',
    "mer* -table",
    "+sort n_chars:>=300",
    "window lang:en",
)
_FACET_COLS = ["lang", "source"]


def _facet_sql_prefix(queries) -> str:
    """Shared facet-oracle CTEs: membership = the query-string member
    predicates AND >=1 scored-term occurrence (qdoc) — the same match
    set querylang.match computes, without the scoring CTEs."""
    tok = analyze.sql_token_array("text")
    atom_rows, member_selects = _querystring_sql_parts(queries)
    members = " UNION ALL ".join(member_selects).replace("__QT__", "qt")
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs) GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
joined AS (SELECT doc_id, ' ' || array_to_string(toks, ' ') || ' ' AS s FROM docs),
qatom(query_id, atom_id, kind, pat, dist, w) AS (VALUES {", ".join(atom_rows)}),
qt AS (
  SELECT DISTINCT a.query_id, df.term
  FROM qatom a JOIN df ON (
       (a.kind = 'e' AND df.term = a.pat)
    OR (a.kind = 'w' AND regexp_full_match(df.term, a.pat))
    OR (a.kind = 'f' AND abs(length(df.term) - length(a.pat)) <= a.dist
        AND damerau_levenshtein(df.term, a.pat) <= a.dist)
  )
),
qdoc AS (SELECT DISTINCT qt.query_id, tf.doc_id FROM qt JOIN tf ON tf.term = qt.term),
m AS ({members}),
mm AS (SELECT m.query_id, m.doc_id FROM m
       JOIN qdoc ON qdoc.query_id = m.query_id AND qdoc.doc_id = m.doc_id)
"""


def _facet_engine(sf_dir: str):
    from . import docmeta as docmeta_mod

    meta = get_index(sf_dir)
    docmeta_mod.ensure_docmeta(
        meta.index_dir, docs_path(sf_dir), ["lang", "source", "n_chars"]
    )
    return shard.QueryEngine(meta.index_dir, num_servers=2)


def q_search_facets(sf_dir: str) -> pa.Table:
    """ES terms aggregations over each query's FULL match set (not
    top-k): per (query, facet column, value) doc counts, served by the
    doc-sharded pool (each server counts its disjoint slice; driver
    merge is exact addition).  Queries with zero matches emit no rows
    (mirrors SQL GROUP BY)."""
    engine = _facet_engine(sf_dir)
    try:
        per_q = [engine.facets(q, facet_cols=_FACET_COLS) for q in FACET_SET]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "facet": [], "value": [], "cnt": []}
    for qid, (facets, _) in enumerate(per_q):
        for col in _FACET_COLS:
            for v in sorted(facets.get(col, {})):
                rows["query_id"].append(qid)
                rows["facet"].append(col)
                rows["value"].append(str(v))
                rows["cnt"].append(facets[col][v])
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "facet": pa.array(rows["facet"], pa.string()),
            "value": pa.array(rows["value"], pa.string()),
            "cnt": pa.array(rows["cnt"], pa.int64()),
        }
    )


def sql_search_facets() -> str:
    prefix = _facet_sql_prefix(FACET_SET)
    facet_selects = " UNION ALL ".join(
        f"SELECT mm.query_id::BIGINT AS query_id, '{c}' AS facet, "
        f"d.{c}::VARCHAR AS value, count(*)::BIGINT AS cnt "
        f"FROM mm JOIN documents d ON d.doc_id = mm.doc_id GROUP BY 1, 3"
        for c in _FACET_COLS
    )
    return f"{prefix}{facet_selects} ORDER BY query_id, facet, value"


SIG_TOP_N = 10
SIG_MIN_DF = 2


def q_significant_terms(sf_dir: str) -> pa.Table:
    """ES significant_terms over each query's full match set: terms
    overrepresented vs the corpus, JLH-scored, top-N per query."""
    engine = _facet_engine(sf_dir)
    engine.warm(min_df=SIG_MIN_DF)  # vocab walk uses warmed decodes
    rows = {"query_id": [], "rank": [], "term": [], "fg": [], "df": [], "score": []}
    try:
        for qid, q in enumerate(FACET_SET):
            for rank, (t, fg, df_, s) in enumerate(
                engine.significant_terms(q, top_n=SIG_TOP_N, min_df=SIG_MIN_DF),
                start=1,
            ):
                rows["query_id"].append(qid)
                rows["rank"].append(rank)
                rows["term"].append(t)
                rows["fg"].append(fg)
                rows["df"].append(df_)
                rows["score"].append(s)
    finally:
        engine.shutdown()
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "term": pa.array(rows["term"], pa.string()),
            "fg": pa.array(rows["fg"], pa.int64()),
            "df": pa.array(rows["df"], pa.int64()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6),
                type=pa.float64(),
            ),
        }
    )


def sql_significant_terms() -> str:
    """Mirror: same match set (facet prefix), same JLH expression tree,
    same (score desc, term asc) cut, df >= min_df."""
    prefix = _facet_sql_prefix(FACET_SET)
    n = "(SELECT count(*) FROM docs)"
    jlh = (
        "((f.fg::DOUBLE / t.m::DOUBLE) - (df.df::DOUBLE / {n}::DOUBLE)) * "
        "((f.fg::DOUBLE / t.m::DOUBLE) / (df.df::DOUBLE / {n}::DOUBLE))"
    ).format(n=n)
    return f"""{prefix},
fg AS (SELECT mm.query_id, tf.term, count(*)::BIGINT AS fg
       FROM mm JOIN tf ON tf.doc_id = mm.doc_id GROUP BY 1, 2),
tot AS (SELECT query_id, count(*)::BIGINT AS m FROM mm GROUP BY 1),
scoredt AS (
  SELECT f.query_id, f.term, f.fg, df.df, {jlh} AS s
  FROM fg f
  JOIN df ON df.term = f.term
  JOIN tot t ON t.query_id = f.query_id
  WHERE df.df >= {SIG_MIN_DF}
),
rankedt AS (
  SELECT query_id, term, fg, df, s,
         row_number() OVER (PARTITION BY query_id ORDER BY s DESC, term ASC) AS rank
  FROM scoredt
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, term, fg, df,
       round(s, 6) AS score
FROM rankedt WHERE rank <= {SIG_TOP_N} ORDER BY query_id, rank
"""


SIGBG_SPECS: tuple[tuple[str, str], ...] = (
    ("join", "en"), ("merge sort", "fr"), ("customer table", "de"),
)


def q_significant_bg(sf_dir: str) -> pa.Table:
    """ES significant_terms with background_filter: the background is
    the lang segment, not the corpus — fg = match(query ∧ lang), bg =
    match(lang), JLH over (fg/m, bg/nb), corpus-df min_df gate on both
    passes."""
    engine = _facet_engine(sf_dir)
    engine.warm(min_df=SIG_MIN_DF)
    rows = {"query_id": [], "rank": [], "term": [], "fg": [], "bg": [], "score": []}
    try:
        for qid, (q, lang) in enumerate(SIGBG_SPECS):
            res = engine.significant_terms_filtered(
                q, f"lang:{lang}", top_n=SIG_TOP_N, min_df=SIG_MIN_DF
            )
            for rank, (t, c, bgc, s) in enumerate(res, start=1):
                rows["query_id"].append(qid)
                rows["rank"].append(rank)
                rows["term"].append(t)
                rows["fg"].append(c)
                rows["bg"].append(bgc)
                rows["score"].append(s)
    finally:
        engine.shutdown()
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "term": pa.array(rows["term"], pa.string()),
            "fg": pa.array(rows["fg"], pa.int64()),
            "bg": pa.array(rows["bg"], pa.int64()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6),
                type=pa.float64(),
            ),
        }
    )


def sql_significant_bg() -> str:
    tok = analyze.sql_token_array("text")
    svals = ", ".join(f"({i}, '{lang}')" for i, (_, lang) in enumerate(SIGBG_SPECS))
    qvals = ", ".join(
        f"({i}, '{t}')"
        for i, (q, _) in enumerate(SIGBG_SPECS)
        for t in sorted(set(analyze.tokenize(q)))
    )
    jlh = (
        "((f.fg::DOUBLE / m.m::DOUBLE) - (g.bg::DOUBLE / nb.nb::DOUBLE)) * "
        "((f.fg::DOUBLE / m.m::DOUBLE) / (g.bg::DOUBLE / nb.nb::DOUBLE))"
    )
    return f"""
WITH docs AS (SELECT doc_id, lang, {tok} AS toks FROM documents),
tfd AS (SELECT DISTINCT doc_id, unnest(toks) AS term FROM docs),
dfc AS (SELECT term, count(*)::BIGINT AS df FROM tfd GROUP BY 1),
specs(query_id, lang) AS (VALUES {svals}),
qterms(query_id, term) AS (VALUES {qvals}),
fgm AS (
  SELECT DISTINCT q.query_id, t.doc_id
  FROM qterms q
  JOIN tfd t ON t.term = q.term
  JOIN docs d ON d.doc_id = t.doc_id
  JOIN specs s ON s.query_id = q.query_id AND s.lang = d.lang
),
bgm AS (
  SELECT s.query_id, d.doc_id FROM specs s JOIN docs d ON d.lang = s.lang
),
fgc AS (SELECT f.query_id, t.term, count(*)::BIGINT AS fg
        FROM fgm f JOIN tfd t ON t.doc_id = f.doc_id GROUP BY 1, 2),
bgc AS (SELECT b.query_id, t.term, count(*)::BIGINT AS bg
        FROM bgm b JOIN tfd t ON t.doc_id = b.doc_id GROUP BY 1, 2),
mt AS (SELECT query_id, count(*)::BIGINT AS m FROM fgm GROUP BY 1),
nbt AS (SELECT query_id, count(*)::BIGINT AS nb FROM bgm GROUP BY 1),
scoredt AS (
  SELECT f.query_id, f.term, f.fg, g.bg, {jlh} AS s
  FROM fgc f
  JOIN bgc g ON g.query_id = f.query_id AND g.term = f.term
  JOIN dfc ON dfc.term = f.term
  JOIN mt m ON m.query_id = f.query_id
  JOIN nbt nb ON nb.query_id = f.query_id
  WHERE dfc.df >= {SIG_MIN_DF}
),
rankedt AS (
  SELECT query_id, term, fg, bg, s,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY s DESC, term ASC) AS rank
  FROM scoredt
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, term, fg, bg,
       round(s, 6) AS score
FROM rankedt WHERE rank <= {SIG_TOP_N} ORDER BY query_id, rank
"""


HIST_INTERVAL = 200  # n_chars bucket width


def q_search_histogram(sf_dir: str) -> pa.Table:
    """ES histogram aggregation (the fixed-interval core of Kibana's
    date_histogram) over each query's FULL match set: doc counts per
    ``floor(n_chars / 200) * 200`` bucket, additively merged across the
    doc-sharded pool."""
    engine = _facet_engine(sf_dir)
    try:
        per_q = [
            engine.histogram(q, {"n_chars": HIST_INTERVAL}) for q in FACET_SET
        ]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "bucket": [], "cnt": []}
    for qid, h in enumerate(per_q):
        for b in sorted(h.get("n_chars", {})):
            rows["query_id"].append(qid)
            rows["bucket"].append(b)
            rows["cnt"].append(h["n_chars"][b])
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "bucket": pa.array(rows["bucket"], pa.int64()),
            "cnt": pa.array(rows["cnt"], pa.int64()),
        }
    )


def sql_search_histogram() -> str:
    prefix = _facet_sql_prefix(FACET_SET)
    return f"""{prefix}
SELECT mm.query_id::BIGINT AS query_id,
       (floor(d.n_chars / {HIST_INTERVAL}) * {HIST_INTERVAL})::BIGINT AS bucket,
       count(*)::BIGINT AS cnt
FROM mm JOIN documents d ON d.doc_id = mm.doc_id
GROUP BY 1, 2 ORDER BY query_id, bucket
"""


HZF_BOUNDS = (0, 2400)  # extended_bounds for the zero-filled histogram


def q_histogram_zerofill(sf_dir: str) -> pa.Table:
    """ES histogram with min_doc_count=0 + extended_bounds: the bucket
    axis is the union of data buckets and the aligned bounds range,
    gaps zero-filled — per query over the FULL match set."""
    engine = _facet_engine(sf_dir)
    rows = {"query_id": [], "bucket": [], "cnt": []}
    try:
        for qid, q in enumerate(FACET_SET):
            for b, c in engine.histogram_zerofill(
                q, "n_chars", HIST_INTERVAL, HZF_BOUNDS
            ):
                rows["query_id"].append(qid)
                rows["bucket"].append(b)
                rows["cnt"].append(c)
    finally:
        engine.shutdown()
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "bucket": pa.array(rows["bucket"], pa.int64()),
            "cnt": pa.array(rows["cnt"], pa.int64()),
        }
    )


def sql_histogram_zerofill() -> str:
    prefix = _facet_sql_prefix(FACET_SET)
    lo = (HZF_BOUNDS[0] // HIST_INTERVAL) * HIST_INTERVAL
    hi = (HZF_BOUNDS[1] // HIST_INTERVAL) * HIST_INTERVAL
    return f"""{prefix},
hdata AS (
  SELECT mm.query_id,
         (floor(d.n_chars / {HIST_INTERVAL}) * {HIST_INTERVAL})::BIGINT AS bucket,
         count(*)::BIGINT AS cnt
  FROM mm JOIN documents d ON d.doc_id = mm.doc_id
  GROUP BY 1, 2
),
qids AS (SELECT unnest([{", ".join(str(i) for i in range(len(FACET_SET)))}]) AS query_id),
axis AS (
  SELECT q.query_id, b.bucket
  FROM qids q, (SELECT unnest(generate_series({lo}, {hi}, {HIST_INTERVAL}))::BIGINT AS bucket) b
  UNION
  SELECT query_id, bucket FROM hdata
)
SELECT a.query_id::BIGINT AS query_id, a.bucket AS bucket,
       coalesce(h.cnt, 0)::BIGINT AS cnt
FROM axis a LEFT JOIN hdata h ON h.query_id = a.query_id AND h.bucket = a.bucket
ORDER BY query_id, bucket
"""


def q_search_facet_stats(sf_dir: str) -> pa.Table:
    """ES stats aggregation (count/sum/min/max of a numeric docmeta
    column) over each query's full match set; zero-match queries emit
    no rows."""
    engine = _facet_engine(sf_dir)
    try:
        per_q = [engine.facets(q, stats_cols=["n_chars"]) for q in FACET_SET]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "n": [], "sum_n": [], "min_n": [], "max_n": []}
    for qid, (_, stats) in enumerate(per_q):
        n, sm, mn, mx = stats["n_chars"]
        if n == 0:
            continue
        rows["query_id"].append(qid)
        rows["n"].append(n)
        rows["sum_n"].append(sm)
        rows["min_n"].append(mn)
        rows["max_n"].append(mx)
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "n": pa.array(rows["n"], pa.int64()),
            "sum_n": pa.array(rows["sum_n"], pa.int64()),
            "min_n": pa.array(rows["min_n"], pa.int64()),
            "max_n": pa.array(rows["max_n"], pa.int64()),
        }
    )


TOM_TOP_N = 5


def q_terms_orderby_metric(sf_dir: str) -> pa.Table:
    """ES terms agg ordered by a metric sub-agg (order: {avg_n_chars:
    desc}): per query, source buckets over the full match set ranked
    by exact avg(n_chars) — counts/sums reduce as ints across slices
    BEFORE the cut, so the metric ordering is exact (not the per-shard
    approximation ES documents)."""
    engine = _facet_engine(sf_dir)
    rows = {"query_id": [], "rank": [], "source": [], "cnt": [], "avg_n": []}
    try:
        for qid, q in enumerate(FACET_SET):
            for rank, (v, c, a) in enumerate(
                engine.terms_orderby_metric(q, "source", "n_chars", TOM_TOP_N),
                start=1,
            ):
                rows["query_id"].append(qid)
                rows["rank"].append(rank)
                rows["source"].append(v)
                rows["cnt"].append(c)
                rows["avg_n"].append(a)
    finally:
        engine.shutdown()
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "source": pa.array(rows["source"], pa.string()),
            "cnt": pa.array(rows["cnt"], pa.int64()),
            "avg_n": pa.array(
                np.round(np.array(rows["avg_n"], dtype=np.float64), 6),
                type=pa.float64(),
            ),
        }
    )


def sql_terms_orderby_metric() -> str:
    prefix = _facet_sql_prefix(FACET_SET)
    return f"""{prefix},
buckets AS (
  SELECT mm.query_id, d.source, count(*)::BIGINT AS cnt,
         sum(d.n_chars)::DOUBLE / count(*)::DOUBLE AS avg_n
  FROM mm JOIN documents d ON d.doc_id = mm.doc_id
  GROUP BY 1, 2
),
rankedb AS (
  SELECT query_id, source, cnt, avg_n,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY avg_n DESC, source ASC) AS rank
  FROM buckets
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, source, cnt,
       round(avg_n, 6) AS avg_n
FROM rankedb WHERE rank <= {TOM_TOP_N} ORDER BY query_id, rank
"""


def sql_search_facet_stats() -> str:
    prefix = _facet_sql_prefix(FACET_SET)
    return f"""{prefix}
SELECT mm.query_id::BIGINT AS query_id, count(*)::BIGINT AS n,
       sum(d.n_chars)::BIGINT AS sum_n,
       min(d.n_chars)::BIGINT AS min_n, max(d.n_chars)::BIGINT AS max_n
FROM mm JOIN documents d ON d.doc_id = mm.doc_id
GROUP BY 1 ORDER BY 1"""


def q_extended_stats_agg(sf_dir: str) -> pa.Table:
    """ES extended_stats aggregation: count/sum/min/max plus
    sum-of-squares, avg, population variance and std of ``n_chars``
    over each query's full match set.  Server partials are EXACT
    integers (disjoint doc slices add exactly); each derived moment is
    one double division/multiply/sqrt on driver-side — sqrt is
    IEEE-correctly-rounded, so the whole row is bitwise vs DuckDB."""
    import math

    engine = _facet_engine(sf_dir)
    try:
        per_q = [
            engine.extended_stats(q, cols=["n_chars"]) for q in FACET_SET
        ]
    finally:
        engine.shutdown()
    rows = {
        "query_id": [], "n": [], "sum_n": [], "sum_sq": [], "min_n": [],
        "max_n": [], "avg_n": [], "variance": [], "std_dev": [],
    }
    for qid, stats in enumerate(per_q):
        n, sm, sq, mn, mx = stats["n_chars"]
        if n == 0:
            continue
        avg = sm / n
        var = sq / n - avg * avg
        rows["query_id"].append(qid)
        rows["n"].append(n)
        rows["sum_n"].append(sm)
        rows["sum_sq"].append(sq)
        rows["min_n"].append(mn)
        rows["max_n"].append(mx)
        rows["avg_n"].append(avg)
        rows["variance"].append(var)
        # clamp: FP cancellation on near-constant large values can push
        # var a few ulps below 0 — sqrt must not raise; the SQL mirror
        # clamps with greatest(var, 0) identically
        rows["std_dev"].append(math.sqrt(max(var, 0.0)))
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "n": pa.array(rows["n"], pa.int64()),
            "sum_n": pa.array(rows["sum_n"], pa.int64()),
            "sum_sq": pa.array(rows["sum_sq"], pa.int64()),
            "min_n": pa.array(rows["min_n"], pa.int64()),
            "max_n": pa.array(rows["max_n"], pa.int64()),
            "avg_n": pa.array(rows["avg_n"], pa.float64()),
            "variance": pa.array(rows["variance"], pa.float64()),
            "std_dev": pa.array(rows["std_dev"], pa.float64()),
        }
    )


def sql_extended_stats_agg() -> str:
    """Mirror with the SAME expression shape as the engine: exact
    integer sums, then sq/n - (s/n)*(s/n) — never var_pop(), whose
    Welford accumulation would ULP-diverge."""
    prefix = _facet_sql_prefix(FACET_SET)
    return f"""{prefix},
agg AS (
  SELECT mm.query_id, count(*)::BIGINT AS n,
         sum(d.n_chars::BIGINT)::BIGINT AS sum_n,
         sum(d.n_chars::BIGINT * d.n_chars::BIGINT)::BIGINT AS sum_sq,
         min(d.n_chars)::BIGINT AS min_n, max(d.n_chars)::BIGINT AS max_n
  FROM mm JOIN documents d ON d.doc_id = mm.doc_id GROUP BY 1
)
SELECT query_id::BIGINT AS query_id, n, sum_n, sum_sq, min_n, max_n,
       sum_n::DOUBLE / n::DOUBLE AS avg_n,
       sum_sq::DOUBLE / n::DOUBLE
         - (sum_n::DOUBLE / n::DOUBLE) * (sum_n::DOUBLE / n::DOUBLE) AS variance,
       sqrt(greatest(sum_sq::DOUBLE / n::DOUBLE
         - (sum_n::DOUBLE / n::DOUBLE) * (sum_n::DOUBLE / n::DOUBLE),
         CAST(0 AS DOUBLE))) AS std_dev
FROM agg ORDER BY query_id"""


def _matrix_sums(sf_dir: str) -> list[tuple[int, int, int, int, int, int]]:
    """Per-FACET_SET-query exact integer moment partials for the pair
    (n_chars, doc token length): (n, sx, sy, sxx, syy, sxy)."""
    engine = _facet_engine(sf_dir)
    try:
        return [engine.matrix_stats(q, col="n_chars") for q in FACET_SET]
    finally:
        engine.shutdown()


_MATRIX_SUMS_SQL = """
vals AS (
  SELECT mm.query_id, d.n_chars::BIGINT AS x, len(dd.toks)::BIGINT AS y
  FROM mm
  JOIN documents d ON d.doc_id = mm.doc_id
  JOIN docs dd ON dd.doc_id = mm.doc_id
),
s AS (
  SELECT query_id, count(*)::BIGINT AS n,
         sum(x)::BIGINT AS sx, sum(y)::BIGINT AS sy,
         sum(x * x)::BIGINT AS sxx, sum(y * y)::BIGINT AS syy,
         sum(x * y)::BIGINT AS sxy
  FROM vals GROUP BY 1
)"""


def q_matrix_stats_agg(sf_dir: str) -> pa.Table:
    """ES matrix_stats aggregation over each query's FULL match set:
    the joint second-order moments of (n_chars, doc token length) —
    means, population variances, covariance and Pearson correlation.
    Server partials are EXACT integers (disjoint doc slices add
    exactly, overflow-guarded); every derived moment is the SAME
    double expression tree as the SQL mirror (division / multiply /
    IEEE-exact sqrt only), so rows are bitwise.  Queries with n < 2 or
    a zero variance emit no row (correlation undefined — identical
    predicate both sides, no nullable columns)."""
    import math

    sums = _matrix_sums(sf_dir)
    rows = {
        "query_id": [], "n": [], "mean_chars": [], "mean_len": [],
        "var_chars": [], "var_len": [], "covariance": [], "correlation": [],
    }
    for qid, (n, sx, sy, sxx, syy, sxy) in enumerate(sums):
        if n < 2:
            continue
        mean_x, mean_y = sx / n, sy / n
        var_x = sxx / n - mean_x * mean_x
        var_y = syy / n - mean_y * mean_y
        cov = sxy / n - mean_x * mean_y
        if not (var_x > 0 and var_y > 0):
            continue
        corr = cov / (math.sqrt(var_x) * math.sqrt(var_y))
        rows["query_id"].append(qid)
        rows["n"].append(n)
        rows["mean_chars"].append(mean_x)
        rows["mean_len"].append(mean_y)
        rows["var_chars"].append(var_x)
        rows["var_len"].append(var_y)
        rows["covariance"].append(cov)
        rows["correlation"].append(corr)
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "n": pa.array(rows["n"], pa.int64()),
            "mean_chars": pa.array(rows["mean_chars"], pa.float64()),
            "mean_len": pa.array(rows["mean_len"], pa.float64()),
            "var_chars": pa.array(rows["var_chars"], pa.float64()),
            "var_len": pa.array(rows["var_len"], pa.float64()),
            "covariance": pa.array(rows["covariance"], pa.float64()),
            "correlation": pa.array(rows["correlation"], pa.float64()),
        }
    )


def sql_matrix_stats_agg() -> str:
    prefix = _facet_sql_prefix(FACET_SET)
    return f"""{prefix},
{_MATRIX_SUMS_SQL},
mom AS (
  SELECT query_id, n,
         sx::DOUBLE / n::DOUBLE AS mean_x, sy::DOUBLE / n::DOUBLE AS mean_y,
         sxx::DOUBLE / n::DOUBLE
           - (sx::DOUBLE / n::DOUBLE) * (sx::DOUBLE / n::DOUBLE) AS var_x,
         syy::DOUBLE / n::DOUBLE
           - (sy::DOUBLE / n::DOUBLE) * (sy::DOUBLE / n::DOUBLE) AS var_y,
         sxy::DOUBLE / n::DOUBLE
           - (sx::DOUBLE / n::DOUBLE) * (sy::DOUBLE / n::DOUBLE) AS cov
  FROM s WHERE n >= 2
)
SELECT query_id::BIGINT AS query_id, n, mean_x AS mean_chars,
       mean_y AS mean_len, var_x AS var_chars, var_y AS var_len,
       cov AS covariance, cov / (sqrt(var_x) * sqrt(var_y)) AS correlation
FROM mom WHERE var_x > 0 AND var_y > 0 ORDER BY query_id
"""


def q_weighted_avg_agg(sf_dir: str) -> pa.Table:
    """ES weighted_avg aggregation over each query's full match set:
    mean n_chars weighted by doc token length — sum(x*w)/sum(w) from
    the SAME exact integer moment partials as matrix_stats (sxy / sy),
    ONE double division per row."""
    sums = _matrix_sums(sf_dir)
    rows = {"query_id": [], "n": [], "sum_w": [], "sum_xw": [], "wavg_chars": []}
    for qid, (n, _sx, sy, _sxx, _syy, sxy) in enumerate(sums):
        if n == 0 or sy == 0:
            continue
        rows["query_id"].append(qid)
        rows["n"].append(n)
        rows["sum_w"].append(sy)
        rows["sum_xw"].append(sxy)
        rows["wavg_chars"].append(sxy / sy)
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "n": pa.array(rows["n"], pa.int64()),
            "sum_w": pa.array(rows["sum_w"], pa.int64()),
            "sum_xw": pa.array(rows["sum_xw"], pa.int64()),
            "wavg_chars": pa.array(rows["wavg_chars"], pa.float64()),
        }
    )


def sql_weighted_avg_agg() -> str:
    prefix = _facet_sql_prefix(FACET_SET)
    return f"""{prefix},
{_MATRIX_SUMS_SQL}
SELECT query_id::BIGINT AS query_id, n, sy AS sum_w, sxy AS sum_xw,
       sxy::DOUBLE / sy::DOUBLE AS wavg_chars
FROM s WHERE n > 0 AND sy <> 0 ORDER BY query_id
"""


# ES range aggregation: explicit [lo, hi) buckets (None = unbounded),
# every (query, range) pair emitted with coalesce-0 counts.
RANGE_EDGES: tuple[tuple[int | None, int | None], ...] = (
    (None, 200),
    (200, 400),
    (400, 800),
    (800, None),
)


def q_search_range_agg(sf_dir: str) -> pa.Table:
    """ES range aggregation over each query's FULL match set: doc
    counts per explicit half-open ``[lo, hi)`` bucket of n_chars,
    additively merged across the doc-sharded pool.  Every (query,
    range) pair emits a row (zero counts included — ES emits empty
    range buckets, unlike terms facets)."""
    engine = _facet_engine(sf_dir)
    try:
        per_q = [
            engine.range_agg(q, {"n_chars": list(RANGE_EDGES)}) for q in FACET_SET
        ]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "range_idx": [], "bounds": [], "cnt": []}
    for qid, r in enumerate(per_q):
        for i, ((lo, hi), cnt) in enumerate(zip(RANGE_EDGES, r["n_chars"])):
            rows["query_id"].append(qid)
            rows["range_idx"].append(i)
            rows["bounds"].append(_range_label(lo, hi))
            rows["cnt"].append(cnt)
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "range_idx": pa.array(rows["range_idx"], pa.int64()),
            "bounds": pa.array(rows["bounds"], pa.string()),
            "cnt": pa.array(rows["cnt"], pa.int64()),
        }
    )


def _range_label(lo, hi) -> str:
    return f"[{'*' if lo is None else lo},{'*' if hi is None else hi})"


def sql_search_range_agg() -> str:
    prefix = _facet_sql_prefix(FACET_SET)
    rng_rows = ", ".join(
        f"({i}, '{_range_label(lo, hi)}', "
        f"CAST({'NULL' if lo is None else lo} AS BIGINT), "
        f"CAST({'NULL' if hi is None else hi} AS BIGINT))"
        for i, (lo, hi) in enumerate(RANGE_EDGES)
    )
    qid_rows = ", ".join(f"({i})" for i in range(len(FACET_SET)))
    return f"""{prefix},
rng(range_idx, bounds, lo, hi) AS (VALUES {rng_rows}),
qid(query_id) AS (VALUES {qid_rows}),
cnts AS (
  SELECT mm.query_id, r.range_idx, count(*)::BIGINT AS cnt
  FROM mm
  JOIN documents d ON d.doc_id = mm.doc_id
  JOIN rng r ON (r.lo IS NULL OR d.n_chars >= r.lo)
            AND (r.hi IS NULL OR d.n_chars < r.hi)
  GROUP BY 1, 2
)
SELECT q.query_id::BIGINT AS query_id, r.range_idx::BIGINT AS range_idx,
       r.bounds, coalesce(c.cnt, 0)::BIGINT AS cnt
FROM qid q
CROSS JOIN rng r
LEFT JOIN cnts c ON c.query_id = q.query_id AND c.range_idx = r.range_idx
ORDER BY query_id, range_idx
"""


# ES query-time synonym filter (expand=true): analyzed-form groups;
# some synonyms are deliberately absent from the corpus vocabulary
# (they must drop out of scoring without changing anything else).
SYN_MAP: dict[str, list[str]] = {
    "merge": ["join"],
    "fast": ["quick", "rapid"],
    "window": ["frame"],
    "stream": ["batch"],
    "table": ["grid"],
}
SYN_SET: tuple[str, ...] = (
    "merge sort",
    "fast^2 query",
    "window",
    "stream data",
    "table scan column",
    "merge join",  # synonym collides with an explicit term (explicit wins)
)


def q_synonym_search(sf_dir: str) -> pa.Table:
    """Query-time synonym expansion (ES synonym filter, expand=true,
    rewrite scoring_boolean): each scored term adds its synonym-group
    members at the source term's weight (max over sources; an
    explicitly-typed term keeps its own weight), then the expanded set
    scores as a normal weighted OR query.  Synonyms absent from the
    corpus vocabulary drop out of scoring naturally."""
    meta = get_index(sf_dir)
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    try:
        results = [engine.search(q, k=K, synonyms=SYN_MAP) for q in SYN_SET]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "rank": [], "doc_id": [], "score": []}
    for qid, res in enumerate(results):
        for rank, (doc_id, score) in enumerate(res, start=1):
            rows["query_id"].append(qid)
            rows["rank"].append(rank)
            rows["doc_id"].append(doc_id)
            rows["score"].append(score)
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6),
                type=pa.float64(),
            ),
        }
    )


def sql_synonym_search() -> str:
    """Mirror: the synonym expansion is re-derived IN SQL (q0 join a
    synonym VALUES table, max source weight, explicit term wins via
    NOT EXISTS) — the oracle verifies apply_synonyms rather than
    echoing it.  Scoring = the standard weighted BM25 ordered sum."""
    from . import querylang

    tok = analyze.sql_token_array("text")
    contrib = scoring.sql_score_terms_weighted(
        "(SELECT n_docs FROM g)", "(SELECT avgdl FROM g)", "q.w"
    )
    q0_rows = []
    for qid, q in enumerate(SYN_SET):
        parsed = querylang.parse(q)
        for t in sorted(parsed["weights"]):
            q0_rows.append(f"({qid}, '{t}', CAST({parsed['weights'][t]!r} AS DOUBLE))")
    syn_rows = [
        f"('{a}', '{b}')" for a in sorted(SYN_MAP) for b in SYN_MAP[a]
    ]
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
stats AS (SELECT doc_id, len(toks)::BIGINT AS doc_len FROM docs),
g AS (SELECT count(*)::BIGINT AS n_docs,
             sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM stats),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs) GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
q0(query_id, term, w) AS (VALUES {", ".join(q0_rows)}),
syn(a, b) AS (VALUES {", ".join(syn_rows)}),
qd AS (
  SELECT q0.query_id, s.b AS term, max(q0.w) AS w
  FROM q0 JOIN syn s ON s.a = q0.term
  WHERE NOT EXISTS (SELECT 1 FROM q0 q2
                    WHERE q2.query_id = q0.query_id AND q2.term = s.b)
  GROUP BY 1, 2
),
q AS (SELECT query_id, term, w FROM q0
      UNION ALL SELECT query_id, term, w FROM qd),
scored AS (
  SELECT q.query_id, tf.doc_id,
         sum({contrib} ORDER BY q.term) AS score
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, doc_id ASC) AS rank
  FROM scored
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id,
       round(score, 6) AS score
FROM ranked WHERE rank <= {K} ORDER BY query_id, rank
"""


PCT_RANK_VALUES = (200, 500, 1000)


def q_percentile_ranks(sf_dir: str) -> pa.Table:
    """ES percentile_ranks aggregation: per query, the fraction of
    matching docs with n_chars <= v for each probe value — integer
    counts fan out (exact addition), ONE float division per value at
    the driver, so the doubles are bit-identical to the SQL mirror's
    count::DOUBLE / n::DOUBLE (no rounding applied).  Zero-match
    queries emit no rows."""
    engine = _facet_engine(sf_dir)
    try:
        per_q = [
            engine.percentile_ranks(q, "n_chars", list(PCT_RANK_VALUES))
            for q in FACET_SET
        ]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "value": [], "pct_rank": []}
    for qid, pr in enumerate(per_q):
        if pr is None:
            continue
        for v in PCT_RANK_VALUES:
            rows["query_id"].append(qid)
            rows["value"].append(v)
            rows["pct_rank"].append(pr[v])
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "value": pa.array(rows["value"], pa.int64()),
            "pct_rank": pa.array(rows["pct_rank"], pa.float64()),
        }
    )


def sql_percentile_ranks() -> str:
    prefix = _facet_sql_prefix(FACET_SET)
    val_rows = ", ".join(f"({v})" for v in PCT_RANK_VALUES)
    return f"""{prefix},
vals(value) AS (VALUES {val_rows})
SELECT mm.query_id::BIGINT AS query_id, v.value::BIGINT AS value,
       (count(*) FILTER (d.n_chars <= v.value))::DOUBLE
         / count(d.n_chars)::DOUBLE AS pct_rank
FROM mm
JOIN documents d ON d.doc_id = mm.doc_id
CROSS JOIN vals v
GROUP BY 1, 2 ORDER BY query_id, value
"""


# ES `filters` aggregation: named sub-queries counted against each
# main query's match set (term, phrase, and filtered shapes).
FILTERS_AGG: dict[str, str] = {
    "merge": "merge",
    "hashjoin": '"hash join"',
    "window_en": "window lang:en",
}


def q_filters_agg(sf_dir: str) -> pa.Table:
    """ES filters aggregation: per (query, named filter), the count of
    main-match docs that also match the named sub-query — per-server
    intersection counts over disjoint slices, exact additive fold;
    every (query, name) pair emits a row (zero counts included)."""
    engine = _facet_engine(sf_dir)
    try:
        per_q = [engine.filters_agg(q, FILTERS_AGG) for q in FACET_SET]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "filter": [], "cnt": []}
    for qid, counts in enumerate(per_q):
        for name in sorted(FILTERS_AGG):
            rows["query_id"].append(qid)
            rows["filter"].append(name)
            rows["cnt"].append(counts[name])
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "filter": pa.array(rows["filter"], pa.string()),
            "cnt": pa.array(rows["cnt"], pa.int64()),
        }
    )


def sql_filters_agg() -> str:
    """Mirror: the named filters are re-expressed as independent SQL
    predicates over the joined token string / docmeta (token LIKE,
    phrase LIKE, term+metadata) — not the engine's parse output."""
    prefix = _facet_sql_prefix(FACET_SET)
    qid_rows = ", ".join(f"({i})" for i in range(len(FACET_SET)))
    return f"""{prefix},
fnames(filter) AS (VALUES ('hashjoin'), ('merge'), ('window_en')),
qid(query_id) AS (VALUES {qid_rows}),
fcnts AS (
  SELECT mm.query_id, f.filter, count(*)::BIGINT AS cnt
  FROM mm
  JOIN joined j ON j.doc_id = mm.doc_id
  JOIN documents d ON d.doc_id = mm.doc_id
  JOIN fnames f ON (
       (f.filter = 'merge' AND j.s LIKE '% merge %')
    OR (f.filter = 'hashjoin' AND j.s LIKE '% hash join %')
    OR (f.filter = 'window_en' AND j.s LIKE '% window %' AND d.lang = 'en')
  )
  GROUP BY 1, 2
)
SELECT q.query_id::BIGINT AS query_id, f.filter,
       coalesce(c.cnt, 0)::BIGINT AS cnt
FROM qid q
CROSS JOIN fnames f
LEFT JOIN fcnts c ON c.query_id = q.query_id AND c.filter = f.filter
ORDER BY query_id, f.filter
"""


def q_adjacency_matrix(sf_dir: str) -> pa.Table:
    """ES adjacency_matrix aggregation: per (query, filter pair a<=b),
    the count of main-match docs in both named filters' match sets —
    per-name sets computed once per server slice, pairwise numpy
    intersects, exact additive fold; every pair emits (zeros
    included)."""
    engine = _facet_engine(sf_dir)
    try:
        per_q = [engine.adjacency_matrix(q, FILTERS_AGG) for q in FACET_SET]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "a": [], "b": [], "cnt": []}
    for qid, counts in enumerate(per_q):
        for (a, b) in sorted(counts):
            rows["query_id"].append(qid)
            rows["a"].append(a)
            rows["b"].append(b)
            rows["cnt"].append(counts[(a, b)])
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "a": pa.array(rows["a"], pa.string()),
            "b": pa.array(rows["b"], pa.string()),
            "cnt": pa.array(rows["cnt"], pa.int64()),
        }
    )


def sql_adjacency_matrix() -> str:
    """Mirror: the same independent per-filter predicates as
    sql_filters_agg, applied PAIRWISE (a's predicate AND b's) over the
    main match set, cross-joined with coalesce-0."""
    prefix = _facet_sql_prefix(FACET_SET)
    qid_rows = ", ".join(f"({i})" for i in range(len(FACET_SET)))
    pred = {
        "merge": "j.s LIKE '% merge %'",
        "hashjoin": "j.s LIKE '% hash join %'",
        "window_en": "(j.s LIKE '% window %' AND d.lang = 'en')",
    }
    names = sorted(pred)
    pair_rows = ", ".join(
        f"('{a}', '{b}')" for i, a in enumerate(names) for b in names[i:]
    )
    cases = " ".join(
        f"WHEN p.a = '{a}' AND p.b = '{b}' THEN ({pred[a]} AND {pred[b]})"
        for i, a in enumerate(names)
        for b in names[i:]
    )
    return f"""{prefix},
pairs(a, b) AS (VALUES {pair_rows}),
qid(query_id) AS (VALUES {qid_rows}),
pcnts AS (
  SELECT mm.query_id, p.a, p.b, count(*)::BIGINT AS cnt
  FROM mm
  JOIN joined j ON j.doc_id = mm.doc_id
  JOIN documents d ON d.doc_id = mm.doc_id
  JOIN pairs p ON (CASE {cases} ELSE false END)
  GROUP BY 1, 2, 3
)
SELECT q.query_id::BIGINT AS query_id, p.a, p.b,
       coalesce(c.cnt, 0)::BIGINT AS cnt
FROM qid q
CROSS JOIN pairs p
LEFT JOIN pcnts c ON c.query_id = q.query_id AND c.a = p.a AND c.b = p.b
ORDER BY query_id, p.a, p.b
"""


SAMPLER_K = 8


def q_sampler_agg(sf_dir: str) -> pa.Table:
    """ES sampler aggregation, made deterministic: per query, a uniform
    sample of SAMPLER_K matching docs selected by md5(doc_id) order —
    per-server local top-k by (hash, doc_id) over its disjoint slice,
    exact driver re-cut, no RNG state anywhere (rerun-stable and
    SQL-mirrorable, unlike a reservoir)."""
    engine = _facet_engine(sf_dir)
    try:
        per_q = [engine.sample(q, SAMPLER_K) for q in FACET_SET]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "rank": [], "doc_id": []}
    for qid, ids in enumerate(per_q):
        for rank, d in enumerate(ids, start=1):
            rows["query_id"].append(qid)
            rows["rank"].append(rank)
            rows["doc_id"].append(d)
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
        }
    )


def sql_sampler_agg() -> str:
    prefix = _facet_sql_prefix(FACET_SET)
    return f"""{prefix},
hashed AS (
  SELECT query_id, doc_id,
         row_number() OVER (
           PARTITION BY query_id
           ORDER BY md5_number_lower(doc_id::VARCHAR), doc_id
         ) AS rank
  FROM mm
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id
FROM hashed WHERE rank <= {SAMPLER_K} ORDER BY query_id, rank
"""


DIVERSE_K = 12
DIVERSE_MAX_PER = 3  # max docs per lang in the diversified sample


def q_diversified_sampler(sf_dir: str) -> pa.Table:
    """ES diversified_sampler aggregation, deterministically: per
    query, the md5(doc_id)-order uniform sample of ``DIVERSE_K``
    matching docs with at most ``DIVERSE_MAX_PER`` per lang — the
    de-biased sampler ES uses to stop one dominant category flooding a
    sampled sub-aggregation.  Per-server per-value candidate cuts are
    supersets of the global survivors (exact driver re-cut);
    rerun-stable and pool-invariant because the "randomness" is the
    fixed doc-id hash shuffle, not a reservoir."""
    engine = _facet_engine(sf_dir)
    try:
        per_q = [
            engine.diversified_sample(q, "lang", DIVERSE_K, DIVERSE_MAX_PER)
            for q in FACET_SET
        ]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "rank": [], "doc_id": [], "lang": []}
    for qid, hits in enumerate(per_q):
        for rank, (d, v) in enumerate(hits, start=1):
            rows["query_id"].append(qid)
            rows["rank"].append(rank)
            rows["doc_id"].append(d)
            rows["lang"].append(v)
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "lang": pa.array(rows["lang"], pa.string()),
        }
    )


def sql_diversified_sampler() -> str:
    prefix = _facet_sql_prefix(FACET_SET)
    return f"""{prefix},
hashed AS (
  SELECT mm.query_id, mm.doc_id, d.lang,
         md5_number_lower(mm.doc_id::VARCHAR) AS h,
         row_number() OVER (
           PARTITION BY mm.query_id, d.lang
           ORDER BY md5_number_lower(mm.doc_id::VARCHAR), mm.doc_id
         ) AS rv
  FROM mm JOIN documents d ON d.doc_id = mm.doc_id
),
kept AS (
  SELECT query_id, doc_id, lang,
         row_number() OVER (PARTITION BY query_id ORDER BY h, doc_id) AS rank
  FROM hashed WHERE rv <= {DIVERSE_MAX_PER}
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id, lang
FROM kept WHERE rank <= {DIVERSE_K} ORDER BY query_id, rank
"""


COMPOSITE_PAGE = 8  # buckets per composite page; entry emits two pages


def q_composite_agg(sf_dir: str) -> pa.Table:
    """ES composite aggregation over each query's full match set:
    (lang, source) bucket counts, key-ordered, paged ``COMPOSITE_PAGE``
    buckets at a time with an after-key cursor — the entry emits the
    first TWO pages per query so the pagination contract itself is
    value-checked.  Servers return one row per distinct key tuple;
    paging is a driver-side sort over the merged (tiny) bucket dict."""
    engine = _facet_engine(sf_dir)
    rows = {"query_id": [], "page": [], "lang": [], "source": [], "cnt": []}
    try:
        for qid, q in enumerate(FACET_SET):
            page1, after = engine.composite(q, ["lang", "source"], COMPOSITE_PAGE)
            pages = [(1, page1)]
            if after is not None:
                page2, _ = engine.composite(
                    q, ["lang", "source"], COMPOSITE_PAGE, after=after
                )
                pages.append((2, page2))
            for pno, buckets in pages:
                for (lang, source), cnt in buckets:
                    rows["query_id"].append(qid)
                    rows["page"].append(pno)
                    rows["lang"].append(lang)
                    rows["source"].append(source)
                    rows["cnt"].append(cnt)
    finally:
        engine.shutdown()
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "page": pa.array(rows["page"], pa.int64()),
            "lang": pa.array(rows["lang"], pa.string()),
            "source": pa.array(rows["source"], pa.string()),
            "cnt": pa.array(rows["cnt"], pa.int64()),
        }
    )


def sql_composite_agg() -> str:
    prefix = _facet_sql_prefix(FACET_SET)
    p = COMPOSITE_PAGE
    return f"""{prefix},
buckets AS (
  SELECT mm.query_id, d.lang, d.source, count(*)::BIGINT AS cnt,
         row_number() OVER (PARTITION BY mm.query_id
                            ORDER BY d.lang, d.source) AS rn
  FROM mm JOIN documents d ON d.doc_id = mm.doc_id
  GROUP BY 1, 2, 3
)
SELECT query_id::BIGINT AS query_id,
       (((rn - 1) // {p}) + 1)::BIGINT AS page, lang, source, cnt
FROM buckets WHERE rn <= {2 * p}
ORDER BY query_id, page, lang, source
"""


RARE_MAX_DOC_COUNT = 3  # ES rare_terms: buckets with <= N matching docs
MULTI_TERMS_TOP = 8  # ES multi_terms: top-N compound buckets by count


MGET_N = 20  # known ids fetched (+ absent and tombstone-free 404s)


def q_mget_docs(sf_dir: str) -> pa.Table:
    """ES ``_mget``: stored fields for an explicit id list straight
    from the doc store — each doc-sharded server answers for its
    disjoint doc-range slice, absent ids 404 away, the driver
    concatenates duplicate-free.  Request mixes the first MGET_N real
    ids with two ids that exist nowhere."""
    engine = _facet_engine(sf_dir)
    docs = pq.read_table(docs_path(sf_dir), columns=["doc_id"])
    ids = np.sort(docs["doc_id"].to_numpy(zero_copy_only=False))[:MGET_N]
    ask = ids.tolist() + [-1, 2**61 + 12345]  # guaranteed-absent ids
    try:
        rows = engine.mget(ask, cols=("lang", "source", "n_chars"))
    finally:
        engine.shutdown()
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "lang": pa.array([r[1] for r in rows], pa.string()),
            "source": pa.array([r[2] for r in rows], pa.string()),
            "n_chars": pa.array([r[3] for r in rows], pa.int64()),
        }
    )


def sql_mget_docs() -> str:
    return f"""
WITH want AS (
  SELECT doc_id FROM documents ORDER BY doc_id LIMIT {MGET_N}
)
SELECT d.doc_id, d.lang, d.source, d.n_chars::BIGINT AS n_chars
FROM documents d JOIN want w ON w.doc_id = d.doc_id
ORDER BY d.doc_id"""


SUGGEST_TEXT = "windoow mrege tabel join sprak zz the"
# misspellings of common corpus terms + an in-vocab token (skipped by
# suggest_mode=missing), a too-short token (length gate) and a stopword
# (analyzer drop) — each gate is exercised whatever the corpus holds
# (k rides the shared SUGGEST_K; the raw-typo-list variant of this API
# is suggest_fuzzy / cb/suggest.py)


def q_suggest_term(sf_dir: str) -> pa.Table:
    """ES term suggester ("did you mean"): per analyzed token of
    SUGGEST_TEXT, the top-k vocabulary terms within 2 Damerau-
    Levenshtein edits sharing the first character, ranked by
    (distance, df desc, term) — distances and dfs both integer, so the
    mirror is value-exact with no float hazard."""
    meta = get_index(sf_dir)
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    try:
        rows = engine.suggest_term(SUGGEST_TEXT, k=SUGGEST_K)
    finally:
        engine.shutdown()
    return pa.table(
        {
            "pos": pa.array([r[0] for r in rows], pa.int64()),
            "token": pa.array([r[1] for r in rows], pa.string()),
            "rank": pa.array([r[2] for r in rows], pa.int64()),
            "suggestion": pa.array([r[3] for r in rows], pa.string()),
            "dist": pa.array([r[4] for r in rows], pa.int64()),
            "df": pa.array([r[5] for r in rows], pa.int64()),
        }
    )


def sql_suggest_term() -> str:
    tok = analyze.sql_token_array("text")
    tok_lit = analyze.sql_token_array(f"'{SUGGEST_TEXT}'")
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
tf AS (SELECT DISTINCT doc_id, term
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs)),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
inp AS (SELECT generate_subscripts(arr, 1) AS pos, unnest(arr) AS tok
        FROM (SELECT {tok_lit} AS arr)),
cand AS (
  SELECT i.pos, i.tok, d.term,
         damerau_levenshtein(i.tok, d.term)::BIGINT AS dist, d.df
  FROM inp i JOIN df d
    ON length(d.term) BETWEEN length(i.tok) - 2 AND length(i.tok) + 2
   AND substr(d.term, 1, 1) = substr(i.tok, 1, 1)
   AND d.term <> i.tok
  WHERE length(i.tok) >= 4
    AND NOT EXISTS (SELECT 1 FROM df x WHERE x.term = i.tok)
    AND damerau_levenshtein(i.tok, d.term) <= 2
),
ranked AS (
  SELECT pos, tok, term, dist, df,
         row_number() OVER (PARTITION BY pos
                            ORDER BY dist, df DESC, term) AS rn
  FROM cand
)
SELECT pos::BIGINT AS pos, tok AS token, rn::BIGINT AS rank,
       term AS suggestion, dist, df
FROM ranked WHERE rn <= {SUGGEST_K} ORDER BY pos, rank
"""


PHRASE_SUGGEST_SPECS: tuple[str, ...] = (
    "hsh jion",
    "merge sort windw",
    "tble scan",
    "stream batc filtr",
)
PS_K = 3
PS_C = 4  # candidates per position
PS_DISCOUNT = 0.4


def q_suggest_phrase(sf_dir: str) -> pa.Table:
    """ES phrase suggester: per-position Damerau-Levenshtein candidate
    sets (dist<=1, shared first char, top-4 by dist/df/term) crossed
    into whole-phrase candidates, each scored by a Stupid-Backoff
    bigram LM (discount 0.4) whose cf/bigram evidence comes straight
    off the positional postings — top-3 phrases per input by (score
    desc, phrase asc)."""
    meta = get_index(sf_dir)
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    rows = {"query_id": [], "rank": [], "phrase": [], "score": []}
    try:
        for qid, text in enumerate(PHRASE_SUGGEST_SPECS):
            for rank, phrase, s in engine.suggest_phrase(
                text, k=PS_K, num_candidates=PS_C, discount=PS_DISCOUNT
            ):
                rows["query_id"].append(qid)
                rows["rank"].append(rank)
                rows["phrase"].append(phrase)
                rows["score"].append(s)
    finally:
        engine.shutdown()
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "phrase": pa.array(rows["phrase"], pa.string()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6),
                type=pa.float64(),
            ),
        }
    )


def sql_suggest_phrase() -> str:
    """Mirror: same candidate generator (damerau_levenshtein, the
    kernel cb.querylang verified against DuckDB), same Stupid-Backoff
    expression tree with cf/bigram counts from the token stream."""
    tok = analyze.sql_token_array("text")
    qtoks = ", ".join(
        f"({qid}, {pos}, '{t}')"
        for qid, text in enumerate(PHRASE_SUGGEST_SPECS)
        for pos, t in enumerate(analyze.tokenize(text), start=1)
    )
    selects = []
    for qid, text in enumerate(PHRASE_SUGGEST_SPECS):
        n = len(analyze.tokenize(text))
        joins, score = [], "log10(u1.cf::DOUBLE / tot.n::DOUBLE)"
        for j in range(2, n + 1):
            joins.append(
                f"JOIN ck c{j} ON c{j}.query_id = {qid} AND c{j}.pos = {j} "
                f"JOIN uni u{j} ON u{j}.w = c{j}.term "
                f"LEFT JOIN big b{j} ON b{j}.w1 = c{j-1}.term "
                f"AND b{j}.w2 = c{j}.term"
            )
            score += (
                f" + CASE WHEN b{j}.c IS NOT NULL "
                f"THEN log10(b{j}.c::DOUBLE / u{j-1}.cf::DOUBLE) "
                f"ELSE log10({PS_DISCOUNT} * u{j}.cf::DOUBLE / tot.n::DOUBLE) "
                f"END"
            )
        phrase = " || ' ' || ".join(f"c{j}.term" for j in range(1, n + 1))
        selects.append(
            f"SELECT {qid}::BIGINT AS query_id, {phrase} AS phrase, "
            f"{score} AS score "
            f"FROM ck c1 JOIN uni u1 ON u1.w = c1.term {' '.join(joins)} "
            f"CROSS JOIN tot WHERE c1.query_id = {qid} AND c1.pos = 1"
        )
    body = " UNION ALL ".join(selects)
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
t AS (SELECT doc_id, unnest(toks) AS w, generate_subscripts(toks, 1) AS i FROM docs),
uni AS (SELECT w, count(*)::BIGINT AS cf FROM t GROUP BY 1),
tot AS (SELECT count(*)::BIGINT AS n FROM t),
df AS (SELECT w AS term, count(DISTINCT doc_id)::BIGINT AS df FROM t GROUP BY 1),
big AS (SELECT a.w AS w1, b.w AS w2, count(*)::BIGINT AS c
        FROM t a JOIN t b ON b.doc_id = a.doc_id AND b.i = a.i + 1
        GROUP BY 1, 2),
qtok(query_id, pos, tok) AS (VALUES {qtoks}),
cand AS (
  SELECT q.query_id, q.pos, u.w AS term,
         row_number() OVER (
           PARTITION BY q.query_id, q.pos
           ORDER BY damerau_levenshtein(u.w, q.tok) ASC, d.df DESC, u.w ASC
         ) AS rn
  FROM qtok q
  JOIN uni u ON length(u.w) BETWEEN length(q.tok) - 1 AND length(q.tok) + 1
    AND substr(u.w, 1, 1) = substr(q.tok, 1, 1)
    AND damerau_levenshtein(u.w, q.tok) <= 1
  JOIN df d ON d.term = u.w
),
ck AS (SELECT query_id, pos, term FROM cand WHERE rn <= {PS_C}),
phr AS ({body}),
rankedp AS (
  SELECT query_id, phrase, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, phrase ASC) AS rank
  FROM phr
)
SELECT query_id, rank::BIGINT AS rank, phrase, round(score, 6) AS score
FROM rankedp WHERE rank <= {PS_K} ORDER BY query_id, rank
"""


SPAN_FIRST_SPECS: tuple[tuple[str, int], ...] = (
    ("window", 3), ("merge", 1), ("join", 5), ("customer", 2),
)


def q_span_first(sf_dir: str) -> pa.Table:
    """ES ``span_first``: docs whose first occurrence of the term ends
    by position ``end``, straight off the positional postings —
    filter-context, so rows are (spec, doc_id, first 0-based
    position)."""
    meta = get_index(sf_dir)
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    rows = []
    try:
        for sid, (term, end) in enumerate(SPAN_FIRST_SPECS):
            rows.extend((sid, d, p) for d, p in engine.span_first(term, end))
    finally:
        engine.shutdown()
    return pa.table(
        {
            "span_id": pa.array([r[0] for r in rows], pa.int64()),
            "doc_id": pa.array([r[1] for r in rows], pa.int64()),
            "pos": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def sql_span_first() -> str:
    tok = analyze.sql_token_array("text")
    vals = ", ".join(
        f"({i}, '{t}', {e})" for i, (t, e) in enumerate(SPAN_FIRST_SPECS)
    )
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
specs(span_id, term, end_pos) AS (VALUES {vals})
SELECT s.span_id::BIGINT AS span_id, d.doc_id,
       (list_position(d.toks, s.term) - 1)::BIGINT AS pos
FROM specs s JOIN docs d
  ON list_position(d.toks, s.term) BETWEEN 1 AND s.end_pos
ORDER BY span_id, doc_id
"""


SPAN_NEAR_SPECS: tuple[tuple[str, str, int], ...] = (
    ("hash", "join", 0), ("merge", "sort", 2),
    ("window", "stream", 5), ("customer", "table", 1),
)


def q_span_near(sf_dir: str) -> pa.Table:
    """ES ``span_near`` with ``in_order: false`` (two single-term
    clauses): docs where the terms co-occur within ``slop`` intervening
    tokens, with the minimum gap — value-checking the proximity math
    itself, not just membership.  Filter-context rows (spec, doc_id,
    gap); the engine computes gaps vectorized off the positional
    postings (one searchsorted per side + per-doc reduceat, no per-doc
    loop)."""
    meta = get_index(sf_dir)
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    rows = []
    try:
        for sid, (ta, tb, slop) in enumerate(SPAN_NEAR_SPECS):
            rows.extend(
                (sid, d, g) for d, g in engine.span_near(f"{ta} {tb}", slop)
            )
    finally:
        engine.shutdown()
    return pa.table(
        {
            "span_id": pa.array([r[0] for r in rows], pa.int64()),
            "doc_id": pa.array([r[1] for r in rows], pa.int64()),
            "gap": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def sql_span_near() -> str:
    tok = analyze.sql_token_array("text")
    vals = ", ".join(
        f"({i}, '{a}', '{b}', {s})" for i, (a, b, s) in enumerate(SPAN_NEAR_SPECS)
    )
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
t AS (SELECT doc_id, unnest(toks) AS w, generate_subscripts(toks, 1) AS i FROM docs),
specs(span_id, ta, tb, slop) AS (VALUES {vals})
SELECT s.span_id::BIGINT AS span_id, a.doc_id,
       (min(abs(a.i - b.i)) - 1)::BIGINT AS gap
FROM specs s
JOIN t a ON a.w = s.ta
JOIN t b ON b.doc_id = a.doc_id AND b.w = s.tb
GROUP BY s.span_id, a.doc_id, s.slop
HAVING min(abs(a.i - b.i)) - 1 <= s.slop
ORDER BY span_id, a.doc_id
"""


INTERVALS_SPECS: tuple[tuple[str, int, bool], ...] = (
    ("hash join", 1, True),
    ("merge sort window", 4, False),
    ("customer table scan", 6, True),
    ("filter stream", 3, False),
)


def q_intervals(sf_dir: str) -> pa.Table:
    """ES ``intervals`` query (match rule, ``max_gaps`` + ``ordered``)
    over 2- and 3-term phrases: docs where some one-occurrence-per-term
    position tuple — in query order when ordered — spans at most
    ``max_gaps`` intervening positions, with the minimal gap count.
    Filter-context rows (interval_id, doc_id, gaps); candidates are
    posting-list intersections, per-doc minima via greedy chain
    (ordered) / smallest-range sweep (unordered)."""
    meta = get_index(sf_dir)
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    rows = []
    try:
        for sid, (text, g, ordered) in enumerate(INTERVALS_SPECS):
            rows.extend(
                (sid, d, gg) for d, gg in engine.intervals(text, g, ordered)
            )
    finally:
        engine.shutdown()
    return pa.table(
        {
            "interval_id": pa.array([r[0] for r in rows], pa.int64()),
            "doc_id": pa.array([r[1] for r in rows], pa.int64()),
            "gaps": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def sql_intervals() -> str:
    """Mirror: per spec, min over one-occurrence-per-term tuples (the
    in-order subset when ordered) of (span width - n_terms), kept at
    <= max_gaps — exact integer mins, same (interval_id, doc_id)
    order."""
    tok = analyze.sql_token_array("text")
    selects = []
    for sid, (text, g, ordered) in enumerate(INTERVALS_SPECS):
        terms = analyze.tokenize(text)
        n = len(terms)
        joins = []
        for j in range(2, n + 1):
            cond = f"a{j}.doc_id = a1.doc_id AND a{j}.w = '{terms[j-1]}'"
            if ordered:
                cond += f" AND a{j-1}.i < a{j}.i"
            joins.append(f"JOIN t a{j} ON {cond}")
        cols = ", ".join(f"a{j}.i" for j in range(1, n + 1))
        width = (
            f"a{n}.i - a1.i + 1 - {n}"
            if ordered
            else f"greatest({cols}) - least({cols}) + 1 - {n}"
        )
        selects.append(
            f"SELECT {sid}::BIGINT AS interval_id, a1.doc_id, "
            f"min({width})::BIGINT AS gaps "
            f"FROM t a1 {' '.join(joins)} WHERE a1.w = '{terms[0]}' "
            f"GROUP BY a1.doc_id HAVING min({width}) <= {g}"
        )
    body = " UNION ALL ".join(selects)
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
t AS (SELECT doc_id, unnest(toks) AS w, generate_subscripts(toks, 1) AS i FROM docs)
{body}
ORDER BY interval_id, doc_id
"""


SPAN_OR_FIRST_SPECS: tuple[tuple[str, int], ...] = (
    ("window merge", 3), ("join scan", 2), ("customer table", 5),
    ("zebra quantum", 4),
)


def q_span_or_first(sf_dir: str) -> pa.Table:
    """ES ``span_first`` whose inner clause is a ``span_or`` over
    single-term spans: docs where the EARLIEST occurrence of any
    listed term ends by ``end``, with that position — the union fold
    is a per-doc minimum off the positional postings (one gather per
    term + one reduceat, no per-doc loop).  Filter-context rows
    (spec, doc_id, pos)."""
    meta = get_index(sf_dir)
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    rows = []
    try:
        for sid, (terms, end) in enumerate(SPAN_OR_FIRST_SPECS):
            rows.extend(
                (sid, d, p) for d, p in engine.span_or_first(terms, end)
            )
    finally:
        engine.shutdown()
    return pa.table(
        {
            "span_id": pa.array([r[0] for r in rows], pa.int64()),
            "doc_id": pa.array([r[1] for r in rows], pa.int64()),
            "pos": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def sql_span_or_first() -> str:
    tok = analyze.sql_token_array("text")
    vals = []
    for sid, (terms, end) in enumerate(SPAN_OR_FIRST_SPECS):
        for t in sorted(set(analyze.tokenize(terms))):
            vals.append(f"({sid}, '{t}', {end})")
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
st(span_id, term, end_pos) AS (VALUES {", ".join(vals)})
SELECT st.span_id::BIGINT AS span_id, d.doc_id,
       (min(list_position(d.toks, st.term)) - 1)::BIGINT AS pos
FROM st JOIN docs d
  ON list_position(d.toks, st.term) BETWEEN 1 AND st.end_pos
GROUP BY 1, 2
ORDER BY span_id, doc_id
"""


SPAN_NOT_SPECS: tuple[tuple[str, str, int], ...] = (
    ("join", "hash", 0), ("sort", "merge", 1),
    ("window", "stream", 3), ("table", "scan", 2),
)


def q_span_not(sf_dir: str) -> pa.Table:
    """ES ``span_not`` (include term, exclude term, symmetric slop
    window): docs keeping an include occurrence at least ``slop+1``
    tokens clear of EVERY exclude occurrence, with the first such
    position — value-checks the exclusion geometry itself.  The
    engine computes it vectorized as the dual of span_near (nearest-
    exclude distance per occurrence, per-doc min over valid
    positions)."""
    meta = get_index(sf_dir)
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    rows = []
    try:
        for sid, (ta, tb, slop) in enumerate(SPAN_NOT_SPECS):
            rows.extend(
                (sid, d, p) for d, p in engine.span_not(f"{ta} {tb}", slop)
            )
    finally:
        engine.shutdown()
    return pa.table(
        {
            "span_id": pa.array([r[0] for r in rows], pa.int64()),
            "doc_id": pa.array([r[1] for r in rows], pa.int64()),
            "pos": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def sql_span_not() -> str:
    tok = analyze.sql_token_array("text")
    vals = ", ".join(
        f"({i}, '{a}', '{b}', {s})" for i, (a, b, s) in enumerate(SPAN_NOT_SPECS)
    )
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
t AS (SELECT doc_id, unnest(toks) AS w, generate_subscripts(toks, 1) AS i FROM docs),
specs(span_id, ta, tb, slop) AS (VALUES {vals}),
apos AS (SELECT s.span_id, a.doc_id, a.i, s.tb, s.slop
         FROM specs s JOIN t a ON a.w = s.ta),
valid AS (
  SELECT ap.span_id, ap.doc_id, ap.i FROM apos ap
  WHERE NOT EXISTS (
    SELECT 1 FROM t b
    WHERE b.doc_id = ap.doc_id AND b.w = ap.tb
      AND abs(b.i - ap.i) <= ap.slop + 1
  )
)
SELECT span_id::BIGINT AS span_id, doc_id, (min(i) - 1)::BIGINT AS pos
FROM valid GROUP BY 1, 2 ORDER BY span_id, doc_id
"""


def q_search_count(sf_dir: str) -> pa.Table:
    """ES ``_count``: match-set size per query string, scoring-free —
    each disjoint server slice counts locally and the driver sums, so
    ids never cross the wire.  Runs the full query-string surface
    (phrase, wildcard, +required, metadata filters) via FACET_SET."""
    engine = _facet_engine(sf_dir)
    try:
        rows = [(qid, engine.count(q)) for qid, q in enumerate(FACET_SET)]
    finally:
        engine.shutdown()
    return pa.table(
        {
            "query_id": pa.array([r[0] for r in rows], pa.int64()),
            "total": pa.array([r[1] for r in rows], pa.int64()),
        }
    )


def sql_search_count() -> str:
    prefix = _facet_sql_prefix(FACET_SET)
    return f"""{prefix}
SELECT q.query_id::BIGINT AS query_id, count(mm.doc_id)::BIGINT AS total
FROM (SELECT DISTINCT query_id FROM qatom) q
LEFT JOIN mm ON mm.query_id = q.query_id
GROUP BY 1 ORDER BY 1
"""


JOIN_FIELD_SET: tuple[str, ...] = (
    "join table", "window", "merge sort", "zebra quantum", "stream batch group",
)
JOIN_FIELD_COL = "source"
HAS_CHILD_MIN = 2


def _join_field_values() -> str:
    rows = []
    for qid, q in enumerate(JOIN_FIELD_SET):
        for t in sorted(set(analyze.tokenize(q))):
            rows.append(f"({qid}, '{t}')")
    return ", ".join(rows)


def _join_field_scored_sql() -> str:
    """Shared oracle prefix for the join-field entries: the full-match
    BM25 scored set of JOIN_FIELD_SET (same CTE shape as sql_bm25) plus
    each doc's parent key (the ``source`` column — the ES join field's
    parent side)."""
    tok = analyze.sql_token_array("text")
    contrib = scoring.sql_score_terms("(SELECT n_docs FROM g)", "(SELECT avgdl FROM g)")
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
stats AS (SELECT doc_id, len(toks)::BIGINT AS doc_len FROM docs),
g AS (SELECT count(*)::BIGINT AS n_docs,
             sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM stats),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs) GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
q(query_id, term) AS (VALUES {_join_field_values()}),
scored AS (
  SELECT q.query_id, tf.doc_id,
         sum({contrib} ORDER BY q.term) AS score
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
),
par AS (
  SELECT s.query_id, d.{JOIN_FIELD_COL} AS parent,
         max(s.score) AS mscore, count(*)::BIGINT AS n_children
  FROM scored s JOIN documents d ON d.doc_id = s.doc_id
  GROUP BY 1, 2
)"""


def q_has_child(sf_dir: str) -> pa.Table:
    """ES join-field ``has_child`` (score_mode=max, min_children):
    parents (``source`` groups) whose child docs match the query,
    scored by the best-matching child's full-match BM25 score, with
    the matching-child count — thin parents dropped by min_children.
    Per-server per-parent (max, count) partials merge exactly at the
    driver (max of maxes, sum of counts): no float-sum order hazard,
    no ids crossing the wire."""
    engine = _facet_engine(sf_dir)
    rows = []
    try:
        for qid, q in enumerate(JOIN_FIELD_SET):
            res = engine.has_child(
                q, JOIN_FIELD_COL, k=K, min_children=HAS_CHILD_MIN
            )
            rows.extend(
                (qid, rank, v, s, n)
                for rank, (v, s, n) in enumerate(res, start=1)
            )
    finally:
        engine.shutdown()
    return pa.table(
        {
            "query_id": pa.array([r[0] for r in rows], pa.int64()),
            "rank": pa.array([r[1] for r in rows], pa.int64()),
            "parent": pa.array([r[2] for r in rows], pa.string()),
            "score": pa.array(
                np.round(np.array([r[3] for r in rows], dtype=np.float64), 6),
                pa.float64(),
            ),
            "n_children": pa.array([r[4] for r in rows], pa.int64()),
        }
    )


def sql_has_child() -> str:
    return f"""{_join_field_scored_sql()},
ranked AS (
  SELECT query_id, parent, mscore, n_children,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY mscore DESC, parent ASC) AS rank
  FROM par WHERE n_children >= {HAS_CHILD_MIN}
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, parent,
       round(mscore, 6) AS score, n_children
FROM ranked WHERE rank <= {K} ORDER BY query_id, rank
"""


def q_has_parent(sf_dir: str) -> pa.Table:
    """ES join-field ``has_parent`` (score=true): child docs whose
    parent group contains a doc matching the parent query, each scored
    with its parent's max-child BM25 score.  Phase 1 = the has_child
    kernel (per-parent score map, exactly merged); phase 2 broadcasts
    that tiny map and each disjoint doc slice picks its members with
    one vectorized is_in over docmeta — exact top-k re-cut at the
    driver, no postings touched in phase 2."""
    engine = _facet_engine(sf_dir)
    rows = []
    try:
        for qid, q in enumerate(JOIN_FIELD_SET):
            res = engine.has_parent(q, JOIN_FIELD_COL, k=K)
            rows.extend(
                (qid, rank, d, s) for rank, (d, s) in enumerate(res, start=1)
            )
    finally:
        engine.shutdown()
    return pa.table(
        {
            "query_id": pa.array([r[0] for r in rows], pa.int64()),
            "rank": pa.array([r[1] for r in rows], pa.int64()),
            "doc_id": pa.array([r[2] for r in rows], pa.int64()),
            "score": pa.array(
                np.round(np.array([r[3] for r in rows], dtype=np.float64), 6),
                pa.float64(),
            ),
        }
    )


def sql_has_parent() -> str:
    return f"""{_join_field_scored_sql()},
child AS (
  SELECT p.query_id, d2.doc_id, p.mscore
  FROM par p JOIN documents d2 ON d2.{JOIN_FIELD_COL} = p.parent
),
ranked AS (
  SELECT query_id, doc_id, mscore,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY mscore DESC, doc_id ASC) AS rank
  FROM child
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id,
       round(mscore, 6) AS score
FROM ranked WHERE rank <= {K} ORDER BY query_id, rank
"""


def q_rank_eval(sf_dir: str) -> pa.Table:
    """ES ``_rank_eval``: per-query ranking quality of the BM25 top-k
    against a rated-document set — precision@k (relevant retrieved /
    retrieved), recall@k (relevant retrieved / all relevant), and MRR
    (1/rank of the first relevant hit; 0 when none).  Ratings are
    request-side data in ES; here they derive deterministically as the
    conjunctive match set (docs containing EVERY analyzed query term),
    fetched through the constant_score path.  Counts are exact ints
    and each metric is ONE correctly-rounded division, so the mirror
    is bitwise.  Queries retrieving nothing emit no row (SQL GROUP
    BY)."""
    meta = get_index(sf_dir)
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    rows = []
    try:
        for qid, q in enumerate(QUERY_SET):
            hits = engine.query(q, k=K)
            if not hits:
                continue
            toks = sorted(set(analyze.tokenize(q)))
            andq = " ".join("+" + t for t in toks)
            relevant = {d for d, _ in engine.constant_score(andq, k=1 << 40)}
            ranks = [
                r for r, (d, _) in enumerate(hits, start=1) if d in relevant
            ]
            n_ret, n_rel, n_rr = len(hits), len(relevant), len(ranks)
            rows.append(
                (
                    qid, n_rel, n_ret, n_rr,
                    float(n_rr) / float(n_ret),
                    float(n_rr) / float(n_rel) if n_rel else 0.0,
                    1.0 / float(ranks[0]) if ranks else 0.0,
                )
            )
    finally:
        engine.shutdown()
    return pa.table(
        {
            "query_id": pa.array([r[0] for r in rows], pa.int64()),
            "n_relevant": pa.array([r[1] for r in rows], pa.int64()),
            "n_retrieved": pa.array([r[2] for r in rows], pa.int64()),
            "n_relevant_retrieved": pa.array([r[3] for r in rows], pa.int64()),
            "precision_k": pa.array([r[4] for r in rows], pa.float64()),
            "recall_k": pa.array([r[5] for r in rows], pa.float64()),
            "mrr": pa.array([r[6] for r in rows], pa.float64()),
        }
    )


def sql_rank_eval() -> str:
    base = sql_bm25(with_scores=False)
    # reuse the ranked CTE wholesale: strip sql_bm25's final SELECT and
    # append the evaluation layer (the CTE list is the shared contract)
    cut = base.rindex("SELECT query_id::BIGINT")
    prefix = base[:cut].rstrip()
    assert prefix.endswith(")")
    return f"""{prefix},
rk AS (SELECT query_id, doc_id, rank FROM ranked WHERE rank <= {K}),
qterm AS (SELECT DISTINCT query_id, term FROM q),
rel AS (
  SELECT qt.query_id, d.doc_id
  FROM qterm qt JOIN docs d ON list_contains(d.toks, qt.term)
  GROUP BY 1, 2
  HAVING count(*) = (SELECT count(*) FROM qterm x
                     WHERE x.query_id = qt.query_id)
),
m AS (
  SELECT r.query_id,
         (SELECT count(*) FROM rel WHERE rel.query_id = r.query_id)::BIGINT
           AS n_relevant,
         count(*)::BIGINT AS n_retrieved,
         count(rel.doc_id)::BIGINT AS n_relevant_retrieved,
         min(CASE WHEN rel.doc_id IS NOT NULL THEN r.rank END) AS first_rank
  FROM rk r
  LEFT JOIN rel ON rel.query_id = r.query_id AND rel.doc_id = r.doc_id
  GROUP BY 1
)
SELECT query_id::BIGINT AS query_id, n_relevant, n_retrieved,
       n_relevant_retrieved,
       n_relevant_retrieved::DOUBLE / n_retrieved::DOUBLE AS precision_k,
       CASE WHEN n_relevant > 0
            THEN n_relevant_retrieved::DOUBLE / n_relevant::DOUBLE
            ELSE CAST(0 AS DOUBLE) END AS recall_k,
       CASE WHEN first_rank IS NOT NULL
            THEN CAST(1.0 AS DOUBLE) / first_rank::DOUBLE
            ELSE CAST(0 AS DOUBLE) END AS mrr
FROM m ORDER BY query_id
"""


def q_top_metrics(sf_dir: str) -> pa.Table:
    """ES ``top_metrics`` inside a terms agg: per (query, lang) bucket
    of the FULL match set, the doc with the max ``n_chars`` (doc_id
    asc on ties) and its ``source`` metric — the "fields of the newest
    doc per group" workload.  Winners carry their metrics from the
    server, so the driver merge is a pure re-cut.  Runs the full
    query-string surface via FACET_SET."""
    engine = _facet_engine(sf_dir)
    rows = []
    try:
        for qid, q in enumerate(FACET_SET):
            hits = engine.top_metrics(
                q, "lang", "n_chars", metric_cols=("source",), k_per=1
            )
            for lang in sorted(hits):
                d, s, (src,) = hits[lang][0]
                rows.append((qid, lang, d, int(s), src))
    finally:
        engine.shutdown()
    return pa.table(
        {
            "query_id": pa.array([r[0] for r in rows], pa.int64()),
            "lang": pa.array([r[1] for r in rows], pa.string()),
            "doc_id": pa.array([r[2] for r in rows], pa.int64()),
            "n_chars": pa.array([r[3] for r in rows], pa.int64()),
            "source": pa.array([r[4] for r in rows], pa.string()),
        }
    )


def sql_top_metrics() -> str:
    prefix = _facet_sql_prefix(FACET_SET)
    return f"""{prefix},
ranked AS (
  SELECT mm.query_id, d.lang, d.doc_id, d.n_chars, d.source,
         row_number() OVER (PARTITION BY mm.query_id, d.lang
                            ORDER BY d.n_chars DESC, d.doc_id ASC) AS rn
  FROM mm JOIN documents d ON d.doc_id = mm.doc_id
  WHERE d.lang IS NOT NULL
)
SELECT query_id::BIGINT AS query_id, lang, doc_id, n_chars::BIGINT AS n_chars, source
FROM ranked WHERE rn = 1 ORDER BY query_id, lang
"""


MBP_SET: tuple[str, ...] = (
    "merge sor", "hash joi", "stream windo", "quantum zeb", "tab",
)


def q_match_bool_prefix(sf_dir: str) -> pa.Table:
    """ES ``match_bool_prefix`` (the search-as-you-type primitive):
    all analyzed terms but the last score as BM25 shoulds, the
    trailing token matches as a prefix expanded once against the tiny
    _termdf vocabulary and contributes a constant 1.0 per matching doc
    (ES's constant_score prefix rewrite) — union semantics, so
    prefix-only docs rank too.  The mirror re-derives the expansion
    independently with LIKE over the corpus term table."""
    meta = get_index(sf_dir)
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    try:
        results = [engine.match_bool_prefix(q, k=K) for q in MBP_SET]
    finally:
        engine.shutdown()
    return _topk_table(results, with_scores=True)


def sql_match_bool_prefix() -> str:
    tok = analyze.sql_token_array("text")
    contrib = scoring.sql_score_terms("(SELECT n_docs FROM g)", "(SELECT avgdl FROM g)")
    crows, prows = [], []
    for qid, q in enumerate(MBP_SET):
        toks = analyze.tokenize(q)
        complete, prefix = toks[:-1], toks[-1]
        for t in sorted(set(complete)):
            crows.append(f"({qid}, '{t}')")
        if not complete:
            crows.append(f"({qid}, '__none__')")  # VALUES needs a row; never matches
        prows.append(f"({qid}, '{prefix}')")
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
stats AS (SELECT doc_id, len(toks)::BIGINT AS doc_len FROM docs),
g AS (SELECT count(*)::BIGINT AS n_docs,
             sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM stats),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs) GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
qc(query_id, term) AS (VALUES {", ".join(crows)}),
qp(query_id, prefix) AS (VALUES {", ".join(prows)}),
exp AS (SELECT qp.query_id, df.term FROM qp
        JOIN df ON df.term LIKE qp.prefix || '%'),
pmatch AS (SELECT DISTINCT e.query_id, tf.doc_id
           FROM exp e JOIN tf ON tf.term = e.term),
cscored AS (
  SELECT qc.query_id, tf.doc_id,
         sum({contrib} ORDER BY qc.term) AS score
  FROM qc
  JOIN tf ON tf.term = qc.term
  JOIN df ON df.term = qc.term
  JOIN stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
),
allm AS (SELECT query_id, doc_id FROM pmatch
         UNION SELECT query_id, doc_id FROM cscored),
final AS (
  SELECT a.query_id, a.doc_id,
         coalesce(c.score, CAST(0 AS DOUBLE)) +
         CASE WHEN p.doc_id IS NOT NULL THEN CAST(1.0 AS DOUBLE)
              ELSE CAST(0 AS DOUBLE) END AS score
  FROM allm a
  LEFT JOIN cscored c ON c.query_id = a.query_id AND c.doc_id = a.doc_id
  LEFT JOIN pmatch p ON p.query_id = a.query_id AND p.doc_id = a.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, doc_id ASC) AS rank
  FROM final
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id,
       round(score, 6) AS score
FROM ranked WHERE rank <= {K} ORDER BY query_id, rank
"""


REGEXP_PATTERNS: tuple[str, ...] = (
    "wind[ow]+", "m[ae]rge", "jo.n", "(spark|stream)s?", "[a-c]a.*",
    "zz[0-9]+",  # no vocabulary match -> empty result set
)


def q_regexp_query(sf_dir: str) -> pa.Table:
    """ES ``regexp`` query: anchored RE2 over whole vocabulary terms,
    matched terms scored as a scoring_boolean BM25 term set.  The
    engine matches with pyarrow's RE2 (DuckDB's regex engine), so the
    mirror re-derives the expansion independently."""
    meta = get_index(sf_dir)
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    try:
        results = [engine.regexp_query(p, k=K) for p in REGEXP_PATTERNS]
    finally:
        engine.shutdown()
    return _topk_table(results, with_scores=True)


def sql_regexp_query() -> str:
    tok = analyze.sql_token_array("text")
    contrib = scoring.sql_score_terms(
        "(SELECT n_docs FROM g)", "(SELECT avgdl FROM g)"
    )
    vals = ", ".join(f"({i}, '{p}')" for i, p in enumerate(REGEXP_PATTERNS))
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
stats AS (SELECT doc_id, len(toks)::BIGINT AS doc_len FROM docs),
g AS (SELECT count(*)::BIGINT AS n_docs,
             sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM stats),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs) GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
pats(query_id, pat) AS (VALUES {vals}),
q AS (SELECT p.query_id, d.term FROM pats p
      JOIN df d ON regexp_full_match(d.term, p.pat)),
scored AS (
  SELECT q.query_id, tf.doc_id,
         sum({contrib} ORDER BY q.term) AS score
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, doc_id ASC) AS rank
  FROM scored
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id,
       round(score, 6) AS score
FROM ranked WHERE rank <= {K} ORDER BY query_id, rank
"""


CONSTANT_SCORE_BOOST = 1.5  # exact binary


def q_constant_score(sf_dir: str) -> pa.Table:
    """ES ``constant_score``: every matching doc scores exactly the
    boost — membership only (filter context), no BM25 work.  All
    scores tie, so the deterministic ranking is doc_id order: each
    disjoint server slice ships its first-k sorted ids, the driver
    re-cuts."""
    engine = _facet_engine(sf_dir)
    try:
        results = [
            engine.constant_score(q, boost=CONSTANT_SCORE_BOOST, k=K)
            for q in FACET_SET
        ]
    finally:
        engine.shutdown()
    return _topk_table(results, with_scores=True)


def sql_constant_score() -> str:
    prefix = _facet_sql_prefix(FACET_SET)
    return f"""{prefix},
ranked AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id ORDER BY doc_id) AS rank
  FROM mm
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id,
       CAST({CONSTANT_SCORE_BOOST!r} AS DOUBLE) AS score
FROM ranked WHERE rank <= {K} ORDER BY query_id, rank"""


PINNED_SPECS: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("hash join", (7, 3, 11)),
    ("merge sort", (999_999_999, 5, 2)),  # absent id 404s away
    ("zebra quantum", (1, 9)),
    ("xyzzyunseen", (4, 8)),  # organic matches nothing: pins still emit
)


def q_pinned(sf_dir: str) -> pa.Table:
    """ES ``pinned`` query: listed ids first in the given order (absent
    ids dropped), then organic BM25 matches with pinned ids deduped
    out, k rows total.  Pinned rows carry score 0.0 (ES's near-FLT_MAX
    sentinels are out of contract) and pinned=1."""
    from . import docmeta as docmeta_mod

    meta = get_index(sf_dir)
    docmeta_mod.ensure_docmeta(
        meta.index_dir, docs_path(sf_dir), ["lang", "source", "n_chars"]
    )
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    rows = {"query_id": [], "rank": [], "doc_id": [], "pinned": [], "score": []}
    try:
        for qid, (text, ids) in enumerate(PINNED_SPECS):
            for rank, (d, s, flag) in enumerate(
                engine.pinned(text, list(ids), k=K), start=1
            ):
                rows["query_id"].append(qid)
                rows["rank"].append(rank)
                rows["doc_id"].append(d)
                rows["pinned"].append(flag)
                rows["score"].append(s)
    finally:
        engine.shutdown()
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "pinned": pa.array(rows["pinned"], pa.int64()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6),
                type=pa.float64(),
            ),
        }
    )


def sql_pinned() -> str:
    """Mirror: pinned rows rank by given order over EXISTING ids;
    organic ranks continue after the pinned block, pinned ids excluded,
    cut to K total."""
    tok = analyze.sql_token_array("text")
    contrib = scoring.sql_score_terms(
        "(SELECT n_docs FROM g)", "(SELECT avgdl FROM g)"
    )
    qvals = ", ".join(
        f"({qid}, '{t}')"
        for qid, (text, _) in enumerate(PINNED_SPECS)
        for t in sorted(set(analyze.tokenize(text)))
    )
    pvals = ", ".join(
        f"({qid}, {i}, {d})"
        for qid, (_, ids) in enumerate(PINNED_SPECS)
        for i, d in enumerate(ids)
    )
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
stats AS (SELECT doc_id, len(toks)::BIGINT AS doc_len FROM docs),
g AS (SELECT count(*)::BIGINT AS n_docs,
             sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM stats),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs) GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
q(query_id, term) AS (VALUES {qvals}),
pin(query_id, pidx, doc_id) AS (VALUES {pvals}),
pe AS (
  SELECT pin.query_id, pin.doc_id,
         row_number() OVER (PARTITION BY pin.query_id ORDER BY pin.pidx) AS rank
  FROM pin JOIN documents d ON d.doc_id = pin.doc_id
),
scored AS (
  SELECT q.query_id, tf.doc_id,
         sum({contrib} ORDER BY q.term) AS score
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
),
org AS (
  SELECT s.query_id, s.doc_id, s.score,
         row_number() OVER (
           PARTITION BY s.query_id ORDER BY s.score DESC, s.doc_id ASC
         ) AS orank
  FROM scored s
  WHERE NOT EXISTS (
    SELECT 1 FROM pe WHERE pe.query_id = s.query_id AND pe.doc_id = s.doc_id
  )
),
np AS (SELECT query_id, count(*)::BIGINT AS n FROM pe GROUP BY 1)
SELECT * FROM (
  SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank,
         doc_id::BIGINT AS doc_id, 1::BIGINT AS pinned, 0.0::DOUBLE AS score
  FROM pe
  UNION ALL
  SELECT o.query_id::BIGINT, (o.orank + coalesce(np.n, 0))::BIGINT,
         o.doc_id::BIGINT, 0::BIGINT, round(o.score, 6)
  FROM org o LEFT JOIN np ON np.query_id = o.query_id
  WHERE o.orank <= {K} - coalesce(np.n, 0)
) ORDER BY query_id, rank
"""


def q_rare_terms_agg(sf_dir: str) -> pa.Table:
    """ES ``rare_terms`` aggregation: the long-tail inverse of the
    terms agg — per query, the ``source`` values matched by at most
    ``RARE_MAX_DOC_COUNT`` docs in the FULL match set, value-ordered.
    Rides the exact doc-sharded facet counts (each server counts its
    disjoint slice, driver adds), so the <=N cut is exact, not the
    sketchy ES default — at 100 TB the per-(query, value) count table
    is vocabulary-sized, never corpus-sized."""
    engine = _facet_engine(sf_dir)
    try:
        per_q = [engine.facets(q, facet_cols=["source"]) for q in FACET_SET]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "value": [], "cnt": []}
    for qid, (facets, _) in enumerate(per_q):
        src = facets.get("source", {})
        for v in sorted(src):
            if src[v] <= RARE_MAX_DOC_COUNT:
                rows["query_id"].append(qid)
                rows["value"].append(str(v))
                rows["cnt"].append(src[v])
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "value": pa.array(rows["value"], pa.string()),
            "cnt": pa.array(rows["cnt"], pa.int64()),
        }
    )


def sql_rare_terms_agg() -> str:
    prefix = _facet_sql_prefix(FACET_SET)
    return f"""{prefix}
SELECT mm.query_id::BIGINT AS query_id, d.source::VARCHAR AS value,
       count(*)::BIGINT AS cnt
FROM mm JOIN documents d ON d.doc_id = mm.doc_id
GROUP BY 1, 2 HAVING count(*) <= {RARE_MAX_DOC_COUNT}
ORDER BY query_id, value"""


def q_multi_terms_agg(sf_dir: str) -> pa.Table:
    """ES ``multi_terms`` aggregation: terms buckets keyed by a tuple
    of fields ((lang, source) here), ranked count-desc with a
    deterministic key tie-break, top ``MULTI_TERMS_TOP`` per query.
    Reuses the composite machinery's exact per-tuple counts (servers
    count disjoint doc slices; the rank cut happens on the merged
    bucket dict, which is key-cardinality-sized)."""
    engine = _facet_engine(sf_dir)
    rows = {"query_id": [], "rank": [], "lang": [], "source": [], "cnt": []}
    try:
        for qid, q in enumerate(FACET_SET):
            buckets, _ = engine.composite(q, ["lang", "source"], 10**9)
            ranked = sorted(buckets, key=lambda b: (-b[1], b[0]))
            for r, ((lang, source), cnt) in enumerate(
                ranked[:MULTI_TERMS_TOP], start=1
            ):
                rows["query_id"].append(qid)
                rows["rank"].append(r)
                rows["lang"].append(lang)
                rows["source"].append(source)
                rows["cnt"].append(cnt)
    finally:
        engine.shutdown()
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "lang": pa.array(rows["lang"], pa.string()),
            "source": pa.array(rows["source"], pa.string()),
            "cnt": pa.array(rows["cnt"], pa.int64()),
        }
    )


def sql_multi_terms_agg() -> str:
    prefix = _facet_sql_prefix(FACET_SET)
    return f"""{prefix},
buckets AS (
  SELECT mm.query_id, d.lang, d.source, count(*)::BIGINT AS cnt,
         row_number() OVER (PARTITION BY mm.query_id
                            ORDER BY count(*) DESC, d.lang, d.source) AS rank
  FROM mm JOIN documents d ON d.doc_id = mm.doc_id
  GROUP BY 1, 2, 3
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, lang, source, cnt
FROM buckets WHERE rank <= {MULTI_TERMS_TOP}
ORDER BY query_id, rank"""


TOP_HITS_PER = 3  # hits kept per group value


def q_search_top_hits(sf_dir: str) -> pa.Table:
    """ES top_hits-inside-terms-agg: for each query, the exact top
    ``TOP_HITS_PER`` matching docs per lang bucket by BM25 (score desc,
    doc_id asc) over the FULL match set — each server computes its
    local per-bucket top-k over its disjoint doc slice, the driver
    re-cut is exact."""
    engine = _facet_engine(sf_dir)
    try:
        per_q = [engine.top_hits(q, "lang", TOP_HITS_PER) for q in QUERY_SET]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "lang": [], "rank": [], "doc_id": [], "score": []}
    for qid, hits in enumerate(per_q):
        for lang in sorted(hits):
            for rank, (doc_id, score) in enumerate(hits[lang], start=1):
                rows["query_id"].append(qid)
                rows["lang"].append(lang)
                rows["rank"].append(rank)
                rows["doc_id"].append(doc_id)
                rows["score"].append(score)
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "lang": pa.array(rows["lang"], pa.string()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6),
                type=pa.float64(),
            ),
        }
    )


def sql_search_top_hits() -> str:
    """Mirror: the bm25 scored CTE joined to documents, row_number per
    (query, lang) — the engine's TAAT sum order matches
    ``sum(contrib ORDER BY q.term)`` (proven bitwise by bm25_topk_scores)."""
    tok = analyze.sql_token_array("text")
    contrib = scoring.sql_score_terms("(SELECT n_docs FROM g)", "(SELECT avgdl FROM g)")
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
stats AS (SELECT doc_id, len(toks)::BIGINT AS doc_len FROM docs),
g AS (SELECT count(*)::BIGINT AS n_docs,
             sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM stats),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs) GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
q(query_id, term) AS (VALUES {_query_terms_values()}),
scored AS (
  SELECT q.query_id, tf.doc_id,
         sum({contrib} ORDER BY q.term) AS score
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
),
ranked AS (
  SELECT s.query_id, d.lang, s.doc_id, s.score,
         row_number() OVER (PARTITION BY s.query_id, d.lang
                            ORDER BY s.score DESC, s.doc_id ASC) AS rank
  FROM scored s JOIN documents d ON d.doc_id = s.doc_id
)
SELECT query_id::BIGINT AS query_id, lang, rank::BIGINT AS rank, doc_id,
       round(score, 6) AS score
FROM ranked WHERE rank <= {TOP_HITS_PER} ORDER BY query_id, lang, rank
"""


def q_explain_scores(sf_dir: str) -> pa.Table:
    """ES explain API: for each query's rank-1 hit, the per-term BM25
    contribution breakdown — (term, tf, doc_len, contrib) whose sum IS
    the hit's score bitwise (same idf * u kernel, no re-derivation).
    Doc-sharded: only the server slice holding the doc emits rows."""
    engine = _facet_engine(sf_dir)
    rows = {
        "query_id": [], "doc_id": [], "term": [],
        "tf": [], "doc_len": [], "contrib": [],
    }
    try:
        for qid, q in enumerate(QUERY_SET):
            top = engine.query(q, k=1)
            if not top:
                continue
            doc_id = top[0][0]
            for term, tf, dl, contrib in engine.explain(q, doc_id):
                rows["query_id"].append(qid)
                rows["doc_id"].append(doc_id)
                rows["term"].append(term)
                rows["tf"].append(tf)
                rows["doc_len"].append(dl)
                rows["contrib"].append(contrib)
    finally:
        engine.shutdown()
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "term": pa.array(rows["term"], pa.string()),
            "tf": pa.array(rows["tf"], pa.int64()),
            "doc_len": pa.array(rows["doc_len"], pa.int64()),
            "contrib": pa.array(
                np.round(np.array(rows["contrib"], dtype=np.float64), 6),
                type=pa.float64(),
            ),
        }
    )


def sql_explain_scores() -> str:
    """Mirror: the bm25 scored CTE picks each query's rank-1 doc, then
    the UNSUMMED per-term contribution expression (the same
    sql_score_terms kernel) emits one row per matching query term."""
    tok = analyze.sql_token_array("text")
    contrib = scoring.sql_score_terms("(SELECT n_docs FROM g)", "(SELECT avgdl FROM g)")
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
stats AS (SELECT doc_id, len(toks)::BIGINT AS doc_len FROM docs),
g AS (SELECT count(*)::BIGINT AS n_docs,
             sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM stats),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs) GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
q(query_id, term) AS (VALUES {_query_terms_values()}),
scored AS (
  SELECT q.query_id, tf.doc_id,
         sum({contrib} ORDER BY q.term) AS score
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
),
top1 AS (
  SELECT query_id, doc_id FROM (
    SELECT query_id, doc_id,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY score DESC, doc_id ASC) AS rank
    FROM scored
  ) WHERE rank = 1
)
SELECT q.query_id::BIGINT AS query_id, t1.doc_id, q.term AS term,
       tf.tf::BIGINT AS tf, stats.doc_len::BIGINT AS doc_len,
       round({contrib}, 6) AS contrib
FROM q
JOIN top1 t1 ON t1.query_id = q.query_id
JOIN tf ON tf.term = q.term AND tf.doc_id = t1.doc_id
JOIN df ON df.term = q.term
JOIN stats ON stats.doc_id = t1.doc_id
ORDER BY query_id, q.term
"""


COLLAPSE_K = 4  # collapsed hits kept (>= distinct langs exercises ties)


def q_collapse_topk(sf_dir: str) -> pa.Table:
    """ES field collapsing: per query, the global top COLLAPSE_K hits
    keeping only the best doc per lang (one champion per group value,
    ranked by score desc / doc_id asc) — the top_hits fan-out with
    k_per=1, flattened and re-cut, so collapsing costs one aggregation
    pass, never a re-query."""
    engine = _facet_engine(sf_dir)
    try:
        per_q = [engine.collapse(q, "lang", COLLAPSE_K) for q in QUERY_SET]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "rank": [], "doc_id": [], "lang": [], "score": []}
    for qid, res in enumerate(per_q):
        for rank, (doc_id, score, lang) in enumerate(res, start=1):
            rows["query_id"].append(qid)
            rows["rank"].append(rank)
            rows["doc_id"].append(doc_id)
            rows["lang"].append(str(lang))
            rows["score"].append(score)
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "lang": pa.array(rows["lang"], pa.string()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6),
                type=pa.float64(),
            ),
        }
    )


CI_GROUPS = 3  # collapsed groups per query
CI_INNER = 3   # inner_hits per group


def q_collapse_inner(sf_dir: str) -> pa.Table:
    """ES field collapse WITH inner_hits: the top CI_GROUPS lang groups
    per query (ranked by their champion hit), each expanded to its
    exact top CI_INNER matching docs — one top_hits fan-out serves
    both the group ranking and the inner lists, never a re-query."""
    engine = _facet_engine(sf_dir)
    rows = {
        "query_id": [], "group_rank": [], "lang": [],
        "inner_rank": [], "doc_id": [], "score": [],
    }
    try:
        for qid, q in enumerate(QUERY_SET):
            th = engine.top_hits(q, "lang", CI_INNER)
            groups = sorted(
                ((g, hits) for g, hits in th.items() if hits),
                key=lambda gh: (-gh[1][0][1], gh[1][0][0]),
            )[:CI_GROUPS]
            for grank, (g, hits) in enumerate(groups, start=1):
                for irank, (d, s) in enumerate(hits, start=1):
                    rows["query_id"].append(qid)
                    rows["group_rank"].append(grank)
                    rows["lang"].append(str(g))
                    rows["inner_rank"].append(irank)
                    rows["doc_id"].append(d)
                    rows["score"].append(s)
    finally:
        engine.shutdown()
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "group_rank": pa.array(rows["group_rank"], pa.int64()),
            "lang": pa.array(rows["lang"], pa.string()),
            "inner_rank": pa.array(rows["inner_rank"], pa.int64()),
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6),
                type=pa.float64(),
            ),
        }
    )


def sql_collapse_inner() -> str:
    """Mirror: per-(query, lang) inner ranking, group ranking by the
    champion row, both cut."""
    tok = analyze.sql_token_array("text")
    contrib = scoring.sql_score_terms("(SELECT n_docs FROM g)", "(SELECT avgdl FROM g)")
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
stats AS (SELECT doc_id, len(toks)::BIGINT AS doc_len FROM docs),
g AS (SELECT count(*)::BIGINT AS n_docs,
             sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM stats),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs) GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
q(query_id, term) AS (VALUES {_query_terms_values()}),
scored AS (
  SELECT q.query_id, tf.doc_id,
         sum({contrib} ORDER BY q.term) AS score
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
),
inn AS (
  SELECT s.query_id, d.lang, s.doc_id, s.score,
         row_number() OVER (PARTITION BY s.query_id, d.lang
                            ORDER BY s.score DESC, s.doc_id ASC) AS inner_rank
  FROM scored s JOIN documents d ON d.doc_id = s.doc_id
),
grp AS (
  SELECT query_id, lang,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, doc_id ASC) AS group_rank
  FROM inn WHERE inner_rank = 1
)
SELECT i.query_id::BIGINT AS query_id, grp.group_rank::BIGINT AS group_rank,
       i.lang AS lang, i.inner_rank::BIGINT AS inner_rank, i.doc_id,
       round(i.score, 6) AS score
FROM inn i
JOIN grp ON grp.query_id = i.query_id AND grp.lang = i.lang
WHERE i.inner_rank <= {CI_INNER} AND grp.group_rank <= {CI_GROUPS}
ORDER BY query_id, group_rank, inner_rank
"""


def sql_collapse_topk() -> str:
    """Mirror: the bm25 scored CTE, rank-1-per-lang window, then the
    global re-rank of the champions."""
    tok = analyze.sql_token_array("text")
    contrib = scoring.sql_score_terms("(SELECT n_docs FROM g)", "(SELECT avgdl FROM g)")
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
stats AS (SELECT doc_id, len(toks)::BIGINT AS doc_len FROM docs),
g AS (SELECT count(*)::BIGINT AS n_docs,
             sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM stats),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs) GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
q(query_id, term) AS (VALUES {_query_terms_values()}),
scored AS (
  SELECT q.query_id, tf.doc_id,
         sum({contrib} ORDER BY q.term) AS score
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
),
champs AS (
  SELECT s.query_id, d.lang, s.doc_id, s.score,
         row_number() OVER (PARTITION BY s.query_id, d.lang
                            ORDER BY s.score DESC, s.doc_id ASC) AS grank
  FROM scored s JOIN documents d ON d.doc_id = s.doc_id
),
ranked AS (
  SELECT query_id, lang, doc_id, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, doc_id ASC) AS rank
  FROM champs WHERE grank = 1
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id, lang,
       round(score, 6) AS score
FROM ranked WHERE rank <= {COLLAPSE_K} ORDER BY query_id, rank
"""


RESCORE_WINDOW = 30  # first-pass candidates re-ranked by the rescorer
RESCORE_W = 0.001  # doc-length boost weight (exact in float64 both sides)


def q_rescore_topk(sf_dir: str) -> pa.Table:
    """ES rescore (query-then-rescore window): first-pass BM25 top
    ``RESCORE_WINDOW``, then a secondary scoring function
    ``score + RESCORE_W * n_chars`` re-ranks the window and the final
    top K is cut by (combined desc, doc_id asc).  Only the window's
    docmeta is gathered — the rescorer never touches the corpus."""
    from . import docmeta as docmeta_mod

    meta = get_index(sf_dir)
    docmeta_mod.ensure_docmeta(
        meta.index_dir, docs_path(sf_dir), ["lang", "source", "n_chars"]
    )
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    dm = docmeta_mod.DocMeta(meta.index_dir)
    try:
        results = [engine.query(q, k=RESCORE_WINDOW) for q in QUERY_SET]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "rank": [], "doc_id": [], "score": []}
    for qid, res in enumerate(results):
        if not res:
            continue
        ids = np.array([d for d, _ in res], dtype=np.int64)
        scores = np.array([s for _, s in res], dtype=np.float64)
        n_chars = dm.gather(ids, "n_chars").to_numpy(zero_copy_only=False).astype(np.float64)
        combined = scores + RESCORE_W * n_chars
        order = np.lexsort((ids, -combined))[:K]
        for rank, j in enumerate(order, start=1):
            rows["query_id"].append(qid)
            rows["rank"].append(rank)
            rows["doc_id"].append(int(ids[j]))
            rows["score"].append(float(combined[j]))
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6),
                type=pa.float64(),
            ),
        }
    )


def sql_rescore_topk() -> str:
    tok = analyze.sql_token_array("text")
    contrib = scoring.sql_score_terms("(SELECT n_docs FROM g)", "(SELECT avgdl FROM g)")
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
stats AS (SELECT doc_id, len(toks)::BIGINT AS doc_len FROM docs),
g AS (SELECT count(*)::BIGINT AS n_docs,
             sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM stats),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs) GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
q(query_id, term) AS (VALUES {_query_terms_values()}),
scored AS (
  SELECT q.query_id, tf.doc_id,
         sum({contrib} ORDER BY q.term) AS score
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
),
win AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, doc_id ASC) AS rank
  FROM scored
),
re AS (
  SELECT w.query_id, w.doc_id,
         w.score + CAST({RESCORE_W} AS DOUBLE) * d.n_chars::DOUBLE AS combined
  FROM win w JOIN documents d ON d.doc_id = w.doc_id
  WHERE w.rank <= {RESCORE_WINDOW}
),
rr AS (
  SELECT query_id, doc_id, combined,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY combined DESC, doc_id ASC) AS rank
  FROM re
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id,
       round(combined, 6) AS score
FROM rr WHERE rank <= {K} ORDER BY query_id, rank
"""


# function_score constants: saturation (ES rank_feature) and linear
# decay over the n_chars docmeta feature.  Both functions are a single
# division / multiply per doc (no transcendentals), so engine doubles
# are bitwise the SQL mirror's.
FSCORE_W = 2.5
FSCORE_PIVOT = 300
FSCORE_ORIGIN = 300
FSCORE_SCALE = 260


def _q_function_score(sf_dir: str, spec: dict) -> pa.Table:
    from . import docmeta as docmeta_mod

    meta = get_index(sf_dir)
    docmeta_mod.ensure_docmeta(
        meta.index_dir, docs_path(sf_dir), ["lang", "source", "n_chars"]
    )
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    try:
        results = [engine.function_score(q, spec, k=K) for q in QUERY_SET]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "rank": [], "doc_id": [], "score": []}
    for qid, res in enumerate(results):
        for rank, (doc_id, score) in enumerate(res, start=1):
            rows["query_id"].append(qid)
            rows["rank"].append(rank)
            rows["doc_id"].append(doc_id)
            rows["score"].append(score)
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6),
                type=pa.float64(),
            ),
        }
    )


def q_function_score_sat(sf_dir: str) -> pa.Table:
    """ES rank_feature (saturation): every matching doc's BM25 score
    gets ``+ w * n_chars/(n_chars+pivot)`` BEFORE the top-k cut — the
    feature changes the retrieval ranking itself, unlike rescore's
    window-only second pass."""
    return _q_function_score(
        sf_dir,
        {"kind": "saturation", "col": "n_chars", "w": FSCORE_W, "pivot": FSCORE_PIVOT},
    )


def q_function_score_decay(sf_dir: str) -> pa.Table:
    """ES function_score linear decay: ``score * max(0,
    scale-|n_chars-origin|)/scale`` over the full match set."""
    return _q_function_score(
        sf_dir,
        {
            "kind": "linear_decay",
            "col": "n_chars",
            "origin": FSCORE_ORIGIN,
            "scale": FSCORE_SCALE,
        },
    )


DFEAT_ORIGIN = 500
DFEAT_PIVOT = 200
DFEAT_W = 3.0


def q_distance_feature(sf_dir: str) -> pa.Table:
    """ES ``distance_feature`` query: docs closer to the origin on a
    stored numeric field get a bigger additive boost — ``score + w *
    pivot/(pivot+|n_chars-origin|)`` over the FULL match set (the
    recency/proximity-boost workload).  Rides the function_score
    server kernel: one docmeta gather + one division per doc, exact
    per-slice top-k re-cut."""
    return _q_function_score(
        sf_dir,
        {
            "kind": "distance_feature",
            "col": "n_chars",
            "w": DFEAT_W,
            "origin": DFEAT_ORIGIN,
            "pivot": DFEAT_PIVOT,
        },
    )


FVF_FACTOR = 0.1


def q_function_score_fvf(sf_dir: str) -> pa.Table:
    """ES function_score field_value_factor (combine: multiply,
    modifier: log1p): ``score * (factor * ln(1 + n_chars))`` over the
    FULL match set — the classic popularity/field-boost multiplier."""
    return _q_function_score(
        sf_dir,
        {
            "kind": "field_value_factor",
            "col": "n_chars",
            "factor": FVF_FACTOR,
            "modifier": "log1p",
        },
    )


def sql_function_score_fvf() -> str:
    return _sql_function_score(
        f"s.score * (CAST({FVF_FACTOR!r} AS DOUBLE) * ln(1 + d.n_chars))"
    )


def sql_distance_feature() -> str:
    return _sql_function_score(
        f"s.score + CAST({DFEAT_W} AS DOUBLE) * "
        f"(CAST({DFEAT_PIVOT} AS DOUBLE) / "
        f"(abs(d.n_chars - {DFEAT_ORIGIN}) + {DFEAT_PIVOT})::DOUBLE)"
    )


def _sql_function_score(combine_expr: str) -> str:
    tok = analyze.sql_token_array("text")
    contrib = scoring.sql_score_terms("(SELECT n_docs FROM g)", "(SELECT avgdl FROM g)")
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
stats AS (SELECT doc_id, len(toks)::BIGINT AS doc_len FROM docs),
g AS (SELECT count(*)::BIGINT AS n_docs,
             sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM stats),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs) GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
q(query_id, term) AS (VALUES {_query_terms_values()}),
scored AS (
  SELECT q.query_id, tf.doc_id,
         sum({contrib} ORDER BY q.term) AS score
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
),
fs AS (
  SELECT s.query_id, s.doc_id, {combine_expr} AS combined
  FROM scored s JOIN documents d ON d.doc_id = s.doc_id
),
ranked AS (
  SELECT query_id, doc_id, combined,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY combined DESC, doc_id ASC) AS rank
  FROM fs
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id,
       round(combined, 6) AS score
FROM ranked WHERE rank <= {K} ORDER BY query_id, rank
"""


def sql_function_score_sat() -> str:
    return _sql_function_score(
        f"s.score + CAST({FSCORE_W} AS DOUBLE) * "
        f"(d.n_chars::DOUBLE / (d.n_chars + {FSCORE_PIVOT})::DOUBLE)"
    )


def sql_function_score_decay() -> str:
    return _sql_function_score(
        f"s.score * (greatest({FSCORE_SCALE} - abs(d.n_chars - {FSCORE_ORIGIN}), 0)::DOUBLE"
        f" / CAST({FSCORE_SCALE} AS DOUBLE))"
    )


FSCORE_RAND_W = 2.0  # binary-exact blend weight for random_score


# terms_set: per-doc minimum_should_match = min(CAP, 1 + n_chars//DIV)
TERMS_SET_QUERIES: tuple[str, ...] = (
    "merge sort join hash",
    "window stream batch",
    "customer part key value",
    "group order column table scan",
)
TERMS_SET_DIV = 400
TERMS_SET_CAP = 3


def q_terms_set(sf_dir: str) -> pa.Table:
    """ES ``terms_set`` query: BM25-scored term-OR match where each
    doc's own minimum_should_match comes from a doc field
    (``minimum_should_match_field``): required = min(CAP, 1 +
    n_chars // DIV) — longer docs must match more of the term set.
    The integer field math is exact both sides; scores are the
    standard sorted-term TAAT sum (bitwise the SQL mirror)."""
    from . import docmeta as docmeta_mod

    meta = get_index(sf_dir)
    docmeta_mod.ensure_docmeta(
        meta.index_dir, docs_path(sf_dir), ["lang", "source", "n_chars"]
    )
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    spec = {"col": "n_chars", "div": TERMS_SET_DIV, "cap": TERMS_SET_CAP}
    try:
        results = [engine.terms_set(q, spec, k=K) for q in TERMS_SET_QUERIES]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "rank": [], "doc_id": [], "score": []}
    for qid, res in enumerate(results):
        for rank, (doc_id, score) in enumerate(res, start=1):
            rows["query_id"].append(qid)
            rows["rank"].append(rank)
            rows["doc_id"].append(doc_id)
            rows["score"].append(score)
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6),
                type=pa.float64(),
            ),
        }
    )


def sql_terms_set() -> str:
    tok = analyze.sql_token_array("text")
    contrib = scoring.sql_score_terms("(SELECT n_docs FROM g)", "(SELECT avgdl FROM g)")
    qrows = []
    for qid, q in enumerate(TERMS_SET_QUERIES):
        for t in sorted(set(analyze.tokenize(q))):
            qrows.append(f"({qid}, '{t}')")
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
stats AS (SELECT doc_id, len(toks)::BIGINT AS doc_len FROM docs),
g AS (SELECT count(*)::BIGINT AS n_docs,
             sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM stats),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs) GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
q(query_id, term) AS (VALUES {", ".join(qrows)}),
scored AS (
  SELECT q.query_id, tf.doc_id,
         sum({contrib} ORDER BY q.term) AS score,
         count(*)::BIGINT AS nmatched
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
),
kept AS (
  SELECT s.query_id, s.doc_id, s.score
  FROM scored s JOIN documents d ON d.doc_id = s.doc_id
  WHERE s.nmatched >= least({TERMS_SET_CAP}, 1 + d.n_chars // {TERMS_SET_DIV})
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, doc_id ASC) AS rank
  FROM kept
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id,
       round(score, 6) AS score
FROM ranked WHERE rank <= {K} ORDER BY query_id, rank
"""


def q_function_score_random(sf_dir: str) -> pa.Table:
    """ES function_score ``random_score`` (seeded): a deterministic
    per-doc value r = md5_lower64(str(doc_id)) / 2^64 blended as
    ``score + w*r`` over the FULL match set — reproducible "random"
    tie-spreading that is rerun-stable and pool-invariant (ES seeds on
    _seq_no similarly; a true RNG would be neither).  The uint64 ->
    double cast and the power-of-two scaling are correctly rounded, so
    scores are bitwise vs the SQL mirror."""
    return _q_function_score(sf_dir, {"kind": "random", "w": FSCORE_RAND_W})


def sql_function_score_random() -> str:
    return _sql_function_score(
        f"s.score + CAST({FSCORE_RAND_W} AS DOUBLE) * "
        "(md5_number_lower(s.doc_id::VARCHAR)::DOUBLE / 18446744073709551616.0)"
    )


# Multi-field query set: unscoped terms score in BOTH fields
# (most_fields sum), field:term scopes to one analyzed field, -term
# drops docs containing it in ANY field.
MULTIFIELD_SET: tuple[str, ...] = (
    "join table",
    "title:join",
    "merge title:sort",
    "window -table",
    "title:spark zebra",
    "customer part key",
    "title:key text:value",
    "hash join title:merge",
    "stream batch window",
    "title:window title:sort column",
)


def _docs_with_title(sf_dir: str) -> ray.data.Dataset:
    """documents + a derived second analyzed field: title = the first 8
    kept tokens (space-joined; re-tokenizing reproduces them exactly,
    and the SQL mirror is list_slice(toks, 1, 8))."""
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id", "text"])

    def with_title(batch: pa.Table) -> pa.Table:
        toks = analyze.token_array(batch["text"])
        title = pc.binary_join(pc.list_slice(toks, 0, 8), pa.scalar(" "))
        return pa.table(
            {"doc_id": batch["doc_id"], "text": batch["text"], "title": title}
        )

    return ds.map_batches(with_title, batch_format="pyarrow", zero_copy_batch=True)


def get_multifield_index(sf_dir: str) -> str:
    from . import multifield

    def build_mf(sf_dir: str, idx: str) -> None:
        multifield.build_multifield(
            _docs_with_title(sf_dir), idx, ["text", "title"], id_col="doc_id"
        )

    return _cached_index("mf", sf_dir, build_mf, marker="_multifield.json")


def q_bm25_multifield(sf_dir: str) -> pa.Table:
    """Multi-field BM25 (the reference's many-analyzed-fields mappings):
    per-field sub-indexes, most_fields cross-field score sum, field:term
    routing — served by the doc-sharded MultiFieldEngine pool."""
    return _bm25_multifield(sf_dir, algo="taat")


def q_multifield_wand(sf_dir: str) -> pa.Table:
    """The SAME multifield query set served with block-max WAND
    (cb.wand.topk_wand_fields) on the doc-sharded pool — bitwise equal
    to TAAT by construction, so it shares q_bm25_multifield's SQL
    oracle: the driver value-hash gate checks the WAND scorer itself
    (ineligible clauses in the set, e.g. the exclusion query, exercise
    the in-server TAAT fallback inside the same green entry)."""
    return _bm25_multifield(sf_dir, algo="wand")


def _bm25_multifield(sf_dir: str, algo: str) -> pa.Table:
    from . import multifield

    idx = get_multifield_index(sf_dir)
    engine = multifield.MultiFieldEngine(idx, num_servers=2)
    try:
        results = [engine.search(q, k=K, algo=algo) for q in MULTIFIELD_SET]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "rank": [], "doc_id": [], "score": []}
    for qid, res in enumerate(results):
        for rank, (doc_id, score) in enumerate(res, start=1):
            rows["query_id"].append(qid)
            rows["rank"].append(rank)
            rows["doc_id"].append(doc_id)
            rows["score"].append(score)
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], type=pa.int64()),
            "rank": pa.array(rows["rank"], type=pa.int64()),
            "doc_id": pa.array(rows["doc_id"], type=pa.int64()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6), type=pa.float64()
            ),
        }
    )


def get_multifield_federation(sf_dir: str) -> str:
    """Per-day MULTIFIELD federation over documents (text + derived
    title): the streaming ES-parity closure — mapping fields -> per-day
    sub-indexes (one per analyzed field) -> cross-index search."""
    from . import federated

    def build_fed(sf_dir: str, fed_dir: str) -> None:
        ds = _docs_with_title(sf_dir).map_batches(_with_fed_ts, batch_format="pyarrow")
        federated.build_federation(
            ds, fed_dir, fields=["text", "title"], id_col="doc_id",
            ts_col="ts", prefix="cbmf-",
        )

    return _cached_index("mffed", sf_dir, build_fed, marker="fed.json")


def q_federated_multifield(sf_dir: str) -> pa.Table:
    """Multi-field BM25 across the per-day federation: per-field
    fed-global (N, avgdl, df) make the merged most_fields top-k bitwise
    the monolithic multifield result, so the monolithic multifield SQL
    is the oracle — end-to-end check of the per-field routing split,
    per-field df merges, and the cross-index merge."""
    from . import federated

    fed_dir = get_multifield_federation(sf_dir)
    eng = federated.FederatedMultiFieldEngine(fed_dir)
    try:
        results = [eng.search(q, k=K) for q in MULTIFIELD_SET]
    finally:
        eng.shutdown()
    rows = {"query_id": [], "rank": [], "doc_id": [], "score": []}
    for qid, res in enumerate(results):
        for rank, (doc_id, score) in enumerate(res, start=1):
            rows["query_id"].append(qid)
            rows["rank"].append(rank)
            rows["doc_id"].append(doc_id)
            rows["score"].append(score)
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], type=pa.int64()),
            "rank": pa.array(rows["rank"], type=pa.int64()),
            "doc_id": pa.array(rows["doc_id"], type=pa.int64()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6), type=pa.float64()
            ),
        }
    )


def sql_bm25_multifield() -> str:
    """Oracle generated by the SAME term router the engine uses: per
    field, the standard single-field BM25 CTEs over that field's token
    lists; the total is coalesce(text)+coalesce(title) in the engine's
    fixed field order (same two-addend float sum)."""
    from . import multifield

    tok = analyze.sql_token_array("text")
    q_rows = {"text": [], "title": []}
    excl_rows = []
    for qid, q in enumerate(MULTIFIELD_SET):
        field_terms, excluded = multifield.route_terms(q, ["text", "title"])
        for f, terms in field_terms.items():
            for t in terms:
                q_rows[f].append(f"({qid}, '{t}')")
        for t in excluded:
            excl_rows.append(f"({qid}, '{t}')")
    if not excl_rows:
        excl_rows.append("(-1, '')")
    per_field = []
    for f in ("text", "title"):
        contrib = scoring.sql_score_terms(
            f"(SELECT n_docs FROM g_{f})", f"(SELECT avgdl FROM g_{f})"
        )
        per_field.append(f"""
s_{f} AS (SELECT doc_id, len(t_{f})::BIGINT AS doc_len FROM f),
g_{f} AS (SELECT count(*)::BIGINT AS n_docs,
              sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM s_{f}),
tf_{f} AS (SELECT doc_id, term, count(*)::BIGINT AS tf
           FROM (SELECT doc_id, unnest(t_{f}) AS term FROM f) GROUP BY 1, 2),
df_{f} AS (SELECT term, count(*)::BIGINT AS df FROM tf_{f} GROUP BY 1),
q_{f}(query_id, term) AS (VALUES {', '.join(q_rows[f])}),
scored_{f} AS (
  SELECT q.query_id, tf.doc_id, sum({contrib} ORDER BY q.term) AS score
  FROM q_{f} q
  JOIN tf_{f} tf ON tf.term = q.term
  JOIN df_{f} df ON df.term = q.term
  JOIN s_{f} stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
)""")
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
f AS (SELECT doc_id, toks AS t_text, list_slice(toks, 1, 8) AS t_title FROM docs),
{','.join(per_field)},
m AS (
  SELECT query_id, doc_id FROM scored_text
  UNION
  SELECT query_id, doc_id FROM scored_title
),
excl(query_id, term) AS (VALUES {', '.join(excl_rows)}),
dropped AS (
  SELECT e.query_id, tf.doc_id FROM excl e JOIN tf_text tf ON tf.term = e.term
  UNION
  SELECT e.query_id, tf.doc_id FROM excl e JOIN tf_title tf ON tf.term = e.term
),
total AS (
  SELECT m.query_id, m.doc_id,
         coalesce(st.score, CAST(0 AS DOUBLE)) + coalesce(sti.score, CAST(0 AS DOUBLE)) AS score
  FROM m
  LEFT JOIN scored_text st ON st.query_id = m.query_id AND st.doc_id = m.doc_id
  LEFT JOIN scored_title sti ON sti.query_id = m.query_id AND sti.doc_id = m.doc_id
  WHERE NOT EXISTS (
    SELECT 1 FROM dropped d WHERE d.query_id = m.query_id AND d.doc_id = m.doc_id
  )
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id ASC) AS rank
  FROM total
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id,
       round(score, 6) AS score
FROM ranked WHERE rank <= {K} ORDER BY query_id, rank
"""


#  Multi-field query strings: phrases (unscoped -> any analyzed field,
#  field:"..." -> that field), docmeta filter context (lang/source), and
#  exclusions — the full search surface over the two-field index.
MF_QS_SET: tuple[str, ...] = (
    '"merge sort" window',
    'title:"merge sort"',
    "hash join lang:en",
    '"hash join" lang:fr',
    'text:"table scan" column',
    'window -"merge sort"',
    '"data stream" source:src1',
    "title:join merge lang:de",
    'column row -table source:src2',
    '"group order" title:group',
    # query-language v2 on multifield: ^boosts (term + phrase) and +required
    "hash^2 join",
    "+window merge sort",
    'title:join^3 merge',
    '"merge sort"^2 window +group',
    # wildcard / fuzzy atoms, expanded per FIELD vocabulary
    "mer* window",
    "joni~1 hash",
    'tabl*^2 scan',
    "sort~1 merge^2",
    # minimum_should_match over (expanded) scored terms
    "hash join window msm:2",
    "mer* scan msm:2",
)


def _ensure_mf_docmeta(sf_dir: str, idx: str) -> None:
    """One docmeta column set shared by every multifield entry (filters
    use lang/source, aggregations also read n_chars) — a single cached
    build instead of per-entry col-set flip-flops."""
    from . import docmeta as docmeta_mod, multifield

    docmeta_mod.ensure_docmeta(
        multifield.field_dir(idx, "text"), docs_path(sf_dir),
        ["lang", "source", "n_chars"],
    )


def q_multifield_querystring(sf_dir: str) -> pa.Table:
    """Query strings over the multi-field index: most_fields scoring,
    any-field + field-scoped required phrases, negated phrases, docmeta
    filters — served by the doc-sharded MultiFieldEngine pool."""
    from . import docmeta as docmeta_mod, multifield

    idx = get_multifield_index(sf_dir)
    _ensure_mf_docmeta(sf_dir, idx)
    engine = multifield.MultiFieldEngine(idx, num_servers=2)
    try:
        results = [engine.search(q, k=K) for q in MF_QS_SET]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "rank": [], "doc_id": [], "score": []}
    for qid, res in enumerate(results):
        for rank, (doc_id, score) in enumerate(res, start=1):
            rows["query_id"].append(qid)
            rows["rank"].append(rank)
            rows["doc_id"].append(doc_id)
            rows["score"].append(score)
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], type=pa.int64()),
            "rank": pa.array(rows["rank"], type=pa.int64()),
            "doc_id": pa.array(rows["doc_id"], type=pa.int64()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6), type=pa.float64()
            ),
        }
    )


def _mf_sql_prefix(queries) -> str:
    """Shared multifield-oracle WITH-prefix, generated per query by the
    SAME router the engine uses (multifield.route_query): per-field BM25
    CTEs + most_fields sum; phrases -> token-joined LIKE per field
    (any-field = OR, scoped = that field); filters -> metadata equality;
    exclusions -> NOT LIKE in every field.  Ends at ``m(query_id,
    doc_id)`` — each query's FULL match set — so the ranked top-k
    (sql_multifield_querystring) and the aggregations
    (sql_multifield_facets / sql_multifield_histogram) share one match
    definition, exactly like the engine shares _match_fields."""
    from . import multifield, querylang

    tok = analyze.sql_token_array("text")
    fields = ("text", "title")
    q_rows = {f: [] for f in fields}
    member_selects = []
    jalias = {"text": "jt", "title": "jti"}
    for qid, q in enumerate(queries):
        r = multifield.route_query(q, list(fields))
        for f in fields:
            aid = 0
            # exact atoms: the terms originally scoped to this field, at
            # their parse weight (sorted, ids first — the engine's
            # accumulation order: base weight, then atoms in query order)
            for t in r["field_terms"][f]:
                w = float(r.get("weights", {}).get(t, 1.0))
                q_rows[f].append(
                    f"({qid}, {aid}, 'e', '{t}', 0, CAST({w!r} AS DOUBLE))"
                )
                aid += 1
            for atom in r.get("expands") or ():
                if atom["kind"] == "wildcard":
                    rx = querylang.wildcard_regex(atom["pattern"])
                    q_rows[f].append(
                        f"({qid}, {aid}, 'w', '{rx}', 0, "
                        f"CAST({atom['boost']!r} AS DOUBLE))"
                    )
                else:
                    q_rows[f].append(
                        f"({qid}, {aid}, 'f', '{atom['term']}', {atom['dist']}, "
                        f"CAST({atom['boost']!r} AS DOUBLE))"
                    )
                aid += 1
        preds = []
        # +required: the term must appear in >=1 of its scoped fields
        for t in r.get("required") or ():
            scoped = [f for f in fields if t in r["field_terms"][f]]
            ors = " OR ".join(f"{jalias[f]}.s LIKE '% {t} %'" for f in scoped)
            preds.append(f"({ors})")
        for ph in r["any_phrases"]:
            p = " ".join(ph)
            ors = " OR ".join(f"{jalias[f]}.s LIKE '% {p} %'" for f in fields)
            preds.append(f"({ors})")
        for f, ph in r["field_phrases"]:
            preds.append(f"{jalias[f]}.s LIKE '% {' '.join(ph)} %'")
        for ph in r["excluded_phrases"]:
            p = " ".join(ph)
            for f in fields:
                preds.append(f"{jalias[f]}.s NOT LIKE '% {p} %'")
        for t in r["excluded"]:
            for f in fields:
                preds.append(f"{jalias[f]}.s NOT LIKE '% {t} %'")
        for col, val in r["filters"].items():
            preds.append(f"d.{col} = '{val}'")
        msm = int(r.get("minimum_should_match") or 0)
        if msm > 1:
            # distinct EXPANDED scored terms matched in any field, per doc
            per_f = " UNION ".join(
                f"SELECT tf.doc_id, q.term FROM q_{f} q "
                f"JOIN tf_{f} tf ON tf.term = q.term WHERE q.query_id = {qid}"
                for f in fields
            )
            preds.append(
                f"d.doc_id IN (SELECT x.doc_id FROM ({per_f}) x "
                f"GROUP BY x.doc_id HAVING count(DISTINCT x.term) >= {msm})"
            )
        where = (" AND " + " AND ".join(preds)) if preds else ""
        member_selects.append(
            f"SELECT {qid} AS query_id, d.doc_id FROM documents d "
            f"JOIN joined_text jt ON jt.doc_id = d.doc_id "
            f"JOIN joined_title jti ON jti.doc_id = d.doc_id WHERE TRUE{where}"
        )
    for f in fields:
        if not q_rows[f]:
            q_rows[f].append("(-1, 0, 'e', '', 0, CAST(1.0 AS DOUBLE))")
    members = " UNION ALL ".join(member_selects)
    per_field = []
    for f in fields:
        contrib_f = scoring.sql_score_terms_weighted(
            f"(SELECT n_docs FROM g_{f})", f"(SELECT avgdl FROM g_{f})", "q.w"
        )
        per_field.append(f"""
s_{f} AS (SELECT doc_id, len(t_{f})::BIGINT AS doc_len FROM f),
g_{f} AS (SELECT count(*)::BIGINT AS n_docs,
              sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM s_{f}),
tf_{f} AS (SELECT doc_id, term, count(*)::BIGINT AS tf
           FROM (SELECT doc_id, unnest(t_{f}) AS term FROM f) GROUP BY 1, 2),
df_{f} AS (SELECT term, count(*)::BIGINT AS df FROM tf_{f} GROUP BY 1),
qatom_{f}(query_id, atom_id, kind, pat, dist, w) AS (VALUES {', '.join(q_rows[f])}),
q_{f} AS (
  SELECT a.query_id, df.term, sum(a.w ORDER BY a.atom_id) AS w
  FROM qatom_{f} a JOIN df_{f} df ON (
       (a.kind = 'e' AND df.term = a.pat)
    OR (a.kind = 'w' AND regexp_full_match(df.term, a.pat))
    OR (a.kind = 'f' AND abs(length(df.term) - length(a.pat)) <= a.dist
        AND damerau_levenshtein(df.term, a.pat) <= a.dist)
  )
  GROUP BY 1, 2
),
scored_{f} AS (
  SELECT q.query_id, tf.doc_id, sum({contrib_f} ORDER BY q.term) AS score
  FROM q_{f} q
  JOIN tf_{f} tf ON tf.term = q.term
  JOIN df_{f} df ON df.term = q.term
  JOIN s_{f} stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
)""")
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
f AS (SELECT doc_id, toks AS t_text, list_slice(toks, 1, 8) AS t_title FROM docs),
{','.join(per_field)},
joined_text AS (SELECT doc_id, ' ' || array_to_string(t_text, ' ') || ' ' AS s FROM f),
joined_title AS (SELECT doc_id, ' ' || array_to_string(t_title, ' ') || ' ' AS s FROM f),
base AS (
  SELECT query_id, doc_id FROM scored_text
  UNION
  SELECT query_id, doc_id FROM scored_title
),
preds AS ({members}),
m AS (SELECT b.query_id, b.doc_id FROM base b
      JOIN preds p ON p.query_id = b.query_id AND p.doc_id = b.doc_id)"""


XF_SET: tuple[str, ...] = (
    "hash join",
    "merge sort window",
    "hash^2 join",
    "table scan",
    "group order column",
)


CF_SET: tuple[str, ...] = (
    "hash join",
    "merge sort window",
    "customer table",
    "stream batch spark",
)
CF_TITLE_W = 2.0


def q_combined_fields(sf_dir: str) -> pa.Table:
    """ES ``combined_fields`` (true BM25F, term-centric): text+title
    merged into one synthetic field — tf'/dl' are field-weighted sums
    (title at weight 2), idf from the combined any-field df summed
    exactly across disjoint slices, one saturation curve per term."""
    from . import multifield

    idx = get_multifield_index(sf_dir)
    engine = multifield.MultiFieldEngine(idx, num_servers=2)
    try:
        results = [
            engine.combined_fields(q, k=K, field_weights={"title": CF_TITLE_W})
            for q in CF_SET
        ]
    finally:
        engine.shutdown()
    return _topk_table(results, with_scores=True)


def sql_combined_fields() -> str:
    """Independent BM25F mirror: per-field tf/len CTEs off the same
    token arrays (title = first 8 tokens), weighted-sum tf'/dl',
    any-field distinct df, combined avgdl from exact totals, one
    sql_score_terms saturation per (term, doc)."""
    tok = analyze.sql_token_array("text")
    w2 = f"CAST({CF_TITLE_W!r} AS DOUBLE)"
    w1 = "CAST(1.0 AS DOUBLE)"
    contrib = scoring.sql_score_terms(
        "(SELECT n FROM gl)",
        f"(SELECT ({w1} * tot1 + {w2} * tot2) / n FROM gl)",
    )
    vals = ", ".join(
        f"({qid}, '{t}')"
        for qid, q in enumerate(CF_SET)
        for t in sorted(set(analyze.tokenize(q)))
    )
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
fz AS (SELECT doc_id, toks AS t1, list_slice(toks, 1, 8) AS t2 FROM docs),
un1 AS (SELECT doc_id, unnest(t1) AS w FROM fz),
un2 AS (SELECT doc_id, unnest(t2) AS w FROM fz),
tf1 AS (SELECT doc_id, w, count(*)::BIGINT AS c FROM un1 GROUP BY 1, 2),
tf2 AS (SELECT doc_id, w, count(*)::BIGINT AS c FROM un2 GROUP BY 1, 2),
lenf AS (SELECT doc_id, len(t1)::BIGINT AS l1, len(t2)::BIGINT AS l2 FROM fz),
gl AS (SELECT count(*)::BIGINT AS n, sum(l1)::BIGINT AS tot1,
              sum(l2)::BIGINT AS tot2 FROM lenf),
cdf AS (SELECT w AS term, count(DISTINCT doc_id)::BIGINT AS df
        FROM (SELECT doc_id, w FROM un1 UNION SELECT doc_id, w FROM un2)
        GROUP BY 1),
tfc AS (
  SELECT coalesce(a.doc_id, b.doc_id) AS doc_id, coalesce(a.w, b.w) AS w,
         {w1} * coalesce(a.c, 0) + {w2} * coalesce(b.c, 0) AS tf
  FROM tf1 a FULL OUTER JOIN tf2 b ON b.doc_id = a.doc_id AND b.w = a.w
),
dlc AS (SELECT doc_id, {w1} * l1 + {w2} * l2 AS doc_len FROM lenf),
q(query_id, term) AS (VALUES {vals}),
scored AS (
  SELECT q.query_id, t.doc_id,
         sum({contrib} ORDER BY q.term) AS score
  FROM q
  JOIN tfc t ON t.w = q.term
  JOIN cdf ON cdf.term = q.term
  JOIN dlc ON dlc.doc_id = t.doc_id
  GROUP BY 1, 2
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, doc_id ASC) AS rank
  FROM scored
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id,
       round(score, 6) AS score
FROM ranked WHERE rank <= {K} ORDER BY query_id, rank
"""


def q_multifield_crossfields(sf_dir: str) -> pa.Table:
    """ES ``multi_match: cross_fields`` (the third multi_match mode,
    completing the trio): the analyzed fields searched as one
    conceptual field — per term, df blends as the max per-field df and
    a doc scores the term at its best field (blended_idf * max u_f),
    summed in term order.  Plain scored terms (+^boosts); the combine
    travels inside the routed clause set like the other modes."""
    from . import multifield

    idx = get_multifield_index(sf_dir)
    engine = multifield.MultiFieldEngine(idx, num_servers=2)
    try:
        results = [
            engine.search(q, k=K, mode="cross_fields") for q in XF_SET
        ]
    finally:
        engine.shutdown()
    return _topk_table(results, with_scores=True)


def sql_multifield_crossfields() -> str:
    """Independent mirror of the cross_fields contract: per-field
    tf/df/dl CTEs, blended df = greatest of the per-field dfs, u kept
    per field (own dl/avgdl), per-(term, doc) greatest-u, term-ordered
    sum of (blended_idf * w) * best_u."""
    from . import multifield, querylang, scoring as _scoring

    tok = analyze.sql_token_array("text")
    k1 = f"CAST({_scoring.K1} AS DOUBLE)"
    b = f"CAST({_scoring.B} AS DOUBLE)"
    one = "CAST(1.0 AS DOUBLE)"
    half = "CAST(0.5 AS DOUBLE)"
    q_rows = []
    for qid, q in enumerate(XF_SET):
        r = multifield.route_query(q, ["text", "title"])
        terms = sorted({t for ts in r["field_terms"].values() for t in ts})
        for t in terms:
            w = float((r.get("weights") or {}).get(t, 1.0))
            q_rows.append(f"({qid}, '{t}', CAST({w!r} AS DOUBLE))")

    def u_of(alias_tf: str, alias_s: str, g: str) -> str:
        return (
            f"{alias_tf}.tf * ({k1} + {one}) / ({alias_tf}.tf + {k1} * "
            f"({one} - {b} + {b} * {alias_s}.doc_len / (SELECT avgdl FROM {g})))"
        )

    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
f AS (SELECT doc_id, toks AS t_text, list_slice(toks, 1, 8) AS t_title FROM docs),
s_text AS (SELECT doc_id, len(t_text)::BIGINT AS doc_len FROM f),
s_title AS (SELECT doc_id, len(t_title)::BIGINT AS doc_len FROM f),
g_text AS (SELECT count(*)::BIGINT AS n_docs,
                  sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM s_text),
g_title AS (SELECT count(*)::BIGINT AS n_docs,
                   sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM s_title),
tf_text AS (SELECT doc_id, term, count(*)::BIGINT AS tf
            FROM (SELECT doc_id, unnest(t_text) AS term FROM f) GROUP BY 1, 2),
tf_title AS (SELECT doc_id, term, count(*)::BIGINT AS tf
             FROM (SELECT doc_id, unnest(t_title) AS term FROM f) GROUP BY 1, 2),
df_text AS (SELECT term, count(*)::BIGINT AS df FROM tf_text GROUP BY 1),
df_title AS (SELECT term, count(*)::BIGINT AS df FROM tf_title GROUP BY 1),
q(query_id, term, w) AS (VALUES {", ".join(q_rows)}),
dfb AS (
  SELECT q.query_id, q.term, q.w,
         greatest(coalesce(dt.df, 0), coalesce(dti.df, 0))::DOUBLE AS dfb
  FROM q
  LEFT JOIN df_text dt ON dt.term = q.term
  LEFT JOIN df_title dti ON dti.term = q.term
  WHERE coalesce(dt.df, 0) + coalesce(dti.df, 0) > 0
),
hits AS (
  SELECT term, doc_id FROM tf_text UNION SELECT term, doc_id FROM tf_title
),
ubest AS (
  SELECT h.term, h.doc_id,
         greatest(
           coalesce({u_of("tt", "st", "g_text")}, CAST(0 AS DOUBLE)),
           coalesce({u_of("tti", "sti", "g_title")}, CAST(0 AS DOUBLE))
         ) AS u
  FROM hits h
  LEFT JOIN tf_text tt ON tt.term = h.term AND tt.doc_id = h.doc_id
  LEFT JOIN s_text st ON st.doc_id = h.doc_id
  LEFT JOIN tf_title tti ON tti.term = h.term AND tti.doc_id = h.doc_id
  LEFT JOIN s_title sti ON sti.doc_id = h.doc_id
),
scored AS (
  SELECT dfb.query_id, ub.doc_id,
         sum((ln({one} + ((SELECT n_docs FROM g_text) - dfb.dfb + {half})
                / (dfb.dfb + {half})) * dfb.w) * ub.u
             ORDER BY dfb.term) AS score
  FROM dfb JOIN ubest ub ON ub.term = dfb.term
  GROUP BY 1, 2
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id ASC) AS rank
  FROM scored
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id,
       round(score, 6) AS score
FROM ranked WHERE rank <= {K} ORDER BY query_id, rank
"""


DISMAX_TIE_BREAKER = 0.25  # exact binary fraction: the scale is bitwise


def q_multifield_dismax(sf_dir: str) -> pa.Table:
    """ES ``multi_match: best_fields`` (dis_max) over the multi-field
    index: per doc, the best single field's BM25 score plus
    ``tie_breaker`` times the other fields' scores — the ES DEFAULT
    multi_match mode (most_fields is the sum the other multifield
    entries prove).  Same match set, same doc-sharded exact merge; the
    combine travels inside the routed clause set (cb/multifield.py
    ``with_mode``), so servers need no new plumbing."""
    from . import multifield

    idx = get_multifield_index(sf_dir)
    _ensure_mf_docmeta(sf_dir, idx)
    engine = multifield.MultiFieldEngine(idx, num_servers=2)
    try:
        results = [
            engine.search(
                q, k=K, mode="best_fields", tie_breaker=DISMAX_TIE_BREAKER
            )
            for q in MF_QS_SET
        ]
    finally:
        engine.shutdown()
    return _topk_table(results, with_scores=True)


def sql_multifield_dismax() -> str:
    """dis_max mirror: greatest of the per-field scores plus
    tie_breaker * (most_fields sum - greatest) — the same per-field
    score CTEs as the most_fields oracle, combined per doc."""
    s_t = "coalesce(st.score, CAST(0 AS DOUBLE))"
    s_ti = "coalesce(sti.score, CAST(0 AS DOUBLE))"
    return f"""{_mf_sql_prefix(MF_QS_SET)},
total AS (
  SELECT m.query_id, m.doc_id,
         greatest({s_t}, {s_ti})
         + CAST({DISMAX_TIE_BREAKER!r} AS DOUBLE)
           * (({s_t} + {s_ti}) - greatest({s_t}, {s_ti})) AS score
  FROM m
  LEFT JOIN scored_text st ON st.query_id = m.query_id AND st.doc_id = m.doc_id
  LEFT JOIN scored_title sti ON sti.query_id = m.query_id AND sti.doc_id = m.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id ASC) AS rank
  FROM total
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id,
       round(score, 6) AS score
FROM ranked WHERE rank <= {K} ORDER BY query_id, rank"""


def sql_multifield_querystring() -> str:
    """Ranked top-k over the shared multifield match prefix."""
    return f"""{_mf_sql_prefix(MF_QS_SET)},
total AS (
  SELECT m.query_id, m.doc_id,
         coalesce(st.score, CAST(0 AS DOUBLE)) + coalesce(sti.score, CAST(0 AS DOUBLE)) AS score
  FROM m
  LEFT JOIN scored_text st ON st.query_id = m.query_id AND st.doc_id = m.doc_id
  LEFT JOIN scored_title sti ON sti.query_id = m.query_id AND sti.doc_id = m.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id ASC) AS rank
  FROM total
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id,
       round(score, 6) AS score
FROM ranked WHERE rank <= {K} ORDER BY query_id, rank
"""


def q_multifield_page2(sf_dir: str) -> pa.Table:
    """search_after pagination on the MULTIFIELD engine: ranks K+1..2K
    of every full-first-page query, continued from page 1's
    (score, doc_id) cursor (bitwise-deterministic scores make cursor
    equality safe across the doc-sharded pool)."""
    from . import multifield

    idx = get_multifield_index(sf_dir)
    _ensure_mf_docmeta(sf_dir, idx)
    engine = multifield.MultiFieldEngine(idx, num_servers=2)
    rows = {"query_id": [], "rank": [], "doc_id": [], "score": []}
    try:
        for qid, q in enumerate(MF_QS_SET):
            page1 = engine.search(q, k=K)
            if len(page1) < K:
                continue
            page2 = engine.search_after(q, k=K, after=(page1[-1][1], page1[-1][0]))
            for i, (doc_id, score) in enumerate(page2):
                rows["query_id"].append(qid)
                rows["rank"].append(K + 1 + i)
                rows["doc_id"].append(doc_id)
                rows["score"].append(score)
    finally:
        engine.shutdown()
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], type=pa.int64()),
            "rank": pa.array(rows["rank"], type=pa.int64()),
            "doc_id": pa.array(rows["doc_id"], type=pa.int64()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6),
                type=pa.float64(),
            ),
        }
    )


def sql_multifield_page2() -> str:
    """Ranks K+1..2K of the multifield ranking, full-first-page queries
    only (same cut swap as sql_bm25_page2)."""
    base = sql_multifield_querystring()
    return base.replace(
        f"FROM ranked WHERE rank <= {K} ORDER BY query_id, rank",
        f"""FROM ranked
WHERE rank > {K} AND rank <= {2 * K}
  AND query_id IN (SELECT query_id FROM ranked GROUP BY 1 HAVING count(*) > {K})
ORDER BY query_id, rank""",
    )


_MF_RANKED_TAIL = """,
total AS (
  SELECT m.query_id, m.doc_id,
         coalesce(st.score, CAST(0 AS DOUBLE)) + coalesce(sti.score, CAST(0 AS DOUBLE)) AS score
  FROM m
  LEFT JOIN scored_text st ON st.query_id = m.query_id AND st.doc_id = m.doc_id
  LEFT JOIN scored_title sti ON sti.query_id = m.query_id AND sti.doc_id = m.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id ASC) AS rank
  FROM total
)"""


def q_multifield_highlight(sf_dir: str) -> pa.Table:
    """ES per-field highlighting on the multifield engine: for every
    top-K hit, the best WIDTH-token window PER FIELD over that field's
    analyzed token stream, using the field's (expanded) scoring terms —
    fields without a hit emit no row, exactly like ES highlight
    fragments."""
    import pyarrow.parquet as _pq

    from . import highlight, multifield

    idx = get_multifield_index(sf_dir)
    _ensure_mf_docmeta(sf_dir, idx)
    engine = multifield.MultiFieldEngine(idx, num_servers=2)
    try:
        results = [engine.search(q, k=K) for q in MF_QS_SET]
        routeds = [engine._routed(q) for q in MF_QS_SET]
    finally:
        engine.shutdown()
    pairs = [(qid, d) for qid, res in enumerate(results) for d, _ in res]
    empty = pa.table(
        {"query_id": pa.array([], pa.int64()), "doc_id": pa.array([], pa.int64()),
         "field": pa.array([], pa.string()), "anchor": pa.array([], pa.int64()),
         "n_terms": pa.array([], pa.int64()), "snippet": pa.array([], pa.string())}
    )
    if not pairs:
        return empty
    wanted = sorted({d for _, d in pairs})
    tbl = _pq.read_table(
        docs_path(sf_dir), columns=["doc_id", "text"],
        filters=[("doc_id", "in", wanted)],
    )
    toks = analyze.token_array(tbl["text"])
    titles = pc.binary_join(pc.list_slice(toks, 0, 8), pa.scalar(" "))
    field_text = {
        "text": dict(zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist())),
        "title": dict(zip(tbl["doc_id"].to_pylist(), titles.to_pylist())),
    }
    outs = []
    for field in ("text", "title"):
        cand = pa.table(
            {
                "query_id": pa.array([q for q, _ in pairs], pa.int64()),
                "doc_id": pa.array([d for _, d in pairs], pa.int64()),
                "text": pa.array(
                    [field_text[field][d] for _, d in pairs], pa.string()
                ),
            }
        )
        qt = {
            qid: list(r["field_terms"].get(field) or [])
            for qid, r in enumerate(routeds)
        }
        t = _collect(
            ray.data.from_arrow(cand).map_batches(
                highlight.snippet_stage(qt), batch_format="pyarrow"
            )
        )
        if t.num_rows:
            outs.append(
                t.add_column(2, "field", pa.array([field] * t.num_rows, pa.string()))
            )
    if not outs:
        return empty
    out = pa.concat_tables(outs, promote_options="default")
    return out.sort_by(
        [("query_id", "ascending"), ("doc_id", "ascending"), ("field", "ascending")]
    )


def sql_multifield_highlight() -> str:
    """Mirror: top-K from the shared multifield ranking, then per field
    the hit-anchored best window over that field's token stream using
    the field's expanded scoring terms (q_<field>)."""
    from .highlight import WIDTH

    parts = []
    for f in ("text", "title"):
        parts.append(f"""
tp_{f} AS (SELECT doc_id, unnest(t_{f}) AS w, generate_subscripts(t_{f}, 1) AS i FROM f),
hits_{f} AS (
  SELECT td.query_id, td.doc_id, t.i, t.w
  FROM topd td
  JOIN tp_{f} t ON t.doc_id = td.doc_id
  JOIN q_{f} q ON q.query_id = td.query_id AND q.term = t.w
),
wnd_{f} AS (
  SELECT h1.query_id, h1.doc_id, h1.i AS anchor, count(DISTINCT h2.w)::BIGINT AS c
  FROM hits_{f} h1
  JOIN hits_{f} h2 ON h2.query_id = h1.query_id AND h2.doc_id = h1.doc_id
              AND h2.i >= h1.i AND h2.i < h1.i + {WIDTH}
  GROUP BY 1, 2, 3
),
best_{f} AS (
  SELECT query_id, doc_id, anchor, c,
         row_number() OVER (PARTITION BY query_id, doc_id
                            ORDER BY c DESC, anchor ASC) AS rn
  FROM wnd_{f}
)""")
    sel = " UNION ALL ".join(
        f"""SELECT b.query_id::BIGINT AS query_id, b.doc_id, '{f}' AS field,
       b.anchor::BIGINT AS anchor, b.c AS n_terms,
       array_to_string(d.t_{f}[b.anchor : b.anchor + {{W}}], ' ') AS snippet
FROM best_{f} b JOIN f d ON d.doc_id = b.doc_id WHERE b.rn = 1"""
        for f in ("text", "title")
    ).format(W=WIDTH - 1)
    return (
        _mf_sql_prefix(MF_QS_SET)
        + _MF_RANKED_TAIL
        + f""",
topd AS (SELECT query_id, doc_id FROM ranked WHERE rank <= {K}),"""
        + ",".join(parts)
        + "\n" + sel + " ORDER BY query_id, doc_id, field"
    )


def q_multifield_facets(sf_dir: str) -> pa.Table:
    """ES terms aggregations over each multifield query's FULL match
    set (most_fields membership incl. phrases/msm/required/filters),
    fanned out to the doc-sharded MultiFieldEngine pool — each server
    counts its disjoint slice, driver merge is exact addition."""
    from . import multifield

    idx = get_multifield_index(sf_dir)
    _ensure_mf_docmeta(sf_dir, idx)
    engine = multifield.MultiFieldEngine(idx, num_servers=2)
    try:
        per_q = [engine.facets(q, facet_cols=_FACET_COLS) for q in MF_QS_SET]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "facet": [], "value": [], "cnt": []}
    for qid, (facets, _) in enumerate(per_q):
        for col in _FACET_COLS:
            for v in sorted(facets.get(col, {})):
                rows["query_id"].append(qid)
                rows["facet"].append(col)
                rows["value"].append(str(v))
                rows["cnt"].append(facets[col][v])
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "facet": pa.array(rows["facet"], pa.string()),
            "value": pa.array(rows["value"], pa.string()),
            "cnt": pa.array(rows["cnt"], pa.int64()),
        }
    )


def sql_multifield_facets() -> str:
    facet_selects = " UNION ALL ".join(
        f"SELECT mm.query_id::BIGINT AS query_id, '{c}' AS facet, "
        f"d.{c}::VARCHAR AS value, count(*)::BIGINT AS cnt "
        f"FROM m mm JOIN documents d ON d.doc_id = mm.doc_id GROUP BY 1, 3"
        for c in _FACET_COLS
    )
    return f"{_mf_sql_prefix(MF_QS_SET)}\n{facet_selects} ORDER BY query_id, facet, value"


def q_multifield_histogram(sf_dir: str) -> pa.Table:
    """ES fixed-interval histogram over each multifield query's full
    match set (n_chars buckets), additively merged across the pool."""
    from . import multifield

    idx = get_multifield_index(sf_dir)
    _ensure_mf_docmeta(sf_dir, idx)
    engine = multifield.MultiFieldEngine(idx, num_servers=2)
    try:
        per_q = [engine.histogram(q, {"n_chars": HIST_INTERVAL}) for q in MF_QS_SET]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "bucket": [], "cnt": []}
    for qid, h in enumerate(per_q):
        for b in sorted(h.get("n_chars", {})):
            rows["query_id"].append(qid)
            rows["bucket"].append(b)
            rows["cnt"].append(h["n_chars"][b])
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "bucket": pa.array(rows["bucket"], pa.int64()),
            "cnt": pa.array(rows["cnt"], pa.int64()),
        }
    )


def sql_multifield_histogram() -> str:
    return f"""{_mf_sql_prefix(MF_QS_SET)}
SELECT mm.query_id::BIGINT AS query_id,
       (floor(d.n_chars / {HIST_INTERVAL}) * {HIST_INTERVAL})::BIGINT AS bucket,
       count(*)::BIGINT AS cnt
FROM m mm JOIN documents d ON d.doc_id = mm.doc_id
GROUP BY 1, 2 ORDER BY query_id, bucket
"""


def q_multifield_range_agg(sf_dir: str) -> pa.Table:
    """ES range aggregation over each MULTIFIELD query's full match set
    (explicit [lo,hi) n_chars buckets, zero counts emitted), exact
    elementwise merge across the doc-sharded pool."""
    from . import multifield

    idx = get_multifield_index(sf_dir)
    _ensure_mf_docmeta(sf_dir, idx)
    engine = multifield.MultiFieldEngine(idx, num_servers=2)
    try:
        per_q = [
            engine.range_agg(q, {"n_chars": list(RANGE_EDGES)}) for q in MF_QS_SET
        ]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "range_idx": [], "bounds": [], "cnt": []}
    for qid, r in enumerate(per_q):
        for i, ((lo, hi), cnt) in enumerate(zip(RANGE_EDGES, r["n_chars"])):
            rows["query_id"].append(qid)
            rows["range_idx"].append(i)
            rows["bounds"].append(_range_label(lo, hi))
            rows["cnt"].append(cnt)
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "range_idx": pa.array(rows["range_idx"], pa.int64()),
            "bounds": pa.array(rows["bounds"], pa.string()),
            "cnt": pa.array(rows["cnt"], pa.int64()),
        }
    )


def sql_multifield_range_agg() -> str:
    rng_rows = ", ".join(
        f"({i}, '{_range_label(lo, hi)}', "
        f"CAST({'NULL' if lo is None else lo} AS BIGINT), "
        f"CAST({'NULL' if hi is None else hi} AS BIGINT))"
        for i, (lo, hi) in enumerate(RANGE_EDGES)
    )
    qid_rows = ", ".join(f"({i})" for i in range(len(MF_QS_SET)))
    return f"""{_mf_sql_prefix(MF_QS_SET)},
rng(range_idx, bounds, lo, hi) AS (VALUES {rng_rows}),
qid(query_id) AS (VALUES {qid_rows}),
cnts AS (
  SELECT mm.query_id, r.range_idx, count(*)::BIGINT AS cnt
  FROM m mm
  JOIN documents d ON d.doc_id = mm.doc_id
  JOIN rng r ON (r.lo IS NULL OR d.n_chars >= r.lo)
            AND (r.hi IS NULL OR d.n_chars < r.hi)
  GROUP BY 1, 2
)
SELECT q.query_id::BIGINT AS query_id, r.range_idx::BIGINT AS range_idx,
       r.bounds, coalesce(c.cnt, 0)::BIGINT AS cnt
FROM qid q
CROSS JOIN rng r
LEFT JOIN cnts c ON c.query_id = q.query_id AND c.range_idx = r.range_idx
ORDER BY query_id, range_idx
"""


def q_multifield_function_score(sf_dir: str) -> pa.Table:
    """ES function_score on the MULTIFIELD engine: the most_fields sum
    of every matching doc combines with the n_chars saturation feature
    BEFORE the top-k cut (shared _combine_function_score kernel), exact
    pool merge."""
    from . import multifield

    idx = get_multifield_index(sf_dir)
    _ensure_mf_docmeta(sf_dir, idx)
    spec = {"kind": "saturation", "col": "n_chars", "w": FSCORE_W, "pivot": FSCORE_PIVOT}
    engine = multifield.MultiFieldEngine(idx, num_servers=2)
    try:
        results = [engine.function_score(q, spec, k=K) for q in MF_QS_SET]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "rank": [], "doc_id": [], "score": []}
    for qid, res in enumerate(results):
        for rank, (doc_id, score) in enumerate(res, start=1):
            rows["query_id"].append(qid)
            rows["rank"].append(rank)
            rows["doc_id"].append(doc_id)
            rows["score"].append(score)
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6),
                type=pa.float64(),
            ),
        }
    )


def sql_multifield_function_score() -> str:
    """Mirror: shared multifield match prefix + most_fields total CTE,
    then the same one-division saturation combine the single-field
    function_score mirror uses."""
    return f"""{_mf_sql_prefix(MF_QS_SET)}{_MF_RANKED_TAIL},
fs AS (
  SELECT t.query_id, t.doc_id,
         t.score + CAST({FSCORE_W} AS DOUBLE) *
         (d.n_chars::DOUBLE / (d.n_chars + {FSCORE_PIVOT})::DOUBLE) AS combined
  FROM total t JOIN documents d ON d.doc_id = t.doc_id
),
franked AS (
  SELECT query_id, doc_id, combined,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY combined DESC, doc_id ASC) AS rank
  FROM fs
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id,
       round(combined, 6) AS score
FROM franked WHERE rank <= {K} ORDER BY query_id, rank
"""


def q_multifield_top_hits(sf_dir: str) -> pa.Table:
    """ES top_hits-inside-terms-agg on the MULTIFIELD engine: per
    (query, lang), the exact top TOP_HITS_PER docs of the full
    most_fields match set by (score desc, doc_id asc) — per-server
    local per-group top-k, exact pool re-cut."""
    from . import multifield

    idx = get_multifield_index(sf_dir)
    _ensure_mf_docmeta(sf_dir, idx)
    engine = multifield.MultiFieldEngine(idx, num_servers=2)
    try:
        per_q = [engine.top_hits(q, "lang", TOP_HITS_PER) for q in MF_QS_SET]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "lang": [], "rank": [], "doc_id": [], "score": []}
    for qid, hits in enumerate(per_q):
        for lang in sorted(hits):
            for rank, (doc_id, score) in enumerate(hits[lang], start=1):
                rows["query_id"].append(qid)
                rows["lang"].append(lang)
                rows["rank"].append(rank)
                rows["doc_id"].append(doc_id)
                rows["score"].append(score)
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "lang": pa.array(rows["lang"], pa.string()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6),
                type=pa.float64(),
            ),
        }
    )


def sql_multifield_top_hits() -> str:
    """Mirror: the shared multifield match prefix + most_fields total
    CTE (_MF_RANKED_TAIL), re-windowed per (query, lang)."""
    return f"""{_mf_sql_prefix(MF_QS_SET)}{_MF_RANKED_TAIL},
lranked AS (
  SELECT t.query_id, d.lang, t.doc_id, t.score,
         row_number() OVER (PARTITION BY t.query_id, d.lang
                            ORDER BY t.score DESC, t.doc_id ASC) AS lrank
  FROM total t JOIN documents d ON d.doc_id = t.doc_id
)
SELECT query_id::BIGINT AS query_id, lang, lrank::BIGINT AS rank, doc_id,
       round(score, 6) AS score
FROM lranked WHERE lrank <= {TOP_HITS_PER} ORDER BY query_id, lang, rank
"""


# Multifield synonym set: plain scored terms only (scoping + boosts
# drive the interesting rules; phrases/filters are orthogonal and
# covered by multifield_querystring).  'hash^2 title:join' makes
# merge->join a no-op (join is explicit: weight AND scoping win).
MF_SYN_SET: tuple[str, ...] = (
    "merge sort",
    "fast^2 query",
    "title:window merge",
    "table scan",
    "hash^2 title:join merge",
)


def q_multifield_synonyms(sf_dir: str) -> pa.Table:
    """Query-time synonyms on the MULTIFIELD engine: a scoped source
    term produces scoped synonyms (title:window -> frame scores in
    title only), unscoped sources expand in every field, derived terms
    take the MAX source weight globally, and explicitly-typed terms
    keep their own weight and scoping."""
    from . import multifield

    idx = get_multifield_index(sf_dir)
    engine = multifield.MultiFieldEngine(idx, num_servers=2)
    try:
        results = [engine.search(q, k=K, synonyms=SYN_MAP) for q in MF_SYN_SET]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "rank": [], "doc_id": [], "score": []}
    for qid, res in enumerate(results):
        for rank, (doc_id, score) in enumerate(res, start=1):
            rows["query_id"].append(qid)
            rows["rank"].append(rank)
            rows["doc_id"].append(doc_id)
            rows["score"].append(score)
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6),
                type=pa.float64(),
            ),
        }
    )


def sql_multifield_synonyms() -> str:
    """Mirror: per-field q0 VALUES from the engine's router, but the
    synonym expansion is RE-DERIVED in SQL — global max derived weight
    (qd_w over the union of all fields' sources), per-field derived
    membership (qd_f), NOT EXISTS against the explicit set for both —
    then the standard per-field weighted BM25 CTEs and the fixed-order
    most_fields sum."""
    from . import multifield

    tok = analyze.sql_token_array("text")
    q0_rows = {"text": [], "title": []}
    for qid, q in enumerate(MF_SYN_SET):
        r = multifield.route_query(q, ["text", "title"])
        w = r.get("weights") or {}
        for f in ("text", "title"):
            for t in r["field_terms"][f]:
                q0_rows[f].append(
                    f"({qid}, '{t}', CAST({float(w.get(t, 1.0))!r} AS DOUBLE))"
                )
    syn_rows = [f"('{a}', '{b}')" for a in sorted(SYN_MAP) for b in SYN_MAP[a]]
    per_field = []
    for f in ("text", "title"):
        contrib = scoring.sql_score_terms_weighted(
            f"(SELECT n_docs FROM g_{f})", f"(SELECT avgdl FROM g_{f})", "q.w"
        )
        per_field.append(f"""
s_{f} AS (SELECT doc_id, len(t_{f})::BIGINT AS doc_len FROM f),
g_{f} AS (SELECT count(*)::BIGINT AS n_docs,
              sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM s_{f}),
tf_{f} AS (SELECT doc_id, term, count(*)::BIGINT AS tf
           FROM (SELECT doc_id, unnest(t_{f}) AS term FROM f) GROUP BY 1, 2),
df_{f} AS (SELECT term, count(*)::BIGINT AS df FROM tf_{f} GROUP BY 1),
q0_{f}(query_id, term, w) AS (VALUES {', '.join(q0_rows[f])}),
qd_{f} AS (
  SELECT DISTINCT q0.query_id, s.b AS term
  FROM q0_{f} q0 JOIN syn s ON s.a = q0.term
  WHERE NOT EXISTS (SELECT 1 FROM expl e
                    WHERE e.query_id = q0.query_id AND e.term = s.b)
),
q_{f} AS (
  SELECT query_id, term, w FROM q0_{f}
  UNION ALL
  SELECT d.query_id, d.term, dw.w
  FROM qd_{f} d JOIN qd_w dw ON dw.query_id = d.query_id AND dw.term = d.term
),
scored_{f} AS (
  SELECT q.query_id, tf.doc_id, sum({contrib} ORDER BY q.term) AS score
  FROM q_{f} q
  JOIN tf_{f} tf ON tf.term = q.term
  JOIN df_{f} df ON df.term = q.term
  JOIN s_{f} stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
)""")
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
f AS (SELECT doc_id, toks AS t_text, list_slice(toks, 1, 8) AS t_title FROM docs),
syn(a, b) AS (VALUES {', '.join(syn_rows)}),
expl AS (
  SELECT query_id, term FROM (VALUES {', '.join(q0_rows["text"])}) e0(query_id, term, w)
  UNION
  SELECT query_id, term FROM (VALUES {', '.join(q0_rows["title"])}) e1(query_id, term, w)
),
qd_w AS (
  SELECT q0.query_id, s.b AS term, max(q0.w) AS w
  FROM (SELECT * FROM (VALUES {', '.join(q0_rows["text"])}) a0(query_id, term, w)
        UNION ALL
        SELECT * FROM (VALUES {', '.join(q0_rows["title"])}) a1(query_id, term, w)) q0
  JOIN syn s ON s.a = q0.term
  WHERE NOT EXISTS (SELECT 1 FROM expl e
                    WHERE e.query_id = q0.query_id AND e.term = s.b)
  GROUP BY 1, 2
),
{','.join(per_field)},
m AS (
  SELECT query_id, doc_id FROM scored_text
  UNION
  SELECT query_id, doc_id FROM scored_title
),
total AS (
  SELECT m.query_id, m.doc_id,
         coalesce(st.score, CAST(0 AS DOUBLE)) + coalesce(sti.score, CAST(0 AS DOUBLE)) AS score
  FROM m
  LEFT JOIN scored_text st ON st.query_id = m.query_id AND st.doc_id = m.doc_id
  LEFT JOIN scored_title sti ON sti.query_id = m.query_id AND sti.doc_id = m.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id ASC) AS rank
  FROM total
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id,
       round(score, 6) AS score
FROM ranked WHERE rank <= {K} ORDER BY query_id, rank
"""


def q_content_sha256(sf_dir: str) -> pa.Table:
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        sha = [hashlib.sha256(t.encode()).hexdigest() for t in batch["text"].to_pylist()]
        return pa.table(
            {"doc_id": batch["doc_id"], "content_sha256": pa.array(sha, type=pa.string())}
        )

    return _collect(ds.map_batches(f, batch_format="pyarrow"))


def sql_content_sha256() -> str:
    return "SELECT doc_id, sha256(text) AS content_sha256 FROM documents ORDER BY doc_id"


# --------------------------------------------------------------------------
# Dedup / text-analysis / ANN pipelines
# --------------------------------------------------------------------------

def q_dedup_exact(sf_dir: str) -> pa.Table:
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id", "text"])
    return _collect(dedup.exact_duplicates(ds))


def q_token_stats(sf_dir: str) -> pa.Table:
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id", "text"])
    return _collect(ds.map_batches(textstats.token_stats, batch_format="pyarrow"))


def q_lang_id(sf_dir: str) -> pa.Table:
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id", "text"])
    return _collect(ds.map_batches(textstats.lang_id, batch_format="pyarrow"))


def q_repetition_stats(sf_dir: str) -> pa.Table:
    """Gopher-style repetition quality signals per doc."""
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id", "text"])
    return _collect(
        ds.map_batches(textstats.repetition_stats, batch_format="pyarrow")
    )


MIX_BUDGETS = {f"src{i}": 400 + 150 * (i % 4) for i in range(0, 20, 2)}


def q_token_budget_mix(sf_dir: str) -> pa.Table:
    """Data mixing: each budgeted source keeps its salted-hash-ordered
    doc prefix within a token budget; unbudgeted sources drop."""
    ds = ray.data.read_parquet(
        docs_path(sf_dir), columns=["doc_id", "source", "text"]
    )
    out = _collect(curation.token_budget_sample(ds, MIX_BUDGETS))
    return out.sort_by("doc_id")


def q_dataset_split(sf_dir: str) -> pa.Table:
    """Deterministic salted-hash train/val/test assignment."""
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id"])
    return _collect(curation.dataset_split(ds))


def q_fingerprint(sf_dir: str) -> pa.Table:
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id", "text"])
    return _collect(ds.map_batches(textstats.fingerprint, batch_format="pyarrow"))


def q_alpha_mix(sf_dir: str) -> pa.Table:
    """Temperature (alpha=0.5) source mixing: per-source token budgets
    from corpus counts, then the salted-hash budget sampler."""
    ds = ray.data.read_parquet(
        docs_path(sf_dir), columns=["doc_id", "source", "text"]
    )
    return _collect(
        curation.alpha_mix_sample(ds, alpha=0.5, total_budget=8000)
    )


def q_curation_pipeline(sf_dir: str) -> pa.Table:
    """The full pretraining curation pass as ONE composed dataflow:
    heuristic quality gate (in-stream mask, no join) -> MinHash
    fuzzy-dedup keep-filter (banded LSH candidates, clustered,
    non-representatives dropped via one broadcast set) -> temperature
    (alpha) mixing to a total token budget.  Each stage is the
    already-oracled operator; this entry proves the COMPOSITION
    end-to-end against one composed SQL mirror."""
    ds = ray.data.read_parquet(
        docs_path(sf_dir), columns=["doc_id", "source", "text"]
    )
    # the gated stream feeds minhash AND the keep filter, and the mix
    # stage re-reads the survivors twice — checkpoint both so the
    # read+tokenize+metrics lineage executes once, not 4-5x (at real
    # scale: write each stage to parquet instead of object-store
    # materialize)
    gated = curation.apply_quality_gate(ds).materialize()
    pairs = dedup.minhash_near_duplicates(gated, threshold=0.7, concurrency=2)
    clusters = dedup.cluster_pairs(pairs)
    survivors = dedup.keep_representatives(gated, clusters).materialize()
    mixed = curation.alpha_mix_sample(survivors, alpha=0.5, total_budget=6000)
    return _collect(mixed)


def sql_curation_pipeline() -> str:
    """Composed mirror: gate join -> NOT IN cluster drops (the minhash +
    transitive-closure SQL over the GATED corpus) -> the alpha-mix SQL
    grafted as trailing CTEs over the survivor set."""
    qf = sql_quality_filter_for_pipeline()
    mh = dedup.sql_minhash_neardup(threshold=0.7, table="gated")
    cc = dedup.sql_cluster_pairs(mh)
    mix = curation.sql_alpha_mix_sample(
        alpha=0.5, total_budget=6000, table="surv"
    ).strip()
    assert mix.startswith("WITH ")
    return f"""
WITH gated AS (
  SELECT d.doc_id, d.source, d.text
  FROM documents d JOIN ({qf}) qf ON qf.doc_id = d.doc_id AND qf.keep
),
surv AS (
  SELECT * FROM gated WHERE doc_id NOT IN (
    SELECT doc_id FROM ({cc.strip()}) WHERE doc_id != cluster_rep
  )
),
{mix[len("WITH "):]}
"""


def sql_quality_filter_for_pipeline() -> str:
    return curation.sql_quality_filter().strip()


def q_lm_quality(sf_dir: str) -> pa.Table:
    """Corpus-trained pruned bigram LM quality score per doc (the
    CCNet/Gopher perplexity-filter analog; see cb.lm)."""
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id", "text"])
    return _collect(lm.lm_quality_score(ds, min_count=5))


def q_dup_ngram_spans(sf_dir: str) -> pa.Table:
    """ExactSubstr detection (Lee et al.): maximal token spans whose
    every 8-token window occurs >= 2 times corpus-wide."""
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id", "text"])
    return _collect(dedup.duplicate_ngram_spans(ds, n=8, min_count=2))


def q_dup_span_strip(sf_dir: str) -> pa.Table:
    """ExactSubstr removal: the corpus with duplicated spans stripped."""
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id", "text"])
    return _collect(dedup.strip_duplicate_spans(ds, n=8, min_count=2))


def q_dup_spans_bloom(sf_dir: str) -> pa.Table:
    """ExactSubstr detection through the Bloom dup store — the 100-TB
    broadcast path (Bloom bits to every actor, Bloom hits verified
    EXACTLY against the bucket files on shared storage).  Output is
    bitwise identical to ``dup_ngram_spans``; the entry shares its
    oracle to prove it."""
    from . import storage

    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id", "text"])
    return _collect(
        dedup.duplicate_ngram_spans(
            ds,
            n=8,
            min_count=2,
            dup_store="bloom",
            work_dir=storage.scratch_dir("dupbloom", os.path.abspath(sf_dir)),
        )
    )


def q_ngram_jaccard(sf_dir: str) -> pa.Table:
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id", "text"])
    out = dedup.ngram_jaccard_pairs(ds, threshold=0.3)
    return _collect(out)


def q_minhash_neardup(sf_dir: str) -> pa.Table:
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id", "text"])
    out = dedup.minhash_near_duplicates(ds, threshold=0.7, concurrency=2)
    return _collect(out)


def q_neardup_clusters(sf_dir: str) -> pa.Table:
    """Fuzzy-dedup CLUSTERS: connected components over the MinHash
    near-dup pair graph (pairs alone under-delete — near-duplication is
    transitive in practice), rep = component min doc id.  Distributed
    hash-to-min label propagation (cb.dedup.cluster_pairs); oracle =
    the same pair SQL wrapped in a recursive transitive-closure CTE."""
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id", "text"])
    pairs = dedup.minhash_near_duplicates(ds, threshold=0.7, concurrency=2)
    return _collect(dedup.cluster_pairs(pairs))


def q_neardup_dedup_keep(sf_dir: str) -> pa.Table:
    """The fuzzy-dedup FILTER itself: surviving doc ids after dropping
    non-representative members of every MinHash near-dup cluster (the
    step a pretraining pipeline actually applies).  Corpus streams;
    the drop set is candidate-proportional and broadcast once."""
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id", "text"])
    pairs = dedup.minhash_near_duplicates(ds, threshold=0.7, concurrency=2)
    clusters = dedup.cluster_pairs(pairs)
    survivors = dedup.keep_representatives(
        ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id"]), clusters
    )
    return _collect(survivors).sort_by("doc_id")


def sql_neardup_dedup_keep() -> str:
    cc = dedup.sql_cluster_pairs(dedup.sql_minhash_neardup(threshold=0.7))
    return f"""
SELECT doc_id FROM documents
WHERE doc_id NOT IN (
  SELECT doc_id FROM ({cc.strip()}) WHERE doc_id != cluster_rep
)
ORDER BY doc_id
"""


def q_simhash_neardup(sf_dir: str) -> pa.Table:
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id", "text"])
    return _collect(dedup.simhash_near_duplicates(ds))


def q_ann_topk(sf_dir: str) -> pa.Table:
    path = os.path.join(sf_dir, "embeddings.parquet")
    head = pq.read_table(path).sort_by("vec_id").slice(0, 5)
    qmat = np.array(head["embedding"].to_pylist())
    qids = head["vec_id"].to_numpy()
    ds = ray.data.read_parquet(path)
    out = ann.brute_force_topk(ds, qmat, qids, k=K)
    return out.select(["query_id", "rank", "vec_id"])


def sql_ann_topk() -> str:
    return f"""
WITH q AS (SELECT vec_id, embedding FROM embeddings ORDER BY vec_id LIMIT 5),
ranked AS (
  SELECT q.vec_id AS query_id, e.vec_id,
         row_number() OVER (
           PARTITION BY q.vec_id
           ORDER BY list_cosine_similarity(q.embedding, e.embedding) DESC, e.vec_id ASC
         ) AS rank
  FROM q CROSS JOIN embeddings e
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, vec_id
FROM ranked WHERE rank <= {K} ORDER BY query_id, rank
"""


ANN_FILTER_LANG = "en"  # the knn-query filter clause fixture


def q_ann_filtered_topk(sf_dir: str) -> pa.Table:
    """Filtered vector search (the ES knn query's ``filter`` clause /
    the vector-db metadata-filter pattern): exact cosine top-k
    restricted to vectors whose document passes a metadata predicate
    (lang = 'en').  The allowed-id set is read with pruned columns,
    ``ray.put`` once, and masked per batch BEFORE the matmul — filtered
    candidates never cost a dot product.  Scale note in
    cb/ann.py::BruteForceScorer: broadcast id sets fit selective
    filters; the general 100-TB design co-locates the filter column
    with the vectors."""
    path = os.path.join(sf_dir, "embeddings.parquet")
    head = pq.read_table(path).sort_by("vec_id").slice(0, 5)
    qmat = np.array(head["embedding"].to_pylist())
    qids = head["vec_id"].to_numpy()
    docs = pq.read_table(docs_path(sf_dir), columns=["doc_id", "lang"])
    allowed = np.sort(
        docs.filter(pc.equal(docs["lang"], ANN_FILTER_LANG))["doc_id"]
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    ds = ray.data.read_parquet(path)
    out = ann.brute_force_topk(ds, qmat, qids, k=K, allow_ids=allowed)
    return out.select(["query_id", "rank", "vec_id"])


def sql_ann_filtered_topk() -> str:
    return f"""
WITH q AS (SELECT vec_id, embedding FROM embeddings ORDER BY vec_id LIMIT 5),
allowed AS (SELECT doc_id FROM documents WHERE lang = '{ANN_FILTER_LANG}'),
ranked AS (
  SELECT q.vec_id AS query_id, e.vec_id,
         row_number() OVER (
           PARTITION BY q.vec_id
           ORDER BY list_cosine_similarity(q.embedding, e.embedding) DESC, e.vec_id ASC
         ) AS rank
  FROM q CROSS JOIN embeddings e
  JOIN allowed a ON a.doc_id = e.vec_id
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, vec_id
FROM ranked WHERE rank <= {K} ORDER BY query_id, rank
"""


CLUSTER_NC = 8  # cluster-sample centroids (first NC vectors by id)
CLUSTER_R = 5  # kept per cluster


def q_embedding_cluster_sample(sf_dir: str) -> pa.Table:
    """Cluster-balanced diversity sampling (the SemDeDup /
    cluster-then-prune curation shape): every embedding is assigned to
    its nearest centroid (cosine, deterministic first-``CLUSTER_NC``
    vectors as centroids so the oracle can re-derive them), then each
    cluster keeps its ``CLUSTER_R`` lowest-md5(vec_id) members — a
    uniform within-cluster sample with no RNG state.  Streaming: the
    assignment batch emits two int64 columns; the sample is a per-batch
    partial top-R per cluster (<= NC x R rows leave any batch), final
    cut on the driver over an O(NC x R x batches) table."""
    from .hashing import md5_lower64

    path = os.path.join(sf_dir, "embeddings.parquet")
    head = pq.read_table(path).sort_by("vec_id").slice(0, CLUSTER_NC)
    cmat = np.array(head["embedding"].to_pylist())
    cids = head["vec_id"].to_numpy()
    ds = ray.data.read_parquet(path)
    assigned = ann.assign_clusters(ds, cmat, cids)

    def partial_sample(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cl = batch["cluster"].to_numpy(zero_copy_only=False).astype(np.int64)
        # order-preserving signed image of the uint64 hash (sign-bit
        # XOR) so the skinny partial stays an int64 column end to end
        h = (
            md5_lower64(pc.cast(pa.array(ids), pa.string()))
            ^ np.uint64(1 << 63)
        ).view(np.int64)
        keep = []
        for c in np.unique(cl):
            m = np.flatnonzero(cl == c)
            keep.append(m[np.lexsort((ids[m], h[m]))[:CLUSTER_R]])
        k = np.concatenate(keep) if keep else np.empty(0, np.int64)
        return pa.table(
            {
                "vec_id": pa.array(ids[k], pa.int64()),
                "cluster": pa.array(cl[k], pa.int64()),
                "h": pa.array(h[k], pa.int64()),
            }
        )

    t = _collect(
        assigned.map_batches(
            partial_sample, batch_format="pyarrow", zero_copy_batch=True
        )
    )
    ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    cl = t["cluster"].to_numpy(zero_copy_only=False).astype(np.int64)
    h = t["h"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((ids, h, cl))
    sc, si = cl[order], ids[order]
    rows = {"cluster": [], "rank": [], "vec_id": []}
    starts = np.flatnonzero(np.r_[True, sc[1:] != sc[:-1]]) if len(sc) else []
    ends = np.append(starts[1:], len(sc)) if len(sc) else []
    for s, e in zip(starts, ends):
        for r in range(min(CLUSTER_R, e - s)):
            rows["cluster"].append(int(sc[s]))
            rows["rank"].append(r + 1)
            rows["vec_id"].append(int(si[s + r]))
    return pa.table(
        {
            "cluster": pa.array(rows["cluster"], pa.int64()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "vec_id": pa.array(rows["vec_id"], pa.int64()),
        }
    )


def sql_embedding_cluster_sample() -> str:
    return f"""
WITH c AS (SELECT vec_id AS cid, embedding FROM embeddings ORDER BY vec_id LIMIT {CLUSTER_NC}),
assign AS (
  SELECT e.vec_id, c.cid,
         row_number() OVER (
           PARTITION BY e.vec_id
           ORDER BY list_cosine_similarity(c.embedding, e.embedding) DESC, c.cid ASC
         ) AS rn
  FROM embeddings e CROSS JOIN c
),
a AS (SELECT vec_id, cid AS cluster FROM assign WHERE rn = 1),
sampled AS (
  SELECT cluster, vec_id,
         row_number() OVER (
           PARTITION BY cluster
           ORDER BY md5_number_lower(vec_id::VARCHAR), vec_id
         ) AS rank
  FROM a
)
SELECT cluster::BIGINT AS cluster, rank::BIGINT AS rank, vec_id
FROM sampled WHERE rank <= {CLUSTER_R} ORDER BY cluster, rank
"""


IVF_NPROBE = 8  # bench sweep: recall 0.82 vs 0.6 at nprobe=4, same cost class
IVF_RECALL_BOUND = 0.4  # per-query floor; measured min 0.5 at nprobe=8 across
# all sf fixtures (UNCLUSTERED worst-case embeddings; clustered data >=0.9)


def _ivf_index(sf_dir: str) -> str:
    """The cached IVF layout over ``sf_dir``'s embeddings table (built
    with :func:`cb.ann.ivf_topk`'s defaults, which then reuses it)."""
    return _cached_index(
        "ivf", sf_dir,
        lambda sf, d: ann.build_ivf(
            ray.data.read_parquet(os.path.join(sf, "embeddings.parquet")), d
        ),
        marker="meta.json", table="embeddings.parquet",
    )


def q_ann_ivf(sf_dir: str) -> pa.Table:
    """Bucketed-IVF approximate top-k (build once, probe-only reads);
    rows-only oracle check (approximate by design; the recall contract
    is driver-checked by :func:`q_ann_ivf_recall`)."""
    path = os.path.join(sf_dir, "embeddings.parquet")
    head = pq.read_table(path).sort_by("vec_id").slice(0, 5)
    qmat = np.array(head["embedding"].to_pylist())
    qids = head["vec_id"].to_numpy()
    ds = ray.data.read_parquet(path)
    out = ann.ivf_topk(
        ds, qmat, qids, k=K, index_dir=_ivf_index(sf_dir), nprobe=IVF_NPROBE
    )
    return out.select(["query_id", "rank", "vec_id"])


def q_ann_ivf_recall(sf_dir: str) -> pa.Table:
    """Driver-checkable recall contract for the approximate IVF path:
    per query, ``recall_ok`` is True iff recall@K of the nprobe-limited
    IVF result against the brute-force exact top-K (the same one
    ``ann_cosine_topk``'s oracle verifies) meets ``IVF_RECALL_BOUND``.
    The oracle asserts all-True — an IVF regression (bad centroid
    assignment, broken probe routing, lossy merge) flips rows to False
    and hash-mismatches.  Both legs run inside the dataflow; only the
    two K x n_queries result tables reach the driver."""
    path = os.path.join(sf_dir, "embeddings.parquet")
    head = pq.read_table(path).sort_by("vec_id").slice(0, 5)
    qmat = np.array(head["embedding"].to_pylist())
    qids = head["vec_id"].to_numpy()
    ivf = ann.ivf_topk(
        ray.data.read_parquet(path), qmat, qids, k=K,
        index_dir=_ivf_index(sf_dir), nprobe=IVF_NPROBE,
    )
    exact = ann.brute_force_topk(ray.data.read_parquet(path), qmat, qids, k=K)
    got: dict[int, set] = {int(q): set() for q in qids}
    want: dict[int, set] = {int(q): set() for q in qids}
    for r in ivf.to_pylist():
        got[int(r["query_id"])].add(int(r["vec_id"]))
    for r in exact.to_pylist():
        want[int(r["query_id"])].add(int(r["vec_id"]))
    out_q = sorted(want)
    recall_ok = [
        len(got[q] & want[q]) / max(1, len(want[q])) >= IVF_RECALL_BOUND
        for q in out_q
    ]
    return pa.table(
        {
            "query_id": pa.array(out_q, type=pa.int64()),
            "recall_ok": pa.array(recall_ok, type=pa.bool_()),
        }
    )


def sql_ann_ivf_recall() -> str:
    return """
SELECT vec_id::BIGINT AS query_id, true AS recall_ok
FROM (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT 5)
ORDER BY query_id
"""


def q_ann_ivf_exact(sf_dir: str) -> pa.Table:
    """IVF probed with nprobe = n_centroids visits EVERY cell, so the
    result must equal exact brute-force top-k — the brute-force SQL
    oracle applies and proves the IVF machinery (centroid assignment,
    bucket layout, probe-read, per-bucket scoring, top-k merge) is
    lossless; the approximate entry above then only varies nprobe."""
    path = os.path.join(sf_dir, "embeddings.parquet")
    head = pq.read_table(path).sort_by("vec_id").slice(0, 5)
    qmat = np.array(head["embedding"].to_pylist())
    qids = head["vec_id"].to_numpy()
    ds = ray.data.read_parquet(path)
    out = ann.ivf_topk(
        ds, qmat, qids, k=K, index_dir=_ivf_index(sf_dir), nprobe=16
    )
    return out.select(["query_id", "rank", "vec_id"])


# tau sits where the driver fixtures contain REAL pairs at every sf
# (7 / 14 / 144 at sf0.001/0.01/0.1, nearest sim >= 1e-4 from the
# threshold) — a threshold above the fixture's similarity ceiling would
# make the row a vacuous 0-vs-0 pass.
NEARDUP_TAU = 0.45


def q_embedding_neardup(sf_dir: str) -> pa.Table:
    from . import storage

    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    return ann.embedding_near_duplicates(
        ds,
        tau=NEARDUP_TAU,
        work_dir=storage.scratch_dir("neardup", os.path.abspath(sf_dir)),
    ).select(["vec_a", "vec_b"])


def q_embedding_dedup_keep(sf_dir: str) -> pa.Table:
    """The fuzzy-dedup KEEP filter for the embedding modality (the
    minhash family's neardup_dedup_keep, over cosine near-dup pairs):
    cluster the exact pair graph, drop non-representatives, stream the
    survivors — closes cluster+keep for every near-dup signal."""
    from . import storage

    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    pairs = (
        ann.embedding_near_duplicates(
            ds, tau=NEARDUP_TAU,
            work_dir=storage.scratch_dir("neardup", os.path.abspath(sf_dir)),
        )
        .select(["vec_a", "vec_b"])
        .rename_columns(["doc_a", "doc_b"])
    )
    clusters = dedup.cluster_pairs(ray.data.from_arrow(pairs))
    ids = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id"]
    )
    return _collect(
        dedup.keep_representatives(ids, clusters, id_col="vec_id")
    ).sort_by("vec_id")


def sql_embedding_dedup_keep() -> str:
    """NOT IN over the transitive closure of the exact cosine pair SQL
    (the pair query rides along as one more CTE; reps = min id)."""
    pair_sql = (
        "WITH ep AS (" + sql_embedding_neardup().strip() + ")\n"
        "SELECT vec_a AS doc_a, vec_b AS doc_b FROM ep"
    )
    cc = dedup.sql_cluster_pairs(pair_sql)
    return f"""
SELECT vec_id FROM embeddings
WHERE vec_id NOT IN (
  SELECT doc_id FROM ({cc.strip()}) WHERE doc_id != cluster_rep
)
ORDER BY vec_id
"""


def q_embedding_neardup_lsh(sf_dir: str) -> pa.Table:
    """Random-hyperplane LSH blocking + exact verify.  Precision is
    exact by construction; this entry runs a SATURATED band config
    (bits=4 x bands=64: P(miss) < 1e-5 per pair at tau=0.45, recall
    empirically 1 at every sf fixture), so the exact-pair SQL join is a
    valid oracle.  Production configs trade bands for recall < 1."""
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    return ann.embedding_near_duplicates_lsh(
        ds, tau=NEARDUP_TAU, bits=4, bands=64
    ).select(["vec_a", "vec_b"])


def sql_embedding_neardup() -> str:
    return f"""
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= {NEARDUP_TAU}
ORDER BY vec_a, vec_b
"""


MEDIA_DIM = 32


def q_media_ann_topk(sf_dir: str) -> pa.Table:
    """End-to-end multimodal similarity pipeline: binary media payloads
    (the documents table's utf-8 bytes, so the DuckDB oracle can read
    the SAME bytes) -> actor-pool decode+feature stage (the pluggable
    fake decoder: md5-derived float64 tensors, real plumbing — no media
    libs in this container) -> exact cosine top-k over the feature
    column.  The decode stand-in is md5-mirrorable, so the pipeline is
    VALUE-checked end-to-end despite the stubbed codec."""
    import pyarrow.parquet as _pq

    from . import multimodal

    tbl = _pq.read_table(docs_path(sf_dir), columns=["doc_id", "text"])
    ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
    media = pa.table(
        {
            "media_id": pa.array(ids, type=pa.int64()),
            "kind": pa.array(
                [("image", "audio", "video")[int(i) % 3] for i in ids], pa.string()
            ),
            "payload": pa.array(
                [t.encode() for t in tbl["text"].to_pylist()], pa.binary()
            ),
        }
    )
    ds = ray.data.from_arrow(media)
    feats = ds.map_batches(
        multimodal.DecodeStage,
        fn_constructor_kwargs={
            "fake": True, "out_dim": MEDIA_DIM, "out_type": "float64",
        },
        batch_format="pyarrow",
        batch_size=32,
        concurrency=2,
    ).materialize()
    # query vectors = the 5 SMALLEST media_ids (the oracle's ORDER BY
    # media_id LIMIT 5), independent of block/read order; vectorized
    # pc.is_in mask per batch (never a per-row Python predicate)
    qids = np.sort(ids)[:5]
    qset = pa.array(qids, type=pa.int64())
    head = sorted(
        feats.map_batches(
            lambda b: b.filter(pc.is_in(b["media_id"], value_set=qset)),
            batch_format="pyarrow",
        ).take_all(),
        key=lambda r: r["media_id"],
    )
    qmat = np.array([r["feature"] for r in head])
    out = ann.brute_force_topk(
        feats, qmat, qids, k=K, vec_col="feature", id_col="media_id"
    )
    return out.select(["query_id", "rank", "vec_id"])


def sql_media_ann_topk() -> str:
    """Mirror: same payload bytes (encode(text)), same md5-derived
    feature tensor per dimension, same cosine ranking."""
    feat = (
        f"list_transform(range(0, {MEDIA_DIM}), j -> "
        "(md5_number_lower(concat(lower(hex(encode(text))), ':', j)) "
        "% 2000001) / 1e6 - 1.0)"
    )
    return f"""
WITH feats AS (
  SELECT doc_id AS media_id, {feat} AS feature FROM documents
),
q AS (SELECT media_id, feature FROM feats ORDER BY media_id LIMIT 5),
ranked AS (
  SELECT q.media_id AS query_id, f.media_id AS vec_id,
         row_number() OVER (
           PARTITION BY q.media_id
           ORDER BY list_cosine_similarity(q.feature, f.feature) DESC,
                    f.media_id ASC
         ) AS rank
  FROM q CROSS JOIN feats f
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, vec_id
FROM ranked WHERE rank <= {K} ORDER BY query_id, rank
"""


# Hybrid search (ES/vector-db RRF): fuse a BM25 ranking and an ANN
# cosine ranking of the SAME corpus by reciprocal rank.  Query i is the
# i-th smallest doc id: its first-8-token text drives BM25, its
# md5-derived fake embedding (the value-checked media decoder) drives
# ANN — both halves have proven SQL mirrors, so the fusion is
# value-checked end to end.
HYBRID_W = 30   # per-ranking candidate window
HYBRID_RRF_K = 60  # the standard RRF dampener


RERANK_WINDOW = 50
RERANK_WCOS = 5.0  # script_score weight on (cosine + 1)


def q_semantic_rerank(sf_dir: str) -> pa.Table:
    """ES script_score semantic rerank (the `cosineSimilarity(...) + 1`
    pattern over a first-pass window): BM25 top-RERANK_WINDOW, then
    `bm25 + RERANK_WCOS * (cos(doc_vec, query_vec) + 1)` re-ranks the
    window (query vector = the embeddings row sharing the query's
    fixture id).  Only the window's vectors are gathered — a
    row-group-pruned 50-row read, never an embeddings scan; rank-only
    output (the ANN-entry convention for float-ordered contracts)."""
    path = os.path.join(sf_dir, "embeddings.parquet")
    meta = get_index(sf_dir)
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    rows = {"query_id": [], "rank": [], "doc_id": []}
    try:
        for qid, q in enumerate(QUERY_SET[:4]):
            window = engine.query(q, k=RERANK_WINDOW)
            if not window:
                continue
            emb = pq.read_table(
                path,
                filters=[("vec_id", "in", sorted({d for d, _ in window} | {qid}))],
            )
            vid = emb["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            mat = np.array(emb["embedding"].to_pylist(), dtype=np.float64)
            norms = np.sqrt((mat * mat).sum(axis=1))
            have = set(vid.tolist())
            # docs without a vector drop from the rerank (the ES
            # knn-style "field required" contract; SQL inner join)
            window = [(d, s) for d, s in window if d in have]
            if not window:
                continue
            wids = [d for d, _ in window]
            qpos = int(np.flatnonzero(vid == qid)[0])
            qv = mat[qpos]
            qn = norms[qpos]
            order = np.argsort(vid)
            pos = order[np.searchsorted(vid[order], np.array(wids, dtype=np.int64))]
            cos = (mat[pos] @ qv) / (norms[pos] * qn)
            combined = np.array([s for _, s in window]) + RERANK_WCOS * (cos + 1.0)
            rerank = sorted(
                zip(wids, combined), key=lambda ds_: (-ds_[1], ds_[0])
            )[:K]
            for rank, (d, _) in enumerate(rerank, start=1):
                rows["query_id"].append(qid)
                rows["rank"].append(rank)
                rows["doc_id"].append(d)
    finally:
        engine.shutdown()
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
        }
    )


def sql_semantic_rerank() -> str:
    """Mirror: the bm25 scored CTE cut to the window, cosine via
    list_cosine_similarity against the fixture query vector, combined
    re-rank — rank-only columns, same convention as sql_ann_topk."""
    tok = analyze.sql_token_array("text")
    contrib = scoring.sql_score_terms("(SELECT n_docs FROM g)", "(SELECT avgdl FROM g)")
    vals = ", ".join(
        f"({qid}, '{t}')"
        for qid, q in enumerate(QUERY_SET[:4])
        for t in sorted(set(analyze.tokenize(q)))
    )
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
stats AS (SELECT doc_id, len(toks)::BIGINT AS doc_len FROM docs),
g AS (SELECT count(*)::BIGINT AS n_docs,
             sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM stats),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs) GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
q(query_id, term) AS (VALUES {vals}),
scored AS (
  SELECT q.query_id, tf.doc_id,
         sum({contrib} ORDER BY q.term) AS score
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
),
win AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, doc_id ASC) AS rank
  FROM scored
),
rer AS (
  SELECT w.query_id, w.doc_id,
         w.score + CAST({RERANK_WCOS!r} AS DOUBLE) *
           (list_cosine_similarity(e.embedding, qe.embedding) + CAST(1.0 AS DOUBLE))
           AS combined
  FROM win w
  JOIN embeddings e ON e.vec_id = w.doc_id
  JOIN embeddings qe ON qe.vec_id = w.query_id
  WHERE w.rank <= {RERANK_WINDOW}
),
fin AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY combined DESC, doc_id ASC) AS rank
  FROM rer
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id
FROM fin WHERE rank <= {K} ORDER BY query_id, rank
"""


def q_hybrid_rrf(sf_dir: str) -> pa.Table:
    """Hybrid retrieval: per query doc, BM25 top-W (first 8 tokens of
    its text, distinct-term scoring) and cosine top-W over the
    md5-derived feature tensors fuse as ``1/(60+rank_bm25) +
    1/(60+rank_ann)`` (missing rank contributes 0); final top-K by
    (rrf desc, doc_id asc).  Only integer-ranked inputs and two exact
    double divisions per doc — bitwise the SQL mirror."""
    import pyarrow.parquet as _pq

    from . import multimodal

    tbl = _pq.read_table(docs_path(sf_dir), columns=["doc_id", "text"])
    ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
    order = np.argsort(ids)
    qpos = order[:5]
    qids = ids[qpos]
    qtexts = [tbl["text"][int(i)].as_py() for i in qpos]

    # ANN half: fake-decoded feature tensors (media pipeline machinery)
    media = pa.table(
        {
            "media_id": pa.array(ids, type=pa.int64()),
            "kind": pa.array(["image"] * len(ids), pa.string()),
            "payload": pa.array(
                [t.encode() for t in tbl["text"].to_pylist()], pa.binary()
            ),
        }
    )
    feats = ray.data.from_arrow(media).map_batches(
        multimodal.DecodeStage,
        fn_constructor_kwargs={
            "fake": True, "out_dim": MEDIA_DIM, "out_type": "float64",
        },
        batch_format="pyarrow",
        batch_size=32,
        concurrency=2,
    ).materialize()
    qset = pa.array(qids, type=pa.int64())
    head = sorted(
        feats.map_batches(
            lambda b: b.filter(pc.is_in(b["media_id"], value_set=qset)),
            batch_format="pyarrow",
        ).take_all(),
        key=lambda r: r["media_id"],
    )
    qmat = np.array([r["feature"] for r in head])
    ann_tbl = ann.brute_force_topk(
        feats, qmat, qids, k=HYBRID_W, vec_col="feature", id_col="media_id"
    )
    rank_a: dict[tuple[int, int], int] = {}
    for r in ann_tbl.select(["query_id", "rank", "vec_id"]).to_pylist():
        rank_a[(int(r["query_id"]), int(r["vec_id"]))] = int(r["rank"])

    # BM25 half: first-8-token queries on the documents index
    meta = get_index(sf_dir)
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    try:
        rank_b: dict[tuple[int, int], int] = {}
        for qid, text in zip(qids.tolist(), qtexts):
            terms = sorted(set(analyze.tokenize(text)[:8]))
            for rank, (doc, _s) in enumerate(
                engine.query_terms(terms, k=HYBRID_W), start=1
            ):
                rank_b[(int(qid), doc)] = rank
    finally:
        engine.shutdown()

    rows = {"query_id": [], "rank": [], "doc_id": [], "rrf": []}
    for qid in qids.tolist():
        cand = {d for (q, d) in rank_a if q == qid} | {
            d for (q, d) in rank_b if q == qid
        }
        fused = []
        for d in cand:
            ra = rank_a.get((qid, d))
            rb = rank_b.get((qid, d))
            # fixed A-then-B addition order == the SQL coalesce sum
            s = (1.0 / (HYBRID_RRF_K + ra) if ra else 0.0) + (
                1.0 / (HYBRID_RRF_K + rb) if rb else 0.0
            )
            fused.append((d, s))
        fused.sort(key=lambda t: (-t[1], t[0]))
        for rank, (d, s) in enumerate(fused[:K], start=1):
            rows["query_id"].append(int(qid))
            rows["rank"].append(rank)
            rows["doc_id"].append(d)
            rows["rrf"].append(s)
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "rrf": pa.array(
                np.round(np.array(rows["rrf"], dtype=np.float64), 9),
                type=pa.float64(),
            ),
        }
    )


def sql_hybrid_rrf() -> str:
    tok = analyze.sql_token_array("text")
    contrib = scoring.sql_score_terms("(SELECT n_docs FROM g)", "(SELECT avgdl FROM g)")
    feat = (
        f"list_transform(range(0, {MEDIA_DIM}), j -> "
        "(md5_number_lower(concat(lower(hex(encode(text))), ':', j)) "
        "% 2000001) / 1e6 - 1.0)"
    )
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
stats AS (SELECT doc_id, len(toks)::BIGINT AS doc_len FROM docs),
g AS (SELECT count(*)::BIGINT AS n_docs,
             sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM stats),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs) GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
feats AS (SELECT doc_id AS media_id, {feat} AS feature FROM documents),
qv AS (SELECT media_id, feature FROM feats ORDER BY media_id LIMIT 5),
aranked AS (
  SELECT query_id, vec_id, rank_a FROM (
    SELECT qv.media_id AS query_id, f.media_id AS vec_id,
           row_number() OVER (
             PARTITION BY qv.media_id
             ORDER BY list_cosine_similarity(qv.feature, f.feature) DESC,
                      f.media_id ASC
           ) AS rank_a
    FROM qv CROSS JOIN feats f
  ) WHERE rank_a <= {HYBRID_W}
),
qd AS (
  SELECT d.doc_id AS query_id, list_slice(d.toks, 1, 8) AS qtoks
  FROM docs d JOIN qv ON qv.media_id = d.doc_id
),
qt AS (SELECT DISTINCT query_id, unnest(qtoks) AS term FROM qd),
scored AS (
  SELECT qt.query_id, tf.doc_id,
         sum({contrib} ORDER BY qt.term) AS score
  FROM qt
  JOIN tf ON tf.term = qt.term
  JOIN df ON df.term = qt.term
  JOIN stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
),
branked AS (
  SELECT query_id, doc_id, rank_b FROM (
    SELECT query_id, doc_id,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY score DESC, doc_id ASC) AS rank_b
    FROM scored
  ) WHERE rank_b <= {HYBRID_W}
),
fused AS (
  SELECT coalesce(a.query_id, b.query_id) AS query_id,
         coalesce(a.vec_id, b.doc_id) AS doc_id,
         coalesce(1.0 / ({HYBRID_RRF_K} + a.rank_a), CAST(0 AS DOUBLE))
         + coalesce(1.0 / ({HYBRID_RRF_K} + b.rank_b), CAST(0 AS DOUBLE)) AS rrf
  FROM aranked a
  FULL OUTER JOIN branked b
    ON a.query_id = b.query_id AND a.vec_id = b.doc_id
),
final AS (
  SELECT query_id, doc_id, rrf,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY rrf DESC, doc_id ASC) AS rank
  FROM fused
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id,
       round(rrf, 9) AS rrf
FROM final WHERE rank <= {K} ORDER BY query_id, rank
"""


def q_top_docs_per_lang(sf_dir: str) -> pa.Table:
    """Per-group top-k (top-3 longest docs per language, ties by
    doc_id), TWO-PHASE: a per-batch partial top-3 combiner shrinks the
    corpus to <= 3 x n_langs rows PER BATCH before any exchange, so the
    final per-language step never holds a language's full row set — a
    hot language (90% of a real corpus) costs the same as a cold one.
    Top-k partials are idempotent (top3(top3(x) ∪ top3(y)) = top3(x∪y)),
    so extra combine levels can be stacked for arbitrarily large batch
    counts; one level + the reduced final group suffices here."""
    import pandas as pd

    ds = ray.data.read_parquet(
        docs_path(sf_dir), columns=["doc_id", "lang", "n_chars"]
    )

    def batch_top3(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values(["n_chars", "doc_id"], ascending=[False, True])
            .groupby("lang", sort=False)
            .head(3)
        )

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        g = batch_top3(g).reset_index(drop=True)
        g["rank"] = range(1, len(g) + 1)
        return g[["lang", "rank", "doc_id", "n_chars"]]

    partials = ds.map_batches(batch_top3, batch_format="pandas", batch_size=4096)
    out = partials.groupby("lang").map_groups(finalize, batch_format="pandas")
    return _collect(out)


def sql_top_docs_per_lang() -> str:
    return """
WITH ranked AS (
  SELECT lang, doc_id, n_chars,
         row_number() OVER (PARTITION BY lang ORDER BY n_chars DESC, doc_id ASC) AS rank
  FROM documents
)
SELECT lang, rank::BIGINT AS rank, doc_id, n_chars
FROM ranked WHERE rank <= 3 ORDER BY lang, rank
"""


def q_doclen_quantiles(sf_dir: str) -> pa.Table:
    """EXACT discrete quantiles of document length per language,
    TWO-PHASE via value-count histograms: per-batch (lang, n_chars,
    count) partials (a batch shrinks to its distinct values), a native
    groupby sum merges them, then the per-language quantile pick runs
    over a group whose size is bounded by the VALUE DOMAIN (distinct
    doc lengths), never by the corpus — a 90%-hot language costs the
    same as a cold one.  Lower interpolation over the cumulative counts
    = DuckDB quantile_disc (index ceil(p*n) - 1)."""
    import pandas as pd

    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["lang", "n_chars"])

    def batch_counts(b: pa.Table) -> pa.Table:
        t = b.group_by(["lang", "n_chars"]).aggregate([("n_chars", "count")])
        return t.rename_columns(["lang", "n_chars", "count"])

    def q(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("n_chars")
        v = g["n_chars"].to_numpy()
        c = g["count"].to_numpy().astype(np.int64)
        cum = np.cumsum(c)
        n = int(cum[-1])
        out = {"lang": [g["lang"].iloc[0]], "n_docs": [n]}
        for p in (50, 90, 99):
            # DuckDB's quantile_disc convention: element at ordinal
            # ceil(p*n) (1-based) = first value whose cumulative count
            # reaches it (verified against quantile_disc)
            ordinal = max(1, int(np.ceil(p / 100 * n)))
            out[f"p{p}"] = [int(v[np.searchsorted(cum, ordinal)])]
        return pd.DataFrame(out)

    partials = ds.map_batches(batch_counts, batch_format="pyarrow", batch_size=8192)
    counts = (
        partials.groupby(["lang", "n_chars"]).sum("count").rename_columns(
            {"sum(count)": "count"}
        )
    )
    return _collect(counts.groupby("lang").map_groups(q, batch_format="pandas"))


def sql_doclen_quantiles() -> str:
    return """
SELECT lang, count(*)::BIGINT AS n_docs,
       quantile_disc(n_chars, 0.50)::BIGINT AS p50,
       quantile_disc(n_chars, 0.90)::BIGINT AS p90,
       quantile_disc(n_chars, 0.99)::BIGINT AS p99
FROM documents GROUP BY 1 ORDER BY 1
"""


def q_export_shards(sf_dir: str) -> pa.Table:
    """Training export: deterministic epoch shuffle + shard assignment
    (shard = salted-hash mod S, pos = exact rank within shard in
    (h, id) order) — two-phase ranking, no global sort, no group ever
    holds a shard's full rows."""
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id"])
    out = curation.export_shards(ds, n_shards=8)
    return _collect(out).sort_by("doc_id")


def sql_export_shards(n_shards: int = 8, salt: str = "export") -> str:
    h = f"(md5_number_lower(concat('{salt}', doc_id::VARCHAR)) % 1000000)::BIGINT"
    return f"""
WITH d AS (SELECT doc_id, {h} AS h FROM documents)
SELECT doc_id, (h % {n_shards})::BIGINT AS shard,
       (row_number() OVER (PARTITION BY h % {n_shards} ORDER BY h, doc_id) - 1)::BIGINT AS pos
FROM d ORDER BY doc_id
"""


# --------------------------------------------------------------------------
# Training-data curation pipelines (cb.curation)
# --------------------------------------------------------------------------

SAMPLE_RATES = {"en": 60, "fr": 35, "de": 20, "es": 10, "zh": 5}

# Deterministic benchmark set for the decontamination gate, derivable
# identically by the static SQL oracle: the 3 lowest-doc_id documents
# (guaranteed hits) + one absent probe string.
_DECON_PROBE = "zebra quantum flux capacitor benchmark probe text only"


def _benchmark_texts(sf_dir: str) -> list[str]:
    head = pq.read_table(docs_path(sf_dir), columns=["doc_id", "text"]).sort_by("doc_id")
    return [head["text"][i].as_py() for i in range(min(3, head.num_rows))] + [_DECON_PROBE]


def _decon_bench_sql() -> str:
    return (
        "(SELECT text AS bt FROM documents ORDER BY doc_id LIMIT 3) "
        f"UNION ALL (SELECT '{_DECON_PROBE}')"
    )


def q_quality_filter(sf_dir: str) -> pa.Table:
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id", "text"])
    return _collect(curation.quality_filter(ds))


def q_stratified_sample(sf_dir: str) -> pa.Table:
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id", "lang"])
    return _collect(curation.stratified_sample(ds, SAMPLE_RATES))


def q_decontaminate(sf_dir: str) -> pa.Table:
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id", "text"])
    return _collect(curation.decontaminate(ds, _benchmark_texts(sf_dir), n=8))


def q_pii_redact(sf_dir: str) -> pa.Table:
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id", "text"])
    return _collect(curation.pii_redact(ds))


def q_bpe_token_stats(sf_dir: str) -> pa.Table:
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id", "text"])
    return _collect(curation.bpe_token_stats(ds))


def q_pack_sequences(sf_dir: str) -> pa.Table:
    """Greedy token-budget sequence packing; the per-group running-
    budget recurrence has an exact recursive-CTE SQL mirror (value-
    checked) plus invariant tests in tests/test_curation.py."""
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id", "text"])
    # n_groups pinned: the static oracle SQL uses % 64 (auto resolves
    # to 64 at every test sf anyway — floor of auto_pack_groups)
    return _collect(curation.pack_sequences(ds, budget=512, n_groups=64))


# --------------------------------------------------------------------------
# Reference-parity relational pipelines (filters / windowed aggregates)
# --------------------------------------------------------------------------

FILTER_EXPR = "l_quantity >= 49 | l_discount <= 0.01"


def q_filter_pushdown(sf_dir: str) -> pa.Table:
    expr = filters.compile_filter(FILTER_EXPR)
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_linenumber", "l_quantity", "l_discount"],
        filter=expr,
    )
    return _collect(ds)


def sql_filter_pushdown() -> str:
    return f"""
SELECT l_orderkey, l_linenumber, l_quantity, l_discount
FROM lineitem WHERE {filters.to_sql(FILTER_EXPR)}
ORDER BY l_orderkey, l_linenumber
"""


def q_events_minute_agg(sf_dir: str) -> pa.Table:
    """Minute-window aggregate — the engine analog of the reference's
    1-minute shard keys (MinuteTableShardScheduler.cs:29-45)."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts", "event_type", "value"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        minute = pc.floor_temporal(batch["ts"], unit="minute")
        t = pa.table(
            {
                "minute": minute,
                "event_type": batch["event_type"],
                "value": batch["value"],
            }
        )
        return (
            t.group_by(["minute", "event_type"])
            .aggregate([("value", "sum"), ([], "count_all")])
            .rename_columns(["minute", "event_type", "value_sum", "n"])
        )

    pre = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = pre.groupby(["minute", "event_type"]).aggregate(
        Sum("value_sum", alias_name="sum_value"), Sum("n", alias_name="n_events")
    )
    t = _collect(agg)
    rounded = np.round(t["sum_value"].to_numpy(zero_copy_only=False), 6)
    return t.set_column(
        t.schema.get_field_index("sum_value"),
        "sum_value",
        pa.array(rounded, type=pa.float64()),
    )


def q_pipeline_agg(sf_dir: str) -> pa.Table:
    """ES pipeline aggregations (cumulative_sum / derivative /
    moving_avg) over a per-type minute date_histogram of the events
    stream: bucket counts reduce distributedly as INTEGERS (exact in
    any fold order), then one O(buckets) vectorized driver post-pass
    computes the running metrics per event_type over minute-ordered
    PRESENT buckets; rows emit from the 3rd bucket per type so every
    metric (incl. the trailing window-3 mean) is defined — no nullable
    columns.  The single float per row is one division of an exact
    integer sum, bit-identical to the SQL mirror."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts", "event_type"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        minute = pc.floor_temporal(batch["ts"], unit="minute")
        t = pa.table({"minute": minute, "event_type": batch["event_type"]})
        return (
            t.group_by(["minute", "event_type"])
            .aggregate([([], "count_all")])
            .rename_columns(["minute", "event_type", "n"])
        )

    pre = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = pre.groupby(["minute", "event_type"]).aggregate(Sum("n", alias_name="n"))
    t = _collect(agg)
    et = t["event_type"]
    if isinstance(et, pa.ChunkedArray):
        et = et.combine_chunks()
    enc = et.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    # normalize the bucket unit BEFORE the int64 round-trip: groupby
    # may hand back timestamp[s], and rebuilding seconds as [us] would
    # silently shift every bucket to 1970
    minutes = t["minute"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
        zero_copy_only=False
    )
    ns = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((minutes, codes))
    sc, sm, sn = codes[order], minutes[order], ns[order]
    starts = np.flatnonzero(np.r_[True, sc[1:] != sc[:-1]]) if len(sc) else np.empty(0, np.int64)
    dictionary = enc.dictionary.to_pylist()
    rows = {
        "event_type": [], "minute": [], "n": [],
        "cum_n": [], "deriv": [], "mavg3": [],
    }
    ends = np.append(starts[1:], len(sc))
    for s, e in zip(starts, ends):
        n_g = sn[s:e]
        cum = np.cumsum(n_g)
        for i in range(2, len(n_g)):  # rank >= 3: deriv + window-3 defined
            rows["event_type"].append(dictionary[sc[s]])
            rows["minute"].append(int(sm[s + i]))
            rows["n"].append(int(n_g[i]))
            rows["cum_n"].append(int(cum[i]))
            rows["deriv"].append(int(n_g[i] - n_g[i - 1]))
            rows["mavg3"].append(int(n_g[i] + n_g[i - 1] + n_g[i - 2]) / 3.0)
    return pa.table(
        {
            "event_type": pa.array(rows["event_type"], pa.string()),
            "minute": pa.array(rows["minute"], pa.int64()).cast(pa.timestamp("us")),
            "n": pa.array(rows["n"], pa.int64()),
            "cum_n": pa.array(rows["cum_n"], pa.int64()),
            "deriv": pa.array(rows["deriv"], pa.int64()),
            "mavg3": pa.array(rows["mavg3"], pa.float64()),
        }
    )


def sql_pipeline_agg() -> str:
    return """
WITH b AS (
  SELECT event_type, date_trunc('minute', ts) AS minute, count(*)::BIGINT AS n
  FROM events GROUP BY 1, 2
),
w AS (
  SELECT event_type, minute, n,
         sum(n) OVER (PARTITION BY event_type ORDER BY minute)::BIGINT AS cum_n,
         (n - lag(n) OVER (PARTITION BY event_type ORDER BY minute))::BIGINT AS deriv,
         (n + lag(n) OVER (PARTITION BY event_type ORDER BY minute)
            + lag(n, 2) OVER (PARTITION BY event_type ORDER BY minute))::DOUBLE
           / CAST(3 AS DOUBLE) AS mavg3,
         row_number() OVER (PARTITION BY event_type ORDER BY minute) AS rn
  FROM b
)
SELECT event_type, minute, n, cum_n, deriv, mavg3
FROM w WHERE rn >= 3 ORDER BY event_type, minute
"""


SDIFF_LAG = 5


def q_serial_diff(sf_dir: str) -> pa.Table:
    """ES ``serial_diff`` (lag 5) + ``moving_fn`` (window-3 max)
    pipeline aggs over the same per-type minute date_histogram as
    q_pipeline_agg: counts reduce distributedly as exact integers, the
    driver post-pass is O(buckets) vectorized numpy over the small
    bucket table, rows emit from rank lag+1 so both metrics are
    defined — all-integer outputs, no float hazard at all."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts", "event_type"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        minute = pc.floor_temporal(batch["ts"], unit="minute")
        t = pa.table({"minute": minute, "event_type": batch["event_type"]})
        return (
            t.group_by(["minute", "event_type"])
            .aggregate([([], "count_all")])
            .rename_columns(["minute", "event_type", "n"])
        )

    pre = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = pre.groupby(["minute", "event_type"]).aggregate(Sum("n", alias_name="n"))
    t = _collect(agg)
    et = t["event_type"]
    if isinstance(et, pa.ChunkedArray):
        et = et.combine_chunks()
    enc = et.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    minutes = t["minute"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
        zero_copy_only=False
    )
    ns = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((minutes, codes))
    sc, sm, sn = codes[order], minutes[order], ns[order]
    starts = np.flatnonzero(np.r_[True, sc[1:] != sc[:-1]]) if len(sc) else np.empty(0, np.int64)
    dictionary = enc.dictionary.to_pylist()
    rows = {"event_type": [], "minute": [], "n": [], "sdiff": [], "mmax3": []}
    ends = np.append(starts[1:], len(sc))
    for s, e in zip(starts, ends):
        n_g = sn[s:e]
        for i in range(SDIFF_LAG, len(n_g)):
            rows["event_type"].append(dictionary[sc[s]])
            rows["minute"].append(int(sm[s + i]))
            rows["n"].append(int(n_g[i]))
            rows["sdiff"].append(int(n_g[i] - n_g[i - SDIFF_LAG]))
            rows["mmax3"].append(int(max(n_g[i], n_g[i - 1], n_g[i - 2])))
    return pa.table(
        {
            "event_type": pa.array(rows["event_type"], pa.string()),
            "minute": pa.array(rows["minute"], pa.int64()).cast(pa.timestamp("us")),
            "n": pa.array(rows["n"], pa.int64()),
            "sdiff": pa.array(rows["sdiff"], pa.int64()),
            "mmax3": pa.array(rows["mmax3"], pa.int64()),
        }
    )


def sql_serial_diff() -> str:
    return f"""
WITH b AS (
  SELECT event_type, date_trunc('minute', ts) AS minute, count(*)::BIGINT AS n
  FROM events GROUP BY 1, 2
),
w AS (
  SELECT event_type, minute, n,
         (n - lag(n, {SDIFF_LAG}) OVER (PARTITION BY event_type ORDER BY minute))::BIGINT AS sdiff,
         greatest(n, lag(n) OVER (PARTITION BY event_type ORDER BY minute),
                  lag(n, 2) OVER (PARTITION BY event_type ORDER BY minute))::BIGINT AS mmax3,
         row_number() OVER (PARTITION BY event_type ORDER BY minute) AS rn
  FROM b
)
SELECT event_type, minute, n, sdiff, mmax3
FROM w WHERE rn >= {SDIFF_LAG + 1} ORDER BY event_type, minute
"""


BUCKET_SCRIPT_MIN_RATIO = 0.25  # bucket_selector bound on the script value


def q_bucket_script_agg(sf_dir: str) -> pa.Table:
    """ES ``bucket_script`` + ``bucket_selector`` pipeline aggs over an
    hour date_histogram of the events stream: per bucket, the click
    share (a script ratio of two sub-counts) and a selector keeping
    only buckets whose script value exceeds ``BUCKET_SCRIPT_MIN_RATIO``
    — the bound is on the scale-free ratio, so the selector actually
    prunes at every corpus size.  Counts reduce distributedly as exact
    integers (per-batch Arrow partials, one small groupby); the script
    is ONE double division per bucket and the selector ONE comparison,
    both driver-side over the O(buckets) result — bitwise vs SQL."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts", "event_type"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch["ts"], unit="hour")
        is_click = pc.cast(
            pc.equal(batch["event_type"], "click"), pa.int64()
        )
        t = pa.table(
            {"hour": hour, "one": pa.array(np.ones(len(batch), np.int64)),
             "is_click": is_click}
        )
        return (
            t.group_by(["hour"])
            .aggregate([("one", "sum"), ("is_click", "sum")])
            .rename_columns(["hour", "n", "n_click"])
        )

    pre = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = pre.groupby("hour").aggregate(
        Sum("n", alias_name="n"), Sum("n_click", alias_name="n_click")
    )
    t = _collect(agg)
    # normalize the bucket unit BEFORE the int64 round-trip (groupby
    # may return timestamp[s]; seconds rebuilt as [us] land in 1970)
    hours = t["hour"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
        zero_copy_only=False
    )
    n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    n_click = t["n_click"].to_numpy(zero_copy_only=False).astype(np.int64)
    ratio = n_click / n  # exact ints < 2^53: division is bitwise vs SQL
    keep = ratio > BUCKET_SCRIPT_MIN_RATIO
    order = np.argsort(hours[keep])
    return pa.table(
        {
            "hour": pa.array(hours[keep][order], pa.int64()).cast(
                pa.timestamp("us")
            ),
            "n": pa.array(n[keep][order], pa.int64()),
            "n_click": pa.array(n_click[keep][order], pa.int64()),
            "click_ratio": pa.array(ratio[keep][order], pa.float64()),
        }
    )


def sql_bucket_script_agg() -> str:
    return f"""
WITH b AS (
  SELECT date_trunc('hour', ts) AS hour, count(*)::BIGINT AS n,
         sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END)::BIGINT AS n_click
  FROM events GROUP BY 1
),
r AS (SELECT hour, n, n_click, n_click::DOUBLE / n::DOUBLE AS click_ratio FROM b)
SELECT hour, n, n_click, click_ratio
FROM r WHERE click_ratio > {BUCKET_SCRIPT_MIN_RATIO!r} ORDER BY hour
"""


def q_bucket_stats_pipeline(sf_dir: str) -> pa.Table:
    """ES sibling pipeline aggs (``max_bucket`` / ``min_bucket`` /
    ``sum_bucket`` / ``avg_bucket``) over a per-type minute
    date_histogram of the events stream: ONE summary row per
    event_type — the extreme buckets' keys and counts, the bucket-count
    sum, and the mean bucket size.  Bucket counts reduce distributedly
    as exact integers (per-batch Arrow partials + one small groupby);
    the sibling fold is an O(buckets) driver pass, extreme-key ties
    broken to the EARLIEST minute (deterministic; ES returns a keys
    LIST on ties — we pin the contract to its first element).  The
    single double per row is one division of exact ints — bitwise vs
    SQL."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts", "event_type"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        minute = pc.floor_temporal(batch["ts"], unit="minute")
        t = pa.table({"minute": minute, "event_type": batch["event_type"]})
        return (
            t.group_by(["minute", "event_type"])
            .aggregate([([], "count_all")])
            .rename_columns(["minute", "event_type", "n"])
        )

    pre = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = pre.groupby(["minute", "event_type"]).aggregate(Sum("n", alias_name="n"))
    t = _collect(agg)
    et = t["event_type"]
    if isinstance(et, pa.ChunkedArray):
        et = et.combine_chunks()
    enc = et.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    minutes = t["minute"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
        zero_copy_only=False
    )
    ns = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((minutes, codes))
    sc, sm, sn = codes[order], minutes[order], ns[order]
    starts = np.flatnonzero(np.r_[True, sc[1:] != sc[:-1]]) if len(sc) else np.empty(0, np.int64)
    ends = np.append(starts[1:], len(sc))
    dictionary = enc.dictionary.to_pylist()
    rows = {
        "event_type": [], "n_buckets": [], "sum_n": [], "avg_n": [],
        "max_minute": [], "max_n": [], "min_minute": [], "min_n": [],
    }
    for s, e in zip(starts, ends):
        n_g, m_g = sn[s:e], sm[s:e]
        # minute-ascending within the type: argmax/argmin take the
        # FIRST (earliest) extreme bucket — the documented tie rule
        imax, imin = int(np.argmax(n_g)), int(np.argmin(n_g))
        rows["event_type"].append(dictionary[sc[s]])
        rows["n_buckets"].append(len(n_g))
        rows["sum_n"].append(int(n_g.sum()))
        rows["avg_n"].append(int(n_g.sum()) / len(n_g))
        rows["max_minute"].append(int(m_g[imax]))
        rows["max_n"].append(int(n_g[imax]))
        rows["min_minute"].append(int(m_g[imin]))
        rows["min_n"].append(int(n_g[imin]))
    return pa.table(
        {
            "event_type": pa.array(rows["event_type"], pa.string()),
            "n_buckets": pa.array(rows["n_buckets"], pa.int64()),
            "sum_n": pa.array(rows["sum_n"], pa.int64()),
            "avg_n": pa.array(rows["avg_n"], pa.float64()),
            "max_minute": pa.array(rows["max_minute"], pa.int64()).cast(pa.timestamp("us")),
            "max_n": pa.array(rows["max_n"], pa.int64()),
            "min_minute": pa.array(rows["min_minute"], pa.int64()).cast(pa.timestamp("us")),
            "min_n": pa.array(rows["min_n"], pa.int64()),
        }
    )


def sql_bucket_stats_pipeline() -> str:
    return """
WITH b AS (
  SELECT event_type, date_trunc('minute', ts) AS minute, count(*)::BIGINT AS n
  FROM events GROUP BY 1, 2
),
w AS (
  SELECT event_type, minute, n,
         count(*) OVER (PARTITION BY event_type)::BIGINT AS n_buckets,
         sum(n) OVER (PARTITION BY event_type)::BIGINT AS sum_n,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY n DESC, minute ASC) AS rmax,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY n ASC, minute ASC) AS rmin
  FROM b
)
SELECT mx.event_type, mx.n_buckets, mx.sum_n,
       mx.sum_n::DOUBLE / mx.n_buckets::DOUBLE AS avg_n,
       mx.minute AS max_minute, mx.n AS max_n,
       mn.minute AS min_minute, mn.n AS min_n
FROM (SELECT * FROM w WHERE rmax = 1) mx
JOIN (SELECT * FROM w WHERE rmin = 1) mn ON mn.event_type = mx.event_type
ORDER BY mx.event_type
"""


# auto_date_histogram interval ladder (minutes) and bucket-count target
AUTO_HIST_LADDER_MIN: tuple[int, ...] = (1, 5, 15, 60, 240, 1440, 10080)
AUTO_HIST_TARGET = 40


def q_auto_date_histogram(sf_dir: str) -> pa.Table:
    """ES ``auto_date_histogram``: the interval is CHOSEN from a fixed
    ladder — the smallest rung whose epoch-floored bucket count over
    [min_ts, max_ts] fits the target (last rung if none fits; buckets
    anchor at the epoch, not ISO weeks — documented contract).  One
    distributed pass: per-batch MINUTE value_counts (every rung is a
    minute multiple, so flooring minutes == flooring raw ts) reduce as
    exact ints; span, rung pick and the O(minutes) re-bucket fold are
    driver-side."""
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts"])

    def partial(batch: pa.Table) -> pa.Table:
        minute = pc.floor_temporal(batch["ts"], unit="minute")
        t = pa.table({"minute": minute})
        return (
            t.group_by(["minute"])
            .aggregate([([], "count_all")])
            .rename_columns(["minute", "n"])
        )

    pre = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = pre.groupby("minute").aggregate(Sum("n", alias_name="n"))
    t = _collect(agg)
    minutes = t["minute"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
        zero_copy_only=False
    )
    ns = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    if len(minutes) == 0:
        return pa.table(
            {
                "interval_min": pa.array([], pa.int64()),
                "bucket": pa.array([], pa.int64()).cast(pa.timestamp("us")),
                "cnt": pa.array([], pa.int64()),
            }
        )
    mn, mx = int(minutes.min()), int(minutes.max())
    iv_us = AUTO_HIST_LADDER_MIN[-1] * 60_000_000
    for rung in AUTO_HIST_LADDER_MIN:
        r_us = rung * 60_000_000
        if mx // r_us - mn // r_us + 1 <= AUTO_HIST_TARGET:
            iv_us = r_us
            break
    buckets = minutes // iv_us * iv_us
    order = np.argsort(buckets, kind="stable")
    sb, sn2 = buckets[order], ns[order]
    starts = np.flatnonzero(np.r_[True, sb[1:] != sb[:-1]])
    cnts = np.add.reduceat(sn2, starts)
    return pa.table(
        {
            "interval_min": pa.array(
                np.full(len(starts), iv_us // 60_000_000, np.int64), pa.int64()
            ),
            "bucket": pa.array(sb[starts], pa.int64()).cast(pa.timestamp("us")),
            "cnt": pa.array(cnts, pa.int64()),
        }
    )


def sql_auto_date_histogram() -> str:
    lad = ", ".join(f"({m * 60_000_000})" for m in AUTO_HIST_LADDER_MIN)
    last = AUTO_HIST_LADDER_MIN[-1] * 60_000_000
    return f"""
WITH lad(iv_us) AS (VALUES {lad}),
g AS (SELECT epoch_us(min(ts)) AS mn, epoch_us(max(ts)) AS mx FROM events),
pick AS (
  SELECT coalesce(min(iv_us), {last})::BIGINT AS iv_us
  FROM lad, g WHERE (g.mx // lad.iv_us) - (g.mn // lad.iv_us) + 1 <= {AUTO_HIST_TARGET}
)
SELECT (p.iv_us // 60000000)::BIGINT AS interval_min,
       make_timestamp(epoch_us(e.ts) // p.iv_us * p.iv_us) AS bucket,
       count(*)::BIGINT AS cnt
FROM events e, pick p
GROUP BY 1, 2 ORDER BY bucket
"""


def q_sessionize(sf_dir: str) -> pa.Table:
    """Gap-based session windows over the events stream (W1/W2 analog:
    event-time windows as groupby.map_groups over sorted groups)."""
    from . import windows

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts", "value"]
    )
    out = windows.sessionize(ds, gap_seconds=1800)
    t = _collect(out)
    rounded = np.round(t["sum_value"].to_numpy(zero_copy_only=False), 6)
    t = t.set_column(
        t.schema.get_field_index("sum_value"), "sum_value", pa.array(rounded, type=pa.float64())
    )
    return t.set_column(
        t.schema.get_field_index("n_events"), "n_events", t["n_events"].cast(pa.int64())
    )


def sql_sessionize() -> str:
    from . import windows

    return windows.sql_sessionize()


def sql_events_minute_agg() -> str:
    return """
SELECT date_trunc('minute', ts) AS minute, event_type,
       round(sum(value), 6) AS sum_value, count(*)::BIGINT AS n_events
FROM events GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_late_events(sf_dir: str) -> pa.Table:
    """Late-data / lag metrics over the event stream (W3 parity):
    watermark = running max event-time in arrival (event_id) order;
    per-event-type late counts and max lag."""
    from . import windows

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_id", "ts", "event_type"]
    )
    return windows.late_event_metrics(ds, grace_seconds=0.0)


def sql_late_events() -> str:
    from . import windows

    return windows.sql_late_event_metrics(grace_seconds=0.0)


def q_events_props_extract(sf_dir: str) -> pa.Table:
    """JSON property extraction (P5 GenericJsonParser parity, driver-
    gated): the flat props JSON column is field-extracted with a
    vectorized Arrow regex kernel (the fast path for flat props; nested
    JSON goes through cb.parsers.parse_json) and aggregated per event
    type."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "props"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        m = pc.extract_regex(batch["props"], pattern=r'"k": (?P<k>-?\d+)')
        k = pc.struct_field(m, "k").cast(pa.int64())
        t = pa.table({"event_type": batch["event_type"], "k": k})
        return (
            t.group_by(["event_type"])
            .aggregate([("k", "sum"), ([], "count_all")])
            .rename_columns(["event_type", "k_sum", "n"])
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type")
        .aggregate(Sum("k_sum", alias_name="sum_k"), Sum("n", alias_name="n_events"))
    )
    t = _collect(agg)
    return t.set_column(
        t.schema.get_field_index("sum_k"), "sum_k", t["sum_k"].cast(pa.int64())
    ).set_column(
        t.schema.get_field_index("n_events"), "n_events", t["n_events"].cast(pa.int64())
    )


def sql_events_props_extract() -> str:
    return """
SELECT event_type,
       sum(CAST(regexp_extract(props, '"k": (-?\\d+)', 1) AS BIGINT))::BIGINT AS sum_k,
       count(*)::BIGINT AS n_events
FROM events GROUP BY 1 ORDER BY 1
"""


def q_orders_by_segment(sf_dir: str) -> pa.Table:
    """Broadcast join (orders x customer dimension) + grouped counts —
    the reference's config-into-work-item embedding as an operator."""
    from . import joins

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]
    ).rename_columns(["o_custkey", "c_mktsegment"])
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderpriority", "o_totalprice"],
    )
    joined = joins.broadcast_join(ds, cust, on="o_custkey")

    def partial(batch: pa.Table) -> pa.Table:
        cents = np.rint(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        t = pa.table(
            {
                "c_mktsegment": batch["c_mktsegment"],
                "o_orderpriority": batch["o_orderpriority"],
                "cents": pa.array(cents, type=pa.int64()),
            }
        )
        return (
            t.group_by(["c_mktsegment", "o_orderpriority"])
            .aggregate([("cents", "sum"), ([], "count_all")])
            .rename_columns(["c_mktsegment", "o_orderpriority", "cents_sum", "n"])
        )

    agg = (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby(["c_mktsegment", "o_orderpriority"])
        .aggregate(Sum("cents_sum", alias_name="cents"), Sum("n", alias_name="n_orders"))
    )
    t = _collect(agg)
    total = t["cents"].to_numpy(zero_copy_only=False) / 100.0
    t = t.drop_columns(["cents"]).append_column(
        "sum_totalprice", pa.array(total, type=pa.float64())
    )
    return t.set_column(
        t.schema.get_field_index("n_orders"), "n_orders", t["n_orders"].cast(pa.int64())
    )


def sql_orders_by_segment() -> str:
    # money summed exactly in integer cents on both sides (double SUM
    # order is nondeterministic; cents are exact), divided once at the end
    return """
SELECT c.c_mktsegment, o.o_orderpriority,
       count(*)::BIGINT AS n_orders,
       sum(CAST(round(o.o_totalprice * 100.0) AS BIGINT)) / 100.0 AS sum_totalprice
FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_orders_lineitem_join(sf_dir: str) -> pa.Table:
    """Large-large fact join (orders x lineitem on orderkey, one
    key-hash shuffle per side via Ray Data's native hash join) +
    grouped integer-exact aggregate."""
    from . import joins

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey", "o_orderpriority"]
    )
    lineitem = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"), columns=["l_orderkey", "l_quantity"]
    )
    joined = joins.hash_join(
        lineitem, orders, on="l_orderkey", right_on="o_orderkey", num_partitions=8
    )

    def partial(batch: pa.Table) -> pa.Table:
        qty = np.rint(batch["l_quantity"].to_numpy(zero_copy_only=False)).astype(np.int64)
        t = pa.table(
            {
                "o_orderpriority": batch["o_orderpriority"],
                "qty": pa.array(qty, type=pa.int64()),
            }
        )
        return (
            t.group_by(["o_orderpriority"])
            .aggregate([("qty", "sum"), ([], "count_all")])
            .rename_columns(["o_orderpriority", "qty_sum", "n"])
        )

    agg = (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Sum("qty_sum", alias_name="sum_qty"), Sum("n", alias_name="n_lines"))
    )
    t = _collect(agg)
    return t.set_column(
        t.schema.get_field_index("sum_qty"), "sum_qty", t["sum_qty"].cast(pa.int64())
    ).set_column(
        t.schema.get_field_index("n_lines"), "n_lines", t["n_lines"].cast(pa.int64())
    )


def sql_orders_lineitem_join() -> str:
    return """
SELECT o.o_orderpriority,
       sum(CAST(round(l.l_quantity) AS BIGINT))::BIGINT AS sum_qty,
       count(*)::BIGINT AS n_lines
FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
GROUP BY 1 ORDER BY 1
"""


def q_pricing_summary(sf_dir: str) -> pa.Table:
    """TPC-H Q1-shaped pricing summary with decimal-exact money sums
    (partial integer-cent aggregation per batch -> tiny global groupby)."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=[
            "l_returnflag", "l_linestatus", "l_quantity",
            "l_extendedprice", "l_discount", "l_shipdate",
        ],
    )
    def partial(batch: pa.Table) -> pa.Table:
        cutoff = pa.scalar(
            np.datetime64("1998-09-02", "us"), type=batch["l_shipdate"].type
        )
        keep = pc.less_equal(batch["l_shipdate"], cutoff)
        b = batch.filter(keep)
        price = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = b["l_discount"].to_numpy(zero_copy_only=False)
        qty = b["l_quantity"].to_numpy(zero_copy_only=False)
        base_c = np.rint(price * 100.0).astype(np.int64)
        # price*(1-disc) is a 4-decimal value mathematically; *1e4 lands
        # within ulps of an integer, so rint is exact and identical to
        # the SQL mirror
        disc_c = np.rint(price * (1.0 - disc) * 10000.0).astype(np.int64)
        t = pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "qty": pa.array(np.rint(qty).astype(np.int64), type=pa.int64()),
                "base_c": pa.array(base_c, type=pa.int64()),
                "disc_c": pa.array(disc_c, type=pa.int64()),
            }
        )
        return (
            t.group_by(["l_returnflag", "l_linestatus"])
            .aggregate([("qty", "sum"), ("base_c", "sum"), ("disc_c", "sum"), ([], "count_all")])
            .rename_columns(
                ["l_returnflag", "l_linestatus", "qty_sum", "base_sum", "disc_sum", "n"]
            )
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty_sum", alias_name="sum_qty"),
            Sum("base_sum", alias_name="base_c"),
            Sum("disc_sum", alias_name="disc_c"),
            Sum("n", alias_name="count_order"),
        )
    )
    t = _collect(agg)
    base = t["base_c"].to_numpy(zero_copy_only=False) / 100.0
    disc = t["disc_c"].to_numpy(zero_copy_only=False) / 10000.0
    t = t.drop_columns(["base_c", "disc_c"])
    t = t.append_column("sum_base_price", pa.array(base, type=pa.float64()))
    t = t.append_column("sum_disc_price", pa.array(disc, type=pa.float64()))
    t = t.set_column(
        t.schema.get_field_index("sum_qty"), "sum_qty", t["sum_qty"].cast(pa.int64())
    )
    return t.set_column(
        t.schema.get_field_index("count_order"),
        "count_order",
        t["count_order"].cast(pa.int64()),
    )


def sql_pricing_summary() -> str:
    return """
SELECT l_returnflag, l_linestatus,
       sum(CAST(round(l_quantity) AS BIGINT))::BIGINT AS sum_qty,
       count(*)::BIGINT AS count_order,
       sum(CAST(round(l_extendedprice * 100.0) AS BIGINT)) / 100.0 AS sum_base_price,
       sum(CAST(round(l_extendedprice * (1.0 - l_discount) * 10000.0) AS BIGINT)) / 10000.0 AS sum_disc_price
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_events_asof_join(sf_dir: str) -> pa.Table:
    """As-of join: each purchase matched to the user's latest click
    at-or-before it (cb.joins.asof_join — hash co-partition by user,
    per-bucket C sorted-merge; the right side is filtered to clicks
    BEFORE the match so 'latest prior click' is exact even when a
    later non-click event intervenes)."""
    from . import joins

    path = os.path.join(sf_dir, "events.parquet")
    left = ray.data.read_parquet(
        path,
        columns=["event_id", "user_id", "ts", "value"],
        filter=filters.compile_filter("event_type == 'purchase'"),
    )
    right = ray.data.read_parquet(
        path,
        columns=["user_id", "ts", "value"],
        filter=filters.compile_filter("event_type == 'click'"),
    )

    def prep_right(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "ts": batch["ts"],
                "click_ts": batch["ts"],
                "click_value": batch["value"],
            }
        )

    right = right.map_batches(prep_right, batch_format="pyarrow", zero_copy_batch=True)
    out = joins.asof_join(
        left, right, on="ts", by="user_id", direction="backward", how="inner"
    )
    return _collect(out)


def sql_events_asof_join() -> str:
    return """
SELECT p.event_id, p.user_id, p.ts, p.value, c.ts AS click_ts, c.value AS click_value
FROM (SELECT * FROM events WHERE event_type = 'purchase') p
ASOF JOIN (SELECT * FROM events WHERE event_type = 'click') c
  ON p.user_id = c.user_id AND p.ts >= c.ts
ORDER BY p.event_id
"""


def q_events_interval_join(sf_dir: str) -> pa.Table:
    """Range join: events matched to OVERLAPPING value bands (each value
    falls in up to two [i*15, i*15+30) intervals), then aggregated per
    band — cb.joins.interval_join (broadcast small side, one vectorized
    comparison per batch) + integer-cent partial aggregation."""
    from . import joins

    n_bands = 24
    i = np.arange(n_bands, dtype=np.int64)
    bands = pa.table(
        {
            "band": pa.array(i, type=pa.int64()),
            "lo": pa.array(i * 15.0, type=pa.float64()),
            "hi": pa.array(i * 15.0 + 30.0, type=pa.float64()),
        }
    )
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["value"])
    joined = joins.interval_join(ds, bands, on="value")

    def partial(batch: pa.Table) -> pa.Table:
        cents = np.rint(
            batch["value"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        t = pa.table({"band": batch["band"], "cents": pa.array(cents, pa.int64())})
        return (
            t.group_by(["band"])
            .aggregate([("cents", "sum"), ([], "count_all")])
            .rename_columns(["band", "cents", "n"])
        )

    agg = (
        joined.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("band")
        .aggregate(Sum("cents", alias_name="cents"), Sum("n", alias_name="n_events"))
    )
    t = _collect(agg)
    sum_value = t["cents"].to_numpy(zero_copy_only=False) / 100.0
    return pa.table(
        {
            "band": t["band"],
            "n_events": t["n_events"].cast(pa.int64()),
            "sum_value": pa.array(sum_value, pa.float64()),
        }
    )


def sql_events_interval_join() -> str:
    return """
SELECT b.band, count(*)::BIGINT AS n_events,
       sum(CAST(round(e.value * 100.0) AS BIGINT)) / 100.0 AS sum_value
FROM events e
JOIN (SELECT i AS band, i * 15.0 AS lo, i * 15.0 + 30.0 AS hi FROM range(0, 24) t(i)) b
  ON e.value >= b.lo AND e.value < b.hi
GROUP BY 1 ORDER BY 1
"""


# --------------------------------------------------------------------------
# Suggesters (ES completion / term-suggester analog) + cardinality agg
# --------------------------------------------------------------------------

SUGGEST_PREFIXES = ["s", "b", "co", "qu", "d"]
SUGGEST_TYPOS = ["sprak", "fitler", "quer", "dta", "stram", "jion"]
SUGGEST_K = 5
SUGGEST_MAX_DIST = 2


def _sql_vocab_df() -> str:
    """Shared CTE body: the index vocabulary with corpus-global df —
    the same (term, df) relation q_term_stats proves against the
    engine's _termdf summaries."""
    tok = analyze.sql_token_array("text")
    return f"""
toks AS (SELECT doc_id, unnest({tok}) AS term FROM documents),
vdf AS (SELECT term, count(DISTINCT doc_id)::BIGINT AS df FROM toks GROUP BY 1)
"""


def q_suggest_prefix(sf_dir: str) -> pa.Table:
    """Completion suggester: top-k vocabulary terms per prefix ranked
    (df DESC, term ASC) — distributed over the _termdf summaries with
    a two-phase top-k (see cb/suggest.py)."""
    from . import suggest

    meta = get_index(sf_dir)
    t = suggest.prefix_suggest(meta, SUGGEST_PREFIXES, k=SUGGEST_K)
    return _widen(t)


def sql_suggest_prefix() -> str:
    vals = ", ".join(f"({i}, '{p}')" for i, p in enumerate(SUGGEST_PREFIXES))
    return f"""
WITH {_sql_vocab_df()},
p(prefix_id, prefix) AS (VALUES {vals}),
cand AS (SELECT p.prefix_id, v.term, v.df FROM p
         JOIN vdf v ON starts_with(v.term, p.prefix)),
ranked AS (SELECT prefix_id, term, df,
           row_number() OVER (PARTITION BY prefix_id ORDER BY df DESC, term) AS rank
           FROM cand)
SELECT prefix_id::BIGINT AS prefix_id, rank::BIGINT AS rank, term, df
FROM ranked WHERE rank <= {SUGGEST_K} ORDER BY prefix_id, rank
"""


def q_suggest_context(sf_dir: str) -> pa.Table:
    """ES completion suggester with category contexts: per (prefix,
    lang), top-k completions ranked by the context-LOCAL df — derived
    in one prefix-filtered distributed pass (the exchange carries only
    completion candidates, never the vocabulary)."""
    from . import suggest

    t = suggest.context_prefix_suggest(
        docs_path(sf_dir), list(SUGGEST_PREFIXES), k=SUGGEST_K
    )
    t = t.sort_by([("prefix_id", "ascending"), ("ctx", "ascending"), ("rank", "ascending")])
    return pa.table(
        {
            "prefix_id": t["prefix_id"].cast(pa.int64()),
            "ctx": t["ctx"].cast(pa.string()),
            "rank": t["rank"].cast(pa.int64()),
            "term": t["term"].cast(pa.string()),
            "df": t["df"].cast(pa.int64()),
        }
    )


def sql_suggest_context() -> str:
    tok = analyze.sql_token_array("text")
    vals = ", ".join(f"({i}, '{p}')" for i, p in enumerate(SUGGEST_PREFIXES))
    return f"""
WITH docs AS (SELECT doc_id, lang, {tok} AS toks FROM documents),
t AS (SELECT DISTINCT doc_id, lang, unnest(toks) AS term FROM docs),
cdf AS (SELECT lang AS ctx, term, count(*)::BIGINT AS df FROM t GROUP BY 1, 2),
p(prefix_id, prefix) AS (VALUES {vals}),
cand AS (SELECT p.prefix_id, c.ctx, c.term, c.df
         FROM p JOIN cdf c ON starts_with(c.term, p.prefix)),
ranked AS (
  SELECT prefix_id, ctx, term, df,
         row_number() OVER (PARTITION BY prefix_id, ctx
                            ORDER BY df DESC, term) AS rank
  FROM cand
)
SELECT prefix_id::BIGINT AS prefix_id, ctx, rank::BIGINT AS rank, term, df
FROM ranked WHERE rank <= {SUGGEST_K} ORDER BY prefix_id, ctx, rank
"""


def q_suggest_fuzzy(sf_dir: str) -> pa.Table:
    """Did-you-mean (ES term suggester): top-k vocabulary terms within
    Damerau-Levenshtein distance <= 2 per misspelled input, ranked
    (dist ASC, df DESC, term ASC); the engine's DL kernel is the
    DuckDB-verified one from cb/querylang.py."""
    from . import suggest

    meta = get_index(sf_dir)
    t = suggest.fuzzy_suggest(
        meta, SUGGEST_TYPOS, max_dist=SUGGEST_MAX_DIST, k=SUGGEST_K
    )
    return _widen(t)


def sql_suggest_fuzzy() -> str:
    vals = ", ".join(f"({i}, '{q}')" for i, q in enumerate(SUGGEST_TYPOS))
    return f"""
WITH {_sql_vocab_df()},
q(query_id, qterm) AS (VALUES {vals}),
cand AS (SELECT q.query_id, v.term, v.df,
                damerau_levenshtein(v.term, q.qterm)::BIGINT AS dist
         FROM q CROSS JOIN vdf v),
ranked AS (SELECT query_id, term, df, dist,
           row_number() OVER (PARTITION BY query_id ORDER BY dist, df DESC, term) AS rank
           FROM cand WHERE dist <= {SUGGEST_MAX_DIST})
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, term, dist, df
FROM ranked WHERE rank <= {SUGGEST_K} ORDER BY query_id, rank
"""


def _widen(t: pa.Table) -> pa.Table:
    for i, f in enumerate(t.schema):
        if pa.types.is_integer(f.type) and f.type != pa.int64():
            t = t.set_column(i, f.name, t[f.name].cast(pa.int64()))
    return t


CARDINALITY_REL_ERR = 0.05  # HLL p=14 standard error ~0.8%; 6x headroom


def q_cardinality_by_lang(sf_dir: str) -> pa.Table:
    """EXACT count-distinct of text per language, scale-safe shape:
    per-batch distinct (lang, md5(text)) pairs -> one all-to-all dedupe
    keyed (lang, hash) -> per-batch partial counts -> tiny lang sum.
    No task ever holds a language's full distinct set (a hot language's
    hashes spread across the keyed exchange), mirroring dedup_exact.
    The 128-bit md5 stands in for the value (collision-free in any
    realistic corpus; the fixtures are deterministic so parity is
    stable), letting wide text values leave the pipeline after phase 1."""
    import hashlib as _hl

    from ray.data.aggregate import Count

    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["lang", "text"])

    def pairs(b: pa.Table) -> pa.Table:
        # per-row C digest over document-length text — same shape as
        # dedup.with_sha (the digest dominates, not the Python loop);
        # 16-byte binary keeps the keyed exchange half the hex width
        h = pa.array(
            [_hl.md5(t.encode()).digest() for t in b["text"].to_pylist()],
            type=pa.binary(16),
        )
        t = pa.table({"lang": b["lang"], "h": h})
        return t.group_by(["lang", "h"]).aggregate([])

    def partial_counts(b: pa.Table) -> pa.Table:
        t = b.group_by(["lang"]).aggregate([("h", "count")])
        return t.rename_columns(["lang", "n"])

    deduped = (
        ds.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["lang", "h"])
        .aggregate(Count(alias_name="c"))
    )
    out = (
        deduped.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("n", alias_name="n_distinct"))
    )
    return _collect(out).sort_by("lang")


def sql_cardinality_by_lang() -> str:
    return """
SELECT lang, count(DISTINCT text)::BIGINT AS n_distinct
FROM documents GROUP BY 1 ORDER BY 1
"""


def q_cardinality_hll(sf_dir: str) -> pa.Table:
    """Driver-checkable contract for the HyperLogLog cardinality
    sketch (ES ``cardinality`` aggregation analog): per language,
    ``ok`` is True iff the HLL estimate's relative error against the
    exact distinct count is <= CARDINALITY_REL_ERR.  The oracle asserts
    all-True — a broken hash, register fold, or register merge blows
    far past the bound and hash-mismatches.  Both legs run inside the
    dataflow; only per-language scalars reach the driver."""
    from . import sketch

    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["lang", "text"])
    est = sketch.grouped_cardinality(ds, "lang", "text")
    exact = q_cardinality_by_lang(sf_dir)
    e = {r["lang"]: r["estimate"] for r in est.to_pylist()}
    langs = exact["lang"].to_pylist()
    ok = [
        abs(e[lang] - n) / n <= CARDINALITY_REL_ERR
        for lang, n in zip(langs, exact["n_distinct"].to_pylist())
    ]
    return pa.table({"lang": pa.array(langs), "ok": pa.array(ok, pa.bool_())})


def sql_cardinality_hll() -> str:
    return "SELECT DISTINCT lang, true AS ok FROM documents ORDER BY lang"


HH_K_EVENTS = 4  # 5 near-uniform event types -> per-batch trim fires
HH_K_TOKENS = 32  # 29-term doc vocab -> threshold splits the vocab


def q_heavy_hitters(sf_dir: str) -> pa.Table:
    """Exact heavy hitters over the event stream (which event types
    exceed a 1/(k+1) frequency share): mergeable Misra-Gries candidate
    pass + exact candidate-only verify (cb/sketch.py) — the hot-key
    detector a 100-TB shuffle planner needs, O(k) state per task,
    never a full count table.  Output is exact, so the oracle is a
    plain GROUP BY / HAVING."""
    from . import sketch

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type"]
    )
    t, _n = sketch.exact_heavy_hitters(ds, "event_type", k=HH_K_EVENTS)
    return t


def sql_heavy_hitters() -> str:
    return f"""
WITH tc AS (SELECT event_type AS term, count(*)::BIGINT AS cnt
            FROM events GROUP BY 1)
SELECT term, cnt FROM tc
WHERE cnt * {HH_K_EVENTS + 1} > (SELECT sum(cnt) FROM tc)
ORDER BY cnt DESC, term
"""


def q_heavy_hitters_tokens(sf_dir: str) -> pa.Table:
    """Same operator on the tokenized path: heavy TERMS of the corpus
    (frequency share > 1/(k+1)), tokenizer fused into the candidate
    and verify passes so raw text never re-ships."""
    from . import sketch

    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["text"])
    t, _n = sketch.exact_heavy_hitters(ds, "text", k=HH_K_TOKENS, tokenize=True)
    return t


def sql_heavy_hitters_tokens() -> str:
    tok = analyze.sql_token_array("text")
    return f"""
WITH toks AS (SELECT unnest({tok}) AS term FROM documents),
tc AS (SELECT term, count(*)::BIGINT AS cnt FROM toks GROUP BY 1)
SELECT term, cnt FROM tc
WHERE cnt * {HH_K_TOKENS + 1} > (SELECT sum(cnt) FROM tc)
ORDER BY cnt DESC, term
"""


QSK_PCTS = (0.5, 0.9, 0.99)
QSK_EPS = 0.02  # rank-error budget; observed worst ~0.005 at k=256
QSK_K = 256


def q_quantiles_sketch(sf_dir: str) -> pa.Table:
    """Driver-checkable contract for the mergeable quantile sketch (ES
    ``percentiles`` aggregation analog; cb/sketch.py QuantileSketch):
    per (lang, pct), ``ok`` is True iff the sketch's n_chars percentile
    estimate sits within QSK_EPS RANK error of the target — i.e.
    ``count(< est)/n - eps <= pct <= count(<= est)/n + eps`` (the
    inclusive/strict pair makes ties in the value distribution count
    correctly).  The verification rank pass is itself a two-phase
    vectorized pipeline: per-batch (lt, le, n) partials per (lang,
    pct), exact driver fold over the tiny partial table.  The oracle
    asserts all-True — a broken compaction, weight drift, or merge
    blows the bound and hash-mismatches."""
    from . import sketch
    from .collect import collect_table

    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["lang", "n_chars"])
    est = sketch.grouped_quantile_sketch(ds, "lang", "n_chars", QSK_PCTS, k=QSK_K)
    ests = {(r["lang"], r["pct"]): r["est"] for r in est.to_pylist()}
    langs = sorted({l for l, _ in ests})
    est_by_lang = {
        l: np.array([ests[(l, p)] for p in QSK_PCTS], dtype=np.float64) for l in langs
    }

    def rank_partial(b: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "lang": pa.array([], pa.string()),
                "pct": pa.array([], pa.float64()),
                "lt": pa.array([], pa.int64()),
                "le": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
            }
        )
        if b.num_rows == 0:  # empty blocks: np.r_[True, ...] would
            return empty  # fabricate a group start at index 0
        lc = b["lang"]
        if isinstance(lc, pa.ChunkedArray):
            lc = lc.combine_chunks()
        enc = lc.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vals = b["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        dictionary = enc.dictionary.to_pylist()
        out = {"lang": [], "pct": [], "lt": [], "le": [], "n": []}
        order = np.argsort(codes, kind="stable")
        sc, sv = codes[order], vals[order]
        starts = np.flatnonzero(np.r_[True, sc[1:] != sc[:-1]])
        ends = np.append(starts[1:], len(sc))
        for s, e in zip(starts, ends):
            lang = dictionary[sc[s]]
            es = est_by_lang.get(lang)
            if es is None:
                continue
            v = sv[s:e]
            for p, est_v in zip(QSK_PCTS, es):
                out["lang"].append(lang)
                out["pct"].append(p)
                out["lt"].append(int((v < est_v).sum()))
                out["le"].append(int((v <= est_v).sum()))
                out["n"].append(int(e - s))
        return pa.table(
            {
                "lang": pa.array(out["lang"], pa.string()),
                "pct": pa.array(out["pct"], pa.float64()),
                "lt": pa.array(out["lt"], pa.int64()),
                "le": pa.array(out["le"], pa.int64()),
                "n": pa.array(out["n"], pa.int64()),
            }
        )

    partials = collect_table(
        ds.map_batches(rank_partial, batch_format="pyarrow", zero_copy_batch=True)
    )
    folded = partials.group_by(["lang", "pct"]).aggregate(
        [("lt", "sum"), ("le", "sum"), ("n", "sum")]
    )
    rows = {"lang": [], "pct": [], "ok": []}
    for r in sorted(folded.to_pylist(), key=lambda r: (r["lang"], r["pct"])):
        n = r["n_sum"]
        ok = (r["lt_sum"] / n - QSK_EPS <= r["pct"]) and (
            r["pct"] <= r["le_sum"] / n + QSK_EPS
        )
        rows["lang"].append(r["lang"])
        rows["pct"].append(r["pct"])
        rows["ok"].append(ok)
    return pa.table(
        {
            "lang": pa.array(rows["lang"], pa.string()),
            "pct": pa.array(rows["pct"], pa.float64()),
            "ok": pa.array(rows["ok"], pa.bool_()),
        }
    )


def sql_quantiles_sketch() -> str:
    pct_rows = ", ".join(f"(CAST({p} AS DOUBLE))" for p in QSK_PCTS)
    return f"""
SELECT l.lang, p.pct, true AS ok
FROM (SELECT DISTINCT lang FROM documents) l
CROSS JOIN (VALUES {pct_rows}) p(pct)
ORDER BY lang, pct
"""


# --------------------------------------------------------------------------
# bucket_selector / bucket_sort pipeline aggs + cumulative_cardinality
# + median_absolute_deviation — the remaining ES agg families, all with
# EXACT semantics (integer bucket counts / exact-arithmetic medians),
# two-phase throughout: corpus-sized work in vectorized map_batches
# partials, driver post-pass O(buckets) only.
# --------------------------------------------------------------------------

BSEL_MIN_N = 8  # bucket_selector: keep minute buckets with >= 8 events
BSORT_K = 20  # bucket_sort: top-20 buckets


def _minute_type_counts(sf_dir: str) -> pa.Table:
    """(event_type, minute, n) bucket table — integer counts reduce
    exactly in any fold order; the table is bucket-domain-sized."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts", "event_type"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        minute = pc.floor_temporal(batch["ts"], unit="minute")
        t = pa.table({"minute": minute, "event_type": batch["event_type"]})
        return (
            t.group_by(["minute", "event_type"])
            .aggregate([([], "count_all")])
            .rename_columns(["minute", "event_type", "n"])
        )

    pre = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return _collect(
        pre.groupby(["minute", "event_type"]).aggregate(Sum("n", alias_name="n"))
    )


def q_bucket_sel_sort(sf_dir: str) -> pa.Table:
    """ES ``bucket_selector`` (keep buckets with n >= BSEL_MIN_N) then
    ``bucket_sort`` (n desc, ties by type/minute, top BSORT_K) over the
    per-type minute date_histogram.  All keys integer/utf8 — the
    selector predicate and the sort are deterministic and exact."""
    t = _minute_type_counts(sf_dir)
    n = t["n"].to_numpy(zero_copy_only=False)
    t = t.filter(pa.array(n >= BSEL_MIN_N))
    n = t["n"].to_numpy(zero_copy_only=False)
    et = np.array(t["event_type"].to_pylist())
    minutes = (
        t["minute"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
    )
    order = np.lexsort((minutes, et, -n))[:BSORT_K]
    return pa.table(
        {
            "event_type": pa.array(et[order].tolist(), pa.string()),
            "minute": pa.array(minutes[order], pa.int64()).cast(pa.timestamp("us")),
            "n": pa.array(n[order], pa.int64()),
        }
    )


def sql_bucket_sel_sort() -> str:
    return f"""
SELECT event_type, minute, n FROM (
  SELECT event_type, date_trunc('minute', ts) AS minute, count(*)::BIGINT AS n
  FROM events GROUP BY 1, 2
) WHERE n >= {BSEL_MIN_N}
ORDER BY n DESC, event_type, minute
LIMIT {BSORT_K}
"""


def q_cumulative_cardinality(sf_dir: str) -> pa.Table:
    """ES ``cumulative_cardinality`` over the minute date_histogram:
    distinct event_types seen up to (and including) each minute.
    Derived from the SAME exact (event_type, minute, n) bucket table as
    the other minute pipeline aggs — first minute per type (EXACT, not
    a sketch) via a groupby over the tiny bucket table, then one
    searchsorted merge over two sorted bucket-domain arrays."""
    t = _minute_type_counts(sf_dir)
    et = np.array(t["event_type"].to_pylist())
    minutes_all = (
        t["minute"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
    )
    # first minute per type
    order = np.lexsort((minutes_all, et))
    se, sm = et[order], minutes_all[order]
    starts = np.flatnonzero(np.r_[True, se[1:] != se[:-1]])
    fm = np.sort(sm[starts])
    minutes = np.unique(minutes_all)
    cum = np.searchsorted(fm, minutes, side="right").astype(np.int64)
    return pa.table(
        {
            "minute": pa.array(minutes, pa.int64()).cast(pa.timestamp("us")),
            "cum_types": pa.array(cum, pa.int64()),
        }
    )


def sql_cumulative_cardinality() -> str:
    return """
WITH f AS (
  SELECT event_type, min(date_trunc('minute', ts)) AS fm FROM events GROUP BY 1
),
m AS (SELECT DISTINCT date_trunc('minute', ts) AS minute FROM events)
SELECT m.minute,
       (SELECT count(*) FROM f WHERE f.fm <= m.minute)::BIGINT AS cum_types
FROM m ORDER BY m.minute
"""


def _hist_median(vals: np.ndarray, counts: np.ndarray) -> float:
    """Exact interpolated median from a sorted (value, count) histogram
    — DuckDB's semantics: odd n -> middle order stat, even n -> mean of
    the two middle stats.  Values here are ints or exact multiples of
    0.5, so (a + b) / 2.0 is exact double arithmetic on both engines."""
    n = int(counts.sum())
    cum = np.cumsum(counts)
    lo = float(vals[np.searchsorted(cum, (n - 1) // 2 + 1)])
    hi = float(vals[np.searchsorted(cum, n // 2 + 1)])
    return (lo + hi) / 2.0


def q_mad_doclen(sf_dir: str) -> pa.Table:
    """ES ``median_absolute_deviation`` of doc length per lang —
    computed EXACTLY (ES uses TDigest; the value domain here is small,
    so the two-phase histogram gives the true MAD): per-batch
    (lang, n_chars, count) partials, groupby-sum, then an O(distinct
    values) driver pass.  Every emitted float is exact arithmetic over
    integers / half-integers, bitwise equal to the DuckDB mirror."""
    ds = ray.data.read_parquet(
        docs_path(sf_dir), columns=["lang", "n_chars"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        return (
            batch.group_by(["lang", "n_chars"])
            .aggregate([([], "count_all")])
            .rename_columns(["lang", "n_chars", "n"])
        )

    hist = _collect(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["lang", "n_chars"])
        .aggregate(Sum("n", alias_name="n"))
    )
    langs = hist["lang"].to_pylist()
    vals = hist["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
    cnts = hist["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    out = {"lang": [], "median_len": [], "mad": []}
    for lang in sorted(set(langs)):
        m = np.array([l == lang for l in langs])
        v, c = vals[m], cnts[m]
        order = np.argsort(v)
        v, c = v[order], c[order]
        med = _hist_median(v, c)
        dev = np.abs(v - med)
        dorder = np.argsort(dev, kind="mergesort")
        dv, dc = dev[dorder], c[dorder]
        # merge equal deviations (two values can share one deviation)
        uniq, inv = np.unique(dv, return_inverse=True)
        dcm = np.zeros(len(uniq), np.int64)
        np.add.at(dcm, inv, dc)
        mad = _hist_median(uniq, dcm)
        out["lang"].append(lang)
        out["median_len"].append(med)
        out["mad"].append(mad)
    return pa.table(
        {
            "lang": pa.array(out["lang"], pa.string()),
            "median_len": pa.array(out["median_len"], pa.float64()),
            "mad": pa.array(out["mad"], pa.float64()),
        }
    )


def sql_mad_doclen() -> str:
    return """
WITH m AS (SELECT lang, median(n_chars) AS med FROM documents GROUP BY 1)
SELECT d.lang, m.med AS median_len,
       median(abs(d.n_chars - m.med)) AS mad
FROM documents d JOIN m ON d.lang = m.lang
GROUP BY d.lang, m.med
ORDER BY d.lang
"""


def q_bm25_geo_filtered(sf_dir: str) -> pa.Table:
    """BM25 with an ES ``geo_distance`` FILTER context (bool must +
    geo filter): scores stay global, membership shrinks to docs within
    a per-query radius of the origin — the geo mask rides the engine's
    docmeta filter path (`cb/docmeta.py::DocMeta.mask`), one vectorized
    haversine over each server's candidate universe.  Radii cycle over
    GEO_RING_EDGES (every edge >= 1.19 km clear of the data)."""
    from . import docmeta as docmeta_mod

    meta = get_index(sf_dir)
    docmeta_mod.ensure_docmeta(
        meta.index_dir, docs_path(sf_dir), ["lang", "source", "n_chars"]
    )
    engine = shard.QueryEngine(meta.index_dir, num_servers=2)
    try:
        results = [
            engine.filtered_query(
                q,
                {
                    "_geo_distance": {
                        "lat": GEO_LAT0,
                        "lon": GEO_LON0,
                        "radius_km": GEO_RING_EDGES[qid % len(GEO_RING_EDGES)],
                    }
                },
                k=K,
            )
            for qid, q in enumerate(QUERY_SET)
        ]
    finally:
        engine.shutdown()
    rows = {"query_id": [], "rank": [], "doc_id": [], "score": []}
    for qid, res in enumerate(results):
        for rank, (doc_id, score) in enumerate(res, start=1):
            rows["query_id"].append(qid)
            rows["rank"].append(rank)
            rows["doc_id"].append(doc_id)
            rows["score"].append(score)
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], type=pa.int64()),
            "rank": pa.array(rows["rank"], type=pa.int64()),
            "doc_id": pa.array(rows["doc_id"], type=pa.int64()),
            "score": pa.array(
                np.round(np.array(rows["score"], dtype=np.float64), 6),
                type=pa.float64(),
            ),
        }
    )


def sql_bm25_geo_filtered() -> str:
    tok = analyze.sql_token_array("text")
    contrib = scoring.sql_score_terms("(SELECT n_docs FROM g)", "(SELECT avgdl FROM g)")
    lat_e, lon_e = geo.coord_exprs("d.doc_id")
    dist = geo.sql_haversine(lat_e, lon_e, GEO_LAT0, GEO_LON0)
    flt_rows = ", ".join(
        f"({qid}, {GEO_RING_EDGES[qid % len(GEO_RING_EDGES)]!r})"
        for qid in range(len(QUERY_SET))
    )
    return f"""
WITH docs AS (SELECT doc_id, {tok} AS toks FROM documents),
stats AS (SELECT doc_id, len(toks)::BIGINT AS doc_len FROM docs),
g AS (SELECT count(*)::BIGINT AS n_docs,
             sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl FROM stats),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
       FROM (SELECT doc_id, unnest(toks) AS term FROM docs) GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
q(query_id, term) AS (VALUES {_query_terms_values()}),
flt(query_id, radius_km) AS (VALUES {flt_rows}),
scored AS (
  SELECT q.query_id, tf.doc_id,
         sum({contrib} ORDER BY q.term) AS score
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN stats ON stats.doc_id = tf.doc_id
  GROUP BY 1, 2
),
ranked AS (
  SELECT s.query_id, s.doc_id, s.score,
         row_number() OVER (PARTITION BY s.query_id ORDER BY s.score DESC, s.doc_id ASC) AS rank
  FROM scored s
  JOIN documents d ON d.doc_id = s.doc_id
  JOIN flt f ON f.query_id = s.query_id AND ({dist}) < f.radius_km
)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id,
       round(score, 6) AS score
FROM ranked WHERE rank <= {K} ORDER BY query_id, rank
"""


def q_snapshot_restore_topk(sf_dir: str) -> pa.Table:
    """ES ``_snapshot`` + restore, value-checked end to end: snapshot
    the built index (hardlink manifest), restore into a FRESH dir,
    serve the reference query set from the restored index — the result
    must equal the direct build's rankings exactly, so it shares the
    BM25 scores oracle (the reindex_topk contract pattern)."""
    from . import snapshot as snap_mod
    from . import storage

    meta = get_index(sf_dir)
    snap = storage.scratch_dir("snapshot", meta.index_dir)
    dest = storage.scratch_dir("snapshot_restore", meta.index_dir)
    create = snap_mod.create_snapshot(meta.index_dir, snap)
    restored = snap_mod.restore_snapshot(snap, dest)
    assert restored["n_files"] == create["n_files"]
    engine = shard.QueryEngine(dest, num_servers=2)
    try:
        results = engine.query_many(list(QUERY_SET), k=K)
    finally:
        engine.shutdown()
    return _topk_table(results, with_scores=True)


def q_scripted_metric(sf_dir: str) -> pa.Table:
    """ES ``scripted_metric`` agg (cb/scripted.py): the registered
    ``block_usage`` script — per-source 512-byte-block storage
    accounting, a custom metric no builtin covers — run through the
    engine's map/reduce contract by its config-string name."""
    from . import scripted

    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["source", "n_chars"])
    return scripted.scripted_metric(ds, "block_usage")


def sql_scripted_metric() -> str:
    return """
SELECT source,
       sum((n_chars + 511) // 512)::BIGINT AS total_blocks,
       max((n_chars + 511) // 512)::BIGINT AS max_blocks,
       sum((n_chars + 511) // 512) / count(*) AS avg_blocks
FROM documents GROUP BY source ORDER BY source
"""


ROLLOVER_GENS = 4  # max_docs = ceil(N / 4): 3 sealed generations + a tail
ROLLOVER_CHUNKS = 7  # ingestion chunks (mid-chunk rolls exercised)


def q_rollover_layout(sf_dir: str) -> pa.Table:
    """ES ``_rollover`` lifecycle (cb/rollover.py) driven end to end:
    docs ingested through the write alias in ROLLOVER_CHUNKS ordered
    chunks, the managed condition (max_docs = ceil(N/4)) sealing
    generations as they fill.  Placement is a pure function of
    ingestion rank (r // max_docs), so the resulting layout — name,
    per-generation doc count, sealed flag — value-checks against a
    row_number window.  (In production chunks arrive in stream order;
    the sort here just reconstructs that order from the fixture.)"""
    import math

    from . import rollover, storage

    t = pq.read_table(docs_path(sf_dir), columns=["doc_id"])
    ids = np.sort(t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64))
    n = len(ids)
    maxd = math.ceil(n / ROLLOVER_GENS)
    root = storage.scratch_dir("rollover", f"{sf_dir}:{maxd}:{n}")
    rollover.init(root, "docs", maxd)
    chunk = math.ceil(n / ROLLOVER_CHUNKS)
    for i in range(0, n, chunk):
        part = pa.table({"doc_id": pa.array(ids[i : i + chunk], pa.int64())})
        rollover.ingest_chunk(root, f"chunk-{i:08d}", part)
    return rollover.layout(root)


def sql_rollover_layout() -> str:
    return f"""
WITH p AS (
  SELECT CAST(ceil(count(*) / {ROLLOVER_GENS}.0) AS BIGINT) AS maxd
  FROM documents
),
r AS (
  SELECT (row_number() OVER (ORDER BY doc_id) - 1) AS rk FROM documents
),
g AS (SELECT rk // (SELECT maxd FROM p) AS gen FROM r)
SELECT 'docs-' || lpad(CAST(gen + 1 AS VARCHAR), 6, '0') AS "index",
       count(*)::BIGINT AS n_docs,
       count(*) >= (SELECT maxd FROM p) AS sealed
FROM g GROUP BY gen ORDER BY gen
"""


GEO_SORT_K = 15
GEO_SORT_LANG = "en"


def q_geo_sort_topk(sf_dir: str) -> pa.Table:
    """ES sort-by-``_geo_distance``: the GEO_SORT_K nearest docs to the
    origin among lang='en' docs — per-batch bounded top-k partials,
    exact driver re-cut (the ANN brute-force pattern)."""
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id", "lang"])
    return geo.nearest_topk(
        ds, "doc_id", lat0=GEO_LAT0, lon0=GEO_LON0, k=GEO_SORT_K,
        where=("lang", GEO_SORT_LANG),
    )


def sql_geo_sort_topk() -> str:
    lat, lon = geo.coord_exprs("doc_id")
    d = geo.sql_haversine(lat, lon, GEO_LAT0, GEO_LON0)
    return f"""
SELECT rank, doc_id, dist_km FROM (
  SELECT row_number() OVER (ORDER BY round({d}, 6), doc_id) AS rank,
         doc_id, round({d}, 6) AS dist_km
  FROM documents WHERE lang = '{GEO_SORT_LANG}')
WHERE rank <= {GEO_SORT_K} ORDER BY rank
"""


def q_analyze_api(sf_dir: str) -> pa.Table:
    """The ES ``_analyze`` endpoint over the reference query set:
    (query, position, token) for every analyzed token, straight off the
    engine's Arrow tokenizer — the same kernel the index build and the
    query parsers share, so this entry value-checks the analysis chain
    as an API against the DuckDB SQL analyzer mirror."""
    src = pa.table({"query": pa.array(QUERY_SET, pa.string())})
    ds = ray.data.from_arrow(src)

    def f(batch: pa.Table) -> pa.Table:
        toks = analyze.token_array(batch["query"])
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        qidx = np.repeat(np.arange(len(lens)), lens)
        pos = (
            np.concatenate([np.arange(n) for n in lens])
            if len(lens)
            else np.empty(0, np.int64)
        )
        q = batch["query"]
        if isinstance(q, pa.ChunkedArray):
            q = q.combine_chunks()
        return pa.table(
            {
                "query": q.take(pa.array(qidx, pa.int64())),
                "position": pa.array(pos, pa.int64()),
                "token": pc.list_flatten(toks),
            }
        )

    return _collect(ds.map_batches(f, batch_format="pyarrow"))


def sql_analyze_api() -> str:
    vals = ", ".join(f"('{q}')" for q in QUERY_SET)
    toks = analyze.sql_token_array("query")
    return f"""
WITH v(query) AS (VALUES {vals}),
t AS (SELECT query, {toks} AS toks FROM v)
SELECT query, unnest(generate_series(1, len(toks))) - 1 AS position,
       unnest(toks) AS token
FROM t ORDER BY query, position
"""


# --------------------------------------------------------------------------
# Geo queries / aggregations (cb/geo.py) — the ES geo_bounding_box /
# geo_distance query and geotile_grid / geo_distance-ring agg surface.
# Coordinates are derived deterministically from doc_id (the fixture has
# no geo columns; geo.coord_exprs is the SQL spelling of the SAME
# integer-exact derivation).  Parameters are chosen so every membership
# edge has >= 1.19 km clearance at sf0.001/0.01/0.1 (tests/test_geo.py
# guards >= 0.09 km), 10^10 above the observed engine ulp noise.
# --------------------------------------------------------------------------

GEO_LAT0, GEO_LON0 = 12.34, 56.78
GEO_RADIUS_KM = 5000.0
GEO_RING_EDGES = (3000.0, 5000.0, 8000.0, 12000.0)
GEO_ZOOM = 6
GEO_MIN_COUNT = 2
GEO_BOX = {"top": 45.0, "left": -30.0, "bottom": -10.0, "right": 60.0}


def _geo_docs(sf_dir: str) -> ray.data.Dataset:
    return ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id"])


def q_geo_bbox(sf_dir: str) -> pa.Table:
    return _collect(geo.bounding_box(_geo_docs(sf_dir), "doc_id", **GEO_BOX))


def sql_geo_bbox() -> str:
    lat, lon = geo.coord_exprs("doc_id")
    return f"""
SELECT doc_id, {lat} AS lat, {lon} AS lon
FROM documents
WHERE ({lat}) <= {GEO_BOX["top"]!r} AND ({lat}) >= {GEO_BOX["bottom"]!r}
  AND ({lon}) >= {GEO_BOX["left"]!r} AND ({lon}) <= {GEO_BOX["right"]!r}
ORDER BY doc_id
"""


def q_geo_distance(sf_dir: str) -> pa.Table:
    out = geo.distance_within(
        _geo_docs(sf_dir), "doc_id", lat0=GEO_LAT0, lon0=GEO_LON0,
        radius_km=GEO_RADIUS_KM,
    )
    return _collect(out.select_columns(["doc_id", "dist_km"]))


def sql_geo_distance() -> str:
    lat, lon = geo.coord_exprs("doc_id")
    d = geo.sql_haversine(lat, lon, GEO_LAT0, GEO_LON0)
    return f"""
SELECT doc_id, round(d, 6) AS dist_km
FROM (SELECT doc_id, {d} AS d FROM documents)
WHERE d < {GEO_RADIUS_KM!r}
ORDER BY doc_id
"""


def q_geo_distance_rings(sf_dir: str) -> pa.Table:
    out = geo.distance_rings(
        _geo_docs(sf_dir), "doc_id", lat0=GEO_LAT0, lon0=GEO_LON0,
        edges=GEO_RING_EDGES,
    )
    return _collect(out)


def sql_geo_distance_rings() -> str:
    lat, lon = geo.coord_exprs("doc_id")
    d = geo.sql_haversine(lat, lon, GEO_LAT0, GEO_LON0)
    ring = " + ".join(
        f"(CASE WHEN d >= {e!r} THEN 1 ELSE 0 END)" for e in GEO_RING_EDGES
    )
    return f"""
SELECT ring, count(*) AS n_docs
FROM (SELECT CAST({ring} AS BIGINT) AS ring
      FROM (SELECT {d} AS d FROM documents))
GROUP BY ring ORDER BY ring
"""


def q_geotile_grid(sf_dir: str) -> pa.Table:
    out = geo.geotile_grid(
        _geo_docs(sf_dir), "doc_id", zoom=GEO_ZOOM, min_count=GEO_MIN_COUNT
    )
    return _collect(out)


def sql_geotile_grid() -> str:
    lat, lon = geo.coord_exprs("doc_id")
    xt, yt = geo.sql_geotile(lat, lon, GEO_ZOOM)
    return f"""
SELECT xt AS xtile, yt AS ytile, count(*) AS n_docs
FROM (SELECT {xt} AS xt, {yt} AS yt FROM documents)
GROUP BY xt, yt HAVING count(*) >= {GEO_MIN_COUNT}
ORDER BY xtile, ytile
"""


# polygon / geohash / bounds / centroid: pure +,-,*,/ and floor — every
# op IEEE-correctly-rounded on both engines, so parity is bitwise with
# no clearance requirement (tests/test_geo.py proves it empirically).
GEO_POLYGON = (
    (40.0, -50.0),
    (60.0, 10.0),
    (10.0, 40.0),
    (-30.0, 10.0),
    (-20.0, -60.0),
)
GEOHASH_PRECISION = 2
GEOHASH_MIN_COUNT = 3
GEO_CENTROID_ZOOM = 4


def q_geo_polygon(sf_dir: str) -> pa.Table:
    out = geo.polygon_query(_geo_docs(sf_dir), "doc_id", polygon=GEO_POLYGON)
    return _collect(out)


def sql_geo_polygon() -> str:
    lat, lon = geo.coord_exprs("doc_id")
    cond = geo.sql_point_in_polygon(lat, lon, GEO_POLYGON)
    return f"""
SELECT doc_id, {lat} AS lat, {lon} AS lon
FROM documents WHERE {cond} ORDER BY doc_id
"""


def q_geohash_grid(sf_dir: str) -> pa.Table:
    out = geo.geohash_grid(
        _geo_docs(sf_dir), "doc_id",
        precision=GEOHASH_PRECISION, min_count=GEOHASH_MIN_COUNT,
    )
    return _collect(out)


def sql_geohash_grid() -> str:
    lat, lon = geo.coord_exprs("doc_id")
    p = geo.sql_geohash_parts(lat, lon, GEOHASH_PRECISION)
    return f"""
SELECT {p["chars"]} AS geohash, count(*) AS n_docs
FROM (SELECT ({p["ih"]}) AS ih FROM
      (SELECT ({p["lonb"]}) AS lonb, ({p["latb"]}) AS latb FROM documents))
GROUP BY 1 HAVING count(*) >= {GEOHASH_MIN_COUNT}
ORDER BY geohash
"""


def q_geo_bounds(sf_dir: str) -> pa.Table:
    ds = ray.data.read_parquet(docs_path(sf_dir), columns=["doc_id", "lang"])
    return _collect(geo.bounds_by(ds, "doc_id", "lang"))


def sql_geo_bounds() -> str:
    lat, lon = geo.coord_exprs("doc_id")
    return f"""
SELECT lang, max(lat) AS top, min(lat) AS bottom,
       min(lon) AS "left", max(lon) AS "right"
FROM (SELECT lang, {lat} AS lat, {lon} AS lon FROM documents)
GROUP BY lang ORDER BY lang
"""


def q_geo_centroid(sf_dir: str) -> pa.Table:
    out = geo.centroid_by_tile(_geo_docs(sf_dir), "doc_id", zoom=GEO_CENTROID_ZOOM)
    return _collect(out)


def sql_geo_centroid() -> str:
    lat, lon = geo.coord_exprs("doc_id")
    clat, clon = geo.centideg_exprs("doc_id")
    xt, yt = geo.sql_geotile(lat, lon, GEO_CENTROID_ZOOM)
    return f"""
SELECT xt AS xtile, yt AS ytile,
       sum(clat) / (100.0 * count(*)) AS centroid_lat,
       sum(clon) / (100.0 * count(*)) AS centroid_lon,
       count(*) AS n_docs
FROM (SELECT {xt} AS xt, {yt} AS yt, {clat} AS clat, {clon} AS clon
      FROM documents)
GROUP BY xt, yt ORDER BY xtile, ytile
"""


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

QUERIES = {
    "doc_stats": q_doc_stats,
    "term_stats": q_term_stats,
    "corpus_stats": q_corpus_stats,
    "bm25_topk": q_bm25_topk,
    "bm25_topk_scores": q_bm25_topk_scores,
    "federated_bm25": q_federated_bm25,
    "federated_boosted": q_federated_boosted,
    "federated_querystring": q_federated_querystring,
    "federated_msearch": q_federated_msearch,
    "more_like_this": q_more_like_this,
    "bm25_page2": q_bm25_page2,
    "scroll_pages": q_scroll_pages,
    "reindex_topk": q_reindex_topk,
    "highlight_snippets": q_highlight_snippets,
    "bm25_filtered": q_bm25_filtered,
    "alias_search": q_alias_search,
    "bm25_multifield": q_bm25_multifield,
    "multifield_wand": q_multifield_wand,
    "federated_multifield": q_federated_multifield,
    "multifield_querystring": q_multifield_querystring,
    "multifield_dismax": q_multifield_dismax,
    "multifield_crossfields": q_multifield_crossfields,
    "combined_fields": q_combined_fields,
    "multifield_facets": q_multifield_facets,
    "multifield_page2": q_multifield_page2,
    "multifield_highlight": q_multifield_highlight,
    "multifield_histogram": q_multifield_histogram,
    "phrase_search": q_phrase_search,
    "phrase_prefix_search": q_phrase_prefix_search,
    "percolate": q_percolate,
    "term_vectors": q_term_vectors,
    "hybrid_rrf": q_hybrid_rrf,
    "semantic_rerank": q_semantic_rerank,
    "phrase_slop_search": q_phrase_slop_search,
    "search_querystring": q_search_querystring,
    "msearch": q_msearch,
    "boosting_query": q_boosting_query,
    "search_facets": q_search_facets,
    "search_facet_stats": q_search_facet_stats,
    "terms_orderby_metric": q_terms_orderby_metric,
    "extended_stats_agg": q_extended_stats_agg,
    "matrix_stats_agg": q_matrix_stats_agg,
    "weighted_avg_agg": q_weighted_avg_agg,
    "search_histogram": q_search_histogram,
    "histogram_zerofill": q_histogram_zerofill,
    "search_range_agg": q_search_range_agg,
    "percentile_ranks": q_percentile_ranks,
    "synonym_search": q_synonym_search,
    "collapse_topk": q_collapse_topk,
    "collapse_inner_hits": q_collapse_inner,
    "multifield_synonyms": q_multifield_synonyms,
    "composite_agg": q_composite_agg,
    "rare_terms_agg": q_rare_terms_agg,
    "constant_score": q_constant_score,
    "pinned_query": q_pinned,
    "mget_docs": q_mget_docs,
    "delete_by_query": q_delete_by_query,
    "suggest_term": q_suggest_term,
    "suggest_phrase": q_suggest_phrase,
    "regexp_query": q_regexp_query,
    "search_count": q_search_count,
    "span_first": q_span_first,
    "span_near": q_span_near,
    "has_child": q_has_child,
    "has_parent": q_has_parent,
    "update_by_query": q_update_by_query,
    "distance_feature": q_distance_feature,
    "match_bool_prefix": q_match_bool_prefix,
    "top_metrics": q_top_metrics,
    "rank_eval": q_rank_eval,
    "span_or_first": q_span_or_first,
    "span_not": q_span_not,
    "intervals_match": q_intervals,
    "function_score_random": q_function_score_random,
    "terms_set": q_terms_set,
    "bucket_stats_pipeline": q_bucket_stats_pipeline,
    "auto_date_histogram": q_auto_date_histogram,
    "multi_terms_agg": q_multi_terms_agg,
    "sampler_agg": q_sampler_agg,
    "diversified_sampler": q_diversified_sampler,
    "filters_agg": q_filters_agg,
    "explain_scores": q_explain_scores,
    "pipeline_agg": q_pipeline_agg,
    "serial_diff": q_serial_diff,
    "bucket_script_agg": q_bucket_script_agg,
    "adjacency_matrix": q_adjacency_matrix,
    "search_top_hits": q_search_top_hits,
    "rescore_topk": q_rescore_topk,
    "function_score_sat": q_function_score_sat,
    "function_score_decay": q_function_score_decay,
    "function_score_fvf": q_function_score_fvf,
    "quantiles_sketch": q_quantiles_sketch,
    "multifield_range_agg": q_multifield_range_agg,
    "multifield_top_hits": q_multifield_top_hits,
    "multifield_function_score": q_multifield_function_score,
    "significant_terms": q_significant_terms,
    "significant_bg": q_significant_bg,
    "content_sha256": q_content_sha256,
    "dedup_exact": q_dedup_exact,
    "token_stats": q_token_stats,
    "lang_id": q_lang_id,
    "repetition_stats": q_repetition_stats,
    "dataset_split": q_dataset_split,
    "token_budget_mix": q_token_budget_mix,
    "export_shards": q_export_shards,
    "doc_fingerprint": q_fingerprint,
    "ngram_jaccard_pairs": q_ngram_jaccard,
    "dup_ngram_spans": q_dup_ngram_spans,
    "dup_spans_bloom": q_dup_spans_bloom,
    "lm_quality_score": q_lm_quality,
    "alpha_mix": q_alpha_mix,
    "curation_pipeline": q_curation_pipeline,
    "dup_span_strip": q_dup_span_strip,
    "minhash_neardup": q_minhash_neardup,
    "neardup_clusters": q_neardup_clusters,
    "neardup_dedup_keep": q_neardup_dedup_keep,
    "simhash_neardup": q_simhash_neardup,
    "ann_cosine_topk": q_ann_topk,
    "embedding_cluster_sample": q_embedding_cluster_sample,
    "ann_filtered_topk": q_ann_filtered_topk,
    "ann_ivf_topk": q_ann_ivf,
    "ann_ivf_exact": q_ann_ivf_exact,
    "ann_ivf_recall": q_ann_ivf_recall,
    "embedding_neardup": q_embedding_neardup,
    "embedding_dedup_keep": q_embedding_dedup_keep,
    "embedding_neardup_lsh": q_embedding_neardup_lsh,
    "media_ann_topk": q_media_ann_topk,
    "quality_filter": q_quality_filter,
    "stratified_sample": q_stratified_sample,
    "decontaminate": q_decontaminate,
    "pii_redact": q_pii_redact,
    "bpe_token_stats": q_bpe_token_stats,
    "pack_sequences": q_pack_sequences,
    "top_docs_per_lang": q_top_docs_per_lang,
    "doclen_quantiles": q_doclen_quantiles,
    "suggest_prefix": q_suggest_prefix,
    "suggest_context": q_suggest_context,
    "suggest_fuzzy": q_suggest_fuzzy,
    "cardinality_by_lang": q_cardinality_by_lang,
    "cardinality_hll": q_cardinality_hll,
    "heavy_hitters": q_heavy_hitters,
    "heavy_hitters_tokens": q_heavy_hitters_tokens,
    "filter_pushdown": q_filter_pushdown,
    "events_minute_agg": q_events_minute_agg,
    "events_asof_join": q_events_asof_join,
    "events_interval_join": q_events_interval_join,
    "late_events": q_late_events,
    "events_props_extract": q_events_props_extract,
    "sessionize": q_sessionize,
    "orders_by_segment": q_orders_by_segment,
    "orders_lineitem_join": q_orders_lineitem_join,
    "pricing_summary": q_pricing_summary,
    "geo_bbox": q_geo_bbox,
    "geo_distance": q_geo_distance,
    "geo_distance_rings": q_geo_distance_rings,
    "geotile_grid": q_geotile_grid,
    "geo_polygon": q_geo_polygon,
    "geohash_grid": q_geohash_grid,
    "geo_bounds": q_geo_bounds,
    "geo_centroid": q_geo_centroid,
    "bucket_sel_sort": q_bucket_sel_sort,
    "cumulative_cardinality": q_cumulative_cardinality,
    "mad_doclen": q_mad_doclen,
    "geo_sort_topk": q_geo_sort_topk,
    "analyze_api": q_analyze_api,
    "bm25_geo_filtered": q_bm25_geo_filtered,
    "snapshot_restore_topk": q_snapshot_restore_topk,
    "rollover_layout": q_rollover_layout,
    "scripted_metric": q_scripted_metric,
}


def oracle_sql() -> dict[str, str]:
    return {
        "doc_stats": sql_doc_stats(),
        "term_stats": sql_term_stats(),
        "corpus_stats": sql_corpus_stats(),
        "bm25_topk": sql_bm25(with_scores=False),
        "bm25_topk_scores": sql_bm25(with_scores=True),
        # federation with dfs_query_then_fetch stats == monolithic index
        "federated_bm25": sql_bm25(with_scores=True),
        "federated_boosted": sql_federated_boosted(),
        "federated_querystring": sql_search_querystring(),
        "federated_msearch": sql_search_querystring(),
        "more_like_this": sql_more_like_this(),
        "bm25_page2": sql_bm25_page2(),
        "scroll_pages": sql_scroll_pages(),
        # reindex-from-doc-store must reproduce the direct build's
        # rankings exactly -> the same BM25 mirror
        "reindex_topk": sql_bm25(with_scores=True),
        "highlight_snippets": sql_highlight_snippets(),
        "bm25_filtered": sql_bm25_filtered(),
        "alias_search": sql_alias_search(),
        "bm25_multifield": sql_bm25_multifield(),
        # block-max WAND is bitwise == TAAT, so the same oracle
        # value-checks the WAND scorer
        "multifield_wand": sql_bm25_multifield(),
        # per-field fed-global stats -> bitwise == monolithic multifield
        "federated_multifield": sql_bm25_multifield(),
        "multifield_querystring": sql_multifield_querystring(),
        "multifield_dismax": sql_multifield_dismax(),
        "multifield_crossfields": sql_multifield_crossfields(),
        "combined_fields": sql_combined_fields(),
        # aggregations share the querystring oracle's match prefix,
        # exactly as the engine shares _match_fields
        "multifield_facets": sql_multifield_facets(),
        "multifield_page2": sql_multifield_page2(),
        "multifield_highlight": sql_multifield_highlight(),
        "multifield_histogram": sql_multifield_histogram(),
        "phrase_search": sql_phrase_search(),
        "phrase_prefix_search": sql_phrase_prefix_search(),
        "percolate": sql_percolate(),
        "term_vectors": sql_term_vectors(),
        "hybrid_rrf": sql_hybrid_rrf(),
        "semantic_rerank": sql_semantic_rerank(),
        "phrase_slop_search": sql_phrase_slop_search(),
        "search_querystring": sql_search_querystring(),
        "msearch": sql_search_querystring(),
        "boosting_query": sql_boosting_query(),
        "search_facets": sql_search_facets(),
        "search_facet_stats": sql_search_facet_stats(),
        "terms_orderby_metric": sql_terms_orderby_metric(),
        "extended_stats_agg": sql_extended_stats_agg(),
        "matrix_stats_agg": sql_matrix_stats_agg(),
        "weighted_avg_agg": sql_weighted_avg_agg(),
        "search_histogram": sql_search_histogram(),
        "histogram_zerofill": sql_histogram_zerofill(),
        "search_range_agg": sql_search_range_agg(),
        "percentile_ranks": sql_percentile_ranks(),
        "synonym_search": sql_synonym_search(),
        "collapse_topk": sql_collapse_topk(),
        "collapse_inner_hits": sql_collapse_inner(),
        "multifield_synonyms": sql_multifield_synonyms(),
        "composite_agg": sql_composite_agg(),
        "rare_terms_agg": sql_rare_terms_agg(),
        "constant_score": sql_constant_score(),
        "pinned_query": sql_pinned(),
        "mget_docs": sql_mget_docs(),
        "delete_by_query": sql_delete_by_query(),
        "suggest_term": sql_suggest_term(),
        "suggest_phrase": sql_suggest_phrase(),
        "regexp_query": sql_regexp_query(),
        "search_count": sql_search_count(),
        "span_first": sql_span_first(),
        "span_near": sql_span_near(),
        "has_child": sql_has_child(),
        "has_parent": sql_has_parent(),
        "update_by_query": sql_update_by_query(),
        "distance_feature": sql_distance_feature(),
        "match_bool_prefix": sql_match_bool_prefix(),
        "top_metrics": sql_top_metrics(),
        "rank_eval": sql_rank_eval(),
        "span_or_first": sql_span_or_first(),
        "span_not": sql_span_not(),
        "intervals_match": sql_intervals(),
        "function_score_random": sql_function_score_random(),
        "terms_set": sql_terms_set(),
        "bucket_stats_pipeline": sql_bucket_stats_pipeline(),
        "auto_date_histogram": sql_auto_date_histogram(),
        "multi_terms_agg": sql_multi_terms_agg(),
        "sampler_agg": sql_sampler_agg(),
        "diversified_sampler": sql_diversified_sampler(),
        "filters_agg": sql_filters_agg(),
        "explain_scores": sql_explain_scores(),
        "pipeline_agg": sql_pipeline_agg(),
        "serial_diff": sql_serial_diff(),
        "bucket_script_agg": sql_bucket_script_agg(),
        "adjacency_matrix": sql_adjacency_matrix(),
        "search_top_hits": sql_search_top_hits(),
        "rescore_topk": sql_rescore_topk(),
        "function_score_sat": sql_function_score_sat(),
        "function_score_decay": sql_function_score_decay(),
        "function_score_fvf": sql_function_score_fvf(),
        "quantiles_sketch": sql_quantiles_sketch(),
        "multifield_range_agg": sql_multifield_range_agg(),
        "multifield_top_hits": sql_multifield_top_hits(),
        "multifield_function_score": sql_multifield_function_score(),
        "significant_terms": sql_significant_terms(),
        "significant_bg": sql_significant_bg(),
        "content_sha256": sql_content_sha256(),
        "dedup_exact": dedup.sql_exact_duplicates(),
        "token_stats": textstats.sql_token_stats(),
        "lang_id": textstats.sql_lang_id(),
        "repetition_stats": textstats.sql_repetition_stats(),
        "dataset_split": curation.sql_dataset_split(),
        "token_budget_mix": curation.sql_token_budget_sample(MIX_BUDGETS),
        "export_shards": sql_export_shards(),
        "doc_fingerprint": textstats.sql_fingerprint(),
        "ngram_jaccard_pairs": dedup.sql_ngram_jaccard(threshold=0.3),
        # ExactSubstr (Lee et al.): windows compared by value in SQL,
        # by md5-lower-64 in the engine (~2^-64 collision caveat)
        "dup_ngram_spans": dedup.sql_dup_ngram_spans(n=8, min_count=2),
        # the Bloom dup store is exact (hits verified against bucket
        # files) -> the array path's oracle applies unchanged
        "dup_spans_bloom": dedup.sql_dup_ngram_spans(n=8, min_count=2),
        "lm_quality_score": lm.sql_lm_quality_score(min_count=5),
        "alpha_mix": curation.sql_alpha_mix_sample(alpha=0.5, total_budget=8000),
        # the fake decoder is md5-defined, so even the stubbed-codec
        # media pipeline is value-checked end-to-end
        "media_ann_topk": sql_media_ann_topk(),
        # composition of three already-oracled stages over one corpus
        "curation_pipeline": sql_curation_pipeline(),
        "dup_span_strip": dedup.sql_strip_duplicate_spans(n=8, min_count=2),
        # exact mirrors: same md5-lower-64 hashes, inlined permutation
        # constants, band-equality candidates, same verify filters
        "minhash_neardup": dedup.sql_minhash_neardup(threshold=0.7),
        # transitive closure over the SAME pair query (fuzzy-dedup keep-set)
        "neardup_clusters": dedup.sql_cluster_pairs(
            dedup.sql_minhash_neardup(threshold=0.7)
        ),
        "neardup_dedup_keep": sql_neardup_dedup_keep(),
        "simhash_neardup": dedup.sql_simhash_neardup(),
        "ann_cosine_topk": sql_ann_topk(),
        "embedding_cluster_sample": sql_embedding_cluster_sample(),
        "ann_filtered_topk": sql_ann_filtered_topk(),
        # full probing (nprobe = n_centroids) is exact -> same oracle
        "ann_ivf_exact": sql_ann_topk(),
        # approximate path's recall contract: Ray side emits per-query
        # recall@K >= IVF_RECALL_BOUND, oracle asserts all-True
        "ann_ivf_recall": sql_ann_ivf_recall(),
        "embedding_neardup": sql_embedding_neardup(),
        "embedding_dedup_keep": sql_embedding_dedup_keep(),
        # saturated-band config -> recall 1 at fixture scale, so the
        # exact pair join is a valid oracle for the LSH path too
        "embedding_neardup_lsh": sql_embedding_neardup(),
        "filter_pushdown": sql_filter_pushdown(),
        "events_minute_agg": sql_events_minute_agg(),
        "events_asof_join": sql_events_asof_join(),
        "events_interval_join": sql_events_interval_join(),
        "late_events": sql_late_events(),
        "events_props_extract": sql_events_props_extract(),
        "sessionize": sql_sessionize(),
        "quality_filter": curation.sql_quality_filter(),
        "stratified_sample": curation.sql_stratified_sample(SAMPLE_RATES),
        "decontaminate": curation.sql_decontaminate(n=8, bench_sql=_decon_bench_sql()),
        "pii_redact": curation.sql_pii_redact(),
        "bpe_token_stats": curation.sql_bpe_token_stats(),
        "top_docs_per_lang": sql_top_docs_per_lang(),
        "doclen_quantiles": sql_doclen_quantiles(),
        "suggest_prefix": sql_suggest_prefix(),
        "suggest_context": sql_suggest_context(),
        "suggest_fuzzy": sql_suggest_fuzzy(),
        "cardinality_by_lang": sql_cardinality_by_lang(),
        "cardinality_hll": sql_cardinality_hll(),
        # Misra-Gries candidates + exact verify pass -> output is exact,
        # a plain GROUP BY / HAVING mirrors it
        "heavy_hitters": sql_heavy_hitters(),
        "heavy_hitters_tokens": sql_heavy_hitters_tokens(),
        "pack_sequences": curation.sql_pack_sequences(budget=512),
        "orders_by_segment": sql_orders_by_segment(),
        "orders_lineitem_join": sql_orders_lineitem_join(),
        "pricing_summary": sql_pricing_summary(),
        "geo_bbox": sql_geo_bbox(),
        "geo_distance": sql_geo_distance(),
        "geo_distance_rings": sql_geo_distance_rings(),
        "geotile_grid": sql_geotile_grid(),
        "geo_polygon": sql_geo_polygon(),
        "geohash_grid": sql_geohash_grid(),
        "geo_bounds": sql_geo_bounds(),
        "geo_centroid": sql_geo_centroid(),
        "bucket_sel_sort": sql_bucket_sel_sort(),
        "cumulative_cardinality": sql_cumulative_cardinality(),
        "mad_doclen": sql_mad_doclen(),
        "geo_sort_topk": sql_geo_sort_topk(),
        "analyze_api": sql_analyze_api(),
        "bm25_geo_filtered": sql_bm25_geo_filtered(),
        # restored-snapshot serving must reproduce the direct build's
        # rankings exactly -> the same BM25 mirror (reindex pattern)
        "snapshot_restore_topk": sql_bm25(with_scores=True),
        "rollover_layout": sql_rollover_layout(),
        "scripted_metric": sql_scripted_metric(),
        # ann_ivf_topk / media_ann_topk: approximate / stub-decode ->
        # rows-only checks (ann_ivf_exact below proves the IVF machinery
        # exact under full probing).
    }
