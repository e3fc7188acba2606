"""One aggregation protocol, shared by every engine.

Each aggregation is defined ONCE, as an :class:`Agg` entry of
:data:`AGGS` keyed by name:

- ``partial(ids, scores, dm, spec)``: one scope's partial over its
  matched doc ids, reading the docmeta side table ``dm`` (``scores``
  are the matched docs' BM25 scores when the entry is ``scored``);
- ``merge(parts, spec)``: the exact result, at the driver;
- ``empty(spec)``: the result when nothing can match (also a scope's
  partial when its slice matches nothing).

Why every merge is exact: scopes (a pool server's doc-range slice, a
federation member's sub-index) hold DISJOINT doc sets.  Counts and
integer sums therefore add, min/max fold, and the union of every
scope's local top-k by (score desc, doc_id asc) holds the global top-k,
so re-cutting it is exact.  No merge below is an approximation.

Scopes expose one method, ``agg(match, name, spec)``: one per index
kind, :class:`cb.shard.ShardScope` and
:class:`cb.multifield.MultiFieldSearcher`, whether a pool actor
(``ShardServer``, ``MultiFieldServer``, a multifield federation member)
or an in-process searcher.  Each engine has one route that collects
the involved scopes' partials, and :class:`AggRoute` finishes it with
``merge`` or ``empty``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import pyarrow as pa

from .query import check_k, rank_topk


class Agg(NamedTuple):
    partial: Callable  # (ids, scores, dm, spec) -> one scope's partial
    merge: Callable  # (parts, spec) -> exact driver result
    empty: Callable  # (spec) -> result when nothing can match
    scored: bool = False  # partial reads the BM25 scores


def _merge_topk(results: list[list[tuple[int, float]]], k: int) -> list[tuple[int, float]]:
    """Merge per-scope top-k lists -> global top-k with the (score
    desc, doc_id asc) tie-break: every scope returns its k best, and
    the global k best each live in some scope."""
    check_k(k)
    allr = [t for r in results for t in r]
    allr.sort(key=lambda t: (-t[1], t[0]))
    return allr[:k]


def _facets_over(ids, dm, facet_cols, stats_cols):
    """Facet aggregation over one scope's matched doc ids: ES-style
    terms aggs (value -> count) and numeric stats aggs (n/sum/min/max)
    from the docmeta side table.  Vectorized (value_counts / sum) —
    returns tiny dicts, so driver merges stay O(distinct values)."""
    import pyarrow.compute as pc_

    facets: dict[str, dict] = {}
    for c in facet_cols:
        vals = dm.gather(ids, c).drop_null()
        vc = pc_.value_counts(vals)
        facets[c] = {
            row["values"]: int(row["counts"]) for row in vc.to_pylist()
        }
    stats: dict[str, tuple] = {}
    for c in stats_cols:
        vals = dm.gather(ids, c).drop_null()
        if len(vals) == 0:
            stats[c] = (0, 0, None, None)
        else:
            stats[c] = (
                len(vals),
                pc_.sum(vals).as_py(),
                pc_.min(vals).as_py(),
                pc_.max(vals).as_py(),
            )
    return facets, stats


def _merge_facets(parts):
    """Merge per-scope (facets, stats) pairs: counts add, sums add,
    min/max fold."""
    facets: dict[str, dict] = {}
    stats: dict[str, tuple] = {}
    for f, s in parts:
        for c, d in f.items():
            acc = facets.setdefault(c, {})
            for v, n in d.items():
                acc[v] = acc.get(v, 0) + n
        for c, (n, sm, mn, mx) in s.items():
            if c not in stats:
                stats[c] = (n, sm, mn, mx)
            elif n:
                N, S, MN, MX = stats[c]
                stats[c] = (
                    N + n,
                    S + sm,
                    mn if MN is None else (MN if mn is None else min(MN, mn)),
                    mx if MX is None else (MX if mx is None else max(MX, mx)),
                )
    return facets, stats


def _stats_ext_over(ids, dm, cols) -> dict:
    """ES extended_stats partials over one scope's matched doc ids:
    ``col -> (n, sum, sumsq, min, max)``.  Values are cast to int64
    first so the sums are EXACT integers (overflow-checked), and the
    driver finishes avg/variance/std with one division per moment —
    bitwise equal to the SQL mirror's ``sum::DOUBLE / n`` arithmetic
    because every integer involved is exactly representable as a
    double."""
    import pyarrow.compute as pc_

    out: dict[str, tuple] = {}
    for c in cols:
        vals = dm.gather(ids, c).drop_null()
        if len(vals) == 0:
            out[c] = (0, 0, 0, None, None)
            continue
        v64 = vals.cast(pa.int64())
        mx = pc_.max(v64).as_py()
        mn = pc_.min(v64).as_py()
        bound = max(abs(mx), abs(mn))
        if len(v64) * bound * bound < (1 << 62):
            # whole sum provably fits: vectorized (the multiply is
            # overflow-CHECKED; this bound makes the SUM safe too —
            # Arrow's sum wraps silently)
            sq = pc_.sum(pc_.multiply_checked(v64, v64)).as_py()
        else:
            # exact Python-int fold (unbounded precision) for slices
            # where n * max^2 could wrap int64
            sq = sum(int(x) * int(x) for x in v64.to_pylist())
        out[c] = (len(v64), pc_.sum(v64).as_py(), sq, mn, mx)
    return out


def _merge_stats_ext(parts) -> dict:
    """Fold per-scope extended-stats partials (exact integer adds,
    min/max folds)."""
    out: dict[str, tuple] = {}
    for s in parts:
        for c, (n, sm, sq, mn, mx) in s.items():
            if c not in out:
                out[c] = (n, sm, sq, mn, mx)
            elif n:
                N, S, Q, MN, MX = out[c]
                out[c] = (
                    N + n,
                    S + sm,
                    Q + sq,
                    mn if MN is None else (MN if mn is None else min(MN, mn)),
                    mx if MX is None else (MX if mx is None else max(MX, mx)),
                )
    return out


def _histos_over(ids, dm, histos: dict) -> dict:
    """ES histogram aggregation over one scope's matched ids:
    ``col -> {floor(value/interval)*interval: count}`` (int buckets) —
    the fixed-interval histogram Kibana's date_histogram specializes."""
    import pyarrow.compute as pc_

    out: dict[str, dict] = {}
    for c, interval in histos.items():
        vals = dm.gather(ids, c).drop_null()
        if len(vals) == 0:
            out[c] = {}
            continue
        b = pc_.cast(
            pc_.multiply(
                pc_.floor(pc_.divide(pc_.cast(vals, pa.float64()), float(interval))),
                float(interval),
            ),
            pa.int64(),
        )
        out[c] = {
            int(row["values"]): int(row["counts"])
            for row in pc_.value_counts(b).to_pylist()
        }
    return out


def _merge_hists(parts: list[dict]) -> dict:
    """Additive fold of per-scope histogram dicts."""
    out: dict[str, dict] = {}
    for h in parts:
        for c, d in h.items():
            acc = out.setdefault(c, {})
            for v, n in d.items():
                acc[v] = acc.get(v, 0) + n
    return out


def _ranges_over(ids, dm, ranges: dict) -> dict:
    """ES range aggregation over one scope's matched doc ids:
    ``col -> [count per (lo, hi) range]`` with half-open ``[lo, hi)``
    semantics and ``None`` = unbounded — counts align positionally with
    the caller's range list so the driver merge is elementwise
    addition.  Nulls never match any range (mirrors SQL comparison
    semantics)."""
    out: dict[str, list[int]] = {}
    for c, bounds in ranges.items():
        vals = dm.gather(ids, c).drop_null()
        v = vals.to_numpy(zero_copy_only=False).astype(np.float64)
        cnts = []
        for lo, hi in bounds:
            m = np.ones(len(v), dtype=bool)
            if lo is not None:
                m &= v >= lo
            if hi is not None:
                m &= v < hi
            cnts.append(int(m.sum()))
        out[c] = cnts
    return out


def _merge_ranges(parts: list[dict]) -> dict:
    """Elementwise fold of per-scope range-count lists."""
    out: dict[str, list[int]] = {}
    for p in parts:
        for c, cnts in p.items():
            if c not in out:
                out[c] = list(cnts)
            else:
                out[c] = [a + b for a, b in zip(out[c], cnts)]
    return out


def _pct_ranks_from_counts(cnts: list[int], values) -> dict[int, float] | None:
    """percentile_ranks driver math over the range-counts fan-out
    output: the last count is the (non-null) match total, one IEEE
    division per probe value (bit-identical to SQL's c::DOUBLE/n::DOUBLE)."""
    n = cnts[-1]
    if n == 0:
        return None
    return {int(v): c / n for v, c in zip(values, cnts[:-1])}


def _pct_ranges(values) -> list[tuple]:
    """percentile_ranks as range counts: ``col <= v`` is the half-open
    ``[None, v+1)`` (integer columns); the trailing unbounded range
    counts the non-null match total."""
    return [(None, int(v) + 1) for v in values] + [(None, None)]


def _composite_over(ids, dm, cols: list[str]) -> dict:
    """Composite-aggregation bucket counts over one scope's matched doc
    ids: ``(v1, v2, ...) -> count`` via one vectorized Arrow group_by
    over the gathered key columns (tiny output: one row per distinct
    key tuple, never per doc)."""
    tbl = pa.table({c: dm.gather(ids, c) for c in cols})
    tbl = tbl.drop_null()  # null key values drop (mirrors SQL GROUP BY
    # join semantics and keeps the driver's key sort total-orderable)
    agg = tbl.group_by(cols).aggregate([([], "count_all")])
    keys = [agg[c].to_pylist() for c in cols]
    cnts = agg["count_all"].to_pylist()
    return {tuple(k[i] for k in keys): int(cnts[i]) for i in range(len(cnts))}


def _merge_composite(parts: list[dict]) -> dict:
    """Additive fold of per-scope composite bucket dicts."""
    out: dict[tuple, int] = {}
    for p in parts:
        for k, n in p.items():
            out[k] = out.get(k, 0) + n
    return out


def _page_composite(
    merged: dict, size: int, after: tuple | None
) -> tuple[list[tuple[tuple, int]], tuple | None]:
    """Key-ordered size/after paging over a merged composite bucket
    dict: ``(buckets, after_key)``, where ``after_key`` feeds the next
    page (None = exhausted).  O(distinct keys), never O(docs)."""
    keys = sorted(merged)
    if after is not None:
        keys = [k for k in keys if k > after]
    page = keys[:size]
    after_key = page[-1] if len(keys) > size else None
    return [(k, merged[k]) for k in page], after_key


def _top_hits_over(ids, scores, dm, group_col: str, k_per: int) -> dict:
    """Per-bucket top hits over one scope's scored match set:
    ``group value -> [(doc_id, score), ...]`` cut to ``k_per`` by
    (score desc, doc_id asc).  Vectorized: dictionary-encode the group
    column, one lexsort, slice the first ``k_per`` of each group run."""
    if len(ids) == 0:
        return {}
    arr = dm.gather(ids, group_col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    enc = arr.dictionary_encode()
    codes = enc.indices.fill_null(-1).to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((ids, -scores, codes))
    sc, sids, sscores = codes[order], ids[order], scores[order]
    out: dict = {}
    starts = np.flatnonzero(np.r_[True, sc[1:] != sc[:-1]])
    ends = np.append(starts[1:], len(sc))
    dictionary = enc.dictionary.to_pylist()
    for s, e in zip(starts, ends):
        if sc[s] < 0:
            continue  # null group values drop (mirrors SQL GROUP BY join)
        cut = min(e, s + k_per)
        out[dictionary[sc[s]]] = [
            (int(d), float(x)) for d, x in zip(sids[s:cut], sscores[s:cut])
        ]
    return out


def _merge_top_hits(parts: list[dict], k_per: int) -> dict:
    """Fold per-scope top-hit lists: concat per group value, re-sort by
    (score desc, doc_id asc), cut to k_per."""
    out: dict = {}
    for p in parts:
        for v, hits in p.items():
            out.setdefault(v, []).extend(hits)
    for v in out:
        out[v] = sorted(out[v], key=lambda h: (-h[1], h[0]))[:k_per]
    return out


def _collapse_from_top_hits(hits: dict, k: int) -> list[tuple[int, float, object]]:
    """Field collapsing from a per-group top_hits(k_per=1) result:
    flatten the champions and re-cut by (score desc, doc_id asc) into
    ``(doc_id, score, group_value)`` triples — the per-group champions
    hold the global ones, so the re-cut is exact."""
    flat = [(d, s, v) for v, lst in hits.items() for d, s in lst]
    flat.sort(key=lambda r: (-r[1], r[0]))
    return flat[:k]


def _top_metrics_over(
    ids, dm, group_col: str, sort_col: str, metric_cols: list[str], k_per: int
) -> dict:
    """ES top_metrics-inside-terms-agg over one scope: the match set
    grouped by ``group_col``, each group keeping the local top
    ``k_per`` rows by (``sort_col`` desc, doc_id asc), with the
    requested metric columns read off docmeta for the winners only.
    Rides _top_hits_over with the numeric sort column in the score
    slot (integer metric, so re-cuts are exact); winners carry their
    metrics, so the driver merge never re-reads docmeta."""
    if len(ids) == 0:
        return {}
    import pyarrow.compute as pc_

    sort_vals = pc_.fill_null(
        dm.gather(ids, sort_col).cast(pa.float64()), float("-inf")
    ).to_numpy(zero_copy_only=False)
    hits = _top_hits_over(ids, sort_vals, dm, group_col, k_per)
    out = {}
    for v, rows in hits.items():
        wids = np.array([d for d, _ in rows], dtype=np.int64)
        metrics = {c: dm.gather(wids, c).to_pylist() for c in metric_cols}
        out[v] = [
            (int(d), float(s), tuple(metrics[c][i] for c in metric_cols))
            for i, (d, s) in enumerate(rows)
        ]
    return out


def _terms_stats_over(ids, dm, group_col: str, stat_col: str) -> list[tuple]:
    """ES terms agg with a metric sub-agg over one scope: the match set
    grouped by the ``group_col`` docmeta value — ``(value, count,
    sum(stat_col))`` per value seen here.  Exact integers, so the
    order-by-metric cut happens at the driver over complete sums —
    never the shard-local approximation ES documents as a pitfall.
    Vectorized: dictionary-encode + lexsort + add.reduceat; null group
    keys drop (the GROUP-BY convention shared with join_children)."""
    if len(ids) == 0:
        return []
    arr = dm.gather(ids, group_col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    x = (
        dm.gather(ids, stat_col)
        .cast(pa.int64())
        .to_numpy(zero_copy_only=False)
    )
    enc = arr.dictionary_encode()
    codes = enc.indices.fill_null(-1).to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((ids, codes))
    scodes, sx = codes[order], x[order]
    starts = np.flatnonzero(np.r_[True, scodes[1:] != scodes[:-1]])
    sums = np.add.reduceat(sx, starts)
    counts = np.diff(np.append(starts, len(scodes)))
    dictionary = enc.dictionary.to_pylist()
    return [
        (dictionary[scodes[s]], int(c), int(sm))
        for s, c, sm in zip(starts, counts, sums)
        if scodes[s] >= 0
    ]


def _merge_terms_stats(parts: list[list[tuple]], top_n: int) -> list[tuple]:
    """Add per-scope ``(value, count, sum)`` rows, then rank buckets by
    (avg desc, value asc) and cut to ``top_n``.  The one float per
    bucket is one division of exact ints (bitwise vs the SQL mirror)."""
    merged: dict[object, tuple[int, int]] = {}
    for part in parts:
        for v, c, sm in part:
            oc, os_ = merged.get(v, (0, 0))
            merged[v] = (oc + c, os_ + sm)
    rows = [(v, c, sm / c) for v, (c, sm) in merged.items()]
    rows.sort(key=lambda r: (-r[2], r[0]))
    return rows[:top_n]


def _combine_function_score(sc: np.ndarray, x: np.ndarray, spec: dict) -> np.ndarray:
    """function_score combine kernel: ``saturation`` = score +
    w*x/(x+pivot) (ES rank_feature), ``linear_decay`` = score * max(0,
    scale-|x-origin|)/scale.  One division / one multiply per doc —
    bitwise the SQL mirror (no transcendentals)."""
    if spec["kind"] == "saturation":
        w, pivot = float(spec["w"]), int(spec["pivot"])
        return sc + w * (x.astype(np.float64) / (x + pivot).astype(np.float64))
    if spec["kind"] == "linear_decay":
        origin, scale = int(spec["origin"]), int(spec["scale"])
        decay = np.maximum(scale - np.abs(x - origin), 0).astype(np.float64) / float(scale)
        return sc * decay
    if spec["kind"] == "distance_feature":
        # ES distance_feature query: score + boost * pivot/(pivot+dist)
        # with dist = |x - origin| — the close-to-origin analog of
        # rank_feature's saturation (integer dist, one division, so the
        # SQL mirror is bitwise).
        w = float(spec["w"])
        origin, pivot = int(spec["origin"]), int(spec["pivot"])
        dist = np.abs(x - origin)
        return sc + w * (float(pivot) / (dist + pivot).astype(np.float64))
    if spec["kind"] == "field_value_factor":
        # ES field_value_factor (combine: multiply): score * (factor *
        # modifier(field)).  log1p is computed as ln(1 + x) — NOT
        # numpy's log1p — so the DuckDB mirror ``ln(1 + x)`` is the
        # identical float expression; sqrt is correctly rounded in
        # both engines.
        f = float(spec["factor"])
        mod = spec.get("modifier", "none")
        v = x.astype(np.float64)
        if mod == "log1p":
            v = np.log(1.0 + v)
        elif mod == "sqrt":
            v = np.sqrt(v)
        elif mod != "none":
            raise ValueError(f"unknown field_value_factor modifier {mod!r}")
        return sc * (f * v)
    if spec["kind"] == "random":
        # ES random_score (seeded): deterministic per-doc hash blended
        # into the score — here ``x`` IS the doc-id array (no docmeta
        # gather).  r = md5_lower64(str(doc_id)) / 2^64: the uint64 ->
        # double cast and the exact power-of-two scaling are both
        # correctly rounded, so this mirrors DuckDB's
        # ``md5_number_lower(doc_id::VARCHAR)::DOUBLE / 2^64`` bitwise.
        import pyarrow.compute as pc_

        from .hashing import md5_lower64

        w = float(spec["w"])
        h = md5_lower64(pc_.cast(pa.array(x.astype(np.int64)), pa.string()))
        return sc + w * (h.astype(np.float64) / 18446744073709551616.0)
    raise ValueError(f"unknown function_score kind {spec['kind']!r}")


def _fscore_feature(ids: np.ndarray, dm, spec: dict) -> np.ndarray:
    """The function_score feature vector: ``random`` keys off the doc
    id itself (hashed in the kernel); every other kind gathers its
    docmeta feature column."""
    if spec["kind"] == "random":
        return ids.astype(np.int64)
    return dm.gather(ids, spec["col"]).to_numpy(zero_copy_only=False).astype(np.int64)


def _function_score_over(ids, scores, dm, spec: dict, k: int) -> list[tuple[int, float]]:
    """ES function_score over one scope's scored match set: every
    matching doc's BM25 score combines with its docmeta feature BEFORE
    the top-k cut (unlike rescore, which only re-ranks a first-pass
    window); local top ``k``."""
    if len(ids) == 0:
        return []
    return rank_topk(ids, _combine_function_score(scores, _fscore_feature(ids, dm, spec), spec), k)


def _merge_sig(parts) -> tuple[dict, int]:
    """Fold per-scope significant_terms partials ``(term -> count,
    match total)``: both add."""
    counts: dict[str, int] = {}
    for d, _ in parts:
        for t, c in d.items():
            counts[t] = counts.get(t, 0) + c
    return counts, sum(m for _, m in parts)


def _jlh_rank(fg: dict, m: int, dfs: dict, n: int, top_n: int):
    """JLH fold shared by every significant_terms surface:
    ``(fg/m - df/N) * ((fg/m)/(df/N))`` as ``[(term, fg, df, score)]``,
    top_n by (score desc, term asc)."""
    if not m:
        return []
    out = []
    for t, c in fg.items():
        df = dfs.get(t)
        if not df:
            continue
        fgp, bgp = c / m, df / n
        out.append((t, c, df, (fgp - bgp) * (fgp / bgp)))
    out.sort(key=lambda r: (-r[3], r[0]))
    return out[:top_n]


# name -> entry; the comment gives each entry's ``spec``
AGGS: dict[str, Agg] = {
    # (facet_cols, stats_cols) -> ({col: {value: count}}, {col: (n, sum, min, max)})
    "facets": Agg(
        lambda ids, sc, dm, s: _facets_over(ids, dm, s[0], s[1]),
        lambda parts, s: _merge_facets(parts),
        lambda s: ({c: {} for c in s[0]}, {c: (0, 0, None, None) for c in s[1]}),
    ),
    # cols -> {col: (n, sum, sumsq, min, max)}
    "extended_stats": Agg(
        lambda ids, sc, dm, s: _stats_ext_over(ids, dm, s),
        lambda parts, s: _merge_stats_ext(parts),
        lambda s: {c: (0, 0, 0, None, None) for c in s},
    ),
    # {col: interval} -> {col: {bucket_lo: count}}
    "histogram": Agg(
        lambda ids, sc, dm, s: _histos_over(ids, dm, s),
        lambda parts, s: _merge_hists(parts),
        lambda s: {c: {} for c in s},
    ),
    # {col: [(lo, hi), ...]} -> {col: [count, ...]}
    "range": Agg(
        lambda ids, sc, dm, s: _ranges_over(ids, dm, s),
        lambda parts, s: _merge_ranges(parts),
        lambda s: {c: [0] * len(b) for c, b in s.items()},
    ),
    # cols -> {(v1, v2, ...): count}, unpaged (see _page_composite)
    "composite": Agg(
        lambda ids, sc, dm, s: _composite_over(ids, dm, s),
        lambda parts, s: _merge_composite(parts),
        lambda s: {},
    ),
    # (group_col, k_per) -> {value: [(doc_id, score), ...]}
    "top_hits": Agg(
        lambda ids, sc, dm, s: _top_hits_over(ids, sc, dm, s[0], s[1]),
        lambda parts, s: _merge_top_hits(parts, s[1]),
        lambda s: {},
        scored=True,
    ),
    # (group_col, sort_col, metric_cols, k_per) -> {value: [(doc_id, sort_value, metrics), ...]}
    "top_metrics": Agg(
        lambda ids, sc, dm, s: _top_metrics_over(ids, dm, *s),
        lambda parts, s: _merge_top_hits(parts, s[3]),
        lambda s: {},
    ),
    # (group_col, stat_col, top_n) -> [(value, count, avg), ...]
    "terms_stats": Agg(
        lambda ids, sc, dm, s: _terms_stats_over(ids, dm, s[0], s[1]),
        lambda parts, s: _merge_terms_stats(parts, s[2]),
        lambda s: [],
    ),
    # (function spec, k) -> [(doc_id, combined score), ...]
    "function_score": Agg(
        lambda ids, sc, dm, s: _function_score_over(ids, sc, dm, s[0], s[1]),
        lambda parts, s: _merge_topk(parts, s[1]),
        lambda s: [],
        scored=True,
    ),
}


class AggRoute:
    """The engine half of the protocol.  An engine defines one route,
    ``_agg_parts(query, name, spec, **sel)``: every involved scope's
    partial, or none when nothing can match."""

    def _agg(self, query, name: str, spec, **sel):
        entry = AGGS[name]
        parts = self._agg_parts(query, name, spec, **sel)
        return entry.merge(parts, spec) if parts else entry.empty(spec)
