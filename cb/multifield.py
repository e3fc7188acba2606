"""Multi-field analyzed indexes: BM25 over N text fields per document.

The reference's mappings declare MANY analyzed fields per index
(/root/reference/mappings/AzureIisLog.json — every string field is
analyzed unless marked not_analyzed; applied at
Scheduling/MasterScheduler.cs:205-239), and users query `field:term`
or let the default search span fields.  The engine analog:

- :func:`build_multifield` builds one standard sub-index per analyzed
  field under ``index_dir/field=<name>/`` — each a column-pruned read
  of exactly (id, field), so the total bytes read off storage equal one
  read of the needed columns, and each sub-index independently carries
  the per-field stats BM25 needs (per-field df, doc length, avgdl) with
  every existing guarantee (byte-determinism, bucket-pruned layout,
  resumability) intact.
- Scoring is ES ``multi_match: most_fields``: an unscoped term is
  scored in EVERY field and a doc's score is the SUM of its per-field
  BM25 scores (field order fixed by the manifest, so float summation
  is deterministic); ``field:term`` scopes a term to one analyzed
  field.  Membership = any scored term matches in any scoped field.
- :class:`MultiFieldSearcher` is the one multi-field scope: a
  doc-range bucket slice of every field's partitions (the whole index
  by default), optionally scored with a federation's overlay.  In
  process it is the searcher; :class:`MultiFieldServer` is the same
  class as a pool actor, and each member of a multifield federation
  (:class:`cb.federated.FederatedMultiFieldEngine`) is one of those
  over its whole sub-index.
- :class:`MultiFieldEngine` is the doc-sharded actor pool — every
  server holds the SAME doc-range bucket slice of every field's
  partitions, computes the cross-field sum locally over its disjoint
  doc subset (bucket-pruned reads), and the driver merges by
  (score, doc_id) exactly as the single-field engine does.
- Aggregations follow the one protocol of :mod:`cb.aggs`: every scope
  computes a registry entry's partial with ``agg`` over the routed
  query's full match set, and the pool merges the partials.
- The pool is a :class:`cb.shard.ServerPool` of ``MultiFieldServer``
  actors, the single-field engine's pool: :func:`cb.shard.doc_slices`
  assigns the buckets, Ray places, constructs and kills the actors, and
  requests travel the data plane of :mod:`cb.rpc`, one authenticated
  socket per server.
"""

from __future__ import annotations

import os
import time

import numpy as np

import ray

from . import analyze, manifest, rpc, scoring, wand
from .aggs import (
    AGGS, _collapse_from_top_hits, _jlh_rank, _merge_sig, _page_composite,
)
from .build import IndexMeta, term_partition
from .query import check_algo, page_after as _page_after, rank_topk
from .shard import (
    GlobalStats, PoolEngine, ServerPool, ShardPartition, _live_mask, _merge_topk,
    _timed_topk, doc_slices, load_tombstones, warm_partition,
)
from .telemetry import Telemetry


def _mf_manifest_path(index_dir: str) -> str:
    return os.path.join(index_dir, "_multifield.json")


def field_dir(index_dir: str, field: str) -> str:
    return os.path.join(index_dir, f"field={field}")


def build_multifield(
    source: str | ray.data.Dataset,
    index_dir: str,
    fields: list[str],
    *,
    id_col: str = "doc_id",
    **build_kwargs,
) -> dict:
    """One sub-index per analyzed field (pruned ``columns=[id, field]``
    reads) + the ``_multifield.json`` manifest naming the fields in
    scoring order."""
    import ray.data

    from . import build as build_mod

    if not fields:
        raise ValueError("need at least one analyzed field")
    os.makedirs(index_dir, exist_ok=True)
    for f in fields:
        if isinstance(source, str):
            sub_src: str | ray.data.Dataset = ray.data.read_parquet(
                source, columns=[id_col, f]
            )
        else:
            sub_src = source.select_columns([id_col, f])
        build_mod.build_index(
            sub_src, field_dir(index_dir, f), text_col=f, id_col=id_col, **build_kwargs
        )
    m = {"fields": list(fields), "id_col": id_col}
    manifest.write_atomic(_mf_manifest_path(index_dir), m)
    return m


def compact_multifield(index_dir: str) -> dict:
    """Physically drop tombstoned docs from EVERY field sub-index (the
    multifield analog of :func:`cb.build.compact_index`): member-level
    tombstones (where MultiFieldSearcher and the federated delete path
    write them) are projected into each field dir, each field compacts
    independently (per-bucket parallel, byte-identical to a fresh build
    over the survivors), and the member-level tombstone set clears
    last.  Returns {field: {n_docs, total_tokens, avgdl}}."""
    import shutil

    from . import build as build_mod
    from .shard import load_tombstones

    m = load_multifield_meta(index_dir)
    tomb_path = os.path.join(index_dir, "_tombstones.json")
    tomb = load_tombstones(index_dir)
    out = {}
    for f in m["fields"]:
        fdir = field_dir(index_dir, f)
        if len(tomb):
            # project the member tombstones into the field dir so the
            # single-field compactor sees them (idempotent on re-run)
            shutil.copyfile(tomb_path, os.path.join(fdir, "_tombstones.json"))
        meta = build_mod.compact_index(fdir)
        out[f] = {
            "n_docs": meta.n_docs,
            "total_tokens": meta.total_tokens,
            "avgdl": meta.avgdl,
        }
    if os.path.exists(tomb_path):
        os.remove(tomb_path)  # last: a crash before this re-runs cleanly
    return out


def load_multifield_meta(index_dir: str) -> dict:
    m = manifest.read(_mf_manifest_path(index_dir))
    if not m:
        raise FileNotFoundError(f"no _multifield.json under {index_dir}")
    return m


def route_query(query: str, fields: list[str]) -> dict:
    """Query string -> the full routed clause structure.

    - Unscoped terms score in EVERY field (most_fields); ``field:term``
      with an analyzed field scopes the term; ``-term`` excludes docs
      containing the term in ANY field.
    - ``"a b"`` (unscoped phrase) is REQUIRED in at least one analyzed
      field; ``field:"a b"`` is required in that field; ``-"a b"`` drops
      docs containing the phrase in ANY field.  Phrase terms are scored
      wherever the phrase can match (same as the single-field engine).
    - ``field:val`` / ``field:"multi word"`` where ``field`` is NOT an
      analyzed field goes to the docmeta filter context (exact match on
      a not_analyzed column; validated at execution).
    """
    from . import querylang

    parsed = querylang.parse(query)
    field_terms: dict[str, set] = {f: set() for f in fields}
    filters: dict[str, str] = {}
    field_phrases: list[tuple[str, list[str]]] = []
    for f, raw in parsed["scoped_phrases"]:
        if f in field_terms:
            toks = analyze.tokenize(raw)
            if toks:
                field_phrases.append((f, toks))
                field_terms[f].update(toks)
        else:
            filters[f] = raw
    # scoped_terms, not the filters dict: the dict is keyed by field, so
    # a repeated analyzed field (``title:hash title:join``) would keep
    # only the last term — the ordered list keeps them all
    for f, val in parsed["scoped_terms"]:
        if f in field_terms:
            if isinstance(val, querylang.Range):
                raise ValueError(f"range filter on analyzed field {f!r}")
            field_terms[f].update(analyze.tokenize(val))
        else:
            filters[f] = val
    for ph in parsed["phrases"]:
        for f in fields:
            field_terms[f].update(ph)
    for t in parsed["terms"]:
        for f in fields:
            field_terms[f].add(t)
    return {
        "field_terms": {f: sorted(ts) for f, ts in field_terms.items()},
        "excluded": parsed["excluded"],
        "any_phrases": parsed["phrases"],
        "field_phrases": field_phrases,
        "filters": filters,
        "excluded_phrases": parsed["excluded_phrases"],
        # ^boost weights (per term, phrase tokens included) and +required
        # terms — most_fields semantics: the weight scales the term's idf
        # in EVERY field it scores in; a required term must match in >=1
        # of its scoped fields
        "weights": parsed.get("weights") or {},
        "required": parsed.get("required") or [],
        # unresolved wildcard/fuzzy atoms: resolved per FIELD vocabulary
        # by expand_routed before scoring
        "expands": parsed.get("expands") or [],
        # msm:N — a doc must match >= N DISTINCT scored terms, in any field
        "minimum_should_match": parsed.get("minimum_should_match") or 0,
    }


def expand_routed(routed: dict, vocabs: dict[str, list[str]]) -> dict:
    """Resolve wildcard/fuzzy atoms PER FIELD (the multifield analog of
    ``querylang.expand``; rewrite=scoring_boolean): in field ``f`` a
    term's weight is its parse-time weight if it was originally scoped
    there (else 0) plus the boosts of every atom matching it — atoms
    match by string, so a term present in several field vocabularies
    gets the same boost sum in each.  Accumulation order (base weight
    first, atoms in query order) mirrors the SQL oracle's
    ``sum(w ORDER BY atom_id)`` float order exactly.  Returns a new
    routed dict with ``expands`` emptied and ``field_weights`` set —
    safe to ship to doc-sharded servers / federation members (each
    member expands against ITS vocabulary, the same per-sub-index
    contract as the single-field federation)."""
    import re as _re

    from . import querylang

    if not routed.get("expands"):
        return routed
    out = dict(routed)
    base_w = routed.get("weights") or {}
    ft = {f: set(ts) for f, ts in routed["field_terms"].items()}
    fw: dict[str, dict[str, float]] = {}
    for f, vocab in vocabs.items():
        w_f = {t: float(base_w.get(t, 1.0)) for t in ft[f]}
        for atom in routed["expands"]:
            if atom["kind"] == "wildcard":
                rx = _re.compile(querylang.wildcard_regex(atom["pattern"]))
                hits = [t for t in vocab if rx.fullmatch(t)]
            else:
                base, dist = atom["term"], atom["dist"]
                lo, hi = len(base) - dist, len(base) + dist
                hits = [
                    t
                    for t in vocab
                    if lo <= len(t) <= hi
                    and querylang.damerau_levenshtein(base, t) <= dist
                ]
            for t in sorted(hits):
                w_f[t] = w_f.get(t, 0.0) + float(atom["boost"])
            ft[f].update(hits)
        fw[f] = w_f
    out["field_terms"] = {f: sorted(ts) for f, ts in ft.items()}
    out["field_weights"] = fw
    out["expands"] = []
    return out


def route_terms(
    query: str, fields: list[str]
) -> tuple[dict[str, list[str]], list[str]]:
    """Term-only routing: ({field: sorted scored terms}, excluded).

    The restricted form the SQL oracle generator shares with the engine;
    phrase clauses or non-analyzed filters raise (use :func:`route_query`
    / the searcher for the full surface)."""
    r = route_query(query, fields)
    if r["any_phrases"] or r["field_phrases"] or r["excluded_phrases"]:
        raise ValueError("route_terms handles term queries only (no phrases)")
    if r["filters"]:
        raise ValueError(
            f"unknown analyzed field {sorted(r['filters'])}; this index has {fields}"
        )
    return r["field_terms"], r["excluded"]


def _match_fields(
    routed: dict,
    get_postings,  # (field, term) -> ChunkedPostings | None
    stats: dict[str, GlobalStats],
    field_order: list[str],
    tombstones: np.ndarray,
    docmeta=None,
    decoded: dict[str, dict] | None = None,
):
    """Cross-field most_fields match + score over one postings scope
    (whole index in-process; a doc-range slice on a server): returns
    ``(all_ids, total, keep)`` — the candidate universe, its summed
    per-field scores, and the boolean mask after every clause (phrase,
    filter, msm, required, exclusion) — or None when nothing can match.
    Field order is fixed, so the float sum is deterministic and
    slice-independent.  Every clause is evaluated per doc, so a
    doc-sharded server can run this over its disjoint slice and the
    driver merge (top-k OR additive aggregation) stays exact.
    ``decoded`` (field -> that field's ``wand.taat_scores`` decoded
    cache) lets a scope decode each (field, term) once."""
    from . import phrase as phrase_mod

    def cache(f: str) -> dict | None:
        return None if decoded is None else decoded[f]

    def term_ids(f: str, t: str, p) -> np.ndarray:
        return wand.decoded_u(t, p, stats[f].avgdl, cache(f))[0]

    field_postings, field_idfs = _field_live_idfs(
        routed, get_postings, stats, field_order
    )
    per_field = []
    for f in field_order:
        live = field_postings.get(f)
        if not live:
            continue
        universe, acc = wand.taat_scores(live, field_idfs[f], stats[f], cache(f))
        if universe is not None:
            per_field.append((f, universe, acc))
    if not per_field:
        return None
    all_ids, total = wand.ordered_sum(  # manifest field order
        [u for _, u, _ in per_field], [acc for _, _, acc in per_field]
    )
    tb = routed.get("dis_max")
    if tb is not None:
        # ES best_fields (dis_max): score = best field + tie_breaker *
        # the others.  ``best`` is an order-insensitive elementwise max
        # over the SAME per-field doubles the most_fields loop added
        # (absent field = 0.0, matching the SQL mirror's coalesce), and
        # the others are recovered as (total - best): one subtraction,
        # one exact-binary-fraction scale, one add — so the mirror
        # ``greatest(a, b, ...) + tb * ((a + b + ...) - greatest(...))``
        # is bitwise.  Per-doc, hence doc-sharded-slice independent.
        best = np.zeros(len(all_ids), dtype=np.float64)
        aligned = np.zeros(len(all_ids), dtype=np.float64)
        for _, universe, acc in per_field:
            aligned[:] = 0.0
            aligned[np.searchsorted(all_ids, universe)] = acc
            np.maximum(best, aligned, out=best)
        total = best + float(tb) * (total - best)
    keep = _live_mask(all_ids, tombstones)
    # filter context: exact match on not_analyzed docmeta columns —
    # membership only, never scores (ES bool.filter)
    if routed.get("filters"):
        if docmeta is None:
            raise ValueError(
                f"filter fields {sorted(routed['filters'])} are not analyzed "
                f"fields of this index ({field_order}) and no docmeta table "
                "is built (cb.docmeta / mapping not_analyzed)"
            )
        unknown = sorted(set(routed["filters"]) - set(docmeta.cols))
        if unknown:
            raise ValueError(
                f"unknown filter fields {unknown}; analyzed fields are "
                f"{field_order}, docmeta columns {sorted(docmeta.cols)}"
            )
        keep &= docmeta.mask(all_ids, routed["filters"])

    def _phrase_hits(f: str, toks: list[str], cap: int) -> np.ndarray | None:
        """Sorted ids of docs matching the phrase in field ``f`` within
        this scope; None when a phrase term is absent from the field."""
        ph_postings = {t: get_postings(f, t) for t in set(toks)}
        if any(p is None for p in ph_postings.values()):
            return None
        hits = phrase_mod.phrase_topk(toks, ph_postings, stats[f], cap)
        return np.array(sorted(d for d, _ in hits), dtype=np.int64)

    # unscoped phrases: required in >=1 analyzed field.  Phrase terms
    # are scored in every field, so matches are within the universe and
    # cap=len(all_ids) is exact.
    for toks in routed.get("any_phrases", ()):
        union: list[np.ndarray] = []
        for f in field_order:
            h = _phrase_hits(f, toks, len(all_ids))
            if h is not None and len(h):
                union.append(h)
        if not union:
            return None
        keep &= np.isin(all_ids, np.unique(np.concatenate(union)), assume_unique=True)
    # field-scoped phrases: required in THAT field
    for f, toks in routed.get("field_phrases", ()):
        h = _phrase_hits(f, toks, len(all_ids))
        if h is None or len(h) == 0:
            return None
        keep &= np.isin(all_ids, h, assume_unique=True)
    # negated phrases: must_not in ANY field.  Their terms are unscored,
    # so matches are NOT bounded by the universe — bound by the phrase's
    # rarest term df in the field instead.
    for toks in routed.get("excluded_phrases", ()):
        for f in field_order:
            ph_postings = {t: get_postings(f, t) for t in set(toks)}
            if any(p is None for p in ph_postings.values()):
                continue
            cap = min(p.df for p in ph_postings.values())
            hits = phrase_mod.phrase_topk(toks, ph_postings, stats[f], cap)
            if hits:
                hit_ids = np.array(sorted(d for d, _ in hits), dtype=np.int64)
                keep &= ~np.isin(all_ids, hit_ids, assume_unique=True)
    # msm:N — count DISTINCT scored terms matched per doc across all
    # fields (exact per doc, so disjoint doc-sharded slices stay exact)
    msm = int(routed.get("minimum_should_match") or 0)
    if msm > 1:
        all_terms = sorted({t for ts in routed["field_terms"].values() for t in ts})
        counts = np.zeros(len(all_ids), dtype=np.int64)
        for t in all_terms:
            union: list[np.ndarray] = []
            for f in field_order:
                if t not in (routed["field_terms"].get(f) or ()):
                    continue
                p = get_postings(f, t)
                if p is not None:
                    union.append(term_ids(f, t, p))
            if union:
                counts += np.isin(
                    all_ids, np.unique(np.concatenate(union)), assume_unique=True
                ).astype(np.int64)
        keep &= counts >= msm

    # +required terms: doc must contain the term in >=1 of its scoped
    # fields (exact per doc, so disjoint doc-sharded slices stay exact)
    for t in routed.get("required") or ():
        union: list[np.ndarray] = []
        for f in field_order:
            if t not in (routed["field_terms"].get(f) or ()):
                continue
            p = get_postings(f, t)
            if p is not None:
                union.append(term_ids(f, t, p))
        if not union:
            return None
        keep &= np.isin(
            all_ids, np.unique(np.concatenate(union)), assume_unique=True
        )
    for t in routed["excluded"]:
        for f in field_order:
            p = get_postings(f, t)
            if p is None:
                continue
            keep &= ~np.isin(all_ids, term_ids(f, t, p), assume_unique=True)
    return all_ids, total, keep


def _field_live_idfs(
    routed: dict,
    get_postings,
    stats: dict[str, GlobalStats],
    field_order: list[str],
) -> tuple[dict[str, dict], dict[str, dict]]:
    """Per-field live postings + weighted idfs — the ONE definition the
    TAAT matcher and the WAND branch both score with (their bitwise
    parity depends on these being computed identically).  The weight
    multiplies idf FIRST (one scalar double per term) — same order as
    the single-field engine and the weighted SQL mirror, so w == 1
    stays bitwise identical to the unweighted path."""
    field_postings: dict[str, dict] = {}
    field_idfs: dict[str, dict] = {}
    for f in field_order:
        terms = routed["field_terms"].get(f) or []
        postings = {t: get_postings(f, t) for t in terms}
        live = {t: p for t, p in postings.items() if p is not None}
        if not live:
            continue
        w = (routed.get("field_weights") or {}).get(f) or routed.get("weights") or {}
        field_postings[f] = live
        field_idfs[f] = {
            t: float(scoring.idf(getattr(p, "gdf", p.df), stats[f].n_docs))
            * float(w.get(t, 1.0))
            for t, p in live.items()
        }
    return field_postings, field_idfs


def _wand_eligible(routed: dict, tombstones: np.ndarray) -> bool:
    """True when a routed multifield query is a PLAIN scored-term query
    WAND can serve: every non-scoring clause (phrase, filter, msm,
    +required, exclusion) masks the universe after scoring, which a
    top-k heap can't un-admit — those route to exact TAAT, same rule as
    the single-field ShardServer's tombstone path.  Negative boosts
    would flip the upper-bound inequality, so they fall back too."""
    return (
        not len(tombstones)
        and routed.get("dis_max") is None  # max+tie_breaker breaks the
        # additive upper bound WAND prunes with — exact TAAT only
        and not routed.get("cross_fields")  # blended df is not the
        # per-field cursor sum WAND bounds
        and not routed.get("filters")
        and not routed.get("any_phrases")
        and not routed.get("field_phrases")
        and not routed.get("excluded_phrases")
        and not routed.get("excluded")
        and not routed.get("required")
        and int(routed.get("minimum_should_match") or 0) <= 1
        and all(v >= 0 for v in (routed.get("weights") or {}).values())
        and all(
            v >= 0
            for fw in (routed.get("field_weights") or {}).values()
            for v in fw.values()
        )
    )


def with_mode(routed: dict, mode: str, tie_breaker: float = 0.0) -> dict:
    """Stamp the multi_match combine mode onto a routed clause set.

    ``most_fields`` (the default everywhere) leaves the routed dict
    untouched; ``best_fields`` marks it for dis_max combining and
    ``cross_fields`` for blended-statistics scoring
    (:func:`_match_fields` / :func:`_cross_fields_scores`) — the stamp
    travels INSIDE ``routed`` so doc-sharded servers and federation
    members need no new plumbing, and every consumer of the match set
    (aggregations) is unaffected because membership is
    combine-independent."""
    if mode == "most_fields":
        return routed
    if mode == "cross_fields":
        out = dict(routed)
        out["cross_fields"] = True
        return out
    if mode != "best_fields":
        raise ValueError(
            f"unknown multi_match mode {mode!r}; expected "
            "'most_fields', 'best_fields' or 'cross_fields'"
        )
    tb = float(tie_breaker)
    if not 0.0 <= tb <= 1.0:
        raise ValueError(f"tie_breaker must be in [0, 1], got {tb}")
    out = dict(routed)
    out["dis_max"] = tb
    return out


def _cross_fields_scores(
    routed: dict,
    get_postings,
    stats: dict[str, GlobalStats],
    field_order: list[str],
    tombstones: np.ndarray,
    dfs_of,
):
    """ES ``multi_match: cross_fields`` — the documented contract here:
    the analyzed fields are searched as ONE conceptual field.  Per
    term, df is BLENDED as the max per-field df (the Lucene
    BlendedTermQuery shape, so a term common in any field is cheap in
    all of them) and a doc scores the term at its BEST field
    (``blended_idf * max_f u_f`` — u keeps each field's own dl/avgdl);
    the doc total is the term-ordered sum of those contributions.
    Plain scored terms only (every other clause raises — ES itself
    changes semantics per clause type under cross_fields); requires
    equal per-field doc counts (true by construction for
    build_multifield mappings).  Per-doc, so doc-sharded slices merge
    exactly."""
    unsupported = [
        k for k in (
            "any_phrases", "field_phrases", "excluded_phrases",
            "excluded", "required", "expands",
        ) if routed.get(k)
    ]
    if routed.get("filters"):
        unsupported.append("filters")
    if int(routed.get("minimum_should_match") or 0) > 1:
        unsupported.append("minimum_should_match")
    if unsupported:
        raise ValueError(
            f"cross_fields supports plain scored terms only; got {unsupported}"
        )
    n_set = {stats[f].n_docs for f in field_order}
    if len(n_set) != 1:
        raise ValueError(
            "cross_fields blends df across fields and needs equal "
            f"per-field doc counts; got {sorted(n_set)}"
        )
    n = n_set.pop()
    terms = sorted({t for ts in routed["field_terms"].values() for t in ts})
    if any(set(routed["field_terms"][f]) != set(terms) for f in field_order):
        # a field:term scope would silently widen to every field under
        # blended statistics — refuse instead of reinterpreting
        raise ValueError(
            "cross_fields searches every field as one; field-scoped "
            "terms are unsupported (use most_fields/best_fields)"
        )
    w = routed.get("weights") or {}
    # blended df from the FIELD-GLOBAL _termdf/feddf summaries — NOT
    # from locally-present postings: a doc-range slice (or federation
    # member) may hold a term in only SOME fields, and blending over
    # the local subset would give that slice a different idf than the
    # monolith, breaking the exact-merge contract (caught by a
    # doc-sharded repro: title-only docs on one server, body-only on
    # the other)
    field_gdfs = {f: dfs_of(f, terms) for f in field_order}
    per_term = []
    for t in terms:
        df_blend = max(field_gdfs[f].get(t, 0) for f in field_order)
        if df_blend == 0:
            continue
        fps = [(f, get_postings(f, t)) for f in field_order]
        fps = [(f, p) for f, p in fps if p is not None]
        if not fps:
            continue  # the term exists globally but not in this slice
        idf_b = float(scoring.idf(df_blend, n)) * float(w.get(t, 1.0))
        decoded = []
        for f, p in fps:
            ids, tfs, dls = p.decode_all()
            decoded.append((ids, scoring.u_factor(tfs, dls, stats[f].avgdl)))
        uni = np.unique(np.concatenate([i for i, _ in decoded]))
        best = np.zeros(len(uni), dtype=np.float64)
        for ids, u in decoded:  # field order; max is order-insensitive
            aligned = np.zeros(len(uni), dtype=np.float64)
            aligned[np.searchsorted(uni, ids)] = u
            np.maximum(best, aligned, out=best)
        per_term.append((uni, idf_b * best))
    if not per_term:
        return None
    all_ids, total = wand.ordered_sum(  # sorted-term order: the float spec
        [u for u, _ in per_term], [contrib for _, contrib in per_term]
    )
    return all_ids, total, _live_mask(all_ids, tombstones)


def _combined_fields_scores(
    terms: list[str],
    weights: dict[str, float],
    get_postings,
    field_order: list[str],
    docstats_of,
    gdfs: dict[str, int],
    avgdl_c: float,
    n_docs: int,
    tombstones: np.ndarray,
):
    """ES ``combined_fields`` (Lucene CombinedFieldQuery — true BM25F,
    term-centric): the fields are merged into ONE synthetic field —
    per (term, doc), tf' = sum_f w_f * tf_f and dl' = sum_f w_f *
    dl_f(d) (field order fixed, so float summation is deterministic),
    scored as a single BM25 with idf from the CORPUS-GLOBAL combined
    df (docs holding the term in ANY field — ``gdfs``, computed by the
    exact disjoint-slice sum) against the combined avgdl'.  Unlike
    cross_fields (best field per term), every field occurrence
    contributes to one saturation curve.  Per-doc, so doc-sharded
    slices merge exactly."""
    per_term = []
    for t in terms:  # sorted: the float-summation spec
        df = int(gdfs.get(t, 0))
        if df <= 0:
            continue
        decs = []
        for f in field_order:
            p = get_postings(f, t)
            if p is None:
                continue
            ids, tfs, _ = p.decode_all()
            decs.append((f, ids, tfs))
        if not decs:
            continue  # global df > 0 but not in this slice
        uni, tfc = wand.ordered_sum(  # field order preserved
            [ids for _, ids, _ in decs], [weights[f] * tfs for f, _, tfs in decs]
        )
        dlc = np.zeros(len(uni), dtype=np.float64)
        for f in field_order:
            ds = docstats_of(f)
            dlc += weights[f] * ds.lens[np.searchsorted(ds.ids, uni)]
        contrib = float(scoring.idf(df, n_docs)) * scoring.u_factor(
            tfc, dlc, avgdl_c
        )
        per_term.append((uni, contrib))
    if not per_term:
        return None
    all_ids, total = wand.ordered_sum(
        [u for u, _ in per_term], [contrib for _, contrib in per_term]
    )
    return all_ids, total, _live_mask(all_ids, tombstones)


def apply_synonyms_routed(routed: dict, syn_map: dict) -> dict:
    """ES query-time synonym filter on a ROUTED multifield clause set
    (``expand=true``, scoring_boolean): each scored term of a field
    adds its synonym-group members to THAT field's term list (scoped
    sources produce scoped synonyms), at the MAX source weight across
    all fields — the weight is global per term, the same way ^boosts
    scale idf in every field.  A term the user typed anywhere is never
    re-derived: explicit terms keep their own weight AND their own
    field scoping.  Phrases / required / excluded / filters untouched;
    call AFTER :func:`expand_routed` (wildcard/fuzzy atoms resolve
    against field vocabularies, not the synonym table)."""
    if routed.get("expands"):
        raise ValueError(
            "apply_synonyms_routed after expand_routed(): unresolved atoms present"
        )
    orig_weights = dict(routed.get("weights") or {})
    orig_fw = routed.get("field_weights")  # set by expand_routed; scoring
    # prefers it per field, so derived synonyms MUST land there too
    explicit = {t for ts in routed["field_terms"].values() for t in ts}
    derived: dict[str, float] = {}
    memberships: dict[str, set] = {}
    new_field_terms: dict[str, list[str]] = {}
    for f, ts in routed["field_terms"].items():
        cur = set(ts)
        w_f = (orig_fw or {}).get(f) or {}
        for t in ts:
            # the source weight is the one scoring would use in THIS
            # field: the expanded per-field weight when present (base +
            # atom boosts), else the global parse weight
            w = float(w_f.get(t, orig_weights.get(t, 1.0)))
            for s in syn_map.get(t, ()):
                if s in explicit:
                    continue  # explicit wins: weight AND scoping
                cur.add(s)
                memberships.setdefault(s, set()).add(f)
                derived[s] = max(derived.get(s, 0.0), w)
        new_field_terms[f] = sorted(cur)
    out = dict(routed)
    out["field_terms"] = new_field_terms
    nw = dict(orig_weights)
    nw.update(derived)
    out["weights"] = nw
    if orig_fw is not None:
        new_fw = {f: dict(w) for f, w in orig_fw.items()}
        for s, fs in memberships.items():
            for f in fs:
                new_fw.setdefault(f, {})[s] = derived[s]
        out["field_weights"] = new_fw
    return out


def _score_fields(
    routed: dict,
    get_postings,
    stats: dict[str, GlobalStats],
    field_order: list[str],
    k: int,
    tombstones: np.ndarray,
    docmeta=None,
    algo: str = "taat",
    dfs_of=None,
    decoded: dict[str, dict] | None = None,
) -> list[tuple[int, float]]:
    """Top-k over :func:`_match_fields` (the original scoring entry
    point; aggregations reuse the match half directly).

    ``algo="wand"`` serves eligible plain-term queries with multi-field
    block-max WAND (:func:`cb.wand.topk_wand_fields`) — bitwise
    rank-identical to TAAT by construction and by test — and falls back
    to exact TAAT for every clause shape WAND can't bound.  Block
    bounds use ``stats``' per-field avgdl, so fed overlays are exact
    too."""
    if algo == "wand" and _wand_eligible(routed, tombstones):
        field_postings, field_idfs = _field_live_idfs(
            routed, get_postings, stats, field_order
        )
        if not field_postings:
            return []
        return wand.topk_wand_fields(field_postings, field_idfs, stats, field_order, k)
    if routed.get("cross_fields"):
        if dfs_of is None:
            raise ValueError(
                "cross_fields needs a field-global df lookup (dfs_of)"
            )
        m = _cross_fields_scores(
            routed, get_postings, stats, field_order, tombstones, dfs_of
        )
    else:
        m = _match_fields(
            routed, get_postings, stats, field_order, tombstones, docmeta=docmeta,
            decoded=decoded,
        )
    if m is None:
        return []
    all_ids, total, keep = m
    return rank_topk(all_ids[keep], total[keep], k)


def _mlt_field_terms(fields, stats, doc_fields, dfs_of, max_terms):
    """Per-field ES more_like_this term selection: the field text's
    top ``max_terms`` terms by (tf * BM25-idf) with df from THAT
    field's summaries, ties broken term-asc — the most_fields MLT
    the single-field engine's more_like_this specializes."""
    import collections

    field_terms = {}
    for f in fields:
        tf = collections.Counter(analyze.tokenize(doc_fields.get(f) or ""))
        dfs = dfs_of(f, sorted(tf))
        n = stats[f].n_docs
        scored = [
            (t, c * float(scoring.idf(dfs[t], n)))
            for t, c in tf.items() if t in dfs
        ]
        scored.sort(key=lambda kv: (-kv[1], kv[0]))
        field_terms[f] = sorted(t for t, _ in scored[:max_terms])
    return field_terms


def _terms_routed(field_terms: dict) -> dict:
    """A routed clause set scoring each term in ITS field only."""
    return {
        "field_terms": field_terms, "excluded": [], "any_phrases": [],
        "field_phrases": [], "filters": {}, "excluded_phrases": [],
        "weights": {}, "required": [], "expands": [],
        "minimum_should_match": 0,
    }


class MultiFieldSearcher:
    """One doc-range slice of EVERY field's partitions (``buckets``;
    None: every bucket, the whole index), loaded once: the one
    multi-field scope.  In process it is the searcher over the whole
    index (tests / tiny corpora); :class:`MultiFieldServer` is this
    class as a pool actor.  The cross-field sum needs all of a doc's
    field scores co-located, and doc-sharding every field by the SAME
    bucket assignment guarantees exactly that; the bucket-pruned layout
    means a slice reads only its bucket files of each field sub-index.

    ``fed=`` makes the scope a FEDERATION MEMBER (cb.federated,
    multifield mode): every field scores with the federation-global
    per-field (N, avgdl) and per-term df overlays read from that
    field's feddf summaries (:func:`cb.federated.fed_overlay`), so
    member top-k lists merge bitwise into the monolithic multifield
    result.  WAND's block bounds use the same overlay avgdl, so
    ``algo="wand"`` stays exact on members.

    A request's query is a query string, routed and wildcard/fuzzy
    expanded here against this index's vocabularies, or a clause set
    :class:`MultiFieldEngine` already routed.  ``facet_counts`` ...
    ``function_score`` are :meth:`agg` over this one scope: over the
    whole index, the reference the pool engines match."""

    def __init__(
        self, index_dir: str, buckets: list[int] | None = None, fed: str | None = None
    ):
        m = load_multifield_meta(index_dir)
        self.index_dir = index_dir
        self.buckets = buckets
        self.fields: list[str] = m["fields"]
        self.metas = {f: IndexMeta(field_dir(index_dir, f)) for f in self.fields}
        self.parts = {
            f: {
                p: ShardPartition(meta.part_dir(p), buckets=buckets)
                for p in range(meta.num_parts)
            }
            for f, meta in self.metas.items()
        }
        if fed is not None:
            from .federated import fed_overlay

            self.stats = {
                f: GlobalStats(*fed_overlay(fed, self.parts[f], field=f)) for f in self.fields
            }
        else:
            self.stats = {
                f: GlobalStats(meta.n_docs, meta.avgdl) for f, meta in self.metas.items()
            }
        self.tombstones = load_tombstones(index_dir)
        self._docmeta = None  # lazy, see _dm
        self._fds: dict = {}  # field -> lazy DocStats, see _field_docstats
        self._vocabs: dict[str, list[str]] | None = None  # lazy (wildcard/fuzzy)
        # per field, term -> (ids, u): the decoded cache of
        # ``wand.taat_scores``, so repeats decode nothing
        self.decoded: dict[str, dict] = {f: {} for f in self.fields}
        self.telemetry = Telemetry()

    def metrics(self) -> dict:
        return self.telemetry.snapshot()

    def warm(self, min_df: int = 0) -> int:
        """Pre-decode every field's terms with df >= min_df into that
        field's decoded cache, so a term's first query decodes nothing:
        the single-field scope's columnar pass
        (:func:`cb.shard.warm_partition`) per field partition, with the
        field's own (possibly federation-overlaid) avgdl.  Returns the
        number of (field, term) pairs warmed by this call."""
        with self.telemetry.timer("server.warm"):
            n = sum(
                len(warm_partition(part, self.decoded[f], self.stats[f].avgdl, min_df))
                for f in self.fields
                for part in self.parts[f].values()
            )
        self.telemetry.incr("server.terms_warmed", n)
        return n

    def _get(self, field: str, term: str):
        meta = self.metas[field]
        return self.parts[field][term_partition(term, meta.num_parts)].get(term)

    def _dm(self):
        """This scope's docmeta table (it shards WITH the postings: only
        this scope's doc-range buckets), loaded on first use; None while
        it is not built (the filter executor raises the descriptive
        error).  It lives under the FIRST field's sub-index
        (build_from_mapping convention — every field shares the same
        doc-range buckets)."""
        if self._docmeta is None:
            from . import docmeta as docmeta_mod

            try:
                self._docmeta = docmeta_mod.DocMeta(
                    field_dir(self.index_dir, self.fields[0]), buckets=self.buckets
                )
            except FileNotFoundError:
                pass
        return self._docmeta

    def _routed(self, query: str | dict) -> dict:
        """A routed clause set as is; a query string routed, with its
        wildcard/fuzzy atoms expanded against this index's per-field
        vocabularies."""
        if not isinstance(query, str):
            return query
        routed = route_query(query, self.fields)
        if routed.get("expands"):
            if self._vocabs is None:
                from .shard import load_vocab

                self._vocabs = {f: load_vocab(m) for f, m in self.metas.items()}
            routed = expand_routed(routed, self._vocabs)
        return routed

    def search(
        self, query: str, k: int = 10, algo: str = "taat",
        synonyms: dict | None = None, mode: str = "most_fields",
        tie_breaker: float = 0.0,
    ) -> list[tuple[int, float]]:
        routed = self._routed(query)
        if synonyms:
            routed = apply_synonyms_routed(routed, synonyms)
        return self.score(with_mode(routed, mode, tie_breaker), k, algo)

    def score(self, routed: dict, k: int, algo: str = "taat") -> list[tuple[int, float]]:
        """Top-k of a routed clause set over this scope.  The default,
        vectorized exact TAAT, wins wall-clock for in-memory postings
        (measured, BENCH/BASELINE.md round-5); ``algo="wand"`` is the
        opt-in selective/disk path, rank-identical by construction and
        test."""
        check_algo(algo)
        self.telemetry.incr("server.scores")
        self.telemetry.incr(
            "server.terms",
            sum(len(ts) for ts in routed.get("field_terms", {}).values()),
        )
        with self.telemetry.timer("server.score"):
            dm = self._dm() if routed.get("filters") else None
            return _score_fields(
                routed, self._get, self.stats, self.fields, k, self.tombstones,
                docmeta=dm, algo=algo, dfs_of=self.term_dfs, decoded=self.decoded,
            )

    def agg(self, query: str | dict, name: str, spec):
        """This scope's partial of registry aggregation ``name``
        (:mod:`cb.aggs`) over the query's full match set — over the
        whole index, the result itself.  The most_fields sum is
        slice-independent (fixed field order), so scored entries merge
        exactly too."""
        entry = AGGS[name]
        routed = self._routed(query)
        dm = self._dm()
        if dm is None:
            raise ValueError(f"{name} needs a docmeta table (cb.docmeta)")
        m = _match_fields(
            routed, self._get, self.stats, self.fields, self.tombstones, docmeta=dm,
            decoded=self.decoded,
        )
        if m is None:
            return entry.empty(spec)
        all_ids, total, keep = m
        return entry.partial(all_ids[keep], total[keep], dm, spec)

    def facet_counts(self, query: str, facet_cols=(), stats_cols=()):
        return self.agg(query, "facets", (list(facet_cols), list(stats_cols)))

    def histogram(self, query: str, histos: dict) -> dict:
        return self.agg(query, "histogram", histos)

    def range_counts(self, query: str, ranges: dict) -> dict:
        return self.agg(query, "range", ranges)

    def composite_counts(self, query: str, cols: list[str]) -> dict:
        return self.agg(query, "composite", list(cols))

    def top_hits(self, query: str, group_col: str, k_per: int) -> dict:
        return self.agg(query, "top_hits", (group_col, k_per))

    def function_score(self, query: str, spec: dict, k: int = 10):
        return self.agg(query, "function_score", (spec, k))

    def term_dfs(self, field: str, terms: list[str]) -> dict[str, int]:
        """Corpus-global df per term for one field from its partition
        ``_termdf`` summaries (fed mode: the feddf overlay, so this is
        federation-global) — no postings decode.  Every doc-range slice
        holds every partition's summary."""
        parts, num_parts = self.parts[field], self.metas[field].num_parts
        out = {}
        for t in sorted(set(terms)):
            df = parts[term_partition(t, num_parts)].global_df.get(t)
            if df:
                out[t] = int(df)
        return out

    def more_like_this(
        self,
        doc_fields: dict[str, str],
        k: int = 10,
        max_terms: int = 15,
        exclude: int | None = None,
    ) -> list[tuple[int, float]]:
        """ES most_fields more_like_this: per-field top tf*idf term
        selection over the input doc's field values, then one
        field-scoped most_fields query, source doc dropped.  On a
        federation member, term selection uses the fed-overlaid df and
        (N, avgdl), so every member selects the SAME terms."""
        field_terms = _mlt_field_terms(
            self.fields, self.stats, doc_fields, self.term_dfs, max_terms
        )
        res = self.score(_terms_routed(field_terms), k + (1 if exclude is not None else 0))
        if exclude is not None:
            res = [r for r in res if r[0] != exclude][:k]
        return res

    def search_after(self, query: str, k: int = 10, after=None):
        return _page_after(self.search, query, k, after)

    def significant_counts(
        self, query: str | dict, field: str, min_df: int = 2
    ) -> tuple[dict, int]:
        """Foreground counts for significant_terms over THIS scope: for
        every owned term of ``field`` with corpus df >= min_df,
        |postings ∩ match set| via one clipped searchsorted per term,
        and the match-set size.  Slices are disjoint, so the driver
        merge is exact addition."""
        routed = self._routed(query)
        dm = self._dm() if routed.get("filters") else None
        m = _match_fields(
            routed, self._get, self.stats, self.fields, self.tombstones, docmeta=dm,
            decoded=self.decoded,
        )
        if m is None:
            return {}, 0
        all_ids, _, keep = m
        matched = np.sort(all_ids[keep])
        if len(matched) == 0:
            return {}, 0
        counts: dict[str, int] = {}
        for part in self.parts[field].values():
            for term in part.offsets:
                if part.global_df.get(term, 0) < min_df:
                    continue
                tids = part.get(term).decode_all()[0]
                pos = np.clip(np.searchsorted(matched, tids), 0, len(matched) - 1)
                c = int(np.sum(matched[pos] == tids))
                if c:
                    counts[term] = c
        return counts, int(len(matched))

    def significant_terms(
        self, query: str, field: str, top_n: int = 10, min_df: int = 2
    ) -> list[tuple[str, int, int, float]]:
        """ES significant_terms of ``field`` over the multifield
        query's full match set, JLH-scored against that field's corpus
        stats."""
        fg, m = self.significant_counts(query, field, min_df)
        dfs = self.term_dfs(field, sorted(fg))
        return _jlh_rank(fg, m, dfs, self.stats[field].n_docs, top_n)

    def _field_docstats(self, field: str):
        """Per-field doc_id -> doc_len lookup for THIS scope's buckets
        (the combined-fields dl' gather), loaded once per scope."""
        from .shard import DocStats

        if field not in self._fds:
            self._fds[field] = DocStats.load(
                field_dir(self.index_dir, field), buckets=self.buckets
            )
        return self._fds[field]

    def combined_dfs(self, terms: list[str]) -> dict[str, int]:
        """Combined df over THIS disjoint doc slice: docs holding the
        term in ANY field — slices sum exactly at the driver to the
        corpus-global combined df (build-time membership, the same
        tombstone convention as the _termdf summaries)."""
        out: dict[str, int] = {}
        for t in terms:
            idsets = [
                p.decode_all()[0]
                for p in (self._get(f, t) for f in self.fields)
                if p is not None
            ]
            if idsets:
                out[t] = int(len(np.unique(np.concatenate(idsets))))
        return out

    def combined_score(
        self, terms: list[str], weights: dict[str, float],
        gdfs: dict[str, int], avgdl_c: float, k: int,
    ) -> list[tuple[int, float]]:
        """combined_fields top-k over THIS slice (see
        :func:`_combined_fields_scores`); the driver re-cuts disjoint
        local top-ks exactly."""
        m = _combined_fields_scores(
            terms, weights, self._get, self.fields, self._field_docstats,
            gdfs, avgdl_c, self.stats[self.fields[0]].n_docs,
            self.tombstones,
        )
        if m is None:
            return []
        all_ids, total, keep = m
        return rank_topk(all_ids[keep], total[keep], k)


@ray.remote
class MultiFieldServer(MultiFieldSearcher, rpc.Server):
    """A :class:`MultiFieldSearcher` as a serving-pool actor
    (``ray::MultiFieldServer``)."""


class MultiFieldEngine(PoolEngine):
    """Driver facade: doc-sharded scatter-gather over MultiFieldServer
    actors, merged by (score, doc_id) — per-query work ~1/S per server,
    same topology maths and the same :class:`cb.shard.ServerPool` as
    the single-field QueryEngine.  The aggregation methods are
    QueryEngine's over the multifield match set."""

    def __init__(self, index_dir: str, num_servers: int = 2):
        m = load_multifield_meta(index_dir)
        self.fields = m["fields"]
        range_bits = IndexMeta(field_dir(index_dir, self.fields[0])).range_bits
        self.num_servers = num_servers
        self._index_dir = index_dir
        self._vocabs: dict[str, list[str]] | None = None  # lazy (wildcard/fuzzy)
        self.pool = ServerPool(
            MultiFieldServer,
            [(index_dir, b) for b in doc_slices(index_dir, range_bits, num_servers)],
        )

    def warm(self, min_df: int = 0) -> int:
        """Pre-decode hot postings on every server (blocks until done)."""
        return sum(self.pool.gather("warm", min_df))

    def search(
        self, query: str, k: int = 10, algo: str = "taat",
        synonyms: dict | None = None, mode: str = "most_fields",
        tie_breaker: float = 0.0,
    ) -> list[tuple[int, float]]:
        check_algo(algo)
        t0 = time.perf_counter()
        routed = self._routed(query)  # route + expand ONCE per query
        if synonyms:
            routed = apply_synonyms_routed(routed, synonyms)
        routed = with_mode(routed, mode, tie_breaker)
        return _timed_topk(self.pool.telemetry, t0, self.pool.fanout("score", routed, k, algo), k)

    def combined_fields(
        self, query: str, k: int = 10,
        field_weights: dict[str, float] | None = None,
    ) -> list[tuple[int, float]]:
        """ES ``combined_fields`` query (true BM25F): plain analyzed
        terms scored against ONE synthetic merged field — tf' / dl'
        are per-field-weighted sums, idf comes from the combined df
        (docs holding the term in ANY field), avgdl' from the exact
        per-field total_tokens.  Two scatter-gather phases: (1) each
        disjoint slice reports its combined dfs, summed here to the
        corpus-global values; (2) servers score with those globals and
        the driver re-cuts local top-ks exactly.  Field weights must
        be >= 1 (the ES constraint); defaults to 1.0 everywhere."""
        terms = sorted(set(analyze.tokenize(query)))
        if not terms:
            return []
        w = {f: 1.0 for f in self.fields}
        for f, v in (field_weights or {}).items():
            if f not in w:
                raise ValueError(f"unknown field {f!r}")
            if v < 1.0:
                raise ValueError("combined_fields weights must be >= 1")
            w[f] = float(v)
        parts = self.pool.gather("combined_dfs", terms)
        gdfs: dict[str, int] = {}
        for part in parts:
            for t, c in part.items():
                gdfs[t] = gdfs.get(t, 0) + c
        if not gdfs:
            return []
        metas = {f: IndexMeta(field_dir(self._index_dir, f)) for f in self.fields}
        n = metas[self.fields[0]].n_docs
        num = 0.0
        for f in self.fields:  # field order: the float spec
            num += w[f] * metas[f].total_tokens
        avgdl_c = num / n
        scored = self.pool.gather("combined_score", terms, w, gdfs, avgdl_c, k)
        return _merge_topk(scored, k)

    def _routed(self, query: str) -> dict:
        # driver-side rewrite (vocab summaries, not postings), so every
        # server evaluates the same concrete routed clause set
        routed = route_query(query, self.fields)
        if routed.get("expands"):
            from .shard import load_vocab

            if self._vocabs is None:
                self._vocabs = {
                    f: load_vocab(IndexMeta(field_dir(self._index_dir, f)))
                    for f in self.fields
                }
            routed = expand_routed(routed, self._vocabs)
        return routed

    def _agg_parts(self, query: str, name: str, spec) -> list:
        """The aggregation route: route once, then every server's
        partial over its doc-range slice."""
        routed = self._routed(query)
        return self.pool.gather("agg", routed, name, spec)

    def facets(self, query: str, facet_cols=(), stats_cols=()):
        return self._agg(query, "facets", (list(facet_cols), list(stats_cols)))

    def histogram(self, query: str, histos: dict) -> dict:
        return self._agg(query, "histogram", histos)

    def range_agg(self, query: str, ranges: dict) -> dict:
        return self._agg(query, "range", ranges)

    def composite(
        self, query: str, cols: list[str], size: int, after: tuple | None = None
    ) -> tuple[list[tuple[tuple, int]], tuple | None]:
        return _page_composite(self._agg(query, "composite", list(cols)), size, after)

    def function_score(self, query: str, spec: dict, k: int = 10):
        return self._agg(query, "function_score", (spec, k))

    def top_hits(self, query: str, group_col: str, k_per: int) -> dict:
        return self._agg(query, "top_hits", (group_col, k_per))

    def collapse(
        self, query: str, group_col: str, k: int
    ) -> list[tuple[int, float, object]]:
        return _collapse_from_top_hits(self.top_hits(query, group_col, 1), k)

    def term_dfs(self, field: str, terms: list[str]) -> dict[str, int]:
        """One RPC: every doc-sharded server holds every partition's
        summary (same shape as the single-field doc-mode term_dfs)."""
        terms = sorted(set(terms))
        if not terms:
            return {}
        return rpc.get(self.pool.conns[0].call("term_dfs", field, terms))

    def more_like_this(
        self,
        doc_fields: dict[str, str],
        k: int = 10,
        max_terms: int = 15,
        exclude: int | None = None,
    ) -> list[tuple[int, float]]:
        """ES most_fields more_like_this over the pool: term selection
        driver-side from the summaries (so every server scores the same
        clause set), field-scoped scoring fan-out, exact merge."""
        field_terms = _mlt_field_terms(
            self.fields, self._field_stats(), doc_fields, self.term_dfs,
            max_terms,
        )
        kk = k + (1 if exclude is not None else 0)
        res = _merge_topk(self.pool.gather("score", _terms_routed(field_terms), kk), kk)
        if exclude is not None:
            res = [r for r in res if r[0] != exclude][:k]
        return res

    def _field_stats(self) -> dict[str, GlobalStats]:
        if not hasattr(self, "_stats_cache"):
            self._stats_cache = {
                f: (lambda m: GlobalStats(m.n_docs, m.avgdl))(
                    IndexMeta(field_dir(self._index_dir, f))
                )
                for f in self.fields
            }
        return self._stats_cache

    def search_after(self, query: str, k: int = 10, after=None):
        return _page_after(self.search, query, k, after)

    def significant_terms(
        self, query: str, field: str, top_n: int = 10, min_df: int = 2
    ) -> list[tuple[str, int, int, float]]:
        """ES significant_terms of ``field`` over the multifield match
        set: per-slice fg counts add, match totals add, JLH at the
        driver with corpus-global df."""
        routed = self._routed(query)
        parts = self.pool.gather("significant_counts", routed, field, min_df)
        fg, m = _merge_sig(parts)
        dfs = self.term_dfs(field, sorted(fg))
        n = self._field_stats()[field].n_docs
        return _jlh_rank(fg, m, dfs, n, top_n)
