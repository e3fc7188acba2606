"""Lucene-lite query strings: the user-facing query surface.

Reference users query their data through Elasticsearch/Kibana query
strings (README.md: "use Kibana on top of your Elasticsearch");
this module gives the engine the load-bearing subset so a pipeline
owner can switch without rewriting queries:

    error timeout            free terms (scored, OR-matched)
    "hash join"              exact phrase (required, positional match)
    lang:en source:src3      not_analyzed field filter (ES filter ctx)
    source:"app one"         quoted filter value (spaces allowed) — or,
                             on a multi-field index, a phrase scoped to
                             one analyzed field (title:"hash join")
    -deprecated              exclusion (docs containing it are dropped)
    -"legacy api"            negated phrase (bool.must_not match_phrase)
    +timeout                 required term (bool.must; still scored)
    timeout^2.5              boosted term ("a b"^2 boosts a phrase)
    merg* h?sh               wildcards, expanded against the vocabulary
    mrege~1 timeout~         fuzzy (Damerau-Levenshtein <= n; ~ means 2)
    n_chars:[100 TO 300]     range filter ({..} exclusive, mixed ok)
    n_chars:>=200            one-sided range filter

Semantics (ES-aligned):
- free terms contribute BM25 score; a doc matches if it contains ANY
  scored term (phrase terms count) — ES default OR behavior;
- every quoted phrase is REQUIRED (match_phrase in a bool.must);
  phrase terms also contribute to the BM25 score;
- ``field:value`` terms go to the docmeta filter context — they change
  membership, never scores; range filters compare numerically when the
  docmeta column is numeric, lexicographically on strings;
- ``-term`` drops every doc containing the term (bool.must_not);
- ``+term`` additionally REQUIRES the term (and scores it);
- there is no boolean grammar: a bare ``AND``/``OR``/``NOT``/``&&``/``||``
  or a parenthesis outside a phrase or bracket range raises ValueError;
- each scored atom carries a boost (default 1); a term's scoring
  weight is the SUM of the boosts of the atoms that match it, in atom
  order (``merge mer*^2`` weights ``merge`` at 3) — Lucene scores each
  clause separately, which is exactly this additive model;
- wildcard / fuzzy atoms are rewritten against the index vocabulary
  (``rewrite=scoring_boolean``: every matched term becomes a scored
  term at the atom's boost).  Fuzzy distance is FULL Damerau-Levenshtein
  (transpositions, matching DuckDB's ``damerau_levenshtein`` so the SQL
  oracle can verify expansion natively).

Execution is pure composition of existing primitives (taat scores,
positional phrase match, docmeta mask, posting membership), so it runs
wherever they run — in-process and on every doc-sharded server (each
server evaluates its disjoint slice; the driver merge stays exact).
Expansion runs ONCE, driver-side, against the vocabulary union of the
partitions' ``_termdf.parquet`` summaries — servers receive concrete
terms and never touch the vocabulary.
"""

from __future__ import annotations

import re

import numpy as np

from . import analyze

# Quoted branches must match BEFORE the bare \S+ branch, which would
# otherwise capture -"foo from -"foo bar" (and field:"foo from
# field:"foo bar") and silently misparse.  Branch order: negated scoped
# phrase (rejected with a descriptive error), bracket range (its value
# contains a space, so \S+ would shred it), scoped phrase / quoted
# filter value, negated phrase, phrase (with optional boost), bare word.
_TOKEN_RE = re.compile(
    r'-([A-Za-z_][A-Za-z0-9_]*):"([^"]*)"'
    r"|([A-Za-z_][A-Za-z0-9_]*):([\[{][^\]}]*[\]}])"
    r'|([A-Za-z_][A-Za-z0-9_]*):"([^"]*)"'
    r'|-"([^"]*)"|"([^"]*)"(\^[0-9]+(?:\.[0-9]+)?)?|(\S+)'
)
# a word is a field filter only when it LOOKS like one: identifier
# field, simple value (no further ':' or '/') — so URLs and times in
# free text ("http://x", "at 3:30pm") stay ordinary scored terms
_FILTER_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):([^:/]+)$")
_BOOST_RE = re.compile(r"^(.*?)\^([0-9]+(?:\.[0-9]+)?)$")
_FUZZY_RE = re.compile(r"^(.*?)~([0-2]?)$")
_RANGE_RE = re.compile(r"^([\[{])\s*(\S+)\s+TO\s+(\S+)\s*([\]}])$", re.IGNORECASE)
_CMP_RE = re.compile(r"^(>=|<=|>|<)(.+)$")
_WILD_CHARS = re.compile(r"[*?]")
_BOOL_OPS = frozenset(("AND", "OR", "NOT", "&&", "||"))
_WILD_VALID = re.compile(r"^[a-z0-9*?]+$")


class Range:
    """Half-open/closed range filter value for the docmeta filter
    context: ``lo``/``hi`` are raw strings (None = unbounded)."""

    __slots__ = ("lo", "hi", "lo_incl", "hi_incl")

    def __init__(self, lo, hi, lo_incl=True, hi_incl=True):
        self.lo, self.hi = lo, hi
        self.lo_incl, self.hi_incl = lo_incl, hi_incl

    def __eq__(self, other):
        return isinstance(other, Range) and (
            (self.lo, self.hi, self.lo_incl, self.hi_incl)
            == (other.lo, other.hi, other.lo_incl, other.hi_incl)
        )

    def __hash__(self):
        return hash((self.lo, self.hi, self.lo_incl, self.hi_incl))

    def __repr__(self):
        # value-stable (no object id): the server-side request cache
        # keys on repr(parsed), so range filters must repr by value
        lb = "[" if self.lo_incl else "{"
        rb = "]" if self.hi_incl else "}"
        return f"Range({lb}{self.lo} TO {self.hi}{rb})"


def damerau_levenshtein(a: str, b: str) -> int:
    """FULL Damerau-Levenshtein distance (unrestricted transpositions)
    — the variant DuckDB's ``damerau_levenshtein`` implements (verified:
    dl('ca','abc') == 2, where the restricted/OSA variant gives 3).  The
    SQL oracle leans on this equality to verify fuzzy expansion without
    sharing code with the engine."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return la or lb
    maxd = la + lb
    # d is (la+2) x (lb+2) with a sentinel row/col of maxd
    d = np.empty((la + 2, lb + 2), dtype=np.int64)
    d[0, :] = maxd
    d[:, 0] = maxd
    d[1, 1:] = np.arange(lb + 1)
    d[1:, 1] = np.arange(la + 1)
    last_row: dict[str, int] = {}
    for i in range(1, la + 1):
        ca = a[i - 1]
        last_col = 0
        for j in range(1, lb + 1):
            cb = b[j - 1]
            i_ = last_row.get(cb, 0)
            j_ = last_col
            if ca == cb:
                cost = 0
                last_col = j
            else:
                cost = 1
            d[i + 1, j + 1] = min(
                d[i, j] + cost,  # substitute / match
                d[i + 1, j] + 1,  # insert
                d[i, j + 1] + 1,  # delete
                d[i_, j_] + (i - i_ - 1) + 1 + (j - j_ - 1),  # transpose
            )
        last_row[ca] = i
    return int(d[la + 1, lb + 1])


def wildcard_regex(pattern: str) -> str:
    """Lucene wildcard -> regex over analyzed terms ([a-z0-9]+): ``*``
    matches any run, ``?`` exactly one character.  The same translation
    feeds Python ``re`` and DuckDB ``regexp_full_match`` (both RE2-safe
    constructs)."""
    out = []
    for ch in pattern:
        if ch == "*":
            out.append(".*")
        elif ch == "?":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return "".join(out)


def _parse_range(raw: str) -> Range | None:
    """``[a TO b]`` / ``{a TO b}`` (mixed brackets ok) or ``>=x`` style;
    None if the value is not range syntax."""
    m = _RANGE_RE.match(raw)
    if m:
        lb, lo, hi, rb = m.groups()
        return Range(
            None if lo == "*" else lo,
            None if hi == "*" else hi,
            lo_incl=(lb == "["),
            hi_incl=(rb == "]"),
        )
    m = _CMP_RE.match(raw)
    if m:
        op, v = m.groups()
        if op == ">=":
            return Range(v, None, lo_incl=True)
        if op == ">":
            return Range(v, None, lo_incl=False)
        if op == "<=":
            return Range(None, v, hi_incl=True)
        return Range(None, v, hi_incl=False)
    return None


def parse(q: str) -> dict:
    """Query string -> {terms, phrases, filters, excluded,
    excluded_phrases, scoped_phrases, weights, required, expands,
    phrase_boosts}.

    ``scoped_phrases`` is the RAW ``field:"..."`` list — whether a
    scoped clause is a phrase on an analyzed field or an exact filter
    value on a not_analyzed column is the executor's call (the parser
    does not know the index's field layout).

    ``weights`` maps each concrete scored term to the summed boost of
    the atoms that produced it (plain terms, required terms, phrase
    terms).  ``expands`` holds unresolved wildcard/fuzzy atoms — resolve
    them with :func:`expand` before :func:`execute`."""
    terms: list[str] = []
    phrases: list[list[str]] = []
    phrase_boosts: list[float] = []
    filters: dict[str, object] = {}
    excluded: list[str] = []
    excluded_phrases: list[list[str]] = []
    scoped_phrases: list[tuple[str, str]] = []
    # every field:value clause in QUERY ORDER — the filters dict above
    # is keyed by field, so a repeated field (``title:hash title:join``,
    # normal ES syntax on an analyzed field) would silently keep only
    # the last value; executors that score scoped terms must read THIS
    # list.  (A ^boost on a scoped clause is consumed by the boost
    # regex before scope routing and is intentionally ignored, matching
    # the SQL oracles.)
    scoped_terms: list[tuple[str, object]] = []
    weights: dict[str, float] = {}
    required: list[str] = []
    expands: list[dict] = []
    msm = 0  # minimum_should_match (0/1 = any scored term, the default)

    def add_weight(t: str, w: float) -> None:
        weights[t] = weights.get(t, 0.0) + w

    for m in _TOKEN_RE.finditer(q):
        (
            neg_field, neg_val, rng_field, rng_val, sc_field, sc_val,
            neg_phrase, phrase, ph_boost, word,
        ) = m.groups()
        if neg_field is not None:
            raise ValueError(
                f'negated scoped clauses (-{neg_field}:"{neg_val}") are not '
                "supported; negate an unscoped phrase or term instead"
            )
        if rng_field is not None:
            r = _parse_range(rng_val)
            if r is None:
                raise ValueError(f"bad range syntax {rng_field}:{rng_val}")
            filters[rng_field] = r
            scoped_terms.append((rng_field, r))
            continue
        if sc_field is not None:
            scoped_phrases.append((sc_field, sc_val))
            continue
        if neg_phrase is not None:
            toks = analyze.tokenize(neg_phrase)
            if toks:
                excluded_phrases.append(toks)
            continue
        if phrase is not None:
            toks = analyze.tokenize(phrase)
            if toks:
                w = float(ph_boost[1:]) if ph_boost else 1.0
                phrases.append(toks)
                phrase_boosts.append(w)
                for t in sorted(set(toks)):
                    add_weight(t, w)
            continue
        if word in _BOOL_OPS or "(" in word or ")" in word:
            # no boolean grammar: reject rather than score the operands
            # as free terms (a different query than the one written)
            what = f"operator {word!r}" if word in _BOOL_OPS else f"parentheses in {word!r}"
            raise ValueError(f"unsupported boolean query syntax: {what}")
        if word.startswith("-") and len(word) > 1:
            excluded.extend(analyze.tokenize(word[1:]))
            continue
        w = 1.0
        bm = _BOOST_RE.match(word)
        if bm and bm.group(1):
            word, w = bm.group(1), float(bm.group(2))
        must = word.startswith("+") and len(word) > 1
        if must:
            word = word[1:]
        fm = _FILTER_RE.match(word)
        if fm and not must:
            col, raw = fm.group(1), fm.group(2)
            if col == "msm":
                # minimum_should_match control token (ES exposes this
                # as a query-body knob; `msm:2` is the string form)
                try:
                    msm = int(raw)
                except ValueError:
                    raise ValueError(f"msm wants an integer, got {raw!r}")
                continue
            r = _parse_range(raw)
            filters[col] = r if r is not None else raw
            scoped_terms.append((col, r if r is not None else raw))
            continue
        fz = _FUZZY_RE.match(word)
        if fz and word.endswith(("~", "~0", "~1", "~2")):
            base = analyze.tokenize(fz.group(1))
            if len(base) == 1:
                dist = int(fz.group(2)) if fz.group(2) else 2
                expands.append(
                    {"kind": "fuzzy", "term": base[0], "dist": dist, "boost": w}
                )
                continue
            # multi-token or empty base: fall through as plain text
            word = fz.group(1)
        if _WILD_CHARS.search(word):
            pat = word.lower()
            if _WILD_VALID.match(pat):
                expands.append({"kind": "wildcard", "pattern": pat, "boost": w})
                continue
            # pattern with chars the analyzer would drop: tokenize instead
        toks = analyze.tokenize(word)
        for t in toks:
            add_weight(t, w)
        terms.extend(toks)
        if must:
            required.extend(toks)
    return {
        "terms": sorted(set(terms)),
        "phrases": phrases,
        "phrase_boosts": phrase_boosts,
        "filters": filters,
        "excluded": sorted(set(excluded)),
        "excluded_phrases": excluded_phrases,
        "scoped_phrases": scoped_phrases,
        "scoped_terms": scoped_terms,
        "weights": weights,
        "required": sorted(set(required)),
        "expands": expands,
        "minimum_should_match": msm,
    }


def apply_synonyms(parsed: dict, syn_map: dict) -> dict:
    """ES query-time synonym filter (``expand=true``, rewrite
    ``scoring_boolean``) on the SCORED terms: each scored term whose
    entry exists in ``syn_map`` (analyzed-form keys/values) adds its
    synonyms to ``weights``.  A synonym reachable from several query
    terms takes the MAX source weight; a term the user typed explicitly
    keeps its own weight (explicit beats derived).  Phrases, required,
    excluded, and filter clauses are untouched (analysis-chain synonym
    graphs inside phrases are out of scope); minimum_should_match
    counts the EXPANDED distinct-term set, and the SQL mirror applies
    the same rules.  Call AFTER :func:`expand` (wildcard/fuzzy atoms
    resolve against the vocabulary, not the synonym table)."""
    if parsed.get("expands"):
        raise ValueError("apply_synonyms after expand(): unresolved atoms present")
    weights = parsed.get("weights")
    if weights is None:  # v1 dict: scored set = terms + phrase terms
        weights = {
            t: 1.0
            for t in set(parsed["terms"]) | {t for p in parsed["phrases"] for t in p}
        }
    derived: dict[str, float] = {}
    for t in sorted(weights):
        for s in syn_map.get(t, ()):
            if s in weights:
                continue
            derived[s] = max(derived.get(s, 0.0), weights[t])
    out = dict(parsed)
    nw = dict(weights)
    nw.update(derived)
    out["weights"] = nw
    return out


def expand(parsed: dict, vocab) -> dict:
    """Resolve wildcard/fuzzy atoms against ``vocab`` (an iterable of
    index terms): every matched term joins ``weights`` at the atom's
    boost (``rewrite=scoring_boolean``).  Returns a NEW parsed dict with
    ``expands`` emptied — safe to ship to doc-sharded servers.

    Atoms resolve in atom order and weights accumulate additively, the
    same order the SQL oracle's ordered sum uses.  Fuzzy candidates are
    length-pruned (|len(t)-len(term)| <= dist) before the O(n*m) DP."""
    if not parsed.get("expands"):
        return parsed
    out = dict(parsed)
    weights = dict(parsed.get("weights") or {})
    vocab = list(vocab)
    for atom in parsed["expands"]:
        if atom["kind"] == "wildcard":
            rx = re.compile(wildcard_regex(atom["pattern"]))
            hits = [t for t in vocab if rx.fullmatch(t)]
        else:
            base, dist = atom["term"], atom["dist"]
            lo, hi = len(base) - dist, len(base) + dist
            hits = [
                t
                for t in vocab
                if lo <= len(t) <= hi and damerau_levenshtein(base, t) <= dist
            ]
        for t in sorted(hits):
            weights[t] = weights.get(t, 0.0) + atom["boost"]
    out["weights"] = weights
    out["expands"] = []
    return out


def execute(
    parsed: dict,
    *,
    get_postings,
    stats,
    k: int,
    docmeta=None,
    decoded_cache: dict | None = None,
    drop_ids: np.ndarray | None = None,
) -> list[tuple[int, float]]:
    """Run a parsed query over one postings scope (the whole index for
    LocalSearcher; a doc-range slice on a doc-sharded server).

    ``get_postings(term) -> ChunkedPostings | None``; ``docmeta`` is a
    :class:`cb.docmeta.DocMeta` (required when filters are present).
    ``parsed`` must already be expanded (no wildcard/fuzzy atoms left)."""
    from .query import rank_topk

    universe, acc, keep = match(
        parsed,
        get_postings=get_postings,
        stats=stats,
        docmeta=docmeta,
        decoded_cache=decoded_cache,
        drop_ids=drop_ids,
    )
    if universe is None:
        return []
    return rank_topk(universe[keep], acc[keep], k)


def match(
    parsed: dict,
    *,
    get_postings,
    stats,
    docmeta=None,
    decoded_cache: dict | None = None,
    drop_ids: np.ndarray | None = None,
):
    """Evaluate every clause and return the FULL match set:
    ``(universe, scores, keep)`` where ``universe[keep]`` are the
    matching doc ids — :func:`execute` ranks it; facet aggregation
    counts over it.  ``(None, None, None)`` when nothing can match."""
    from . import phrase as phrase_mod, scoring, wand

    if parsed.get("expands"):
        raise ValueError(
            "query has unresolved wildcard/fuzzy atoms; call "
            "querylang.expand(parsed, vocab) first"
        )
    weights = parsed.get("weights")
    if weights is None:  # hand-built v1 dict: uniform weight 1
        weights = {
            t: 1.0
            for t in set(parsed["terms"]) | {t for p in parsed["phrases"] for t in p}
        }
    score_terms = sorted(weights)
    if not score_terms:
        return None, None, None
    postings = {t: get_postings(t) for t in score_terms}
    live = {t: p for t, p in postings.items() if p is not None}
    if not live:
        return None, None, None
    # weight multiplies idf ONCE per term (scalar double), the same
    # association the SQL oracle uses: ((idf * w) * u); w == 1.0 is
    # bitwise identity, so unboosted queries score exactly as before
    idfs = {
        t: float(scoring.idf(getattr(p, "gdf", p.df), stats.n_docs)) * weights[t]
        for t, p in live.items()
    }
    universe, acc = wand.taat_scores(live, idfs, stats, decoded_cache=decoded_cache)
    if universe is None:
        return None, None, None
    keep = np.ones(len(universe), dtype=bool)
    if drop_ids is not None and len(drop_ids):
        # tombstoned documents (sorted id array)
        pos = np.clip(np.searchsorted(drop_ids, universe), 0, len(drop_ids) - 1)
        keep &= drop_ids[pos] != universe
    msm = parsed.get("minimum_should_match") or 0
    if msm > 1:
        # ES minimum_should_match: a doc must contain >= msm DISTINCT
        # scored terms.  Every scored posting id is in the universe
        # (it's their union), so one searchsorted per term counts
        # memberships exactly.
        cnt = np.zeros(len(universe), dtype=np.int64)
        for t, p in live.items():
            if decoded_cache is not None and t in decoded_cache:
                ids = decoded_cache[t][0]
            else:
                ids = p.decode_all()[0]
            cnt[np.searchsorted(universe, ids)] += 1
        keep &= cnt >= msm
    # required terms: bool.must term membership (already scored above)
    for t in parsed.get("required", []):
        p = postings.get(t)
        if p is None:
            return None, None, None
        ids, _, _ = p.decode_all()
        keep &= np.isin(universe, ids, assume_unique=True)
    # required phrases: bool.must match_phrase
    for ph in parsed["phrases"]:
        ph_postings = {t: postings.get(t) or get_postings(t) for t in set(ph)}
        if any(p is None for p in ph_postings.values()):
            return None, None, None
        hits = phrase_mod.phrase_topk(ph, ph_postings, stats, len(universe))
        hit_ids = np.array(sorted(d for d, _ in hits), dtype=np.int64)
        keep &= np.isin(universe, hit_ids, assume_unique=True)
    # negated phrases: bool.must_not match_phrase — docs containing the
    # exact sequence are dropped from the candidate universe
    for ph in parsed.get("excluded_phrases", []):
        ph_postings = {t: postings.get(t) or get_postings(t) for t in set(ph)}
        if any(p is None for p in ph_postings.values()):
            continue  # phrase can't occur anywhere -> nothing to drop
        # matches are NOT bounded by the universe (negated-phrase terms
        # are unscored): bound by the phrase's rarest term df instead
        cap = min(p.df for p in ph_postings.values())
        hits = phrase_mod.phrase_topk(ph, ph_postings, stats, cap)
        if hits:
            hit_ids = np.array(sorted(d for d, _ in hits), dtype=np.int64)
            keep &= ~np.isin(universe, hit_ids, assume_unique=True)
    # exclusions: bool.must_not term membership
    for t in parsed["excluded"]:
        p = get_postings(t)
        if p is None:
            continue
        ids, _, _ = p.decode_all()
        keep &= ~np.isin(universe, ids, assume_unique=True)
    # filter context; on a single-field index a scoped field:"..."
    # clause can only target a not_analyzed docmeta column (exact value
    # match — quoted so the value may contain spaces)
    filters = dict(parsed["filters"])
    filters.update(parsed.get("scoped_phrases", []))
    if filters:
        if docmeta is None:
            raise ValueError(
                f"query uses field filters {sorted(filters)} but no "
                "docmeta table is loaded (build one with cb.docmeta)"
            )
        unknown = sorted(set(filters) - set(docmeta.cols))
        if unknown:
            raise ValueError(
                f"unknown filter fields {unknown}; docmeta has {sorted(docmeta.cols)}"
            )
        keep &= docmeta.mask(universe, filters)
    return universe, acc, keep
