"""Top-k BM25 scoring over compressed postings: exact TAAT + block-max WAND.

Two scorers with identical results (tests assert equality on thousands
of queries):

- :func:`topk_taat` — exact term-at-a-time: decode everything, accumulate
  per-doc scores in sorted-term order (the float-summation spec), rank.
  Simple, vectorized; the in-engine cross-check and small-query path.
  A scope that knows its slice's doc ids accumulates with one
  ``np.bincount`` over cached doc ordinals (:func:`dense_sum`), else
  with one stable merge of the sorted runs (:func:`ordered_sum`).
- :func:`topk_wand` — document-at-a-time WAND with the block-max check
  (Broder et al. WAND; Ding & Suel block-max refinement, public
  literature): term-global upper bounds pick the pivot, per-block
  upper bounds (the stored avgdl-free (max tf, min doc length) block
  summaries of cb.compress, turned into u-factor bounds with the avgdl
  the query scores with) reject doc-id ranges without decoding them,
  and skipped terms advance by whole blocks via the block-last-id skip
  lists.

Exactness under floats: every upper bound is a float64 computed with the
same multiply as real contributions (monotone under IEEE rounding), a
candidate is only skipped when its bound is STRICTLY below the current
threshold, and at-threshold candidates are still evaluated so the
(score desc, doc_id asc) tie-break can never differ from the oracle.
"""

from __future__ import annotations

import heapq

import numpy as np

from . import compress, scoring
from .query import check_k, rank_topk

# Doc ids are 63-bit non-negative (cb.corpus), so the exhausted sentinel
# must sit ABOVE the id space; cursors hold python ints, so 2**63 is safe.
MAX_ID = (1 << 63) - 1
INF_DOC = 1 << 63

# Instrumentation: posting blocks decoded through cursor loads.  WAND's
# scale advantage is DECODE VOLUME (blocks touched vs TAAT's
# decode-everything), which bench reports alongside wall-clock; one int
# increment per block load is noise.
BLOCKS_DECODED = 0


class TermCursor:
    """Iterator over one term's chunked, block-compressed postings."""

    __slots__ = (
        "term", "idf", "alpha", "chunked", "chunks", "blk_chunk", "blk_local",
        "blk_last", "blk_umax", "global_ub", "n_blocks", "cur_blk",
        "ids", "tfs", "dls", "pos", "cur_doc", "avgdl", "group",
    )

    def __init__(self, term: str, chunked, idf: float, alpha: int, avgdl: float):
        self.term = term
        self.idf = float(idf)
        self.alpha = alpha
        # the avgdl this cursor's u-factors and block bounds are
        # computed with (the scope's: global, per-field or the
        # federation overlay), and the summation group (field rank) for
        # multi-field evaluation
        self.avgdl = avgdl
        self.group = 0
        self.chunked = chunked
        self.chunks = chunked.chunks
        bc, bl, last, bounds = [], [], [], []
        for ci, ch in enumerate(self.chunks):
            nb = ch.n_blocks
            bc.extend([ci] * nb)
            bl.extend(range(nb))
            last.append(ch.last_ids)
            bounds.append(ch.bounds)
        self.blk_chunk = np.array(bc, dtype=np.int32)
        self.blk_local = np.array(bl, dtype=np.int32)
        self.blk_last = np.concatenate(last) if last else np.empty(0, dtype=np.int64)
        self.n_blocks = len(self.blk_last)
        # per-block u upper bounds from the stored avgdl-free (max tf,
        # min dl) summaries
        self.blk_umax = compress.annotate_umax_table(
            np.concatenate(bounds) if bounds else np.empty(0, dtype=np.int64), avgdl
        )
        # term-global upper bound: idf * max block u (float64 multiply —
        # monotone, so >= every exact contribution idf * u_i)
        self.global_ub = (
            self.idf * float(self.blk_umax.max()) if len(self.blk_umax) else 0.0
        )
        self.cur_blk = -1
        self.ids = self.tfs = self.dls = None
        self.pos = 0
        self.cur_doc = INF_DOC
        if self.n_blocks:
            self._load_block(0)

    def _load_block(self, b: int) -> None:
        global BLOCKS_DECODED
        BLOCKS_DECODED += 1
        self.cur_blk = b
        ch = self.chunks[self.blk_chunk[b]]
        self.ids, self.tfs, self.dls = ch.decode_block(int(self.blk_local[b]))
        self.pos = 0
        self.cur_doc = int(self.ids[0])

    def block_ub(self) -> float:
        """Upper bound over the rest of the CURRENT block."""
        return self.idf * float(self.blk_umax[self.cur_blk])

    def block_last(self) -> int:
        return int(self.blk_last[self.cur_blk])

    def advance_to(self, target: int) -> None:
        """Move to the first doc >= target (block-skip via last-id list)."""
        if self.cur_doc >= target:
            return
        if target > MAX_ID:  # past the id space entirely
            self.cur_doc = INF_DOC
            return
        if self.blk_last[self.cur_blk] < target:
            b = int(np.searchsorted(self.blk_last, target))
            if b >= self.n_blocks:
                self.cur_doc = INF_DOC
                return
            self._load_block(b)
        self.pos = int(np.searchsorted(self.ids, target, side="left"))
        if self.pos >= len(self.ids):  # can't happen (blk_last >= target) but guard
            self.cur_doc = INF_DOC
        else:
            self.cur_doc = int(self.ids[self.pos])

    def next_doc(self) -> None:
        self.pos += 1
        if self.pos < len(self.ids):
            self.cur_doc = int(self.ids[self.pos])
        elif self.cur_blk + 1 < self.n_blocks:
            self._load_block(self.cur_blk + 1)
        else:
            self.cur_doc = INF_DOC

    def cur_tf(self) -> int:
        return int(self.tfs[self.pos])

    def cur_dl(self) -> int:
        return int(self.dls[self.pos])

    def decode_chunks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full decode of every chunk (delegates to ChunkedPostings)."""
        return self.chunked.decode_all()


def _gather_terms(postings: dict, idfs: dict, avgdl: float) -> list[TermCursor]:
    terms = sorted(t for t, p in postings.items() if p is not None and p.df > 0)
    return [TermCursor(t, postings[t], idfs[t], i, avgdl) for i, t in enumerate(terms)]


def topk_taat(
    postings: dict, idfs: dict, stats, k: int, decoded_cache: dict | None = None
) -> list[tuple[int, float]]:
    """Exact exhaustive scoring: decode all, accumulate with
    :func:`taat_scores`, cut with :func:`cb.query.rank_topk`.

    In-memory serving default: numpy decode+accumulate beats the
    pointer-chasing WAND loop until posting lists far exceed memory;
    block-max WAND (below) is the IO-bound/disk-resident path and the
    rank-equality of the two is test-enforced.  ``decoded_cache``
    (term -> (ids, u, ords)) amortizes varint decoding and the per-posting
    u-factor across queries — tf, dl and avgdl are fixed per (index,
    term), so u is query-independent; idf multiplies at use.
    """
    if check_k(k) == 0:
        return []
    universe, acc = taat_scores(postings, idfs, stats, decoded_cache)
    if universe is None:
        return []
    return rank_topk(universe, acc, k)


def ordered_sum(ids: list[np.ndarray], vals: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Group-by-id SUM over K runs of (sorted unique ids, values) ->
    (the sorted union of the ids, each id's sum).

    One stable argsort of the concatenated ids merges the K sorted runs
    (timsort: O(n log K)) and keeps run order among equal ids, and
    ``np.bincount`` adds each id's values sequentially from 0.0 — so
    every sum is ``0.0 + v_1 + v_2 + ...`` in run order, bitwise the
    spec's summation order.  (``np.add.reduceat`` would not be: it sums
    runs longer than 8 pairwise.)  TAAT's kernel for stats with no
    universe (:func:`taat_scores`), and multifield's cross-field
    combine."""
    cat = np.concatenate(ids)
    order = np.argsort(cat, kind="stable")
    merged = cat[order]
    new = np.empty(len(merged), dtype=bool)
    new[:1] = True
    np.not_equal(merged[1:], merged[:-1], out=new[1:])
    universe = merged[new]
    sums = np.bincount(np.cumsum(new) - 1, weights=np.concatenate(vals)[order])
    return universe, sums.astype(np.float64, copy=False)  # empty: int64


def dense_sum(
    universe: np.ndarray, ords: list[np.ndarray], vals: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`ordered_sum` over runs given as ordinals into the sorted
    ``universe``: one ``np.bincount`` with ``minlength=len(universe)``
    adds each doc's values from 0.0 in run order (bitwise the spec, as
    in :func:`ordered_sum`), and a hit mask, not ``score > 0``, picks
    the matched docs (a ``^0`` boost scores a match 0.0).  No sort."""
    o = np.concatenate(ords)
    acc = np.bincount(o, weights=np.concatenate(vals), minlength=len(universe))
    hit = np.zeros(len(universe), dtype=bool)
    hit[o] = True
    pos = np.flatnonzero(hit)
    return universe[pos], acc[pos]


def doc_ordinals(universe: np.ndarray | None, ids: np.ndarray) -> np.ndarray | None:
    """``ids``' positions in the sorted ``universe`` (one searchsorted;
    ``ids`` need not be sorted), or None when there is no universe or
    some id is not in it."""
    if universe is None:
        return None
    ords = np.searchsorted(universe, ids)
    if len(ids) and (ords.max() >= len(universe) or not np.array_equal(universe[ords], ids)):
        return None
    return ords


def taat_scores(
    postings: dict, idfs: dict, stats, decoded_cache: dict | None = None
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Exact TAAT accumulation -> (matching doc ids sorted, scores), or
    (None, None) when no term has postings.  Each doc's score sums its
    terms' ``idf * u`` in sorted-term order.  The shared core of
    :func:`topk_taat` and filtered search (which masks the universe by
    a metadata predicate BEFORE ranking).

    Two kernels, one result bitwise.  A scope whose ``stats`` carries
    its slice's sorted doc ids (``stats.universe``) stores each cached
    term's doc ordinals in it and accumulates densely
    (:func:`dense_sum`, no sort, O(n + N) for n postings over N docs).
    Stats with no universe, or a term whose ids are not all in it,
    merge the sorted runs (:func:`ordered_sum`, O(n log runs)).  Dense
    wins at every n on slices of up to ~5k docs, the benchmark's
    ~1.5k-doc slices included (1 vCPU, 3 sorted runs: at N = 1.5k,
    5.5 vs 10.6 us at n = 3 and 12.6 vs 32.6 us at n = N).  On larger
    slices merge wins below n ~ N/8 (N = 150k: 66 vs 15 us at n = 300,
    1.2 vs 4.2 ms at n = N); no workload serves such slices yet, so
    there is no cut (ROADMAP direction 4)."""
    terms = sorted(t for t, p in postings.items() if p is not None and p.df > 0)
    if not terms:
        return None, None
    universe = getattr(stats, "universe", None)
    ids, ords, contribs = [], [], []
    for t in terms:  # sorted -> spec summation order
        # the cache stores the WEIGHT-INDEPENDENT u-factor vector; idf
        # (which carries any per-query boost) multiplies at use, so a
        # boosted query never poisons the cache for an unboosted one.
        t_ids, u_vec, t_ords = decoded_u(t, postings[t], stats.avgdl, decoded_cache, universe)
        ids.append(t_ids)
        ords.append(t_ords)
        contribs.append(float(idfs[t]) * u_vec)
    if universe is not None and all(o is not None for o in ords):
        return dense_sum(universe, ords, contribs)
    return ordered_sum(ids, contribs)


def decoded_u(
    term: str, postings, avgdl: float, decoded_cache: dict | None, universe=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """A term's (doc ids, u-factors under ``avgdl``, doc ordinals in
    ``universe`` or None): a hit in ``decoded_cache`` (term -> that
    triple), else one columnar decode of its rows, which fills the
    cache."""
    hit = decoded_cache.get(term) if decoded_cache is not None else None
    if hit is None:
        ids, tfs, dls = postings.decode_all()
        hit = (ids, scoring.u_factor(tfs, dls, avgdl), doc_ordinals(universe, ids))
        if decoded_cache is not None:
            decoded_cache[term] = hit
    return hit


def topk_wand(postings: dict, idfs: dict, stats, k: int) -> list[tuple[int, float]]:
    """Block-max WAND; rank-identical to :func:`topk_taat`/the oracle."""
    if check_k(k) == 0:
        return []
    return _wand_core(_gather_terms(postings, idfs, stats.avgdl), k)


def topk_wand_fields(
    field_postings: dict, field_idfs: dict, stats: dict, field_order: list[str], k: int
) -> list[tuple[int, float]]:
    """Block-max WAND over a most_fields MULTI-FIELD query.

    Every (field, term) pair becomes an independent cursor over the
    shared doc-id space — its own postings, idf (per-field df/N, any
    boost folded in) and per-field avgdl — so the single-field
    pivot/block-max machinery applies unchanged: the most_fields doc
    score is a plain sum of cursor contributions, and idf * max-block-u
    (computed with THAT field's avgdl, a federation overlay's included)
    upper-bounds each.  Evaluation sums per-field partials in field
    order (``group`` = field rank), which is bitwise the TAAT
    accumulation spec — parity is test-enforced.
    """
    if check_k(k) == 0:
        return []
    cursors: list[TermCursor] = []
    for gi, f in enumerate(field_order):
        live = field_postings.get(f) or {}
        terms = sorted(t for t, p in live.items() if p is not None and p.df > 0)
        for a, t in enumerate(terms):
            c = TermCursor(t, live[t], field_idfs[f][t], a, stats[f].avgdl)
            c.group = gi
            cursors.append(c)
    return _wand_core(cursors, k)


def _wand_core(cursors: list[TermCursor], k: int) -> list[tuple[int, float]]:
    if not cursors:
        return []
    heap: list[tuple[float, int]] = []  # (score, -doc_id), root = weakest

    def threshold() -> float:
        return heap[0][0] if len(heap) == k else -1.0

    def beats(key: tuple[float, int]) -> bool:
        return len(heap) < k or key > heap[0]

    while True:
        live = [c for c in cursors if c.cur_doc < INF_DOC]
        if not live:
            break
        live.sort(key=lambda c: c.cur_doc)
        # pivot: first prefix whose summed global UBs could reach the heap
        theta = threshold()
        ub = 0.0
        pivot = -1
        for i, c in enumerate(live):
            ub += c.global_ub
            if ub >= theta:
                pivot = i
                break
        if pivot < 0:
            break  # even all terms together can't beat the threshold
        d = live[pivot].cur_doc
        if d >= INF_DOC:
            break
        if live[0].cur_doc < d:
            # outer terms must catch up to the pivot doc first
            for c in live[: pivot + 1]:
                c.advance_to(d)
            continue
        # all of live[0..pivot] are AT d. Block-max check: refined bound
        # from the blocks that actually contain/cover d.
        refined = 0.0
        for c in live[: pivot + 1]:
            refined += c.block_ub()
        # also add global bounds of any further terms already at d
        j = pivot + 1
        while j < len(live) and live[j].cur_doc == d:
            refined += live[j].block_ub()
            j += 1
        if refined < theta:
            # No doc in [d, X] can pass, where X keeps every bound valid:
            # X <= each participating cursor's current block end, and
            # X < the next non-participating cursor's doc (a term joining
            # the range would add its bound).
            boundary = min(c.block_last() for c in live[:j])
            if j < len(live):
                boundary = min(boundary, live[j].cur_doc - 1)
            target = boundary + 1
            for c in live[:j]:
                c.advance_to(target)
            continue
        # full evaluation at d: per-GROUP (= per-field) partial sums in
        # alphabetical-term order, group partials then added in group
        # order — bitwise the TAAT accumulation spec (each field's acc
        # vector sums alone, then adds into the cross-field total).
        # With one group this reduces to 0.0 + (the old flat chain).
        at_d = sorted(
            (c for c in live[:j] if c.cur_doc == d),
            key=lambda c: (c.group, c.alpha),
        )
        s = np.float64(0.0)
        gi = 0
        while gi < len(at_d):
            g = at_d[gi].group
            dl = at_d[gi].cur_dl()  # doc length rides in the postings (per field)
            sg = np.float64(0.0)
            while gi < len(at_d) and at_d[gi].group == g:
                c = at_d[gi]
                sg = sg + c.idf * scoring.u_factor(c.cur_tf(), dl, c.avgdl)
                gi += 1
            s = s + sg
        key = (float(s), -d)
        if beats(key):
            if len(heap) == k:
                heapq.heapreplace(heap, key)
            else:
                heapq.heappush(heap, key)
        for c in at_d:
            c.next_doc()
    out = sorted(heap, key=lambda x: (-x[0], -x[1]))
    return [(-nd, s) for s, nd in out]
