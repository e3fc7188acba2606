"""Brute-force BM25 oracle — the correctness anchor.

The reference delegates search to Elasticsearch (README.md:5-8); our
"reference query set" answers are therefore defined by this oracle
(SURVEY.md §7.1 step 6): a direct, index-free scorer over the raw
corpus.  The engine (compressed index + WAND on shard servers) must be
rank-identical with bitwise-equal float64 scores.

Scoring contract (shared with every engine path via :mod:`cb.scoring`):
- unique query terms, processed in sorted (alphabetical) order;
- score(d) = sum of idf(t) * u(tf, dl) over matching terms, accumulated
  in that term order (float64 summation order is part of the spec);
- top-k by (score desc, doc_id asc); docs matching no term are absent.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from . import analyze, scoring


def check_k(k: int) -> int:
    """A top-k's ``k``: 0 asks for nothing, and a negative one is an
    error, never a slice bound counted from the end."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return k


ALGOS = ("taat", "wand")


def check_algo(algo: str) -> str:
    """A top-k's ``algo``: ``"taat"`` or ``"wand"``.  Anything else is
    an error, never a silent TAAT."""
    if algo not in ALGOS:
        raise ValueError(f"algo must be 'taat' or 'wand', got {algo!r}")
    return algo


def rank_topk(doc_ids: np.ndarray, scores: np.ndarray, k: int) -> list[tuple[int, float]]:
    """(score desc, doc_id asc) top-k over any float scores; NaN sorts
    last.  ``np.partition`` finds the k-th best score, and only the docs
    at least that good (ties across the cut included) are lexsorted.  A
    NaN k-th score means fewer than k non-NaN scores: everything is
    lexsorted."""
    if check_k(k) == 0 or len(scores) == 0:
        return []
    neg = -np.asarray(scores, dtype=np.float64)
    if k < len(neg):
        cut = np.partition(neg, k - 1)[k - 1]
        if not np.isnan(cut):
            keep = np.flatnonzero(neg <= cut)
            doc_ids, neg = doc_ids[keep], neg[keep]
    order = np.lexsort((doc_ids, neg))[:k]
    return list(zip(doc_ids[order].tolist(), (-neg[order]).tolist()))


class Oracle:
    """In-memory brute-force scorer over (doc_id, text) rows."""

    def __init__(self, doc_ids, texts):
        self.doc_ids = [int(d) for d in doc_ids]
        self.tokens: list[list[str]] = [analyze.tokenize(t) for t in texts]
        self.tf: list[Counter] = [Counter(toks) for toks in self.tokens]
        self.doc_len = np.array([sum(c.values()) for c in self.tf], dtype=np.int64)
        self.n_docs = len(self.doc_ids)
        self.avgdl = float(self.doc_len.sum()) / self.n_docs if self.n_docs else 0.0
        self.df: Counter = Counter()
        for c in self.tf:
            self.df.update(c.keys())

    def topk(self, query: str, k: int = 10) -> list[tuple[int, float]]:
        terms = sorted(set(analyze.tokenize(query)))
        ids, scores = [], []
        for i, d in enumerate(self.doc_ids):
            s = np.float64(0.0)
            hit = False
            for t in terms:  # sorted order == the float-summation spec
                tf = self.tf[i].get(t)
                if tf:
                    hit = True
                    s = s + scoring.idf(self.df[t], self.n_docs) * scoring.u_factor(
                        tf, self.doc_len[i], self.avgdl
                    )
            if hit:
                ids.append(d)
                scores.append(float(s))
        if not ids:
            return []
        return rank_topk(np.array(ids), np.array(scores, dtype=np.float64), k)

    def phrase_topk(self, text: str, k: int = 10) -> list[tuple[int, float]]:
        """Exact phrase match (adjacent tokens in order) ranked by the
        BM25 of the phrase's unique terms; the phrase-engine spec."""
        ordered = analyze.tokenize(text)
        if not ordered:
            return []
        m = len(ordered)
        terms = sorted(set(ordered))
        ids, scores = [], []
        for i, d in enumerate(self.doc_ids):
            toks = self.tokens[i]
            hit = any(
                toks[j : j + m] == ordered for j in range(len(toks) - m + 1)
            )
            if not hit:
                continue
            s = np.float64(0.0)
            for t in terms:
                tf = self.tf[i].get(t)
                if tf:
                    s = s + scoring.idf(self.df[t], self.n_docs) * scoring.u_factor(
                        tf, self.doc_len[i], self.avgdl
                    )
            ids.append(d)
            scores.append(float(s))
        if not ids:
            return []
        return rank_topk(np.array(ids), np.array(scores, dtype=np.float64), k)


def page_after(search, query: str, k: int, after):
    """ES ``search_after`` cursor over any ``(query, k) -> ranked list``
    callable: the next k results strictly after the ``(score, doc_id)``
    cursor in (score desc, id asc) order, via a doubling re-fetch —
    exact because scores are bitwise-deterministic for an immutable
    index, so cursor equality is safe.  The ONE implementation behind
    QueryEngine, FederatedEngine, the multifield engines, and the CLI.
    """
    if after is None:
        return search(query, k)
    fetch = max(2 * k, 32)
    while True:
        res = search(query, fetch)
        out = [
            r for r in res
            if r[1] < after[0] or (r[1] == after[0] and r[0] > after[1])
        ]
        if len(out) >= k or len(res) < fetch:
            return out[:k]
        fetch *= 2
