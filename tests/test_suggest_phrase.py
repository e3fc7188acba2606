"""Phrase suggester: Stupid-Backoff math vs a hand brute force,
pool parity, backoff-branch coverage, tombstone liveness.
(DuckDB value-parity for the packaged entry lives in
test_oracle_parity.)"""

import math
from itertools import product

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from cb import analyze
from cb.build import build_index
from cb.querylang import damerau_levenshtein
from cb.shard import QueryEngine, delete_docs

DOCS = [
    (1, "hash join hash join hash join table", "en", "s0", 150),
    (2, "merge sort window merge sort", "en", "s1", 250),
    (3, "hash table scan join hash", "fr", "s0", 350),
    (4, "sort window sort window frame", "en", "s0", 450),
    (5, "join sort hash window", "fr", "s1", 550),
]
TOKS = {i: analyze.tokenize(t) for i, t, _, _, _ in DOCS}


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    d = tmp_path_factory.mktemp("sphrase")
    rows = [
        {"doc_id": i, "text": t, "lang": lang, "source": src, "n_chars": n}
        for i, t, lang, src, n in DOCS
    ]
    src_file = str(d / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src_file)
    idx = str(d / "idx")
    build_index(src_file, idx, text_col="text", id_col="doc_id", num_parts=2)
    return idx


def _brute(text, k=3, max_edits=1, c=4, discount=0.4, alive=None):
    alive = alive if alive is not None else set(TOKS)
    streams = [TOKS[i] for i in sorted(alive)]
    cf, big, df = {}, {}, {}
    total = 0
    for s in streams:
        total += len(s)
        for w in s:
            cf[w] = cf.get(w, 0) + 1
        for a, b in zip(s, s[1:]):
            big[(a, b)] = big.get((a, b), 0) + 1
        for w in set(s):
            df[w] = df.get(w, 0) + 1
    # NOTE: df/vocab in the engine come from the immutable index
    # (build-time), as does total; only cf/bigram react to tombstones.
    full_df = {}
    for i in TOKS:
        for w in set(TOKS[i]):
            full_df[w] = full_df.get(w, 0) + 1
    full_total = sum(len(TOKS[i]) for i in TOKS)
    vocab = sorted(full_df)
    cands = []
    for tok in analyze.tokenize(text):
        cs = [
            (t, damerau_levenshtein(tok, t))
            for t in vocab
            if len(tok) - max_edits <= len(t) <= len(tok) + max_edits
            and t[0] == tok[0]
            and damerau_levenshtein(tok, t) <= max_edits
        ]
        cs.sort(key=lambda td: (td[1], -full_df[td[0]], td[0]))
        cands.append([t for t, _ in cs[:c]])
    if any(not cs for cs in cands):
        return []
    scored = []
    for p in product(*cands):
        if any(cf.get(w, 0) == 0 for w in p):
            continue
        s = math.log10(cf[p[0]] / full_total)
        for i in range(1, len(p)):
            bcnt = big.get((p[i - 1], p[i]), 0)
            if bcnt > 0:
                s += math.log10(bcnt / cf[p[i - 1]])
            else:
                s += math.log10(discount * cf[p[i]] / full_total)
        scored.append((" ".join(p), s))
    scored.sort(key=lambda ps: (-ps[1], ps[0]))
    return [(r, ph, sc) for r, (ph, sc) in enumerate(scored[:k], start=1)]


CASES = ["hsh jion", "merge sort windw", "tble scan", "sort hash"]


def test_suggest_phrase_brute_and_modes(built):
    for text in CASES:
        want = _brute(text)
        eng = QueryEngine(built, num_servers=2)
        try:
            got = eng.suggest_phrase(text, k=3)
        finally:
            eng.shutdown()
        assert got == want, (text, got, want)
        assert want, text  # every case must produce suggestions


def test_suggest_phrase_backoff_branch(built):
    # "window hash": bigram never adjacent in the corpus -> backoff path
    want = _brute("window hash")
    eng = QueryEngine(built, num_servers=2)
    try:
        got = eng.suggest_phrase("window hash", k=3)
    finally:
        eng.shutdown()
    assert got == want and got


def test_suggest_phrase_validation(built):
    eng = QueryEngine(built, num_servers=2)
    try:
        with pytest.raises(ValueError):
            eng.suggest_phrase("hash")
        assert eng.suggest_phrase("zz qq", k=3) == []
    finally:
        eng.shutdown()


def test_suggest_phrase_tombstone_counts(built):
    # last test in the module: tombstone doc 1 (the hash-join anchor);
    # cf/bigram evidence must react while vocab/df stay build-time
    delete_docs(built, [1])
    want = _brute("hsh jion", alive={2, 3, 4, 5})
    eng = QueryEngine(built, num_servers=2)
    try:
        got = eng.suggest_phrase("hsh jion", k=3)
    finally:
        eng.shutdown()
    # totals stay build-time in the engine; mirror that in the brute
    assert [p for _, p, _ in got] == [p for _, p, _ in want]
