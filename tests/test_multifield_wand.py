"""Multi-field block-max WAND (cb.wand.topk_wand_fields): bitwise
parity with the exact TAAT matcher over fuzzed corpora/queries, plus
the routing guards — ineligible clause shapes and tombstones must fall
back to TAAT (the same rules the single-field ShardServer enforces),
while fed members keep WAND."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from cb import multifield, wand

# Zipf-ish vocabulary: a few hot words + a long tail, so block-max
# pruning actually triggers (hot terms span many blocks) while rare
# terms exercise the skip lists.
_HOT = ["import", "def", "return", "table", "hash", "join", "sort"]
_TAIL = [f"w{i:03d}" for i in range(120)]


def _synth_docs(n: int, seed: int) -> list[dict]:
    rng = np.random.Generator(np.random.PCG64(seed))
    docs = []
    for i in range(n):
        tlen = int(rng.integers(2, 8))
        blen = int(rng.integers(8, 60))

        def words(m):
            out = []
            for _ in range(m):
                if rng.random() < 0.55:
                    out.append(_HOT[int(rng.integers(len(_HOT)))])
                else:
                    out.append(_TAIL[int(rng.integers(len(_TAIL)))])
            return " ".join(out)

        docs.append(
            {"doc_id": 1000 + i, "title": words(tlen), "body": words(blen)}
        )
    return docs


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    d = tmp_path_factory.mktemp("mfwand")
    src = str(d / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(_synth_docs(400, seed=99)), src)
    idx = str(d / "idx")
    multifield.build_multifield(
        src, idx, ["title", "body"], id_col="doc_id", num_parts=4
    )
    return idx


def _fuzz_queries(n: int, seed: int) -> list[str]:
    rng = np.random.Generator(np.random.PCG64(seed))
    pool = _HOT + _TAIL[:30]
    qs = []
    for _ in range(n):
        terms = list(
            rng.choice(pool, size=int(rng.integers(1, 5)), replace=False)
        )
        parts = []
        for t in terms:
            r = rng.random()
            if r < 0.2:
                parts.append(f"title:{t}")
            elif r < 0.35:
                parts.append(f"body:{t}")
            elif r < 0.5:
                parts.append(f"{t}^{float(rng.integers(1, 4))}")
            else:
                parts.append(t)
        qs.append(" ".join(parts))
    return qs


def test_searcher_wand_bitwise_parity_fuzz(built):
    s = multifield.MultiFieldSearcher(built)
    for q in _fuzz_queries(250, seed=7):
        for k in (3, 10):
            assert s.search(q, k=k, algo="wand") == s.search(
                q, k=k, algo="taat"
            ), (q, k)


def test_engine_wand_parity(built):
    s = multifield.MultiFieldSearcher(built)
    eng = multifield.MultiFieldEngine(built, num_servers=3)
    try:
        for q in _fuzz_queries(40, seed=21):
            want = s.search(q, k=10, algo="taat")
            assert eng.search(q, k=10, algo="wand") == want, q
            assert eng.search(q, k=10, algo="taat") == want, q
        for bad in ("bogus", "WAND"):  # never a silent TAAT
            for search in (s.search, eng.search):
                with pytest.raises(ValueError, match="taat.*wand"):
                    search("alpha", k=10, algo=bad)
            with pytest.raises(ValueError, match="taat.*wand"):
                s.score(s._routed("alpha"), 10, algo=bad)
    finally:
        eng.shutdown()


def test_wand_path_actually_taken(built, monkeypatch):
    """Plain scored-term queries must go through topk_wand_fields (not
    silently fall back), and every ineligible clause shape must route
    to TAAT — proven by making the WAND entry point explode."""
    s = multifield.MultiFieldSearcher(built)
    calls = {"n": 0}
    real = wand.topk_wand_fields

    def spy(*a, **kw):
        calls["n"] += 1
        return real(*a, **kw)

    monkeypatch.setattr(wand, "topk_wand_fields", spy)
    assert s.search("hash join", k=10, algo="wand")
    assert calls["n"] == 1
    assert s.search("title:hash body:join^2.0", k=5, algo="wand")
    assert calls["n"] == 2

    def boom(*a, **kw):  # any WAND attempt now fails loudly
        raise AssertionError("WAND used for an ineligible query")

    monkeypatch.setattr(wand, "topk_wand_fields", boom)
    taat = lambda q: s.search(q, k=10, algo="taat")
    for q in (
        '"hash join"',            # phrase -> mask after scoring
        'title:"hash join"',      # field-scoped phrase
        "hash -sort",             # exclusion
        "+hash join",             # required
        "hash join msm:2",        # minimum_should_match
        '-"hash join" table',     # negated phrase
    ):
        assert s.search(q, k=10, algo="wand") == taat(q), q


def test_tombstones_force_taat(built, monkeypatch):
    s = multifield.MultiFieldSearcher(built)
    live = s.search("hash join", k=10, algo="taat")
    assert live
    dead = live[0][0]
    s.tombstones = np.array([dead], dtype=np.int64)
    monkeypatch.setattr(
        wand, "topk_wand_fields",
        lambda *a, **kw: (_ for _ in ()).throw(AssertionError("WAND with tombstones")),
    )
    res = s.search("hash join", k=10, algo="wand")
    assert dead not in {d for d, _ in res}
    assert res == s.search("hash join", k=10, algo="taat")


def test_fed_member_runs_wand(built, monkeypatch):
    """A scope scoring with avgdls other than the build's (what a fed
    overlay does) still serves algo="wand" with WAND, bitwise equal to
    TAAT: block bounds are computed with the scope's per-field avgdl."""
    s = multifield.MultiFieldSearcher(built)
    s.stats = {
        f: multifield.GlobalStats(st.n_docs, st.avgdl * m)
        for (f, st), m in zip(s.stats.items(), (0.3, 4.0))
    }
    calls = []
    real = wand.topk_wand_fields

    def counting(*a, **kw):
        calls.append(1)
        return real(*a, **kw)

    monkeypatch.setattr(wand, "topk_wand_fields", counting)
    for q in ("hash join", "import def w001", "title:sort return"):
        got = s.search(q, k=10, algo="wand")
        assert got == s.search(q, k=10, algo="taat"), q
    assert len(calls) == 3


def test_wildcard_expansion_parity(built):
    """expand_routed produces field_weights (possibly 0-weight base
    terms); the WAND path must reproduce the expanded TAAT scores."""
    s = multifield.MultiFieldSearcher(built)
    for q in ("w00*", "ha*h join", "import w01* title:hash"):
        assert s.search(q, k=10, algo="wand") == s.search(
            q, k=10, algo="taat"
        ), q
