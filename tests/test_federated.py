"""Federated per-day / per-type indexes (cb.federated).

Parity anchors: IndexNamer.BuildName byte cases from the reference's
own tests (IndexNamerTests.cs:20-48), GetIndexNames enumeration
(MasterScheduler.cs:241-259), and the core federation invariant —
cross-index search with federation-global stats is BITWISE equal to
one monolithic index over the union corpus (dfs_query_then_fetch)."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from cb import federated
from cb.shard import LocalSearcher, _merge_topk

QUERIES = ["merge join", "hash index scan", "w3 w7", "nosuchterm", "join w1 w2 w9"]


def _mk_corpus(path: str, n: int = 120, ndays: int = 3, seed: int = 7) -> None:
    rng = np.random.default_rng(seed)
    base_us = 1_767_571_200_000_000  # 2026-01-05
    rows = []
    for i in range(n):
        words = " ".join(f"w{int(rng.integers(25))}" for _ in range(int(rng.integers(4, 30))))
        # (i // 3) decorrelates phrase from day (= i % ndays): every
        # day-index holds every phrase
        extra = ["merge join", "hash index", "index scan"][(i // 3) % 3]
        rows.append(
            {
                "doc_id": 1 + i * 17,
                "text": f"{extra} {words}",
                "ts": base_us + (i % ndays) * 86_400_000_000,
                "kind": f"type{i % 2}",
            }
        )
    t = pa.Table.from_pylist(rows)
    t = t.set_column(t.schema.get_field_index("ts"), "ts", t["ts"].cast(pa.timestamp("us")))
    pq.write_table(t, path)


def test_index_name_reference_cases():
    # IndexNamerTests.cs:20-48 byte cases
    iso = "1969-08-18T00:00:00"
    assert federated.index_name(iso, "vavavoom") == "19690818"
    assert federated.index_name(iso, "vavavoom", prefix="PREFIX-") == "PREFIX-19690818"
    assert (
        federated.index_name(iso, "VaVaVoom", prefix="PREFIX-", one_index_per_type=True)
        == "PREFIX-vavavoom-19690818"
    )
    # null/short time: IndexNamer.cs:29-30
    assert federated.index_name(None, "T", prefix="P-") == "P-"
    assert federated.index_name(None, "T", prefix="P-", one_index_per_type=True) == "P-t"


def test_get_index_names():
    assert federated.get_index_names(None, "t", static_name="fixed") == ["fixed"]
    names = federated.get_index_names(
        "2026-01-05T03:00:00", "log", prefix="cb-", one_index_per_type=True,
        today_iso="2026-01-08",
    )
    # offset day .. tomorrow inclusive
    assert names[0] == "cb-log-20260109" and names[-1] == "cb-log-20260105"
    assert len(names) == 5


@pytest.fixture(scope="module")
def fed_built(tmp_path_factory):
    d = tmp_path_factory.mktemp("fed")
    src = str(d / "docs.parquet")
    _mk_corpus(src)
    mono = str(d / "mono")
    from cb.build import build_index

    build_index(src, mono, text_col="text", id_col="doc_id", num_parts=4)
    fed_dir = str(d / "fed")
    meta = federated.build_federation(
        src, fed_dir, text_col="text", id_col="doc_id", ts_col="ts",
        prefix="cb-", columns=["doc_id", "text"], num_parts=4,
    )
    return src, mono, fed_dir, meta


def test_build_layout(fed_built):
    src, mono, fed_dir, meta = fed_built
    assert [e["name"] for e in meta["indexes"]] == [
        "cb-20260105", "cb-20260106", "cb-20260107",
    ]
    # federation totals == monolithic totals (bitwise avgdl)
    from cb.build import IndexMeta

    m = IndexMeta(mono)
    assert meta["n_docs"] == m.n_docs
    assert meta["total_tokens"] == m.total_tokens
    assert meta["avgdl"] == m.avgdl
    for p in range(meta["num_parts"]):
        assert os.path.exists(federated.feddf_path(fed_dir, p))


def test_feddf_matches_monolithic_df(fed_built):
    """Per-term federation df == the monolithic index's df."""
    src, mono, fed_dir, meta = fed_built
    mono_ls = LocalSearcher(mono)
    for p in range(meta["num_parts"]):
        t = pq.read_table(federated.feddf_path(fed_dir, p))
        for term, df in zip(t["term"].to_pylist(), t["df"].to_pylist()):
            cp = mono_ls.get_postings(term)
            assert cp is not None and cp.gdf == df, term


def test_local_fed_scoring_matches_monolithic(fed_built):
    """LocalSearcher(fed=...) per-day results merge bitwise to the
    monolithic ranking."""
    src, mono, fed_dir, meta = fed_built
    mono_ls = LocalSearcher(mono)
    day_ls = [LocalSearcher(e["dir"], fed=fed_dir) for e in meta["indexes"]]
    for q in QUERIES:
        expect = mono_ls.query(q, k=10, algo="taat")
        got = _merge_topk([ls.query(q, k=10, algo="taat") for ls in day_ls], 10)
        assert got == expect, q


def test_engine_matches_monolithic_and_prunes(fed_built):
    src, mono, fed_dir, meta = fed_built
    mono_ls = LocalSearcher(mono)
    eng = federated.FederatedEngine(fed_dir, num_servers=2)
    try:
        for q in QUERIES:
            assert eng.query(q, k=10) == mono_ls.query(q, k=10, algo="taat"), q
        # day-range pruning: fed-pruned top-k == the monolithic FULL
        # ranking restricted to docs of the selected days (global stats
        # make subset scores identical to whole-corpus scores)
        docs = pq.read_table(src)
        sel_days = {"cb-20260106", "cb-20260107"}
        base_us = 1_767_571_200_000_000
        day_of = {
            int(i): f"cb-2026010{5 + (int(ts) - base_us) // 86_400_000_000}"
            for i, ts in zip(
                docs["doc_id"].to_pylist(),
                docs["ts"].cast(pa.int64()).to_pylist(),
            )
        }
        for q in QUERIES:
            full = mono_ls.query(q, k=len(day_of), algo="taat")
            expect = [r for r in full if day_of[r[0]] in sel_days][:5]
            got = eng.query(q, k=5, start_day="20260106", end_day="20260107")
            assert got == expect, q
        # empty selection
        assert eng.query("merge", k=5, start_day="20270101") == []
    finally:
        eng.shutdown()


def test_route_by_type(fed_built, tmp_path):
    """EsOneIndexPerType mode: one sub-index per kind value; search
    still bitwise-monolithic."""
    src, mono, fed_dir, meta = fed_built
    fd = str(tmp_path / "fedtype")
    m = federated.build_federation(
        src, fd, text_col="text", id_col="doc_id", route_col="kind",
        prefix="cb-", columns=["doc_id", "text"], num_parts=4,
    )
    assert [e["name"] for e in m["indexes"]] == ["cb-type0", "cb-type1"]
    mono_ls = LocalSearcher(mono)
    day_ls = [LocalSearcher(e["dir"], fed=fd) for e in m["indexes"]]
    for q in QUERIES:
        got = _merge_topk([ls.query(q, k=10, algo="taat") for ls in day_ls], 10)
        assert got == mono_ls.query(q, k=10, algo="taat"), q


def test_query_many_batched_parity(fed_built):
    """Batched score_many fan-out == per-query dispatch, with and
    without day pruning."""
    src, mono, fed_dir, meta = fed_built
    eng = federated.FederatedEngine(fed_dir, num_servers=2)
    try:
        batched = eng.query_many(QUERIES, k=10)
        singles = [eng.query(q, k=10) for q in QUERIES]
        assert batched == singles
        batched_p = eng.query_many(QUERIES, k=10, start_day="20260106")
        singles_p = [eng.query(q, k=10, start_day="20260106") for q in QUERIES]
        assert batched_p == singles_p
        assert eng.query_many(QUERIES, k=10, start_day="20270101") == [
            [] for _ in QUERIES
        ]
    finally:
        eng.shutdown()


def test_querystring_and_facets_federated(fed_built, tmp_path):
    """Full query-string surface + ES aggregations across the
    federation == the monolithic pool, including wildcard/fuzzy
    expansion (per-index vocab) and docmeta filters (per-day docmeta
    from each staging slice)."""
    from cb import docmeta as docmeta_mod
    from cb.shard import QueryEngine

    src, mono, fed_dir, meta = fed_built
    fd = str(tmp_path / "fedq")
    federated.build_federation(
        src, fd, text_col="text", id_col="doc_id", ts_col="ts",
        prefix="cb-", num_parts=4,  # no columns arg: stage ALL (incl. kind)
    )
    federated.ensure_fed_docmeta(fd, ["kind"])
    docmeta_mod.ensure_docmeta(mono, src, ["kind"])
    mono_eng = QueryEngine(mono, num_servers=2)
    eng = federated.FederatedEngine(fd, num_servers=2)
    try:
        for q in [
            "merge join^2",
            "+hash ind*",
            "merge~1",
            "merge kind:type0",
            '-"merge join" index',
        ]:
            assert eng.search(q, k=10) == mono_eng.search(q, k=10), q
        got = eng.facets("merge index", facet_cols=["kind"])
        want = mono_eng.facets("merge index", facet_cols=["kind"])
        assert got == want
    finally:
        eng.shutdown()
        mono_eng.shutdown()


def _dir_state(d):
    """(relpath, sha) of every file under d — byte-identity probe."""
    import hashlib

    out = []
    for root, _, files in os.walk(d):
        for f in sorted(files):
            p = os.path.join(root, f)
            with open(p, "rb") as fh:
                out.append((os.path.relpath(p, d), hashlib.sha256(fh.read()).hexdigest()))
    return sorted(out)


def test_incremental_refresh_rebuilds_only_changed_days(tmp_path):
    from cb.build import build_index

    d = tmp_path
    base_us = 1_767_571_200_000_000
    rng = np.random.default_rng(3)

    def docs(day, start, n):
        return [
            {
                "doc_id": 1 + start + i,
                "text": "alpha beta " + " ".join(
                    f"w{int(rng.integers(20))}" for _ in range(10)
                ),
                "ts": base_us + day * 86_400_000_000,
            }
            for i in range(n)
        ]

    def write(rows, p):
        t = pa.Table.from_pylist(rows)
        t = t.set_column(
            t.schema.get_field_index("ts"), "ts", t["ts"].cast(pa.timestamp("us"))
        )
        pq.write_table(t, p)

    initial = docs(0, 0, 30) + docs(1, 100, 30)
    write(initial, str(d / "initial.parquet"))
    fed_dir = str(d / "fed")
    federated.build_federation(
        str(d / "initial.parquet"), fed_dir, text_col="text", id_col="doc_id",
        ts_col="ts", prefix="cb-", num_parts=4,
    )
    day0_dir = os.path.join(fed_dir, "index=cb-20260105")
    before = _dir_state(day0_dir)

    new_rows = docs(1, 200, 20) + docs(2, 300, 20)  # day1 grows, day2 is new
    write(new_rows, str(d / "new.parquet"))
    fed = federated.refresh_federation(str(d / "new.parquet"), fed_dir)
    assert fed["changed"] == ["cb-20260106", "cb-20260107"]
    assert _dir_state(day0_dir) == before  # untouched day: bitwise identical

    # correctness: federation == monolithic over the union corpus
    write(initial + new_rows, str(d / "union.parquet"))
    mono = str(d / "mono")
    build_index(str(d / "union.parquet"), mono, text_col="text", id_col="doc_id", num_parts=4)
    mono_ls = LocalSearcher(mono)
    day_ls = [LocalSearcher(e["dir"], fed=fed_dir) for e in fed["indexes"]]
    for q in ["alpha w3", "beta w7 w1", "alpha beta w15"]:
        got = _merge_topk([ls.query(q, k=10, algo="taat") for ls in day_ls], 10)
        assert got == mono_ls.query(q, k=10, algo="taat"), q


def test_streaming_ingest_loop(tmp_path):
    """EventHub-parity loop: push -> checkpointed drain -> ingest ticks
    rebuild only the touched day-indexes; a no-news tick is a no-op and
    a re-run after simulated crash state converges without duplicates."""
    from cb import streaming
    from cb.build import build_index

    base_us = 1_767_571_200_000_000

    def msgs(day, start, n):
        return [
            {
                "doc_id": 1 + start + i,
                "text": f"stream alpha beta gamma m{start + i % 7}",
                "ts": base_us + day * 86_400_000_000,
            }
            for i in range(n)
        ]

    buf = streaming.StreamBuffer.remote(num_partitions=1)
    try:
        drain = str(tmp_path / "drain")
        c = streaming.StreamConsumer(buf, drain, batch_max=64)
        fed_dir = str(tmp_path / "fed")
        federated.init_federation(
            fed_dir, text_col="text", id_col="doc_id", ts_col="ts",
            prefix="cb-", num_parts=4,
        )

        # bootstrap tick: day-0 messages through the stream
        ray.get(buf.push.remote(0, msgs(0, 0, 25)))
        c.tick()
        fed0 = federated.ingest_new_shards(drain, fed_dir)
        assert fed0["changed"] == ["cb-20260105"]

        # live tick: new messages land in day 1 only
        ray.get(buf.push.remote(0, msgs(1, 100, 30)))
        c.tick()
        day0_before = _dir_state(os.path.join(fed_dir, "index=cb-20260105"))
        fed = federated.ingest_new_shards(drain, fed_dir)
        assert fed["changed"] == ["cb-20260106"]
        assert _dir_state(os.path.join(fed_dir, "index=cb-20260105")) == day0_before

        # no-op tick
        fed2 = federated.ingest_new_shards(drain, fed_dir)
        assert fed2["changed"] == []

        # crash window A (before state write): a shard re-staged by a
        # dying ingest overwrites its deterministic files -> staging
        # row-count unchanged after a manual re-stage
        import cb.manifest as manifest

        with open(federated.fed_meta_path(fed_dir)) as f:
            fg = json.load(f)
        cfg = {k: fg[k] for k in (
            "prefix", "type_name", "one_index_per_type", "routing", "ts_col",
            "route_col", "text_col", "id_col", "num_parts", "range_bits",
            "positions",
        )}
        shard0 = sorted(
            f for f in os.listdir(drain) if f.endswith(".parquet")
        )[0]
        day0_staging = federated.staging_dir(fed_dir, "cb-20260105")
        rows_before = sum(
            pq.read_table(os.path.join(day0_staging, f)).num_rows
            for f in os.listdir(day0_staging)
            if f.endswith(".parquet")
        )
        ray.get(
            federated._stage_shard.remote(
                os.path.join(drain, shard0), fed_dir, cfg
            )
        )
        rows_after = sum(
            pq.read_table(os.path.join(day0_staging, f)).num_rows
            for f in os.listdir(day0_staging)
            if f.endswith(".parquet")
        )
        assert rows_after == rows_before  # overwrite, never append

        # crash window B (after state write, before rebuild): dirty keys
        # persisted -> the next ingest call completes the rebuild even
        # with no new shards
        with open(federated._ingest_state_path(fed_dir)) as f:
            st = json.load(f)
        manifest.write_atomic(
            federated._ingest_state_path(fed_dir),
            {"ingested": st["ingested"], "dirty": ["cb-20260105"]},
        )
        fed3 = federated.ingest_new_shards(drain, fed_dir)
        assert fed3["changed"] == ["cb-20260105"]

        # correctness vs monolithic over everything consumed
        union = str(tmp_path / "union.parquet")
        tabs = [
            pq.read_table(os.path.join(drain, f))
            for f in sorted(os.listdir(drain))
            if f.endswith(".parquet")
        ]
        pq.write_table(pa.concat_tables(tabs), union)
        mono = str(tmp_path / "mono")
        build_index(union, mono, text_col="text", id_col="doc_id", num_parts=4)
        mono_ls = LocalSearcher(mono)
        day_ls = [LocalSearcher(e["dir"], fed=fed_dir) for e in fed3["indexes"]]
        for q in ["alpha m3", "gamma m1 m5"]:
            got = _merge_topk([ls.query(q, k=10, algo="taat") for ls in day_ls], 10)
            assert got == mono_ls.query(q, k=10, algo="taat"), q
    finally:
        ray.kill(buf)


def test_delete_and_compact_federation(fed_built, tmp_path):
    """Fed-level deletes route to the owning day-index only; ranking
    masks them identically to a monolithic index with the same
    tombstones; compaction shrinks fed stats to the survivor corpus."""
    from cb.build import build_index
    from cb.shard import delete_docs

    src, _, _, _ = fed_built
    fd = str(tmp_path / "fed")
    fed = federated.build_federation(
        src, fd, text_col="text", id_col="doc_id", ts_col="ts",
        prefix="cb-", columns=["doc_id", "text"], num_parts=4,
    )
    mono = str(tmp_path / "mono")
    build_index(src, mono, text_col="text", id_col="doc_id", num_parts=4)

    # doc_id = 1 + i*17, day = i % 3: i=0 -> day0, i=1 -> day1
    dead = [1, 18]
    routed = federated.delete_docs_federated(fd, dead + [999_983])
    assert routed == {"cb-20260105": 1, "cb-20260106": 1}
    assert not os.path.exists(
        os.path.join(fd, "index=cb-20260107", "_tombstones.json")
    )

    delete_docs(mono, dead)
    mono_ls = LocalSearcher(mono)
    day_ls = [LocalSearcher(e["dir"], fed=fd) for e in fed["indexes"]]
    for q in QUERIES:
        got = _merge_topk([ls.query(q, k=10, algo="taat") for ls in day_ls], 10)
        assert got == mono_ls.query(q, k=10, algo="taat"), q
        assert not ({r[0] for r in got} & set(dead))

    fed2 = federated.compact_federation(fd)
    # survivors-only monolithic build == compacted federation
    docs = pq.read_table(src)
    import pyarrow.compute as pc

    surv = str(tmp_path / "surv.parquet")
    pq.write_table(
        docs.filter(
            pc.invert(pc.is_in(docs["doc_id"], value_set=pa.array(dead)))
        ),
        surv,
    )
    mono2 = str(tmp_path / "mono2")
    build_index(surv, mono2, text_col="text", id_col="doc_id", num_parts=4)
    from cb.build import IndexMeta

    m2 = IndexMeta(mono2)
    assert fed2["n_docs"] == m2.n_docs
    assert fed2["total_tokens"] == m2.total_tokens
    assert fed2["avgdl"] == m2.avgdl
    mono2_ls = LocalSearcher(mono2)
    day_ls2 = [LocalSearcher(e["dir"], fed=fd) for e in fed2["indexes"]]
    for q in QUERIES:
        got = _merge_topk([ls.query(q, k=10, algo="taat") for ls in day_ls2], 10)
        assert got == mono2_ls.query(q, k=10, algo="taat"), q


def test_fed_cli(tmp_path):
    """fed build + day-pruned search through the CLI (subprocess: the
    CLI owns its own Ray session)."""
    import subprocess
    import sys

    src = str(tmp_path / "docs.parquet")
    _mk_corpus(src, n=60)
    fd = str(tmp_path / "fed")
    r = subprocess.run(
        [sys.executable, "-m", "cb.cli", "fed", "build", "--fed", fd,
         "--input", src, "--text-col", "text", "--id-col", "doc_id",
         "--ts-col", "ts", "--prefix", "cb-", "--num-parts", "4"],
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    info = json.loads(r.stdout.strip().splitlines()[-1])
    assert info["indexes"] == ["cb-20260105", "cb-20260106", "cb-20260107"]
    assert info["n_docs"] == 60

    r = subprocess.run(
        [sys.executable, "-m", "cb.cli", "fed", "search", "--fed", fd,
         "--query", "merge join", "-k", "5",
         "--start-day", "20260106", "--end-day", "20260107"],
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert 0 < len(out["results"]) <= 5


def test_phrase_across_federation(fed_built):
    src, mono, fed_dir, meta = fed_built
    mono_ls = LocalSearcher(mono)
    eng = federated.FederatedEngine(fed_dir, num_servers=2)
    try:
        for q in ["merge join", "index scan", "hash index"]:
            assert eng.phrase_query(q, k=10) == mono_ls.phrase_query(q, k=10), q
    finally:
        eng.shutdown()


def test_mlt_and_pagination_federated(fed_built):
    """Federated more_like_this == monolithic (feddf overlay gives
    fed-global dfs from any sub-engine); fed search_after pages tile
    the fed ranking."""
    from cb.shard import QueryEngine

    src, mono, fed_dir, meta = fed_built
    docs = pq.read_table(src)
    target_id = docs["doc_id"][0].as_py()
    text = docs["text"][0].as_py()
    mono_eng = QueryEngine(mono, num_servers=2)
    eng = federated.FederatedEngine(fed_dir, num_servers=2)
    try:
        got = eng.more_like_this(text, k=10, exclude=target_id)
        want = mono_eng.more_like_this(text, k=10, exclude=target_id)
        assert got == want and got
        # pagination tiles the federated ranking
        q = "merge join w3"
        full = eng.query(q, k=40)
        pages, after = [], None
        while True:
            page = eng.search_after(q, k=6, after=after)
            if not page:
                break
            pages.extend(page)
            after = (page[-1][1], page[-1][0])
            if len(pages) >= len(full):
                break
        assert pages[: len(full)] == full
    finally:
        eng.shutdown()
        mono_eng.shutdown()


def test_wand_on_federation_routes_to_exact_taat(fed_built, monkeypatch):
    """Every wand request on a fed member must produce the exact (taat)
    ranking, and it is served by WAND itself: block bounds are computed
    at query time with the federation's avgdl overlay, not the
    sub-index's build avgdl."""
    from cb import wand

    calls = []
    real = wand.topk_wand

    def counting(*a, **kw):
        calls.append(1)
        return real(*a, **kw)

    monkeypatch.setattr(wand, "topk_wand", counting)
    src, mono, fed_dir, meta = fed_built
    mono_ls = LocalSearcher(mono)
    # an explicit wand request on a fed member must still be exact
    day_ls = [LocalSearcher(e["dir"], fed=fed_dir) for e in meta["indexes"]]
    eng = federated.FederatedEngine(fed_dir, num_servers=2)
    try:
        for q in QUERIES:
            expect = mono_ls.query(q, k=10, algo="taat")
            before = len(calls)
            got_local = _merge_topk([ls.query(q, k=10, algo="wand") for ls in day_ls], 10)
            assert len(calls) - before == len(day_ls), ("wand not run", q)
            assert got_local == expect, ("local-wand", q)
            assert eng.query(q, k=10, algo="wand") == expect, ("pool-wand", q)
    finally:
        eng.shutdown()


def test_fed_docmeta_requires_id_col(tmp_path):
    src = str(tmp_path / "docs.parquet")
    _mk_corpus(src, n=30)
    fd = str(tmp_path / "fed")
    federated.build_federation(
        src, fd, text_col="text", id_col="doc_id", ts_col="ts",
        prefix="cb-", num_parts=2,
    )
    # a federation whose ids are derived (id_col=None) can't join its
    # docmeta back to staging rows — must raise, not silently mis-key
    import cb.manifest as manifest

    with open(federated.fed_meta_path(fd)) as f:
        fg = json.load(f)
    fg["id_col"] = None
    manifest.write_atomic(federated.fed_meta_path(fd), fg)
    with pytest.raises(ValueError, match="id_col"):
        federated.ensure_fed_docmeta(fd, ["kind"])


def _mf_day_corpus(n=120, ndays=3, seed=31):
    rng = np.random.default_rng(seed)
    vocab = [f"tok{i}" for i in range(40)]
    rows = []
    epoch = 1_700_000_000_000_000  # us
    for i in range(n):
        body = " ".join(rng.choice(vocab, size=rng.integers(6, 25)))
        title = " ".join(rng.choice(vocab, size=rng.integers(2, 5)))
        rows.append(
            {
                "doc_id": int(rng.integers(0, 1 << 60)),
                "body": body,
                "title": title,
                "ts": epoch + (i % ndays) * 86_400_000_000,
            }
        )
    t = pa.Table.from_pylist(rows)
    return t.set_column(
        t.schema.get_field_index("ts"), "ts", t["ts"].cast(pa.timestamp("us"))
    )


def test_multifield_federation_bitwise_equals_monolithic(tmp_path, ray_session):
    """Mapping JSON -> analyzed fields -> per-day indexes -> one query:
    the multifield federation's merged top-k is BITWISE the monolithic
    multifield searcher over the union corpus (per-field fed-global
    N/avgdl/df)."""
    from cb import federated, multifield

    t = _mf_day_corpus()
    src = str(tmp_path / "docs.parquet")
    pq.write_table(t, src)

    fed_dir = str(tmp_path / "fed")
    federated.build_federation(
        ray.data.read_parquet(src), fed_dir,
        fields=["body", "title"], id_col="doc_id", ts_col="ts",
        prefix="mf-", num_parts=4,
    )
    with open(federated.fed_meta_path(fed_dir)) as f:
        fg = json.load(f)
    assert len(fg["indexes"]) == 3 and set(fg["field_stats"]) == {"body", "title"}

    mono_dir = str(tmp_path / "mono")
    multifield.build_multifield(
        ray.data.read_parquet(src), mono_dir, ["body", "title"],
        id_col="doc_id", num_parts=4,
    )
    mono = multifield.MultiFieldSearcher(mono_dir)

    eng = federated.FederatedMultiFieldEngine(fed_dir)
    try:
        # every member pre-decodes its fields; scoring is unchanged
        assert eng.warm(min_df=0) > 0
        for q in (
            "tok1 tok2", "title:tok3 tok4", "tok5 -tok6", "tok7 tok8 tok9",
            'tok1 "tok2 tok3"', 'title:"tok4 tok5" tok6',
            "tok1^2 tok2", "+tok3 tok4 tok5", 'title:tok6^3 tok7',
            "tok1* tok5", "tok12~1 tok3",
        ):
            assert eng.search(q, k=10) == mono.search(q, k=10), q
        # day pruning: single member == that member's slice only
        name0 = fg["indexes"][0]["name"]
        member_only = eng.search("tok1 tok2", k=10, names=[name0])
        sub = multifield.MultiFieldSearcher(fg["indexes"][0]["dir"], fed=fed_dir)
        assert member_only == sub.search("tok1 tok2", k=10)
    finally:
        eng.shutdown()

    # engine-type guard
    with pytest.raises(ValueError, match="MULTIFIELD"):
        federated.FederatedEngine(fed_dir)


def test_multifield_federation_streaming_ingest(tmp_path, ray_session):
    """init_federation(fields=...) + ingest_new_shards ticks converge to
    the same bitwise state as one bulk multifield federation build —
    the streaming -> multifield closure."""
    from cb import federated, multifield

    t = _mf_day_corpus(n=90)
    shards = tmp_path / "shards"
    shards.mkdir()
    for i in range(3):
        pq.write_table(t.slice(i * 30, 30), str(shards / f"shard-{i:05d}.parquet"))

    fed_dir = str(tmp_path / "fed_stream")
    federated.init_federation(
        fed_dir, fields=["body", "title"], id_col="doc_id", ts_col="ts",
        prefix="mf-", num_parts=4,
    )
    # two ticks: first two shards, then the third (incremental)
    federated.ingest_new_shards(str(shards), fed_dir, stop_after="shard-00001.parquet")
    out = federated.ingest_new_shards(str(shards), fed_dir)
    assert out["n_docs"] == 90

    bulk_dir = str(tmp_path / "fed_bulk")
    src = str(tmp_path / "all.parquet")
    pq.write_table(t, src)
    federated.build_federation(
        ray.data.read_parquet(src), bulk_dir,
        fields=["body", "title"], id_col="doc_id", ts_col="ts",
        prefix="mf-", num_parts=4,
    )
    a = federated.FederatedMultiFieldEngine(fed_dir)
    b = federated.FederatedMultiFieldEngine(bulk_dir)
    try:
        for q in ("tok1 tok2", "title:tok3", "tok5 tok7"):
            assert a.search(q, k=10) == b.search(q, k=10), q
    finally:
        a.shutdown()
        b.shutdown()


def test_multifield_federation_deletes(tmp_path, ray_session):
    """DELETE-by-id routes to the owning day of a MULTIFIELD federation
    (docstats of the first field define membership, tombstones land at
    the member level) and every field's scores mask the doc."""
    from cb import federated, multifield

    t = _mf_day_corpus(n=80)
    src = str(tmp_path / "docs.parquet")
    pq.write_table(t, src)
    fed_dir = str(tmp_path / "fed")
    federated.build_federation(
        ray.data.read_parquet(src), fed_dir,
        fields=["body", "title"], id_col="doc_id", ts_col="ts",
        prefix="mf-", num_parts=4,
    )
    eng = federated.FederatedMultiFieldEngine(fed_dir)
    try:
        before = eng.search("tok1 tok2 tok3", k=5)
        assert before
        victim = before[0][0]
        routed = federated.delete_docs_federated(fed_dir, [victim, 10**17])
        assert sum(routed.values()) == 1  # absent id matched nowhere
    finally:
        eng.shutdown()
    # fresh engine picks up the tombstone (documented delete contract)
    eng2 = federated.FederatedMultiFieldEngine(fed_dir)
    try:
        after = eng2.search("tok1 tok2 tok3", k=5)
        assert victim not in {d for d, _ in after}
    finally:
        eng2.shutdown()


def test_multifield_federation_compaction_bitwise(tmp_path, ray_session):
    """Delete + compact a MULTIFIELD federation: stats and search
    results are bitwise a fresh multifield federation over the
    survivors (per-field N/avgdl/df all shrink)."""
    from cb import federated

    t = _mf_day_corpus(n=70, seed=37)
    src = str(tmp_path / "docs.parquet")
    pq.write_table(t, src)
    fed_dir = str(tmp_path / "fed")
    federated.build_federation(
        ray.data.read_parquet(src), fed_dir,
        fields=["body", "title"], id_col="doc_id", ts_col="ts",
        prefix="mf-", num_parts=4,
    )
    victims = sorted(t["doc_id"].to_pylist())[:7]
    federated.delete_docs_federated(fed_dir, victims)
    fed = federated.compact_federation(fed_dir)

    surv = t.filter(
        pa.compute.invert(pa.compute.is_in(t["doc_id"], value_set=pa.array(victims)))
    )
    src2 = str(tmp_path / "surv.parquet")
    pq.write_table(surv, src2)
    fresh_dir = str(tmp_path / "fresh")
    fresh = federated.build_federation(
        ray.data.read_parquet(src2), fresh_dir,
        fields=["body", "title"], id_col="doc_id", ts_col="ts",
        prefix="mf-", num_parts=4,
    )
    assert fed["field_stats"] == fresh["field_stats"]
    a = federated.FederatedMultiFieldEngine(fed_dir)
    b = federated.FederatedMultiFieldEngine(fresh_dir)
    try:
        for q in ("tok1 tok2", "title:tok3", "tok5 tok7 tok9"):
            assert a.search(q, k=10) == b.search(q, k=10), q
    finally:
        a.shutdown()
        b.shutdown()


def test_multifield_federation_aggregations(tmp_path, ray_session):
    """Facets/histogram over the federation-wide MULTIFIELD match set:
    per-member full-match aggregation + exact additive fold equals the
    monolithic multifield aggregation (membership is stats-independent,
    members hold disjoint docs)."""
    from cb import docmeta as docmeta_mod, federated, multifield

    t = _mf_day_corpus()
    t = t.append_column(
        "cat", pa.array(["even" if i % 2 == 0 else "odd" for i in range(t.num_rows)])
    ).append_column(
        "nlen", pa.array([(i * 7) % 300 for i in range(t.num_rows)], pa.int64())
    )
    src = str(tmp_path / "docs.parquet")
    pq.write_table(t, src)

    fed_dir = str(tmp_path / "fed")
    federated.build_federation(
        ray.data.read_parquet(src), fed_dir,
        fields=["body", "title"], id_col="doc_id", ts_col="ts",
        prefix="mf-", num_parts=4,
    )
    federated.ensure_fed_docmeta(fed_dir, ["cat", "nlen"])

    mono_dir = str(tmp_path / "mono")
    multifield.build_multifield(
        ray.data.read_parquet(src), mono_dir, ["body", "title"],
        id_col="doc_id", num_parts=4,
    )
    docmeta_mod.ensure_docmeta(
        multifield.field_dir(mono_dir, "body"), src, ["cat", "nlen"],
        id_col="doc_id",
    )
    mono = multifield.MultiFieldSearcher(mono_dir)

    eng = federated.FederatedMultiFieldEngine(fed_dir)
    try:
        for q in (
            "tok1 tok2", "tok5 -tok6", 'tok1 "tok2 tok3"', "+tok3 tok4",
            "tok1^2 tok2 msm:2", "absentxyz",
        ):
            assert eng.facets(q, facet_cols=["cat"], stats_cols=["nlen"]) == \
                mono.facet_counts(q, facet_cols=["cat"], stats_cols=["nlen"]), q
            assert eng.histogram(q, {"nlen": 50}) == mono.histogram(q, {"nlen": 50}), q
            rngs = {"nlen": [(None, 100), (100, 200), (200, None)]}
            assert eng.range_agg(q, rngs) == mono.range_counts(q, rngs), q
            assert eng.top_hits(q, "cat", 3) == mono.top_hits(q, "cat", 3), q
            merged = mono.composite_counts(q, ["cat"])
            mkeys = sorted(merged)
            p1, a1 = eng.composite(q, ["cat"], size=1)
            assert p1 == [(k, merged[k]) for k in mkeys[:1]], q
            if a1 is not None:
                p2, _ = eng.composite(q, ["cat"], size=1, after=a1)
                assert p2 == [(k, merged[k]) for k in mkeys[1:2]], q
        # day pruning: one member == that member's own slice aggregation
        with open(federated.fed_meta_path(fed_dir)) as f:
            fg = json.load(f)
        name0 = fg["indexes"][0]["name"]
        sub = multifield.MultiFieldSearcher(fg["indexes"][0]["dir"], fed=fed_dir)
        assert eng.facets("tok1 tok2", facet_cols=["cat"], names=[name0]) == \
            sub.facet_counts("tok1 tok2", facet_cols=["cat"])

        # MLT: fed members select identical terms (fed-global df), so
        # the merged ranking is bitwise the monolithic multifield MLT
        like = {"body": "tok1 tok2 tok3 tok4", "title": "tok2 tok5"}
        some_id = mono.search("tok1", k=1)[0][0]
        for exclude in (None, some_id):
            assert eng.more_like_this(like, k=10, exclude=exclude) == \
                mono.more_like_this(like, k=10, exclude=exclude), exclude

        # search_after: page 2 of the fed ranking == monolithic slice
        full = mono.search("tok1 tok2 tok3", k=12)
        after = (full[3][1], full[3][0])
        assert eng.search_after("tok1 tok2 tok3", k=6, after=after) == \
            mono.search_after("tok1 tok2 tok3", k=6, after=after)

        # significant_terms: member fg counts + fed-global df/N == mono
        for field in ("body", "title"):
            assert eng.significant_terms("tok1 tok2", field, top_n=5, min_df=1) == \
                mono.significant_terms("tok1 tok2", field, top_n=5, min_df=1), field
    finally:
        eng.shutdown()


def test_federated_range_composite_top_hits(fed_built, tmp_path):
    """The round-5 aggregations across the federation: range counts,
    composite pages, and per-group top hits are each BITWISE the
    monolithic pool's output (disjoint doc sets; feddf overlay makes
    top_hits idf federation-global)."""
    import pyarrow.compute as pc

    from cb import docmeta as docmeta_mod
    from cb.build import build_index
    from cb.shard import QueryEngine

    src, _mono, _fed_dir, _meta = fed_built
    t = pq.read_table(src)
    t = t.append_column("nlen", pc.utf8_length(t["text"]).cast(pa.int64()))
    src2 = str(tmp_path / "docs2.parquet")
    pq.write_table(t, src2)

    fd = str(tmp_path / "fedagg")
    federated.build_federation(
        src2, fd, text_col="text", id_col="doc_id", ts_col="ts",
        prefix="cb-", num_parts=4,
    )
    federated.ensure_fed_docmeta(fd, ["kind", "nlen"])
    mono2 = str(tmp_path / "mono2")
    build_index(src2, mono2, text_col="text", id_col="doc_id", num_parts=4)
    docmeta_mod.ensure_docmeta(mono2, src2, ["kind", "nlen"])

    mono_eng = QueryEngine(mono2, num_servers=2)
    eng = federated.FederatedEngine(fd, num_servers=2)
    ranges = {"nlen": [(None, 60), (60, 120), (120, None)]}
    try:
        for q in ("merge index", "hash kind:type0", "w1 w2", "nosuchterm"):
            assert eng.range_agg(q, ranges) == mono_eng.range_agg(q, ranges), q
            for size in (2, 5):
                pf, af = eng.composite(q, ["kind"], size)
                pm, am = mono_eng.composite(q, ["kind"], size)
                assert (pf, af) == (pm, am), (q, size)
                if af is not None:
                    assert eng.composite(q, ["kind"], size, after=af) == \
                        mono_eng.composite(q, ["kind"], size, after=am), (q, size)
        for q in QUERIES:
            assert eng.top_hits(q, "kind", 3) == mono_eng.top_hits(q, "kind", 3), q
            assert eng.collapse(q, "kind", 2) == mono_eng.collapse(q, "kind", 2), q
            assert eng.percentile_ranks(q, "nlen", [50, 100]) == \
                mono_eng.percentile_ranks(q, "nlen", [50, 100]), q
        # member selection: one member's range counts == a pool over
        # that member's own sub-index (membership is stats-independent)
        with open(federated.fed_meta_path(fd)) as f:
            fg = json.load(f)
        name0 = fg["indexes"][0]["name"]
        sub_eng = QueryEngine(fg["indexes"][0]["dir"], num_servers=2)
        try:
            assert eng.range_agg("merge index", ranges, names=[name0]) == \
                sub_eng.range_agg("merge index", ranges)
        finally:
            sub_eng.shutdown()
    finally:
        eng.shutdown()
        mono_eng.shutdown()


def test_fed_function_score_prefix_and_term_vectors(tmp_path, ray_session):
    """Round-5 API closure: function_score, match_phrase_prefix and
    term_vectors across the federation == the monolithic pool,
    bitwise."""
    from cb import docmeta as dm
    from cb.build import build_index
    from cb.shard import QueryEngine

    d = tmp_path
    src = str(d / "docs.parquet")
    _mk_corpus(src)
    # add the numeric feature column function_score needs
    t = pq.read_table(src)
    n_chars = pa.array([len(x) for x in t["text"].to_pylist()], pa.int64())
    pq.write_table(t.append_column("n_chars", n_chars), src)
    mono = str(d / "mono")
    build_index(src, mono, text_col="text", id_col="doc_id", num_parts=4)
    dm.ensure_docmeta(mono, src, ["n_chars"])
    fed_dir = str(d / "fed")
    meta = federated.build_federation(
        src, fed_dir, text_col="text", id_col="doc_id", ts_col="ts",
        prefix="cb-", columns=["doc_id", "text", "n_chars"], num_parts=4,
    )
    federated.ensure_fed_docmeta(fed_dir, ["n_chars"])
    mono_eng = QueryEngine(mono, num_servers=2)
    eng = federated.FederatedEngine(fed_dir, num_servers=2)
    try:
        spec = {"kind": "saturation", "col": "n_chars", "w": 3.0, "pivot": 50}
        dec = {"kind": "linear_decay", "col": "n_chars", "origin": 80, "scale": 60}
        for s in (spec, dec):
            got = eng.function_score("merge join w3", s, k=10)
            want = mono_eng.function_score("merge join w3", s, k=10)
            assert got == want and got, s["kind"]
        for q in ("merge jo", "hash ind", "index sc", "w3 w1"):
            got = eng.phrase_prefix_query(q, k=10, max_expansions=None)
            want = mono_eng.phrase_prefix_query(q, k=10, max_expansions=None)
            assert got == want, q
        ids = sorted(pq.read_table(src)["doc_id"].to_pylist())[:4]
        assert eng.term_vectors(ids) == mono_eng.term_vectors(ids)
        assert eng.term_vectors(ids)  # non-empty
    finally:
        eng.shutdown()
        mono_eng.shutdown()


def test_multifield_fed_function_score_bitwise(tmp_path, ray_session):
    """Federated multifield function_score == monolithic multifield
    function_score, bitwise (fed-global per-field stats + local feature
    combine over disjoint member doc sets)."""
    from cb import docmeta as dm
    from cb import federated, multifield

    t = _mf_day_corpus()
    n_chars = pa.array([len(x) for x in t["body"].to_pylist()], pa.int64())
    t = t.append_column("n_chars", n_chars)
    src = str(tmp_path / "docs.parquet")
    pq.write_table(t, src)

    fed_dir = str(tmp_path / "fed")
    federated.build_federation(
        ray.data.read_parquet(src), fed_dir,
        fields=["body", "title"], id_col="doc_id", ts_col="ts",
        prefix="mf-", num_parts=4,
        columns=["doc_id", "body", "title", "n_chars"],
    )
    federated.ensure_fed_docmeta(fed_dir, ["n_chars"])

    mono_dir = str(tmp_path / "mono")
    multifield.build_multifield(
        ray.data.read_parquet(src), mono_dir, ["body", "title"],
        id_col="doc_id", num_parts=4,
    )
    dm.ensure_docmeta(multifield.field_dir(mono_dir, "body"), src, ["n_chars"])
    mono = multifield.MultiFieldSearcher(mono_dir)

    eng = federated.FederatedMultiFieldEngine(fed_dir)
    try:
        sat = {"kind": "saturation", "col": "n_chars", "w": 4.0, "pivot": 60}
        dec = {"kind": "linear_decay", "col": "n_chars", "origin": 90, "scale": 70}
        for spec in (sat, dec):
            for q in ("tok1 tok2", "title:tok3 tok4", "tok5 tok7 tok9"):
                got = eng.function_score(q, spec, k=10)
                want = mono.function_score(q, spec, k=10)
                assert got == want, (spec["kind"], q)
                assert got  # non-degenerate
    finally:
        eng.shutdown()


def test_indices_boost(fed_built):
    """ES indices_boost: all-1.0 boosts == the plain federated query;
    a demoted/promoted member reorders with EXACT w*score values; a
    non-positive boost is rejected (it would invalidate the per-member
    top-k cut)."""
    src, mono, fed_dir, meta = fed_built
    eng = federated.FederatedEngine(fed_dir, num_servers=2)
    names = [e["name"] for e in meta["indexes"]]
    try:
        q = "merge join"
        plain = eng.query(q, k=30)
        assert eng.query_boosted(q, k=30) == plain
        assert eng.query_boosted(
            q, k=30, indices_boost={n: 1.0 for n in names}
        ) == plain
        ib = {names[0]: 0.25, names[1]: 2.0}
        boosted = dict(eng.query_boosted(q, k=10**6, indices_boost=ib))
        per_member = {
            n: dict(eng.query(q, k=10**6, names=[n])) for n in names
        }
        for n, w in [(names[0], 0.25), (names[1], 2.0), (names[2], 1.0)]:
            for d, s in per_member[n].items():
                assert boosted[d] == (s * w if w != 1.0 else s), (n, d)
        with pytest.raises(ValueError, match="> 0"):
            eng.query_boosted(q, indices_boost={names[0]: 0.0})
    finally:
        eng.shutdown()


def test_retention_expire_members(fed_built, tmp_path):
    """ILM delete-phase analog: expiring the oldest day republishes
    fed-global stats over the survivors, so the retained federation is
    BITWISE a federation freshly built without that day; dropping
    everything is refused; member dirs/staging actually go away.
    (Builds its own federation — fed.json member dirs are absolute, so
    mutating a copied tree would reach into the shared fixture.)"""
    src, mono, fed_dir, meta = fed_built
    fd = str(tmp_path / "fed_ret")
    federated.build_federation(
        src, fd, text_col="text", id_col="doc_id", ts_col="ts",
        prefix="cb-", columns=["doc_id", "text"], num_parts=4,
    )
    out = federated.expire_members(fd, "20260106")
    assert out["dropped"] == ["cb-20260105"]
    with open(federated.fed_meta_path(fd)) as f:
        fg = json.load(f)
    assert [e["name"] for e in fg["indexes"]] == ["cb-20260106", "cb-20260107"]
    for e in out["indexes"]:
        assert os.path.exists(e["dir"]), e["name"]
    assert not os.path.exists(os.path.join(fd, "index=cb-20260105"))
    assert not os.path.exists(federated.staging_dir(fd, "cb-20260105"))

    # fresh federation over only the surviving days
    t = pq.read_table(src)
    cutoff = pa.scalar(
        1_767_571_200_000_000 + 86_400_000_000, type=pa.timestamp("us")
    )
    import pyarrow.compute as pc

    surv = t.filter(pc.greater_equal(t["ts"], cutoff))
    src2 = str(tmp_path / "surv.parquet")
    pq.write_table(surv, src2)
    fresh_dir = str(tmp_path / "fed_fresh")
    federated.build_federation(
        src2, fresh_dir, text_col="text", id_col="doc_id", ts_col="ts",
        prefix="cb-", columns=["doc_id", "text"], num_parts=4,
    )
    a = federated.FederatedEngine(fd, num_servers=2)
    b = federated.FederatedEngine(fresh_dir, num_servers=2)
    try:
        for q in ["merge join", "index scan", "w3 w7", "hash index w1"]:
            assert a.query(q, k=20) == b.query(q, k=20), q
    finally:
        a.shutdown()
        b.shutdown()

    with pytest.raises(ValueError, match="every member"):
        federated.expire_members(fd, "99999999")
    # no-op retention
    again = federated.expire_members(fd, "20260101")
    assert again["dropped"] == []


def test_fed_expire_cli(tmp_path):
    import subprocess
    import sys

    src = str(tmp_path / "docs.parquet")
    _mk_corpus(src, n=60)
    fd = str(tmp_path / "fed")
    r = subprocess.run(
        [sys.executable, "-m", "cb.cli", "fed", "build", "--fed", fd,
         "--input", src, "--text-col", "text", "--id-col", "doc_id",
         "--ts-col", "ts", "--prefix", "cb-", "--num-parts", "4"],
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    r = subprocess.run(
        [sys.executable, "-m", "cb.cli", "fed", "expire", "--fed", fd,
         "--before-day", "20260106"],
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out["dropped"] == ["cb-20260105"]
    assert out["kept"] == ["cb-20260106", "cb-20260107"]


def test_fed_msearch_matches_sequential(fed_built):
    """Federated msearch == the sequential search loop, bitwise, with
    empty, no-match, and day-selected slots aligned."""
    src, mono, fed_dir, meta = fed_built
    eng = federated.FederatedEngine(fed_dir, num_servers=2)
    try:
        queries = ["merge join", '"hash index" w3', "zzznope", "", "w1 -w2"]
        want = [eng.search(q, k=5) for q in queries]
        got = eng.msearch(queries, k=5)
        assert got == want
        assert want[0] and got[2] == [] and got[3] == []
        d0 = list(eng.engines)[:1]
        want_sel = [eng.search(q, k=5, names=d0) for q in queries]
        assert eng.msearch(queries, k=5, names=d0) == want_sel
    finally:
        eng.shutdown()
