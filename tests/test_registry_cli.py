import json
import subprocess
import sys

import pytest

from cb import registry


def test_builtin_registries():
    assert registry.lookup("analyzer", "code")("camelCase") == ["camel", "case"]
    assert "iis" in registry.names("parser")
    assert "parquet" in registry.names("source")
    assert "minhash" in registry.names("dedup")


def test_unknown_names():
    with pytest.raises(KeyError, match="no parser named"):
        registry.lookup("parser", "nope")
    with pytest.raises(KeyError, match="unknown registry kind"):
        registry.lookup("bogus", "x")


def test_sql_shard_source(tmp_path):
    """S2 parity: SqlShardKeyQuery analog via ray.data.read_sql."""
    import duckdb

    from cb import sources

    path = str(tmp_path / "t.duckdb")
    con = duckdb.connect(path)
    con.sql(
        "CREATE TABLE shard AS SELECT i AS id, 'k' || (i % 3) AS pk, i * 1.5 AS v "
        "FROM range(60) t(i)"
    )
    con.close()
    ds = sources.read_sql_shard(
        "shard", lambda: duckdb.connect(path, read_only=True),
        shard_field="pk", shard_value="k2",
    )
    rows = ds.take_all()
    assert len(rows) == 20
    assert all(r["pk"] == "k2" for r in rows)
    assert registry.lookup("source", "sql") is sources.read_sql_shard


def test_user_registration():
    registry.register("analyzer", "upper", lambda s: s.upper().split())
    assert registry.lookup("analyzer", "upper")("a b") == ["A", "B"]


def test_cli_build_and_query(tmp_path):
    from cb import corpus

    cdir = tmp_path / "corpus"
    cdir.mkdir()
    corpus.write_corpus(str(cdir), 60, seed=42, n_files=2)
    idx = str(tmp_path / "idx")
    # run in a subprocess: the CLI owns its own Ray session
    r = subprocess.run(
        [sys.executable, "-m", "cb.cli", "build", "--input", str(cdir),
         "--index", idx, "--num-parts", "4", "--resumable"],
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    info = json.loads(r.stdout.strip().splitlines()[-1])
    assert info["n_docs"] == 60

    r = subprocess.run(
        [sys.executable, "-m", "cb.cli", "query", "--index", idx,
         "--query", "import return", "-k", "5"],
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out["query"] == "import return"
    assert 0 < len(out["results"]) <= 5
    assert out["results"][0]["score"] >= out["results"][-1]["score"]


def test_cli_filtered_query(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    rows = [
        {"doc_id": i, "text": f"join merge window doc{i}", "lang": ("en", "fr")[i % 2]}
        for i in range(20)
    ]
    src = tmp_path / "docs"
    src.mkdir()
    pq.write_table(pa.Table.from_pylist(rows), str(src / "d.parquet"))
    idx = str(tmp_path / "idx")
    r = subprocess.run(
        [sys.executable, "-m", "cb.cli", "build", "--input", str(src), "--index", idx,
         "--num-parts", "4", "--text-col", "text", "--id-col", "doc_id"],
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    from cb import docmeta as dm

    dm.build_docmeta(str(src / "d.parquet"), idx, ["lang"])
    r = subprocess.run(
        [sys.executable, "-m", "cb.cli", "filtered-query", "--index", idx,
         "--query", "join merge", "--filter", "lang=en", "-k", "20"],
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    got = {d["doc_id"] for d in out["results"]}
    assert got and got <= {i for i in range(20) if i % 2 == 0}


def test_cli_query_file(tmp_path):
    from cb import corpus

    cdir = tmp_path / "corpus"
    cdir.mkdir()
    corpus.write_corpus(str(cdir), 40, seed=42, n_files=1)
    idx = str(tmp_path / "idx")
    r = subprocess.run(
        [sys.executable, "-m", "cb.cli", "build", "--input", str(cdir), "--index", idx,
         "--num-parts", "4"],
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-1500:]
    qf = tmp_path / "queries.txt"
    qf.write_text("import\nreturn def\n\nzebra nothing\n")
    r = subprocess.run(
        [sys.executable, "-m", "cb.cli", "query-file", "--index", idx,
         "--queries", str(qf), "-k", "3", "--algo", "wand"],
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-1500:]
    lines = [json.loads(l) for l in r.stdout.strip().splitlines() if l.startswith("{")]
    assert len(lines) == 3
    assert lines[0]["query"] == "import" and len(lines[0]["results"]) == 3
    assert lines[2]["results"] == []  # absent terms


def test_cli_phrase(tmp_path):
    from cb import corpus

    cdir = tmp_path / "corpus"
    cdir.mkdir()
    corpus.write_corpus(str(cdir), 40, seed=42, n_files=1)
    idx = str(tmp_path / "idx")
    r = subprocess.run(
        [sys.executable, "-m", "cb.cli", "build", "--input", str(cdir), "--index", idx,
         "--num-parts", "4"],
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-1500:]
    r = subprocess.run(
        [sys.executable, "-m", "cb.cli", "phrase", "--index", idx,
         "--query", "zebra quantum", "-k", "5"],
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-1500:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out["results"] == []  # absent phrase


def test_cli_fed_multifield(tmp_path):
    """fed build --fields + fed search auto-selects the multifield
    engine (one subprocess each: the CLI owns its Ray session)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(41)
    vocab = [f"tok{i}" for i in range(30)]
    rows = []
    epoch = 1_700_000_000_000_000
    for i in range(60):
        rows.append(
            {
                "doc_id": int(rng.integers(0, 1 << 50)),
                "body": " ".join(rng.choice(vocab, size=rng.integers(5, 15))),
                "title": " ".join(rng.choice(vocab, size=2)),
                "ts": epoch + (i % 2) * 86_400_000_000,
            }
        )
    t = pa.Table.from_pylist(rows)
    t = t.set_column(t.schema.get_field_index("ts"), "ts", t["ts"].cast(pa.timestamp("us")))
    src = str(tmp_path / "docs.parquet")
    pq.write_table(t, src)
    fed = str(tmp_path / "fed")

    r = subprocess.run(
        [sys.executable, "-m", "cb.cli", "fed", "build", "--fed", fed,
         "--input", src, "--fields", "body,title", "--id-col", "doc_id",
         "--ts-col", "ts", "--prefix", "mf-", "--num-parts", "4"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert len(out["indexes"]) == 2

    r = subprocess.run(
        [sys.executable, "-m", "cb.cli", "fed", "search", "--fed", fed,
         "--query", "title:tok1 tok2", "-k", "5"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    res = json.loads(r.stdout.strip().splitlines()[-1])
    assert "results" in res

    # cursor pagination: --after skips past page 1's last hit
    if len(res["results"]) >= 2:
        cur = res["results"][0]
        r = subprocess.run(
            [sys.executable, "-m", "cb.cli", "fed", "search", "--fed", fed,
             "--query", "title:tok1 tok2", "-k", "5",
             "--after", f"{cur['score']!r}:{cur['doc_id']}"],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr[-2000:]
        page2 = json.loads(r.stdout.strip().splitlines()[-1])["results"]
        assert page2[0]["doc_id"] == res["results"][1]["doc_id"]


def test_cli_fed_aggregations(tmp_path, ray_session):
    """fed search --collapse / --top-hits / --range emit the new
    aggregation families as JSON (single-field fed; docmeta built via
    the library call the flags document)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from cb import federated

    rng = np.random.default_rng(43)
    vocab = [f"tok{i}" for i in range(20)]
    rows = []
    epoch = 1_700_000_000_000_000
    for i in range(50):
        rows.append(
            {
                "doc_id": 1 + i * 13,
                "body": " ".join(rng.choice(vocab, size=rng.integers(5, 15))),
                "kind": f"type{i % 3}",
                "nlen": int(rng.integers(10, 300)),
                "ts": epoch + (i % 2) * 86_400_000_000,
            }
        )
    t = pa.Table.from_pylist(rows)
    t = t.set_column(t.schema.get_field_index("ts"), "ts", t["ts"].cast(pa.timestamp("us")))
    src = str(tmp_path / "docs.parquet")
    pq.write_table(t, src)
    fed = str(tmp_path / "fed")

    r = subprocess.run(
        [sys.executable, "-m", "cb.cli", "fed", "build", "--fed", fed,
         "--input", src, "--text-col", "body", "--id-col", "doc_id",
         "--ts-col", "ts", "--prefix", "cb-", "--num-parts", "4"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    federated.ensure_fed_docmeta(fed, ["kind", "nlen"])

    r = subprocess.run(
        [sys.executable, "-m", "cb.cli", "fed", "search", "--fed", fed,
         "--query", "tok1 tok2", "--collapse", "kind", "-k", "3"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    groups = [h["group"] for h in out["hits"]]
    assert len(groups) == len(set(groups)) and len(groups) >= 1

    r = subprocess.run(
        [sys.executable, "-m", "cb.cli", "fed", "search", "--fed", fed,
         "--query", "tok1 tok2", "--top-hits", "kind", "-k", "2"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert all(len(v) <= 2 for v in out["top_hits"].values())
    assert out["top_hits"]  # at least one group

    r = subprocess.run(
        [sys.executable, "-m", "cb.cli", "fed", "search", "--fed", fed,
         "--query", "tok1 tok2", "--range", "nlen:100,200"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert [(b["lo"], b["hi"]) for b in out["ranges"]] == \
        [(None, 100), (100, 200), (200, None)]
    assert sum(b["count"] for b in out["ranges"]) >= 1


def test_cli_termvectors_and_percolate(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    rows = [
        {"doc_id": 1, "text": "hash join over the big table", "lang": "en"},
        {"doc_id": 2, "text": "merge sort window frame", "lang": "fr"},
        {"doc_id": 3, "text": "table scan then merge", "lang": "en"},
    ]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "idx")
    r = subprocess.run(
        [sys.executable, "-m", "cb.cli", "build", "--input", src,
         "--index", idx, "--num-parts", "2", "--text-col", "text",
         "--id-col", "doc_id"],
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]

    r = subprocess.run(
        [sys.executable, "-m", "cb.cli", "termvectors", "--index", idx,
         "--ids", "1,2"],
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    got = {(x["doc_id"], x["term"]): x for x in out["rows"]}
    assert got[(1, "hash")]["positions"] == [0]
    assert got[(2, "merge")]["tf"] == 1

    r = subprocess.run(
        [sys.executable, "-m", "cb.cli", "percolate", "--input", src,
         "--query", '"hash join"', "--query", "merge -scan"],
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    pairs = {(p["query_id"], p["doc_id"]) for p in out["pairs"]}
    assert pairs == {(0, 1), (1, 2)}


def test_cli_search_stats_delete_suggest(tmp_path):
    """Smoke test for the single-index subcommands without one of their
    own: each exits 0 and prints parseable JSON."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    rows = [
        {"doc_id": 1, "text": "hash join over the big table"},
        {"doc_id": 2, "text": "merge sort window frame"},
        {"doc_id": 3, "text": "table scan then merge"},
    ]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "idx")

    def cli(*argv):
        r = subprocess.run(
            [sys.executable, "-m", "cb.cli", *argv],
            capture_output=True, text=True, timeout=300,
        )
        assert r.returncode == 0, r.stderr[-2000:]
        return json.loads(r.stdout.strip().splitlines()[-1])

    cli("build", "--input", src, "--index", idx, "--num-parts", "2",
        "--text-col", "text", "--id-col", "doc_id")

    stats = cli("stats", "--index", idx)
    assert stats["n_docs"] == 3

    assert cli("delete", "--index", idx, "3") == {"index": idx, "tombstones": 1}

    out = cli("search", "--index", idx, "--query", "merge", "-k", "5")
    assert [d["doc_id"] for d in out["results"]] == [2]  # doc 3 tombstoned

    sugg = cli("suggest", "term", "--index", idx, "--text", "mrege")
    assert [(s["token"], s["suggestion"], s["dist"]) for s in sugg][:1] == [
        ("mrege", "merge", 1)
    ]


def test_cli_watch_and_fed_lifecycle(tmp_path):
    """Smoke test for ``watch`` and the ``fed`` actions without one of
    their own (init, ingest, refresh, delete, compact), over one small
    corpus: each exits 0 and prints parseable JSON."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    rows = [
        {"doc_id": i, "text": t, "kind": k}
        for i, t, k in [
            (1, "hash join over the big table", "code"),
            (2, "merge sort window frame", "code"),
            (3, "table scan then merge", "log"),
            (4, "window frame over sorted rows", "log"),
            (5, "hash table probe", "code"),
            (6, "merge join of two tables", "log"),
        ]
    ]
    shards, extra = tmp_path / "shards", tmp_path / "extra"
    shards.mkdir()
    extra.mkdir()
    pq.write_table(pa.Table.from_pylist(rows[:4]), str(shards / "s0.parquet"))
    pq.write_table(pa.Table.from_pylist(rows[4:]), str(extra / "s1.parquet"))
    fed = str(tmp_path / "fed")

    def cli(*argv):
        r = subprocess.run(
            [sys.executable, "-m", "cb.cli", *argv],
            capture_output=True, text=True, timeout=300,
        )
        assert r.returncode == 0, r.stderr[-2000:]
        return [json.loads(line) for line in r.stdout.strip().splitlines()]

    ticks = cli("watch", "--input", str(shards), "--index", str(tmp_path / "idx"),
                "--max-ticks", "1", "--interval", "0", "--text-col", "text",
                "--id-col", "doc_id", "--num-parts", "2")
    assert [t["n_docs"] for t in ticks] == [4]

    assert cli("fed", "init", "--fed", fed, "--text-col", "text", "--id-col",
               "doc_id", "--route-col", "kind", "--num-parts", "2") == [
        {"fed": fed, "indexes": []}
    ]
    [out] = cli("fed", "ingest", "--fed", fed, "--input", str(shards))
    assert out["changed"] == ["code", "log"]
    [out] = cli("fed", "refresh", "--fed", fed, "--input", str(extra))
    assert out["changed"] == ["code", "log"]
    [out] = cli("fed", "delete", "2", "--fed", fed)  # ids before the options
    assert sum(out["tombstoned"].values()) == 1
    [out] = cli("fed", "delete", "--fed", fed, "3", "4")  # ids after them
    assert sum(out["tombstoned"].values()) == 2
    [out] = cli("fed", "compact", "--fed", fed)
    assert out["n_docs"] == 3
