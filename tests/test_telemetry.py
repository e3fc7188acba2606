"""Per-stage query telemetry (TelemetryProvider analog): counters
populate on the serving path and roll up across the server pool."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from cb import rpc, shard
from cb.build import build_index
from cb.telemetry import Telemetry, merge_snapshots


def test_telemetry_primitives():
    t = Telemetry()
    with t.timer("stage"):
        pass
    t.record("stage", 0.5)
    t.incr("hits")
    t.incr("hits", 2)
    snap = t.snapshot()
    assert snap["timers"]["stage"]["count"] == 2
    assert snap["timers"]["stage"]["max_sec"] == 0.5
    assert snap["counters"]["hits"] == 3
    assert 0.0 <= t.percentile("stage", 0.5) <= 0.5
    merged = merge_snapshots([snap, snap])
    assert merged["timers"]["stage"]["count"] == 4
    assert merged["counters"]["hits"] == 6


def test_query_engine_metrics_populate(tmp_path, ray_session):
    rng = np.random.default_rng(17)
    vocab = [f"tok{i}" for i in range(30)]
    rows = [
        {"doc_id": i, "text": " ".join(rng.choice(vocab, size=rng.integers(5, 20)))}
        for i in range(200)
    ]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=4)

    eng = shard.QueryEngine(idx, num_servers=2)
    try:
        warmed = eng.warm(min_df=0)
        assert warmed > 0
        for q in ("tok1 tok2", "tok3", "tok4 tok5 tok6"):
            eng.query(q, k=5)
        eng.query("tok1 tok2", k=5)  # driver result-cache hit
        m = eng.metrics()
        et = m["engine"]["timers"]
        assert et["query.total"]["count"] == 4
        assert et["query.dispatch"]["count"] == 3  # hit skipped dispatch
        assert et["query.wait"]["count"] == 3
        assert et["query.merge"]["count"] == 3  # doc-sharded merge
        assert m["engine"]["counters"]["query.cache_hit"] == 1
        # server roll-up: 2 servers x 3 distinct queries
        st = m["servers"]["timers"]
        assert st["server.score"]["count"] == 6
        assert m["servers"]["counters"]["server.terms"] > 0
        assert st["server.score"]["total_sec"] > 0
        # warm is timed and counted per server; per-server snapshots
        # sit next to the roll-up
        assert st["server.warm"]["count"] == 2
        assert m["servers"]["counters"]["server.terms_warmed"] == warmed
        assert len(m["per_server"]) == 2
        # engine start splits into each server's init and warm
        assert st["server.init"]["count"] == 2
        for snap in m["per_server"]:
            assert snap["timers"]["server.init"]["count"] == 1
            assert snap["timers"]["server.init"]["total_sec"] > 0
            assert snap["timers"]["server.warm"]["count"] == 1
            assert snap["timers"]["server.score"]["count"] == 3
            assert "server.terms_warmed" in snap["counters"]
        assert sum(s["counters"]["server.terms_warmed"] for s in m["per_server"]) == warmed
    finally:
        eng.shutdown()


def test_federated_metrics_rollup(tmp_path, ray_session):
    import ray

    from cb import federated

    rng = np.random.default_rng(19)
    vocab = [f"tok{i}" for i in range(20)]
    rows = []
    epoch = 1_700_000_000_000_000
    for i in range(80):
        rows.append(
            {
                "doc_id": int(rng.integers(0, 1 << 50)),
                "text": " ".join(rng.choice(vocab, size=rng.integers(4, 12))),
                "ts": epoch + (i % 2) * 86_400_000_000,
            }
        )
    t = pa.Table.from_pylist(rows)
    t = t.set_column(t.schema.get_field_index("ts"), "ts", t["ts"].cast(pa.timestamp("us")))
    src = str(tmp_path / "d.parquet")
    pq.write_table(t, src)
    fed = str(tmp_path / "fed")
    federated.build_federation(
        ray.data.read_parquet(src), fed, text_col="text", id_col="doc_id",
        ts_col="ts", prefix="t-", num_parts=4,
    )
    eng = federated.FederatedEngine(fed, num_servers=2)
    try:
        eng.query("tok1 tok2", k=5)
        m = eng.metrics()
        assert m["engine"]["timers"]["query.total"]["count"] == 1
        assert len(m["members"]) == 2
        assert m["servers"]["timers"].get("server.score", {}).get("count", 0) >= 1
    finally:
        eng.shutdown()


def test_multifield_engine_metrics_populate(tmp_path, ray_session):
    from cb import multifield

    rng = np.random.default_rng(23)
    vocab = [f"tok{i}" for i in range(20)]
    rows = [
        {
            "doc_id": i,
            "title": " ".join(rng.choice(vocab, size=3)),
            "body": " ".join(rng.choice(vocab, size=rng.integers(5, 15))),
        }
        for i in range(150)
    ]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "idx")
    multifield.build_multifield(src, idx, ["title", "body"], id_col="doc_id", num_parts=4)

    eng = multifield.MultiFieldEngine(idx, num_servers=2)
    try:
        for q in ("tok1 tok2", "title:tok3", "tok4 -tok5"):
            eng.search(q, k=5)
        m = eng.metrics()
        et = m["engine"]["timers"]
        assert et["query.total"]["count"] == 3
        assert et["query.dispatch"]["count"] == 3
        assert et["query.wait"]["count"] == 3
        assert et["query.merge"]["count"] == 3
        assert m["servers"]["counters"]["server.scores"] == 6  # 2 servers x 3
        assert m["servers"]["counters"]["server.terms"] > 0
        # one snapshot per actor, in pool order, next to the roll-up
        assert m["per_server"] == [rpc.get(c.call("metrics")) for c in eng.pool.conns]
        assert [s["counters"]["server.scores"] for s in m["per_server"]] == [3, 3]
    finally:
        eng.shutdown()


def test_federated_multifield_metrics(tmp_path, ray_session):
    """The multifield federation reports the single-field federation's
    shape: its own phase timers, the server roll-up, and each member's
    pool metrics (one actor per member)."""
    import ray

    from cb import federated

    rng = np.random.default_rng(29)
    vocab = [f"tok{i}" for i in range(20)]
    epoch = 1_700_000_000_000_000
    rows = [
        {
            "doc_id": int(rng.integers(0, 1 << 50)),
            "title": " ".join(rng.choice(vocab, size=3)),
            "body": " ".join(rng.choice(vocab, size=rng.integers(4, 12))),
            "ts": epoch + (i % 2) * 86_400_000_000,
        }
        for i in range(80)
    ]
    t = pa.Table.from_pylist(rows)
    t = t.set_column(t.schema.get_field_index("ts"), "ts", t["ts"].cast(pa.timestamp("us")))
    src = str(tmp_path / "d.parquet")
    pq.write_table(t, src)
    fed = str(tmp_path / "fed")
    federated.build_federation(
        ray.data.read_parquet(src), fed, fields=["title", "body"], id_col="doc_id",
        ts_col="ts", prefix="t-", num_parts=4,
    )
    eng = federated.FederatedMultiFieldEngine(fed)
    try:
        assert eng.search("tok1 tok2", k=5)
        m = eng.metrics()
        assert set(m) == {"engine", "servers", "members"}
        assert m["engine"]["timers"]["query.total"]["count"] == 1
        assert sorted(m["members"]) == sorted(eng.members) and len(m["members"]) == 2
        for mm in m["members"].values():
            assert set(mm) == {"engine", "servers", "per_server"}
            assert len(mm["per_server"]) == 1
        assert m["servers"]["timers"]["server.score"]["count"] == 2  # one per member
    finally:
        eng.shutdown()

def test_reservoir_covers_whole_stream():
    """Percentiles must reflect the whole stream, not the first
    keep_values samples: feed 50 slow values then 5000 fast ones into a
    keep=50 reservoir — keep-first would report p50 == 1.0 forever."""
    t = Telemetry(keep_values=50)
    for _ in range(50):
        t.record("q", 1.0)
    for _ in range(5000):
        t.record("q", 0.001)
    assert t.percentile("q", 0.5) == 0.001
    snap = t.snapshot()
    assert snap["timers"]["q"]["count"] == 5050
    assert snap["timers"]["q"]["max_sec"] == 1.0
