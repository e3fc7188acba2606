"""The serving data plane (cb.rpc): a dead server fails loudly and at
once, a wrong authkey is refused, server exceptions keep their type,
and replies stay matched to their requests under concurrent callers
and deep pipelines (msearch, federated query_many)."""

import contextlib
import functools
import os
import pickle
import signal
import threading
from multiprocessing.connection import AuthenticationError, Client

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from cb import docmeta as dm
from cb import federated, multifield, rpc
from cb.build import IndexMeta, build_index
from cb.shard import LocalSearcher, QueryEngine, ShardServer

N_DOCS, VOCAB = 400, 200


def _word(i: int) -> str:
    """Term ``i`` of the vocabulary: letters only, so the code-aware
    tokenizer keeps it whole."""
    return "q" + "".join(chr(97 + int(c)) for c in str(i))


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    d = tmp_path_factory.mktemp("rpc")
    rng = np.random.default_rng(3)
    base_us = 1_767_571_200_000_000  # 2026-01-05
    rows = [
        {
            "doc_id": 1 + i * 13,
            # a skewed draw, so terms span a wide df range
            "text": " ".join(
                _word(int(v) % VOCAB) for v in rng.zipf(1.3, int(rng.integers(3, 40)))
            ),
            "lang": ["en", "fr", "de"][i % 3],
            "ts": base_us + (i % 2) * 86_400_000_000,
        }
        for i in range(N_DOCS)
    ]
    t = pa.Table.from_pylist(rows)
    t = t.set_column(t.schema.get_field_index("ts"), "ts", t["ts"].cast(pa.timestamp("us")))
    src = str(d / "docs.parquet")
    pq.write_table(t, src)
    idx = str(d / "idx")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=4)
    dm.ensure_docmeta(idx, src, ["lang"])
    fed = str(d / "fed")
    federated.build_federation(
        src, fed, text_col="text", id_col="doc_id", ts_col="ts",
        columns=["doc_id", "text"], num_parts=4,
    )
    return idx, fed


@pytest.fixture(scope="module")
def built_mf(built, tmp_path_factory):
    """The same documents as a multifield index (fields ``text`` and
    ``lang``) and a multifield federation."""
    idx, _ = built
    d = tmp_path_factory.mktemp("rpc_mf")
    src = os.path.join(os.path.dirname(idx), "docs.parquet")
    mf = str(d / "mf")
    multifield.build_multifield(src, mf, ["text", "lang"], id_col="doc_id", num_parts=4)
    mffed = str(d / "mffed")
    federated.build_federation(
        src, mffed, fields=["text", "lang"], id_col="doc_id", ts_col="ts", num_parts=4,
    )
    return mf, mffed


def _queries(n: int, seed: int) -> list[str]:
    """``n`` distinct 1-3 term queries."""
    rng = np.random.default_rng(seed)
    out: dict[str, None] = {}
    while len(out) < n:
        terms = rng.choice(VOCAB, size=int(rng.integers(1, 4)), replace=False)
        out[" ".join(_word(t) for t in sorted(terms))] = None
    return list(out)


@contextlib.contextmanager
def _deadline(seconds: float):
    """Fail instead of hanging: SIGALRM interrupts a blocked recv."""

    def fire(*_):
        raise TimeoutError(f"no answer within {seconds} s")

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# per engine: (start it over ``(idx, fed, mf, mffed)`` with S servers per
# pool, its actors, one request, the single-process searcher's answer)
_ENGINES = {
    "QueryEngine": (
        lambda ix, s: QueryEngine(ix[0], num_servers=s),
        lambda e: e.servers,
        lambda e, q: e.query(q, k=5),
        lambda ix: functools.partial(LocalSearcher(ix[0]).query, k=5, algo="taat"),
    ),
    "MultiFieldEngine": (
        lambda ix, s: multifield.MultiFieldEngine(ix[2], num_servers=s),
        lambda e: e.servers,
        lambda e, q: e.search(q, k=5),
        lambda ix: functools.partial(multifield.MultiFieldSearcher(ix[2]).search, k=5),
    ),
    "FederatedEngine": (
        lambda ix, s: federated.FederatedEngine(ix[1], num_servers=s),
        lambda e: [a for m in e.engines.values() for a in m.servers],
        lambda e, q: e.query(q, k=5),
        lambda ix: functools.partial(LocalSearcher(ix[0]).query, k=5, algo="taat"),
    ),
    "FederatedMultiFieldEngine": (
        lambda ix, s: federated.FederatedMultiFieldEngine(ix[3]),
        lambda e: [a for m in e.members.values() for a in m.actors],
        lambda e, q: e.search(q, k=5),
        lambda ix: functools.partial(multifield.MultiFieldSearcher(ix[2]).search, k=5),
    ),
}


@pytest.mark.parametrize("engine", list(_ENGINES))
def test_killed_server_raises_naming_it(built, built_mf, engine):
    """Every engine serves through one pool, so a killed actor fails
    the next request loudly, naming the actor, and every answer before
    that is whole and right."""
    start, actors, ask, searcher = _ENGINES[engine]
    ix = (*built, *built_mf)
    want = searcher(ix)
    eng = start(ix, 2)
    try:
        assert ask(eng, "qb qc")
        victim = actors(eng)[1]
        ray.kill(victim)  # asynchronous: the process may answer a while
        with _deadline(10), pytest.raises(rpc.ServerDied) as err:
            for q in _queries(20_000, seed=5):
                assert ask(eng, q) == want(q)
        assert victim._actor_id.hex() in str(err.value)
        assert isinstance(err.value, RuntimeError)
    finally:
        eng.shutdown()
    # a server killed before the engine's first request fails the same way
    eng = start(ix, 1)
    try:
        ray.kill(actors(eng)[0])
        with _deadline(10), pytest.raises(rpc.ServerDied):
            for q in _queries(20_000, seed=6):
                ask(eng, q)
    finally:
        eng.shutdown()


def test_wrong_authkey_is_refused_and_server_keeps_serving(built):
    idx, _ = built
    buckets = list(range(1 << IndexMeta(idx).range_bits))
    server = ShardServer.remote(idx, buckets)
    try:
        address, key = ray.get(server.rpc_address.remote())
        with pytest.raises(AuthenticationError):
            Client(address, authkey=bytes(32))
        conn = rpc.Conn("whole-index server", ray.put((address, key)))
        want = LocalSearcher(idx).query("qb qf", k=5, algo="taat")
        assert want and rpc.get(conn.call("score", ["qb", "qf"], 5)) == want
        # one connection per server: no second endpoint, no second client
        with pytest.raises(RuntimeError, match="already"):
            ray.get(server.rpc_address.remote())
        with pytest.raises(OSError):
            Client(address, authkey=key)
        assert rpc.get(conn.call("score", ["qb", "qf"], 5)) == want
        conn.close()
    finally:
        ray.kill(server)


def test_server_exception_keeps_its_type(built):
    idx, _ = built
    eng = QueryEngine(idx, num_servers=2)
    try:
        with pytest.raises(ValueError, match="docmeta column 'nope'"):
            eng.term_vectors([1, 14], source="store", text_col="nope")
        assert eng.query("qb", k=3)  # the connection is still in step
    finally:
        eng.shutdown()


def test_unpicklable_exception_becomes_runtime_error():
    class Odd(Exception):
        def __init__(self, a, b):  # pickles, but fails to rebuild
            super().__init__(a)

    ok, err = pickle.loads(rpc._dumps((False, Odd(1, 2))))
    assert not ok and type(err) is RuntimeError and "Odd" in str(err)


def test_two_threads_get_their_own_answers(built):
    idx, _ = built
    qs = _queries(1000, seed=11)
    eng = QueryEngine(idx, num_servers=2)
    try:
        got: list = [None, None]

        def run(i: int) -> None:
            got[i] = [eng.query(q, k=5) for q in qs[i * 500:(i + 1) * 500]]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        with _deadline(300):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        eng._results.clear()  # the sequential reference goes to the servers
        want = [eng.query(q, k=5) for q in qs]
    finally:
        eng.shutdown()
    assert got[0] == want[:500] and got[1] == want[500:]
    assert sum(bool(r) for r in want) > 900


def test_deep_pipelines_match_the_loop(built):
    idx, fed = built
    qs = _queries(5000, seed=12)
    eng = QueryEngine(idx, num_servers=2)
    try:
        with _deadline(600):
            got = eng.msearch(qs, k=5)
        want = [eng.search(q, k=5) for q in qs]
    finally:
        eng.shutdown()
    assert got == want
    fe = federated.FederatedEngine(fed, num_servers=2)
    try:
        with _deadline(600):
            got = fe.query_many(qs[:2000], k=5)
        want = [fe.query(q, k=5) for q in qs[:2000]]
    finally:
        fe.shutdown()
    assert got == want
