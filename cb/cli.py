"""Job entry points for ``ray job submit`` (north_rule requirement).

    ray job submit -- python -m cb.cli build --input DIR --index DIR [--resumable]
    ray job submit -- python -m cb.cli query --index DIR --query "hash join" -k 10
    ray job submit -- python -m cb.cli query-file --index DIR --queries FILE -k 10
    ray job submit -- python -m cb.cli phrase --index DIR --query "hash join" -k 10

Owns its Ray session (guarded init — under ``ray job submit`` the
cluster is already up and ``ray.init()`` attaches to it).
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    return ray


def cmd_build(args) -> int:
    ray = _init_ray()
    if args.resumable:
        from .resumable import build_index_resumable

        meta = build_index_resumable(
            args.input, args.index,
            text_col=args.text_col, id_col=args.id_col,
            num_parts=args.num_parts,
        )
    else:
        from .build import build_index

        meta = build_index(
            args.input, args.index,
            text_col=args.text_col, id_col=args.id_col,
            num_parts=args.num_parts,
        )
    print(json.dumps({
        "index": args.index, "n_docs": meta.n_docs,
        "total_tokens": meta.total_tokens, "avgdl": meta.avgdl,
        "num_parts": meta.num_parts,
    }))
    ray.shutdown()
    return 0


def cmd_watch(args) -> int:
    ray = _init_ray()
    from .resumable import watch

    def report(tick, meta):
        print(json.dumps({
            "tick": tick,
            "n_docs": meta.n_docs if meta else 0,
            "total_tokens": meta.total_tokens if meta else 0,
        }), flush=True)

    watch(
        args.input, args.index,
        interval_s=args.interval,
        max_ticks=args.max_ticks,
        on_tick=report,
        text_col=args.text_col, id_col=args.id_col,
        num_parts=args.num_parts,
    )
    ray.shutdown()
    return 0


def cmd_catalog(args) -> int:
    from . import catalog

    if args.action == "add":
        row = catalog.add_source(
            args.catalog, args.name, args.input, args.index,
            text_col=args.text_col, id_col=args.id_col,
            num_parts=args.num_parts, stop_after=args.stop_after,
        )
        print(json.dumps(row))
    elif args.action == "list":
        print(json.dumps(catalog.load_catalog(args.catalog)))
    elif args.action in ("pause", "resume"):
        catalog.set_active(args.catalog, args.name, args.action == "resume")
        print(json.dumps({"name": args.name, "active": args.action == "resume"}))
    elif args.action in ("stop-indexing", "start-indexing"):
        catalog.set_stop_indexing(args.catalog, args.action == "stop-indexing")
        print(json.dumps({"stop_indexing": args.action == "stop-indexing"}))
    elif args.action == "watch":
        ray = _init_ray()

        def report(tick, metas):
            print(json.dumps({
                "tick": tick,
                "sources": {
                    n: (m.n_docs if m else 0) for n, m in metas.items()
                },
            }), flush=True)

        catalog.watch_catalog(
            args.catalog, interval_s=args.interval,
            max_ticks=args.max_ticks, on_tick=report,
        )
        ray.shutdown()
    return 0


def cmd_stats(args) -> int:
    from .build import IndexMeta

    m = IndexMeta(args.index).build_metrics()
    if not args.partitions:
        m.pop("partitions", None)
    print(json.dumps(m))
    return 0


def cmd_delete(args) -> int:
    from .shard import delete_docs

    n = delete_docs(args.index, [int(d) for d in args.doc_ids])
    print(json.dumps({"index": args.index, "tombstones": n}))
    return 0


def cmd_snapshot(args) -> int:
    """Snapshots live in ``<repo>/<name>``; a complete one holds
    ``_snapshot.json`` (cb.snapshot writes it last)."""
    import os

    from . import snapshot as snap

    if args.action == "list":
        names = sorted(os.listdir(args.repo)) if os.path.isdir(args.repo) else []
        complete = [n for n in names if os.path.isfile(os.path.join(args.repo, n, snap.MANIFEST))]
        print(json.dumps({"snapshots": complete}))
        return 0
    if not (args.name and args.index):
        raise SystemExit(f"snapshot {args.action} needs --name and --index")
    snap_dir = os.path.join(args.repo, args.name)
    if args.action == "create":
        m = snap.create_snapshot(args.index, snap_dir)
        print(json.dumps({"name": args.name, "files": m["n_files"]}))
    else:
        m = snap.restore_snapshot(snap_dir, args.index)
        print(json.dumps({"name": args.name, "restored_files": m["n_files"],
                          "target": args.index}))
    return 0


def cmd_suggest(args) -> int:
    """Did-you-mean suggesters: term (per-token candidates) or phrase
    (whole-phrase Stupid-Backoff LM ranking)."""
    ray = _init_ray()
    from .shard import QueryEngine

    engine = QueryEngine(args.index, num_servers=args.servers)
    try:
        if args.kind == "term":
            rows = engine.suggest_term(args.text, k=args.k)
            out = [
                {"pos": p, "token": t, "rank": r, "suggestion": s,
                 "dist": d, "df": df}
                for p, t, r, s, d, df in rows
            ]
        else:
            rows = engine.suggest_phrase(args.text, k=args.k)
            out = [
                {"rank": r, "phrase": ph, "score": sc} for r, ph, sc in rows
            ]
        print(json.dumps(out))
    finally:
        engine.shutdown()
    ray.shutdown()
    return 0


def cmd_termvectors(args) -> int:
    _init_ray()
    from .shard import QueryEngine

    engine = QueryEngine(args.index, num_servers=args.servers)
    try:
        rows = engine.term_vectors(
            [int(x) for x in args.ids.split(",")],
            source="store" if args.store else "index",
        )
    finally:
        engine.shutdown()
    print(json.dumps({
        "rows": [
            {"doc_id": d, "term": t, "tf": tf, "doc_len": dl,
             "positions": list(p)}
            for d, t, tf, dl, p in rows
        ]
    }))
    return 0


def cmd_percolate(args) -> int:
    ray = _init_ray()
    from . import percolate as perc

    ds = ray.data.read_parquet(args.input)
    out = perc.percolate(
        ds, list(args.query), text_col=args.text_col, id_col=args.id_col
    )
    if args.out:
        out.write_parquet(args.out)
        print(json.dumps({"out": args.out, "matches": out.count()}))
    else:
        rows = out.take_all()
        print(json.dumps({"matches": len(rows), "pairs": rows[:100]}))
    return 0


def cmd_query(args) -> int:
    ray = _init_ray()
    from .shard import QueryEngine

    engine = QueryEngine(args.index, num_servers=args.servers)
    if args.query:
        queries = [args.query]
    else:
        with open(args.queries) as f:
            queries = [line.strip() for line in f if line.strip()]
    if getattr(args, "alias", None):
        results = [engine.search_alias(args.alias, q, k=args.k) for q in queries]
    elif getattr(args, "qstring", False):
        if getattr(args, "msearch", False):
            results = engine.msearch(queries, k=args.k)
        else:
            results = [engine.search(q, k=args.k) for q in queries]
    elif getattr(args, "filtered", False):
        filters = {}
        for spec in args.filter or []:
            col, _, val = spec.partition("=")
            filters[col] = val
        results = [engine.filtered_query(q, filters, k=args.k) for q in queries]
    elif getattr(args, "phrase", False):
        results = [engine.phrase_query(q, k=args.k) for q in queries]
    else:
        results = engine.query_many(queries, k=args.k, algo=args.algo)
    for q, res in zip(queries, results):
        print(json.dumps({
            "query": q,
            "results": [{"doc_id": d, "score": s} for d, s in res],
        }))
    ray.shutdown()
    return 0


def cmd_fed(args) -> int:
    """Federation lifecycle (per-day/per-type indexes): build / init /
    refresh / ingest / search / delete / compact."""
    if args.action in ("build", "refresh", "ingest") and not args.input:
        raise SystemExit(f"fed {args.action} requires --input")
    if args.action == "search" and not args.query:
        raise SystemExit("fed search requires --query")
    ray = _init_ray()
    from . import federated

    fields = args.fields.split(",") if getattr(args, "fields", None) else None
    if args.action == "build":
        fed = federated.build_federation(
            args.input, args.fed, text_col=args.text_col, id_col=args.id_col,
            ts_col=args.ts_col, route_col=args.route_col, prefix=args.prefix,
            one_index_per_type=args.one_index_per_type,
            num_parts=args.num_parts, fields=fields,
        )
        print(json.dumps({
            "fed": args.fed, "indexes": [e["name"] for e in fed["indexes"]],
            "n_docs": fed["n_docs"], "avgdl": fed["avgdl"],
        }))
    elif args.action == "init":
        fed = federated.init_federation(
            args.fed, text_col=args.text_col, id_col=args.id_col,
            ts_col=args.ts_col, route_col=args.route_col, prefix=args.prefix,
            one_index_per_type=args.one_index_per_type,
            num_parts=args.num_parts, fields=fields,
        )
        print(json.dumps({"fed": args.fed, "indexes": []}))
    elif args.action == "refresh":
        fed = federated.refresh_federation(args.input, args.fed)
        print(json.dumps({"fed": args.fed, "changed": fed["changed"]}))
    elif args.action == "ingest":
        fed = federated.ingest_new_shards(args.input, args.fed)
        print(json.dumps({"fed": args.fed, "changed": fed["changed"]}))
    elif args.action == "delete":
        routed = federated.delete_docs_federated(
            args.fed, [int(d) for d in args.doc_ids]
        )
        print(json.dumps({"fed": args.fed, "tombstoned": routed}))
    elif args.action == "compact":
        fed = federated.compact_federation(args.fed)
        print(json.dumps({
            "fed": args.fed, "n_docs": fed["n_docs"], "avgdl": fed["avgdl"],
        }))
    elif args.action == "expire":
        if not args.before_day:
            raise SystemExit("fed expire requires --before-day YYYYMMDD")
        fed = federated.expire_members(args.fed, args.before_day)
        print(json.dumps({
            "fed": args.fed, "dropped": fed["dropped"],
            "kept": [e["name"] for e in fed["indexes"]],
        }))
    elif args.action == "search":
        _is_mf = bool(federated.load_fed_meta(args.fed).get("fields"))
        eng = (
            federated.FederatedMultiFieldEngine(args.fed)
            if _is_mf
            else federated.FederatedEngine(args.fed, num_servers=args.servers)
        )
        sel = {"start_day": args.start_day, "end_day": args.end_day}
        after = None
        if args.after:
            try:
                s, _, d = args.after.partition(":")
                after = (float(s), int(d))
            except ValueError:
                raise SystemExit(
                    f"--after must be 'score:doc_id', got {args.after!r}"
                )
        try:
            if args.facets:
                cols = args.facets.split(",")
                facets, _ = eng.facets(args.query, facet_cols=cols, **sel)
                print(json.dumps({"query": args.query, "facets": facets}))
                res = None
            elif args.collapse:
                hits = eng.collapse(args.query, args.collapse, args.k, **sel)
                print(json.dumps({
                    "query": args.query, "collapse": args.collapse,
                    "hits": [
                        {"doc_id": d, "score": s, "group": v}
                        for d, s, v in hits
                    ],
                }))
                res = None
            elif args.top_hits:
                hits = eng.top_hits(args.query, args.top_hits, args.k, **sel)
                print(json.dumps({
                    "query": args.query, "group_col": args.top_hits,
                    "top_hits": {
                        str(v): [{"doc_id": d, "score": s} for d, s in lst]
                        for v, lst in sorted(hits.items(), key=lambda kv: str(kv[0]))
                    },
                }))
                res = None
            elif args.range:
                col, _, edge_s = args.range.partition(":")
                if not edge_s:
                    raise SystemExit(
                        f"--range must be 'col:e1,e2,...', got {args.range!r}"
                    )
                edges = [int(e) for e in edge_s.split(",")]
                if edges != sorted(set(edges)):
                    raise SystemExit(
                        f"--range cut points must be strictly ascending, got {edge_s!r}"
                    )
                bounds = list(zip([None] + edges, edges + [None]))
                cnts = eng.range_agg(args.query, {col: bounds}, **sel)[col]
                print(json.dumps({
                    "query": args.query, "col": col,
                    "ranges": [
                        {"lo": lo, "hi": hi, "count": c}
                        for (lo, hi), c in zip(bounds, cnts)
                    ],
                }))
                res = None
            elif after is not None:
                if not _is_mf and args.qstring:
                    # FederatedEngine.search_after pages the plain-term
                    # ranking; a query-string page 2 must page the SAME
                    # ranking page 1 used
                    from .query import page_after

                    res = page_after(
                        lambda q, kk: eng.search(q, kk, **sel),
                        args.query, args.k, after,
                    )
                else:
                    res = eng.search_after(args.query, k=args.k, after=after, **sel)
            elif _is_mf:
                res = eng.search(
                    args.query, k=args.k,
                    mode=args.mode, tie_breaker=args.tie_breaker,
                    start_day=args.start_day, end_day=args.end_day,
                )
            elif args.qstring:
                res = eng.search(
                    args.query, k=args.k,
                    start_day=args.start_day, end_day=args.end_day,
                )
            else:
                res = eng.query(
                    args.query, k=args.k,
                    start_day=args.start_day, end_day=args.end_day,
                )
            if res is not None:
                print(json.dumps({
                    "query": args.query,
                    "results": [{"doc_id": d, "score": s} for d, s in res],
                }))
        finally:
            eng.shutdown()
    ray.shutdown()
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="cb")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build the inverted index")
    b.add_argument("--input", required=True, help="corpus parquet file/dir")
    b.add_argument("--index", required=True, help="output index dir")
    b.add_argument("--text-col", default="content")
    b.add_argument("--id-col", default=None)
    b.add_argument("--num-parts", type=int, default=32)
    b.add_argument("--resumable", action="store_true",
                   help="checkpointed build (skips finished shards/partitions)")
    b.set_defaults(fn=cmd_build)

    w = sub.add_parser("watch", help="poll a directory; incrementally re-index on growth")
    w.add_argument("--input", required=True, help="corpus parquet dir to poll")
    w.add_argument("--index", required=True, help="output index dir")
    w.add_argument("--interval", type=float, default=30.0, help="poll seconds")
    w.add_argument("--max-ticks", type=int, default=None, help="stop after N ticks (default: forever)")
    w.add_argument("--text-col", default="content")
    w.add_argument("--id-col", default=None)
    w.add_argument("--num-parts", type=int, default=32)
    w.set_defaults(fn=cmd_watch)

    c = sub.add_parser(
        "catalog",
        help="durable source catalog: add/list/pause/resume sources, run the multi-source watch",
    )
    c.add_argument("action", choices=[
        "add", "list", "pause", "resume", "stop-indexing", "start-indexing", "watch",
    ])
    c.add_argument("--catalog", required=True, help="sources.json path")
    c.add_argument("--name", default=None, help="source name (add/pause/resume)")
    c.add_argument("--input", default=None, help="corpus parquet dir (add)")
    c.add_argument("--index", default=None, help="index dir (add)")
    c.add_argument("--text-col", default="content")
    c.add_argument("--id-col", default=None)
    c.add_argument("--num-parts", type=int, default=32)
    c.add_argument("--stop-after", default=None,
                   help="stop-offset guard: ignore input files sorting after this basename")
    c.add_argument("--interval", type=float, default=30.0)
    c.add_argument("--max-ticks", type=int, default=None)
    c.set_defaults(fn=cmd_catalog)

    st = sub.add_parser("stats", help="build observability counters from manifests")
    st.add_argument("--index", required=True)
    st.add_argument("--partitions", action="store_true", help="include per-partition rows")
    st.set_defaults(fn=cmd_stats)

    dl = sub.add_parser("delete", help="tombstone documents by id (queries mask them)")
    dl.add_argument("--index", required=True)
    dl.add_argument("doc_ids", nargs="+", help="doc ids to tombstone")
    dl.set_defaults(fn=cmd_delete)

    fed_actions = sub.add_parser(
        "fed",
        help="federated per-day/per-type indexes: build/init/refresh/ingest/search/delete/compact",
    ).add_subparsers(dest="action", required=True)
    # every action takes the same options; each action is its own
    # parser so delete's doc ids may come before or after them
    fd = argparse.ArgumentParser(add_help=False)
    fd.add_argument("--before-day", dest="before_day", default=None,
                    help="expire: drop members with day < YYYYMMDD")
    fd.add_argument("--fed", required=True, help="federation dir")
    fd.add_argument("--input", default=None,
                    help="corpus parquet (build/refresh) or drain dir (ingest)")
    fd.add_argument("--text-col", default="content")
    fd.add_argument("--id-col", default=None)
    fd.add_argument("--ts-col", default=None, help="timestamp column (per-day routing)")
    fd.add_argument("--route-col", default=None, help="type column (one index per type)")
    fd.add_argument("--prefix", default="")
    fd.add_argument("--one-index-per-type", action="store_true")
    fd.add_argument("--num-parts", type=int, default=8)
    fd.add_argument("--fields", default=None,
                    help="comma-separated analyzed fields -> MULTIFIELD "
                         "federation (one sub-index per field per day/type)")
    fd.add_argument("--query", default=None)
    fd.add_argument("--qstring", action="store_true", help="Lucene-lite query string")
    fd.add_argument("-k", type=int, default=10)
    fd.add_argument("--servers", type=int, default=2, help="servers per sub-index")
    fd.add_argument("--after", default=None,
                    help="cursor 'score:doc_id' -> next page (search_after)")
    fd.add_argument("--facets", default=None,
                    help="comma-separated docmeta columns -> terms aggs "
                         "over the query's full match set")
    fd.add_argument("--collapse", default=None,
                    help="docmeta column -> field collapsing (one best "
                         "hit per value, globally ranked)")
    fd.add_argument("--top-hits", dest="top_hits", default=None,
                    help="docmeta column -> top-k hits PER value of the "
                         "full match set")
    fd.add_argument("--range", default=None,
                    help="'col:e1,e2,...' -> range aggregation with "
                         "cut points e1<e2<... (open-ended outer buckets)")
    fd.add_argument("--mode", default="most_fields",
                    choices=["most_fields", "best_fields", "cross_fields"],
                    help="multifield combine: sum (default), dis_max, "
                         "or blended-stats cross_fields")
    fd.add_argument("--tie-breaker", dest="tie_breaker", type=float,
                    default=0.0, help="best_fields tie_breaker in [0, 1]")
    fd.add_argument("--start-day", default=None, help="prune: first day YYYYMMDD")
    fd.add_argument("--end-day", default=None, help="prune: last day YYYYMMDD")
    for action in (
        "build", "init", "refresh", "ingest", "search", "delete", "compact", "expire",
    ):
        act = fed_actions.add_parser(action, parents=[fd])
        if action == "delete":
            act.add_argument("doc_ids", nargs="+", help="doc ids to tombstone")
        act.set_defaults(fn=cmd_fed)

    sn = sub.add_parser(
        "snapshot",
        help="hardlinked index snapshots: create/restore/list (ES _snapshot analog)",
    )
    sn.add_argument("action", choices=["create", "restore", "list"])
    sn.add_argument("--repo", required=True, help="snapshot repository dir")
    sn.add_argument("--name", default=None, help="snapshot name (a dir under --repo)")
    sn.add_argument("--index", default=None, help="index dir (create) / restore target")
    sn.set_defaults(fn=cmd_snapshot)

    sg = sub.add_parser(
        "suggest",
        help="did-you-mean: term or phrase (Stupid-Backoff LM) suggester",
    )
    sg.add_argument("kind", choices=["term", "phrase"])
    sg.add_argument("--index", required=True)
    sg.add_argument("--text", required=True)
    sg.add_argument("-k", type=int, default=5)
    sg.add_argument("--servers", type=int, default=2)
    sg.set_defaults(fn=cmd_suggest)

    tv = sub.add_parser(
        "termvectors",
        help="per-doc term/tf/positions from the positional index (ES _termvectors)",
    )
    tv.add_argument("--index", required=True)
    tv.add_argument("--ids", required=True, help="comma-separated doc ids")
    tv.add_argument("--store", action="store_true",
                    help="re-analyze the stored docmeta text column instead "
                         "of extracting from the index")
    tv.add_argument("--servers", type=int, default=2)
    tv.set_defaults(fn=cmd_termvectors)

    pe = sub.add_parser(
        "percolate",
        help="reverse search: stream a parquet corpus through registered queries",
    )
    pe.add_argument("--input", required=True, help="documents parquet")
    pe.add_argument("--query", action="append", required=True,
                    help="registered query (repeatable)")
    pe.add_argument("--text-col", default="text")
    pe.add_argument("--id-col", default="doc_id")
    pe.add_argument("--out", default=None, help="write matches parquet here")
    pe.set_defaults(fn=cmd_percolate)

    for name in ("query", "query-file", "phrase", "filtered-query", "search"):
        q = sub.add_parser(name, help="top-k BM25 query")
        q.add_argument("--index", required=True)
        q.add_argument("--query", default=None)
        q.add_argument("--queries", default=None, help="file of queries, one per line")
        q.add_argument("-k", type=int, default=10)
        q.add_argument("--servers", type=int, default=2)
        q.add_argument("--algo", default="taat", choices=["taat", "wand"])
        if name == "filtered-query":
            q.add_argument("--filter", action="append", metavar="COL=VALUE",
                           help="not_analyzed equality filter (repeatable)")
        if name == "search":
            q.add_argument("--msearch", action="store_true",
                           help="batched dispatch: all queries' refs in "
                                "flight before one drain (_msearch)")
            q.add_argument("--alias", default=None,
                           help="query through a filtered search alias "
                                "(_aliases.json)")
        q.set_defaults(
            fn=cmd_query,
            phrase=(name == "phrase"),
            filtered=(name == "filtered-query"),
            qstring=(name == "search"),
        )

    args = p.parse_args(argv)
    if args.cmd in ("query", "query-file", "phrase", "filtered-query", "search") and not (args.query or args.queries):
        p.error("provide --query or --queries")
    if args.cmd == "catalog":
        if args.action == "add" and not (args.name and args.input and args.index):
            p.error("catalog add needs --name, --input and --index")
        if args.action in ("pause", "resume") and not args.name:
            p.error(f"catalog {args.action} needs --name")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
