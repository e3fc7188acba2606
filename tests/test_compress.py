import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cb import compress, scoring


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=200))
def test_varint_roundtrip(vals):
    v = np.array(vals, dtype=np.uint64)
    assert np.array_equal(compress.varint_decode(compress.varint_encode(v), len(v)), v)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=2**62), min_size=1, max_size=500, unique=True
    )
)
def test_ids_roundtrip(ids):
    ids = np.array(sorted(ids), dtype=np.int64)
    assert np.array_equal(compress.decode_ids(compress.encode_ids(ids), len(ids)), ids)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_postings_roundtrip(data):
    n = data.draw(st.integers(min_value=1, max_value=700))
    rng = np.random.Generator(np.random.PCG64(data.draw(st.integers(0, 2**32))))
    ids = np.sort(rng.choice(2**40, size=n, replace=False)).astype(np.int64)
    tfs = rng.integers(1, 100, size=n).astype(np.int64)
    dls = rng.integers(1, 5000, size=n).astype(np.int64)
    row = compress.encode_postings("t", ids, tfs, dls)
    pl = compress.PostingList(row)
    got_ids, got_tfs, got_dls = pl.decode_all()
    assert np.array_equal(got_ids, ids)
    assert np.array_equal(got_tfs, tfs)
    assert np.array_equal(got_dls, dls)
    assert pl.df == n and pl.cf == tfs.sum()
    assert len(pl.bounds) == 2 * pl.n_blocks
    for b in range(pl.n_blocks):
        s, e = b * compress.BLOCK, min((b + 1) * compress.BLOCK, n)
        # the stored summary is the exact (max tf, min dl) of the block
        assert pl.bounds[2 * b] == tfs[s:e].max()
        assert pl.bounds[2 * b + 1] == dls[s:e].min()
        assert pl.last_ids[b] == ids[e - 1]
    # and bounds every posting's exact u factor under ANY avgdl
    for a in (250.0, 1.0, 1e4):
        ub = compress.annotate_umax_table(pl.bounds, a)
        u = scoring.u_factor(tfs, dls, a)
        for b in range(pl.n_blocks):
            s, e = b * compress.BLOCK, min((b + 1) * compress.BLOCK, n)
            assert ub[b] >= np.max(u[s:e]), (a, b)


def test_empty():
    assert len(compress.varint_encode(np.empty(0, dtype=np.uint64))) == 0
    assert len(compress.varint_decode(b"")) == 0


def test_partition_encode_matches_per_row_reference():
    """The whole-partition vectorized encoder must produce a table
    EQUAL (values and blob bytes) to per-row encode_postings calls."""
    import numpy as np
    import pyarrow as pa

    from cb import build, compress

    rng = np.random.Generator(np.random.PCG64(17))
    # synthetic sorted flat arrays: 40 (term,bucket) rows, ragged sizes
    rows = []
    for code in range(12):
        for bucket in sorted(rng.choice(8, size=int(rng.integers(1, 4)), replace=False)):
            df = int(rng.integers(1, 400))
            ids = np.sort(rng.choice(10**6, size=df, replace=False)) + (bucket << 40)
            tfs = rng.integers(1, 5, size=df)
            dls = rng.integers(1, 300, size=df)
            poss = []
            for tf in tfs:
                poss.extend(sorted(rng.choice(1000, size=tf, replace=False)))
            rows.append((code, bucket, ids, tfs, dls, np.array(poss)))
    codes = np.concatenate([[c] * len(i) for c, _, i, _, _, _ in rows]).astype(np.int64)
    buckets = np.concatenate([[b] * len(i) for _, b, i, _, _, _ in rows]).astype(np.int32)
    flat = {
        "codes": codes,
        "buckets": buckets,
        "doc_ids": np.concatenate([i for _, _, i, _, _, _ in rows]),
        "tfs": np.concatenate([t for _, _, _, t, _, _ in rows]).astype(np.int64),
        "dls": np.concatenate([d for _, _, _, _, d, _ in rows]).astype(np.int64),
        "poss": np.concatenate([p for _, _, _, _, _, p in rows]).astype(np.int64),
        "dictionary": pa.array([f"term{k:03d}" for k in range(12)], type=pa.string()),
    }

    def reference(flat, store_positions):
        occ = np.zeros(len(flat["tfs"]) + 1, dtype=np.int64)
        np.cumsum(flat["tfs"], out=occ[1:])
        c = flat["codes"]
        ch = np.empty(len(c), dtype=bool)
        ch[0] = True
        ch[1:] = (c[1:] != c[:-1]) | (flat["buckets"][1:] != flat["buckets"][:-1])
        rs = np.flatnonzero(ch)
        re_ = np.append(rs[1:], len(c))
        terms = flat["dictionary"].take(pa.array(c[rs])).to_pylist()
        out = []
        for t, s, e in zip(terms, rs, re_):
            row = compress.encode_postings(
                t, flat["doc_ids"][s:e], flat["tfs"][s:e], flat["dls"][s:e],
                positions=flat["poss"][occ[s]:occ[e]] if store_positions else None,
            )
            row["bucket"] = int(flat["buckets"][s])
            out.append(row)
        return pa.Table.from_pylist(out, schema=build._posting_file_schema())

    for store_positions in (True, False):
        got = build.encode_partition_rows(flat, store_positions=store_positions)
        want = reference(flat, store_positions)
        assert got.equals(want), store_positions
        # the columnar decode inverts it: row by row, bitwise the
        # per-row PostingList.decode_all (multi-block rows included)
        per_row = [compress.PostingList(r).decode_all() for r in got.to_pylist()]
        for col, want_col in zip(compress.decode_table(got), zip(*per_row)):
            assert col.tobytes() == np.concatenate(want_col).tobytes()


def test_block_encoder_writes_each_group_as_if_alone(tmp_path, monkeypatch):
    """``build.encode_bucket`` over a (part, bucket)-sorted block writes,
    for every group, the bytes that group writes when encoded alone,
    whatever runs the postings budget cuts the block into; the
    ``_termdf``/docstats files and the stat rows agree too."""
    import hashlib
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from cb import build, corpus

    src = str(tmp_path / "corpus")
    corpus.write_corpus(src, 120, seed=3, n_files=1)
    t = corpus.with_identity(pq.read_table(src))
    norm = pa.table({"doc_id": t["doc_id"], "text": t["content"]})
    block = pa.concat_tables(
        [
            build.tokenize_partials(norm.slice(o, 50), num_parts=3, range_bits=3, emit_stats=True)
            for o in (0, 50, 100)
        ]
    ).sort_by([("part", "ascending"), ("bucket", "ascending")])
    keys = list(zip(block["part"].to_pylist(), block["bucket"].to_pylist()))
    starts = [i for i in range(len(keys)) if i == 0 or keys[i] != keys[i - 1]]
    n_posting_groups = sum(1 for i in starts if keys[i][0] < 3 and keys[i][1] >= 0)

    calls = []
    encode = build.encode_partition_rows
    monkeypatch.setattr(
        build, "encode_partition_rows", lambda *a, **k: calls.append(1) or encode(*a, **k)
    )

    def run(name, budget, per_group=False):
        monkeypatch.setattr(build, "ENCODE_POSTINGS_BUDGET", budget)
        out = str(tmp_path / name)
        del calls[:]
        if per_group:
            bounds = starts + [len(keys)]
            stats = pa.concat_tables(
                [
                    build.encode_bucket(block.slice(a, b - a), index_dir=out, num_parts=3)
                    for a, b in zip(bounds, bounds[1:])
                ]
            )
        else:
            stats = build.encode_bucket(block, index_dir=out, num_parts=3)
        files = {}
        for d, _, fs in os.walk(out):
            for f in fs:
                with open(os.path.join(d, f), "rb") as fh:
                    files[os.path.relpath(os.path.join(d, f), out)] = hashlib.sha256(fh.read()).hexdigest()
        return files, sorted(stats.to_pylist(), key=lambda r: (r["part"], r["bucket"])), len(calls)

    want_files, want_stats, n = run("alone", 1 << 20, per_group=True)
    assert n == n_posting_groups > 3
    assert sum(f.endswith("_termdf.parquet") for f in want_files) == 3
    for name, budget, n_calls in (("one", 1 << 20, 1), ("each", 1, n_posting_groups), ("some", 400, None)):
        files, stats, n = run(name, budget)
        assert files == want_files, name
        assert stats == want_stats, name
        assert n == n_calls if n_calls else 1 < n < n_posting_groups, name
