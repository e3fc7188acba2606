"""Lean shard start: serving processes never import Ray Data, and a
server's postings are lazy columnar views whose per-chunk rows are
built only when a positional reader or WAND asks for them."""

import glob
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from cb import docmeta as docmeta_mod, multifield
from cb.build import IndexMeta, build_index
from cb.compress import PostingList
from cb.shard import ChunkedPostings, ShardServer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HI = 1 << 59  # bucket stride at range_bits=4 (bucket = id >> 59)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A single-field index over 4 doc-range buckets with a docmeta
    table, and a two-field index with docmeta under its first field."""
    d = tmp_path_factory.mktemp("lean")
    rng = np.random.default_rng(23)
    rows = []
    for b in range(4):
        for i in range(30):
            words = " ".join(
                f"w{int(rng.integers(40))}" for _ in range(int(rng.integers(3, 300)))
            )
            rows.append({
                "doc_id": b * HI + 1 + i * 5,
                "text": f"join merge {words}",
                "title": f"t{int(rng.integers(6))} join",
                "cat": ("even", "odd")[i % 2],
                "n": i,
            })
    src = str(d / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(d / "idx")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=4)
    docmeta_mod.ensure_docmeta(idx, src, ["cat", "n"])
    mf = str(d / "mf")
    multifield.build_multifield(src, mf, ["title", "text"], id_col="doc_id", num_parts=2)
    docmeta_mod.ensure_docmeta(multifield.field_dir(mf, "title"), src, ["cat", "n"])
    return idx, mf


def _server(idx, buckets):
    return ShardServer.__ray_metadata__.modified_class(idx, buckets)


# Serving start and term scoring import neither pandas nor
# pyarrow.dataset (a pq.read_table, a to_numpy or a pa.array from a
# Python object would); the docmeta-loading calls after the check may.
_LEAN = """
def lean(step):
    for mod in ("pandas", "pyarrow.dataset"):
        assert mod not in sys.modules, f"{{step}} imported {{mod}}"
"""

_SHARD_PROBE = _LEAN + """
import sys
import cb.shard
from cb import querylang
srv = cb.shard.ShardServer.__ray_metadata__.modified_class({idx!r}, [0, 2])
lean("ShardServer start")
assert srv.warm(0) > 0
lean("warm(0)")
assert srv.score(["join", "w1"], 5)
lean("score taat")
assert srv.score(["join", "w1", "w2"], 5, "wand")
lean("score wand")
# a fresh scope warmed in two selective passes (each selects
# non-adjacent row ranges): the df >= 105 terms, then the rest
fresh = cb.shard.ShardServer.__ray_metadata__.modified_class({idx!r}, [1, 3])
n_terms = sum(len(p.offsets) for p in fresh.parts.values())
hot = fresh.warm(min_df=105)
assert 0 < hot < n_terms
assert fresh.warm(min_df=2) == n_terms - hot
lean("warm(min_df > 0)")
assert srv.score_filtered(["merge"], 5, {{"cat": "even"}})
facets, _ = srv.agg(querylang.parse("join"), "facets", (["cat"], []))
assert facets["cat"]
assert "ray.data" not in sys.modules, "a serving path imported ray.data"
"""

_MULTIFIELD_PROBE = _LEAN + """
import sys
import cb.multifield as mf
server = mf.MultiFieldServer.__ray_metadata__.modified_class({mf!r}, [0, 2])
lean("MultiFieldServer start")
routed = mf.route_query("join w1", server.fields)
assert server.score(routed, 5)
lean("multifield score")
facets, _ = server.agg(routed, "facets", (["cat"], []))
assert facets["cat"]
assert "ray.data" not in sys.modules, "a serving path imported ray.data"
"""


@pytest.mark.parametrize("probe", ["shard", "multifield"])
def test_serving_never_imports_ray_data(built, probe):
    """In a fresh interpreter, import a serving module, start an
    in-process server and serve term queries (no pandas or
    pyarrow.dataset imported so far), then a filtered query and an
    aggregation: Ray Data is never imported."""
    idx, mf = built
    code = (_SHARD_PROBE if probe == "shard" else _MULTIFIELD_PROBE).format(idx=idx, mf=mf)
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr[-3000:]


def test_parquet_file_read_equals_read_table(built):
    """The serving read (``ParquetFile.read``) of a built bucket file
    and of a df summary gives the schema and values ``pq.read_table``
    gives."""
    idx, _ = built
    part = IndexMeta(idx).part_dir(0)
    for f in sorted(glob.glob(os.path.join(part, "*.parquet"))):
        got, want = pq.ParquetFile(f).read(), pq.read_table(f)
        assert got.schema == want.schema, f
        assert got.num_rows > 0 and got.equals(want), f


def _reference_rows(part) -> dict[str, list[dict]]:
    """term -> its row dicts, found by a plain scan of the term column
    (independent of the partition's own run detection)."""
    out: dict[str, list[dict]] = {}
    if part.table is None:
        return out
    terms = part.table["term"].to_pylist()
    start = 0
    for i in range(1, len(terms) + 1):
        if i == len(terms) or terms[i] != terms[start]:
            out[terms[start]] = part.table.slice(start, i - start).to_pylist()
            start = i
    return out


def _assert_chunk_equal(got: PostingList, want: PostingList):
    for slot in PostingList.__slots__:
        a, b = getattr(got, slot), getattr(want, slot)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), slot
        else:
            assert a == b, slot


@pytest.mark.parametrize("slice_", ["server0", "server1", "whole"])
def test_lazy_view_matches_per_row_reference(built, slice_):
    """Every term of a 2-server slice and of a whole-index server: the
    view's df/cf/gdf, chunks and decode_all are bitwise the per-row
    PostingList reference."""
    idx, _ = built
    meta = IndexMeta(idx)
    nb = 1 << meta.range_bits
    buckets = {
        "server0": [b for b in range(nb) if b % 2 == 0],
        "server1": [b for b in range(nb) if b % 2 == 1],
        "whole": list(range(nb)),
    }[slice_]
    srv = _server(idx, buckets)
    n_terms = 0
    for p, part in srv.parts.items():
        tdf = pq.read_table(os.path.join(meta.part_dir(p), "_termdf.parquet"))
        gdfs = dict(zip(tdf["term"].to_pylist(), tdf["df"].to_pylist()))
        ref = _reference_rows(part)
        assert set(part.offsets) == set(ref)
        for term, rows in ref.items():
            want = [PostingList(r) for r in rows]
            view = part.get(term)
            assert view._chunks is None  # nothing built yet
            assert view.df == sum(c.df for c in want)
            assert view.cf == sum(c.cf for c in want)
            assert view.gdf == gdfs[term]
            if slice_ == "whole":
                assert view.gdf == view.df
            got = view.decode_all()
            decoded = [c.decode_all() for c in want]
            for j in range(3):
                ref_arr = np.concatenate([d[j] for d in decoded])
                assert got[j].dtype == ref_arr.dtype, term
                assert got[j].tobytes() == ref_arr.tobytes(), term
            assert view._chunks is None  # decode_all builds no chunks
            assert len(view.chunks) == len(want)
            for g, w in zip(view.chunks, want):
                _assert_chunk_equal(g, w)
            n_terms += 1
    assert n_terms > 0


def test_warm_and_score_build_no_chunks(built):
    """After warm(0) and 200 distinct term queries, no cached view has
    built its per-chunk rows; a positional reader then builds them for
    its terms only."""
    idx, _ = built
    srv = _server(idx, [0, 2])
    assert srv.warm(0) > 0
    vocab = sorted(t for part in srv.parts.values() for t in part.offsets)
    queries = [[a] for a in vocab] + [[a, b] for a in vocab for b in vocab if a < b]
    assert len(queries) >= 200
    for q in queries[:200]:
        srv.score(q, 10)
    assert srv.cache and all(
        v is None or v._chunks is None for v in srv.cache.values()
    )
    srv.phrase(["join", "merge"], 5)
    built_terms = {t for t, v in srv.cache.items() if v is not None and v._chunks is not None}
    assert built_terms == {"join", "merge"}


def test_row_dict_view_equals_table_view(built):
    """A view built from row dicts (one per chunk, any order) equals the
    partition's table view."""
    idx, _ = built
    srv = _server(idx, list(range(16)))
    part = next(p for p in srv.parts.values() if p.table is not None)
    term = max(part.offsets, key=lambda t: part.offsets[t][1] - part.offsets[t][0])
    view = part.get(term)
    rows = _reference_rows(part)[term][::-1]
    other = ChunkedPostings(term, rows)
    assert (other.df, other.cf, other.gdf) == (view.df, view.cf, view.df)
    for a, b in zip(other.decode_all(), view.decode_all()):
        assert a.tobytes() == b.tobytes()
    for g, w in zip(other.chunks, view.chunks):
        _assert_chunk_equal(g, w)


def test_selective_warm_equals_full_warm(built):
    """Warming in selective passes (``min_df`` > 0 selects non-adjacent
    row ranges) caches every term's ``(ids, u)`` bitwise as one full
    warm does."""
    idx, _ = built
    full, sel = _server(idx, [1, 3]), _server(idx, [1, 3])
    full.warm(0)
    assert 0 < sel.warm(min_df=105) < len(full.decoded)
    assert sel.warm(min_df=2) > 0
    assert sel.decoded.keys() == full.decoded.keys()
    for term, (ids, u, _) in full.decoded.items():
        got_ids, got_u, _ = sel.decoded[term]
        assert got_ids.tobytes() == ids.tobytes() and got_u.tobytes() == u.tobytes(), term
