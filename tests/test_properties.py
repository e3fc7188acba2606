"""Property-based tests (hypothesis): codec round-trips on adversarial
values, query-string parsing total on arbitrary input."""

import numpy as np
from hypothesis import given, settings, strategies as st

from cb import compress, querylang

# varint byte-length boundaries: 2^(7k) +/- 1
_BOUNDARY = [0, 1] + [v for k in range(1, 10) for v in ((1 << (7 * k)) - 1, 1 << (7 * k), (1 << (7 * k)) + 1)] + [(1 << 64) - 1]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from(_BOUNDARY), st.integers(0, (1 << 64) - 1)),
        max_size=300,
    )
)
def test_varint_roundtrip(values):
    v = np.array(values, dtype=np.uint64)
    buf, sizes = compress.varint_encode_with_sizes(v)
    assert int(sizes.sum()) == len(buf)
    out = compress.varint_decode(buf, len(v) if len(v) else None)
    assert np.array_equal(out, v)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, (1 << 62)), min_size=1, max_size=400, unique=True))
def test_id_delta_roundtrip(ids):
    arr = np.sort(np.array(ids, dtype=np.int64))
    blob = compress.encode_ids(arr)
    assert np.array_equal(compress.decode_ids(blob, len(arr)), arr)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=120))
def test_querylang_parse_total(q):
    try:
        p = querylang.parse(q)
    except ValueError:
        return  # documented rejections: negated scoped clause, bad range, bad msm
    assert set(p) == {
        "terms", "phrases", "filters", "excluded", "excluded_phrases",
        "scoped_phrases", "scoped_terms", "weights", "required", "expands",
        "phrase_boosts", "minimum_should_match",
    }
    assert all(isinstance(t, str) for t in p["terms"])
    # parsing is deterministic
    assert querylang.parse(q) == p


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.integers(1, 6),
        min_size=1,
        max_size=6,
    ),
    st.integers(0, 2**32 - 1),
)
def test_posting_roundtrip_via_encode_postings(tfs, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    n = len(tfs)
    ids = np.sort(rng.choice(1 << 40, size=n, replace=False)).astype(np.int64)
    tfs = np.array(tfs, dtype=np.int64)
    dls = rng.integers(1, 500, size=n).astype(np.int64)
    poss = np.concatenate(
        [np.sort(rng.choice(1000, size=tf, replace=False)) for tf in tfs]
    ).astype(np.int64)
    row = compress.encode_postings("t", ids, tfs, dls, positions=poss)
    pl = compress.PostingList(row)
    got_ids, got_tfs, got_dls = pl.decode_all()
    assert np.array_equal(got_ids, ids)
    assert np.array_equal(got_tfs, tfs)
    assert np.array_equal(got_dls, dls)
    flat, offsets = pl.decode_positions()
    assert np.array_equal(flat, poss)
    assert np.array_equal(np.diff(offsets), tfs)
