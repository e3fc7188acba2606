"""Geo kernels (cb/geo.py): bitwise SQL parity of the shared expression
trees, membership-edge clearance guards, and operator semantics.

The oracle-parity suite value-checks the four geo_* entries end to end;
these tests guard the CONTRACT that makes those oracles sound — the
round-6 distance grid agrees bitwise with DuckDB, tile assignment is
bitwise equal, and every membership edge (radius, ring edge) is
separated from the data by >= 0.09 km at every available sf, ten orders
of magnitude above the observed ~1e-12 km vectorized-trig ulp noise."""

import os

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data

from cb import geo, pipelines

SF_DIRS = [
    d
    for d in ("/root/testdata/sf0.001", "/root/testdata/sf0.01", "/root/testdata/sf0.1")
    if os.path.exists(os.path.join(d, "documents.parquet"))
]
EDGE_CLEARANCE_KM = 0.09


def _doc_keys(sf_dir):
    return (
        pq.read_table(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])[
            "doc_id"
        ].to_numpy()
    )


@pytest.mark.parametrize("sf_dir", SF_DIRS)
def test_distance_and_tile_bitwise_vs_duckdb(sf_dir):
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"'{os.path.join(sf_dir, 'documents.parquet')}'"
    )
    lat_e, lon_e = geo.coord_exprs("doc_id")
    d_e = geo.sql_haversine(lat_e, lon_e, pipelines.GEO_LAT0, pipelines.GEO_LON0)
    xt_e, yt_e = geo.sql_geotile(lat_e, lon_e, pipelines.GEO_ZOOM)
    df = con.sql(
        f"SELECT doc_id, {lat_e} AS lat, {lon_e} AS lon, round({d_e}, 6) AS d6,"
        f" {xt_e} AS xt, {yt_e} AS yt FROM documents ORDER BY doc_id"
    ).df()
    lat, lon = geo.derive_coords(df["doc_id"].to_numpy())
    # coordinate derivation: integer-exact, bitwise on both engines
    assert (lat == df["lat"].to_numpy()).all()
    assert (lon == df["lon"].to_numpy()).all()
    # round-6 distance grid: bitwise
    d6 = np.round(
        geo.haversine_km(lat, lon, pipelines.GEO_LAT0, pipelines.GEO_LON0), 6
    )
    assert (d6 == df["d6"].to_numpy()).all()
    # tile assignment: bitwise
    xt, yt = geo.geotile(lat, lon, pipelines.GEO_ZOOM)
    assert (xt == df["xt"].to_numpy()).all()
    assert (yt == df["yt"].to_numpy()).all()


@pytest.mark.parametrize("sf_dir", SF_DIRS)
def test_membership_edges_clear_of_data(sf_dir):
    lat, lon = geo.derive_coords(_doc_keys(sf_dir))
    d = geo.haversine_km(lat, lon, pipelines.GEO_LAT0, pipelines.GEO_LON0)
    for edge in (pipelines.GEO_RADIUS_KM, *pipelines.GEO_RING_EDGES):
        gap = np.abs(d - edge).min()
        assert gap >= EDGE_CLEARANCE_KM, (edge, gap)


def test_bounding_box_semantics():
    ds = ray.data.from_arrow(pa.table({"doc_id": pa.array(range(400), pa.int64())}))
    out = geo.bounding_box(ds, "doc_id", **pipelines.GEO_BOX).take_all()
    lat, lon = geo.derive_coords(np.arange(400))
    box = pipelines.GEO_BOX
    mask = (
        (lat <= box["top"])
        & (lat >= box["bottom"])
        & (lon >= box["left"])
        & (lon <= box["right"])
    )
    assert sorted(r["doc_id"] for r in out) == np.flatnonzero(mask).tolist()
    assert len(out) > 0


def test_distance_rings_partition_all_docs():
    keys = pa.table({"doc_id": pa.array(range(1000), pa.int64())})
    ds = ray.data.from_arrow(keys)
    out = geo.distance_rings(
        ds,
        "doc_id",
        lat0=pipelines.GEO_LAT0,
        lon0=pipelines.GEO_LON0,
        edges=pipelines.GEO_RING_EDGES,
    ).take_all()
    assert sum(r["n_docs"] for r in out) == 1000
    rings = {r["ring"] for r in out}
    assert rings <= set(range(len(pipelines.GEO_RING_EDGES) + 1))


def test_geotile_grid_min_count_prunes():
    ds = ray.data.from_arrow(pa.table({"doc_id": pa.array(range(500), pa.int64())}))
    full = geo.geotile_grid(ds, "doc_id", zoom=pipelines.GEO_ZOOM, min_count=1).take_all()
    pruned = geo.geotile_grid(
        ds, "doc_id", zoom=pipelines.GEO_ZOOM, min_count=2
    ).take_all()
    assert len(pruned) < len(full)
    assert all(r["n_docs"] >= 2 for r in pruned)
    # pruned is exactly the >=2 slice of full
    want = {(r["xtile"], r["ytile"]): r["n_docs"] for r in full if r["n_docs"] >= 2}
    got = {(r["xtile"], r["ytile"]): r["n_docs"] for r in pruned}
    assert got == want


def test_geohash_known_vectors():
    # canonical geohash test points (precision-4 prefixes of the
    # published full hashes u4pruydqqvj / dqcjqcp...)
    gh = geo.geohash_cells(
        np.array([57.64911, 38.897]), np.array([10.40744, -77.036]), 4
    )
    assert gh.tolist() == ["u4pr", "dqcj"]
    with pytest.raises(ValueError):
        geo.geohash_cells(np.array([0.0]), np.array([0.0]), 3)


def test_point_in_polygon_square():
    # unit square (0,0)-(10,10): inside, outside, and a clearly-inside
    # point near the boundary
    poly = ((0.0, 0.0), (0.0, 10.0), (10.0, 10.0), (10.0, 0.0))
    lat = np.array([5.0, 15.0, 9.99, -0.01])
    lon = np.array([5.0, 5.0, 9.99, 5.0])
    assert geo.point_in_polygon(lat, lon, poly).tolist() == [
        True,
        False,
        True,
        False,
    ]


def test_polygon_concave():
    # concave shape: a 0..8 x 0..10 block whose top edge dips to
    # (lat=5, lon=4) — a point in the notch is OUTSIDE, points in the
    # solid body on either side are INSIDE
    poly = ((0.0, 0.0), (10.0, 0.0), (5.0, 4.0), (10.0, 8.0), (0.0, 8.0))
    lat = np.array([9.0, 5.0, 2.0])
    lon = np.array([4.0, 7.0, 4.0])
    got = geo.point_in_polygon(lat, lon, poly)
    assert got.tolist() == [False, True, True]


def test_centroid_exact_division():
    # centroid sums stay integer-exact; one division matches the direct
    # mean bit for bit
    ds = ray.data.from_arrow(pa.table({"doc_id": pa.array(range(300), pa.int64())}))
    out = geo.centroid_by_tile(ds, "doc_id", zoom=pipelines.GEO_CENTROID_ZOOM).take_all()
    keys = np.arange(300)
    lat, lon = geo.derive_coords(keys)
    clat, clon = geo.derive_centideg(keys)
    xt, yt = geo.geotile(lat, lon, pipelines.GEO_CENTROID_ZOOM)
    assert sum(r["n_docs"] for r in out) == 300
    for r in out:
        m = (xt == r["xtile"]) & (yt == r["ytile"])
        assert r["n_docs"] == int(m.sum())
        assert r["centroid_lat"] == clat[m].sum() / (100.0 * m.sum())
        assert r["centroid_lon"] == clon[m].sum() / (100.0 * m.sum())


def test_bounds_envelope_contains_group():
    ds = ray.data.read_parquet(
        os.path.join(SF_DIRS[0], "documents.parquet"), columns=["doc_id", "lang"]
    )
    out = geo.bounds_by(ds, "doc_id", "lang").take_all()
    keys = _doc_keys(SF_DIRS[0])
    lat, lon = geo.derive_coords(keys)
    assert len(out) > 0
    for r in out:
        assert r["bottom"] <= r["top"] and r["left"] <= r["right"]
        assert r["top"] <= lat.max() and r["bottom"] >= lat.min()


def test_antimeridian_and_pole_clamp():
    lat = np.array([0.0, 84.99, -84.99])
    lon = np.array([180.0, -180.0, 179.99])
    xt, yt = geo.geotile(lat, lon, 4)
    assert xt.max() <= 15 and xt.min() >= 0
    assert yt.max() <= 15 and yt.min() >= 0
    # lon=180 folds into the last column, lon=-180 is the first
    assert xt[0] == 15 and xt[1] == 0


def test_nearest_topk_breaks_distance_ties_by_key():
    """Keys one coordinate period apart share a location, so they tie on
    the rounded distance.  With the tie group straddling the k-th place
    inside ONE batch, the per-batch cut must keep the smallest keys."""
    period = 612000  # lcm of the lat (17000) and lon (36000) grid periods
    keys = np.array([5 + 3 * period, 7, 5 + period, 11, 5 + 2 * period, 5, 13])
    lat, lon = geo.derive_coords(keys)
    assert len({(a, b) for a, b in zip(lat[[0, 2, 4, 5]], lon[[0, 2, 4, 5]])}) == 1
    ds = ray.data.from_arrow(pa.table({"doc_id": pa.array(keys, pa.int64())}))
    for k in (1, 2, 3):
        got = geo.nearest_topk(
            ds, "doc_id", lat0=float(lat[0]) + 0.5, lon0=float(lon[0]) + 0.5, k=k
        )
        assert got["doc_id"].to_pylist() == [5 + i * period for i in range(k)]
