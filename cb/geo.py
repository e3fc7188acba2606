"""Geo queries and aggregations — the Elasticsearch ``geo_distance`` /
``geo_bounding_box`` query and ``geotile_grid`` / ``geo_distance``
(ring) aggregation surface ConveyorBelt delegates to ES (the reference
ships documents to ES and lets ES index ``geo_point`` fields; here the
kernels are first-class Ray Data operators over plain lat/lon DOUBLE
columns).

Every operator is one vectorized ``map_batches`` pass (numpy trig over
Arrow-backed arrays, zero row loops) that shrinks each batch to either
a filtered slice (queries) or a tiny ``(bucket, count)`` partial
(aggregations); aggregation partials merge in a native
``groupby().sum()`` whose group count is bounded by the BUCKET DOMAIN
(tiles / rings), never the corpus — the ``doclen_quantiles`` two-phase
pattern.  At 100 TB nothing but bucket partials crosses an exchange
and no driver-side loop touches rows.

Exact-parity contract (what makes these DuckDB-oracle-able):

- Haversine is evaluated with ONE canonical expression tree —
  ``2 R asin(sqrt(sin^2(dphi/2) + cos(phi0) cos(phi) sin^2(dlam/2)))``
  with degree->radian conversion written ``deg * (pi/180)`` — and the
  SQL mirrors spell the SAME tree.  numpy's vectorized trig may differ
  from libm by an ulp (~1e-12 km observed), so emitted distances are
  ``round(d, 6)`` (millimeter grid) on BOTH sides — verified bitwise
  at sf0.001/0.01/0.1 — and every membership edge (radius, ring edge,
  tile edge) is either IEEE-exact on both sides or separated from the
  data by >= 0.09 km (guarded by ``tests/test_geo.py``), 10 orders of
  magnitude above the ulp noise.
- Geotile is the slippy-map tile formula at zoom z:
  ``x = floor((lon+180)/360 * 2^z)``,
  ``y = floor((1 - ln(tan(phi) + 1/cos(phi)) / pi) / 2 * 2^z)`` —
  again one shared expression tree; tile assignment is bitwise equal
  to DuckDB on all sf test grids (exact-edge points land on
  binary-exact values, e.g. lat=0 -> y-frac exactly 0.5).

The test fixture has no geo columns, so coordinates are DERIVED
deterministically from the integer key onto a centidegree grid
(:func:`coord_exprs`): ``lat = ((key*7919) % 17000 - 8500) / 100.0``
(clamped inside Web-Mercator range), ``lon = ((key*104729) % 36000 -
18000) / 100.0`` — integer modulus then one exact-input division, so
Ray and SQL derive bit-identical DOUBLEs.  A real deployment replaces
the derivation with its own lat/lon columns; every kernel below takes
plain arrays.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data
from ray.data.aggregate import Max, Min, Sum

EARTH_RADIUS_KM = 6371.0

#: centidegree derivation constants — shared by the numpy kernel and
#: the SQL mirrors (primes keep the grid uncorrelated with key order)
LAT_MUL, LAT_MOD, LAT_OFF = 7919, 17000, 8500
LON_MUL, LON_MOD, LON_OFF = 104729, 36000, 18000


def derive_coords(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic test-fixture coordinates from an integer key
    column: centidegree grid, lat in [-85, 85) (inside Web-Mercator),
    lon in [-180, 180).  Integer ops then ONE division by 100.0 — the
    division inputs are exact integers, so the result is the correctly
    rounded double on every engine."""
    k = np.asarray(keys, dtype=np.int64)
    lat = ((k * LAT_MUL) % LAT_MOD - LAT_OFF) / 100.0
    lon = ((k * LON_MUL) % LON_MOD - LON_OFF) / 100.0
    return lat, lon


def coord_exprs(key: str) -> tuple[str, str]:
    """The SQL spelling of :func:`derive_coords` (same integer ops,
    same single division)."""
    lat = f"(({key} * {LAT_MUL}) % {LAT_MOD} - {LAT_OFF}) / 100.0"
    lon = f"(({key} * {LON_MUL}) % {LON_MOD} - {LON_OFF}) / 100.0"
    return lat, lon


def haversine_km(
    lat: np.ndarray, lon: np.ndarray, lat0: float, lon0: float
) -> np.ndarray:
    """Great-circle distance (km) with the canonical expression tree
    the SQL mirror (:func:`sql_haversine`) reproduces verbatim."""
    p = np.pi / 180.0
    la0, lo0 = lat0 * p, lon0 * p
    la, lo = lat * p, lon * p
    a = (
        np.sin((la - la0) / 2.0) ** 2
        + np.cos(la0) * np.cos(la) * np.sin((lo - lo0) / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


def sql_haversine(lat: str, lon: str, lat0: float, lon0: float) -> str:
    """SQL mirror of :func:`haversine_km` — SAME tree, term for term
    (``deg * (pi()/180.0)`` conversion, ``^2`` powers, one asin)."""
    la0 = f"{lat0!r} * (pi() / 180.0)"
    lo0 = f"{lon0!r} * (pi() / 180.0)"
    la = f"({lat}) * (pi() / 180.0)"
    lo = f"({lon}) * (pi() / 180.0)"
    return (
        f"2.0 * {EARTH_RADIUS_KM!r} * asin(sqrt("
        f"sin((({la}) - ({la0})) / 2.0) ^ 2"
        f" + cos({la0}) * cos({la})"
        f" * sin((({lo}) - ({lo0})) / 2.0) ^ 2))"
    )


def geotile(
    lat: np.ndarray, lon: np.ndarray, zoom: int
) -> tuple[np.ndarray, np.ndarray]:
    """Slippy-map tile ids at ``zoom`` (the ES ``geotile_grid`` bucket
    key) — canonical tree shared with :func:`sql_geotile`."""
    n = float(1 << zoom)
    p = np.pi / 180.0
    la = lat * p
    xt = np.floor((lon + 180.0) / 360.0 * n).astype(np.int64)
    yt = np.floor(
        (1.0 - np.log(np.tan(la) + 1.0 / np.cos(la)) / np.pi) / 2.0 * n
    ).astype(np.int64)
    # the antimeridian point lon=180 (absent from the derived grid but
    # legal input) belongs to the last column, not a phantom column n
    np.clip(xt, 0, (1 << zoom) - 1, out=xt)
    np.clip(yt, 0, (1 << zoom) - 1, out=yt)
    return xt, yt


def sql_geotile(lat: str, lon: str, zoom: int) -> tuple[str, str]:
    n = f"{float(1 << zoom)!r}"
    la = f"({lat}) * (pi() / 180.0)"
    xt = (
        f"least(greatest(floor((({lon}) + 180.0) / 360.0 * {n})::BIGINT,"
        f" 0), {(1 << zoom) - 1})"
    )
    yt = (
        f"least(greatest(floor((1.0 - ln(tan({la}) + 1.0 / cos({la}))"
        f" / pi()) / 2.0 * {n})::BIGINT, 0), {(1 << zoom) - 1})"
    )
    return xt, yt


# ---------------------------------------------------------------------------
# Ray Data operators


def with_coords(batch: pa.Table, key_col: str) -> pa.Table:
    """map_batches stage: append derived ``lat`` / ``lon`` columns."""
    lat, lon = derive_coords(batch[key_col].to_numpy(zero_copy_only=False))
    return batch.append_column("lat", pa.array(lat, pa.float64())).append_column(
        "lon", pa.array(lon, pa.float64())
    )


def bounding_box(
    ds: ray.data.Dataset,
    key_col: str,
    *,
    top: float,
    left: float,
    bottom: float,
    right: float,
) -> ray.data.Dataset:
    """ES ``geo_bounding_box`` (filter context): pure comparisons on
    the coordinate doubles — IEEE-exact, no trig.  One vectorized
    pass; each batch shrinks to its box slice."""

    def f(batch: pa.Table) -> pa.Table:
        b = with_coords(batch, key_col)
        lat = b["lat"].to_numpy()
        lon = b["lon"].to_numpy()
        mask = (lat <= top) & (lat >= bottom) & (lon >= left) & (lon <= right)
        return b.filter(pa.array(mask))

    return ds.map_batches(f, batch_format="pyarrow")


def distance_within(
    ds: ray.data.Dataset,
    key_col: str,
    *,
    lat0: float,
    lon0: float,
    radius_km: float,
) -> ray.data.Dataset:
    """ES ``geo_distance`` query: docs within ``radius_km`` of the
    origin, carrying ``dist_km = round(haversine, 6)`` (the rounding
    grid both engines agree on bitwise; membership uses the UNROUNDED
    distance with a strict ``<`` and the fixture guarantees >= 0.09 km
    of clearance at every sf — tests/test_geo.py guards it)."""

    def f(batch: pa.Table) -> pa.Table:
        b = with_coords(batch, key_col)
        d = haversine_km(b["lat"].to_numpy(), b["lon"].to_numpy(), lat0, lon0)
        b = b.append_column("dist_km", pa.array(np.round(d, 6), pa.float64()))
        return b.filter(pa.array(d < radius_km))

    return ds.map_batches(f, batch_format="pyarrow")


def distance_rings(
    ds: ray.data.Dataset,
    key_col: str,
    *,
    lat0: float,
    lon0: float,
    edges: tuple[float, ...],
) -> ray.data.Dataset:
    """ES ``geo_distance`` aggregation: half-open distance rings
    ``[0, e1), [e1, e2), ..., [e_last, inf)`` -> doc count.  Per-batch
    ``np.searchsorted`` partials (ring domain-sized), native
    ``groupby().sum()`` merge — nothing corpus-sized moves."""
    e = np.asarray(edges, dtype=np.float64)

    def partial(batch: pa.Table) -> pa.Table:
        b = with_coords(batch, key_col)
        d = haversine_km(b["lat"].to_numpy(), b["lon"].to_numpy(), lat0, lon0)
        ring = np.searchsorted(e, d, side="right").astype(np.int64)
        r, c = np.unique(ring, return_counts=True)
        return pa.table({"ring": r, "n": c.astype(np.int64)})

    parts = ds.map_batches(partial, batch_format="pyarrow")
    return parts.groupby("ring").sum("n").rename_columns({"sum(n)": "n_docs"})


def geotile_grid(
    ds: ray.data.Dataset, key_col: str, *, zoom: int, min_count: int = 1
) -> ray.data.Dataset:
    """ES ``geotile_grid`` aggregation at ``zoom``: per-batch
    ``(xtile, ytile, count)`` partials (tile domain-sized — a batch
    shrinks to its distinct tiles), native groupby-sum merge, then the
    ES ``min_doc_count`` prune."""

    def partial(batch: pa.Table) -> pa.Table:
        b = with_coords(batch, key_col)
        xt, yt = geotile(b["lat"].to_numpy(), b["lon"].to_numpy(), zoom)
        t = pa.table({"xtile": xt, "ytile": yt}).group_by(
            ["xtile", "ytile"]
        ).aggregate([("ytile", "count")])
        return t.rename_columns(["xtile", "ytile", "n"])

    parts = ds.map_batches(partial, batch_format="pyarrow")
    merged = (
        parts.groupby(["xtile", "ytile"]).sum("n").rename_columns({"sum(n)": "n_docs"})
    )
    if min_count > 1:
        merged = merged.filter(expr=f"n_docs >= {min_count}")
    return merged


# ---------------------------------------------------------------------------
# Pure-arithmetic geo kernels (no trig): polygon membership, geohash,
# bounds, centroid.  These are +,-,*,/ and floor over identical inputs,
# every op IEEE-correctly-rounded on BOTH engines, so Ray and SQL agree
# BITWISE with no edge-clearance requirement (unlike haversine, whose
# vectorized trig carries ulp noise).


def derive_centideg(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The INTEGER centidegree coordinates behind :func:`derive_coords`
    (lat*100, lon*100 as exact int64) — lets centroid sums stay in
    exact integer arithmetic until one final division."""
    k = np.asarray(keys, dtype=np.int64)
    clat = (k * LAT_MUL) % LAT_MOD - LAT_OFF
    clon = (k * LON_MUL) % LON_MOD - LON_OFF
    return clat, clon


def centideg_exprs(key: str) -> tuple[str, str]:
    clat = f"(({key} * {LAT_MUL}) % {LAT_MOD} - {LAT_OFF})"
    clon = f"(({key} * {LON_MUL}) % {LON_MOD} - {LON_OFF})"
    return clat, clon


def point_in_polygon(
    lat: np.ndarray, lon: np.ndarray, polygon: tuple[tuple[float, float], ...]
) -> np.ndarray:
    """Even-odd (ray-casting) membership for an arbitrary simple
    polygon of (lat, lon) vertices — the ES ``geo_polygon`` query.
    Vectorized over points, one pass per edge (edges are few); the
    crossing test is the canonical
    ``(y1 > y) != (y2 > y) and x < (x2-x1)*(y-y1)/(y2-y1) + x1``
    with y=lat, x=lon, mirrored term for term by
    :func:`sql_point_in_polygon`."""
    y, x = lat, lon
    inside = np.zeros(len(y), dtype=bool)
    n = len(polygon)
    for i in range(n):
        y1, x1 = polygon[i]
        y2, x2 = polygon[(i + 1) % n]
        cond = (y1 > y) != (y2 > y)
        # guard the division: where cond is False the value is unused
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = (x2 - x1) * (y - y1) / (y2 - y1) + x1
        inside ^= cond & (x < xint)
    return inside


def sql_point_in_polygon(
    lat: str, lon: str, polygon: tuple[tuple[float, float], ...]
) -> str:
    """SQL mirror of :func:`point_in_polygon`: crossing parity as a sum
    of CASE terms, SAME crossing expression tree per edge."""
    terms = []
    n = len(polygon)
    for i in range(n):
        y1, x1 = polygon[i]
        y2, x2 = polygon[(i + 1) % n]
        xint = (
            f"({x2!r} - {x1!r}) * (({lat}) - {y1!r})"
            f" / ({y2!r} - {y1!r}) + {x1!r}"
        )
        cross = (
            f"(({y1!r} > ({lat})) != ({y2!r} > ({lat})))"
            f" AND (({lon}) < {xint})"
        )
        terms.append(f"(CASE WHEN {cross} THEN 1 ELSE 0 END)")
    return f"(({' + '.join(terms)}) % 2 = 1)"


GEOHASH32 = "0123456789bcdefghjkmnpqrstuvwxyz"


def geohash_cells(
    lat: np.ndarray, lon: np.ndarray, precision: int
) -> np.ndarray:
    """Base-32 geohash of each point at ``precision`` characters (the
    ES ``geohash_grid`` bucket key).  Even ``precision`` only (each
    coordinate then contributes exactly ``5*precision/2`` bits, keeping
    the SQL mirror a flat bit-interleave).  Verified against the
    canonical test vectors (u4pr, dqcj) in tests/test_geo.py."""
    if precision % 2 or precision <= 0:
        raise ValueError("precision must be a positive even number")
    nb = 5 * precision // 2
    lonb = np.clip(
        np.floor((lon + 180.0) / 360.0 * float(1 << nb)).astype(np.int64),
        0,
        (1 << nb) - 1,
    )
    latb = np.clip(
        np.floor((lat + 90.0) / 180.0 * float(1 << nb)).astype(np.int64),
        0,
        (1 << nb) - 1,
    )
    ih = np.zeros_like(lonb)
    for i in range(nb):
        ih |= ((lonb >> i) & 1) << (2 * i + 1)
        ih |= ((latb >> i) & 1) << (2 * i)
    lut = np.array(list(GEOHASH32))
    out = lut[(ih >> (5 * (precision - 1))) & 31]
    for c in range(1, precision):
        out = np.char.add(out, lut[(ih >> (5 * (precision - 1 - c))) & 31])
    return out


def sql_geohash_parts(lat: str, lon: str, precision: int) -> dict[str, str]:
    """SQL mirror of :func:`geohash_cells` as LAYERED select-list
    expressions (the caller nests them in FROM clauses): ``lonb`` /
    ``latb`` reference the source columns, ``ih`` references columns
    named lonb/latb (the explicit bit interleave — integer ``>>``/``&``,
    exact), ``chars`` references a column named ih (base-32 via substr
    on the shared alphabet)."""
    if precision % 2 or precision <= 0:
        raise ValueError("precision must be a positive even number")
    nb = 5 * precision // 2
    top = (1 << nb) - 1
    lonb = (
        f"least(greatest(floor((({lon}) + 180.0) / 360.0 * "
        f"{float(1 << nb)!r})::BIGINT, 0), {top})"
    )
    latb = (
        f"least(greatest(floor((({lat}) + 90.0) / 180.0 * "
        f"{float(1 << nb)!r})::BIGINT, 0), {top})"
    )
    terms = []
    for i in range(nb):
        terms.append(f"(((lonb >> {i}) & 1) << {2 * i + 1})")
        terms.append(f"(((latb >> {i}) & 1) << {2 * i})")
    ih = " | ".join(terms)
    chars = " || ".join(
        f"substr('{GEOHASH32}', (((ih >> {5 * (precision - 1 - c)}) & 31) + 1)::INT, 1)"
        for c in range(precision)
    )
    return {"lonb": lonb, "latb": latb, "ih": ih, "chars": chars}


def polygon_query(
    ds: ray.data.Dataset,
    key_col: str,
    *,
    polygon: tuple[tuple[float, float], ...],
) -> ray.data.Dataset:
    """ES ``geo_polygon`` query (filter context): one vectorized
    ray-cast pass per batch."""

    def f(batch: pa.Table) -> pa.Table:
        b = with_coords(batch, key_col)
        mask = point_in_polygon(b["lat"].to_numpy(), b["lon"].to_numpy(), polygon)
        return b.filter(pa.array(mask))

    return ds.map_batches(f, batch_format="pyarrow")


def geohash_grid(
    ds: ray.data.Dataset, key_col: str, *, precision: int, min_count: int = 1
) -> ray.data.Dataset:
    """ES ``geohash_grid`` aggregation: per-batch (geohash, count)
    partials (cell-domain-sized), native groupby-sum merge, min_doc_count
    prune."""

    def partial(batch: pa.Table) -> pa.Table:
        b = with_coords(batch, key_col)
        gh = geohash_cells(b["lat"].to_numpy(), b["lon"].to_numpy(), precision)
        t = pa.table({"geohash": pa.array(gh.tolist(), pa.string())})
        t = t.group_by("geohash").aggregate([([], "count_all")])
        return t.rename_columns(["geohash", "n"])

    parts = ds.map_batches(partial, batch_format="pyarrow")
    merged = parts.groupby("geohash").sum("n").rename_columns({"sum(n)": "n_docs"})
    if min_count > 1:
        merged = merged.filter(expr=f"n_docs >= {min_count}")
    return merged


def bounds_by(
    ds: ray.data.Dataset, key_col: str, group_col: str
) -> ray.data.Dataset:
    """ES ``geo_bounds`` aggregation under a terms agg: per group the
    (top, bottom, left, right) envelope.  min/max partials are exact
    doubles — order-free, bitwise on both engines."""

    def partial(batch: pa.Table) -> pa.Table:
        b = with_coords(batch, key_col)
        t = pa.table(
            {"g": b[group_col], "lat": b["lat"], "lon": b["lon"]}
        )
        agg = t.group_by("g").aggregate(
            [("lat", "max"), ("lat", "min"), ("lon", "min"), ("lon", "max")]
        )
        return agg.rename_columns(["g", "top", "bottom", "left", "right"])

    parts = ds.map_batches(partial, batch_format="pyarrow")
    merged = parts.groupby("g").aggregate(
        Max("top", alias_name="top"),
        Min("bottom", alias_name="bottom"),
        Min("left", alias_name="left"),
        Max("right", alias_name="right"),
    )
    return merged.rename_columns({"g": group_col})


def centroid_by_tile(
    ds: ray.data.Dataset, key_col: str, *, zoom: int
) -> ray.data.Dataset:
    """ES ``geo_centroid`` under a ``geotile_grid``: per tile the mean
    point.  Sums stay EXACT int64 centidegrees (derive_centideg) until
    one final division ``sum / (100.0 * n)`` — exact integer inputs,
    one correctly-rounded divide, bitwise on both engines."""

    def partial(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        lat, lon = derive_coords(keys)
        clat, clon = derive_centideg(keys)
        xt, yt = geotile(lat, lon, zoom)
        t = pa.table(
            {"xtile": xt, "ytile": yt, "clat": clat, "clon": clon,
             "one": np.ones(len(xt), np.int64)}
        )
        agg = t.group_by(["xtile", "ytile"]).aggregate(
            [("clat", "sum"), ("clon", "sum"), ("one", "sum")]
        )
        return agg.rename_columns(["xtile", "ytile", "clat", "clon", "n"])

    parts = ds.map_batches(partial, batch_format="pyarrow")
    merged = parts.groupby(["xtile", "ytile"]).aggregate(
        Sum("clat", alias_name="clat"),
        Sum("clon", alias_name="clon"),
        Sum("n", alias_name="n_docs"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch["n_docs"].to_numpy()
        clat = batch["clat"].to_numpy() / (100.0 * n)
        clon = batch["clon"].to_numpy() / (100.0 * n)
        return pa.table(
            {
                "xtile": batch["xtile"],
                "ytile": batch["ytile"],
                "centroid_lat": pa.array(clat, pa.float64()),
                "centroid_lon": pa.array(clon, pa.float64()),
                "n_docs": batch["n_docs"],
            }
        )

    return merged.map_batches(finish, batch_format="pyarrow")


def nearest_topk(
    ds: ray.data.Dataset,
    key_col: str,
    *,
    lat0: float,
    lon0: float,
    k: int,
    where: tuple[str, str] | None = None,
) -> pa.Table:
    """ES ``sort: [{"_geo_distance": ...}]`` — the k nearest docs to an
    origin (optionally under a term filter), ordered by
    ``(round(dist, 6), doc key)``.  The ANN brute-force pattern: each
    batch emits only its local top-k candidate rows (bounded partials),
    the driver re-cuts the exact global top-k over <= k x batches
    candidates — nothing corpus-sized leaves a task.  Ordering uses the
    ROUNDED distance (the bitwise-stable grid), key ascending on ties,
    so the result is deterministic and SQL-mirrorable."""

    def partial(batch: pa.Table) -> pa.Table:
        if where is not None:
            col, val = where
            import pyarrow.compute as _pc

            batch = batch.filter(_pc.equal(batch[col], val))
        if batch.num_rows == 0:
            return pa.table(
                {key_col: pa.array([], pa.int64()),
                 "dist_km": pa.array([], pa.float64())}
            )
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        lat, lon = derive_coords(keys)
        d6 = np.round(haversine_km(lat, lon, lat0, lon0), 6)
        # cut on the final re-cut's (distance, key) order: a
        # distance-only cut could keep a larger key over a tied smaller one
        idx = np.lexsort((keys, d6))[:k]
        return pa.table(
            {key_col: pa.array(keys[idx], pa.int64()),
             "dist_km": pa.array(d6[idx], pa.float64())}
        )

    cand = ds.map_batches(partial, batch_format="pyarrow")
    # candidate set is <= k per input block: a driver-side exact re-cut
    blocks = [b for b in cand.iter_batches(batch_format="pyarrow")]
    t = pa.concat_tables(blocks) if blocks else pa.table(
        {key_col: pa.array([], pa.int64()), "dist_km": pa.array([], pa.float64())}
    )
    keys = t[key_col].to_numpy(zero_copy_only=False)
    d6 = t["dist_km"].to_numpy(zero_copy_only=False)
    order = np.lexsort((keys, d6))[:k]
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(order) + 1), pa.int64()),
            key_col: pa.array(keys[order], pa.int64()),
            "dist_km": pa.array(d6[order], pa.float64()),
        }
    )
