"""Index lifecycle: the ES ``_rollover`` API — a write alias over a
sequence of generation indexes (``{alias}-000001``, ``-000002``, ...),
rolled when the current write generation reaches ``max_docs``.

Semantics follow ES: writes address the ALIAS, land in the single
write generation; a rollover check (here folded into ``ingest_chunk``,
the managed-ILM shape) seals the write generation once its doc count
meets the condition and opens the next one; reads through the alias
span EVERY generation (each generation is an independent index with its
own BM25 statistics, exactly like searching ``alias-*`` in ES).

Placement is a pure function of ingestion order: doc at 0-based
ingestion rank r lives in generation ``r // max_docs`` — what makes the
layout SQL-oracle-able (a ``row_number()`` window).  The state file
records (generation, staged shard files, sealed?) and every mutation is
an atomic tmp+rename publish AFTER the staged parquet lands, so a
crashed ingest re-runs to the same state (the ingest_new_shards
idempotence contract, cb/federated.py).

Scale: sealing a generation triggers ONE index build over that
generation's staged shards — bounded work (max_docs docs), the same
resumable build used everywhere; generations never rebuild once sealed.
Reads fan out per generation like the day-federation's members.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

from . import manifest
from .build import build_index

STATE = "_rollover.json"


def _state_path(root: str) -> str:
    return os.path.join(root, STATE)


def gen_name(alias: str, gen: int) -> str:
    return f"{alias}-{gen + 1:06d}"


def init(root: str, alias: str, max_docs: int) -> dict:
    """Create the rollover state under ``root``, or return the existing
    one when it was initialized with the same ``alias`` and
    ``max_docs``.  A conflicting re-init raises ``ValueError`` rather
    than silently keeping the old configuration."""
    os.makedirs(root, exist_ok=True)
    if os.path.exists(_state_path(root)):
        st = _load(root)
        if (st["alias"], st["max_docs"]) != (alias, int(max_docs)):
            raise ValueError(
                f"rollover at {root!r} is initialized with alias={st['alias']!r}, "
                f"max_docs={st['max_docs']}; got alias={alias!r}, max_docs={max_docs}"
            )
        return st
    st = {
        "alias": alias,
        "max_docs": int(max_docs),
        "generations": [],  # [{name, n_docs, sealed}]
        "ingested": [],  # chunk keys already staged (idempotence)
    }
    manifest.write_atomic(_state_path(root), st)
    return st


def _load(root: str) -> dict:
    with open(_state_path(root)) as f:
        return json.load(f)


def _staging(root: str, name: str) -> str:
    d = os.path.join(root, name, "staging")
    os.makedirs(d, exist_ok=True)
    return d


def ingest_chunk(
    root: str, chunk_key: str, table: pa.Table, *, id_col: str = "doc_id"
) -> dict:
    """Write one ingestion chunk through the alias: rows fill the
    current write generation up to ``max_docs``, overflow opens (and
    fills) successor generations — the ES managed-rollover condition
    checked per request.  ``chunk_key`` makes re-ingest idempotent: a
    crashed call re-stages the same deterministic files and re-publishes
    the same state."""
    st = _load(root)
    if chunk_key in st["ingested"]:
        return st
    gens = st["generations"]
    max_docs = st["max_docs"]
    offset = 0
    n = table.num_rows
    while offset < n:
        if not gens or gens[-1]["sealed"]:
            gens.append(
                {"name": gen_name(st["alias"], len(gens)), "n_docs": 0,
                 "sealed": False}
            )
        cur = gens[-1]
        room = max_docs - cur["n_docs"]
        take = min(room, n - offset)
        part = table.slice(offset, take)
        pq.write_table(
            part, os.path.join(_staging(root, cur["name"]), f"{chunk_key}-{offset}.parquet")
        )
        cur["n_docs"] += take
        offset += take
        if cur["n_docs"] >= max_docs:
            cur["sealed"] = True
    st["ingested"] = sorted(set(st["ingested"]) | {chunk_key})
    manifest.write_atomic(_state_path(root), st)
    return st


def build_generations(
    root: str, *, text_col: str = "text", id_col: str = "doc_id",
    num_parts: int = 2,
) -> dict:
    """Build the index for every generation that has staged docs but no
    published index yet (sealed generations never rebuild — their
    ``_global.json`` is the done-sentinel).  The still-open write
    generation builds too (ES serves the write index), and is rebuilt
    on the next call if it grew."""
    st = _load(root)
    for g in st["generations"]:
        idx = os.path.join(root, g["name"], "index")
        done = os.path.exists(os.path.join(idx, "_global.json"))
        if done and g["sealed"]:
            continue
        if done and not g["sealed"]:
            # open generation grew since the last build -> rebuild iff
            # the staged doc count changed
            with open(os.path.join(idx, "_global.json")) as f:
                if json.load(f)["n_docs"] == g["n_docs"]:
                    continue
            import shutil

            shutil.rmtree(idx)
        build_index(
            _staging(root, g["name"]), idx, text_col=text_col, id_col=id_col,
            num_parts=num_parts,
        )
    return st


def resolve(root: str) -> tuple[list[str], str | None]:
    """(all generation index dirs in order, write-generation dir) — the
    read alias spans every generation, writes go to the unsealed tail
    (None when the newest is sealed and nothing reopened)."""
    st = _load(root)
    dirs = [os.path.join(root, g["name"], "index") for g in st["generations"]]
    write = None
    if st["generations"] and not st["generations"][-1]["sealed"]:
        write = dirs[-1]
    return dirs, write


def layout(root: str) -> pa.Table:
    """(index, n_docs, sealed) per generation — the _rollover response
    body; placement is value-checked against the row_number oracle."""
    st = _load(root)
    return pa.table(
        {
            "index": pa.array([g["name"] for g in st["generations"]], pa.string()),
            "n_docs": pa.array([g["n_docs"] for g in st["generations"]], pa.int64()),
            "sealed": pa.array([g["sealed"] for g in st["generations"]], pa.bool_()),
        }
    )
