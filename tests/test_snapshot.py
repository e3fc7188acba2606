"""Snapshot / restore (cb/snapshot.py): manifest completeness, crash
safety (manifest written last), stale-restore wipe, and hardlink
isolation from post-snapshot mutations."""

import json
import os
import re

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from cb import snapshot
from cb.build import build_index
from cb.shard import LocalSearcher


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    d = tmp_path_factory.mktemp("snap")
    rows = [
        {"doc_id": 10 + i * 3, "text": t}
        for i, t in enumerate(
            [
                "alpha join merge window",
                "join table scan alpha",
                "merge join window table",
                "quantum zebra dance",
                "join window merge scan table",
            ]
        )
    ]
    src = str(d / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(d / "idx")
    build_index(src, idx, text_col="text", id_col="doc_id", num_parts=2)
    return str(d), idx


def test_snapshot_restore_identical_results(built):
    d, idx = built
    snap = os.path.join(d, "snap1")
    dest = os.path.join(d, "restore1")
    m1 = snapshot.create_snapshot(idx, snap)
    m2 = snapshot.restore_snapshot(snap, dest)
    assert m1 == m2 and m1["n_files"] > 0
    want = LocalSearcher(idx).query("join merge", k=10, algo="taat")
    got = LocalSearcher(dest).query("join merge", k=10, algo="taat")
    assert got == want  # scores bitwise: same bytes served


def test_restore_requires_manifest(built, tmp_path):
    d, idx = built
    half = str(tmp_path / "half")
    # simulate a crashed snapshot: files copied but no manifest
    m = snapshot.create_snapshot(idx, half)
    os.remove(os.path.join(half, snapshot.MANIFEST))
    with pytest.raises(FileNotFoundError):
        snapshot.restore_snapshot(half, str(tmp_path / "r"))
    assert m["n_files"] > 0


def test_restore_wipes_stale_files(built, tmp_path):
    d, idx = built
    snap = str(tmp_path / "snap")
    dest = str(tmp_path / "dest")
    snapshot.create_snapshot(idx, snap)
    os.makedirs(os.path.join(dest, "docstats"), exist_ok=True)
    stale = os.path.join(dest, "docstats", "bucket=999.parquet")
    with open(stale, "w") as f:
        f.write("stale")
    snapshot.restore_snapshot(snap, dest)
    assert not os.path.exists(stale)


def test_restore_detects_size_mismatch(built, tmp_path):
    d, idx = built
    snap = str(tmp_path / "snap")
    snapshot.create_snapshot(idx, snap)
    mp = os.path.join(snap, snapshot.MANIFEST)
    with open(mp) as f:
        m = json.load(f)
    m["files"][0]["size"] += 1
    with open(mp, "w") as f:
        json.dump(m, f)
    with pytest.raises(IOError):
        snapshot.restore_snapshot(snap, str(tmp_path / "r"))


def test_restore_detects_flipped_byte(built, tmp_path):
    """A corrupt snapshot file of unchanged size must not restore."""
    d, idx = built
    snap = str(tmp_path / "snap")
    m = snapshot.create_snapshot(idx, snap)
    rel = max(m["files"], key=lambda f: f["size"])["path"]
    path = os.path.join(snap, rel)
    with open(path, "rb") as f:
        data = bytearray(f.read())
    data[len(data) // 2] ^= 0x01
    os.remove(path)  # a new inode: the hardlinked index file stays intact
    with open(path, "wb") as f:
        f.write(data)
    with pytest.raises(IOError, match=re.escape(rel)):
        snapshot.restore_snapshot(snap, str(tmp_path / "r"))


def test_snapshot_isolated_from_later_writes(built, tmp_path):
    # the repo's writers publish via tmp+rename; a hardlinked snapshot
    # must keep serving the OLD bytes after the live index republishes
    d, idx = built
    snap = str(tmp_path / "snap")
    dest = str(tmp_path / "dest")
    snapshot.create_snapshot(idx, snap)
    gpath = os.path.join(idx, "_global.json")
    with open(gpath) as f:
        orig = f.read()
    tmp = gpath + ".tmp"
    mutated = json.loads(orig)
    mutated["n_docs"] = 999999
    with open(tmp, "w") as f:
        json.dump(mutated, f)
    os.replace(tmp, gpath)
    try:
        snapshot.restore_snapshot(snap, dest)
        with open(os.path.join(dest, "_global.json")) as f:
            assert json.load(f)["n_docs"] != 999999
    finally:
        with open(tmp, "w") as f:
            f.write(orig)
        os.replace(tmp, gpath)


def test_federation_snapshot_restore_relocates(tmp_path):
    # fed.json publishes the builder's absolute member dirs; a restored
    # (or moved) federation must serve from ITS OWN location —
    # load_fed_meta rebases member dirs on read
    import numpy as np
    from cb import federated

    base_us = 1_767_571_200_000_000
    rows = []
    for i in range(30):
        rows.append(
            {
                "doc_id": 1 + i * 5,
                "text": ["merge join table", "hash index scan", "join window"][i % 3],
                "ts": base_us + (i % 2) * 86_400_000_000,
            }
        )
    t = pa.Table.from_pylist(rows)
    t = t.set_column(
        t.schema.get_field_index("ts"), "ts", t["ts"].cast(pa.timestamp("us"))
    )
    src = str(tmp_path / "docs.parquet")
    pq.write_table(t, src)
    fed_dir = str(tmp_path / "fed")
    federated.build_federation(
        src, fed_dir, text_col="text", id_col="doc_id", ts_col="ts",
        prefix="cb-", columns=["doc_id", "text"], num_parts=2,
    )
    eng = federated.FederatedEngine(fed_dir, num_servers=1)
    try:
        want = eng.query("join", k=10)
    finally:
        eng.shutdown()
    snap = str(tmp_path / "snap")
    dest = str(tmp_path / "restored_fed")
    snapshot.create_snapshot(fed_dir, snap)
    snapshot.restore_snapshot(snap, dest)
    # the ORIGINAL federation is gone: any un-rebased dir would fail
    import shutil

    shutil.rmtree(fed_dir)
    eng2 = federated.FederatedEngine(dest, num_servers=1)
    try:
        got = eng2.query("join", k=10)
    finally:
        eng2.shutdown()
    assert got == want


def test_crash_into_reused_dir_leaves_no_manifest(built, tmp_path, monkeypatch):
    """Re-snapshotting into a dir that holds a complete snapshot, then
    failing partway through the copy, must not leave the OLD manifest
    marking the mixed file set complete."""
    d, idx = built
    snap = str(tmp_path / "snap")
    snapshot.create_snapshot(idx, snap)
    calls = []
    real = snapshot._link_or_copy

    def failing(src, dst):
        calls.append(dst)
        if len(calls) == 3:
            raise OSError("disk full")
        real(src, dst)

    monkeypatch.setattr(snapshot, "_link_or_copy", failing)
    with pytest.raises(OSError):
        snapshot.create_snapshot(idx, snap)
    assert len(calls) == 3
    with pytest.raises(FileNotFoundError):
        snapshot.restore_snapshot(snap, str(tmp_path / "r"))


def test_snapshot_cli_smoke(built, tmp_path):
    """``cb snapshot create/list/restore`` in a subprocess; the restored
    index serves the same results.  ``cb alias`` is gone (index aliases
    are filtered views managed through cb.shard.put_alias)."""
    import subprocess
    import sys

    d, idx = built
    repo = str(tmp_path / "repo")
    dest = str(tmp_path / "dest")

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "cb.cli", *argv],
            capture_output=True, text=True, timeout=300,
        )

    r = cli("snapshot", "list", "--repo", repo)
    assert r.returncode == 0, r.stderr[-2000:]
    assert json.loads(r.stdout) == {"snapshots": []}
    r = cli("snapshot", "create", "--repo", repo, "--name", "s1", "--index", idx)
    assert r.returncode == 0, r.stderr[-2000:]
    n_files = json.loads(r.stdout)["files"]
    assert n_files > 0
    os.makedirs(os.path.join(repo, "partial"))  # no manifest: not listed
    r = cli("snapshot", "list", "--repo", repo)
    assert json.loads(r.stdout) == {"snapshots": ["s1"]}
    r = cli("snapshot", "restore", "--repo", repo, "--name", "s1", "--index", dest)
    assert r.returncode == 0, r.stderr[-2000:]
    assert json.loads(r.stdout) == {"name": "s1", "restored_files": n_files, "target": dest}
    assert LocalSearcher(dest).query("join merge", k=10, algo="taat") == \
        LocalSearcher(idx).query("join merge", k=10, algo="taat")
    r = cli("snapshot", "create", "--repo", repo)
    assert r.returncode != 0 and "needs --name and --index" in r.stderr
    r = cli("alias", "list", "--root", repo)
    assert r.returncode == 2 and "invalid choice" in r.stderr
