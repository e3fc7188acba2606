"""Index snapshot / restore — the ES ``_snapshot`` API surface over the
on-disk index layout (parts/, docstats/, docmeta/, _global.json,
aliases, tombstones).

A snapshot is a directory holding a verbatim copy of every regular file
under the index dir plus a ``_snapshot.json`` manifest (relative path,
size, sha256, count).  Files are HARDLINKED when source and snapshot share a
filesystem (O(metadata), zero bytes moved — ES's incremental-segment
trick, valid here because every writer in this repo publishes via
atomic tmp+rename and never mutates a published file in place: a later
delete/update/compaction swaps directory entries, leaving snapshot
inodes untouched), falling back to a byte copy across filesystems.
Restore re-links/copies into a fresh dir and verifies each file's size
and sha256 against the manifest before declaring the index servable, so
a corrupt file of the right size never restores silently.  Hashing reads
every byte once per create and per restore.

Reference analog: ConveyorBelt's durable-state story is Azure Blob
(DiagnosticsSource checkpoint/cursor rows survive worker restarts);
snapshotting the index directory is the equivalent operator-facing
backup/restore primitive for the search half this repo builds from
scratch.

Scale: snapshot/restore cost is O(files) metadata on shared storage
(the cb.storage contract), independent of corpus bytes on one
filesystem; across filesystems it streams file by file and is trivially
parallelizable per part/bucket file (each file is independent).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

MANIFEST = "_snapshot.json"


def _link_or_copy(src: str, dst: str) -> None:
    os.makedirs(os.path.dirname(dst), exist_ok=True)
    try:
        if os.path.exists(dst):
            os.remove(dst)
        os.link(src, dst)
    except OSError:
        shutil.copy2(src, dst)


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def create_snapshot(index_dir: str, snap_dir: str) -> dict:
    """Snapshot every regular file under ``index_dir`` into
    ``snap_dir``; returns the manifest (also written to
    ``snap_dir/_snapshot.json``, LAST — a manifest's presence marks the
    snapshot complete, so a crashed snapshot is never mistaken for a
    good one).  A reused ``snap_dir`` loses its old manifest BEFORE any
    file is replaced, so a crash mid-copy leaves no manifest over a
    mixed file set."""
    mp = os.path.join(snap_dir, MANIFEST)
    if os.path.exists(mp):
        os.remove(mp)
    files = []
    for root, _dirs, names in os.walk(index_dir):
        for name in sorted(names):
            src = os.path.join(root, name)
            rel = os.path.relpath(src, index_dir)
            files.append(
                {"path": rel, "size": os.path.getsize(src), "sha256": _sha256(src)}
            )
            _link_or_copy(src, os.path.join(snap_dir, rel))
    manifest = {"files": sorted(files, key=lambda f: f["path"]),
                "n_files": len(files)}
    tmp = os.path.join(snap_dir, MANIFEST + ".tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, mp)
    return manifest


def restore_snapshot(snap_dir: str, dest_dir: str) -> dict:
    """Restore a snapshot into ``dest_dir`` (link-or-copy per file),
    verifying each restored file's size and sha256 against the
    manifest.  Raises if the manifest is missing (incomplete snapshot)
    or any file differs (``IOError`` naming the file)."""
    mp = os.path.join(snap_dir, MANIFEST)
    if not os.path.exists(mp):
        raise FileNotFoundError(f"no snapshot manifest at {mp}")
    with open(mp) as f:
        manifest = json.load(f)
    # a restore target must hold EXACTLY the snapshot's files: stale
    # leftovers from an earlier restore (e.g. docstats buckets of an
    # older layout) would be concatenated by loaders that list their
    # directory — wipe first
    if os.path.isdir(dest_dir):
        shutil.rmtree(dest_dir)
    os.makedirs(dest_dir, exist_ok=True)
    for entry in manifest["files"]:
        src = os.path.join(snap_dir, entry["path"])
        dst = os.path.join(dest_dir, entry["path"])
        _link_or_copy(src, dst)
        got = os.path.getsize(dst)
        if got != entry["size"]:
            raise IOError(
                f"restore size mismatch for {entry['path']}: "
                f"{got} != {entry['size']}"
            )
        want = entry.get("sha256")  # manifests from before checksums have none
        if want is not None and _sha256(dst) != want:
            raise IOError(f"restore checksum mismatch for {entry['path']}")
    return manifest
