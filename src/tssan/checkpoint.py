"""Self-describing binary checkpoint container.

Layout: an 8-byte magic, a little-endian u64 header length, a JSON header,
then the raw float64 little-endian tensor payload: the float64 master
weights and Adam moments, whatever dtype the model computes in.  The
header carries the format version, arbitrary JSON metadata (configs,
optimizer scalars, rng state, counters), and the name/shape/offset index
of every tensor.  Loads are all-or-nothing: any inconsistency raises
before anything is handed out.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

MAGIC = b"TSSANCKP"
VERSION = 1


class CheckpointError(RuntimeError):
    """Corrupt, truncated, or version-mismatched checkpoint file."""


def save_checkpoint(path: str, arrays: dict[str, np.ndarray], meta: dict):
    index = []
    chunks = []
    offset = 0
    for name, arr in arrays.items():
        data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        index.append({"name": name, "shape": list(arr.shape), "offset": offset,
                      "nbytes": len(data)})
        chunks.append(data)
        offset += len(data)
    header = json.dumps({"version": VERSION, "meta": meta, "arrays": index},
                        sort_keys=True).encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for chunk in chunks:
            fh.write(chunk)
    os.replace(tmp, path)


def load_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Returns (meta, arrays); raises CheckpointError without partial state."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(blob) < len(MAGIC) + 8 or blob[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    header_len = struct.unpack("<Q", blob[8:16])[0]
    header_end = 16 + header_len
    if header_end > len(blob):
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(blob[16:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: malformed header, not a JSON object")
    if header.get("version") != VERSION:
        raise CheckpointError(f"{path}: version {header.get('version')!r} "
                              f"unsupported (expected {VERSION})")
    try:
        meta = header["meta"]
        index = [(e["name"], tuple(e["shape"]), e["offset"], e["nbytes"])
                 for e in header["arrays"]]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed header ({exc!r})") from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: malformed header, meta is not an object")
    payload = blob[header_end:]
    arrays: dict[str, np.ndarray] = {}
    end = 0
    for name, shape, start, nbytes in index:
        if start < 0 or nbytes != 8 * int(np.prod(shape)):
            raise CheckpointError(f"{path}: bad offset or size for {name}")
        if start + nbytes > len(payload):
            raise CheckpointError(f"{path}: truncated payload at {name}")
        arr = np.frombuffer(payload[start:start + nbytes], dtype="<f8")
        arrays[name] = arr.reshape(shape).astype(np.float64)
        end = max(end, start + nbytes)
    if len(payload) > end:
        raise CheckpointError(f"{path}: {len(payload) - end} trailing bytes "
                              f"after the last array")
    return meta, arrays
