"""Self-describing binary checkpoint container.

Layout: an 8-byte magic, a little-endian u64 header length, a JSON header,
the raw float64 little-endian tensor payload (the float64 master weights
that Adam holds and its moments, while the model computes on float32
copies), and last a little-endian u32 ``zlib.crc32`` of every byte before
it.  The header carries the format version, arbitrary JSON metadata
(configs, optimizer scalars, rng state, counters), and the
name/shape/offset index of every tensor; the arrays lie back to back in
index order.

Both directions stream.  A save writes the header, whose offsets follow
from the shapes, then each array in turn, so it never holds a second copy
of the payload.  Checkpoints and the sample packs of ``data.py`` share one
checked walk (:func:`walk`); no other module reads the container.  It
checks the index against the file size, reads each array once for the
checksum and for finiteness, then checks the trailer.  A checkpoint load
keeps each array in its own buffer (about the file's size, no more); a
pack's walk keeps none.  It is all-or-nothing: a bad magic, header, index,
size, checksum or a non-finite value raises a :class:`CheckpointError`
before anything is handed out.  Version-1 files have no trailer.

A save writes ``<path>.tmp`` and renames it over ``path``, so a reader
sees the old file or the new one, never a mix; a save that fails removes
the tmp file.  Before the rename the save opens the file it replaces
(read-only, non-blocking, so a FIFO does not stall it) and holds that fd
across the rename.  On ext4 a rename over an existing file starts the
writeback of the new file, and the next save to the same name drops the
last link to an inode whose pages may still be in flight; whoever
releases that inode last waits for the I/O.  Without the held fd that is
the rename, on the training thread, for a few hundred milliseconds.  With
it the wait moves into the close of the fd, which runs on a short-lived
daemon thread that the save never joins (``os.close`` releases the GIL).
If the old file cannot be opened, nothing is held and the rename waits
as before.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import threading
import zlib

import numpy as np

MAGIC = b"TSSANCKP"
VERSION = 2
_CRC = struct.Struct("<I")


class CheckpointError(RuntimeError):
    """Corrupt, truncated, or version-mismatched checkpoint file."""


def save_checkpoint(path: str, arrays: dict[str, np.ndarray], meta: dict):
    index = []
    offset = 0
    for name, arr in arrays.items():
        nbytes = 8 * np.size(arr)
        index.append({"name": name, "shape": list(np.shape(arr)), "offset": offset,
                      "nbytes": nbytes})
        offset += nbytes
    header = json.dumps({"version": VERSION, "meta": meta, "arrays": index},
                        sort_keys=True).encode("utf-8")
    tmp = path + ".tmp"
    old = None     # an fd on the file this save replaces, if it can be opened
    fh = open(tmp, "wb")
    try:
        with fh:
            crc = 0
            for chunk in (MAGIC, struct.pack("<Q", len(header)), header):
                fh.write(chunk)
                crc = zlib.crc32(chunk, crc)
            for arr in arrays.values():
                data = np.ascontiguousarray(arr, dtype="<f8")
                fh.write(data)
                crc = zlib.crc32(data, crc)
            fh.write(_CRC.pack(crc))
        with contextlib.suppress(OSError):
            old = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        os.replace(tmp, path)
    except BaseException:
        if old is not None:
            os.close(old)
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    if old is not None:
        threading.Thread(target=os.close, args=(old,), daemon=True).start()


def load_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Returns (meta, arrays); raises CheckpointError without partial state."""
    try:
        with open(path, "rb") as fh:
            return walk(path, fh, keep=True)[:2]
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc


def walk(path: str, fh, keep: bool) -> tuple[dict, dict[str, np.ndarray], list]:
    """The meta, each array in a fresh buffer if ``keep`` (else none, read
    through one buffer) and the index (name, shape, offset in the file) of
    ``fh``, once one pass has checked all of it."""
    version, meta, index, start, crc = _read_header(path, fh)
    arrays: dict[str, np.ndarray] = {}
    buf = None if keep else np.empty(max((e[3] for e in index), default=0) // 8, "<f8")
    non_finite = None      # the first array that holds a non-finite value
    for name, shape, _, nbytes in index:
        values = np.empty(shape, "<f8") if keep else buf[:nbytes // 8]
        if fh.readinto(values) != nbytes:
            raise CheckpointError(f"{path}: truncated payload at {name}")
        crc = zlib.crc32(values, crc)
        if non_finite is None and not np.isfinite(values).all():
            non_finite = name
        if keep:
            arrays[name] = values.astype(np.float64, copy=False)
    # a corrupt file is reported as such, not by the value its damage made
    if version == VERSION and fh.read(_CRC.size) != _CRC.pack(crc):
        raise CheckpointError(f"{path}: checksum mismatch, the file is corrupt")
    if non_finite is not None:
        raise CheckpointError(f"{path}: {non_finite} holds non-finite values")
    return meta, arrays, [(name, shape, start + offset) for name, shape, offset, _ in index]


def read_array(fh, name: str, shape, offset: int) -> np.ndarray:
    """The array ``name`` of ``shape`` at ``offset`` in the file ``fh``, as
    :func:`walk` indexes it, read with one ``os.preadv`` into a fresh array."""
    values = np.empty(shape, dtype="<f8")
    if os.preadv(fh.fileno(), [values], offset) != values.nbytes:
        raise CheckpointError(f"{fh.name}: truncated payload at {name}")
    return values


def _read_header(path: str, fh) -> tuple[int, dict, list, int, int]:
    """The version, meta and index (name, shape, offset, nbytes) of the file
    ``fh``, checked; its payload's start, where ``fh`` is left, and the
    checksum of what precedes it."""
    size = os.fstat(fh.fileno()).st_size
    prefix = fh.read(len(MAGIC) + 8)
    if len(prefix) < len(MAGIC) + 8 or prefix[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    header_end = len(prefix) + struct.unpack("<Q", prefix[len(MAGIC):])[0]
    if header_end > size:
        raise CheckpointError(f"{path}: truncated header")
    raw = fh.read(header_end - len(prefix))
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:   # too deep
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: malformed header, not a JSON object")
    version = header.get("version")
    if version not in (1, VERSION):
        raise CheckpointError(f"{path}: version {version!r} "
                              f"unsupported (expected 1 or {VERSION})")
    try:
        meta = header["meta"]
        index = [(e["name"], e["shape"], e["offset"], e["nbytes"])
                 for e in header["arrays"]]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed header ({exc!r})") from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: malformed header, meta is not an object")

    # the arrays lie back to back, and the payload ends where the last one does
    payload = size - header_end - (_CRC.size if version == VERSION else 0)
    end = 0
    for name, shape, start, nbytes in index:
        if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)
                and start == end and nbytes == 8 * math.prod(shape)):
            raise CheckpointError(f"{path}: bad offset or size for {name}")
        end += nbytes
        if end > payload:
            raise CheckpointError(f"{path}: truncated payload at {name}")
    if payload > end:
        raise CheckpointError(f"{path}: {payload - end} trailing bytes "
                              f"after the last array")
    return version, meta, index, header_end, zlib.crc32(raw, zlib.crc32(prefix))

