"""Skeleton sequence containers, transforms, file formats, synthetic data.

A clip holds joint positions shaped (F, S, J, C): frames, person slots,
joints per person, coordinates.  Person slots beyond the detected people
are zero-padded and flagged invalid.  The frame-axis transforms act on
plain arrays along axis 0, so positions and motions share them and padded
slots stay at zero; ``segments.sample_segments`` applies them per segment.

Text sample files are the interchange format.  They are parsed in one
walk over their rows, in file order, which names the first bad line
(:func:`load_sample`).  A split is a ``<split>.manifest`` and a
``<split>.pack`` next to it, and :func:`write_split` alone writes them,
for ``prepare`` and ``index`` both.  The pack is a checkpoint container
(``checkpoint.py``, whose checked walk it shares with checkpoints) that
holds, under each manifest entry's name and in manifest order, the float64
positions of its clip, with the labels in its meta.  :func:`load_samples`
opens a split from its manifest and pack alone and reads no sample file:
the split is a snapshot of the sample files as ``index`` (or ``prepare``)
read them, so an edited file takes effect only once ``index`` runs again.
"""

from __future__ import annotations

import contextlib
import os
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import CheckpointError, read_array, save_checkpoint, walk

DATASET_KINDS = {
    "ntu": (25, 3),        # 3-D joint positions
    "kinetics": (18, 3),   # (x, y, confidence) from 2-D pose estimation
    "synthetic": None,     # any geometry
}

# Synthetic coordinates are quantized to this grid so frame differencing
# and prefix-sum reconstruction are exact in float64.
_GRID = 2.0 ** 20


class SampleFormatError(ValueError):
    """Malformed sample or manifest file; message carries file:line."""


class ValidationError(ValueError):
    """Well-formed file whose content violates the manifest contract."""


@dataclass
class SkeletonClip:
    """Joint positions (F, S, J, C) plus a per-person validity mask (S,)."""

    positions: np.ndarray
    valid_person_mask: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 4:
            raise ValueError(f"positions must be (F, S, J, C), got {self.positions.shape}")
        self.valid_person_mask = np.asarray(self.valid_person_mask, dtype=bool)
        if self.valid_person_mask.shape != (self.positions.shape[1],):
            raise ValueError("valid_person_mask must have one entry per person slot")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions must be finite")


@dataclass
class LabeledSample:
    clip: SkeletonClip
    label: int
    source_id: str


@dataclass
class DatasetManifest:
    kind: str
    num_labels: int
    split: str
    entries: list[tuple[str, int]] = field(default_factory=list)
    base_dir: str = "."

    def sample_paths(self) -> list[str]:
        return [os.path.join(self.base_dir, rel) for rel, _ in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------------------
# frame-axis transforms

def frame_differences(positions: np.ndarray) -> np.ndarray:
    """delta[t] = positions[t+1] - positions[t]; final frame all zeros."""
    if positions.shape[0] < 2:
        raise ValueError(f"need at least 2 frames to derive motion, got {positions.shape[0]}")
    out = np.zeros_like(positions)
    out[:-1] = positions[1:] - positions[:-1]
    return out


def resample_frames(array: np.ndarray, target_frames: int) -> np.ndarray:
    """Endpoint-aligned linear interpolation along axis 0.

    Source index for output i is i * (F-1) / (target-1); target == F is the
    identity.  Linear interpolation never overshoots per-coordinate bounds.
    A 1-frame source (a 1-frame segment window) is held: that frame repeated.
    """
    frames = array.shape[0]
    if frames < 1 or target_frames < 2:
        raise ValueError(f"resampling needs >= 1 source and >= 2 target frames, "
                         f"got {frames} -> {target_frames}")
    if frames == 1:
        return np.repeat(array, target_frames, axis=0)
    # the clamp keeps a last position that rounds past F-1 from extrapolating
    pos = np.minimum(np.arange(target_frames) * ((frames - 1) / (target_frames - 1)),
                     frames - 1)
    lo = np.floor(pos).astype(np.int64)
    lo = np.minimum(lo, frames - 2)
    # weights in a float array's own dtype, so float32 clips stay float32
    dtype = array.dtype if array.dtype.kind == "f" else np.float64
    w = (pos - lo).astype(dtype, copy=False).reshape((-1,) + (1,) * (array.ndim - 1))
    return array[lo] * (1.0 - w) + array[lo + 1] * w


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def random_crop_window(frames: int, rng: np.random.Generator,
                       lo: float = 0.5, hi: float = 1.0) -> slice:
    """Contiguous window with ratio ~ U[lo, hi] and a uniform valid start."""
    ratio = rng.uniform(lo, hi)
    length = max(2, _round_half_up(ratio * frames))
    length = min(length, frames)
    start = int(rng.integers(0, frames - length + 1))
    return slice(start, start + length)


def center_crop_window(frames: int, ratio: float = 0.9) -> slice:
    """Centered window of ~``ratio * frames`` frames, at least 2 when possible."""
    length = min(frames, max(2, _round_half_up(ratio * frames)))
    start = (frames - length) // 2
    return slice(start, start + length)


# ---------------------------------------------------------------------------
# sample and manifest files

def save_sample(path: str, clip: SkeletonClip, label: int):
    """Write one labelled clip as a sample text file.

    Format (UTF-8 text, LF, CRLF or CR line ends): a header line
    ``F S J C label`` of five integers, then F*S*J data rows of C reals
    each, the positions in C order (frame, person, joint), values separated
    by whitespace and spelled as anything Python's ``float`` accepts.  A
    ``#`` starts a comment that runs to the end of its line; blank and
    comment-only lines may stand anywhere.  This writer emits each value
    as ``repr(float)``, so a file reads back bit for bit.

    :func:`load_sample` refuses, with a :class:`SampleFormatError` naming
    ``file:line``: an empty file; a header that is not five integers, has
    an extent below 1 or a negative label, or F < 2; a row without exactly
    C values; a non-numeric or non-finite value; rows beyond F*S*J; and
    fewer rows than F*S*J (``truncated``, naming the file only).
    """
    frames, persons, joints, coords = clip.positions.shape
    values = clip.positions.ravel().tolist()
    row = " ".join(["%r"] * coords) + "\n"
    data = (f"{frames} {persons} {joints} {coords} {label}\n"
            + row * (frames * persons * joints) % tuple(values)).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)


def _data_lines(lines):
    """(lineno, line) of every line holding data: comments and blanks dropped."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _decode(path: str, data: bytes) -> str:
    """A file's bytes as text read in universal-newline mode: CRLF and CR
    line ends become LF."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SampleFormatError(f"{path}: not a UTF-8 text file ({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def load_sample(path: str) -> LabeledSample:
    """Read a sample file (format: :func:`save_sample`) into a labelled clip.

    One walk over the rows that :func:`_data_lines` yields: the first is
    the header, and each later row is checked in file order for its
    position (none beyond F*S*J), its width (C values) and its values (each
    a ``float``), so the error names the first bad line.  Once every row is
    read, the count is checked, and then the first row holding a
    non-finite value is named.
    """
    # lines end at "\n" only, as in file iteration: other str.split()
    # whitespace such as "\x0c" or "\x1c" separates values within a line
    rows = list(_data_lines(_decode(path, _read_bytes(path)).split("\n")))
    if not rows:
        raise SampleFormatError(f"{path}:1: empty sample file")
    (lineno, header), rows = rows[0], rows[1:]
    parts = header.split()
    if len(parts) != 5:
        raise SampleFormatError(f"{path}:{lineno}: header must be 'F S J C label', got {header!r}")
    try:
        frames, persons, joints, coords, label = (int(p) for p in parts)
    except ValueError:
        raise SampleFormatError(f"{path}:{lineno}: non-integer header field in {header!r}") from None
    if min(frames, persons, joints, coords) < 1 or label < 0:
        raise SampleFormatError(f"{path}:{lineno}: header extents must be positive")
    if frames < 2:
        raise SampleFormatError(f"{path}:{lineno}: a clip needs at least 2 frames "
                                f"to derive motion, got {frames}")

    expected = frames * persons * joints
    values: list[float] = []
    for count, (lineno, line) in enumerate(rows):
        if count >= expected:
            raise SampleFormatError(f"{path}:{lineno}: trailing data beyond {expected} rows")
        fields = line.split()
        if len(fields) != coords:
            raise SampleFormatError(f"{path}:{lineno}: expected {coords} values, got {len(fields)}")
        try:
            values.extend(map(float, fields))
        except ValueError:
            raise SampleFormatError(f"{path}:{lineno}: non-numeric value in {line!r}") from None
    if len(rows) != expected:
        raise SampleFormatError(f"{path}: truncated: {len(rows)} of {expected} data rows")
    positions = np.array(values, dtype=np.float64).reshape(expected, coords)
    finite = np.isfinite(positions).all(axis=1)
    if not finite.all():
        lineno, line = rows[int(np.argmin(finite))]
        raise SampleFormatError(f"{path}:{lineno}: non-finite value in {line!r}")
    return _labeled(path, positions.reshape(frames, persons, joints, coords), label)


def _labeled(path: str, positions: np.ndarray, label: int) -> LabeledSample:
    """A file's clip: a person slot is valid when any of its values is nonzero."""
    mask = np.abs(positions).sum(axis=(0, 2, 3)) > 0
    return LabeledSample(SkeletonClip(positions, mask), label, os.path.basename(path))


_MANIFEST_KEYS = ("kind", "num_labels", "split")


def load_manifest(path: str) -> DatasetManifest:
    header: dict[str, str] = {}
    entries: list[tuple[str, int]] = []
    for lineno, line in _data_lines(_decode(path, _read_bytes(path)).split("\n")):
        fields = line.split("\t")
        if len(fields) != 2:
            raise SampleFormatError(f"{path}:{lineno}: expected 'key<TAB>value', got {line!r}")
        key, value = fields
        if key in _MANIFEST_KEYS and key not in header and not entries:
            header[key] = value
        else:
            try:
                entries.append((key, int(value)))
            except ValueError:
                raise SampleFormatError(f"{path}:{lineno}: non-integer label {value!r}") from None
    missing = [k for k in _MANIFEST_KEYS if k not in header]
    if missing:
        raise SampleFormatError(f"{path}: missing header keys {missing}")
    if not entries:
        raise SampleFormatError(f"{path}: manifest lists no samples")
    kind = header["kind"]
    if kind not in DATASET_KINDS:
        raise SampleFormatError(f"{path}: unknown dataset kind {kind!r}")
    try:
        num_labels = int(header["num_labels"])
    except ValueError:
        raise SampleFormatError(f"{path}: num_labels must be an integer") from None
    return DatasetManifest(kind=kind, num_labels=num_labels, split=header["split"],
                           entries=entries, base_dir=os.path.dirname(path) or ".")


def _check_entry(manifest: DatasetManifest, rel: str, label: int, shape):
    """Check one entry's label and clip shape against the manifest: an
    (F, S, J, C) clip of F >= 2 frames, no extent 0, of the kind's geometry."""
    geometry = DATASET_KINDS[manifest.kind]
    if not 0 <= label < manifest.num_labels:
        raise ValidationError(f"{rel}: label {label} outside [0, {manifest.num_labels})")
    if len(shape) != 4 or min(shape) < 1 or shape[0] < 2:
        raise ValidationError(f"{rel}: not an (F, S, J, C) clip of 2 or more frames: "
                              f"shape {list(shape)}")
    if geometry is not None and tuple(shape[2:]) != geometry:
        raise ValidationError(f"{rel}: geometry {tuple(shape[2:])} "
                              f"does not match kind {manifest.kind!r} {geometry}")


def split_files(manifest: DatasetManifest) -> tuple[str, str]:
    """The manifest and the pack file of a split, as :func:`write_split` names them."""
    stem = os.path.join(manifest.base_dir, manifest.split)
    return stem + ".manifest", stem + ".pack"


def _manifest_bytes(manifest: DatasetManifest) -> bytes:
    """The manifest file's bytes, once :func:`load_manifest`'s line rules
    read them back line for line, in memory; else a :class:`ValidationError`
    names the line."""
    path = split_files(manifest)[0]
    lines = [(key, str(getattr(manifest, key))) for key in _MANIFEST_KEYS]
    lines += [(rel, str(label)) for rel, label in manifest.entries]
    # a name's non-UTF-8 byte is written as "?", so that it reads back as another name
    data = "".join(f"{key}\t{value}\n" for key, value in lines).encode("utf-8", "replace")
    read = [line.split("\t") for _, line in _data_lines(_decode(path, data).split("\n"))]
    for (key, value), got in zip(lines, [*read, None]):
        if got != [key, value]:
            raise ValidationError(f"{path}: a manifest line cannot hold {key!r} "
                                  f"(value {value!r}): its reader would not give it back")
    return data


def write_split(manifest: DatasetManifest, clips: list[np.ndarray]):
    """Write a split into ``manifest.base_dir``: its pack (entry ``i``'s
    positions ``clips[i]`` under its name, and the labels in the meta),
    then its manifest.  Nothing is written, the directory included, unless
    the manifest passes :func:`_manifest_bytes`."""
    data = _manifest_bytes(manifest)
    path, pack_file = split_files(manifest)
    os.makedirs(manifest.base_dir, exist_ok=True)
    save_checkpoint(pack_file, {rel: positions for (rel, _), positions
                                in zip(manifest.entries, clips, strict=True)},
                    {"labels": [label for _, label in manifest.entries]})
    with open(path, "wb") as fh:
        fh.write(data)


def index_split(paths: list[str], out_dir: str, kind: str,
                num_labels: int | None = None) -> DatasetManifest:
    """Write the train split of ``out_dir`` that lists the sample files
    ``paths`` relative to it, each read once and checked before anything
    is written; ``num_labels`` defaults to the largest label + 1."""
    samples = [load_sample(path) for path in paths]
    manifest = DatasetManifest(kind, num_labels or max(s.label for s in samples) + 1, "train",
                               [(os.path.relpath(path, out_dir), sample.label)
                                for path, sample in zip(paths, samples)], out_dir)
    for (rel, label), sample in zip(manifest.entries, samples):
        _check_entry(manifest, rel, label, sample.clip.positions.shape)
    write_split(manifest, [sample.clip.positions for sample in samples])
    return manifest


class PackedSplit(Sequence):
    """A split's labelled clips, item ``i`` (an ``int``) read from the pack
    into a fresh array when accessed; :func:`load_samples` opens it."""

    def __init__(self, manifest: DatasetManifest, fh, offsets: np.ndarray, shapes: np.ndarray):
        self.manifest, self.shapes = manifest, shapes   # shapes: (F, S, J, C) per entry
        self._fh, self._offsets = fh, offsets           # the pack; where each clip starts

    def __len__(self) -> int:
        return len(self.manifest)

    def __getitem__(self, i) -> LabeledSample:
        rel, label = self.manifest.entries[i]
        positions = read_array(self._fh, rel, self.shapes[i].tolist(), int(self._offsets[i]))
        return _labeled(os.path.join(self.manifest.base_dir, rel), positions, label)

    def close(self):
        self._fh.close()


def load_samples(manifest: DatasetManifest) -> PackedSplit:
    """Open a split from its manifest and pack alone, checked once: the pack
    passes ``checkpoint.walk``, keeping no clip, and holds the manifest's
    entries in order, with its labels, each meeting :func:`_check_entry`.
    Else a :class:`ValidationError` names the split and says to run ``index``."""
    pack = split_files(manifest)[1]
    try:
        with contextlib.ExitStack() as stack:
            fh = stack.enter_context(open(pack, "rb"))
            meta, _, index = walk(pack, fh, keep=False)
            if ([name for name, *_ in index] != [rel for rel, _ in manifest.entries]
                    or meta.get("labels") != [label for _, label in manifest.entries]):
                raise CheckpointError(f"{pack}: its entries or labels are not the manifest's")
            for (rel, label), (_, shape, _) in zip(manifest.entries, index):
                _check_entry(manifest, rel, label, shape)
            stack.pop_all()
        return PackedSplit(manifest, fh, np.array([e[2] for e in index], np.int64),
                           np.array([e[1] for e in index], np.int64).reshape(-1, 4))
    except (OSError, CheckpointError, ValidationError) as exc:
        raise ValidationError(f"split {manifest.split!r}: {exc}; run `tssan index` "
                              f"(or `prepare`) again to rebuild it") from exc


# ---------------------------------------------------------------------------
# synthetic benchmark data

def _class_prototype(label: int, joints: int, persons: int, coords: int, frames: int):
    """Deterministic per-class motion pattern, independent of the caller's rng.

    Classes differ in oscillation frequency and direction, so raw
    trajectories are linearly separable and nearest-centroid solvable.
    """
    proto_rng = np.random.default_rng([20_000 + label])
    direction = proto_rng.normal(size=coords)
    direction /= np.linalg.norm(direction)
    joint_phase = proto_rng.uniform(0.0, 2.0 * np.pi, size=joints)
    frequency = 1.0 + label
    base_rng = np.random.default_rng([31_337])  # shared across classes
    base = base_rng.uniform(-0.5, 0.5, size=(joints, coords))
    t = np.arange(frames) / (frames - 1)
    wave = np.sin(2.0 * np.pi * frequency * t[:, None] + joint_phase[None, :])
    track = np.zeros((frames, persons, joints, coords))
    for s in range(persons):
        amp = 1.0 - 0.3 * s
        offset = np.zeros(coords)
        offset[0] = 1.5 * s
        track[:, s] = base + offset + amp * wave[:, :, None] * direction
    return track


def make_synthetic_dataset(out_dir: str, num_labels: int, samples_per_label: int,
                           frames: int = 48, joints: int = 5, persons: int = 2,
                           coords: int = 3, noise: float = 0.05, seed: int = 0,
                           split: str = "train") -> DatasetManifest:
    """Generate a separable multi-class motion dataset and its manifest.

    Coordinates are snapped to a dyadic grid so differencing and prefix
    sums reconstruct positions exactly.  Checks the manifest
    (:func:`_manifest_bytes`) before it creates anything, then writes the
    sample files and the split (:func:`write_split`); same seed, same bytes.
    """
    if min(num_labels, samples_per_label, frames, joints, persons, coords) < 1:
        raise ValueError("all synthetic dataset extents must be positive")
    if frames < 2:
        raise ValueError("synthetic clips need at least 2 frames")
    if not np.isfinite(noise):
        raise ValueError(f"noise must be finite, got {noise}")
    manifest = DatasetManifest(kind="synthetic", num_labels=num_labels, split=split,
                               entries=[(f"{split}_{label:02d}_{i:04d}.txt", label)
                                        for label in range(num_labels)
                                        for i in range(samples_per_label)],
                               base_dir=out_dir)
    _manifest_bytes(manifest)
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    clips = []
    for n, (rel, label) in enumerate(manifest.entries):
        if n % samples_per_label == 0:
            proto = _class_prototype(label, joints, persons, coords, frames)
        jitter = 1.0 + noise * rng.normal()
        drift = noise * rng.normal(size=coords)
        wobble = noise * rng.normal(size=proto.shape)
        positions = proto * jitter + drift + wobble
        positions = np.round(positions * _GRID) / _GRID
        clip = SkeletonClip(positions, np.ones(persons, dtype=bool))
        save_sample(os.path.join(out_dir, rel), clip, label)
        clips.append(clip.positions)
    write_split(manifest, clips)
    return manifest
