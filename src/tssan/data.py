"""Skeleton sequence containers, transforms, file formats, synthetic data.

A clip holds joint positions shaped (F, S, J, C): frames, person slots,
joints per person, coordinates.  Person slots beyond the detected people
are zero-padded and flagged invalid.  The frame-axis transforms act on
plain arrays along axis 0, so positions and motions share them and padded
slots stay at zero; ``segments.sample_segments`` applies them per segment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

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

    @property
    def frames(self) -> int:
        return self.positions.shape[0]

    @property
    def persons(self) -> int:
        return self.positions.shape[1]

    @property
    def joints(self) -> int:
        return self.positions.shape[2]

    @property
    def coords(self) -> int:
        return self.positions.shape[3]


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

    def sample_path(self, i: int) -> str:
        return os.path.join(self.base_dir, self.entries[i][0])

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
    """
    frames = array.shape[0]
    if frames < 2 or target_frames < 2:
        raise ValueError(f"resampling needs >= 2 frames on both sides, "
                         f"got {frames} -> {target_frames}")
    pos = np.arange(target_frames) * ((frames - 1) / (target_frames - 1))
    lo = np.floor(pos).astype(np.int64)
    lo = np.minimum(lo, frames - 2)
    w = (pos - lo).reshape((-1,) + (1,) * (array.ndim - 1))
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
    """Text format: header ``F S J C label`` then F*S*J lines of C reals."""
    frames, persons, joints, coords = clip.positions.shape
    rows = clip.positions.reshape(-1, coords)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{frames} {persons} {joints} {coords} {label}\n")
        for row in rows:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def _data_lines(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line


def load_sample(path: str) -> LabeledSample:
    lines = _data_lines(path)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise SampleFormatError(f"{path}:1: empty sample file") from None
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
    values = np.zeros((expected, coords))
    count = 0
    for lineno, line in lines:
        if count >= expected:
            raise SampleFormatError(f"{path}:{lineno}: trailing data beyond {expected} rows")
        fields = line.split()
        if len(fields) != coords:
            raise SampleFormatError(f"{path}:{lineno}: expected {coords} values, got {len(fields)}")
        try:
            values[count] = [float(f) for f in fields]
        except ValueError:
            raise SampleFormatError(f"{path}:{lineno}: non-numeric value in {line!r}") from None
        count += 1
    if count != expected:
        raise SampleFormatError(f"{path}: truncated: {count} of {expected} data rows")
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        lineno, line = list(_data_lines(path))[1 + int(np.argmin(finite))]
        raise SampleFormatError(f"{path}:{lineno}: non-finite value in {line!r}")

    positions = values.reshape(frames, persons, joints, coords)
    mask = np.abs(positions).sum(axis=(0, 2, 3)) > 0
    return LabeledSample(SkeletonClip(positions, mask), label, os.path.basename(path))


_MANIFEST_KEYS = ("kind", "num_labels", "split")


def save_manifest(path: str, manifest: DatasetManifest):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"kind\t{manifest.kind}\n")
        fh.write(f"num_labels\t{manifest.num_labels}\n")
        fh.write(f"split\t{manifest.split}\n")
        for rel, label in manifest.entries:
            fh.write(f"{rel}\t{label}\n")


def load_manifest(path: str) -> DatasetManifest:
    header: dict[str, str] = {}
    entries: list[tuple[str, int]] = []
    for lineno, line in _data_lines(path):
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
    kind = header["kind"]
    if kind not in DATASET_KINDS:
        raise SampleFormatError(f"{path}: unknown dataset kind {kind!r}")
    try:
        num_labels = int(header["num_labels"])
    except ValueError:
        raise SampleFormatError(f"{path}: num_labels must be an integer") from None
    manifest = DatasetManifest(kind=kind, num_labels=num_labels, split=header["split"],
                               entries=entries, base_dir=os.path.dirname(path) or ".")
    for rel, _ in entries:
        full = os.path.join(manifest.base_dir, rel)
        if not os.path.exists(full):
            raise ValidationError(f"{path}: referenced sample missing: {rel}")
    return manifest


def load_samples(manifest: DatasetManifest) -> list[LabeledSample]:
    """Load and validate every sample against the manifest's contract."""
    geometry = DATASET_KINDS[manifest.kind]
    samples = []
    for rel, label in manifest.entries:
        sample = load_sample(os.path.join(manifest.base_dir, rel))
        if sample.label != label:
            raise ValidationError(f"{rel}: label {sample.label} disagrees with manifest {label}")
        if not 0 <= label < manifest.num_labels:
            raise ValidationError(f"{rel}: label {label} outside [0, {manifest.num_labels})")
        if geometry is not None and (sample.clip.joints, sample.clip.coords) != geometry:
            raise ValidationError(f"{rel}: geometry {(sample.clip.joints, sample.clip.coords)} "
                                  f"does not match kind {manifest.kind!r} {geometry}")
        samples.append(sample)
    return samples


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
    sums reconstruct positions exactly.  Same seed, same files.
    """
    if min(num_labels, samples_per_label, frames, joints, persons, coords) < 1:
        raise ValueError("all synthetic dataset extents must be positive")
    if frames < 2:
        raise ValueError("synthetic clips need at least 2 frames")
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    manifest = DatasetManifest(kind="synthetic", num_labels=num_labels, split=split,
                               base_dir=out_dir)
    for label in range(num_labels):
        proto = _class_prototype(label, joints, persons, coords, frames)
        for i in range(samples_per_label):
            jitter = 1.0 + noise * rng.normal()
            drift = noise * rng.normal(size=coords)
            wobble = noise * rng.normal(size=proto.shape)
            positions = proto * jitter + drift + wobble
            positions = np.round(positions * _GRID) / _GRID
            clip = SkeletonClip(positions, np.ones(persons, dtype=bool))
            rel = f"{split}_{label:02d}_{i:04d}.txt"
            save_sample(os.path.join(out_dir, rel), clip, label)
            manifest.entries.append((rel, label))
    save_manifest(os.path.join(out_dir, f"{split}.manifest"), manifest)
    return manifest
