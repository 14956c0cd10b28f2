"""The three network variants and the shared classifier head.

All variants consume raw position arrays (B, F, S, J, C) with matching
motion arrays and produce class logits:

* v1 fuses position and motion along the joint axis before one encoder
  and one attention block (early fusion).
* v2 encodes each person separately, attends per person with a single
  shared-weight block, and merges by elementwise max (late fusion over
  people).
* v3 merges people by elementwise max per modality, runs one attention
  block per modality, and classifies position, motion, and their
  concatenation with three heads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .attention import AttentionTrace, SanBlock, SanConfig
from .encoders import CnnEncoder, make_encoder
from .nn import Dropout, Linear, Module
from .tensor import Tensor

VARIANTS = ("v1", "v2", "v3")
ENCODERS = ("ff", "cnn")


@dataclass
class ModelConfig:
    variant: str
    encoder: str
    num_labels: int
    joints: int              # per person
    coords: int
    persons: int             # padded person slots S
    frames: int              # frames per attended sequence (position table size)
    san_layers: int = 4
    san_heads: int = 8
    san_ff_width: int = 0    # 0 -> twice the block width
    san_dropout: float = 0.2
    head_dropout: float = 0.5
    conv_dropout: float = 0.5
    ff_coord_width: int = 64  # lifted coordinate width C' of the ff encoder
    v3_inference: str = "concat"  # "concat" | "mean" test-time head for v3

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.encoder not in ENCODERS:
            raise ValueError(f"encoder must be one of {ENCODERS}, got {self.encoder!r}")
        if self.v3_inference not in ("concat", "mean"):
            raise ValueError(f"v3_inference must be 'concat' or 'mean', got {self.v3_inference!r}")
        if min(self.num_labels, self.joints, self.coords, self.persons, self.frames) < 1:
            raise ValueError("all model extents must be positive")

    @property
    def encoder_input_joints(self) -> int:
        """Joint-axis extent fed to one encoder application."""
        if self.variant == "v1":
            return 2 * self.persons * self.joints  # early fusion doubles J' = S*J
        return self.joints

    @property
    def encoded_width(self) -> int:
        """Per-frame width out of one encoder application."""
        if self.encoder == "cnn":
            return CnnEncoder.OUTPUT_WIDTH
        return self.encoder_input_joints * self.ff_coord_width

    @property
    def block_width(self) -> int:
        """Width H entering the attention block."""
        if self.variant == "v2":
            return 2 * self.encoded_width  # position || motion per person
        return self.encoded_width

    def san_config(self) -> SanConfig:
        return SanConfig(layers=self.san_layers, heads=self.san_heads,
                         width=self.block_width, max_frames=self.frames,
                         ff_width=self.san_ff_width, dropout=self.san_dropout)

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class VariantOutput:
    """Logits of the prediction head plus per-branch extras.

    ``aux_logits`` carries v3's three training heads; ``traces`` maps branch
    names (fused / person0.. / position / motion) to attention traces.
    """

    logits: Tensor
    aux_logits: dict[str, Tensor] = field(default_factory=dict)
    traces: dict[str, AttentionTrace] = field(default_factory=dict)


class ClassifierHead(Module):
    """Rectifier, dropout, linear map to label logits (softmax lives in the
    loss / prediction step)."""

    def __init__(self, in_width: int, num_labels: int, dropout: float,
                 rng: np.random.Generator):
        super().__init__()
        self.drop = Dropout(dropout)
        self.linear = Linear(in_width, num_labels, rng)

    def forward(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        return self.linear(self.drop(T.relu(x), rng))

    __call__ = forward


def _check_pair(positions: np.ndarray, motions: np.ndarray, config: ModelConfig):
    positions = np.asarray(positions, dtype=np.float64)
    motions = np.asarray(motions, dtype=np.float64)
    if positions.shape != motions.shape:
        raise T.ShapeError(f"position/motion shapes disagree: "
                           f"{positions.shape} vs {motions.shape}")
    if positions.ndim != 5 or positions.shape[2:] != (config.persons, config.joints,
                                                      config.coords):
        raise T.ShapeError(f"expected (B, F, {config.persons}, {config.joints}, "
                           f"{config.coords}), got {positions.shape}")
    return positions, motions


def _stack_persons(arr: np.ndarray) -> np.ndarray:
    """(B, F, S, J, C) -> (S*B, F, J, C); person s occupies rows [s*B, (s+1)*B)."""
    b, f, s, j, c = arr.shape
    return np.ascontiguousarray(arr.transpose(2, 0, 1, 3, 4)).reshape(s * b, f, j, c)


def _person_traces(trace: AttentionTrace, persons: int, batch: int) -> dict[str, AttentionTrace]:
    return {f"person{s}": trace.batch_slice(s * batch, (s + 1) * batch)
            for s in range(persons)}


class SanV1(Module):
    """Early fusion baseline: one encoder and block over all joints of all
    people, positions and motions concatenated along the joint axis."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.encoder = make_encoder(config.encoder, config.coords,
                                    config.encoder_input_joints, rng,
                                    config.ff_coord_width, config.conv_dropout)
        self.block = SanBlock(config.san_config(), rng)
        self.head = ClassifierHead(config.block_width, config.num_labels,
                                   config.head_dropout, rng)

    def forward(self, positions: np.ndarray, motions: np.ndarray,
                rng: np.random.Generator | None = None) -> VariantOutput:
        positions, motions = _check_pair(positions, motions, self.config)
        b, f = positions.shape[:2]
        joined = np.concatenate([
            positions.reshape(b, f, -1, self.config.coords),
            motions.reshape(b, f, -1, self.config.coords),
        ], axis=2)
        feats = self.encoder(Tensor(joined), rng)
        o, trace = self.block(feats, rng)
        logits = self.head(o, rng)
        return VariantOutput(logits=logits, traces={"fused": trace})

    __call__ = forward


class SanV2(Module):
    """Late fusion over people: shared encoders and one shared-weight block
    applied per person, merged by elementwise max of the block outputs."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.pos_encoder = make_encoder(config.encoder, config.coords, config.joints,
                                        rng, config.ff_coord_width, config.conv_dropout)
        self.mot_encoder = make_encoder(config.encoder, config.coords, config.joints,
                                        rng, config.ff_coord_width, config.conv_dropout)
        self.block = SanBlock(config.san_config(), rng)
        self.head = ClassifierHead(config.block_width, config.num_labels,
                                   config.head_dropout, rng)

    def forward(self, positions: np.ndarray, motions: np.ndarray,
                rng: np.random.Generator | None = None) -> VariantOutput:
        positions, motions = _check_pair(positions, motions, self.config)
        b = positions.shape[0]
        s = self.config.persons
        pos_feats = self.pos_encoder(Tensor(_stack_persons(positions)), rng)
        mot_feats = self.mot_encoder(Tensor(_stack_persons(motions)), rng)
        feats = T.concat([pos_feats, mot_feats], axis=-1)   # (S*B, F, 2*We)
        o, trace = self.block(feats, rng)                   # shared weights per person
        per_person = T.reshape(o, (s, b, self.config.block_width))
        merged = T.amax(per_person, axis=0)
        logits = self.head(merged, rng)
        return VariantOutput(logits=logits, traces=_person_traces(trace, s, b))

    __call__ = forward


class SanV3(Module):
    """Late fusion over modalities: per-modality person max over encoded
    features, one block per modality, and three classifiers (position,
    motion, concatenated)."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.pos_encoder = make_encoder(config.encoder, config.coords, config.joints,
                                        rng, config.ff_coord_width, config.conv_dropout)
        self.mot_encoder = make_encoder(config.encoder, config.coords, config.joints,
                                        rng, config.ff_coord_width, config.conv_dropout)
        self.pos_block = SanBlock(config.san_config(), rng)
        self.mot_block = SanBlock(config.san_config(), rng)
        width = config.block_width
        self.pos_head = ClassifierHead(width, config.num_labels, config.head_dropout, rng)
        self.mot_head = ClassifierHead(width, config.num_labels, config.head_dropout, rng)
        self.cat_head = ClassifierHead(2 * width, config.num_labels, config.head_dropout, rng)

    def _branch(self, arr: np.ndarray, encoder, block, rng):
        b = arr.shape[0]
        s = self.config.persons
        feats = encoder(Tensor(_stack_persons(arr)), rng)   # (S*B, F, We)
        stacked = T.reshape(feats, (s, b) + feats.shape[1:])
        merged = T.amax(stacked, axis=0)                    # strongest person signal
        return block(merged, rng)

    def forward(self, positions: np.ndarray, motions: np.ndarray,
                rng: np.random.Generator | None = None) -> VariantOutput:
        positions, motions = _check_pair(positions, motions, self.config)
        o_pos, trace_pos = self._branch(positions, self.pos_encoder, self.pos_block, rng)
        o_mot, trace_mot = self._branch(motions, self.mot_encoder, self.mot_block, rng)
        logits = {
            "position": self.pos_head(o_pos, rng),
            "motion": self.mot_head(o_mot, rng),
            "concat": self.cat_head(T.concat([o_pos, o_mot], axis=-1), rng),
        }
        return VariantOutput(logits=logits["concat"], aux_logits=logits,
                             traces={"position": trace_pos, "motion": trace_mot})

    __call__ = forward


def build_variant(config: ModelConfig, rng: np.random.Generator) -> Module:
    cls = {"v1": SanV1, "v2": SanV2, "v3": SanV3}[config.variant]
    return cls(config, rng)

