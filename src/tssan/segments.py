"""Temporal-segment wrapper: split, forward per segment, fuse predictions.

A clip is divided into contiguous near-equal segments; one shared-weight
variant model scores a fixed-length sample from each; per-segment softmax
probabilities are fused by elementwise average or maximum (renormalized).
:func:`sample_segments` is the one path from clips to model input: it
segments, crops and resamples a whole batch into a segment-major stack.
All fusion runs in log space, so the training loss on fused probabilities
is numerically stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .attention import AttentionTrace
from .data import center_crop_window, random_crop_window, resample_frames
from .nn import Module
from .tensor import Tensor

CONSENSUS_MODES = ("avg", "max")


@dataclass
class TsnConfig:
    segments: int = 3
    frames_per_segment: int = 32
    consensus: str = "avg"
    train_crop: tuple[float, float] = (0.5, 1.0)
    eval_crop: float = 0.9

    def __post_init__(self):
        if self.segments < 1:
            raise ValueError(f"segment count must be >= 1, got {self.segments}")
        if self.frames_per_segment < 2:
            raise ValueError("frames_per_segment must be >= 2")
        if self.consensus not in CONSENSUS_MODES:
            raise ValueError(f"consensus must be one of {CONSENSUS_MODES}, "
                             f"got {self.consensus!r}")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def segment_spans(frames: int, segments: int) -> list[tuple[int, int]]:
    """Contiguous non-overlapping spans; the remainder goes to the earliest."""
    if frames < segments:
        raise ValueError(f"cannot split {frames} frames into {segments} segments")
    base, extra = divmod(frames, segments)
    spans = []
    start = 0
    for k in range(segments):
        length = base + (1 if k < extra else 0)
        spans.append((start, start + length))
        start += length
    return spans


def _resample_to(arr: np.ndarray, target: int) -> np.ndarray:
    if arr.shape[0] < 2:
        return np.repeat(arr, target, axis=0)
    return resample_frames(arr, target)


def sample_segments(pairs: list[tuple[np.ndarray, np.ndarray]], config: TsnConfig,
                    training: bool, rng: np.random.Generator | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Segment, crop and resample a batch of (positions, motions) clips.

    Each clip is split by :func:`segment_spans`; every segment is cropped
    (random window in training, centered in eval) and resampled to
    ``frames_per_segment``.  Returns segment-major (K*B, n, S, J, C) stacks
    where row k*B + b is segment k of clip b.  Windows are drawn clip by
    clip, segment by segment, so a seeded ``rng`` fixes every crop.
    """
    n = config.frames_per_segment
    pos_rows = [[] for _ in range(config.segments)]   # [k][b]: segment k of clip b
    mot_rows = [[] for _ in range(config.segments)]
    for positions, motions in pairs:
        for k, (a, b) in enumerate(segment_spans(positions.shape[0], config.segments)):
            if training:
                window = random_crop_window(b - a, rng, *config.train_crop)
            else:
                window = center_crop_window(b - a, config.eval_crop)
            frames = slice(a + window.start, a + window.stop)
            pos_rows[k].append(_resample_to(positions[frames], n))
            mot_rows[k].append(_resample_to(motions[frames], n))
    return np.stack(sum(pos_rows, [])), np.stack(sum(mot_rows, []))


@dataclass
class TsOutput:
    log_probs: Tensor                       # fused (B, L), prediction head
    head_log_probs: dict[str, Tensor]       # fused per training head
    traces: list[dict[str, AttentionTrace]] = field(default_factory=list)

    @property
    def probabilities(self) -> np.ndarray:
        return np.exp(self.log_probs.data)


def _fuse(log_probs: Tensor, segments: int, batch: int, labels_dim: int,
          mode: str) -> Tensor:
    """(K*B, L) per-segment log-softmax -> (B, L) fused log probabilities."""
    grouped = T.reshape(log_probs, (segments, batch, labels_dim))
    if mode == "avg":
        return T.logsumexp(grouped, axis=0) + float(-np.log(segments))
    best = T.amax(grouped, axis=0)          # log of elementwise max probability
    norm = T.reshape(T.logsumexp(best, axis=1), (batch, 1))
    return best - norm


class TsSan(Module):
    """Applies one shared-weight variant model to every segment and fuses."""

    def __init__(self, variant: Module, config: TsnConfig):
        super().__init__()
        self.variant = variant
        self.config = config

    def forward_batch(self, pairs: list[tuple[np.ndarray, np.ndarray]],
                      rng: np.random.Generator | None = None) -> TsOutput:
        """Score a batch of (positions, motions) clips of arbitrary lengths.

        :func:`sample_segments` turns the clips into one segment-major stack
        and the variant scores all segments of all clips at once.
        """
        k = self.config.segments
        batch = len(pairs)
        pos_stack, mot_stack = sample_segments(pairs, self.config, self.training, rng)
        out = self.variant(pos_stack, mot_stack, rng)
        labels_dim = out.logits.shape[-1]
        heads = out.aux_logits if out.aux_logits else {"main": out.logits}
        fused = {name: _fuse(T.log_softmax(logits), k, batch, labels_dim,
                             self.config.consensus)
                 for name, logits in heads.items()}
        log_probs = self._prediction_head(fused)
        traces = [{name: trace.batch_slice(seg * batch, (seg + 1) * batch)
                   for name, trace in out.traces.items()} for seg in range(k)]
        return TsOutput(log_probs=log_probs, head_log_probs=fused, traces=traces)

    def _prediction_head(self, fused: dict[str, Tensor]) -> Tensor:
        if "main" in fused:
            return fused["main"]
        mode = getattr(self.variant.config, "v3_inference", "concat")
        if mode == "concat":
            return fused["concat"]
        stacked = T.concat([T.reshape(lp, (1,) + lp.shape) for lp in fused.values()],
                           axis=0)
        return T.logsumexp(stacked, axis=0) + float(-np.log(len(fused)))

    def __call__(self, positions: np.ndarray, motions: np.ndarray,
                 rng: np.random.Generator | None = None) -> TsOutput:
        """Single-clip convenience wrapper around :meth:`forward_batch`."""
        return self.forward_batch([(positions, motions)], rng)


def ts_loss(output: TsOutput, labels) -> Tensor:
    """Negative log-likelihood of the fused probabilities, summed over heads."""
    total = None
    for log_probs in output.head_log_probs.values():
        term = T.nll_from_log_probs(log_probs, labels)
        total = term if total is None else total + term
    return total
