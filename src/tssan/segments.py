"""Temporal-segment wrapper: split, forward per segment, fuse predictions.

A clip is divided into contiguous near-equal segments; one shared-weight
variant model scores a fixed-length sample from each; per-segment softmax
probabilities of every head are fused by elementwise average or maximum
(renormalized).  :meth:`TsSan.forward_batch` is the one path from clips to
fused predictions, and :func:`sample_segments` the one from clips to model
input: it segments, crops and resamples a batch into a segment-major stack.
All fusion runs in log space, so the training loss on fused probabilities
is numerically stable.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        self.train_crop = tuple(self.train_crop)   # a JSON list from a checkpoint
        if len(self.train_crop) != 2 or not 0 < self.train_crop[0] <= self.train_crop[1] <= 1:
            raise ValueError(f"train_crop must be two ratios lo, hi with "
                             f"0 < lo <= hi <= 1, got {self.train_crop}")
        if not 0 < self.eval_crop <= 1:
            raise ValueError(f"eval_crop must lie in (0, 1], got {self.eval_crop}")

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
            pos_rows[k].append(resample_frames(positions[frames], n))
            mot_rows[k].append(resample_frames(motions[frames], n))
    return np.stack(sum(pos_rows, [])), np.stack(sum(mot_rows, []))


@dataclass
class TsOutput:
    log_probs: Tensor                       # fused (B, L), prediction head
    head_log_probs: dict[str, Tensor]       # fused per training head
    traces: list[dict[str, AttentionTrace]] # per segment, per branch

    @property
    def probabilities(self) -> np.ndarray:
        """Fused (B, L) probabilities in float64, each row renormalised: the
        exponentials of float32 log-probabilities sum to 1 only within ~1e-7."""
        p = np.exp(self.log_probs.data.astype(np.float64))
        return p / p.sum(axis=1, keepdims=True)


def _log_mean_exp(stacked: Tensor) -> Tensor:
    """log of the mean of exp(stacked) over axis 0, in stacked's dtype."""
    lse = T.logsumexp(stacked, axis=0)
    return lse + np.asarray(-np.log(stacked.shape[0]), dtype=lse.dtype)


def _fuse(log_probs: Tensor, segments: int, mode: str) -> Tensor:
    """(K*B, L) per-segment log-softmax -> (B, L) fused log probabilities."""
    rows, labels = log_probs.shape
    batch = rows // segments
    grouped = T.reshape(log_probs, (segments, batch, labels))
    if mode == "avg":
        return _log_mean_exp(grouped)
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
        fused = {name: _fuse(T.log_softmax(logits), k, self.config.consensus)
                 for name, logits in out.heads.items()}
        traces = [{name: trace.batch_slice(seg * batch, (seg + 1) * batch)
                   for name, trace in out.traces.items()} for seg in range(k)]
        return TsOutput(self._prediction_head(fused), fused, traces)

    def _prediction_head(self, fused: dict[str, Tensor]) -> Tensor:
        """``main`` for v1/v2; v3's ``concat`` head or the mean of its three."""
        if "main" in fused:
            return fused["main"]
        if self.variant.config.v3_inference == "concat":
            return fused["concat"]
        stacked = T.concat([T.reshape(lp, (1,) + lp.shape) for lp in fused.values()],
                           axis=0)
        return _log_mean_exp(stacked)


def ts_loss(output: TsOutput, labels) -> Tensor:
    """Negative log-likelihood of the fused probabilities, summed over heads."""
    total = None
    for log_probs in output.head_log_probs.values():
        term = T.nll_from_log_probs(log_probs, labels)
        total = term if total is None else total + term
    return total
