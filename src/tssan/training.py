"""Training loop, evaluation metrics, checkpoint/resume orchestration.

Training is a deterministic function of (seed, data, config): one generator
seeded from the config drives shuffling, augmentation windows, and dropout
in a fixed draw order, and its state rides along in checkpoints so resumed
runs continue bit-identically.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import LabeledSample, frame_differences
from .models import ModelConfig, build_variant
from .optim import Adam, PlateauScheduler
from .segments import TsnConfig, TsSan, ts_loss
from .tensor import backward, no_grad


class NumericDivergenceError(RuntimeError):
    """Loss left the reals; carries the epoch/step where it happened."""

    def __init__(self, epoch: int, step: int, value: float):
        super().__init__(f"non-finite loss {value} at epoch {epoch} step {step}")
        self.epoch = epoch
        self.step = step


@dataclass
class TrainConfig:
    lr: float = 1e-4
    weight_decay: float = 5e-5
    batch_size: int = 64
    epochs: int = 200
    plateau_patience: int = 5
    lr_factor: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if min(self.lr, self.batch_size, self.epochs, self.plateau_patience) <= 0:
            raise ValueError("lr, batch_size, epochs, patience must be positive")
        if not 0.0 < self.lr_factor < 1.0:
            raise ValueError(f"lr_factor must lie in (0, 1), got {self.lr_factor}")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class MetricsRecord:
    epoch: int
    loss: float
    top1: float
    top5: float
    lr: float
    seconds: float

    def line(self) -> str:
        return (f"epoch={self.epoch} loss={self.loss!r} top1={self.top1!r} "
                f"top5={self.top5!r} lr={self.lr!r} seconds={self.seconds!r}")

    @classmethod
    def parse(cls, line: str) -> "MetricsRecord":
        fields = dict(part.split("=", 1) for part in line.split())
        return cls(epoch=int(fields["epoch"]), loss=float(fields["loss"]),
                   top1=float(fields["top1"]), top5=float(fields["top5"]),
                   lr=float(fields["lr"]), seconds=float(fields["seconds"]))


@dataclass
class PreparedSample:
    """A clip with its motion channel precomputed, ready for the model."""

    positions: np.ndarray
    motions: np.ndarray
    label: int


def prepare_samples(samples: list[LabeledSample]) -> list[PreparedSample]:
    return [PreparedSample(s.clip.positions, frame_differences(s.clip.positions), s.label)
            for s in samples]


def _batches(count: int, batch_size: int, order: np.ndarray):
    """Final short batch is kept unless it degenerates to a single sample."""
    for start in range(0, count, batch_size):
        chunk = order[start:start + batch_size]
        if len(chunk) == 1 and count > 1:
            return
        yield chunk


def train_epoch(model: TsSan, samples: list[PreparedSample], optimizer: Adam,
                rng: np.random.Generator, batch_size: int, epoch: int = 0) -> float:
    """One pass of shuffled mini-batches; returns the mean sample loss."""
    if not samples:
        raise ValueError("cannot train on an empty dataset")
    model.train()
    order = rng.permutation(len(samples))
    total = 0.0
    seen = 0
    for step, chunk in enumerate(_batches(len(samples), batch_size, order)):
        batch = [samples[i] for i in chunk]
        out = model.forward_batch([(s.positions, s.motions) for s in batch], rng)
        loss = ts_loss(out, [s.label for s in batch])
        value = loss.item()
        if not np.isfinite(value):
            raise NumericDivergenceError(epoch, step, value)
        optimizer.zero_grad()
        backward(loss)
        optimizer.step()
        total += value * len(batch)
        seen += len(batch)
    return total / seen


def topk_hits(probabilities: np.ndarray, labels: np.ndarray, k: int) -> int:
    """A hit when the true label is among the k largest probabilities;
    ties resolve toward lower label indices."""
    ranked = np.argsort(-probabilities, axis=1, kind="stable")[:, :k]
    return int((ranked == labels[:, None]).any(axis=1).sum())


def evaluate(model: TsSan, samples: list[PreparedSample],
             batch_size: int = 64) -> tuple[float, float]:
    """Top-1 / top-5 accuracy of the fused predictions in eval mode."""
    if not samples:
        raise ValueError("cannot evaluate an empty dataset")
    model.eval()
    hits1 = hits5 = 0
    with no_grad():
        for start in range(0, len(samples), batch_size):
            batch = samples[start:start + batch_size]
            out = model.forward_batch([(s.positions, s.motions) for s in batch])
            probs = out.probabilities
            labels = np.array([s.label for s in batch])
            hits1 += topk_hits(probs, labels, 1)
            hits5 += topk_hits(probs, labels, min(5, probs.shape[1]))
    return hits1 / len(samples), hits5 / len(samples)


# ---------------------------------------------------------------------------
# full runs with checkpoint/resume

@dataclass
class TrainingRun:
    model: TsSan
    optimizer: Adam
    scheduler: PlateauScheduler
    history: list[MetricsRecord] = field(default_factory=list)
    best_top1: float = -1.0
    best_path: str | None = None
    last_path: str | None = None


def _snapshot(model: TsSan, optimizer: Adam, scheduler: PlateauScheduler,
              rng: np.random.Generator, epoch: int, best_top1: float,
              configs: dict) -> tuple[dict, dict[str, np.ndarray]]:
    """Checkpoint meta and arrays; per-parameter optimizer state is stored
    as ``adam.<field>.<param>`` arrays next to ``param.<param>``."""
    adam = optimizer.state_dict()
    moments = {key: adam.pop(key) for key in list(adam) if isinstance(adam[key], dict)}
    arrays = {}
    for name, p in model.named_parameters():
        arrays[f"param.{name}"] = p.data
        for key, per_param in moments.items():
            arrays[f"adam.{key}.{name}"] = per_param[name]
    meta = {
        "configs": configs,
        "epoch": epoch,
        "best_top1": best_top1,
        "adam": adam,
        "scheduler": scheduler.state_dict(),
        "rng_state": rng.bit_generator.state,
    }
    return meta, arrays


def save_training_checkpoint(path: str, model: TsSan, optimizer: Adam,
                             scheduler: PlateauScheduler, rng: np.random.Generator,
                             epoch: int, best_top1: float, configs: dict):
    meta, arrays = _snapshot(model, optimizer, scheduler, rng, epoch, best_top1, configs)
    save_checkpoint(path, arrays, meta)


def restore_model_arrays(model: TsSan, arrays: dict[str, np.ndarray]):
    params = dict(model.named_parameters())
    wanted = {f"param.{name}" for name in params}
    have = {k for k in arrays if k.startswith("param.")}
    if wanted != have:
        raise CheckpointError(f"parameter names disagree with the model: "
                              f"missing {sorted(wanted - have)[:3]}, "
                              f"unexpected {sorted(have - wanted)[:3]}")
    for name, p in params.items():
        stored = arrays[f"param.{name}"]
        if stored.shape != p.data.shape:
            raise CheckpointError(f"shape mismatch for {name}: "
                                  f"{stored.shape} vs {p.data.shape}")
    for name, p in params.items():
        p.data[...] = arrays[f"param.{name}"]


def build_ts_model(model_config: ModelConfig, tsn_config: TsnConfig,
                   seed: int) -> TsSan:
    init_rng = np.random.default_rng([seed, 0])
    return TsSan(build_variant(model_config, init_rng), tsn_config)


def load_model_from_checkpoint(path: str) -> tuple[TsSan, dict]:
    meta, arrays = load_checkpoint(path)
    configs = meta["configs"]
    model_config = ModelConfig(**configs["model"])
    tsn_config = TsnConfig(**{**configs["tsn"],
                              "train_crop": tuple(configs["tsn"]["train_crop"])})
    model = build_ts_model(model_config, tsn_config, int(configs["train"]["seed"]))
    restore_model_arrays(model, arrays)
    return model, meta


def run_training(model_config: ModelConfig, tsn_config: TsnConfig,
                 train_config: TrainConfig, train_samples: list[PreparedSample],
                 val_samples: list[PreparedSample] | None = None,
                 out_dir: str | None = None, resume_from: str | None = None,
                 stop_when=None, quiet: bool = True) -> TrainingRun:
    """Train to ``epochs`` (or until ``stop_when(record)``), tracking the best
    validation top-1.  With no validation split the training split doubles as
    the plateau/selection metric, which suits overfitting checks.
    """
    configs = {"model": model_config.to_dict(), "tsn": tsn_config.to_dict(),
               "train": train_config.to_dict()}
    model = build_ts_model(model_config, tsn_config, train_config.seed)
    optimizer = Adam(dict(model.named_parameters()), lr=train_config.lr,
                     weight_decay=train_config.weight_decay)
    scheduler = PlateauScheduler(train_config.lr, patience=train_config.plateau_patience,
                                 factor=train_config.lr_factor)
    rng = np.random.default_rng([train_config.seed, 1])
    start_epoch = 0
    best_top1 = -1.0

    if resume_from is not None:
        meta, arrays = load_checkpoint(resume_from)
        if meta["configs"]["model"] != configs["model"] or \
                meta["configs"]["tsn"] != configs["tsn"]:
            raise CheckpointError(f"{resume_from}: checkpoint was produced by a "
                                  f"different model/tsn configuration")
        restore_model_arrays(model, arrays)
        adam = dict(meta["adam"])
        for key, arr in arrays.items():
            if key.startswith("adam."):
                _, moment, name = key.split(".", 2)
                adam.setdefault(moment, {})[name] = arr
        optimizer.load_state_dict(adam)
        scheduler.load_state_dict(meta["scheduler"])
        rng.bit_generator.state = meta["rng_state"]
        start_epoch = int(meta["epoch"])
        best_top1 = float(meta["best_top1"])

    run = TrainingRun(model=model, optimizer=optimizer, scheduler=scheduler,
                      best_top1=best_top1)
    metrics_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, "metrics.log")
        run.best_path = os.path.join(out_dir, "best.ckpt")
        run.last_path = os.path.join(out_dir, "last.ckpt")

    held_out = val_samples if val_samples else train_samples
    for epoch in range(start_epoch + 1, train_config.epochs + 1):
        t0 = time.perf_counter()
        loss = train_epoch(model, train_samples, optimizer, rng,
                           train_config.batch_size, epoch)
        top1, top5 = evaluate(model, held_out, train_config.batch_size)
        record = MetricsRecord(epoch=epoch, loss=loss, top1=top1, top5=top5,
                               lr=optimizer.lr, seconds=time.perf_counter() - t0)
        optimizer.lr = scheduler.step(top1)
        run.history.append(record)
        if metrics_path is not None:
            with open(metrics_path, "a", encoding="utf-8") as fh:
                fh.write(record.line() + "\n")
        if not quiet:
            print(record.line(), flush=True)
        if top1 > run.best_top1:
            run.best_top1 = top1
            if run.best_path is not None:
                save_training_checkpoint(run.best_path, model, optimizer, scheduler,
                                         rng, epoch, run.best_top1, configs)
        if run.last_path is not None:
            save_training_checkpoint(run.last_path, model, optimizer, scheduler,
                                     rng, epoch, run.best_top1, configs)
        if stop_when is not None and stop_when(record):
            break
    return run
