"""Training loop, evaluation metrics, and run directories with their checkpoints.

Training is a deterministic function of (seed, data, config): one generator
seeded from the config drives shuffling, augmentation windows, and dropout
in a fixed draw order, and its state rides along in checkpoints so resumed
runs continue bit-identically.  Which run may write a directory is decided
here alone (:func:`claim_run_dir`), and :func:`run_training` writes it.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import LabeledSample, frame_differences
from .models import ModelConfig, build_variant
from .optim import Adam
from .segments import TsnConfig, TsSan, ts_loss
from .tensor import backward, no_grad


class NumericDivergenceError(RuntimeError):
    """Loss or a gradient left the reals; carries the epoch/step where it
    happened, and ``what`` names the value (the loss, or the first parameter
    whose gradient is non-finite)."""

    def __init__(self, epoch: int, step: int, what: str):
        super().__init__(f"non-finite {what} at epoch {epoch} step {step}")
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
        # comparisons written so that NaN fails them
        if not all(v > 0 for v in (self.lr, self.batch_size, self.epochs, self.plateau_patience)):
            raise ValueError("lr, batch_size, epochs, patience must be positive")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        for name in ("lr", "weight_decay"):
            if math.isinf(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.lr_factor < 1.0:
            raise ValueError(f"lr_factor must lie in (0, 1), got {self.lr_factor}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class MetricsRecord:
    epoch: int
    loss: float
    top1: float
    top5: float
    lr: float
    seconds: float

    def line(self) -> str:
        return " ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))


@dataclass
class PreparedSample:
    """A clip with its motion channel precomputed, ready for the model."""

    positions: np.ndarray
    motions: np.ndarray
    label: int


def prepare_samples(samples: list[LabeledSample]) -> list[PreparedSample]:
    """Model input in float32, the dtype the network then computes in, on
    float32 copies of its weights (the float64 masters live in ``Adam``).
    Motions are differenced in float64 first, then cast."""
    return [PreparedSample(s.clip.positions.astype(np.float32),
                           frame_differences(s.clip.positions).astype(np.float32), s.label)
            for s in samples]


class PreparedSplit(Sequence):
    """``samples`` as model input, item ``i`` prepared each time it is read."""

    def __init__(self, samples: Sequence[LabeledSample]):
        self.samples = samples

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, i) -> PreparedSample:
        return prepare_samples([self.samples[i]])[0]


def _batches(count: int, batch_size: int, order: np.ndarray):
    """Final short batch is kept unless it degenerates to a single sample
    after batches of more."""
    for start in range(0, count, batch_size):
        chunk = order[start:start + batch_size]
        if len(chunk) == 1 and count > 1 and batch_size > 1:
            return
        yield chunk


def train_epoch(model: TsSan, samples: Sequence[PreparedSample], optimizer: Adam,
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
            raise NumericDivergenceError(epoch, step, f"loss {value}")
        optimizer.zero_grad()
        backward(loss)
        # before the step writes a bad gradient into the moments and weights
        for name, p in optimizer.params.items():
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NumericDivergenceError(epoch, step, f"gradient for {name}")
        optimizer.step()
        total += value * len(batch)
        seen += len(batch)
    return total / seen


def topk_hits(probabilities: np.ndarray, labels: np.ndarray, k: int) -> int:
    """A hit when the true label is among the k largest probabilities;
    ties resolve toward lower label indices."""
    ranked = np.argsort(-probabilities, axis=1, kind="stable")[:, :k]
    return int((ranked == labels[:, None]).any(axis=1).sum())


def evaluate(model: TsSan, samples: Sequence[PreparedSample],
             batch_size: int) -> tuple[float, float]:
    """Top-1 / top-5 accuracy of the fused predictions in eval mode, in
    batches of ``batch_size``, on float32 weights (:meth:`nn.Module.narrow`)."""
    if not samples:
        raise ValueError("cannot evaluate an empty dataset")
    model.eval().narrow()
    hits1 = hits5 = 0
    with no_grad():
        for start in range(0, len(samples), batch_size):
            batch = [samples[i] for i in range(start, min(start + batch_size, len(samples)))]
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
    """``best_path`` is None until the run's best checkpoint is known to
    exist; ``bad_epochs`` counts epochs since top-1 improved or lr was cut."""

    model: TsSan
    optimizer: Adam
    last_path: str
    best_path: str | None = None
    history: list[MetricsRecord] = field(default_factory=list)
    best_top1: float = -1.0
    bad_epochs: int = 0


def _stored_count(name: str, value) -> int:
    """A stored epoch or step count: an int (not a bool) >= 0."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be an int >= 0, got {value!r}")
    return value


def claim_run_dir(out_dir: str, resume_from: str | None) -> bool:
    """Whether a run resumed from ``resume_from`` (None: fresh) continues the
    run in ``out_dir`` and owns its ``best.ckpt``.  A directory holding a run's
    files takes no other run than one resumed from its ``last.ckpt``."""
    held = [name for name in ("config.ini", "metrics.log", "best.ckpt", "last.ckpt")
            if os.path.exists(os.path.join(out_dir, name))]
    if not held:
        return False
    with contextlib.suppress(OSError):      # a missing file is no run's last.ckpt
        if resume_from and os.path.samefile(resume_from, os.path.join(out_dir, "last.ckpt")):
            return True
    raise FileExistsError(f"--out {out_dir} already holds a run ({', '.join(held)}); only "
                          f"--resume from its last.ckpt continues it, else use another --out")


_META_KEYS = ("configs", "epoch", "best_top1", "adam", "scheduler", "rng_state")
# the settings a resume may change: how far the run goes and its batch size
_RESUMABLE = ("epochs", "batch_size")


def save_training_checkpoint(path: str, run: TrainingRun, rng: np.random.Generator,
                             epoch: int, configs: dict):
    """The one writer of a run's checkpoint; this module alone knows its layout.

    Arrays, per parameter in ``named_parameters`` order: ``param.<name>``
    (the optimizer's float64 master, not the model's float32 copy),
    ``adam.m.<name>`` and ``adam.v.<name>``.  Meta: ``configs`` (the model,
    tsn and train settings, stored nowhere else), ``epoch``, ``best_top1``,
    ``adam`` as ``{step_count, lr}``, ``scheduler`` as ``{bad_epochs}`` (the
    plateau count, under the key older files use) and ``rng_state``.  A
    resume continues the stored run: only the train settings ``epochs`` and
    ``batch_size`` may differ (:func:`run_training`).
    """
    optimizer = run.optimizer
    arrays = {}
    for name, master in optimizer.master.items():
        arrays[f"param.{name}"] = master
        arrays[f"adam.m.{name}"] = optimizer.m[name]
        arrays[f"adam.v.{name}"] = optimizer.v[name]
    meta = {
        "configs": configs,
        "epoch": epoch,
        "best_top1": run.best_top1,
        "adam": {"step_count": optimizer.step_count, "lr": optimizer.lr},
        "scheduler": {"bad_epochs": run.bad_epochs},
        "rng_state": rng.bit_generator.state,
    }
    save_checkpoint(path, arrays, meta)


def build_ts_model(model_config: ModelConfig, tsn_config: TsnConfig,
                   seed: int) -> TsSan:
    init_rng = np.random.default_rng([seed, 0])
    return TsSan(build_variant(model_config, init_rng), tsn_config)


def load_model_from_checkpoint(path: str) -> tuple[TsSan, TrainConfig, dict,
                                                    dict[str, np.ndarray]]:
    """The one reader of :func:`save_training_checkpoint`'s files: the model
    with its stored weights, the stored train settings, the meta and every
    stored array.  Each parameter adopts its stored array without a copy,
    so a resumed Adam's master is that array.  Meta keys it does not read
    (older files also stored settings and copies of state there) are
    ignored.  Stored parameters must match the model's names and shapes;
    the load refuses a non-finite value in any stored array."""
    meta, arrays = load_checkpoint(path)
    missing = [key for key in _META_KEYS if key not in meta]
    if missing:
        raise CheckpointError(f"{path}: checkpoint meta lacks {missing}")
    if not isinstance(meta["adam"], dict):
        raise CheckpointError(f"{path}: meta adam is not an object")
    configs = meta["configs"]
    try:
        model_config = ModelConfig(**configs["model"])
        tsn_config = TsnConfig(**configs["tsn"])
        train_config = TrainConfig(**configs["train"])
        # settings that pass the config checks can still fail to build a model
        model = build_ts_model(model_config, tsn_config, train_config.seed)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: unusable configs in meta ({exc!r})") from exc
    params = dict(model.named_parameters())
    stored = {key[len("param."):]: arr for key, arr in arrays.items()
              if key.startswith("param.")}
    if stored.keys() != params.keys():
        raise CheckpointError(f"{path}: parameter names disagree with the model: "
                              f"missing {sorted(params.keys() - stored.keys())[:3]}, "
                              f"unexpected {sorted(stored.keys() - params.keys())[:3]}")
    for name, p in params.items():
        if stored[name].shape != p.data.shape:
            raise CheckpointError(f"{path}: shape mismatch for {name}: "
                                  f"{stored[name].shape} vs {p.data.shape}")
        p.data = stored[name]
    return model, train_config, meta, arrays


def run_training(model_config: ModelConfig, tsn_config: TsnConfig,
                 train_config: TrainConfig, train_samples: Sequence[PreparedSample],
                 val_samples: Sequence[PreparedSample] | None = None, *, out_dir: str,
                 resume_from: str | None = None, quiet: bool = True,
                 config_text: str | None = None) -> TrainingRun:
    """Train to ``epochs``, writing ``metrics.log``, ``best.ckpt``, ``last.ckpt``
    and ``config_text`` (if given) as ``config.ini`` to an ``out_dir`` that
    :func:`claim_run_dir` allows.  Without a validation split (``val_samples``
    None) the training split doubles as the selection and
    plateau metric, which suits overfitting checks.  An epoch whose top-1
    beats the best so far writes ``best.ckpt`` and resets ``bad_epochs``;
    else at ``plateau_patience`` bad epochs in a row the lr is scaled by
    ``lr_factor`` and the count resets.  Records keep the lr an epoch used,
    checkpoints the lr the next one uses.  A resume changing more than
    ``epochs`` and ``batch_size``, or asking for fewer epochs than its
    checkpoint has run, is a CheckpointError raised before any write.
    """
    in_place = claim_run_dir(out_dir, resume_from)
    configs = {"model": asdict(model_config), "tsn": asdict(tsn_config),
               "train": asdict(train_config)}
    meta = None
    if resume_from is None:
        model = build_ts_model(model_config, tsn_config, train_config.seed)
    else:
        model, stored_train, meta, arrays = load_model_from_checkpoint(resume_from)
        stored = {"model": asdict(model.variant.config), "tsn": asdict(model.config),
                  "train": asdict(stored_train)}
        changed = [f"{section}.{key} ({stored[section][key]!r} -> {value!r})"
                   for section, values in configs.items() for key, value in values.items()
                   if key not in _RESUMABLE and value != stored[section][key]]
        if changed:
            raise CheckpointError(f"{resume_from}: a resume continues the stored run, but "
                                  f"these settings are different: {', '.join(changed)}; "
                                  f"only epochs and batch_size may change")
    optimizer = Adam(dict(model.named_parameters()), lr=train_config.lr,
                     weight_decay=train_config.weight_decay)
    model.narrow()
    rng = np.random.default_rng([train_config.seed, 1])
    best_path = os.path.join(out_dir, "best.ckpt")
    run = TrainingRun(model=model, optimizer=optimizer,
                      last_path=os.path.join(out_dir, "last.ckpt"),
                      best_path=best_path if in_place and os.path.exists(best_path) else None)
    start_epoch = 0
    if meta is not None:
        try:
            for name, p in optimizer.params.items():
                m, v = arrays[f"adam.m.{name}"], arrays[f"adam.v.{name}"]
                if not m.shape == v.shape == p.data.shape:
                    raise CheckpointError(f"{resume_from}: moment shapes for {name} "
                                          f"differ from {p.data.shape}")
                if not (v >= 0).all():
                    raise CheckpointError(f"{resume_from}: adam.v.{name} holds negative values")
                optimizer.m[name], optimizer.v[name] = m, v
            optimizer.step_count = _stored_count("adam.step_count", meta["adam"]["step_count"])
            optimizer.lr = float(meta["adam"]["lr"])
            if not (optimizer.lr >= 0 and math.isfinite(optimizer.lr)):
                raise ValueError(f"adam.lr must be finite and >= 0, got {optimizer.lr!r}")
            run.bad_epochs = _stored_count("scheduler.bad_epochs",
                                           meta["scheduler"]["bad_epochs"])
            run.best_top1 = float(meta["best_top1"])
            if not 0 <= run.best_top1 <= 1:
                raise ValueError(f"best_top1 must lie in [0, 1], got {run.best_top1!r}")
            rng.bit_generator.state = meta["rng_state"]
            start_epoch = _stored_count("epoch", meta["epoch"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CheckpointError(f"{resume_from}: unusable training state in meta "
                                  f"({exc!r})") from exc
        if train_config.epochs < start_epoch:
            raise CheckpointError(f"{resume_from}: the run has trained {start_epoch} epochs, "
                                  f"more than the {train_config.epochs} asked for")

    os.makedirs(out_dir, exist_ok=True)
    if config_text is not None:
        with open(os.path.join(out_dir, "config.ini"), "w", encoding="utf-8") as fh:
            fh.write(config_text)
    held_out = train_samples if val_samples is None else val_samples
    for epoch in range(start_epoch + 1, train_config.epochs + 1):
        t0 = time.perf_counter()
        loss = train_epoch(model, train_samples, optimizer, rng,
                           train_config.batch_size, epoch)
        top1, top5 = evaluate(model, held_out, train_config.batch_size)
        record = MetricsRecord(epoch=epoch, loss=loss, top1=top1, top5=top5,
                               lr=optimizer.lr, seconds=time.perf_counter() - t0)
        improved = top1 > run.best_top1
        if improved:
            run.best_top1, run.bad_epochs = top1, 0
        else:
            run.bad_epochs += 1
            if run.bad_epochs >= train_config.plateau_patience:
                optimizer.lr *= train_config.lr_factor
                run.bad_epochs = 0
        run.history.append(record)
        with open(os.path.join(out_dir, "metrics.log"), "a", encoding="utf-8") as fh:
            fh.write(record.line() + "\n")
        if not quiet:
            print(record.line(), flush=True)
        if improved:
            save_training_checkpoint(best_path, run, rng, epoch, configs)
            run.best_path = best_path
        save_training_checkpoint(run.last_path, run, rng, epoch, configs)
    return run
