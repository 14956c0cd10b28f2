"""Workloads, the closed measurement loop, correctness checks and results.

Load is a closed loop: one caller in one process, each call waiting for
the previous one.  A workload is set up ``setups`` times (the median is
``setup_s``), warmed up with ``warmup`` units, then runs units until
``--seconds`` have passed and at least ``MIN_UNITS`` units ran.  A unit is one train
step, one eval batch or one CLI fit.  Every unit is checked; a unit that
raises or fails a check counts as failed and is left out of the timings.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tssan import cli, segments, tensor, training
from tssan.data import LabeledSample, SkeletonClip, load_manifest
from tssan.models import ModelConfig
from tssan.optim import Adam

import tracer as tracing

MIN_UNITS = 3


@dataclass
class Unit:
    """Outcome of one measured call (or pair of CLI calls)."""

    seconds: float
    clips: int
    fingerprint: object = None      # compared bit for bit across traced/untraced
    attempts: int = 1
    problems: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# NTU-geometry workloads

NTU = {"joints": 25, "persons": 2, "coords": 3, "labels": 60, "segments": 3,
       "frames_per_segment": 32, "batch": 8, "min_frames": 40, "max_frames": 300,
       "model": {}}
NTU_TOY = {"joints": 4, "persons": 2, "coords": 3, "labels": 5, "segments": 2,
           "frames_per_segment": 4, "batch": 2, "min_frames": 8, "max_frames": 16,
           "model": {"san_layers": 1, "san_heads": 2, "san_ff_width": 32}}
BATCH_POOL = 4   # distinct batches cycled through by the loop


def _skeleton_clip(rng: np.random.Generator, geo: dict) -> SkeletonClip:
    """A random-walk skeleton; the second person is absent half the time."""
    frames = int(rng.integers(geo["min_frames"], geo["max_frames"] + 1))
    shape = (geo["persons"], geo["joints"], geo["coords"])
    pose = rng.normal(0.0, 0.3, size=shape)
    velocity = rng.normal(0.0, 0.01, size=(frames,) + shape).cumsum(axis=0)
    positions = pose + velocity.cumsum(axis=0) * 0.1
    mask = np.ones(geo["persons"], dtype=bool)
    if geo["persons"] > 1 and rng.random() < 0.5:
        positions[:, 1:] = 0.0
        mask[1:] = False
    return SkeletonClip(positions, mask)


class NtuWorkload:
    """Shared set-up of the two NTU workloads: random clips and a model."""

    setups = 9      # a set-up takes well under a second, so take more samples
    warmup = 1

    def __init__(self, variant: str, toy: bool):
        self.geo = NTU_TOY if toy else NTU
        geo = self.geo
        self.model_config = ModelConfig(
            variant=variant, encoder="cnn", num_labels=geo["labels"],
            joints=geo["joints"], coords=geo["coords"], persons=geo["persons"],
            frames=geo["frames_per_segment"], **geo["model"])
        self.tsn_config = segments.TsnConfig(segments=geo["segments"],
                                             frames_per_segment=geo["frames_per_segment"])

    def setup(self, seed: int, work: Path) -> dict:
        geo = self.geo
        rng = np.random.default_rng([seed, 2])
        raw = [LabeledSample(_skeleton_clip(rng, geo), int(rng.integers(geo["labels"])), "")
               for _ in range(BATCH_POOL * geo["batch"])]
        samples = training.prepare_samples(raw)
        batches = [samples[i:i + geo["batch"]] for i in range(0, len(samples), geo["batch"])]
        model = training.build_ts_model(self.model_config, self.tsn_config, seed)
        return {"model": model, "batches": batches, "rng": np.random.default_rng([seed, 1])}

    def release(self, state: dict):
        state.clear()

    def describe(self) -> dict:
        return {"model": self.model_config.to_dict(), "tsn": self.tsn_config.to_dict(),
                "batch": self.geo["batch"],
                "clip_frames": [self.geo["min_frames"], self.geo["max_frames"]]}


class NtuTrain(NtuWorkload):
    """TsSan.forward_batch -> ts_loss -> tensor.backward -> Adam.step."""

    def __init__(self, toy: bool):
        super().__init__("v3", toy)
        self.train_config = training.TrainConfig()

    def setup(self, seed: int, work: Path) -> dict:
        state = super().setup(seed, work)
        model = state["model"]
        state["optimizer"] = Adam(dict(model.named_parameters()), lr=self.train_config.lr,
                                  weight_decay=self.train_config.weight_decay)
        state["sums"] = _param_sums(model)
        return state

    def unit(self, state: dict, index: int) -> Unit:
        model, optimizer = state["model"], state["optimizer"]
        batch = state["batches"][index % len(state["batches"])]
        pairs = [(s.positions, s.motions) for s in batch]
        labels = [s.label for s in batch]
        model.train()
        start = time.perf_counter()
        out = model.forward_batch(pairs, state["rng"])
        loss = segments.ts_loss(out, labels)
        value = loss.item()
        optimizer.zero_grad()
        tensor.backward(loss)
        optimizer.step()
        unit = Unit(time.perf_counter() - start, len(batch), fingerprint=value)
        if not np.isfinite(value):
            unit.problems.append(f"non-finite loss {value!r}")
        before, after = state["sums"], _param_sums(model)
        state["sums"] = after
        stuck = [name for name, p in model.named_parameters()
                 if before[name] == after[name] and p.grad is not None and np.any(p.grad)]
        if stuck or before == after:
            unit.problems.append(f"parameters unchanged by the step: {stuck[:3] or 'all'}")
        return unit


def _param_sums(model) -> dict[str, float]:
    return {name: float(p.data.sum()) for name, p in model.named_parameters()}


class NtuEval(NtuWorkload):
    """training.evaluate over one batch under no_grad, probabilities checked."""

    def __init__(self, toy: bool):
        super().__init__("v2", toy)

    def setup(self, seed: int, work: Path) -> dict:
        state = super().setup(seed, work)
        model = state["model"]
        captured = state["probabilities"] = []

        def forward_batch(pairs, rng=None):
            # looked up on the class per call, so a traced run sees its wrapper
            out = segments.TsSan.forward_batch(model, pairs, rng)
            captured.append(out.probabilities)
            return out

        model.forward_batch = forward_batch
        return state

    def unit(self, state: dict, index: int) -> Unit:
        batch = state["batches"][index % len(state["batches"])]
        state["probabilities"].clear()
        start = time.perf_counter()
        training.evaluate(state["model"], batch, batch_size=len(batch))
        unit = Unit(time.perf_counter() - start, len(batch))
        probs = np.concatenate(state["probabilities"])
        unit.fingerprint = hashlib.sha256(probs.tobytes()).hexdigest()
        if probs.shape[0] != len(batch) or not np.all(np.isfinite(probs)):
            unit.problems.append("probabilities missing or non-finite")
        elif np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-9:
            unit.problems.append("probability rows do not sum to 1 within 1e-9")
        return unit


# ---------------------------------------------------------------------------
# CLI workload

FIT = {"labels": 8, "per_label": 24, "val_per_label": 6, "frames": 64, "joints": 25,
       "persons": 2, "coords": 3, "segments": 3, "frames_per_segment": 16,
       "san_layers": 2, "san_heads": 4, "ff_coord_width": 4, "batch": 16,
       "lr": "1e-3", "epochs": 3}
FIT_TOY = {**FIT, "labels": 3, "per_label": 8, "val_per_label": 2, "frames": 12,
           "joints": 3, "segments": 2, "frames_per_segment": 4, "san_layers": 1,
           "san_heads": 2, "batch": 4, "lr": "1e-2", "epochs": 10}
MIN_VAL_TOP1 = 0.9


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run ``tssan`` in this process; returns (exit code, captured output)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buffer.getvalue()


class SyntheticFit:
    """prepare --synthetic, then train with --val and checkpoints, then eval."""

    setups = 3
    warmup = 0      # the set-ups already ran the CLI and data paths

    def __init__(self, toy: bool):
        self.geo = FIT_TOY if toy else FIT
        self._serial = 0

    def describe(self) -> dict:
        return dict(self.geo)

    def setup(self, seed: int, work: Path) -> dict:
        geo = self.geo
        self._serial += 1
        data = work / f"data{self._serial}"
        code, output = _cli(["prepare", "--out", str(data), "--synthetic",
                             "--labels", str(geo["labels"]),
                             "--per-label", str(geo["per_label"]),
                             "--val-per-label", str(geo["val_per_label"]),
                             "--frames", str(geo["frames"]), "--joints", str(geo["joints"]),
                             "--persons", str(geo["persons"]), "--coords", str(geo["coords"]),
                             "--seed", str(seed)])
        if code != 0:
            raise RuntimeError(f"prepare exited {code}: {output}")
        config = work / f"fit{self._serial}.ini"
        config.write_text(f"[model]\nff_coord_width = {geo['ff_coord_width']}\n")
        train_count = len(load_manifest(str(data / "train.manifest")))
        val_count = len(load_manifest(str(data / "val.manifest")))
        return {"data": data, "config": config, "seed": seed, "work": work,
                "clips": geo["epochs"] * (train_count + val_count) + val_count}

    def release(self, state: dict):
        shutil.rmtree(state["data"], ignore_errors=True)
        state["config"].unlink(missing_ok=True)
        state.clear()

    def unit(self, state: dict, index: int) -> Unit:
        geo = self.geo
        self._serial += 1
        run = state["work"] / f"run{self._serial}"
        start = time.perf_counter()
        train_code, train_out = _cli([
            "train", "--data", str(state["data"] / "train.manifest"),
            "--val", str(state["data"] / "val.manifest"), "--out", str(run),
            "--config", str(state["config"]), "--variant", "v3", "--encoder", "ff",
            "--segments", str(geo["segments"]),
            "--frames-per-segment", str(geo["frames_per_segment"]),
            "--san-layers", str(geo["san_layers"]), "--san-heads", str(geo["san_heads"]),
            "--epochs", str(geo["epochs"]), "--batch-size", str(geo["batch"]),
            "--lr", geo["lr"], "--seed", str(state["seed"]), "--quiet"])
        eval_code, eval_out = _cli(["eval", "--checkpoint", str(run / "best.ckpt"),
                                    "--data", str(state["data"] / "val.manifest")])
        unit = Unit(time.perf_counter() - start, state["clips"], attempts=2)
        try:
            if train_code != 0 or eval_code != 0:
                unit.problems.append(f"exit codes train={train_code} eval={eval_code}: "
                                     f"{(train_out + eval_out).strip()[-300:]}")
                return unit
            best = _field(train_out, "best top1=")
            evaluated = _field(eval_out, "top1=")
            losses = [_field(line, "loss=") for line in
                      (run / "metrics.log").read_text(encoding="utf-8").splitlines()]
            unit.fingerprint = (tuple(losses), evaluated)
            state["val_top1"] = evaluated
            if evaluated != best:
                unit.problems.append(f"eval top1 {evaluated!r} != best top1 {best!r}")
            if evaluated < MIN_VAL_TOP1:
                unit.problems.append(f"val top1 {evaluated!r} below {MIN_VAL_TOP1}")
        finally:
            shutil.rmtree(run, ignore_errors=True)
        return unit


def _field(text: str, key: str) -> float:
    """The float after ``key`` (at a word start) in a ``key=value`` line."""
    for line in text.splitlines():
        at = line.find(key)
        if at == 0 or (at > 0 and line[at - 1] == " "):
            return float(line[at + len(key):].split()[0])
    raise ValueError(f"{key!r} not found in {text!r}")


WORKLOADS = {"ntu-train-v3cnn": NtuTrain, "ntu-eval-v2cnn": NtuEval,
             "synthetic-fit-v3ff": SyntheticFit}


# ---------------------------------------------------------------------------
# measurement

def _run_unit(workload, state: dict, index: int) -> Unit:
    try:
        return workload.unit(state, index)
    except Exception:  # noqa: BLE001 - a failed unit is counted, not fatal
        return Unit(0.0, 0, problems=[traceback.format_exc(limit=4)])


def _loop(workload, state: dict, seconds: float, min_units: int) -> list[Unit]:
    units: list[Unit] = []
    start = time.perf_counter()
    while len(units) < min_units or time.perf_counter() - start < seconds:
        units.append(_run_unit(workload, state, len(units)))
    return units


def _setup(workload, seed: int, work: Path, previous: dict | None) -> tuple[dict, float]:
    if previous is not None:
        workload.release(previous)
    gc.collect()
    start = time.perf_counter()
    state = workload.setup(seed, work)
    return state, time.perf_counter() - start


def _timing(values: list[float]) -> dict:
    """Median, count, and the highest of p90/p99 with >= 10 samples beyond it."""
    out = {"median": statistics.median(values) if values else float("nan"), "n": len(values),
           "samples": [round(v, 6) for v in values]}
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = statistics.quantiles(values, n=100)[q - 1]
            break
    return out


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, units: list[Unit]):
        for unit in units:
            self.attempted += unit.attempts
            if unit.problems:
                self.failed += unit.attempts
                self.problems.extend(unit.problems)

    def check(self, ok: bool, problem: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def measure(workload, seed: int, seconds: float, work: Path, tally: Tally) -> tuple[dict, dict]:
    """Untraced run: returns (end-to-end metrics, details)."""
    state = None
    setup_times = []
    for _ in range(workload.setups):
        state, elapsed = _setup(workload, seed, work, state)
        setup_times.append(elapsed)
        tally.attempted += 1
    tally.add(_loop(workload, state, 0.0, workload.warmup))
    units = _loop(workload, state, seconds, MIN_UNITS)
    tally.add(units)
    good = [u for u in units if not u.problems]
    step = _timing([u.seconds * 1000.0 for u in good])
    busy = sum(u.seconds for u in good)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "step_ms_p50": (step["median"], "ms"),
        "clips_per_s": (sum(u.clips for u in good) / busy if busy else float("nan"), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {"setup_s": _timing(setup_times), "step_ms": step,
               "warmup_units": workload.warmup}
    if "val_top1" in state:
        details["fit_val_top1"] = state["val_top1"]
    workload.release(state)
    return metrics, details


def _traced_unit(workload, tracer: tracing.Tracer, state: dict, index: int) -> Unit:
    tracer.install()
    try:
        return _run_unit(workload, state, index)
    finally:
        tracer.uninstall()


def _pairs(workload, tracer: tracing.Tracer, plain: dict, traced: dict,
           seconds: float, min_pairs: int) -> tuple[list[Unit], list[Unit]]:
    """Alternate untraced and traced units; the order flips every pair."""
    untraced_units: list[Unit] = []
    traced_units: list[Unit] = []
    start = time.perf_counter()
    while len(untraced_units) < min_pairs or time.perf_counter() - start < seconds:
        index = len(untraced_units)
        if index % 2:
            traced_units.append(_traced_unit(workload, tracer, traced, index))
            untraced_units.append(_run_unit(workload, plain, index))
        else:
            untraced_units.append(_run_unit(workload, plain, index))
            traced_units.append(_traced_unit(workload, tracer, traced, index))
    return untraced_units, traced_units


def measure_traced(workload, seed: int, seconds: float, work: Path,
                   tally: Tally) -> tuple[dict, dict]:
    """Untraced and traced units, interleaved, on two states from one seed.

    The tracer is installed around each traced unit only.  The i-th traced
    unit repeats the i-th untraced one, so their losses (or probabilities)
    must agree bit for bit.  At least one warm-up pair runs first and is
    checked but not timed.
    """
    tracer = tracing.Tracer()
    plain, _ = _setup(workload, seed, work, None)
    tracer.install()
    try:
        traced, _ = _setup(workload, seed, work, None)
    finally:
        tracer.uninstall()
    setup_totals = tracer.totals()
    warm_plain, warm_traced = _pairs(workload, tracer, plain, traced, 0.0,
                                     max(1, workload.warmup))
    tracer.reset()
    reference, measured = _pairs(workload, tracer, plain, traced, seconds, MIN_UNITS)
    loop_totals = tracer.totals()
    workload.release(plain)
    workload.release(traced)
    for units in (warm_plain, warm_traced, reference, measured):
        tally.add(units)
    count = len(measured)

    identical = ([u.fingerprint for u in warm_plain + reference]
                 == [u.fingerprint for u in warm_traced + measured])
    tally.check(identical, "traced and untraced runs disagree on losses or outputs")
    per_unit = tracing.layer_metrics(loop_totals, count)
    per_setup = tracing.layer_metrics(setup_totals, 1)
    # a layer the units never reach (set-up only) reports one set-up's value
    values = {name: per_unit[name] or per_setup[name] for name in tracing.PER_LAYER_UNITS}
    reference_s = statistics.median(u.seconds for u in reference)
    traced_s = statistics.median(u.seconds for u in measured)
    busy = sum(u.seconds for u in measured)
    values["trace.overhead_pct"] = 100.0 * (traced_s / reference_s - 1.0)
    values["trace.coverage"] = loop_totals["top_level_s"] / busy
    values["trace.uncovered_ms"] = (busy - loop_totals["top_level_s"]) * 1000.0 / count
    metrics = {name: (values[name], unit) for name, unit in tracing.PER_LAYER_UNITS.items()}
    details = {"pairs": count, "warmup_pairs": len(warm_plain), "bit_identical": identical,
               "untraced_unit_ms": reference_s * 1000.0, "traced_unit_ms": traced_s * 1000.0}
    return metrics, details


# ---------------------------------------------------------------------------
# environment stamp

def _git_sha(root: Path) -> str | None:
    """HEAD of the checkout read from ``.git`` files; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _blas() -> dict:
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment(root: Path, seed: int, nproc: int) -> dict:
    return {"git_sha": _git_sha(root), "src_digest": _source_digest(root / "src"),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(), "blas_thread_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": nproc, "machine": platform.machine(), "seed": seed}


# ---------------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool, toy: bool,
        root: Path, nproc: int) -> dict:
    """Run one workload; returns the result object printed last."""
    workload = WORKLOADS[name](toy)
    work = root / ".bench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        if trace:
            metrics, details = measure_traced(workload, seed, seconds, work, tally)
        else:
            metrics, details = measure(workload, seed, seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / ".bench_work").rmdir()
    report = {"workload": name, "trace": trace, "toy": toy, "seconds": seconds,
              "config": workload.describe(), "env": environment(root, seed, nproc),
              "details": details, "attempted": tally.attempted, "failed": tally.failed,
              "error_rate": tally.failed / tally.attempted, "problems": tally.problems[:5]}
    for metric, (value, unit) in metrics.items():
        print(f"{metric:34s} {value:14.6g} {unit}")
    print(f"{'error_rate':34s} {report['error_rate']:14.6g} ratio")
    print("report " + json.dumps(report, sort_keys=True, default=str))
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {metric: {"value": value if value == value else None, "unit": unit}
                        for metric, (value, unit) in metrics.items()}}
