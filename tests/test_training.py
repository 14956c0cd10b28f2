import dataclasses
import os
import re
import threading
import time
import tracemalloc
import types
from contextlib import closing

import numpy as np
import pytest

from tssan.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from tssan.data import load_samples, make_synthetic_dataset
from tssan.models import ModelConfig
from tssan.optim import Adam
from tssan.segments import TsnConfig
from tssan.training import (MetricsRecord, NumericDivergenceError, PreparedSample,
                            PreparedSplit,
                            TrainConfig, build_ts_model, evaluate,
                            load_model_from_checkpoint, prepare_samples,
                            run_training, topk_hits, train_epoch)


def _tiny_configs(**train_kw):
    model = ModelConfig(variant="v2", encoder="ff", num_labels=3, joints=2,
                        coords=2, persons=2, frames=4, san_layers=1, san_heads=2,
                        ff_coord_width=2, san_ff_width=8)
    tsn = TsnConfig(segments=2, frames_per_segment=4)
    kw = dict(lr=3e-3, batch_size=4, epochs=3, seed=11)
    kw.update(train_kw)
    return model, tsn, TrainConfig(**kw)


def _first_value(value):
    """A moment edit: a copy whose first value is ``value``."""
    def edit(moment):
        moment = moment.copy()
        moment.flat[0] = value
        return moment
    return edit


def _tiny_dataset(tmp_path, per_label=4, num_labels=3, noise=0.05, seed=1,
                  split="train"):
    manifest = make_synthetic_dataset(str(tmp_path / split), num_labels=num_labels,
                                      samples_per_label=per_label, frames=12,
                                      joints=2, persons=2, coords=2, noise=noise,
                                      seed=seed, split=split)
    with closing(load_samples(manifest)) as samples:
        return prepare_samples(samples)


class TestEpochMechanics:
    def test_empty_dataset_rejected(self):
        model_cfg, tsn, train = _tiny_configs()
        model = build_ts_model(model_cfg, tsn, 0)
        opt = Adam(dict(model.named_parameters()), lr=1e-3)
        with pytest.raises(ValueError, match="empty"):
            train_epoch(model, [], opt, np.random.default_rng(0), 4)

    def test_seeded_epoch_is_bit_reproducible(self, tmp_path):
        samples = _tiny_dataset(tmp_path)

        def run_once():
            model_cfg, tsn, train = _tiny_configs()
            model = build_ts_model(model_cfg, tsn, train.seed)
            opt = Adam(dict(model.named_parameters()), lr=train.lr)
            loss = train_epoch(model, samples, opt, np.random.default_rng(5), 4)
            return loss, {n: p.data.copy() for n, p in model.named_parameters()}

        loss_a, params_a = run_once()
        loss_b, params_b = run_once()
        assert loss_a == loss_b
        for name in params_a:
            np.testing.assert_array_equal(params_a[name], params_b[name])

    def test_loss_finite_and_decreasing_on_single_sample(self, tmp_path):
        samples = _tiny_dataset(tmp_path, per_label=1, num_labels=2)[:1]
        model_cfg, tsn, _ = _tiny_configs()
        model_cfg.num_labels = 2
        model = build_ts_model(model_cfg, tsn, 3)
        opt = Adam(dict(model.named_parameters()), lr=5e-3)
        rng = np.random.default_rng(7)
        losses = [train_epoch(model, samples, opt, rng, 4, epoch=e)
                  for e in range(40)]
        assert all(np.isfinite(losses))
        assert losses[-1] < 0.05  # overfits a single sample
        assert losses[-1] < losses[0]

    def test_single_sample_leftover_batch_dropped(self):
        from tssan.training import _batches
        chunks = list(_batches(9, 4, np.arange(9)))
        assert [len(c) for c in chunks] == [4, 4]
        chunks = list(_batches(8, 4, np.arange(8)))
        assert [len(c) for c in chunks] == [4, 4]
        # a one-sample dataset is still trainable
        chunks = list(_batches(1, 4, np.arange(1)))
        assert [len(c) for c in chunks] == [1]
        # at batch size 1 every batch is a single sample, and each is kept
        chunks = list(_batches(3, 1, np.arange(3)))
        assert [len(c) for c in chunks] == [1, 1, 1]

    def test_nan_loss_raises_numeric_divergence(self, tmp_path):
        samples = _tiny_dataset(tmp_path, per_label=2)
        model_cfg, tsn, train = _tiny_configs()
        model = build_ts_model(model_cfg, tsn, train.seed)
        params = dict(model.named_parameters())
        next(iter(params.values())).data[:] = np.inf
        opt = Adam(params, lr=1e-3)
        with np.errstate(invalid="ignore"), pytest.raises(NumericDivergenceError) as info:
            train_epoch(model, samples, opt, np.random.default_rng(0), 4, epoch=7)
        assert info.value.epoch == 7

    def test_nan_gradient_raises_before_the_step(self, tmp_path, monkeypatch):
        from tssan import training
        samples = _tiny_dataset(tmp_path, per_label=2)
        model_cfg, tsn, train = _tiny_configs()
        model = build_ts_model(model_cfg, tsn, train.seed)
        params = dict(model.named_parameters())
        victim = list(params)[3]
        before = {name: p.data.copy() for name, p in params.items()}
        opt = Adam(params, lr=1e-3)
        real_backward = training.backward
        losses = []

        def poisoned(loss):
            losses.append(loss.item())
            real_backward(loss)
            params[victim].grad.flat[0] = np.nan

        monkeypatch.setattr(training, "backward", poisoned)
        with pytest.raises(NumericDivergenceError, match=f"gradient for {victim} ") as info:
            train_epoch(model, samples, opt, np.random.default_rng(0), 4, epoch=2)
        assert info.value.epoch == 2 and info.value.step == 0
        assert len(losses) == 1 and np.isfinite(losses[0])
        assert opt.step_count == 0
        for name, p in params.items():
            np.testing.assert_array_equal(p.data, before[name])
            assert not opt.m[name].any() and not opt.v[name].any()


class TestSplitMemory:
    @staticmethod
    def _epoch_peak(tmp_path, per_label: int, batch: int) -> int:
        """Peak bytes tracemalloc sees during one epoch over a split of
        3 * ``per_label`` clips of 96 frames, read from its pack as used."""
        manifest = make_synthetic_dataset(str(tmp_path / f"d{per_label}"), num_labels=3,
                                          samples_per_label=per_label, frames=96, joints=5,
                                          persons=2, coords=3, seed=1)
        model_cfg = ModelConfig(variant="v2", encoder="ff", num_labels=3, joints=5,
                                coords=3, persons=2, frames=4, san_layers=1, san_heads=2,
                                ff_coord_width=2, san_ff_width=8)
        model = build_ts_model(model_cfg, TsnConfig(segments=2, frames_per_segment=4), 0)
        opt = Adam(dict(model.named_parameters()), lr=1e-3)
        model.narrow()
        with closing(load_samples(manifest)) as split:
            samples = PreparedSplit(split)
            train_epoch(model, samples, opt, np.random.default_rng(0), batch)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                train_epoch(model, samples, opt, np.random.default_rng(0), batch)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        return peak

    def test_epoch_over_a_packed_split_holds_one_batch(self, tmp_path):
        batch = 4
        # a clip read and prepared: float64 positions, float32 positions and motions
        batch_bytes = batch * 96 * 2 * 5 * 3 * (8 + 4 + 4)
        small = self._epoch_peak(tmp_path, 2, batch)
        large = self._epoch_peak(tmp_path, 20, batch)
        # 54 more clips held whole would add 54 * 11,520 bytes of model input alone
        assert abs(large - small) <= batch_bytes


class TestTrainConfig:
    @pytest.mark.parametrize("key, value, message", [
        ("lr", float("inf"), "lr must be finite, got inf"),
        ("weight_decay", float("inf"), "weight_decay must be finite, got inf"),
        ("lr_factor", 1.0, "lr_factor must lie in (0, 1), got 1.0"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ], ids=["lr-inf", "weight-decay-inf", "lr-factor-1", "seed-negative"])
    def test_bad_setting_rejected(self, key, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TrainConfig(**{key: value})


class TestEvaluate:
    def test_empty_dataset_rejected(self):
        model_cfg, tsn, _ = _tiny_configs()
        with pytest.raises(ValueError, match="cannot evaluate an empty dataset"):
            evaluate(build_ts_model(model_cfg, tsn, 0), [], 4)

    def test_perfect_and_uniform_predictors(self):
        labels = np.array([0, 1, 2, 3])
        onehot = np.eye(4)
        assert topk_hits(onehot, labels, 1) == 4
        uniform = np.full((4, 4), 0.25)
        # ties resolve to the lowest label index
        assert topk_hits(uniform, labels, 1) == 1

    def test_hand_counted_accuracies(self):
        probs = np.array([
            [0.5, 0.3, 0.2],   # label 0 -> top1 hit
            [0.3, 0.5, 0.2],   # label 1 -> top1 hit
            [0.2, 0.3, 0.5],   # label 0 -> only a top3 hit
        ])
        labels = np.array([0, 1, 0])
        assert topk_hits(probs, labels, 1) == 2
        assert topk_hits(probs, labels, 2) == 2
        assert topk_hits(probs, labels, 3) == 3

    def test_top5_at_least_top1(self, tmp_path):
        samples = _tiny_dataset(tmp_path)
        model_cfg, tsn, train = _tiny_configs()
        model = build_ts_model(model_cfg, tsn, train.seed)
        top1, top5 = evaluate(model, samples, train.batch_size)
        assert 0.0 <= top1 <= top5 <= 1.0

    def test_evaluation_is_deterministic(self, tmp_path):
        samples = _tiny_dataset(tmp_path)
        model_cfg, tsn, train = _tiny_configs()
        model = build_ts_model(model_cfg, tsn, train.seed)
        assert (evaluate(model, samples, train.batch_size)
                == evaluate(model, samples, train.batch_size))


class TestMetricsRecord:
    def test_line_roundtrip(self):
        rec = MetricsRecord(epoch=3, loss=1.25, top1=0.5, top5=0.9,
                            lr=1e-4, seconds=2.5)
        line = rec.line()
        assert line == "epoch=3 loss=1.25 top1=0.5 top5=0.9 lr=0.0001 seconds=2.5"
        fields = dict(part.split("=", 1) for part in line.split())
        assert {k: float(v) for k, v in fields.items()} == vars(rec)


class TestCheckpointContainer:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {"a.w": rng.normal(size=(3, 4)), "b": rng.normal(size=7)}
        meta = {"epoch": 2, "note": "x", "nested": {"lr": 1e-4}}
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, arrays, meta)
        meta2, arrays2 = load_checkpoint(path)
        assert meta2 == meta
        for name in arrays:
            np.testing.assert_array_equal(arrays2[name], arrays[name])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))

    def test_version_mismatch_rejected(self, tmp_path):
        import json, struct
        from tssan.checkpoint import MAGIC
        header = json.dumps({"version": 99, "meta": {}, "arrays": []}).encode()
        path = tmp_path / "v99.ckpt"
        path.write_bytes(MAGIC + struct.pack("<Q", len(header)) + header)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        path = str(tmp_path / "t.ckpt")
        save_checkpoint(path, {"w": np.ones(10)}, {})
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-8])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)


    @pytest.mark.parametrize("header", [
        {"version": 1, "arrays": []},
        {"version": 1, "meta": {}},
        {"version": 1, "meta": {}, "arrays": [{"name": "w", "shape": [1], "nbytes": 8}]},
        [],
        {"version": 1, "meta": [], "arrays": []},
    ], ids=["no-meta", "no-arrays", "no-offset", "not-an-object", "meta-not-an-object"])
    def test_malformed_header_rejected(self, tmp_path, header):
        import json, struct
        from tssan.checkpoint import MAGIC
        blob = json.dumps(header).encode()
        path = tmp_path / "h.ckpt"
        path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob)
        with pytest.raises(CheckpointError, match="malformed header"):
            load_checkpoint(str(path))

    def test_header_nested_deeper_than_the_decoder_goes_rejected(self, tmp_path):
        import struct, zlib
        from tssan.checkpoint import MAGIC
        blob = b"[" * 200_000 + b"]" * 200_000
        data = MAGIC + struct.pack("<Q", len(blob)) + blob
        path = tmp_path / "deep.ckpt"
        path.write_bytes(data + struct.pack("<I", zlib.crc32(data)))
        with pytest.raises(CheckpointError, match="unreadable header: maximum recursion"):
            load_checkpoint(str(path))

    def test_file_shortened_while_loading_rejected(self, tmp_path, monkeypatch):
        # the file loses its tail after its size was read: a short read, never
        # an array left partly unread
        path = tmp_path / "s.ckpt"
        save_checkpoint(str(path), {"w": np.ones(10), "b": np.ones(3)}, {})
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-12])
        with monkeypatch.context() as patch:
            patch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(st_size=size))
            with pytest.raises(CheckpointError, match="truncated payload at b$"):
                load_checkpoint(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "t.ckpt")
        save_checkpoint(path, {"w": np.ones(10)}, {})
        with open(path, "ab") as fh:
            fh.write(b"\0" * 8)
        with pytest.raises(CheckpointError, match="8 trailing bytes"):
            load_checkpoint(path)

    def test_payload_is_the_arrays_back_to_back_then_a_crc32(self, tmp_path):
        import struct, zlib
        arrays = {"w": np.arange(6.0).reshape(2, 3), "h": np.float32([0.5, -2.0]),
                  "s": np.array(3.25)}
        path = tmp_path / "p.ckpt"
        save_checkpoint(str(path), arrays, {})
        blob = path.read_bytes()
        payload = b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays.values())
        assert blob[-4 - len(payload):-4] == payload
        assert blob[-4:] == struct.pack("<I", zlib.crc32(blob[:-4]))

    def test_failed_save_leaves_no_tmp(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, {"w": np.ones(3)}, {"n": 1})
        with pytest.raises(ValueError):
            save_checkpoint(path, {"b": np.array(["x"])}, {})
        assert sorted(os.listdir(tmp_path)) == ["c.ckpt"]
        assert load_checkpoint(path)[0] == {"n": 1}

    def test_save_over_a_directory_cleans_up(self, tmp_path):
        target = tmp_path / "d.ckpt"
        target.mkdir()
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(IsADirectoryError):
            save_checkpoint(str(target), {"w": np.ones(3)}, {})
        # the directory was opened and held, then closed on this thread
        assert len(os.listdir("/proc/self/fd")) == before
        assert sorted(os.listdir(tmp_path)) == ["d.ckpt"] and target.is_dir()

    def test_replacing_saves_release_the_old_files(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        before = len(os.listdir("/proc/self/fd"))
        for step in range(3):
            save_checkpoint(path, {"w": np.full(1000, float(step))}, {"step": step})
        # each held fd is closed off this thread, so poll for the count
        deadline = time.monotonic() + 5.0
        while len(os.listdir("/proc/self/fd")) != before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(os.listdir("/proc/self/fd")) == before
        assert load_checkpoint(path)[0] == {"step": 2}

    def test_open_reader_keeps_the_replaced_file(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, {"w": np.zeros(4)}, {"v": "old"})
        with open(path, "rb") as reader:
            old = reader.read()
            reader.seek(0)
            save_checkpoint(path, {"w": np.ones(4), "b": np.arange(2.0)}, {"v": "new"})
            assert reader.read() == old
        meta, arrays = load_checkpoint(path)
        assert meta == {"v": "new"}
        np.testing.assert_array_equal(arrays["w"], np.ones(4))
        np.testing.assert_array_equal(arrays["b"], np.arange(2.0))
        assert sorted(os.listdir(tmp_path)) == ["c.ckpt"]

    def test_unopenable_old_file_is_still_replaced(self, tmp_path, monkeypatch):
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, {"w": np.zeros(2)}, {"v": 1})

        def refuse(*args, **kwargs):
            raise PermissionError("refused")

        monkeypatch.setattr("tssan.checkpoint.os.open", refuse)
        save_checkpoint(path, {"w": np.ones(2)}, {"v": 2})
        monkeypatch.undo()
        meta, arrays = load_checkpoint(path)
        assert meta == {"v": 2}
        np.testing.assert_array_equal(arrays["w"], np.ones(2))

    def test_fifo_at_path_is_replaced_without_blocking(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        os.mkfifo(path)
        errors = []

        def save():
            try:
                save_checkpoint(path, {"w": np.ones(2)}, {"v": 1})
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        worker = threading.Thread(target=save, daemon=True)
        worker.start()
        worker.join(timeout=10.0)
        assert not worker.is_alive(), "save blocked on the FIFO"
        assert errors == []
        assert load_checkpoint(path)[0] == {"v": 1}

    def test_version_1_file_loads(self, tmp_path):
        import json, struct
        from tssan.checkpoint import MAGIC
        arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([0.5])}
        index, offset = [], 0
        for name, arr in arrays.items():
            index.append({"name": name, "shape": list(arr.shape), "offset": offset,
                          "nbytes": arr.nbytes})
            offset += arr.nbytes
        header = json.dumps({"version": 1, "meta": {"epoch": 3}, "arrays": index},
                            sort_keys=True).encode()
        path = tmp_path / "v1.ckpt"
        path.write_bytes(MAGIC + struct.pack("<Q", len(header)) + header
                         + b"".join(arr.tobytes() for arr in arrays.values()))
        meta, loaded = load_checkpoint(str(path))
        assert meta == {"epoch": 3}
        for name, arr in arrays.items():
            np.testing.assert_array_equal(loaded[name], arr)

    @pytest.mark.parametrize("where", ["payload", "header", "checksum"])
    def test_flipped_byte_rejected(self, tmp_path, where):
        path = tmp_path / "f.ckpt"
        save_checkpoint(str(path), {"w": np.linspace(0.0, 1.0, 10), "b": np.ones(3)},
                        {"epoch": 7})
        blob = bytearray(path.read_bytes())
        at = {"payload": len(blob) - 4 - 9, "header": blob.index(b'"epoch": 7') + 9,
              "checksum": len(blob) - 2}[where]
        blob[at] ^= 1                      # the header still parses: epoch 7 -> 6
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(str(path))

    def test_every_single_bit_flip_is_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "f.ckpt"
        save_checkpoint(str(path), {"w": np.linspace(0.0, 1.0, 3), "b": np.ones((1, 2))},
                        {"epoch": 7, "tag": "x"})
        blob = path.read_bytes()
        for at in range(len(blob)):
            for bit in range(8):
                # a new file per flip: rewriting one just-written file waits
                # on its writeback at every close
                flipped = tmp_path / f"f{at}.{bit}.ckpt"
                flipped.write_bytes(blob[:at] + bytes([blob[at] ^ (1 << bit)]) + blob[at + 1:])
                with pytest.raises(CheckpointError):
                    load_checkpoint(str(flipped))

    @staticmethod
    def _peak_bytes(fn, *args):
        import tracemalloc
        tracemalloc.start()
        try:
            result = fn(*args)
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    def test_load_holds_about_the_file_size(self, tmp_path):
        rng = np.random.default_rng(1)
        path = str(tmp_path / "big.ckpt")
        save_checkpoint(path, {f"a{i}": rng.normal(size=(256, 256)) for i in range(8)},
                        {"epoch": 1})
        size = os.path.getsize(path)
        peak, _ = self._peak_bytes(load_checkpoint, path)
        assert peak <= 1.2 * size

    def test_save_writes_each_array_as_it_goes(self, tmp_path):
        rng = np.random.default_rng(2)
        arrays = {f"a{i}": rng.normal(size=(256, 256)).astype(np.float32) for i in range(8)}
        one = 256 * 256 * 8                # one array as float64 on disk
        peak, _ = self._peak_bytes(save_checkpoint, str(tmp_path / "s.ckpt"), arrays, {})
        assert peak <= 2.2 * one           # never the whole 8-array payload

    def test_meta_without_configs_rejected(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, {"w": np.ones(2)}, {"epoch": 1})
        with pytest.raises(CheckpointError, match="lacks .*'configs'"):
            load_model_from_checkpoint(path)

    def test_stored_bad_crop_ratio_rejected(self, tmp_path):
        samples = _tiny_dataset(tmp_path)
        model_cfg, tsn, train = _tiny_configs(epochs=1)
        run = run_training(model_cfg, tsn, train, samples, out_dir=str(tmp_path / "r"))
        meta, arrays = load_checkpoint(run.last_path)
        meta["configs"]["tsn"]["train_crop"] = [0.9, 0.5]
        save_checkpoint(run.last_path, arrays, meta)
        with pytest.raises(CheckpointError, match="unusable configs.*train_crop"):
            load_model_from_checkpoint(run.last_path)

    @pytest.mark.parametrize("section, key, value", [
        ("model", "san_heads", 3), ("model", "san_layers", 0), ("model", "san_dropout", 1.5),
        ("model", "head_dropout", -0.1), ("model", "san_ff_width", -512),
        ("train", "lr", float("nan")), ("train", "weight_decay", -1e-4),
        ("train", "weight_decay", float("inf")), ("train", "seed", -1),
        ("model", "san_layers", 1.5)],
        ids=["san_heads-3", "san_layers-0", "san_dropout-1.5", "head_dropout--0.1",
             "san_ff_width--512", "train-lr-nan", "train-weight_decay",
             "train-weight_decay-inf", "train-seed-negative", "san_layers-1.5"])
    def test_stored_bad_model_config_rejected(self, tmp_path, section, key, value):
        samples = _tiny_dataset(tmp_path)
        model_cfg, tsn, train = _tiny_configs(epochs=1)
        run = run_training(model_cfg, tsn, train, samples, out_dir=str(tmp_path / "r"))
        meta, arrays = load_checkpoint(run.last_path)
        meta["configs"][section][key] = value
        save_checkpoint(run.last_path, arrays, meta)
        with pytest.raises(CheckpointError, match="unusable configs"):
            load_model_from_checkpoint(run.last_path)

    @pytest.mark.parametrize("damage", ["unexpected", "missing", "shape", "nan", "inf"])
    def test_stored_parameters_must_fit_the_model(self, tmp_path, damage):
        samples = _tiny_dataset(tmp_path)
        model_cfg, tsn, train = _tiny_configs(epochs=1)
        run = run_training(model_cfg, tsn, train, samples, out_dir=str(tmp_path / "r"))
        meta, arrays = load_checkpoint(run.last_path)
        key = next(k for k in arrays if k.startswith("param."))
        name = key[len("param."):]
        match = {"unexpected": r"parameter names disagree with the model: missing \[\], "
                               r"unexpected \['zz'\]$",
                 "missing": rf"parameter names disagree with the model: "
                            rf"missing \['{re.escape(name)}'\], unexpected \[\]$",
                 "shape": rf"shape mismatch for {re.escape(name)}: ",
                 "nan": rf"param\.{re.escape(name)} holds non-finite values$",
                 "inf": rf"param\.{re.escape(name)} holds non-finite values$"}[damage]
        if damage == "unexpected":
            arrays["param.zz"] = np.ones(2)
        elif damage == "missing":
            del arrays[key]
        elif damage == "shape":
            arrays[key] = arrays[key][..., None]
        else:
            arrays[key][(0,) * arrays[key].ndim] = float(damage)
        save_checkpoint(run.last_path, arrays, meta)
        with pytest.raises(CheckpointError, match=match):
            load_model_from_checkpoint(run.last_path)

    def test_non_finite_moment_is_refused_at_load(self, tmp_path):
        samples = _tiny_dataset(tmp_path)
        model_cfg, tsn, train = _tiny_configs(epochs=1)
        run = run_training(model_cfg, tsn, train, samples, out_dir=str(tmp_path / "r"))
        meta, arrays = load_checkpoint(run.last_path)
        key = [k for k in arrays if k.startswith("adam.v.")][-1]
        arrays[key].flat[-1] = np.nan
        save_checkpoint(run.last_path, arrays, meta)
        match = rf"^{re.escape(run.last_path)}: {re.escape(key)} holds non-finite values$"
        for load in (load_checkpoint, load_model_from_checkpoint):
            with pytest.raises(CheckpointError, match=match):
                load(run.last_path)

    def test_corrupt_file_is_reported_before_its_non_finite_values(self, tmp_path):
        path = tmp_path / "n.ckpt"
        save_checkpoint(str(path), {"w": np.array([1.0, np.inf]), "b": np.ones(2)}, {})
        with pytest.raises(CheckpointError, match=r": w holds non-finite values$"):
            load_checkpoint(str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:-5] + bytes([blob[-5] ^ 1]) + blob[-4:])  # in b
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("key, value, match", [
        ("adam", 5, "adam is not an object"),
        ("scheduler", 5, "unusable training state"),
        ("rng_state", 5, "unusable training state"),
        ("epoch", "two", "unusable training state"),
        ("best_top1", None, "unusable training state"),
        ("adam.m", None, "unusable training state"),
        ("adam.v", lambda moment: moment[..., None], "moment shapes .* differ"),
        ("adam.m", _first_value(np.nan), r"<array> holds non-finite values$"),
        ("adam.m", _first_value(-np.inf), r"<array> holds non-finite values$"),
        ("adam.v", _first_value(np.inf), r"<array> holds non-finite values$"),
        ("adam.v", _first_value(np.nan), r"<array> holds non-finite values$"),
        ("adam.v", _first_value(-1.0), r"<array> holds negative values$"),
        ("adam.lr", -1e-3, r"unusable training state .*adam.lr must be finite and >= 0"),
        ("adam.lr", float("inf"), r"unusable training state .*adam.lr must be finite"),
        ("adam.lr", float("nan"), r"unusable training state .*adam.lr must be finite"),
        ("adam.step_count", -3, r"unusable training state .*adam.step_count must be an int"),
        ("adam.step_count", 2.0, r"unusable training state .*adam.step_count must be an int"),
        ("scheduler.bad_epochs", -1, r"unusable training state .*bad_epochs must be an int"),
        ("scheduler.bad_epochs", True, r"unusable training state .*bad_epochs must be an int"),
        ("epoch", -3, r"unusable training state .*epoch must be an int >= 0"),
        ("epoch", 1.7, r"unusable training state .*epoch must be an int >= 0"),
        ("epoch", True, r"unusable training state .*epoch must be an int >= 0"),
        ("best_top1", float("nan"), r"unusable training state .*best_top1 must lie in"),
        ("best_top1", float("inf"), r"unusable training state .*best_top1 must lie in"),
        ("best_top1", 1.5, r"unusable training state .*best_top1 must lie in"),
        ("best_top1", -0.25, r"unusable training state .*best_top1 must lie in"),
    ], ids=["adam", "scheduler", "rng_state", "epoch", "best_top1", "missing-moment",
            "moment-shape", "m-nan", "m-inf", "v-inf", "v-nan", "v-negative",
            "lr-negative", "lr-inf", "lr-nan", "step_count-negative", "step_count-float",
            "bad_epochs-negative", "bad_epochs-bool", "epoch-negative", "epoch-float",
            "epoch-bool", "best_top1-nan", "best_top1-inf", "best_top1-above-1",
            "best_top1-negative"])
    def test_bad_resume_state_rejected(self, tmp_path, key, value, match):
        samples = _tiny_dataset(tmp_path)
        model_cfg, tsn, train = _tiny_configs(epochs=1)
        run = run_training(model_cfg, tsn, train, samples, out_dir=str(tmp_path / "r"))
        meta, arrays = load_checkpoint(run.last_path)
        if key in ("adam.m", "adam.v"):
            name = next(k for k in arrays if k.startswith(key + "."))
            match = match.replace("<array>", re.escape(name))
            if value is None:
                del arrays[name]
            else:
                arrays[name] = value(arrays[name])
        else:
            *path, last = key.split(".")
            node = meta
            for part in path:
                node = node[part]
            node[last] = value
        save_checkpoint(run.last_path, arrays, meta)
        _, _, longer = _tiny_configs(epochs=2)
        with pytest.raises(CheckpointError, match=match):
            run_training(model_cfg, tsn, longer, samples, out_dir=str(tmp_path / "resumed"),
                         resume_from=run.last_path)


class TestRunTraining:
    def test_two_identical_runs_bit_identical(self, tmp_path):
        samples = _tiny_dataset(tmp_path)

        def run(tag):
            model_cfg, tsn, train = _tiny_configs()
            out = str(tmp_path / tag)
            run = run_training(model_cfg, tsn, train, samples, out_dir=out)
            lines = open(os.path.join(out, "metrics.log")).read().splitlines()
            return run, lines, open(os.path.join(out, "last.ckpt"), "rb").read()

        run_a, lines_a, ckpt_a = run("a")
        run_b, lines_b, ckpt_b = run("b")
        strip = lambda lines: [" ".join(p for p in l.split() if not
                                        p.startswith("seconds=")) for l in lines]
        assert strip(lines_a) == strip(lines_b)
        assert ckpt_a == ckpt_b  # wall time never enters the checkpoint

    @pytest.mark.parametrize("patience", [1, 2, 5])
    def test_resume_is_bit_identical_to_straight_run(self, tmp_path, patience):
        samples = _tiny_dataset(tmp_path)
        model_cfg, tsn, train = _tiny_configs(epochs=6, plateau_patience=patience)
        straight = run_training(model_cfg, tsn, train, samples,
                                out_dir=str(tmp_path / "straight"))

        model_cfg2, tsn2, train2 = _tiny_configs(epochs=3, plateau_patience=patience)
        run_training(model_cfg2, tsn2, train2, samples, out_dir=str(tmp_path / "part"))
        model_cfg3, tsn3, train3 = _tiny_configs(epochs=6, plateau_patience=patience)
        resumed = run_training(model_cfg3, tsn3, train3, samples,
                               out_dir=str(tmp_path / "resumed"),
                               resume_from=str(tmp_path / "part" / "last.ckpt"))

        straight_tail = [(r.epoch, r.loss, r.top1, r.top5, r.lr)
                         for r in straight.history[3:]]
        resumed_all = [(r.epoch, r.loss, r.top1, r.top5, r.lr)
                       for r in resumed.history]
        assert straight_tail == resumed_all
        # both models compute on float32 copies of masters that agree to the bit
        for run in (straight, resumed):
            for name, p in run.model.named_parameters():
                assert p.data.dtype == np.float32, name
                assert p.data.tobytes() == run.optimizer.master[name].astype(
                    np.float32).tobytes(), name
        for name, master in straight.optimizer.master.items():
            assert master.tobytes() == resumed.optimizer.master[name].tobytes(), name
        assert (tmp_path / "straight" / "last.ckpt").read_bytes() == \
            (tmp_path / "resumed" / "last.ckpt").read_bytes()
        # the epochs at whose end the lr was cut
        cuts = [q.epoch for q, r in zip(straight.history, straight.history[1:])
                if r.lr < q.lr]
        if patience < 5:
            # the part run stores a cut in its checkpoint; the resumed run makes one
            assert min(cuts) <= 3 < max(cuts), cuts
        else:
            assert cuts == []

    def test_resume_config_mismatch_rejected(self, tmp_path):
        samples = _tiny_dataset(tmp_path)
        model_cfg, tsn, train = _tiny_configs(epochs=1)
        run_training(model_cfg, tsn, train, samples, out_dir=str(tmp_path / "x"))
        other_model, other_tsn, other_train = _tiny_configs(epochs=2)
        other_tsn.segments = 1
        with pytest.raises(CheckpointError, match="different"):
            run_training(other_model, other_tsn, other_train, samples,
                         out_dir=str(tmp_path / "y"),
                         resume_from=str(tmp_path / "x" / "last.ckpt"))

    @pytest.mark.parametrize("section, key, value", [
        ("train", "lr", 0.5), ("train", "weight_decay", 0.0),
        ("train", "plateau_patience", 1), ("train", "lr_factor", 0.25),
        ("train", "seed", 12), ("model", "san_dropout", 0.1), ("tsn", "eval_crop", 0.8)])
    def test_resume_with_changed_setting_rejected(self, tmp_path, section, key, value):
        samples = _tiny_dataset(tmp_path)
        configs = dict(zip(("model", "tsn", "train"), _tiny_configs(epochs=1)))
        run_training(*configs.values(), samples, out_dir=str(tmp_path / "x"))
        configs[section] = dataclasses.replace(configs[section], **{key: value})
        with pytest.raises(CheckpointError, match=rf"different: {section}\.{key} \("):
            run_training(*configs.values(), samples, out_dir=str(tmp_path / "y"),
                         resume_from=str(tmp_path / "x" / "last.ckpt"))
        assert not (tmp_path / "y").exists()

    @pytest.mark.parametrize("resume", [None, "best.ckpt"])
    def test_run_into_a_held_directory_rejected(self, tmp_path, resume):
        # another run would append to its metrics.log and overwrite its
        # checkpoints; only a resume from its own last.ckpt continues it
        samples = _tiny_dataset(tmp_path)
        model_cfg, tsn, train = _tiny_configs(epochs=2)
        out = tmp_path / "r"
        run_training(model_cfg, tsn, train, samples, out_dir=str(out))
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        with pytest.raises(FileExistsError, match=re.escape(
                f"--out {out} already holds a run (metrics.log, best.ckpt, last.ckpt); "
                f"only --resume from its last.ckpt continues it")):
            run_training(model_cfg, tsn, dataclasses.replace(train, epochs=3), samples,
                         out_dir=str(out), resume_from=resume and str(out / resume))
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before

    def test_resume_may_change_epochs_and_batch_size(self, tmp_path):
        samples = _tiny_dataset(tmp_path)
        model_cfg, tsn, train = _tiny_configs(epochs=1)
        run_training(model_cfg, tsn, train, samples, out_dir=str(tmp_path / "x"))
        longer = dataclasses.replace(train, epochs=3, batch_size=2)
        resumed = run_training(model_cfg, tsn, longer, samples, out_dir=str(tmp_path / "y"),
                               resume_from=str(tmp_path / "x" / "last.ckpt"))
        assert [r.epoch for r in resumed.history] == [2, 3]
        meta, _ = load_checkpoint(resumed.last_path)
        assert meta["configs"]["train"] == dataclasses.asdict(longer)
        # 12 samples in batches of 2: six Adam steps per resumed epoch
        assert meta["adam"]["step_count"] == 3 + 2 * 6

    def test_meta_stores_each_setting_and_state_value_once(self, tmp_path):
        samples = _tiny_dataset(tmp_path)
        model_cfg, tsn, train = _tiny_configs(epochs=1)
        run = run_training(model_cfg, tsn, train, samples, out_dir=str(tmp_path / "r"))
        meta, arrays = load_checkpoint(run.last_path)
        assert sorted(meta) == ["adam", "best_top1", "configs", "epoch", "rng_state",
                                "scheduler"]
        assert meta["adam"] == {"step_count": run.optimizer.step_count,
                                "lr": run.optimizer.lr}
        assert meta["scheduler"] == {"bad_epochs": run.bad_epochs}
        names = [n for n, _ in run.model.named_parameters()]
        assert list(arrays) == [f"{kind}.{n}" for n in names
                                for kind in ("param", "adam.m", "adam.v")]

    def test_checkpoints_store_the_float64_masters(self, tmp_path):
        # the model computes on float32 copies; a checkpoint that stored them
        # would widen them to float64 and lose the masters' low bits
        samples = _tiny_dataset(tmp_path)
        model_cfg, tsn, train = _tiny_configs(epochs=2)
        run = run_training(model_cfg, tsn, train, samples, out_dir=str(tmp_path / "r"))
        _, arrays = load_checkpoint(run.last_path)
        params = dict(run.model.named_parameters())
        assert list(run.optimizer.master) == list(params)
        for name, master in run.optimizer.master.items():
            assert params[name].data.dtype == np.float32
            assert master.dtype == np.float64
            assert arrays[f"param.{name}"].tobytes() == master.tobytes(), name
        assert any(not np.array_equal(master, master.astype(np.float32))
                   for master in run.optimizer.master.values())

    def test_resumed_masters_are_the_loaded_arrays(self, tmp_path, monkeypatch):
        # a resume holds one float64 copy of each parameter, not a drawn one
        # overwritten by the stored values beside the stored array
        from tssan import training
        samples = _tiny_dataset(tmp_path)
        model_cfg, tsn, train = _tiny_configs(epochs=1)
        part = run_training(model_cfg, tsn, train, samples, out_dir=str(tmp_path / "part"))
        loaded = []
        monkeypatch.setattr(training, "load_checkpoint",
                            lambda path: loaded.append(load_checkpoint(path)) or loaded[-1])
        resumed = run_training(model_cfg, tsn, dataclasses.replace(train, epochs=2), samples,
                               out_dir=str(tmp_path / "resumed"), resume_from=part.last_path)
        ((_, arrays),) = loaded
        assert list(resumed.optimizer.master) == [n for n, _ in part.model.named_parameters()]
        for name, master in resumed.optimizer.master.items():
            assert master is arrays[f"param.{name}"], name

    def test_parent_layout_checkpoint_resumes_bit_identically(self, tmp_path):
        # older checkpoints also stored settings and state copies in adam
        # and scheduler; the reader ignores them
        samples = _tiny_dataset(tmp_path)
        model_cfg, tsn, train = _tiny_configs(epochs=6)
        straight = run_training(model_cfg, tsn, train, samples,
                                out_dir=str(tmp_path / "straight"))
        part = run_training(model_cfg, tsn, dataclasses.replace(train, epochs=3), samples,
                            out_dir=str(tmp_path / "part"))
        meta, arrays = load_checkpoint(part.last_path)
        meta["adam"].update(weight_decay=train.weight_decay, betas=[0.9, 0.999], eps=1e-8)
        meta["scheduler"].update(lr=meta["adam"]["lr"], patience=train.plateau_patience,
                                 factor=train.lr_factor, best=meta["best_top1"])
        save_checkpoint(part.last_path, arrays, meta)
        resumed = run_training(model_cfg, tsn, train, samples,
                               out_dir=str(tmp_path / "resumed"), resume_from=part.last_path)
        assert ([(r.epoch, r.loss, r.top1, r.top5, r.lr) for r in straight.history[3:]]
                == [(r.epoch, r.loss, r.top1, r.top5, r.lr) for r in resumed.history])
        _, straight_arrays = load_checkpoint(straight.last_path)
        resumed_meta, resumed_arrays = load_checkpoint(resumed.last_path)
        assert list(straight_arrays) == list(resumed_arrays)
        for name, arr in straight_arrays.items():
            np.testing.assert_array_equal(arr, resumed_arrays[name])
        assert resumed_meta["scheduler"] == {"bad_epochs": straight.bad_epochs}

    def test_best_checkpoint_loads_back(self, tmp_path):
        samples = _tiny_dataset(tmp_path)
        model_cfg, tsn, train = _tiny_configs(epochs=2)
        run = run_training(model_cfg, tsn, train, samples, out_dir=str(tmp_path / "r"))
        model = load_model_from_checkpoint(run.best_path)[0]
        top1, _ = evaluate(model, samples, train.batch_size)
        assert top1 == run.best_top1

    def test_train_eval_dropout_divergence(self, tmp_path):
        samples = _tiny_dataset(tmp_path)
        model_cfg, tsn, train = _tiny_configs()
        model = build_ts_model(model_cfg, tsn, 5)
        pair = [(samples[0].positions, samples[0].motions)]
        model.eval()
        eval_a = model.forward_batch(pair).probabilities
        eval_b = model.forward_batch(pair).probabilities
        np.testing.assert_array_equal(eval_a, eval_b)
        model.train()
        train_out = model.forward_batch(pair, np.random.default_rng(0)).probabilities
        assert np.abs(train_out - eval_a).max() > 1e-9
