import atexit
import gc
import json
import os
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from objcap import trainer
from objcap.captioner import decode_step, initial_state
from objcap.cli import caption_dataset, main
from objcap.data import Dataset, SegmentFeatures, SynthSpec, load_manifest, synth_dataset
from objcap.model import ModelConfig, batch_nll, init_model, segment_context
from objcap.tensor import ContractError, Tensor
from objcap.trainer import (
    AdamState,
    TrainConfig,
    adam_step,
    load_checkpoint,
    save_checkpoint,
    train,
)

from helpers import adam_step_reference

SMALL_SPEC = SynthSpec(segments=4, max_frames=3, max_objects=3, feature_dim=6,
                       vocab_words=4)
SMALL_MODEL = dict(num_groups=2, attn_dim=4, interaction_hidden=4, img_proj_dim=4,
                   embed_dim=4, attn_hidden=4, lang_hidden=4)


def small_dataset(tmp_path, seed=11):
    return load_manifest(synth_dataset(seed, SMALL_SPEC, tmp_path / "data"))


class TestAdamStep:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
        state = AdamState()
        before = p["w"].data.copy()
        for _ in range(5):
            adam_step(p, {"w": np.zeros(2)}, state, lr=1e-3)
        assert np.array_equal(p["w"].data, before)

    def test_first_step_with_unit_gradient(self):
        p = {"w": Tensor(np.array([0.0]), requires_grad=True)}
        adam_step(p, {"w": np.ones(1)}, AdamState(), lr=1e-3)
        # bias correction cancels at t=1, so the step is -lr/(1+eps)
        assert abs(p["w"].data[0] + 1e-3 / (1.0 + 1e-8)) < 1e-18

    def test_ten_steps_on_quadratic_match_scalar_oracle(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p = {"x": Tensor(np.array([3.0]), requires_grad=True)}
        state = AdamState()
        x, m, v = 3.0, 0.0, 0.0
        for t in range(1, 11):
            g = 2.0 * p["x"].data[0]
            adam_step(p, {"x": np.array([g])}, state, lr, b1, b2, eps)
            go = 2.0 * x
            m = b1 * m + (1 - b1) * go
            v = b2 * v + (1 - b2) * go * go
            x -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            assert abs(p["x"].data[0] - x) < 1e-15

    def test_one_step_decreases_convex_objective(self):
        p = {"x": Tensor(np.array([0.7]), requires_grad=True)}
        before = p["x"].data[0] ** 2
        adam_step(p, {"x": np.array([2 * 0.7])}, AdamState(), lr=1e-4)
        assert p["x"].data[0] ** 2 < before

    def test_shape_mismatch_rejected(self):
        p = {"w": Tensor(np.zeros(3), requires_grad=True)}
        with pytest.raises(ContractError):
            adam_step(p, {"w": np.zeros(4)}, AdamState(), lr=1e-3)

    def test_in_place_update_keeps_the_expression_bits(self):
        """Five steps over the desk model's 21 parameters, with zero and
        tiny gradients, equal the plain expression byte for byte."""
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(17)
        model = init_model(ModelConfig(vocab_size=14), seed=0)
        params = {name: Tensor(p.data.copy(), requires_grad=True)
                  for name, p in model.named_parameters().items()}
        assert len(params) == 21
        ref = {name: p.data.copy() for name, p in params.items()}
        ref_m = {name: np.zeros_like(p) for name, p in ref.items()}
        ref_v = {name: np.zeros_like(p) for name, p in ref.items()}
        state = AdamState()
        for t in range(1, 6):
            grads = {}
            for name, p in ref.items():
                g = rng.normal(size=p.shape)
                u = rng.random(p.shape)
                g[u < 0.2] = 0.0
                g[u < 0.05] = rng.normal() * 1e-160    # g * g underflows
                g[u > 0.95] *= 1e-310                  # subnormal
                grads[name] = g
            grads["captioner.out_b"][:] = 0.0
            adam_step(params, grads, state, lr, b1, b2, eps)
            for name, p in ref.items():
                g, m, v = grads[name], ref_m[name], ref_v[name]
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                m_hat = m / (1.0 - b1 ** t)
                v_hat = v / (1.0 - b2 ** t)
                p -= lr * m_hat / (np.sqrt(v_hat) + eps)
            for name, p in ref.items():
                assert params[name].data.tobytes() == p.tobytes(), (t, name)
                assert state.m[name].tobytes() == ref_m[name].tobytes(), (t, name)
                assert state.v[name].tobytes() == ref_v[name].tobytes(), (t, name)


def zero_and_tiny_grads(rng, params):
    """Normal gradients of ``params``' shapes with zeros, values whose square
    underflows and subnormals mixed in."""
    grads = {}
    for name, p in params.items():
        g = rng.normal(size=p.data.shape)
        u = rng.random(p.data.shape)
        g[u < 0.2] = 0.0
        g[u < 0.05] = rng.normal() * 1e-160
        g[u > 0.95] *= 1e-310
        grads[name] = g
    return grads


def assert_same_bytes(params, state, ref_params, ref_state):
    assert params.keys() == ref_params.keys()
    assert state.step == ref_state.step
    for name, ref in ref_params.items():
        assert params[name].data.tobytes() == ref.data.tobytes(), name
        assert state.m[name].tobytes() == ref_state.m[name].tobytes(), name
        assert state.v[name].tobytes() == ref_state.v[name].tobytes(), name


class TestFusedAdamStep:
    """The fused step over flat buffers equals ``adam_step_reference``, the
    per-parameter loop, byte for byte: parameters and both moments."""

    @pytest.mark.parametrize("vocab_size", [14, 504])
    def test_five_steps_equal_the_reference(self, vocab_size):
        """Five steps over every parameter of the model at V=14 (the desk
        model) and V=504, with zero and tiny gradients and non-default
        betas; the layout is released after the second step, so the third
        lays it out again and copies the moments in."""
        model = init_model(ModelConfig(vocab_size=vocab_size), seed=0)
        params = model.named_parameters()
        ref = {name: Tensor(p.data.copy(), requires_grad=True) for name, p in params.items()}
        state, ref_state = AdamState(), AdamState()
        rng = np.random.default_rng(vocab_size)
        for t in range(5):
            grads = zero_and_tiny_grads(rng, params)
            grads["captioner.out_b"][:] = 0.0
            adam_step(params, grads, state, 3e-3, 0.8, 0.99, 1e-7)
            adam_step_reference(ref, grads, ref_state, 3e-3, 0.8, 0.99, 1e-7)
            if t == 1:
                state.release(params)
                assert state.flat is None
                assert all(p.data.base is None for p in params.values())
        assert all(np.shares_memory(p.data, state.flat[1]) for p in params.values())
        assert_same_bytes(params, state, ref, ref_state)

    def test_clipped_training_equals_the_reference(self, tmp_path, monkeypatch):
        """``train`` with ``grad_clip`` set, so every step takes rescaled
        gradients, ends with the reference's bytes."""
        ds = small_dataset(tmp_path)
        cfg = TrainConfig(max_epochs=2, batch_size=1, seed=3, grad_clip=1e-3)
        fused = train(cfg, ds, SMALL_MODEL)
        monkeypatch.setattr(trainer, "adam_step", adam_step_reference)
        ref = train(cfg, ds, SMALL_MODEL)
        assert fused.adam.step >= 5
        assert fused.adam.flat is None
        assert_same_bytes(fused.model.named_parameters(), fused.adam,
                          ref.model.named_parameters(), ref.adam)

    def test_steps_from_a_loaded_checkpoint_equal_the_reference(self, tmp_path):
        """A state that ``load_checkpoint`` returned holds moments of their
        own; the first step lays them out, copied in, and five steps equal
        the reference's from a second load of the same file."""
        ds = small_dataset(tmp_path)
        cfg = TrainConfig(max_epochs=1, batch_size=2, seed=4)
        res = train(cfg, ds, SMALL_MODEL)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, res.model, res.vocab, res.adam, cfg)
        mine, theirs = load_checkpoint(path), load_checkpoint(path)
        params = mine.model.named_parameters()
        ref = theirs.model.named_parameters()
        assert all(np.any(m != 0.0) for m in mine.adam.m.values())
        rng = np.random.default_rng(6)
        for _ in range(5):
            grads = zero_and_tiny_grads(rng, params)
            adam_step(params, grads, mine.adam, 1e-3)
            adam_step_reference(ref, grads, theirs.adam, 1e-3)
        assert mine.adam.step == res.adam.step + 5
        assert_same_bytes(params, mine.adam, ref, theirs.adam)


class TestTrainLoop:
    def test_zero_epochs_equals_initialization(self, tmp_path):
        ds = small_dataset(tmp_path)
        cfg = TrainConfig(max_epochs=0, seed=5)
        res = train(cfg, ds, SMALL_MODEL)
        fresh = init_model(res.model.config, seed=5)
        for name, p in res.model.named_parameters().items():
            assert np.array_equal(p.data, fresh.named_parameters()[name].data)
        assert res.log == []

    def test_identical_runs_are_identical(self, tmp_path):
        ds = small_dataset(tmp_path)
        cfg = TrainConfig(max_epochs=4, batch_size=2, seed=9)
        r1 = train(cfg, ds, SMALL_MODEL)
        r2 = train(cfg, ds, SMALL_MODEL)
        assert r1.log == r2.log
        for name, p in r1.model.named_parameters().items():
            assert np.array_equal(p.data, r2.model.named_parameters()[name].data)

    def test_loss_decreases_on_small_corpus(self, tmp_path):
        ds = small_dataset(tmp_path)
        cfg = TrainConfig(lr=3e-3, max_epochs=100, batch_size=1, seed=2,
                          plateau_patience=100)
        res = train(cfg, ds, SMALL_MODEL)
        assert res.log[-1]["train_loss"] < 0.5 * res.log[0]["train_loss"]

    def test_lr_drops_exactly_by_factor(self, tmp_path):
        ds = small_dataset(tmp_path)
        # impossible improvement threshold: the first epoch "improves" from
        # infinity, then a drop lands every patience epochs
        cfg = TrainConfig(max_epochs=7, batch_size=2, seed=1, plateau_patience=2,
                          min_improvement=100.0)
        res = train(cfg, ds, SMALL_MODEL)
        lrs = [r["lr"] for r in res.log]
        one_drop = cfg.lr * cfg.plateau_factor
        two_drops = one_drop * cfg.plateau_factor
        assert lrs == [cfg.lr, cfg.lr, cfg.lr, one_drop, one_drop, two_drops, two_drops]
        for prev, cur in zip(lrs, lrs[1:]):
            assert cur == prev or cur == prev * cfg.plateau_factor  # monotone

    def test_empty_split_rejected(self, tmp_path):
        ds = small_dataset(tmp_path)
        ds.val = []
        with pytest.raises(ContractError):
            train(TrainConfig(max_epochs=1), ds, SMALL_MODEL)

    def test_object_width_comes_from_a_frame_with_objects(self):
        """A valid first frame with no objects may be ``(0, 0)``: the width
        comes from the first training frame with objects, so the run equals
        the one whose empty frame is ``(0, 6)``."""
        rng = np.random.default_rng(23)
        segs = [SegmentFeatures(f"s{k}", rng.normal(size=(2, 5)),
                                [np.zeros((0, 6)), rng.normal(size=(2, 6))], ["a b"])
                for k in range(2)]
        cfg = TrainConfig(max_epochs=1, batch_size=2, seed=3)
        runs = []
        for empty in (np.zeros((0, 0)), np.zeros((0, 6))):
            segs[0].object_feats[0] = empty
            runs.append(train(cfg, Dataset(train=segs, val=segs), SMALL_MODEL))
        assert runs[0].model.config.object_dim == 6 and runs[0].log == runs[1].log
        for name, p in runs[0].model.named_parameters().items():
            assert np.array_equal(p.data, runs[1].model.named_parameters()[name].data)

    def test_no_training_object_rejected(self):
        rng = np.random.default_rng(24)
        seg = SegmentFeatures("s0", rng.normal(size=(2, 5)), [np.zeros((0, 0))] * 2, ["a b"])
        with pytest.raises(ContractError, match="no training frame has an object"):
            train(TrainConfig(max_epochs=1), Dataset(train=[seg], val=[seg]), SMALL_MODEL)

    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_non_finite_loss_rejected_before_any_update(self, tmp_path, monkeypatch,
                                                        batch_size):
        """With numpy's floating-point faults ignored, as an API caller may
        run, an overflowing segment still stops training, naming it,
        before ADAM runs on that batch."""
        ds = small_dataset(tmp_path)
        bad = ds.train[0]
        bad.image_feats[0, 0] = 8.5e158
        cfg = TrainConfig(max_epochs=1, batch_size=batch_size, seed=3)
        order = np.random.default_rng(cfg.seed + 1).permutation(len(ds.train))
        updates_before = list(order).index(0) if batch_size == 1 else 0
        calls = []
        monkeypatch.setattr(trainer, "adam_step", lambda *args: calls.append(1))
        with np.errstate(all="ignore"), pytest.raises(
                ContractError,
                match=rf"training batch of segments [^:]*{bad.segment_id}[^:]*: non-finite loss"):
            train(cfg, ds, SMALL_MODEL)
        assert len(calls) == updates_before

    @pytest.mark.parametrize("mode", ["ignore", "raise"])
    def test_fault_names_only_the_faulting_segment(self, tmp_path, mode):
        """At batch 8 the four desk segments train as one batch, and an
        overflowing value in seg_0000 names seg_0000 alone: its row is the
        non-finite one when numpy ignores the fault, and it is the segment
        that faults alone when numpy raises."""
        ds = small_dataset(tmp_path)
        bad = ds.train[0]
        assert bad.segment_id == "seg_0000"
        bad.image_feats[0, 0] = 8.5e158
        with np.errstate(all=mode), pytest.raises(ContractError) as info:
            train(TrainConfig(max_epochs=1, batch_size=8, seed=3), ds, SMALL_MODEL)
        assert str(info.value).startswith("training batch of segments seg_0000: ")

    def test_stop_train_loss_shortens_run(self, tmp_path):
        ds = small_dataset(tmp_path)
        cfg = TrainConfig(max_epochs=200, batch_size=1, seed=2,
                          plateau_patience=100, stop_train_loss=1.0)
        res = train(cfg, ds, SMALL_MODEL)
        assert len(res.log) < 200
        assert res.log[-1]["train_loss"] < 1.0

    def test_grad_clip_rescales_to_the_clip(self, tmp_path, monkeypatch):
        ds = small_dataset(tmp_path)
        seen = []

        def recording_adam_step(params, grads, *args):
            seen.append({n: g.copy() for n, g in grads.items()})
            return adam_step(params, grads, *args)

        monkeypatch.setattr(trainer, "adam_step", recording_adam_step)
        clip = 1e-3
        train(TrainConfig(max_epochs=1, batch_size=2, seed=3), ds, SMALL_MODEL)
        free = seen[:]
        seen.clear()
        train(TrainConfig(max_epochs=1, batch_size=2, seed=3, grad_clip=clip), ds, SMALL_MODEL)

        def norm(grads):
            return np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))

        assert len(seen) == len(free) > 0
        for grads in seen:
            assert abs(norm(grads) - clip) < 1e-12
        # the first step starts from the same parameters, so its gradients
        # before clipping are the unclipped run's
        scale = clip / norm(free[0])
        assert scale < 1e-2
        for name, g in free[0].items():
            assert np.max(np.abs(seen[0][name] - g * scale), initial=0.0) < 1e-15


def ragged_dataset(train_segments, val_segments, seed=31):
    """Segments of 1-3 frames with 0-3 objects per frame (1-3 in the first,
    width 6 even when empty) and one caption of 1-4 words from four."""
    rng = np.random.default_rng(seed)
    words = ["a", "b", "c", "d"]
    segs = []
    for k in range(train_segments + val_segments):
        frames = int(rng.integers(1, 4))
        segs.append(SegmentFeatures(
            f"s{k:02d}", rng.normal(size=(frames, 6)),
            [rng.normal(size=(int(rng.integers(1 if t == 0 else 0, 4)), 6))
             for t in range(frames)],
            [" ".join(rng.choice(words, size=int(rng.integers(1, 5))))]))
    return Dataset(train=segs[:train_segments], val=segs[train_segments:])


class TestValidation:
    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_chunks_of_32_whatever_the_batch_size(self, monkeypatch, batch_size):
        """A 33-segment validation split runs as chunks of 32 and 1, and its
        loss equals batch-1 validation of the same model to 1e-12."""
        ds = ragged_dataset(3, 33)
        val_ids = {seg.segment_id for seg in ds.val}
        chunks = []

        def recording_batch_nll(model, items):
            if items[0][0].segment_id in val_ids:
                chunks.append(len(items))
            return batch_nll(model, items)

        monkeypatch.setattr(trainer, "batch_nll", recording_batch_nll)
        res = train(TrainConfig(max_epochs=1, batch_size=batch_size, seed=5), ds,
                    SMALL_MODEL)
        assert chunks == [32, 1]
        monkeypatch.undo()
        one_by_one = trainer._mean_loss(
            res.model, trainer._dataset_items(ds.val, res.vocab), 1)
        logged = res.log[-1]["val_loss"]
        assert abs(logged - one_by_one) <= 1e-12 * abs(one_by_one)

    def test_non_finite_loss_names_only_its_segments(self):
        """With numpy's faults ignored, a non-finite validation loss names
        the segments whose rows are non-finite, not the whole chunk."""
        ds = ragged_dataset(3, 6)
        bad = ds.val[4]
        bad.image_feats[0, 0] = 8.5e158
        with np.errstate(all="ignore"), pytest.raises(ContractError) as info:
            train(TrainConfig(max_epochs=1, batch_size=1, seed=5), ds, SMALL_MODEL)
        assert str(info.value) == f"validation batch of segments {bad.segment_id}: non-finite loss"

    def test_numpy_fault_no_segment_makes_alone_names_the_chunk(self, monkeypatch):
        ds = ragged_dataset(3, 6)

        def chunk_faulting_batch_nll(model, items):
            if len(items) > 1 and items[0][0] is ds.val[0]:
                raise FloatingPointError("overflow encountered in matmul")
            return batch_nll(model, items)

        monkeypatch.setattr(trainer, "batch_nll", chunk_faulting_batch_nll)
        ids = ", ".join(seg.segment_id for seg in ds.val)
        with pytest.raises(ContractError, match=f"^validation batch of segments {ids}: overflow"):
            train(TrainConfig(max_epochs=1, batch_size=1, seed=5), ds, SMALL_MODEL)


def forced_workers(monkeypatch, count):
    """Make ``train`` fork ``count`` workers (fewer when a batch has fewer
    micro-batches past the first) whatever the CPUs; returns the list of
    the pids it forks."""
    forks, real_fork = [], os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(trainer, "_worker_count", lambda micro: min(count, micro - 1))
    monkeypatch.setattr(os, "fork", recording_fork)
    return forks


def shared_mappings() -> list[str]:
    """This process's shared writable mappings (an anonymous one reads as
    /dev/zero)."""
    with open("/proc/self/maps") as f:
        return [line for line in f if line.split()[1] == "rw-s"]


def assert_released(mappings_before):
    """No child of this process is left, nor a shared mapping it did not
    hold before."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if sys.platform == "linux":
        assert shared_mappings() == mappings_before


def first_order(cfg, items):
    return np.random.default_rng(cfg.seed + 1).permutation(items)


class TestMicroBatches:
    @pytest.mark.parametrize("batch_size, workers", [(32, 1), (20, 1), (48, 1), (48, 2),
                                                     (64, 3)])
    def test_bits_do_not_depend_on_the_process_count(self, tmp_path, monkeypatch, batch_size,
                                                     workers):
        """Checkpoint bytes and loss log are those of one process: at 32 and
        20 (16 + 4) with one worker, at 48 (three micro-batches) in two and
        three processes, and at 64 in four, more than this host may have
        CPUs. Every worker is reaped, no mapping is left, and the returned
        parameters own their arrays."""
        ds = ragged_dataset(70, 4)
        cfg = TrainConfig(max_epochs=2, batch_size=batch_size, seed=7)
        mappings = shared_mappings() if sys.platform == "linux" else None
        forks = forced_workers(monkeypatch, workers)
        res = train(cfg, ds, SMALL_MODEL)
        assert len(forks) == workers
        assert_released(mappings)
        assert all(p.data.base is None for p in res.model.named_parameters().values())
        monkeypatch.setattr(trainer, "_worker_count", lambda micro: 0)
        alone = train(cfg, ds, SMALL_MODEL)
        assert len(forks) == workers
        for run, name in ((res, "workers"), (alone, "alone")):
            save_checkpoint(tmp_path / name, run.model, run.vocab, run.adam, cfg)
        assert (tmp_path / "workers").read_bytes() == (tmp_path / "alone").read_bytes()
        assert json.dumps(res.log) == json.dumps(alone.log)

    def test_batch_runs_as_micro_batches_of_16(self, monkeypatch):
        """A batch of 48 over 70 items runs as graphs of 16, 16, 16, then
        16 and 6. The first step's gradient is, bit for bit, the sum in
        micro-batch order of the three graphs' gradients, each loss scaled
        by 1/(the batch's scored tokens), and it equals the one graph's of
        the whole batch to 1e-12 of the largest entry."""
        ds = ragged_dataset(70, 4)
        cfg = TrainConfig(max_epochs=1, batch_size=48, seed=7)
        monkeypatch.setattr(trainer, "_worker_count", lambda micro: 0)
        sizes, stepped = [], []

        def recording_batch_nll(model, items):
            if items[0][0] in ds.train:
                sizes.append(len(items))
            return batch_nll(model, items)

        def recording_adam_step(params, grads, *args):
            stepped.append({n: g.copy() for n, g in grads.items()})
            return adam_step(params, grads, *args)

        monkeypatch.setattr(trainer, "batch_nll", recording_batch_nll)
        monkeypatch.setattr(trainer, "adam_step", recording_adam_step)
        res = train(cfg, ds, SMALL_MODEL)
        assert sizes == [16, 16, 16, 16, 6]
        monkeypatch.undo()
        model = init_model(res.model.config, seed=cfg.seed)
        params = model.named_parameters()
        items = trainer._dataset_items(ds.train, res.vocab)
        batch = [items[i] for i in first_order(cfg, len(items))[:48]]
        tokens = sum(len(ids) - 1 for _, ids in batch)
        summed = {}
        for start in (0, 16, 32):
            rows, _ = batch_nll(model, batch[start:start + 16])
            (rows.sum() * (1.0 / tokens)).backward()
            for name, p in params.items():
                summed[name] = p.grad if start == 0 else summed[name] + p.grad
                p.zero_grad()
        rows, _ = batch_nll(model, batch)
        (rows.sum() * (1.0 / tokens)).backward()
        for name, p in params.items():
            assert np.array_equal(stepped[0][name], summed[name]), name
            scale = np.max(np.abs(p.grad))
            assert np.max(np.abs(stepped[0][name] - p.grad)) <= 1e-12 * scale, name

    @pytest.mark.parametrize("batch_size", [1, 16])
    def test_batches_of_16_or_fewer_never_fork(self, monkeypatch, batch_size):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        train(TrainConfig(max_epochs=1, batch_size=batch_size, seed=7), ragged_dataset(40, 2),
              SMALL_MODEL)

    def test_worker_count_follows_the_usable_cpus(self, monkeypatch):
        """One worker per micro-batch past the first, up to the usable CPUs
        less one; none off Linux (no ``os.sched_getaffinity``)."""
        for cpus, micro_batches, count in ((2, 2, 1), (2, 3, 1), (8, 3, 2), (8, 1, 0),
                                           (1, 4, 0)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                                raising=False)
            assert trainer._worker_count(micro_batches) == count
        monkeypatch.delattr(os, "sched_getaffinity")
        assert trainer._worker_count(3) == 0

    @pytest.mark.parametrize("micro_batch", [0, 1], ids=["parent", "worker"])
    @pytest.mark.parametrize("mode", ["ignore", "raise"])
    def test_fault_names_only_its_segment(self, monkeypatch, micro_batch, mode):
        """An overflowing segment in the parent's micro-batch or the
        worker's is named alone, as one process names it: its row is the
        non-finite one when numpy ignores the fault, and it faults alone
        when numpy raises. No worker or mapping outlives the fault."""
        ds = ragged_dataset(40, 2)
        cfg = TrainConfig(max_epochs=1, batch_size=32, seed=7)
        bad = ds.train[first_order(cfg, len(ds.train))[16 * micro_batch + 3]]
        bad.image_feats[0, 0] = 8.5e158
        mappings = shared_mappings() if sys.platform == "linux" else None
        messages = []
        for workers in (1, 0):
            forks = forced_workers(monkeypatch, workers)
            with np.errstate(all=mode), pytest.raises(ContractError) as info:
                train(cfg, ds, SMALL_MODEL)
            assert len(forks) == workers
            assert_released(mappings)
            messages.append(str(info.value))
        what = "non-finite loss" if mode == "ignore" else "overflow encountered in"
        assert messages[0].startswith(f"training batch of segments {bad.segment_id}: {what}")
        assert messages[0] == messages[1]

    def test_earliest_faulting_micro_batch_reports(self, monkeypatch):
        """With faults in micro-batches 1 (a worker's) and 2 (the parent's),
        micro-batch 1's is raised, as one process raises it."""
        ds = ragged_dataset(50, 2)
        cfg = TrainConfig(max_epochs=1, batch_size=48, seed=7)
        order = first_order(cfg, len(ds.train))
        for k in (20, 40):
            ds.train[order[k]].image_feats[0, 0] = 8.5e158
        forced_workers(monkeypatch, 1)
        with np.errstate(all="ignore"), pytest.raises(ContractError) as info:
            train(cfg, ds, SMALL_MODEL)
        assert str(info.value) == (f"training batch of segments {ds.train[order[20]].segment_id}"
                                   f": non-finite loss")

    def test_dead_worker_ends_objcap_train_in_one_line(self, tmp_path, monkeypatch, capsys):
        """A worker that dies mid-batch (here its micro-batch, patched
        before the fork, calls ``os._exit(3)``) ends ``objcap train`` in one
        ``runtime error:`` line naming it by pid, with exit code 1, and
        leaves no child and no mapping behind."""
        def dying(m, chunk, tokens):
            os._exit(3)

        # pickled by name in the caller, found under it in the forked worker
        dying.__module__, dying.__qualname__ = trainer.__name__, "_serve_micro_batch"
        assert main(["synth", "--seed", "1", "--segments", "40", "--out",
                     str(tmp_path / "corpus")]) == 0
        (tmp_path / "cfg.json").write_text('{"train": {"max_epochs": 1, "batch_size": 32}}')
        capsys.readouterr()
        mappings = shared_mappings() if sys.platform == "linux" else None
        forks = forced_workers(monkeypatch, 1)
        monkeypatch.setattr(trainer, "_serve_micro_batch", dying)
        code = main(["train", "--data", str(tmp_path / "corpus" / "manifest.json"),
                     "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "run")])
        assert code == 1 and len(forks) == 1
        assert capsys.readouterr().err == (f"runtime error: training worker process {forks[0]} "
                                           f"(exit code 3) died; training stopped\n")
        assert_released(mappings)
        assert not (tmp_path / "run").exists()

    def test_worker_leaves_only_through_os_exit(self, tmp_path, monkeypatch):
        """A worker runs none of the caller's exit work: no ``atexit``
        handler, and no flush of a buffer the caller has not flushed."""
        exits, parent, real_exit = tmp_path / "exits", os.getpid(), os._exit

        def recording_exit(status):
            with open(exits, "a") as f:
                f.write(f"_exit {status}\n")
            real_exit(status)

        def at_exit():
            if os.getpid() != parent:
                with open(exits, "a") as f:
                    f.write("atexit\n")

        forced_workers(monkeypatch, 2)
        monkeypatch.setattr(os, "_exit", recording_exit)
        atexit.register(at_exit)
        try:
            with open(tmp_path / "out", "w") as out:
                out.write("written once")   # still buffered when the workers fork
                train(TrainConfig(max_epochs=2, batch_size=48, seed=7), ragged_dataset(50, 2),
                      SMALL_MODEL)
        finally:
            atexit.unregister(at_exit)
        assert exits.read_text() == "_exit 0\n_exit 0\n"
        assert (tmp_path / "out").read_text() == "written once"


class TestCollectorPause:
    def test_train_and_caption_leave_no_cycles(self, tmp_path):
        ds = small_dataset(tmp_path)
        cfg = TrainConfig(max_epochs=2, batch_size=2, seed=4, grad_clip=1.0)
        gc.collect()
        gc.disable()
        try:
            res = train(cfg, ds, SMALL_MODEL)
            caption_dataset(res.model, res.vocab, ds.val, 2, with_trace=True)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_setting_restored(self, tmp_path, enabled):
        ds = small_dataset(tmp_path)
        cfg = TrainConfig(max_epochs=1, batch_size=2, seed=4)
        (gc.enable if enabled else gc.disable)()
        try:
            res = train(cfg, ds, SMALL_MODEL)
            assert gc.isenabled() == enabled
            caption_dataset(res.model, res.vocab, ds.val, 2)
            assert gc.isenabled() == enabled
            ds.val = []
            with pytest.raises(ContractError):
                train(cfg, ds, SMALL_MODEL)
            assert gc.isenabled() == enabled
        finally:
            gc.enable()


def uniform_dataset(segments, frames, objects, words, seed=21):
    """Segments of one shape, so every batch of a size builds the same graph;
    the first half of them is the validation split."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{k}" for k in range(10)]
    segs = [SegmentFeatures(f"s{k}", rng.normal(size=(frames, 32)),
                            [rng.normal(size=(objects, 32)) for _ in range(frames)],
                            [" ".join(rng.choice(vocab, size=words))])
            for k in range(segments)]
    return Dataset(train=segs, val=segs[:segments // 2])


class TestMemory:
    def test_training_holds_one_batch_graph_at_a_time(self):
        """Two batches at the paper's frame and object counts peak at most
        10% above one batch's forward and backward alone: the first batch's
        graph is gone before the second is built."""
        cfg = TrainConfig(max_epochs=1, batch_size=16, seed=6)
        train(cfg, uniform_dataset(2, 1, 1, 2))     # numpy's lazy imports, untraced
        ds = uniform_dataset(32, 30, 15, 10)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            res = train(cfg, ds)
            two_batches = tracemalloc.get_traced_memory()[1] - start
            items = trainer._dataset_items(ds.train[:16], res.vocab)
            for p in res.model.named_parameters().values():
                p.zero_grad()
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            rows, tokens = batch_nll(res.model, items)
            (rows.sum() * (1.0 / tokens)).backward()
            one_batch = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert two_batches <= 1.1 * one_batch, (two_batches, one_batch)

    def test_validation_frees_each_chunk_before_the_next(self, tmp_path, monkeypatch):
        ds = small_dataset(tmp_path)
        res = train(TrainConfig(max_epochs=0), ds, SMALL_MODEL)
        items = trainer._dataset_items(ds.val, res.vocab)
        earlier = []

        def recording_batch_nll(model, chunk):
            assert all(ref() is None for ref in earlier), "an earlier chunk's graph is alive"
            rows, tokens = batch_nll(model, chunk)
            earlier.append(weakref.ref(rows))
            return rows, tokens

        monkeypatch.setattr(trainer, "batch_nll", recording_batch_nll)
        trainer._mean_loss(res.model, items, 1)
        assert len(earlier) == len(items) > 1

    def test_gradients_do_not_outlive_their_step(self, tmp_path, monkeypatch):
        """Every gradient array an ADAM step received, clipped or not, is
        gone when the next training or validation forward starts."""
        ds = small_dataset(tmp_path)
        stepped, alive = [], []

        def recording_adam_step(params, grads, *args):
            stepped.extend(weakref.ref(g) for g in grads.values())
            return adam_step(params, grads, *args)

        def counting_batch_nll(model, items):
            alive.append(sum(ref() is not None for ref in stepped))
            return batch_nll(model, items)

        monkeypatch.setattr(trainer, "adam_step", recording_adam_step)
        monkeypatch.setattr(trainer, "batch_nll", counting_batch_nll)
        for clip in (None, 1e-3):
            train(TrainConfig(max_epochs=2, batch_size=2, seed=3, grad_clip=clip),
                  ds, SMALL_MODEL)
        assert stepped and len(alive) > 4
        assert not any(alive), alive


class TestCheckpoint:
    def test_round_trip_reproduces_forward_bitwise(self, tmp_path):
        ds = small_dataset(tmp_path)
        cfg = TrainConfig(max_epochs=3, batch_size=2, seed=4)
        res = train(cfg, ds, SMALL_MODEL)
        seg = ds.train[0]
        ctx, _ = segment_context(res.model, seg.image_feats, seg.object_feats)
        before = decode_step(res.model.captioner, ctx, 1,
                             initial_state(res.model.captioner)).word_logits.data

        path = tmp_path / "model.ckpt"
        save_checkpoint(path, res.model, res.vocab, res.adam, cfg)
        loaded = load_checkpoint(path)
        ctx2, _ = segment_context(loaded.model, seg.image_feats, seg.object_feats)
        after = decode_step(loaded.model.captioner, ctx2, 1,
                            initial_state(loaded.model.captioner)).word_logits.data
        assert np.array_equal(before, after)
        assert loaded.vocab.to_list() == res.vocab.to_list()
        assert loaded.adam.step == res.adam.step
        for name, arr in res.adam.m.items():
            assert np.array_equal(arr, loaded.adam.m[name])

    def test_load_draws_no_random_number(self, tmp_path, monkeypatch):
        """The loaded model is built from its shapes, with no generator made,
        and holds the saved bits."""
        ds = small_dataset(tmp_path)
        cfg = TrainConfig(max_epochs=1, batch_size=2, seed=4)
        res = train(cfg, ds, SMALL_MODEL)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, res.model, res.vocab, res.adam, cfg)

        def no_generator(*args, **kwargs):
            raise AssertionError("a random generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        loaded = load_checkpoint(path)
        for name, p in res.model.named_parameters().items():
            assert np.array_equal(p.data, loaded.model.named_parameters()[name].data)

    def test_save_is_deterministic(self, tmp_path):
        ds = small_dataset(tmp_path)
        cfg = TrainConfig(max_epochs=2, batch_size=2, seed=6)
        res = train(cfg, ds, SMALL_MODEL)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, res.model, res.vocab, res.adam, cfg)
        save_checkpoint(p2, res.model, res.vocab, res.adam, cfg)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.ckpt.json").read_text() == (tmp_path / "b.ckpt.json").read_text()

    def test_corrupt_file_rejected(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(ContractError, match="magic"):
            load_checkpoint(p)

    def test_truncated_file_rejected(self, tmp_path):
        ds = small_dataset(tmp_path)
        cfg = TrainConfig(max_epochs=1, batch_size=2, seed=6)
        res = train(cfg, ds, SMALL_MODEL)
        p = tmp_path / "t.ckpt"
        save_checkpoint(p, res.model, res.vocab, res.adam, cfg)
        p.write_bytes(p.read_bytes()[:100])
        with pytest.raises(ContractError, match="truncated"):
            load_checkpoint(p)

    def test_non_finite_tensor_rejected(self, tmp_path):
        ds = small_dataset(tmp_path)
        cfg = TrainConfig(max_epochs=0, seed=6)
        res = train(cfg, ds, SMALL_MODEL)
        res.model.captioner.out_b.data[1] = np.nan
        p = tmp_path / "nan.ckpt"
        save_checkpoint(p, res.model, res.vocab, res.adam, cfg)
        with pytest.raises(ContractError, match="param/captioner.out_b has non-finite"):
            load_checkpoint(p)

    def test_config_blob_validated(self, tmp_path):
        ds = small_dataset(tmp_path)
        cfg = TrainConfig(max_epochs=0, seed=6)
        res = train(cfg, ds, SMALL_MODEL)
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, res.model, res.vocab, res.adam, cfg)
        # same byte length, so only the blob's content changes
        p.write_bytes(p.read_bytes().replace(b'"attn_dim": 4, ', b'"attn_dim":"4",', 1))
        with pytest.raises(ContractError, match="attn_dim"):
            load_checkpoint(p)


def test_train_config_validation():
    nan, inf = float("nan"), float("inf")
    for bad in ({"plateau_factor": 1.5}, {"lr": -1.0}, {"beta1": 1.0}, {"beta1": -0.1},
                {"beta2": 1.0}, {"eps": 0.0}, {"eps": -1e-8}, {"grad_clip": 0.0},
                {"grad_clip": -1.0}, {"lr": nan}, {"lr": inf}, {"plateau_factor": nan},
                {"min_improvement": nan}, {"min_improvement": inf}, {"beta1": nan},
                {"beta2": nan}, {"eps": inf}, {"grad_clip": inf}, {"grad_clip": nan},
                {"stop_train_loss": nan}, {"stop_train_loss": -inf}):
        with pytest.raises(ContractError):
            TrainConfig(**bad).validate()
    for name, bad in (("lr", 0.0), ("batch_size", 0), ("max_epochs", -1)):
        with pytest.raises(ContractError, match=f"^{name} "):
            TrainConfig(**{name: bad}).validate()
    # a JSON integer too large for a float, as config files reach the trainer
    with pytest.raises(ContractError, match="'lr' is too large for a float"):
        TrainConfig.from_dict({"lr": 10 ** 400}).validate()
    assert type(TrainConfig.from_dict({"lr": 1}).lr) is float
    TrainConfig(max_epochs=0).validate()    # an untrained checkpoint is valid
    TrainConfig().validate()
    TrainConfig(beta1=0.0, beta2=0.0, grad_clip=1e-6).validate()
