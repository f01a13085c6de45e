import json
import os
import struct

import numpy as np
import pytest

from objcap.cli import main
from objcap.data import load_segment, save_segment
from objcap.model import ModelConfig
from objcap.tensor import ContractError, Tensor
from objcap.trainer import TrainConfig, load_checkpoint, save_checkpoint

TRAIN_CONFIG = {
    "train": {"max_epochs": 3, "batch_size": 2, "seed": 1},
    "model": {"num_groups": 2, "attn_dim": 4, "interaction_hidden": 4,
              "img_proj_dim": 4, "embed_dim": 4, "attn_hidden": 4,
              "lang_hidden": 4},
}


def synth_args(out, seed=3, segments=4):
    return ["synth", "--seed", str(seed), "--segments", str(segments), "--frames", "3",
            "--objects", "3", "--dim", "6", "--vocab", "4", "--out", str(out)]


@pytest.fixture
def corpus(tmp_path):
    data = tmp_path / "data"
    assert main(synth_args(data)) == 0
    return data


def run_train(tmp_path, corpus, out="run"):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TRAIN_CONFIG))
    out_dir = tmp_path / out
    code = main(["train", "--data", str(corpus / "manifest.json"),
                 "--config", str(cfg), "--out", str(out_dir)])
    assert code == 0
    return out_dir


class TestSynth:
    def test_identical_flags_identical_trees(self, tmp_path):
        assert main(synth_args(tmp_path / "a")) == 0
        assert main(synth_args(tmp_path / "b")) == 0
        for p in sorted((tmp_path / "a").iterdir()):
            assert p.read_bytes() == (tmp_path / "b" / p.name).read_bytes()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        code = main(["synth", "--seed", "-1", "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "seed" in err and err.count("\n") == 1

    def test_object_cap_violation_exits_2(self, tmp_path, capsys):
        code = main(["synth", "--objects", "16", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "max_objects" in capsys.readouterr().err

    @pytest.mark.parametrize("segments, fraction", [("1", "0.6"), ("3", "0.9")])
    def test_val_split_taking_every_segment_exits_2(self, tmp_path, capsys, segments, fraction):
        code = main(["synth", "--segments", segments, "--val-fraction", fraction,
                     "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "val_fraction" in err and "no segment to train on" in err and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    def test_writes_manifest_and_refs(self, corpus):
        assert (corpus / "manifest.json").exists()
        refs = json.loads((corpus / "refs.json").read_text())
        assert len(refs) == 4


class TestTrainCommand:
    def test_writes_checkpoint_sidecar_and_log(self, tmp_path, corpus):
        out = run_train(tmp_path, corpus)
        assert (out / "model.ckpt").exists()
        assert (out / "model.ckpt.json").exists()
        log = json.loads((out / "loss_log.json").read_text())
        assert len(log) == 3

    def test_rerun_is_byte_identical(self, tmp_path, corpus):
        out1 = run_train(tmp_path, corpus, "r1")
        out2 = run_train(tmp_path, corpus, "r2")
        assert (out1 / "model.ckpt").read_bytes() == (out2 / "model.ckpt").read_bytes()
        assert (out1 / "loss_log.json").read_text() == (out2 / "loss_log.json").read_text()

    @pytest.mark.parametrize("config, key", [
        ({"train": {"max_epoch": 3}}, "max_epoch"),
        ({"train": {"max_epochs": "3"}}, "max_epochs"),
        ({"train": {"lr": True}}, "lr"),
        ({"model": {"hidden": 4}}, "hidden"),
        ({"model": {"attn_dim": 4.5}}, "attn_dim"),
        ({"model": {"use_image": 1}}, "use_image"),
        ({"model": {"vocab_size": 9}}, "vocab_size"),
        ({"model": [1, 2]}, "model"),
        ({"train": {"beta1": 1.0}}, "beta1"),
        ({"train": {"eps": 0.0}}, "eps"),
        ({"train": {"grad_clip": -1.0}}, "grad_clip"),
        ({"train": {"lr": float("nan")}}, "lr"),
        ({"train": {"lr": float("inf")}}, "lr"),
        ({"train": {"min_improvement": float("nan")}}, "min_improvement"),
        ({"train": {"stop_train_loss": float("-inf")}}, "stop_train_loss"),
        ({"train": {"seed": -1}}, "seed"),
        ({"model": {"max_words": 0}}, "max_words"),
        ({"model": {"max_words": -5}}, "max_words"),
        ({"model": {"max_words": 40}}, "max_words"),
        ({"model": {"attn_dim": -3}}, "attn_dim"),
        ({"model": {"num_groups": 0}}, "num_groups"),
        ({"model": {"embed_dim": 0}}, "embed_dim"),
        ({"model": {"use_image": False, "use_objects": False}}, "use_objects"),
        ({"train": {"lr": 10 ** 400}}, "lr"),
        ({"trian": {"max_epochs": 1}, "modle": {"attn_dim": 0}}, "trian"),
        ({"model": None}, "model"),
    ])
    def test_bad_config_exits_2(self, tmp_path, corpus, capsys, config, key):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        code = main(["train", "--data", str(corpus / "manifest.json"),
                     "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert key in err
        assert err.count("\n") == 1

    def test_missing_manifest_exits_1(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "nope.json" in capsys.readouterr().err


class TestCaptionCommand:
    def test_writes_predictions_and_trace(self, tmp_path, corpus):
        out = run_train(tmp_path, corpus)
        pred = tmp_path / "pred.json"
        trace = tmp_path / "trace.json"
        code = main(["caption", "--ckpt", str(out / "model.ckpt"),
                     "--data", str(corpus / "manifest.json"), "--beam", "2",
                     "--out", str(pred), "--trace", str(trace)])
        assert code == 0
        predictions = json.loads(pred.read_text())
        assert set(predictions) == {f"seg_{i:04d}" for i in range(4)}
        traced = json.loads(trace.read_text())
        for words in traced.values():
            for entry in words:
                assert abs(sum(entry["alpha_temp"]) - 1.0) < 1e-6
                for frame in entry["object_attention"]:
                    for matrix in frame:
                        for row in matrix:
                            assert abs(sum(row) - 1.0) < 1e-6

    def test_outputs_in_new_nested_directories(self, tmp_path, corpus):
        """``--out`` and ``--trace`` in directories that do not exist yet:
        both are made, and the files hold the bytes written beside them."""
        out = run_train(tmp_path, corpus)
        ckpt, manifest = str(out / "model.ckpt"), str(corpus / "manifest.json")
        for pred, trace in [(tmp_path / "pred.json", tmp_path / "trace.json"),
                            (tmp_path / "a" / "b" / "pred.json", tmp_path / "c" / "d" / "t.json")]:
            assert main(["caption", "--ckpt", ckpt, "--data", manifest,
                         "--out", str(pred), "--trace", str(trace)]) == 0
        assert (tmp_path / "a/b/pred.json").read_bytes() == (tmp_path / "pred.json").read_bytes()
        assert (tmp_path / "c/d/t.json").read_bytes() == (tmp_path / "trace.json").read_bytes()

    def test_beam_one_matches_internal_greedy(self, tmp_path, corpus):
        out = run_train(tmp_path, corpus)
        code = main(["caption", "--ckpt", str(out / "model.ckpt"),
                     "--data", str(corpus / "manifest.json"), "--beam", "1",
                     "--out", str(tmp_path / "p1.json")])
        assert code == 0
        from helpers import decode_greedy
        from objcap.data import decode_caption, load_manifest
        from objcap.model import segment_context
        from objcap.trainer import load_checkpoint
        ckpt = load_checkpoint(out / "model.ckpt")
        predictions = json.loads((tmp_path / "p1.json").read_text())
        for seg in load_manifest(corpus / "manifest.json").val:
            ctx, _ = segment_context(ckpt.model, seg.image_feats, seg.object_feats)
            greedy = decode_caption(ckpt.vocab,
                                    decode_greedy(ckpt.model.captioner, ctx))
            assert predictions[seg.segment_id] == greedy

    def test_rerun_is_byte_identical(self, tmp_path, corpus):
        out = run_train(tmp_path, corpus)
        for name in ("x.json", "y.json"):
            assert main(["caption", "--ckpt", str(out / "model.ckpt"),
                         "--data", str(corpus / "manifest.json"),
                         "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "x.json").read_bytes() == (tmp_path / "y.json").read_bytes()

    def test_split_all_captions_each_segment_once(self, tmp_path, corpus):
        # the synth default reuses the train split for validation
        out = run_train(tmp_path, corpus)
        pred = tmp_path / "all.json"
        code = main(["caption", "--ckpt", str(out / "model.ckpt"),
                     "--data", str(corpus / "manifest.json"), "--split", "all",
                     "--out", str(pred)])
        assert code == 0
        assert sorted(json.loads(pred.read_text())) == [f"seg_{i:04d}" for i in range(4)]

    def test_split_all_bytes_do_not_depend_on_shared_segments(self, tmp_path, corpus):
        """The synth default lists each file in both splits, so the two
        splits share its loaded segment; a manifest whose val split names
        copies of the files, loaded apart, captions to the same bytes."""
        out = run_train(tmp_path, corpus)
        names = json.loads((corpus / "manifest.json").read_text())["val"]
        for name in names:
            (corpus / f"copy_{name}").write_bytes((corpus / name).read_bytes())
        (corpus / "apart.json").write_text(json.dumps(
            {"train": names, "val": [f"copy_{name}" for name in names]}))
        written = []
        for manifest in ("manifest.json", "apart.json"):
            pred = tmp_path / f"{manifest}.pred"
            assert main(["caption", "--ckpt", str(out / "model.ckpt"), "--data",
                         str(corpus / manifest), "--split", "all", "--beam", "3",
                         "--out", str(pred), "--trace", str(pred) + ".trace"]) == 0
            written.append((pred.read_bytes(), (tmp_path / f"{pred.name}.trace").read_bytes()))
        assert written[0] == written[1]

    def test_corrupt_checkpoint_exits_2(self, tmp_path, corpus, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code = main(["caption", "--ckpt", str(bad),
                     "--data", str(corpus / "manifest.json"),
                     "--out", str(tmp_path / "p.json")])
        assert code == 2


def assert_exit_2(args, capsys, fragment):
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert fragment in err


def caption_args(tmp_path, corpus, ckpt):
    return ["caption", "--ckpt", str(ckpt), "--data", str(corpus / "manifest.json"),
            "--out", str(tmp_path / "p.json")]


def train_args(tmp_path, corpus):
    return ["train", "--data", str(corpus / "manifest.json"), "--out", str(tmp_path / "o")]


def rewrite_blob(ckpt, edit):
    """Replace a checkpoint's config blob (after magic, version and step)
    with ``edit(raw_blob)``, fixing its length prefix."""
    raw = ckpt.read_bytes()
    (n,) = struct.unpack("<I", raw[16:20])
    blob = edit(raw[20:20 + n])
    ckpt.write_bytes(raw[:16] + struct.pack("<I", len(blob)) + blob + raw[20 + n:])


def overflow_segment(path):
    """Set one image value of a segment to a finite 8.5e158, which passes
    the loader but overflows a matrix product in the model."""
    seg = load_segment(path)
    seg.image_feats[0, 2] = 8.5e158
    save_segment(path, seg)


class TestMalformedInputs:
    def test_overflowing_features_in_caption_exit_2(self, tmp_path, corpus, capsys):
        ckpt = run_train(tmp_path, corpus) / "model.ckpt"
        overflow_segment(corpus / "seg_0001.seg")
        assert_exit_2(caption_args(tmp_path, corpus, ckpt), capsys,
                      "segment seg_0001: overflow encountered in")
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("split, batch", [("training", "seg_0003"),
                                              ("validation", "seg_0003")])
    def test_overflowing_features_in_train_exit_2(self, tmp_path, corpus, capsys, split,
                                                  batch):
        """A training or validation fault names only the segments that fault
        alone, so seg_0002, which shares the batch or the validation chunk,
        is not named."""
        overflow_segment(corpus / "seg_0003.seg")
        if split == "validation":
            (corpus / "manifest.json").write_text(json.dumps({
                "train": ["seg_0000.seg", "seg_0001.seg", "seg_0002.seg"],
                "val": ["seg_0002.seg", "seg_0003.seg"]}))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(TRAIN_CONFIG))
        assert_exit_2(train_args(tmp_path, corpus) + ["--config", str(cfg)], capsys,
                      f"{split} batch of segments {batch}: overflow encountered in")
        assert not (tmp_path / "o").exists()

    def test_overflow_in_a_workers_micro_batch_exit_2(self, tmp_path, capsys, monkeypatch):
        """At batch 32 a segment in the second micro-batch, which a forked
        worker runs, is named alone, and no worker is left."""
        corpus = tmp_path / "data"
        assert main(synth_args(corpus, segments=40)) == 0
        bad = f"seg_{np.random.default_rng(2).permutation(40)[20]:04d}"   # train seed 1
        overflow_segment(corpus / f"{bad}.seg")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**TRAIN_CONFIG, "train": {"max_epochs": 1, "batch_size": 32,
                                                             "seed": 1}}))
        monkeypatch.setattr("objcap.trainer._worker_count", lambda micro: 1)
        assert_exit_2(train_args(tmp_path, corpus) + ["--config", str(cfg)], capsys,
                      f"training batch of segments {bad}: overflow encountered in")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("which, command", [("image", "train"), ("objects", "train"),
                                                ("image", "caption")],
                             ids=["image", "objects", "caption"])
    def test_mixed_feature_widths_exit_2(self, tmp_path, corpus, capsys, which, command):
        args = (train_args(tmp_path, corpus) if command == "train"
                else caption_args(tmp_path, corpus, run_train(tmp_path, corpus) / "model.ckpt"))
        path = corpus / "seg_0002.seg"
        seg = load_segment(path)
        if which == "image":
            seg.image_feats = np.zeros((seg.image_feats.shape[0], 7))
        else:
            seg.object_feats = [np.zeros((objs.shape[0], 7)) for objs in seg.object_feats]
        seg.segment_id = "odd_widths"
        save_segment(path, seg)
        assert_exit_2(args, capsys, "segment odd_widths: feature widths")

    @pytest.mark.parametrize("message", ["Unable to allocate 23.3 TiB for an array", ""])
    def test_memory_error_exits_1(self, tmp_path, corpus, capsys, monkeypatch, message):
        def refuse(*args):
            raise MemoryError(message)

        monkeypatch.setattr("objcap.cli.train", refuse)
        assert main(train_args(tmp_path, corpus)) == 1
        err = capsys.readouterr().err
        assert err == f"runtime error: {message or 'out of memory'}\n"

    @pytest.mark.parametrize("where", ["segment_id", "caption"])
    def test_segment_text_invalid_utf8_exits_2(self, tmp_path, corpus, capsys, where):
        seg = corpus / "seg_0000.seg"
        raw = bytearray(seg.read_bytes())
        raw[12 if where == "segment_id" else -1] = 0xFF  # id starts after magic, version, length
        seg.write_bytes(bytes(raw))
        assert_exit_2(train_args(tmp_path, corpus), capsys, "invalid UTF-8")

    @pytest.mark.parametrize("where", ["config", "entry_name"])
    def test_checkpoint_text_invalid_utf8_exits_2(self, tmp_path, corpus, capsys, where):
        ckpt = run_train(tmp_path, corpus) / "model.ckpt"
        raw = bytearray(ckpt.read_bytes())
        (n,) = struct.unpack("<I", raw[16:20])
        # the blob starts at byte 20; the first entry name after the blob,
        # the entry count and the name's length
        raw[20 if where == "config" else 20 + n + 8] = 0xFF
        ckpt.write_bytes(bytes(raw))
        assert_exit_2(caption_args(tmp_path, corpus, ckpt), capsys, "invalid UTF-8")

    @pytest.mark.parametrize("key", ["vocab", "model", "train"])
    def test_checkpoint_config_missing_key_exits_2(self, tmp_path, corpus, capsys, key):
        ckpt = run_train(tmp_path, corpus) / "model.ckpt"

        def drop(blob):
            config = json.loads(blob)
            del config[key]
            return json.dumps(config).encode()

        rewrite_blob(ckpt, drop)
        assert_exit_2(caption_args(tmp_path, corpus, ckpt), capsys, "'vocab', 'model'")

    @pytest.mark.parametrize("edit, fragment", [
        (lambda blob: b"[1, 2]", "JSON object"),
        (lambda blob: json.dumps({**json.loads(blob), "vocab": 5}).encode(), "list of strings"),
    ], ids=["not_an_object", "vocab_not_a_list"])
    def test_checkpoint_config_malformed_exits_2(self, tmp_path, corpus, capsys,
                                                  edit, fragment):
        ckpt = run_train(tmp_path, corpus) / "model.ckpt"
        rewrite_blob(ckpt, edit)
        assert_exit_2(caption_args(tmp_path, corpus, ckpt), capsys, fragment)

    @pytest.mark.parametrize("key, value", [("max_words", 0), ("max_words", 40),
                                            ("attn_dim", -3), ("num_groups", 0)])
    def test_checkpoint_model_config_out_of_range_exits_2(self, tmp_path, corpus, capsys,
                                                          key, value):
        ckpt = run_train(tmp_path, corpus) / "model.ckpt"

        def edit(blob):
            config = json.loads(blob)
            config["model"][key] = value
            return json.dumps(config).encode()

        rewrite_blob(ckpt, edit)
        assert_exit_2(caption_args(tmp_path, corpus, ckpt), capsys, f"{key!r}")

    @pytest.mark.parametrize("kind, shape", [("param", (1,)), ("param", (3,)),
                                             ("adam_m", (1,))],
                             ids=["param-1", "param-3", "adam_m-1"])
    def test_checkpoint_entry_shape_mismatch_exits_2(self, tmp_path, corpus, capsys,
                                                     kind, shape):
        ckpt = load_checkpoint(run_train(tmp_path, corpus) / "model.ckpt")
        if kind == "param":
            ckpt.model.captioner.out_b = Tensor(np.zeros(shape))
        else:
            ckpt.adam.m["captioner.out_b"] = np.zeros(shape)
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, ckpt.model, ckpt.vocab, ckpt.adam, ckpt.train_config)
        assert_exit_2(caption_args(tmp_path, corpus, bad), capsys,
                      f"{kind}/captioner.out_b has shape {shape}")

    def test_checkpoint_trailing_bytes_exit_2(self, tmp_path, corpus, capsys):
        ckpt = run_train(tmp_path, corpus) / "model.ckpt"
        ckpt.write_bytes(ckpt.read_bytes() + b"\0")
        assert_exit_2(caption_args(tmp_path, corpus, ckpt), capsys,
                      "checkpoint 1 trailing bytes")

    def test_checkpoint_version_1_exits_2(self, tmp_path, corpus, capsys):
        """Version 1 named the interaction groups' weights group by group; a
        file of that version is refused, not read."""
        ckpt = run_train(tmp_path, corpus) / "model.ckpt"
        raw = ckpt.read_bytes()
        assert struct.unpack("<I", raw[4:8]) == (2,)
        ckpt.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
        assert_exit_2(caption_args(tmp_path, corpus, ckpt), capsys,
                      "checkpoint version 1 is unsupported (at byte 4)")

    def test_checkpoint_entry_rank_above_two_exits_2(self, tmp_path, corpus, capsys):
        """A mutated rank would read thousands of dimensions and build a
        shape no array can take."""
        ckpt = run_train(tmp_path, corpus) / "model.ckpt"
        raw = bytearray(ckpt.read_bytes())
        (n,) = struct.unpack("<I", raw[16:20])
        at = 20 + n + 4         # the first entry's name length, after the entry count
        (name_len,) = struct.unpack("<I", raw[at:at + 4])
        raw[at + 4 + name_len:at + 8 + name_len] = struct.pack("<I", 5000)
        ckpt.write_bytes(bytes(raw))
        assert_exit_2(caption_args(tmp_path, corpus, ckpt), capsys, "has rank 5000")

    def test_checkpoint_vocabulary_size_mismatch_exits_2(self, tmp_path, corpus, capsys):
        ckpt = run_train(tmp_path, corpus) / "model.ckpt"

        def shrink(blob):
            config = json.loads(blob)
            config["vocab"] = config["vocab"][:5]
            return json.dumps(config).encode()

        rewrite_blob(ckpt, shrink)
        args = caption_args(tmp_path, corpus, ckpt) + ["--trace", str(tmp_path / "t.json")]
        assert_exit_2(args, capsys, "vocabulary has 5 words")

    def test_checkpoint_vocabulary_word_twice_exits_2(self, tmp_path, corpus, capsys):
        """A word at two ids would still caption, one of its ids unreachable
        by lookup; the size stays the model's."""
        ckpt = run_train(tmp_path, corpus) / "model.ckpt"

        def repeat(blob):
            config = json.loads(blob)
            config["vocab"][-1] = config["vocab"][4]
            return json.dumps(config).encode()

        rewrite_blob(ckpt, repeat)
        assert_exit_2(caption_args(tmp_path, corpus, ckpt), capsys, "listed twice")

    def test_manifest_split_entry_not_a_string_exits_2(self, tmp_path, corpus, capsys):
        manifest = corpus / "manifest.json"
        manifest.write_text(json.dumps({"train": [1], "val": ["seg_0000.seg"]}))
        assert_exit_2(train_args(tmp_path, corpus), capsys, "'train' split")

    @pytest.mark.parametrize("target, content", [
        ("config", b"{"), ("manifest", b"{"), ("pred", b"{"), ("config", b"\xff{}"),
    ])
    def test_malformed_json_file_exits_2(self, tmp_path, corpus, capsys, target, content):
        path = tmp_path / f"{target}.json"
        if target == "manifest":
            path = corpus / "manifest.json"
        path.write_bytes(content)
        if target == "pred":
            args = ["eval", "--pred", str(path), "--refs", str(corpus / "refs.json"),
                    "--out", str(tmp_path / "r.json")]
        else:
            args = train_args(tmp_path, corpus) + (["--config", str(path)]
                                                   if target == "config" else [])
        assert_exit_2(args, capsys, "")

    @pytest.mark.parametrize("payload", [b"1" + b"0" * 5000, b"[" * 100000 + b"]" * 100000],
                             ids=["5001_digit_integer", "100000_deep_array"])
    @pytest.mark.parametrize("target", ["config", "manifest", "pred", "refs", "checkpoint"])
    def test_json_past_parser_limits_exits_2(self, tmp_path, corpus, capsys, target, payload):
        path = corpus / "manifest.json" if target == "manifest" else tmp_path / f"{target}.json"
        if target == "checkpoint":
            path = run_train(tmp_path, corpus) / "model.ckpt"
            rewrite_blob(path, lambda blob: payload)
            args = caption_args(tmp_path, corpus, path)
        else:
            if target in ("pred", "refs"):
                (tmp_path / "pred.json").write_text(json.dumps({"seg_0000": "a"}))
                (tmp_path / "refs.json").write_text(json.dumps({"seg_0000": ["a"]}))
                args = ["eval", "--pred", str(tmp_path / "pred.json"),
                        "--refs", str(tmp_path / "refs.json"), "--out", str(tmp_path / "r.json")]
            else:
                args = train_args(tmp_path, corpus) + (["--config", str(path)]
                                                       if target == "config" else [])
            path.write_bytes(payload)
        assert_exit_2(args, capsys, f"{path}: malformed JSON: ")

    @pytest.mark.parametrize("beam, split", [(0, "val"), (0, "empty"), (-2, "val")])
    def test_beam_below_one_exits_2(self, tmp_path, corpus, capsys, beam, split):
        # the flag is named, not the first segment, and an empty split does
        # not let it through
        ckpt = run_train(tmp_path, corpus) / "model.ckpt"
        if split == "empty":
            manifest = json.loads((corpus / "manifest.json").read_text())
            (corpus / "manifest.json").write_text(json.dumps({**manifest, "val": []}))
        assert_exit_2(caption_args(tmp_path, corpus, ckpt) + ["--beam", str(beam)], capsys,
                      f"validation error: --beam: must be at least 1, got {beam}")

    @pytest.mark.parametrize("target, value, fragment", [
        ("pred", 5, "prediction for segment"),
        ("pred", None, "prediction for segment"),
        ("refs", [5], "references for segment"),
        ("refs", "a b", "references for segment"),
        ("pred_file", [], "JSON objects"),
    ])
    def test_eval_wrongly_typed_values_exit_2(self, tmp_path, corpus, capsys,
                                              target, value, fragment):
        refs = json.loads((corpus / "refs.json").read_text())
        pred = {sid: caps[0] for sid, caps in refs.items()}
        if target == "pred":
            pred = {sid: value for sid in pred}
        elif target == "refs":
            refs = {sid: value for sid in refs}
        else:
            pred = value
        (tmp_path / "pred.json").write_text(json.dumps(pred))
        (tmp_path / "refs.json").write_text(json.dumps(refs))
        assert_exit_2(["eval", "--pred", str(tmp_path / "pred.json"),
                       "--refs", str(tmp_path / "refs.json"),
                       "--out", str(tmp_path / "r.json")], capsys, fragment)


class TestEvalCommand:
    def test_perfect_predictions_score_one(self, tmp_path, corpus):
        refs = json.loads((corpus / "refs.json").read_text())
        pred = {sid: caps[0] for sid, caps in refs.items()}
        pred_path = tmp_path / "pred.json"
        pred_path.write_text(json.dumps(pred))
        report_path = tmp_path / "report.json"
        assert main(["eval", "--pred", str(pred_path),
                     "--refs", str(corpus / "refs.json"),
                     "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["bleu"] == [1.0, 1.0, 1.0, 1.0]
        assert report["rouge_l"] == 1.0

    def test_report_in_new_nested_directories(self, tmp_path, corpus, capsys):
        refs = json.loads((corpus / "refs.json").read_text())
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps({sid: caps[0] for sid, caps in refs.items()}))
        report = tmp_path / "a" / "b" / "report.json"
        for path in (report, tmp_path / "report.json"):
            assert main(["eval", "--pred", str(pred), "--refs", str(corpus / "refs.json"),
                         "--out", str(path)]) == 0
        assert report.read_bytes() == (tmp_path / "report.json").read_bytes()
        assert capsys.readouterr().err == ""

    def test_missing_pred_file_exits_1(self, tmp_path, corpus):
        assert main(["eval", "--pred", str(tmp_path / "none.json"),
                     "--refs", str(corpus / "refs.json"),
                     "--out", str(tmp_path / "r.json")]) == 1


def test_full_pipeline_overfits_to_perfect_bleu(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--seed", "42", "--segments", "4", "--frames", "3",
                 "--objects", "3", "--dim", "8", "--vocab", "4",
                 "--out", str(data)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "train": {"max_epochs": 400, "batch_size": 1, "seed": 0, "lr": 3e-3,
                  "plateau_patience": 200, "stop_train_loss": 0.02},
        "model": {"num_groups": 2, "attn_dim": 8, "interaction_hidden": 8,
                  "img_proj_dim": 8, "embed_dim": 8, "attn_hidden": 8,
                  "lang_hidden": 8},
    }))
    out = tmp_path / "run"
    assert main(["train", "--data", str(data / "manifest.json"),
                 "--config", str(cfg), "--out", str(out)]) == 0
    pred = tmp_path / "pred.json"
    assert main(["caption", "--ckpt", str(out / "model.ckpt"),
                 "--data", str(data / "manifest.json"), "--beam", "5",
                 "--out", str(pred)]) == 0
    report = tmp_path / "report.json"
    assert main(["eval", "--pred", str(pred), "--refs", str(data / "refs.json"),
                 "--out", str(report)]) == 0
    scores = json.loads(report.read_text())
    assert scores["bleu"][3] == 1.0
    assert scores["rouge_l"] == 1.0


FUZZ_SEED = 11
FUZZ_TRIALS = 80        # per mutated file
CONFIG_TRIALS = 500


def mutate(raw: bytes, rng) -> bytes:
    """One seeded mutation: a bit flip, a 4-byte overwrite, a truncation or
    an insertion of 1 to 8 random bytes."""
    kind, at = int(rng.integers(4)), int(rng.integers(len(raw)))
    if kind == 0:
        out = bytearray(raw)
        out[at] ^= 1 << int(rng.integers(8))
        return bytes(out)
    if kind == 1:
        at = min(at, len(raw) - 4)
        return raw[:at] + rng.bytes(4) + raw[at + 4:]
    if kind == 2:
        return raw[:at]
    return raw[:at] + rng.bytes(int(rng.integers(1, 9))) + raw[at:]


def check_exit(code, err, what):
    """0 with a quiet stderr, 2 with one validation line, or 1 with one line
    naming a missing file."""
    lines = err.count("\n")
    assert (code == 0 and err == ""
            or code == 2 and err.startswith("validation error: ") and lines == 1
            or code == 1 and err.startswith("missing input: ") and lines == 1), \
        (what, code, err)


class TestByteMutationFuzz:
    """Seeded byte mutations of a segment file, a checkpoint and the
    manifest, each run through ``cli.main``, and of a config file through
    the config checks. Every mutated run reads a fixed small corpus with a
    fixed training config, so its work is bounded."""

    def test_mutated_files_exit_0_or_2(self, tmp_path, corpus, capsys):
        ckpt = run_train(tmp_path, corpus) / "model.ckpt"
        cfg = tmp_path / "config.json"
        rng = np.random.default_rng(FUZZ_SEED)
        seen = set()
        for path in (corpus / "seg_0001.seg", ckpt, corpus / "manifest.json"):
            raw = path.read_bytes()
            for trial in range(FUZZ_TRIALS):
                path.write_bytes(mutate(raw, rng))
                # a mutated segment also goes through training, on odd trials
                train = path.suffix == ".seg" and trial % 2
                args = (train_args(tmp_path, corpus) + ["--config", str(cfg)] if train
                        else caption_args(tmp_path, corpus, ckpt))
                code = main(args)
                check_exit(code, capsys.readouterr().err, (path.name, trial))
                seen.add(code)
            path.write_bytes(raw)
        assert 2 in seen

    def test_mutated_config_is_accepted_or_rejected(self):
        raw = json.dumps(TRAIN_CONFIG).encode()
        rng = np.random.default_rng(FUZZ_SEED)
        rejected = 0
        for trial in range(CONFIG_TRIALS):
            mutated = mutate(raw, rng)
            try:
                config = json.loads(mutated.decode("utf-8"))
                if not isinstance(config, dict) or not isinstance(config.get("model", {}), dict):
                    raise ContractError("config sections must be JSON objects")
                TrainConfig.from_dict(config.get("train", {})).validate()
                ModelConfig.from_dict({**config.get("model", {}), "vocab_size": 8}).validate()
            except (ContractError, json.JSONDecodeError, UnicodeDecodeError):
                rejected += 1
        assert 0 < rejected < CONFIG_TRIALS
