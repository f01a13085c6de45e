import numpy as np
import pytest

from objcap import data
from objcap.data import (
    BOS_ID,
    EOS_ID,
    UNK_ID,
    SegmentFeatures,
    SegmentFormatError,
    SynthSpec,
    ValidationError,
    Vocabulary,
    build_vocab,
    content_word,
    decode_caption,
    encode_caption,
    load_manifest,
    load_segment,
    planted_projection,
    save_segment,
    synth_dataset,
)


def minimal_segment():
    return SegmentFeatures(
        segment_id="s0",
        image_feats=np.array([[1.0, 2.0]]),
        object_feats=[np.zeros((0, 3))],
        captions=["hello"],
    )


class TestSegmentIO:
    def test_minimal_round_trip_bitwise(self, tmp_path):
        p = tmp_path / "a.seg"
        save_segment(p, minimal_segment())
        first = p.read_bytes()
        loaded = load_segment(p)
        assert loaded.segment_id == "s0"
        assert loaded.captions == ["hello"]
        assert loaded.object_feats[0].shape == (0, 3)
        save_segment(p, loaded)
        assert p.read_bytes() == first

    def test_empty_first_frame_takes_width_from_a_later_frame(self, tmp_path):
        """An empty frame may be (0, 0); the width comes from the first frame
        with objects, so a valid segment whose first frame is empty saves."""
        rng = np.random.default_rng(0)
        seg = SegmentFeatures(segment_id="e", image_feats=rng.normal(size=(2, 3)),
                              object_feats=[np.zeros((0, 0)), rng.normal(size=(3, 4))],
                              captions=["x"])
        p = tmp_path / "e.seg"
        save_segment(p, seg.validate())
        first = p.read_bytes()
        loaded = load_segment(p)
        assert [o.shape for o in loaded.object_feats] == [(0, 4), (3, 4)]
        assert np.array_equal(loaded.object_feats[1], seg.object_feats[1])
        save_segment(p, loaded)
        assert p.read_bytes() == first

    def test_too_many_frames_rejected(self, tmp_path):
        seg = SegmentFeatures(
            segment_id="big",
            image_feats=np.zeros((31, 2)),
            object_feats=[np.zeros((0, 2)) for _ in range(31)],
            captions=["x"],
        )
        with pytest.raises(ValidationError, match="frame_count"):
            save_segment(tmp_path / "b.seg", seg)

    def test_too_many_objects_rejected(self, tmp_path):
        seg = SegmentFeatures(
            segment_id="wide",
            image_feats=np.zeros((1, 2)),
            object_feats=[np.zeros((16, 2))],
            captions=["x"],
        )
        with pytest.raises(ValidationError, match="object_count"):
            save_segment(tmp_path / "c.seg", seg)

    def test_overlong_caption_rejected(self, tmp_path):
        seg = minimal_segment()
        seg.captions = [" ".join(["w"] * 31)]
        with pytest.raises(ValidationError, match="captions"):
            save_segment(tmp_path / "d.seg", seg)

    def test_bad_magic_reports_offset(self, tmp_path):
        p = tmp_path / "bad.seg"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(SegmentFormatError, match="byte 0"):
            load_segment(p)

    def test_truncation_reports_offset(self, tmp_path):
        p = tmp_path / "trunc.seg"
        save_segment(p, minimal_segment())
        raw = p.read_bytes()
        p.write_bytes(raw[:len(raw) - 5])
        with pytest.raises(SegmentFormatError, match="at byte"):
            load_segment(p)

    def test_trailing_garbage_rejected(self, tmp_path):
        p = tmp_path / "tail.seg"
        save_segment(p, minimal_segment())
        p.write_bytes(p.read_bytes() + b"zz")
        with pytest.raises(SegmentFormatError, match="trailing"):
            load_segment(p)


class TestVocabulary:
    def test_frequency_order(self):
        v = build_vocab(["a b", "a"])
        assert v.lookup("a") == 4
        assert v.lookup("b") == 5
        assert v.size == 6

    def test_ties_break_lexicographically(self):
        v = build_vocab(["b a", "d c"])
        assert [v.id_to_word[i] for i in range(4, 8)] == ["a", "b", "c", "d"]

    def test_matches_independent_sort_oracle(self):
        rng = np.random.default_rng(0)
        words = [f"w{i:03d}" for i in range(40)]
        captions = [" ".join(rng.choice(words, size=6)) for _ in range(1000)]
        counts = {}
        for cap in captions:
            for w in cap.split():
                counts[w] = counts.get(w, 0) + 1
        expected = sorted(counts, key=lambda w: (-counts[w], w))
        v = build_vocab(captions)
        assert v.id_to_word[4:] == expected

    def test_round_trip_through_list(self):
        v = build_vocab(["x y z"])
        w = Vocabulary.from_list(v.to_list())
        assert w.word_to_id == v.word_to_id

    @pytest.mark.parametrize("repeated", ["y", "<unk>"])
    def test_word_listed_twice_rejected(self, repeated):
        words = build_vocab(["x y z"]).to_list() + [repeated]
        with pytest.raises(ValidationError, match=f"word '{repeated}' listed twice"):
            Vocabulary.from_list(words)


class TestCaptionCodec:
    def test_empty_text(self):
        v = build_vocab(["a"])
        assert encode_caption(v, "") == [BOS_ID, EOS_ID]

    def test_truncation_to_cap(self):
        v = build_vocab([" ".join(f"w{i}" for i in range(40))])
        ids = encode_caption(v, " ".join(f"w{i}" for i in range(35)))
        assert len(ids) == 32
        assert ids[0] == BOS_ID and ids[-1] == EOS_ID

    def test_round_trip_for_known_words(self):
        v = build_vocab(["the cat sat on the mat"])
        text = "the cat sat"
        assert decode_caption(v, encode_caption(v, text)) == text

    def test_unknown_words_become_unk(self):
        v = build_vocab(["a"])
        assert encode_caption(v, "zzz")[1] == UNK_ID


class TestSynthDataset:
    def test_same_seed_identical_bytes(self, tmp_path):
        spec = SynthSpec(segments=4, max_frames=3, max_objects=3, feature_dim=6,
                         vocab_words=5)
        m1 = synth_dataset(7, spec, tmp_path / "one")
        m2 = synth_dataset(7, spec, tmp_path / "two")
        files1 = sorted(p.name for p in (tmp_path / "one").iterdir())
        files2 = sorted(p.name for p in (tmp_path / "two").iterdir())
        assert files1 == files2
        for name in files1:
            assert (tmp_path / "one" / name).read_bytes() == \
                (tmp_path / "two" / name).read_bytes()
        assert m1.name == m2.name == "manifest.json"

    def test_object_cap_enforced(self, tmp_path):
        with pytest.raises(ValidationError, match="max_objects"):
            synth_dataset(0, SynthSpec(max_objects=16), tmp_path)

    def test_generated_files_reload_and_reserialize_identically(self, tmp_path):
        spec = SynthSpec(segments=3, max_frames=4, max_objects=4, feature_dim=5,
                         vocab_words=6)
        manifest = synth_dataset(42, spec, tmp_path)
        ds = load_manifest(manifest)
        assert len(ds.train) == 3 and len(ds.val) == 3
        for seg, name in zip(ds.train, ("seg_0000.seg", "seg_0001.seg", "seg_0002.seg")):
            original = (tmp_path / name).read_bytes()
            save_segment(tmp_path / "copy.seg", seg)
            assert (tmp_path / "copy.seg").read_bytes() == original

    def test_file_in_both_splits_is_loaded_once(self, tmp_path, monkeypatch):
        """At val_fraction 0 the manifest lists every file in both splits;
        each is loaded once, and the two splits share its segment."""
        spec = SynthSpec(segments=3, max_frames=2, max_objects=2, feature_dim=4,
                         vocab_words=4)
        manifest = synth_dataset(2, spec, tmp_path)
        loads = []
        monkeypatch.setattr(data, "load_segment",
                            lambda path: loads.append(path.name) or load_segment(path))
        ds = load_manifest(manifest)
        assert loads == ["seg_0000.seg", "seg_0001.seg", "seg_0002.seg"]
        assert len(ds.val) == 3 and all(v is t for v, t in zip(ds.val, ds.train))

    def test_file_listed_twice_in_a_split_is_shared(self, tmp_path):
        save_segment(tmp_path / "a.seg", minimal_segment())
        (tmp_path / "manifest.json").write_text(
            '{"train": ["a.seg", "a.seg"], "val": ["a.seg"]}')
        ds = load_manifest(tmp_path / "manifest.json")
        assert ds.train[0] is ds.train[1] is ds.val[0]

    def test_val_fraction_splits(self, tmp_path):
        spec = SynthSpec(segments=5, val_fraction=0.4, feature_dim=4,
                         max_frames=2, max_objects=2, vocab_words=4)
        ds = load_manifest(synth_dataset(1, spec, tmp_path))
        assert len(ds.train) == 3 and len(ds.val) == 2

    @pytest.mark.parametrize("segments, fraction", [(1, 0.6), (3, 0.9), (2, 0.75)])
    def test_val_fraction_taking_every_segment_rejected(self, tmp_path, segments, fraction):
        """A split that rounds to all segments would leave training none."""
        spec = SynthSpec(segments=segments, val_fraction=fraction)
        with pytest.raises(ValidationError, match="val_fraction: leaves no segment to train on"):
            synth_dataset(1, spec, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_val_fraction_leaving_one_segment_to_train_accepted(self, tmp_path):
        spec = SynthSpec(segments=3, val_fraction=0.8, feature_dim=4,
                         max_frames=2, max_objects=2, vocab_words=4)
        ds = load_manifest(synth_dataset(1, spec, tmp_path))
        assert len(ds.train) == 1 and len(ds.val) == 2

    def test_planted_rule_recoverable_by_logistic_probe(self, tmp_path):
        # the caption's content word must be predictable from the pooled
        # object features, otherwise the overfit tests rest on noise
        spec = SynthSpec(segments=200, max_frames=3, max_objects=4,
                         feature_dim=12, vocab_words=8)
        manifest = synth_dataset(5, spec, tmp_path)
        ds = load_manifest(manifest)
        probe = planted_projection(5, spec)
        feats, labels = [], []
        for seg in ds.train:
            pooled = np.mean(np.concatenate(seg.object_feats, axis=0), axis=0)
            feats.append(pooled)
            noun = seg.captions[0].split()[1]
            labels.append(int(noun[3:]))
            assert content_word(probe, seg.object_feats) == labels[-1]
        x = np.array(feats)
        y = np.array(labels)

        # multinomial logistic regression trained with plain gradient steps
        w = np.zeros((spec.vocab_words, spec.feature_dim))
        b = np.zeros(spec.vocab_words)
        onehot = np.eye(spec.vocab_words)[y]
        for _ in range(1500):
            scores = x @ w.T + b
            scores -= scores.max(axis=1, keepdims=True)
            p = np.exp(scores)
            p /= p.sum(axis=1, keepdims=True)
            grad = (p - onehot) / len(y)
            w -= 2.0 * (grad.T @ x)
            b -= 2.0 * grad.sum(axis=0)
        accuracy = np.mean(np.argmax(x @ w.T + b, axis=1) == y)
        assert accuracy > 0.95
