"""The error paths of the two binary loaders, ``data.load_segment`` and
``trainer.load_checkpoint``, which read their files a field at a time
through ``data.Reader``.

A fault is reported where it first spoils a read, with that read's byte
offset, as a reader holding the whole file would report it: a truncated
file names the read it cuts, trailing bytes the end of the last read, a
rank above two its rank field. A huge claimed count or shape ends in the
same "truncated" message before anything of that size is allocated. A
fault in a checkpoint's config or in its entry table comes second to a
parse fault anywhere in the file. Every file opened is closed, whichever
way a load ends, and this module turns a ``ResourceWarning`` into an error.
"""

import builtins
import math
import struct
import tracemalloc

import numpy as np
import pytest

from objcap import data, trainer
from objcap.data import RESERVED_WORDS, SegmentFeatures, SegmentFormatError, Vocabulary
from objcap.model import ModelConfig, init_model
from objcap.tensor import ContractError

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")

HUGE = 2 ** 32 - 1      # the largest u32 a file can claim
TINY_MODEL = dict(image_dim=3, object_dim=3, num_groups=1, attn_dim=2, interaction_hidden=2,
                  img_proj_dim=2, embed_dim=2, attn_hidden=2, lang_hidden=2, max_words=4)


class Layout:
    """The reads a loader makes of a well-formed file, in order, as
    (label, offset, length), and the value of each u32 read, by label."""

    def __init__(self, raw: bytes):
        self.raw, self.off, self.reads, self.values = raw, 0, [], {}

    def take(self, label: str, n: int) -> bytes:
        self.reads.append((label, self.off, n))
        self.off += n
        return self.raw[self.off - n:self.off]

    def u32(self, label: str) -> int:
        self.values[label] = struct.unpack("<I", self.take(label, 4))[0]
        return self.values[label]

    def text(self, label: str) -> None:
        self.take(label, self.u32(f"{label} length"))

    def at(self, label: str) -> int:
        return next(off for name, off, _ in self.reads if name == label)


def segment_layout(raw: bytes) -> Layout:
    lay = Layout(raw)
    lay.take("magic", 4)
    lay.u32("version")
    lay.text("segment id")
    t, d_img, d_obj = lay.u32("frames"), lay.u32("image width"), lay.u32("object width")
    counts = [lay.u32(f"objects {i}") for i in range(t)]
    lay.take("image", 8 * t * d_img)
    for i, n in enumerate(counts):
        lay.take(f"objects {i} data", 8 * n * d_obj)
    for i in range(lay.u32("captions")):
        lay.text(f"caption {i}")
    assert lay.off == len(raw)
    return lay


def checkpoint_layout(raw: bytes) -> Layout:
    lay = Layout(raw)
    lay.take("magic", 4)
    lay.u32("version")
    lay.take("step", 8)
    lay.text("config")
    for i in range(lay.u32("entries")):
        lay.text(f"entry {i} name")
        shape = [lay.u32(f"entry {i} dim {k}") for k in range(lay.u32(f"entry {i} rank"))]
        lay.take(f"entry {i} data", 8 * math.prod(shape))
    assert lay.off == len(raw)
    return lay


@pytest.fixture
def segment_file(tmp_path):
    rng = np.random.default_rng(0)
    seg = SegmentFeatures(segment_id="s0", image_feats=rng.normal(size=(3, 4)),
                          object_feats=[rng.normal(size=(n, 3)) for n in (2, 0, 1)],
                          captions=["a b", "c"])
    path = tmp_path / "s0.seg"
    data.save_segment(path, seg)
    return path


@pytest.fixture
def checkpoint_file(tmp_path):
    """A tiny model's checkpoint after one ADAM step, so every entry is
    non-zero."""
    vocab = Vocabulary.from_list(RESERVED_WORDS + ["a", "b"])
    model = init_model(ModelConfig(vocab_size=vocab.size, **TINY_MODEL), seed=0)
    params = model.named_parameters()
    rng = np.random.default_rng(1)
    adam = trainer.adam_step(params, {n: rng.normal(size=p.data.shape)
                                      for n, p in params.items()}, trainer.AdamState(), 0.1)
    path = tmp_path / "m.ckpt"
    trainer.save_checkpoint(path, model, vocab, adam, trainer.TrainConfig())
    return path


def rewrite_u32(raw: bytes, at: int, value: int) -> bytes:
    return raw[:at] + struct.pack("<I", value) + raw[at + 4:]


def raised(load, path, error) -> str:
    with pytest.raises(error) as exc:
        load(path)
    return str(exc.value)


def truncations(lay: Layout):
    """A cut at the start, middle and last byte of every read, each with
    (offset, length) of the read it spoils: the first to end past it."""
    cuts = sorted({c for _, s, n in lay.reads for c in (s, s + n // 2, s + n - 1)
                   if n and c < len(lay.raw)})
    for cut in cuts:
        yield cut, next((s, n) for _, s, n in lay.reads if s + n > cut)


def test_truncated_segment_names_the_read_it_cuts(segment_file):
    raw = segment_file.read_bytes()
    for cut, (start, length) in truncations(segment_layout(raw)):
        segment_file.write_bytes(raw[:cut])
        assert raised(data.load_segment, segment_file, SegmentFormatError) == \
            f"truncated: wanted {length} more bytes (at byte {start})", cut


def test_truncated_checkpoint_names_the_read_it_cuts(checkpoint_file):
    raw = checkpoint_file.read_bytes()
    for cut, (start, length) in truncations(checkpoint_layout(raw)):
        checkpoint_file.write_bytes(raw[:cut])
        assert raised(trainer.load_checkpoint, checkpoint_file, ContractError) == \
            f"checkpoint truncated: wanted {length} more bytes (at byte {start})", cut


@pytest.mark.parametrize("extra", [1, 7, 8])
def test_trailing_bytes_reported_at_the_end_of_the_last_read(segment_file, checkpoint_file,
                                                            extra):
    for path, load, error, prefix in [(segment_file, data.load_segment, SegmentFormatError, ""),
                                      (checkpoint_file, trainer.load_checkpoint, ContractError,
                                       "checkpoint ")]:
        raw = path.read_bytes()
        path.write_bytes(raw + b"\x00" * extra)
        assert raised(load, path, error) == \
            f"{prefix}{extra} trailing bytes (at byte {len(raw)})"


@pytest.mark.parametrize("rank", [3, HUGE])
def test_rank_above_two_reported_at_its_field(checkpoint_file, rank):
    raw = checkpoint_file.read_bytes()
    lay = checkpoint_layout(raw)
    for i in (0, lay.values["entries"] - 1):
        at = lay.at(f"entry {i} rank")
        name = raw[lay.at(f"entry {i} name"):at].decode()
        checkpoint_file.write_bytes(rewrite_u32(raw, at, rank))
        assert raised(trainer.load_checkpoint, checkpoint_file, ContractError) == \
            f"checkpoint tensor {name} has rank {rank} (at byte {at})"


def huge_claims(kind, raw):
    """(label, file with that field set to a huge claim, expected message)."""
    if kind == "segment":
        lay = segment_layout(raw)
        counts_at = lay.at("objects 0")
        claims = [
            ("segment id length", HUGE, f"wanted {HUGE} more bytes (at byte 12)"),
            ("image width", HUGE, f"wanted {8 * 3 * HUGE} more bytes "
                                  f"(at byte {lay.at('image')})"),
            ("object width", HUGE, f"wanted {8 * 2 * HUGE} more bytes "
                                   f"(at byte {lay.at('objects 0 data')})"),
            ("objects 0", HUGE, f"wanted {8 * HUGE * 3} more bytes "
                                f"(at byte {lay.at('objects 0 data')})"),
            ("captions", HUGE, f"wanted 4 more bytes (at byte {len(raw)})"),
            # a million frames pass the plausibility check; their counts run
            # into the payload and then off the end, four bytes at a time
            ("frames", 10 ** 6, "wanted 4 more bytes (at byte "
                                f"{counts_at + 4 * ((len(raw) - counts_at) // 4)})"),
        ]
        prefix = "truncated: "
    else:
        lay = checkpoint_layout(raw)
        data_at = lay.at("entry 0 data")
        dims = [lay.values[f"entry 0 dim {k}"] for k in range(lay.values["entry 0 rank"])]
        claims = [
            ("config length", HUGE, f"wanted {HUGE} more bytes (at byte 20)"),
            ("entries", HUGE, f"wanted 4 more bytes (at byte {len(raw)})"),
            ("entry 0 name length", HUGE,
             f"wanted {HUGE} more bytes (at byte {lay.at('entry 0 name')})"),
            ("entry 0 dim 0", HUGE,
             f"wanted {8 * HUGE * math.prod(dims[1:])} more bytes (at byte {data_at})"),
        ]
        prefix = "checkpoint truncated: "
    for label, value, message in claims:
        yield label, rewrite_u32(raw, lay.at(label), value), prefix + message


@pytest.mark.parametrize("kind", ["segment", "checkpoint"])
def test_huge_claim_raises_before_allocating(segment_file, checkpoint_file, kind):
    path, load, error = ((segment_file, data.load_segment, SegmentFormatError)
                         if kind == "segment" else
                         (checkpoint_file, trainer.load_checkpoint, ContractError))
    for label, mutated, message in huge_claims(kind, path.read_bytes()):
        path.write_bytes(mutated)
        tracemalloc.start()
        try:
            assert raised(load, path, error) == message, label
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(mutated) + 2 ** 20, (label, peak)


def rewrite_config(raw: bytes, old: bytes, new: bytes) -> bytes:
    assert len(old) == len(new) and raw.count(old) == 1
    return raw.replace(old, new)


def test_config_and_table_faults_come_after_parse_faults(checkpoint_file):
    """A config naming a vocabulary size its word list does not have, or an
    entry name outside the model, is reported only when the file parses;
    a truncation or a trailing byte in the same file is reported instead."""
    raw = checkpoint_file.read_bytes()
    lay = checkpoint_layout(raw)
    end = lay.reads[-1][1]
    size_fault = rewrite_config(raw, b'"vocab_size": 6', b'"vocab_size": 7')
    table_fault = rewrite_config(raw, b"param/captioner.out_b", b"param/captioner.out_c")
    for mutated, fault in [(size_fault, "checkpoint vocabulary has 6 words, its model "
                                        "config 'vocab_size' 7"),
                           (table_fault, "checkpoint tensor table does not match the "
                                         "model layout")]:
        for file, message in [
                (mutated, fault),
                (mutated[:-1], f"checkpoint truncated: wanted {len(raw) - end} more bytes "
                               f"(at byte {end})"),
                (mutated + b"\x00", f"checkpoint 1 trailing bytes (at byte {len(raw)})")]:
            checkpoint_file.write_bytes(file)
            assert raised(trainer.load_checkpoint, checkpoint_file, ContractError) == message


def test_non_finite_entry_reported_at_its_data(checkpoint_file):
    raw = checkpoint_file.read_bytes()
    lay = checkpoint_layout(raw)
    at = lay.at("entry 0 data")
    name = raw[lay.at("entry 0 name"):lay.at("entry 0 rank")].decode()
    checkpoint_file.write_bytes(raw[:at] + struct.pack("<d", np.inf) + raw[at + 8:])
    assert raised(trainer.load_checkpoint, checkpoint_file, ContractError) == \
        f"checkpoint tensor {name} has non-finite values (at byte {at})"


@pytest.fixture
def opened(monkeypatch):
    """Every file ``data`` and ``trainer`` open, recorded."""
    files = []

    def recording_open(*args, **kwargs):
        files.append(builtins.open(*args, **kwargs))
        return files[-1]

    for module in (data, trainer):
        monkeypatch.setattr(module, "open", recording_open, raising=False)
    return files


def test_every_load_closes_its_file(segment_file, checkpoint_file, opened):
    cases = []
    for kind, path, load in [("segment", segment_file, data.load_segment),
                             ("checkpoint", checkpoint_file, trainer.load_checkpoint)]:
        raw = path.read_bytes()
        files = [raw, raw[:len(raw) // 2], raw + b"\x00", b"junk"]
        files += [mutated for _, mutated, _ in huge_claims(kind, raw)]
        cases += [(path, load, file) for file in files]
    for path, load, file in cases:
        path.write_bytes(file)
        opened.clear()
        try:
            load(path)
        except (SegmentFormatError, ContractError):
            pass
        assert len(opened) == 1 and opened[0].closed
