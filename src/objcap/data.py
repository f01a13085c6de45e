"""Segment feature files, vocabulary, caption codec, synthetic corpus.

On-disk segment layout (all integers little-endian uint32, all floats
little-endian float64, row-major):

    magic          4 bytes  b"VSEG"
    version        u32      1
    segment id     u32 byte length + UTF-8 bytes
    T, D_img, D_obj  u32 each
    n_t            u32 per frame (T values)
    image payload  T * D_img floats
    object payload sum(n_t) * D_obj floats, frame by frame
    caption count  u32
    captions       u32 byte length + UTF-8 bytes, each

Loading validates every invariant (frame cap 30, object cap 15, caption cap
30 words, finite payloads) and a load/save round trip is byte-identical.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"VSEG"
FORMAT_VERSION = 1
MAX_FRAMES = 30
MAX_OBJECTS = 15
MAX_CAPTION_WORDS = 30

PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
RESERVED_WORDS = ["<pad>", "<bos>", "<eos>", "<unk>"]


class SegmentFormatError(ValueError):
    """The file is not a well-formed segment container."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class ValidationError(ValueError):
    """Well-formed data that violates a declared invariant."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


@dataclass
class SegmentFeatures:
    segment_id: str
    image_feats: np.ndarray            # T x D_img
    object_feats: list[np.ndarray]     # n_t x D_obj per frame (n_t may be 0)
    captions: list[str]

    def validate(self) -> "SegmentFeatures":
        t = self.image_feats.shape[0] if self.image_feats.ndim == 2 else -1
        if t < 1 or t > MAX_FRAMES:
            raise ValidationError("frame_count", f"T={t} outside 1..{MAX_FRAMES}")
        if len(self.object_feats) != t:
            raise ValidationError("object_feats", "one object array per frame required")
        for i, objs in enumerate(self.object_feats):
            if objs.ndim != 2:
                raise ValidationError("object_feats", f"frame {i} is not a matrix")
            if objs.shape[0] > MAX_OBJECTS:
                raise ValidationError("object_count",
                                      f"frame {i} has {objs.shape[0]} objects, cap {MAX_OBJECTS}")
            if not np.all(np.isfinite(objs)):
                raise ValidationError("object_feats", f"frame {i} has non-finite values")
        if not np.all(np.isfinite(self.image_feats)):
            raise ValidationError("image_feats", "non-finite values")
        if not self.captions:
            raise ValidationError("captions", "at least one caption required")
        for c in self.captions:
            n_words = len(c.split())
            if n_words > MAX_CAPTION_WORDS:
                raise ValidationError("captions",
                                      f"{n_words} words exceeds cap {MAX_CAPTION_WORDS}")
        return self


def save_segment(path: str | Path, seg: SegmentFeatures) -> None:
    """Write ``seg`` one array at a time into the open file, straight from
    its arrays; every check runs before the file opens."""
    seg.validate()
    t, d_img = seg.image_feats.shape
    # the width of the first frame with objects; an empty frame may be (0, 0)
    d_obj = next((objs.shape[1] for objs in seg.object_feats if objs.shape[0]),
                 seg.object_feats[0].shape[1])
    for objs in seg.object_feats:
        if objs.shape[0] and objs.shape[1] != d_obj:
            raise ValidationError("object_feats", "inconsistent object feature width")
    sid = seg.segment_id.encode("utf-8")
    counts = [objs.shape[0] for objs in seg.object_feats]
    captions = [cap.encode("utf-8") for cap in seg.captions]
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack(f"<II{len(sid)}sIII{t}I", FORMAT_VERSION, len(sid), sid,
                                    t, d_img, d_obj, *counts))
        for arr in (seg.image_feats, *seg.object_feats):
            f.write(np.ascontiguousarray(arr, dtype="<f8"))
        f.write(struct.pack("<I", len(captions)))
        for raw in captions:
            f.write(struct.pack(f"<I{len(raw)}s", len(raw), raw))


class Reader:
    """Cursor over a little-endian binary file open for reading. Each read
    takes only the bytes it returns; running past the end raises
    ``error(message, offset)``, so every format error names its byte."""

    def __init__(self, file, error=SegmentFormatError):
        self.file = file
        self.size = os.fstat(file.fileno()).st_size
        self.off = 0
        self.error = error

    def _claim(self, n: int) -> None:
        if self.off + n > self.size:
            raise self.error(f"truncated: wanted {n} more bytes", self.off)

    def pull(self, n: int) -> bytes:
        self._claim(n)
        out = self.file.read(n)
        if len(out) != n:   # the file shrank since it was opened
            raise self.error(f"truncated: wanted {n} more bytes", self.off)
        self.off += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.pull(4))[0]

    def text(self) -> str:  # u32 byte length, then UTF-8
        raw = self.pull(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.error("invalid UTF-8", self.off - len(raw) + exc.start) from None

    def floats(self, count: int) -> np.ndarray:
        """A fresh float64 array of the next ``count`` values, allocated only
        once the file is known to hold them."""
        self._claim(count * 8)
        out = np.empty(count, dtype="<f8")
        if self.file.readinto(out) != count * 8:
            raise self.error(f"truncated: wanted {count * 8} more bytes", self.off)
        self.off += count * 8
        return out.astype(np.float64, copy=False)

    def end(self) -> None:
        if self.off != self.size:
            raise self.error(f"{self.size - self.off} trailing bytes", self.off)


def load_segment(path: str | Path) -> SegmentFeatures:
    """Parse and validate one segment file; parse failures report the byte
    offset, invariant violations name the offending field."""
    with open(path, "rb") as f:
        r = Reader(f)
        if r.pull(4) != MAGIC:
            raise SegmentFormatError("bad magic", 0)
        version = r.u32()
        if version != FORMAT_VERSION:
            raise SegmentFormatError(f"unsupported version {version}", 4)
        sid = r.text()
        t, d_img, d_obj = r.u32(), r.u32(), r.u32()
        if t < 1 or t > 10**6:
            raise SegmentFormatError(f"implausible frame count {t}", r.off - 12)
        counts = [r.u32() for _ in range(t)]
        image = r.floats(t * d_img).reshape(t, d_img)
        objects = [r.floats(n * d_obj).reshape(n, d_obj) for n in counts]
        captions = [r.text() for _ in range(r.u32())]
        r.end()
    return SegmentFeatures(segment_id=sid, image_feats=image,
                           object_feats=objects, captions=captions).validate()


# -- vocabulary ---------------------------------------------------------------


@dataclass
class Vocabulary:
    id_to_word: list[str]

    def __post_init__(self):
        # a word looks up to an id from 4 up, or else to <unk>
        self.word_to_id = {w: i for i, w in enumerate(self.id_to_word) if i >= 4}

    @property
    def size(self) -> int:
        return len(self.id_to_word)

    def lookup(self, word: str) -> int:
        return self.word_to_id.get(word, UNK_ID)

    def to_list(self) -> list[str]:
        return list(self.id_to_word)

    @classmethod
    def from_list(cls, words: list[str]) -> "Vocabulary":
        if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
            raise ValidationError("vocabulary", "must be a list of strings")
        if words[:4] != RESERVED_WORDS:
            raise ValidationError("vocabulary", "reserved ids 0-3 missing or reordered")
        seen = set()
        for w in words:
            if w in seen:
                raise ValidationError("vocabulary", f"word {w!r} listed twice")
            seen.add(w)
        return cls(list(words))


def build_vocab(captions: list[str]) -> Vocabulary:
    """Every corpus word gets an id: frequency-descending, ties by
    lexicographic order."""
    if not captions:
        raise ValidationError("captions", "empty corpus")
    counts: dict[str, int] = {}
    for cap in captions:
        for word in cap.lower().split():
            counts[word] = counts.get(word, 0) + 1
    return Vocabulary(RESERVED_WORDS + sorted(counts, key=lambda w: (-counts[w], w)))


def encode_caption(vocab: Vocabulary, text: str) -> list[int]:
    """Lowercase, whitespace-split, truncate to the word cap, wrap in
    sentinels."""
    words = text.lower().split()[:MAX_CAPTION_WORDS]
    return [BOS_ID] + [vocab.lookup(w) for w in words] + [EOS_ID]


def decode_caption(vocab: Vocabulary, ids: list[int]) -> str:
    words = [vocab.id_to_word[i] for i in ids
             if i not in (PAD_ID, BOS_ID, EOS_ID) and i < vocab.size]
    return " ".join(words)


# -- synthetic corpus ---------------------------------------------------------


@dataclass
class SynthSpec:
    segments: int = 8
    max_frames: int = 5
    max_objects: int = 5
    feature_dim: int = 32
    vocab_words: int = 12
    val_fraction: float = 0.0   # 0 reuses the training split for validation

    def validate(self) -> "SynthSpec":
        if self.segments < 1:
            raise ValidationError("segments", "need at least one segment")
        if not 1 <= self.max_frames <= MAX_FRAMES:
            raise ValidationError("max_frames", f"outside 1..{MAX_FRAMES}")
        if not 1 <= self.max_objects <= MAX_OBJECTS:
            raise ValidationError("max_objects", f"outside 1..{MAX_OBJECTS}")
        if self.feature_dim < 1:
            raise ValidationError("feature_dim", "must be positive")
        if self.vocab_words < 1:
            raise ValidationError("vocab_words", "must be positive")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValidationError("val_fraction", "must be in [0, 1)")
        if round(self.segments * self.val_fraction) == self.segments:
            raise ValidationError("val_fraction", "leaves no segment to train on")
        return self


CAPTION_TEMPLATE = ("the", "is", "shown")


def planted_projection(seed: int, spec: SynthSpec) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(spec.vocab_words, spec.feature_dim))


def content_word(probe: np.ndarray, object_feats: list[np.ndarray]) -> int:
    """The planted rule: average all object rows of the segment and take the
    argmax of the probe scores."""
    pooled = np.mean(np.concatenate([o for o in object_feats if o.size], axis=0), axis=0)
    return int(np.argmax(probe @ pooled))


def synth_dataset(seed: int, spec: SynthSpec, out_dir: str | Path) -> Path:
    """Write a seeded corpus whose captions are a deterministic function of
    the object features, so the mapping is learnable. Returns the manifest
    path; the same seed always produces identical bytes."""
    spec.validate()
    if seed < 0:
        raise ValidationError("seed", "must be non-negative")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    probe = planted_projection(seed, spec)
    rng = np.random.default_rng(seed + 1)
    nouns = [f"obj{i:02d}" for i in range(spec.vocab_words)]

    paths: list[str] = []
    refs: dict[str, list[str]] = {}
    for i in range(spec.segments):
        t = int(rng.integers(1, spec.max_frames + 1))
        image = rng.normal(size=(t, spec.feature_dim))
        objects = [rng.normal(size=(int(rng.integers(1, spec.max_objects + 1)),
                                    spec.feature_dim)) for _ in range(t)]
        noun = nouns[content_word(probe, objects)]
        caption = f"{CAPTION_TEMPLATE[0]} {noun} {CAPTION_TEMPLATE[1]} {CAPTION_TEMPLATE[2]}"
        seg = SegmentFeatures(segment_id=f"seg_{i:04d}", image_feats=image,
                              object_feats=objects, captions=[caption])
        name = f"seg_{i:04d}.seg"
        save_segment(out / name, seg)
        paths.append(name)
        refs[seg.segment_id] = [caption]

    n_val = int(round(spec.segments * spec.val_fraction))
    train = paths[:spec.segments - n_val] if n_val else paths
    val = paths[spec.segments - n_val:] if n_val else list(paths)
    manifest = {"train": train, "val": val}
    manifest_path = out / "manifest.json"
    write_json(manifest_path, manifest)
    write_json(out / "refs.json", refs)
    return manifest_path


@dataclass
class Dataset:
    train: list[SegmentFeatures]
    val: list[SegmentFeatures]


def load_manifest(manifest_path: str | Path) -> Dataset:
    path = Path(manifest_path)
    manifest = read_json(path)
    root = path.parent
    if not isinstance(manifest, dict):
        raise ValidationError("manifest", "must be a JSON object")
    for key in ("train", "val"):
        split = manifest.get(key)
        if not isinstance(split, list) or not all(isinstance(p, str) for p in split):
            raise ValidationError("manifest", f"{key!r} split must be a list of file names")
    # a file listed twice, in one split or both, is loaded once and shared
    segments = {p: load_segment(root / p)
                for p in dict.fromkeys(manifest["train"] + manifest["val"])}
    return Dataset(train=[segments[p] for p in manifest["train"]],
                   val=[segments[p] for p in manifest["val"]])


def read_json(path: str | Path, text: str | None = None):
    """Parse the UTF-8 JSON file ``path``, or ``text`` already read from it;
    malformed JSON or UTF-8, an integer past Python's digit limit and runaway
    nesting raise ``ValidationError`` naming the file."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8") if text is None else text)
    except (ValueError, RecursionError) as exc:   # UnicodeDecodeError is a ValueError
        raise ValidationError(str(path), f"malformed JSON: {exc}") from None


def write_json(path: str | Path, payload) -> None:
    """Canonical JSON: sorted keys, no float noise, trailing newline; makes missing directories."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
