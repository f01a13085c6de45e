"""The benchmark's workloads: seeded inputs, a closed loop over objcap's
public entry points, and the output checks.

Every workload is one client in a closed loop: the next call starts when the
previous one returns. Its operations are ``trainer.train`` calls and
``cli.caption_dataset`` calls on one segment each. Output checks run outside
the timed region; a check that fails marks its operation failed and the run
goes on.
"""

from __future__ import annotations

import math
import shutil
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from objcap import captioner, cli, data, metrics, model, trainer
from objcap.tensor import log_softmax

from calibrate import SpeedLog

BEAM = 5
MAX_WORDS = data.MAX_CAPTION_WORDS
RESCORE_SEGMENTS = 2      # segments per check whose beam log-prob is re-scored
RESCORE_TOL = 1e-9
FRAME_COUNTS = list(range(20, 31)) + [10, 15]   # paper shapes: mostly 20-30 frames
CAPTION_WORDS = list(range(6, 15))
WIDTH = 32

# Sizes per scale. "smoke" only proves that every metric is produced.
SIZES = {
    "full": {
        "train_paper_b32": {"train_segments": 64, "val_segments": 4, "vocab_words": 500,
                            "batch": 32, "epochs": 1},
        "caption_paper_beam5": {"segments": 40, "vocab_size": 1000},
        "pipeline_desk": {"corpora": 6, "segments": 32, "frames": 5, "objects": 5,
                          "vocab_words": 7, "epochs": 10},
    },
    "smoke": {
        "train_paper_b32": {"train_segments": 4, "val_segments": 1, "vocab_words": 20,
                            "batch": 2, "epochs": 1, "frames": [3, 4]},
        "caption_paper_beam5": {"segments": 3, "vocab_size": 30, "frames": [3, 4]},
        "pipeline_desk": {"corpora": 2, "segments": 3, "frames": 3, "objects": 3,
                          "vocab_words": 4, "epochs": 1},
    },
}


@dataclass
class Tally:
    """What the timed loop did. Times are seconds of timed calls on
    ``SpeedLog.clock``; ``calibrated`` gives them at nominal machine speed."""

    busy_s: float = 0.0
    tokens: int = 0
    train_s: float = 0.0
    train_tokens: int = 0
    train_calls: int = 0
    caption_s: float = 0.0          # caption_dataset calls plus evaluate_captions
    caption_segments: int = 0
    caption_ms: list[float] = field(default_factory=list)
    op_ms: list[float] = field(default_factory=list)
    spans: list[tuple[str, float, float]] = field(default_factory=list)  # kind, start, s
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, kind: str, start: float, seconds: float) -> None:
        """One timed call: ``train`` and ``caption`` are operations,
        ``evaluate`` counts as caption time, ``checkpoint`` as busy time only."""
        self.spans.append((kind, start, seconds))
        self.busy_s += seconds
        if kind == "train":
            self.train_s += seconds
            self.train_calls += 1
            self.op_ms.append(seconds * 1e3)
        elif kind == "caption":
            self.caption_s += seconds
            self.caption_segments += 1
            self.caption_ms.append(seconds * 1e3)
            self.op_ms.append(seconds * 1e3)
        elif kind == "evaluate":
            self.caption_s += seconds

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(why)

    def calibrated(self, speed: SpeedLog) -> "Tally":
        """The same tally with every timed call scaled to nominal machine speed."""
        out = Tally(tokens=self.tokens, train_tokens=self.train_tokens,
                    attempted=self.attempted, failed=self.failed, problems=self.problems)
        for kind, start, seconds in self.spans:
            out.add(kind, start, seconds * speed.factor(start, seconds))
        return out


def _split_shapes(rng, n: int, frames):
    """Frame counts, caption lengths and per-frame object counts of ``n``
    segments: seeded permutations of fixed multisets."""
    frame_counts = rng.permutation(np.resize(frames, n))
    lengths = rng.permutation(np.resize(CAPTION_WORDS, n))
    objects = rng.permutation(
        np.resize(np.arange(1, data.MAX_OBJECTS + 1), int(frame_counts.sum())))
    return frame_counts, lengths, objects


def paper_corpus(seed: int, out_dir: Path, n_train: int, n_val: int, vocab_words: int,
                 frames=FRAME_COUNTS, cover_train_vocab: bool = False) -> Path:
    """Write a ragged corpus at the paper's shapes and return its manifest.

    Frame counts, caption lengths and object counts are seeded permutations
    of fixed multisets, drawn per split, so every seed gives each split the
    same amount of work; the seed moves which segment gets which shape and
    sets all feature values.
    With ``cover_train_vocab`` every pool word occurs in the train captions,
    so the trained vocabulary has ``vocab_words + 4`` entries for every seed.
    """
    rng = np.random.default_rng(seed)
    n = n_train + n_val
    splits = [_split_shapes(rng, k, frames) for k in (n_train, n_val)]
    frame_counts, lengths, object_counts = (np.concatenate(parts) for parts in zip(*splits))
    object_counts = iter(object_counts)
    tokens = rng.integers(0, vocab_words, size=int(lengths.sum()))
    if cover_train_vocab:
        n_train_tokens = int(lengths[:n_train].sum())
        if n_train_tokens < vocab_words:
            raise ValueError("train captions too short to cover the word pool")
        tokens[:vocab_words] = rng.permutation(vocab_words)
        tokens[:n_train_tokens] = rng.permutation(tokens[:n_train_tokens])
    words = iter(f"w{int(t):04d}" for t in tokens)

    out_dir.mkdir(parents=True, exist_ok=True)
    names = []
    for i in range(n):
        t = int(frame_counts[i])
        seg = data.SegmentFeatures(
            segment_id=f"seg_{i:04d}",
            image_feats=rng.normal(size=(t, WIDTH)),
            object_feats=[rng.normal(size=(int(next(object_counts)), WIDTH))
                          for _ in range(t)],
            captions=[" ".join(next(words) for _ in range(int(lengths[i])))])
        name = f"{seg.segment_id}.seg"
        data.save_segment(out_dir / name, seg)
        names.append(name)
    manifest = out_dir / "manifest.json"
    data.write_json(manifest, {"train": names[:n_train], "val": names[n_train:]})
    return manifest


def checkpoint_round_trip(path: Path, mdl, vocab, adam, cfg) -> trainer.Checkpoint:
    trainer.save_checkpoint(path, mdl, vocab, adam, cfg)
    return trainer.load_checkpoint(path)


def same_bits(mdl, vocab, adam, ck: trainer.Checkpoint) -> bool:
    """The reloaded checkpoint holds the same parameters and ADAM moments,
    bit for bit."""
    mine, theirs = mdl.named_parameters(), ck.model.named_parameters()
    if mine.keys() != theirs.keys() or ck.adam.step != adam.step \
            or ck.vocab.to_list() != vocab.to_list():
        return False
    for name, p in mine.items():
        pairs = [(p.data, theirs[name].data)]
        if name in adam.m:
            pairs += [(adam.m[name], ck.adam.m[name]), (adam.v[name], ck.adam.v[name])]
        if any(a.shape != b.shape or a.tobytes() != b.tobytes() for a, b in pairs):
            return False
    return True


def scored_tokens(segments) -> int:
    """Caption positions ``train`` scores per epoch: words plus EOS."""
    return sum(min(len(c.split()), MAX_WORDS) + 1 for seg in segments for c in seg.captions)


class Workload:
    """Base: subclasses build inputs in ``setup`` and run one loop pass in
    ``run_pass``; after the loop, ``finish`` makes the closing timed call and
    ``check`` the closing untimed checks."""

    name = ""

    def __init__(self, seed: int, sizes: dict, workdir: Path, speed: SpeedLog, tracer=None):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.speed = speed
        self.tracer = tracer
        self.tally = Tally()

    def begin_op(self, op_id: str) -> None:
        if self.tracer is not None:
            self.tracer.begin_op(op_id)

    @contextmanager
    def timed(self, kind: str):
        """Time the body, speed samples excluded, as one call of ``kind``
        (see ``Tally.add``)."""
        start = self.speed.clock()
        try:
            yield
        finally:
            self.tally.add(kind, start, self.speed.clock() - start)

    @contextmanager
    def untraced(self):
        """Keep the untimed checks out of the trace."""
        if self.tracer is None or not self.tracer.installed:
            yield
            return
        self.tracer.uninstall()
        try:
            yield
        finally:
            self.tracer.install()

    def finish(self) -> None:
        """The closing timed call after the loop, if the workload has one."""

    def check(self) -> None:
        """Untimed checks that run once after the loop."""

    # -- shared operations --------------------------------------------------

    def train_op(self, cfg: trainer.TrainConfig, dataset: data.Dataset):
        """One ``trainer.train`` call; returns the result, or None if it raised."""
        t = self.tally
        t.attempted += 1
        self.begin_op(f"train#{t.train_calls}")
        with self.timed("train"):
            try:
                result = trainer.train(cfg, dataset)
            except Exception:  # the loop must go on; the failure is counted
                traceback.print_exc(file=sys.stderr)
                result = None
        if result is None:
            t.fail(1, "train raised")
            return None
        tokens = scored_tokens(dataset.train) * len(result.log)
        t.train_tokens += tokens
        t.tokens += tokens
        return result

    def check_train(self, result, cfg: trainer.TrainConfig, ck=None) -> None:
        """Untimed: finite losses and parameters, the configured epoch count,
        and a bitwise checkpoint round trip (made here unless ``ck`` is given)."""
        problems = []
        if len(result.log) != cfg.max_epochs:
            problems.append(f"{len(result.log)} epochs logged, {cfg.max_epochs} configured")
        if not all(math.isfinite(e["train_loss"]) and math.isfinite(e["val_loss"])
                   for e in result.log):
            problems.append("non-finite loss")
        if not all(np.all(np.isfinite(p.data)) for p in result.model.named_parameters().values()):
            problems.append("non-finite parameter")
        if ck is None:
            ck = checkpoint_round_trip(self.workdir / "check.ckpt", result.model,
                                       result.vocab, result.adam, cfg)
        if not same_bits(result.model, result.vocab, result.adam, ck):
            problems.append("checkpoint round trip is not bitwise")
        if problems:
            self.tally.fail(1, "train: " + "; ".join(problems))

    def caption_op(self, mdl, vocab, seg, predictions: dict) -> None:
        """One ``cli.caption_dataset`` call on one segment."""
        t = self.tally
        t.attempted += 1
        self.begin_op(seg.segment_id)
        with self.timed("caption"):
            try:
                preds, _ = cli.caption_dataset(mdl, vocab, [seg], BEAM)
            except Exception:  # the loop must go on; the failure is counted
                traceback.print_exc(file=sys.stderr)
                preds = None
        if preds is None or seg.segment_id not in preds:
            t.fail(1, f"caption {seg.segment_id} raised")
            return
        text = preds[seg.segment_id]
        words = text.split()
        t.tokens += len(words)
        known = set(vocab.id_to_word)
        if len(words) > MAX_WORDS or any(w not in known for w in words):
            t.fail(1, f"caption {seg.segment_id}: over {MAX_WORDS} words or out of vocabulary")
        predictions[seg.segment_id] = text

    def evaluate(self, predictions: dict, references: dict, ops: int) -> None:
        """Timed ``metrics.evaluate_captions`` over the predictions; non-finite
        scores fail the ``ops`` caption operations they cover."""
        refs = {sid: references[sid] for sid in predictions}
        if not refs:
            return
        self.begin_op("evaluate")
        with self.timed("evaluate"):
            try:
                report = metrics.evaluate_captions(predictions, refs)
                scores = list(report.bleu) + [report.rouge_l, report.cider_d]
            except Exception:  # the loop must go on; the failure is counted
                traceback.print_exc(file=sys.stderr)
                scores = [math.nan]
        if not all(math.isfinite(s) for s in scores):
            self.tally.fail(ops, "evaluate_captions: non-finite score")

    def check_rescore(self, mdl, vocab, segments, predictions: dict) -> None:
        """Untimed: for a fixed sample of segments, beam search returns the
        caption ``caption_dataset`` printed, and its log-probability equals
        the caption re-scored with ``decode_step`` + ``log_softmax``."""
        for seg in segments[:RESCORE_SEGMENTS]:
            if seg.segment_id not in predictions:
                continue
            ctx, _ = model.segment_context(mdl, seg.image_feats, seg.object_feats)
            hyp = captioner.beam_search(mdl.captioner, ctx, BEAM, max_words=mdl.config.max_words)
            state = captioner.initial_state(mdl.captioner)
            log_prob = 0.0
            for prev, word in zip(hyp.tokens, hyp.tokens[1:]):
                step = captioner.decode_step(mdl.captioner, ctx, prev, state)
                log_prob += float(log_softmax(step.word_logits).data[word])
                state = step.state
            same_text = data.decode_caption(vocab, hyp.words) == predictions[seg.segment_id]
            if not same_text or abs(log_prob - hyp.log_prob) > RESCORE_TOL:
                self.tally.fail(1, f"rescore {seg.segment_id}: text match {same_text}, "
                                   f"|dlogp| {abs(log_prob - hyp.log_prob):.3g}")

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class TrainPaper(Workload):
    """``trainer.train`` at batch 32 over a ragged corpus at the paper's shapes."""

    name = "train_paper_b32"

    def setup(self) -> None:
        s = self.sizes
        manifest = paper_corpus(self.seed, self.workdir / "corpus", s["train_segments"],
                                s["val_segments"], s["vocab_words"],
                                frames=s.get("frames", FRAME_COUNTS), cover_train_vocab=True)
        self.dataset = data.load_manifest(manifest)
        self.cfg = trainer.TrainConfig(batch_size=s["batch"], max_epochs=s["epochs"],
                                       seed=self.seed)
        vocab = data.build_vocab([c for seg in self.dataset.train for c in seg.captions])
        mdl = model.init_model(model.ModelConfig(vocab_size=vocab.size), seed=self.seed)
        checkpoint_round_trip(self.workdir / "init.ckpt", mdl, vocab, trainer.AdamState(),
                              self.cfg)
        self.vocab_size = vocab.size

    def run_pass(self) -> None:
        result = self.train_op(self.cfg, self.dataset)
        if result is not None:
            with self.untraced():
                self.check_train(result, self.cfg)


class CaptionPaper(Workload):
    """Beam-5 captioning, one segment per call, at V=1000 from an untrained
    seeded model that went through a checkpoint round trip."""

    name = "caption_paper_beam5"

    def setup(self) -> None:
        s = self.sizes
        pool = s["vocab_size"] - len(data.RESERVED_WORDS)
        manifest = paper_corpus(self.seed, self.workdir / "corpus", s["segments"], 0, pool,
                                frames=s.get("frames", FRAME_COUNTS))
        self.segments = data.load_manifest(manifest).train
        self.references = {seg.segment_id: seg.captions for seg in self.segments}
        vocab = data.Vocabulary.from_list(data.RESERVED_WORDS + [f"w{i:04d}" for i in range(pool)])
        mdl = model.init_model(model.ModelConfig(vocab_size=vocab.size), seed=self.seed)
        ck = checkpoint_round_trip(self.workdir / "model.ckpt", mdl, vocab, trainer.AdamState(),
                                   trainer.TrainConfig(seed=self.seed))
        self.model, self.vocab = ck.model, ck.vocab
        self.vocab_size = vocab.size
        self.predictions: dict[str, str] = {}
        self.next = 0

    def run_pass(self) -> None:
        seg = self.segments[self.next % len(self.segments)]
        self.next += 1
        self.caption_op(self.model, self.vocab, seg, self.predictions)

    def finish(self) -> None:
        self.evaluate(self.predictions, self.references, len(self.predictions))

    def check(self) -> None:
        self.check_rescore(self.model, self.vocab, self.segments, self.predictions)


class PipelineDesk(Workload):
    """The README pipeline at desk scale: synth, load, train at batch 1,
    checkpoint round trip, beam-5 captions for every segment, evaluate."""

    name = "pipeline_desk"

    def setup(self) -> None:
        s = self.sizes
        spec = data.SynthSpec(segments=s["segments"], max_frames=s["frames"],
                              max_objects=s["objects"], feature_dim=WIDTH,
                              vocab_words=s["vocab_words"])
        # Synth draws 1..5 frames per segment, so one small corpus's work
        # swings with its seed; cycling through several corpora averages a
        # run over a few hundred segments.
        self.corpora = []
        for k in range(s["corpora"]):
            corpus_seed = self.seed * s["corpora"] + k
            manifest = data.synth_dataset(corpus_seed, spec, self.workdir / f"corpus{k}")
            dataset = data.load_manifest(manifest)
            cfg = trainer.TrainConfig(batch_size=1, max_epochs=s["epochs"], seed=corpus_seed)
            self.corpora.append((dataset, cfg))
        dataset, cfg = self.corpora[0]
        vocab = data.build_vocab([c for seg in dataset.train for c in seg.captions])
        mdl = model.init_model(model.ModelConfig(vocab_size=vocab.size), seed=self.seed)
        checkpoint_round_trip(self.workdir / "init.ckpt", mdl, vocab, trainer.AdamState(), cfg)
        self.vocab_size = vocab.size
        self.passes = 0

    def run_pass(self) -> None:
        dataset, cfg = self.corpora[self.passes % len(self.corpora)]
        self.passes += 1
        result = self.train_op(cfg, dataset)
        if result is None:
            return
        self.begin_op("checkpoint")
        with self.timed("checkpoint"):
            ck = checkpoint_round_trip(self.workdir / "model.ckpt", result.model, result.vocab,
                                       result.adam, cfg)
        predictions: dict[str, str] = {}
        for seg in dataset.train:
            self.caption_op(ck.model, ck.vocab, seg, predictions)
        references = {seg.segment_id: seg.captions for seg in dataset.train}
        self.evaluate(predictions, references, len(dataset.train))
        with self.untraced():
            self.check_train(result, cfg, ck)
            self.check_rescore(ck.model, ck.vocab, dataset.train, predictions)


WORKLOADS = {w.name: w for w in (TrainPaper, CaptionPaper, PipelineDesk)}
