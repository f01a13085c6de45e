"""Command-line pipeline: synth -> train -> caption -> eval.

Exit codes: 0 success, 1 runtime failure (missing files, IO, memory), 2
validation failure (bad flags, malformed or invariant-violating inputs). Every
command rewrites identical output bytes when re-run on identical inputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .captioner import EOS_ID, beam_search
from .data import (
    Dataset,
    SegmentFormatError,
    SynthSpec,
    ValidationError,
    Vocabulary,
    decode_caption,
    load_manifest,
    read_json,
    synth_dataset,
    write_json,
)
from .metrics import evaluate_captions
from .model import Model, segment_context
from .tensor import ContractError, ShapeError, collector_paused, no_tape
from .trainer import TrainConfig, load_checkpoint, save_checkpoint, train


@collector_paused()
@no_tape()
def caption_dataset(model: Model, vocab: Vocabulary, segments, beam_width: int,
                    with_trace: bool = False) -> tuple[dict, dict]:
    """Decode every segment; optionally collect per-word attention traces,
    taken from the frame attention the beam search recorded. Nothing here
    backpropagates, so ``segment_context`` and the beam search run off the
    tape (``no_tape``) and build no graph. The cyclic garbage collector is
    paused meanwhile."""
    predictions: dict[str, str] = {}
    traces: dict[str, list] = {}
    for seg in segments:
        try:
            ctx, records = segment_context(model, seg.image_feats, seg.object_feats)
            hyp = beam_search(model.captioner, ctx, beam_width,
                              max_words=model.config.max_words)
        except (ContractError, FloatingPointError) as exc:
            raise ContractError(f"segment {seg.segment_id}: {exc}") from None
        predictions[seg.segment_id] = decode_caption(vocab, hyp.words)
        if with_trace:
            object_attention = [[[] if alpha is None else alpha.tolist() for alpha in frame]
                                for frame in records]
            traces[seg.segment_id] = [
                {"word": vocab.id_to_word[word_id], "alpha_temp": alpha.tolist(),
                 "object_attention": object_attention}
                for word_id, alpha in zip(hyp.tokens[1:], hyp.alphas)
                if word_id != EOS_ID
            ]
    return predictions, traces


def _split_segments(dataset: Dataset, split: str):
    if split == "train":
        return dataset.train
    if split == "val":
        return dataset.val
    train_ids = {s.segment_id for s in dataset.train}
    return dataset.train + [s for s in dataset.val if s.segment_id not in train_ids]


def cmd_synth(args) -> int:
    spec = SynthSpec(segments=args.segments, max_frames=args.frames,
                     max_objects=args.objects, feature_dim=args.dim,
                     vocab_words=args.vocab, val_fraction=args.val_fraction)
    manifest = synth_dataset(args.seed, spec, args.out)
    print(manifest)
    return 0


def cmd_train(args) -> int:
    dataset = load_manifest(args.data)
    train_cfg = TrainConfig()
    model_overrides: dict = {}
    if args.config:
        raw = read_json(args.config)
        if not isinstance(raw, dict):
            raise ContractError("config must be a JSON object")
        for key, section in raw.items():
            if key not in ("train", "model"):
                raise ContractError(f"unknown config section {key!r}; "
                                    f"a config holds 'train' and 'model'")
            if not isinstance(section, dict):
                raise ContractError(f"config section {key!r} must be a JSON object")
        train_cfg = TrainConfig.from_dict(raw.get("train", {}))
        model_overrides = raw.get("model", {})
    result = train(train_cfg, dataset, model_overrides)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt_path = out / "model.ckpt"
    save_checkpoint(ckpt_path, result.model, result.vocab, result.adam, train_cfg)
    write_json(out / "loss_log.json", result.log)
    print(ckpt_path)
    return 0


def cmd_caption(args) -> int:
    if args.beam < 1:
        raise ValidationError("--beam", f"must be at least 1, got {args.beam}")
    ckpt = load_checkpoint(args.ckpt)
    dataset = load_manifest(args.data)
    segments = _split_segments(dataset, args.split)
    predictions, traces = caption_dataset(ckpt.model, ckpt.vocab, segments,
                                          args.beam, with_trace=bool(args.trace))
    write_json(args.out, predictions)
    print(args.out)
    if args.trace:
        write_json(args.trace, traces)
        print(args.trace)
    return 0


def cmd_eval(args) -> int:
    predictions = read_json(args.pred)
    references = read_json(args.refs)
    report = evaluate_captions(predictions, references)
    write_json(args.out, report.to_dict())
    print(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="objcap",
                                     description="object-interaction video captioner")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--segments", type=int, default=8)
    p.add_argument("--frames", type=int, default=5)
    p.add_argument("--objects", type=int, default=5)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--vocab", type=int, default=12)
    p.add_argument("--val-fraction", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train on a dataset manifest")
    p.add_argument("--data", required=True, help="manifest.json path")
    p.add_argument("--config", help="JSON with 'train' and 'model' sections")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("caption", help="decode captions from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--beam", type=int, default=5)
    p.add_argument("--split", choices=("train", "val", "all"), default="val")
    p.add_argument("--out", required=True, help="predictions JSON path")
    p.add_argument("--trace", help="attention trace JSON path")
    p.set_defaults(func=cmd_caption)

    p = sub.add_parser("eval", help="score predictions against references")
    p.add_argument("--pred", required=True)
    p.add_argument("--refs", required=True)
    p.add_argument("--out", required=True, help="metric report JSON path")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a numpy overflow or invalid operation raises where it happens, and
        # train and caption name the segments it happened on
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (ValidationError, SegmentFormatError, ContractError, ShapeError,
            FloatingPointError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing input: {exc.filename}", file=sys.stderr)
        return 1
    except (OSError, MemoryError) as exc:
        print(f"runtime error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
