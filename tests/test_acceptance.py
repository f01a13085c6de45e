"""Acceptance gate: one test per release criterion, each printing a PASS or
FAIL line with the measured quantity so the suite output doubles as a report.
"""

import json
import math
import time

import numpy as np
import pytest

from objcap.captioner import (
    BOS_ID,
    EOS_ID,
    beam_search,
    decode_step,
    forward_teacher_forced,
    initial_state,
    precompute_frames,
)
from objcap.cli import main as cli_main
from objcap.data import (
    SynthSpec,
    decode_caption,
    load_manifest,
    synth_dataset,
)
from objcap.interaction import init_interaction, interaction_sequence
from objcap.metrics import bleu, cider_d, evaluate_captions, rouge_l
from objcap.model import ModelConfig, init_model, segment_context
from objcap.tensor import Tensor, log_softmax
from objcap.trainer import TrainConfig, train

from helpers import decode_greedy, max_fd_error

ACCEPT_DIMS = dict(image_dim=4, object_dim=4, num_groups=2, attn_dim=4,
                   interaction_hidden=4, img_proj_dim=4, embed_dim=3,
                   attn_hidden=4, lang_hidden=4)

# feature widths come from the data when a Dataset is in play
TRAIN_DIMS = {k: v for k, v in ACCEPT_DIMS.items()
              if k not in ("image_dim", "object_dim")}


@pytest.fixture
def announce(capsys):
    def _announce(name, ok, detail=""):
        with capsys.disabled():
            suffix = f" ({detail})" if detail else ""
            print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}")
        assert ok, f"{name}: {detail}"
    return _announce


def test_gradient_integrity(announce):
    """End-to-end finite differences over every parameter of the full model
    on a 2-frame, 3-object, 4-word instance; rel err < 1e-5 in < 2 minutes."""
    model = init_model(ModelConfig(vocab_size=8, **ACCEPT_DIMS), seed=123)
    rng = np.random.default_rng(123)
    image = rng.normal(size=(2, 4))
    objects = [rng.normal(size=(3, 4)) for _ in range(2)]
    caption = [BOS_ID, 4, 5, 6, 7, EOS_ID]
    leaves = [t for _, t in sorted(model.named_parameters().items())]

    def loss_fn():
        ctx, _ = segment_context(model, image, objects)
        return forward_teacher_forced(model.captioner, ctx, caption).loss

    start = time.monotonic()
    err = max_fd_error(loss_fn, leaves)
    elapsed = time.monotonic() - start
    announce("gradient-integrity", err < 1e-5 and elapsed < 120,
             f"max rel err {err:.2e} over {sum(t.data.size for t in leaves)} params, "
             f"{elapsed:.1f}s")


def test_permutation_invariance(announce):
    """100 random instances: object-row permutation leaves every hidden state
    unchanged to 1e-12."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(100):
        params = init_interaction(
            np.random.default_rng(1000 + trial),
            ModelConfig(vocab_size=3, image_dim=4, object_dim=5, num_groups=2, attn_dim=3,
                        interaction_hidden=4))
        objects, permuted, image = [], [], []
        for _ in range(int(rng.integers(1, 5))):
            n = int(rng.integers(1, 6))
            objs = rng.normal(size=(n, 5))
            image.append(rng.normal(size=4))
            objects.append(objs)
            permuted.append(objs[rng.permutation(n)])
        h1, _ = interaction_sequence(params, Tensor(np.array(image)), objects)
        h2, _ = interaction_sequence(params, Tensor(np.array(image)), permuted)
        for a, b in zip(h1, h2):
            worst = max(worst, float(np.max(np.abs(a.data - b.data))))
    announce("permutation-invariance", worst < 1e-12,
             f"max abs diff {worst:.2e} over 100 instances")


def test_normalization_suite(announce):
    """Every object-attention row and every frame distribution sums to 1
    within 1e-9 across 1000 random decode steps."""
    rng = np.random.default_rng(11)
    worst = 0.0
    steps = 0
    model = None
    for trial in range(100):
        if trial % 10 == 0:
            model = init_model(ModelConfig(vocab_size=9, **ACCEPT_DIMS),
                               seed=2000 + trial)
        t = int(rng.integers(1, 5))
        image = rng.normal(size=(t, 4))
        objects = [rng.normal(size=(int(rng.integers(1, 5)), 4)) for _ in range(t)]
        ctx, records = segment_context(model, image, objects)
        for frame in records:
            for alpha in frame:
                row_sums = alpha.sum(axis=1)
                worst = max(worst, float(np.max(np.abs(row_sums - 1.0))))
        state = initial_state(model.captioner)
        for _ in range(10):
            word = int(rng.integers(0, 9))
            step = decode_step(model.captioner, ctx, word, state)
            state = step.state
            worst = max(worst, abs(float(step.alpha_temp.data.sum()) - 1.0))
            steps += 1
    announce("normalization-suite", steps == 1000 and worst < 1e-9,
             f"{steps} decode steps, worst deviation {worst:.2e}")


def test_overfit_oracle(announce, tmp_path):
    """The 8-segment seeded corpus trains to loss < 0.01 inside 500 epochs,
    greedy decoding reproduces every caption, and corpus metrics hit 1.0."""
    spec = SynthSpec(segments=8, max_frames=5, max_objects=5, feature_dim=32,
                     vocab_words=12)
    dataset = load_manifest(synth_dataset(42, spec, tmp_path / "corpus"))
    cfg = TrainConfig(max_epochs=500, batch_size=1, seed=3,
                      plateau_patience=200, stop_train_loss=0.005)
    start = time.monotonic()
    result = train(cfg, dataset)
    elapsed = time.monotonic() - start
    final_loss = result.log[-1]["train_loss"]
    assert result.vocab.size <= 25

    predictions, references = {}, {}
    exact = True
    for seg in dataset.train:
        ctx, _ = segment_context(result.model, seg.image_feats, seg.object_feats)
        text = decode_caption(result.vocab, decode_greedy(result.model.captioner, ctx))
        predictions[seg.segment_id] = text
        references[seg.segment_id] = seg.captions
        exact &= text == seg.captions[0]
    report = evaluate_captions(predictions, references)
    ok = (final_loss < 0.01 and len(result.log) <= 500 and elapsed < 300
          and exact and report.bleu == [1.0, 1.0, 1.0, 1.0] and report.rouge_l == 1.0)
    announce("overfit-oracle", ok,
             f"loss {final_loss:.4f} in {len(result.log)} epochs ({elapsed:.0f}s), "
             f"captions exact: {exact}, B@4 {report.bleu[3]}, R {report.rouge_l}")


def test_ablation_structure(announce, tmp_path):
    """All four mode rows train and decode end-to-end; excluded inputs are
    bitwise inert."""
    spec = SynthSpec(segments=4, max_frames=3, max_objects=3, feature_dim=6,
                     vocab_words=4)
    dataset = load_manifest(synth_dataset(5, spec, tmp_path / "corpus"))
    modes = {
        "img": dict(use_image=True, use_objects=False),
        "obj": dict(use_image=False, use_objects=True),
        "img+obj": dict(use_image=True, use_objects=True),
        "img+obj-no-co-attn": dict(use_image=True, use_objects=True,
                                   use_coattention=False),
    }
    rng = np.random.default_rng(0)
    results = {}
    for name, flags in modes.items():
        cfg = TrainConfig(max_epochs=2, batch_size=2, seed=8)
        res = train(cfg, dataset, {**TRAIN_DIMS, **flags})
        seg = dataset.train[0]
        ctx, _ = segment_context(res.model, seg.image_feats, seg.object_feats)
        hyp = beam_search(res.model.captioner, ctx, beam_width=3)
        results[name] = (res, hyp)

    # img row: object features are bitwise inert end to end
    res, _ = results["img"]
    seg = dataset.train[1]
    ctx_a, _ = segment_context(res.model, seg.image_feats, seg.object_feats)
    noisy = [o + rng.normal(size=o.shape) for o in seg.object_feats]
    ctx_b, _ = segment_context(res.model, seg.image_feats, noisy)
    sa = decode_step(res.model.captioner, ctx_a, BOS_ID, initial_state(res.model.captioner))
    sb = decode_step(res.model.captioner, ctx_b, BOS_ID, initial_state(res.model.captioner))
    img_inert = np.array_equal(sa.word_logits.data, sb.word_logits.data)

    # obj row: frame features are bitwise inert once interactions are fixed
    res, _ = results["obj"]
    ctx_a, _ = segment_context(res.model, seg.image_feats, seg.object_feats)
    interactions = [ctx_a.states.row(i) for i in range(ctx_a.keys.shape[0])]
    ctx_b = precompute_frames(res.model.captioner,
                              Tensor(rng.normal(size=seg.image_feats.shape)),
                              interactions)
    sa = decode_step(res.model.captioner, ctx_a, BOS_ID, initial_state(res.model.captioner))
    sb = decode_step(res.model.captioner, ctx_b, BOS_ID, initial_state(res.model.captioner))
    obj_inert = np.array_equal(sa.word_logits.data, sb.word_logits.data)

    ok = len(results) == 4 and img_inert and obj_inert
    announce("ablation-structure", ok,
             f"4 modes ran, img ignores objects: {img_inert}, "
             f"obj ignores frames: {obj_inert}")


def test_decoder_equivalences(announce):
    """Beam width 1 equals greedy on 50 random models, beam search equals
    exhaustive enumeration on 3-word toys, and the returned log-probability
    is monotone in beam width."""
    greedy_ok = True
    for seed in range(50):
        model = init_model(ModelConfig(vocab_size=7, **ACCEPT_DIMS), seed=3000 + seed)
        rng = np.random.default_rng(seed)
        image = rng.normal(size=(2, 4))
        objects = [rng.normal(size=(2, 4)) for _ in range(2)]
        ctx, _ = segment_context(model, image, objects)
        hyp = beam_search(model.captioner, ctx, beam_width=1, max_words=8)
        greedy_ok &= decode_greedy(model.captioner, ctx, max_words=8) == hyp.words

    def enumerate_best(p, ctx, max_words):
        best = None

        def visit(tokens, lp, state, n_words):
            nonlocal best
            step = decode_step(p, ctx, tokens[-1], state)
            logp = log_softmax(step.word_logits).data
            for w in range(p.vocab_size):
                lp2, t2 = lp + float(logp[w]), tokens + (w,)
                if w == EOS_ID or n_words + 1 >= max_words:
                    if best is None or (-lp2, t2) < (-best[1], best[0]):
                        best = (t2, lp2)
                else:
                    visit(t2, lp2, step.state, n_words + 1)

        visit((BOS_ID,), 0.0, initial_state(p), 0)
        return best

    exhaustive_ok = True
    for seed in range(10):
        model = init_model(ModelConfig(vocab_size=3, **ACCEPT_DIMS), seed=4000 + seed)
        rng = np.random.default_rng(seed)
        ctx, _ = segment_context(model, rng.normal(size=(2, 4)),
                                 [rng.normal(size=(2, 4))] * 2)
        tokens, lp = enumerate_best(model.captioner, ctx, max_words=3)
        hyp = beam_search(model.captioner, ctx, beam_width=16, max_words=3)
        exhaustive_ok &= hyp.tokens == tokens and abs(hyp.log_prob - lp) < 1e-12

    monotone_ok = True
    for seed in range(12):
        model = init_model(ModelConfig(vocab_size=7, **ACCEPT_DIMS), seed=5000 + seed)
        rng = np.random.default_rng(seed)
        ctx, _ = segment_context(model, rng.normal(size=(3, 4)),
                                 [rng.normal(size=(2, 4))] * 3)
        lps = [beam_search(model.captioner, ctx, beam_width=w, max_words=6).log_prob
               for w in (1, 2, 3, 5)]
        monotone_ok &= all(b >= a - 1e-12 for a, b in zip(lps, lps[1:]))

    announce("decoder-equivalences", greedy_ok and exhaustive_ok and monotone_ok,
             f"greedy==beam1: {greedy_ok}, exhaustive: {exhaustive_ok}, "
             f"monotone: {monotone_ok}")


def test_metric_oracles(announce):
    """Hand-computed metric examples reproduce to 1e-9."""
    clip = bleu([["the", "cat", "the", "cat"]], [[["the", "cat", "sat"]]])
    bleu_ok = abs(clip[0] - 0.5) < 1e-9

    score, _ = rouge_l([["a", "b", "c", "d"]], [[["a", "c", "d", "b"]]])
    rouge_ok = abs(score - 0.75) < 1e-9

    cands = [["a", "b", "c"], ["b", "c", "d"], ["e", "f"]]
    refs = [[["a", "b", "c"], ["a", "b"]], [["b", "c", "d"]], [["e", "f", "g"]]]
    _, per = cider_d(cands, refs)

    def grams(sent, n):
        return [tuple(sent[i:i + n]) for i in range(len(sent) - n + 1)]

    expected = []
    for cand, group in zip(cands, refs):
        total = 0.0
        for ref in group:
            penalty = math.exp(-((len(cand) - len(ref)) ** 2) / 72.0)
            for n in range(1, 5):
                cg, rg = grams(cand, n), grams(ref, n)
                universe = sorted(set(cg) | set(rg))
                df = {g: sum(1 for grp in refs
                             if any(g in grams(s, n) for s in grp))
                      for g in universe}
                idf = {g: math.log(3) - math.log(max(1.0, df[g])) for g in universe}
                cv = np.array([cg.count(g) * idf[g] for g in universe])
                rv = np.array([rg.count(g) * idf[g] for g in universe])
                denom = np.linalg.norm(cv) * np.linalg.norm(rv)
                if denom > 0:
                    total += penalty * float(np.minimum(cv, rv) @ rv) / denom / 4.0
        expected.append(10.0 * total / len(group))
    cider_ok = max(abs(a - b) for a, b in zip(per, expected)) < 1e-9

    same = [["x", "y", "z", "w"]]
    ident_bleu = bleu(same, [same])
    ident_rouge, _ = rouge_l(same, [same])
    identical_ok = ident_bleu == [1.0] * 4 and ident_rouge == 1.0

    announce("metric-oracles", bleu_ok and rouge_ok and cider_ok and identical_ok,
             f"bleu clip: {bleu_ok}, rouge lcs: {rouge_ok}, cider vectors: "
             f"{cider_ok}, identical corpus: {identical_ok}")


def test_determinism(announce, tmp_path):
    """Two identical seeded pipeline runs produce byte-identical datasets,
    checkpoints, predictions, traces and reports."""
    cfg = {
        "train": {"max_epochs": 20, "batch_size": 2, "seed": 13},
        "model": TRAIN_DIMS,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    outputs = {}
    for run in ("one", "two"):
        base = tmp_path / run
        data = base / "data"
        assert cli_main(["synth", "--seed", "21", "--segments", "6",
                         "--frames", "4", "--objects", "4", "--dim", "8",
                         "--vocab", "6", "--out", str(data)]) == 0
        assert cli_main(["train", "--data", str(data / "manifest.json"),
                         "--config", str(cfg_path), "--out", str(base / "run")]) == 0
        assert cli_main(["caption", "--ckpt", str(base / "run" / "model.ckpt"),
                         "--data", str(data / "manifest.json"), "--beam", "5",
                         "--out", str(base / "pred.json"),
                         "--trace", str(base / "trace.json")]) == 0
        assert cli_main(["eval", "--pred", str(base / "pred.json"),
                         "--refs", str(data / "refs.json"),
                         "--out", str(base / "report.json")]) == 0
        outputs[run] = {
            "segments": b"".join(sorted(p.read_bytes()
                                        for p in data.glob("*.seg"))),
            "checkpoint": (base / "run" / "model.ckpt").read_bytes(),
            "loss_log": (base / "run" / "loss_log.json").read_bytes(),
            "predictions": (base / "pred.json").read_bytes(),
            "trace": (base / "trace.json").read_bytes(),
            "report": (base / "report.json").read_bytes(),
        }
    mismatched = [k for k in outputs["one"] if outputs["one"][k] != outputs["two"][k]]
    announce("determinism", not mismatched,
             "all artifacts byte-identical" if not mismatched
             else f"mismatch in {mismatched}")
