import contextlib
import math

import numpy as np
import pytest

from helpers import bleu_reference, cider_d_reference
from objcap.metrics import bleu, cider_d, evaluate_captions, rouge_l
from objcap.tensor import ContractError


def toks(*sentences):
    return [s.split() for s in sentences]


class TestBleu:
    def test_exact_match_scores_one(self):
        c = toks("the cat sat on the mat")
        r = [toks("the cat sat on the mat")]
        assert bleu(c, r) == [1.0, 1.0, 1.0, 1.0]

    def test_disjoint_scores_zero(self):
        c = toks("x y z w")
        r = [toks("a b c d")]
        assert bleu(c, r) == [0.0, 0.0, 0.0, 0.0]

    def test_clipped_unigram_precision(self):
        # candidate "the cat the cat" vs reference "the cat sat":
        # clipped unigrams 2/4; candidate longer than reference so no brevity
        # penalty; trigrams share nothing so orders 3 and 4 die
        c = toks("the cat the cat")
        r = [toks("the cat sat")]
        scores = bleu(c, r)
        assert scores[0] == 0.5
        assert abs(scores[1] - math.sqrt(0.5 * (1.0 / 3.0))) < 1e-12
        assert scores[2] == 0.0 and scores[3] == 0.0

    def test_brevity_penalty_uses_closest_reference(self):
        c = toks("a b")
        r = [[["a", "b", "c", "d"], ["a", "b", "e"]]]
        scores = bleu(c, r)
        assert abs(scores[0] - math.exp(1 - 3 / 2)) < 1e-12

    def test_corpus_level_aggregation(self):
        c = toks("a b", "c d")
        r = [toks("a b"), toks("c x")]
        # pooled unigrams: 3 matches of 4; pooled bigrams: 1 of 2, lengths equal
        scores = bleu(c, r)
        assert abs(scores[0] - 0.75) < 1e-12
        assert abs(scores[1] - math.sqrt(0.75 * 0.5)) < 1e-12

    def test_empty_candidates_rejected(self):
        with pytest.raises(ContractError):
            bleu([], [])

    def test_extra_reference_of_equal_length_never_hurts(self):
        """Every sentence has five words, so the closest reference length,
        and with it the brevity penalty, stays put; only the clipped
        matches can change, and they can only grow."""
        rng = np.random.default_rng(0)
        words = list("abcdefg")
        for _ in range(30):
            cand = [rng.choice(words, size=5).tolist()]
            ref = [rng.choice(words, size=5).tolist()]
            extra = [rng.choice(words, size=5).tolist()]
            base = bleu(cand, [ref])
            widened = bleu(cand, [ref + extra])
            for a, b in zip(base, widened):
                assert b >= a - 1e-12


    def test_extra_reference_can_add_a_brevity_penalty(self):
        """A longer extra reference can become the closest length and so
        lower BLEU, though no match is lost."""
        cand = [["a", "b", "c", "d"]]
        assert bleu(cand, [[["a", "b"]]])[0] == 0.5
        widened = bleu(cand, [[["a", "b"], ["x", "y", "z", "w", "v"]]])[0]
        assert widened == 0.5 * math.exp(1.0 - 5 / 4)
        assert abs(widened - 0.389) < 1e-3


class TestRougeL:
    def test_identical_scores_one(self):
        score, _ = rouge_l(toks("a b c"), [toks("a b c")])
        assert score == 1.0

    def test_disjoint_scores_zero(self):
        score, _ = rouge_l(toks("a b"), [toks("x y")])
        assert score == 0.0

    def test_lcs_example(self):
        # "a b c d" vs "a c d b": LCS is "a c d", so P = R = 3/4 and the
        # F-measure collapses to 3/4 regardless of beta
        score, _ = rouge_l(toks("a b c d"), [toks("a c d b")])
        assert abs(score - 0.75) < 1e-12

    def test_beta_weighting(self):
        # P = 2/2, R = 2/4: F = (1 + b^2) P R / (R + b^2 P)
        beta = 1.2
        score, _ = rouge_l(toks("a b"), [toks("a b c d")])
        expected = (1 + beta ** 2) * 1.0 * 0.5 / (0.5 + beta ** 2 * 1.0)
        assert abs(score - expected) < 1e-12

    def test_multiple_references_take_best(self):
        score, _ = rouge_l(toks("a b c"), [toks("x y z", "a b c")])
        assert score == 1.0

    def test_extra_reference_never_hurts(self):
        rng = np.random.default_rng(1)
        words = list("abcde")
        for _ in range(30):
            cand = [rng.choice(words, size=4).tolist()]
            ref = [rng.choice(words, size=4).tolist()]
            extra = [rng.choice(words, size=4).tolist()]
            a, _ = rouge_l(cand, [ref])
            b, _ = rouge_l(cand, [ref + extra])
            assert b >= a - 1e-12


class TestCiderD:
    def test_single_segment_degenerates_to_zero(self):
        with pytest.warns(UserWarning, match="single-segment"):
            score, per = cider_d(toks("a b"), [toks("a b")])
        assert score == 0.0 and per == [0.0]

    def test_gaussian_length_penalty(self):
        # candidate and reference overlap only on the unigram "w" with
        # a 20-word length gap; cosine is 1 at order 1 and 0 above, so the
        # per-segment score is 10/4 times the Gaussian factor
        cand = [["w"], ["z", "z"]]
        refs = [[["w"] * 21], [["z", "z"]]]
        _, per = cider_d(cand, refs)
        expected = 10.0 / 4.0 * math.exp(-400.0 / 72.0)
        assert abs(per[0] - expected) < 1e-12

    def test_three_segment_corpus_matches_explicit_vector_oracle(self):
        cands = toks("a b c", "b c d", "e f")
        refs = [toks("a b c", "a b"), toks("b c d"), toks("e f g")]
        _, per = cider_d(cands, refs)

        # independent oracle: enumerate the n-gram universe, build dense
        # tf-idf vectors, and take clipped cosines with numpy
        def grams(sent, n):
            return [tuple(sent[i:i + n]) for i in range(len(sent) - n + 1)]

        universe = [set() for _ in range(4)]
        for group in refs + [[c] for c in cands]:
            for sent in group:
                for n in range(4):
                    universe[n].update(grams(sent, n + 1))
        universe = [sorted(u) for u in universe]
        doc_freq = [
            {g: sum(1 for group in refs
                    if any(g in grams(sent, n + 1) for sent in group))
             for g in universe[n]}
            for n in range(4)
        ]
        log_docs = math.log(3)

        def dense(sent, n):
            vec = np.zeros(len(universe[n]))
            for g in grams(sent, n + 1):
                i = universe[n].index(g)
                vec[i] += 1
            for i, g in enumerate(universe[n]):
                vec[i] *= log_docs - math.log(max(1.0, doc_freq[n].get(g, 0)))
            return vec

        expected = []
        for cand, group in zip(cands, refs):
            total = 0.0
            for ref in group:
                penalty = math.exp(-((len(cand) - len(ref)) ** 2) / 72.0)
                for n in range(4):
                    cv, rv = dense(cand, n), dense(ref, n)
                    dot = float(np.sum(np.minimum(cv, rv) * rv))
                    denom = float(np.linalg.norm(cv) * np.linalg.norm(rv))
                    if denom > 0:
                        total += penalty * dot / denom / 4.0
            expected.append(10.0 * total / len(group))
        assert np.max(np.abs(np.array(per) - np.array(expected))) < 1e-9

    def test_needs_reference_counts(self):
        with pytest.raises(ContractError):
            cider_d(toks("a"), [[]])


class TestFrozenReference:
    def test_random_corpora_equal_the_per_order_reference(self):
        # 500 seeded corpora of 1-6 segments with 1-3 references each, over
        # five words so that n-grams repeat; every fifth corpus is a single
        # segment, whose CIDEr-D warning is expected
        rng = np.random.default_rng(14)
        words = list("abcde")
        seen = {"empty": 0, "repeated phrase": 0, "copied reference": 0, "3 references": 0}

        def sentence():
            kind = rng.integers(4)
            if kind == 0:
                seen["empty"] += 1
                return []
            if kind == 1:
                seen["repeated phrase"] += 1
                return rng.choice(words, size=rng.integers(1, 4)).tolist() * int(rng.integers(2, 4))
            return rng.choice(words, size=rng.integers(1, 12)).tolist()

        for trial in range(500):
            segments = 1 if trial % 5 == 0 else int(rng.integers(2, 7))
            refs = [[sentence() for _ in range(rng.integers(1, 4))] for _ in range(segments)]
            cands = [sentence() for _ in range(segments)]
            for i, group in enumerate(refs):
                seen["3 references"] += len(group) == 3
                if rng.integers(3) == 0:
                    seen["copied reference"] += 1
                    cands[i] = list(group[-1])
            assert bleu(cands, refs) == bleu_reference(cands, refs)
            expect_warning = pytest.warns(UserWarning, match="single-segment") \
                if segments == 1 else contextlib.nullcontext()
            with expect_warning:
                assert cider_d(cands, refs) == cider_d_reference(cands, refs)
        assert min(seen.values()) > 0


class TestInvariances:
    def test_vocabulary_relabeling_leaves_scores_unchanged(self):
        cands = toks("a b c", "c a")
        refs = [toks("a b c d"), toks("c a b")]
        relabel = {"a": "t9", "b": "t7", "c": "t5", "d": "t3"}
        cands2 = [[relabel[w] for w in c] for c in cands]
        refs2 = [[[relabel[w] for w in r] for r in group] for group in refs]
        assert bleu(cands, refs) == bleu(cands2, refs2)
        assert rouge_l(cands, refs) == rouge_l(cands2, refs2)
        assert cider_d(cands, refs) == cider_d(cands2, refs2)


class TestEvaluateCaptions:
    def test_perfect_predictions(self):
        refs = {"s1": ["the cat sat down"], "s2": ["a dog runs far away"]}
        preds = {"s1": "the cat sat down", "s2": "a dog runs far away"}
        report = evaluate_captions(preds, refs)
        assert report.bleu == [1.0, 1.0, 1.0, 1.0]
        assert report.rouge_l == 1.0
        assert set(report.per_segment) == {"s1", "s2"}

    def test_missing_prediction_rejected(self):
        with pytest.raises(ContractError, match="missing"):
            evaluate_captions({"s1": "a"}, {"s1": ["a"], "s2": ["b"]})

    def test_report_serializes(self):
        refs = {"s1": ["a b c d"], "s2": ["b c d e"]}
        preds = {"s1": "a b c d", "s2": "x"}
        d = evaluate_captions(preds, refs).to_dict()
        assert d["meta"]["bleu_style"] == "corpus"
        assert len(d["bleu"]) == 4
