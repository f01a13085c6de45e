"""Corpus caption metrics: BLEU@1-4, ROUGE-L, CIDEr-D.

BLEU is corpus-level: clipped n-gram counts and candidate/reference lengths
are aggregated over all segments before the geometric mean and brevity
penalty. ROUGE-L is the LCS F-measure with beta=1.2, best reference taken per
segment, averaged over segments. CIDEr-D is the clipped TF-IDF cosine over
n-gram orders 1..4 with a Gaussian length penalty (sigma=6) and a x10 scale;
document frequencies come from the reference corpus, so a single-segment
corpus degenerates to zero idf and a zero score.

BLEU and CIDEr-D read one n-gram count per sentence, `ngrams`: every order
1..4 in one Counter, shortest first, so an n-gram's order is its length.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field

from .tensor import ContractError

ROUGE_BETA = 1.2
CIDER_SIGMA = 6.0
CIDER_SCALE = 10.0
NGRAM_ORDERS = 4

Sentence = list[str]


def _check_inputs(candidates, references):
    if not candidates:
        raise ContractError("empty candidate list")
    if len(candidates) != len(references):
        raise ContractError(
            f"{len(candidates)} candidates vs {len(references)} reference groups")
    for refs in references:
        if not refs:
            raise ContractError("every segment needs at least one reference")


def ngrams(tokens: Sentence) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for n in range(1, NGRAM_ORDERS + 1)
                   for i in range(len(tokens) - n + 1))


def bleu(candidates: list[Sentence], references: list[list[Sentence]]) -> list[float]:
    """Corpus BLEU@1..4. Zero clipped matches at some order zero out that
    order and every higher one; no smoothing is applied."""
    _check_inputs(candidates, references)
    matched = [0] * NGRAM_ORDERS
    possible = [0] * NGRAM_ORDERS
    cand_len = 0
    ref_len = 0
    for cand, refs in zip(candidates, references):
        cand_len += len(cand)
        # closest reference length; ties go to the shorter reference
        ref_len += min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]
        max_ref: Counter = Counter()
        for r in refs:
            max_ref |= ngrams(r)
        for gram, c in ngrams(cand).items():
            possible[len(gram) - 1] += c
            matched[len(gram) - 1] += min(c, max_ref[gram])

    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / max(cand_len, 1))
    scores = []
    log_sum = 0.0
    for n in range(NGRAM_ORDERS):
        if not matched[n]:
            return scores + [0.0] * (NGRAM_ORDERS - n)
        log_sum += math.log(matched[n] / possible[n])
        scores.append(brevity * math.exp(log_sum / (n + 1)))
    return scores


def _lcs_length(a: Sentence, b: Sentence) -> int:
    rows = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                rows[i][j] = rows[i - 1][j - 1] + 1
            else:
                rows[i][j] = max(rows[i - 1][j], rows[i][j - 1])
    return rows[len(a)][len(b)]


def rouge_l(candidates: list[Sentence],
            references: list[list[Sentence]]) -> tuple[float, list[float]]:
    """LCS F-measure, best reference per segment, averaged over segments."""
    _check_inputs(candidates, references)
    per_segment = []
    for cand, refs in zip(candidates, references):
        best = 0.0
        for ref in refs:
            lcs = _lcs_length(cand, ref) if cand and ref else 0
            if lcs == 0:
                continue
            precision = lcs / len(cand)
            recall = lcs / len(ref)
            score = (1 + ROUGE_BETA ** 2) * precision * recall \
                / (recall + ROUGE_BETA ** 2 * precision)
            best = max(best, score)
        per_segment.append(best)
    return sum(per_segment) / len(per_segment), per_segment


def _tfidf_vector(counts: Counter, doc_freq: Counter, log_num_docs: float):
    vec = [dict() for _ in range(NGRAM_ORDERS)]
    norm = [0.0] * NGRAM_ORDERS
    for gram, tf in counts.items():
        idf = log_num_docs - math.log(max(1.0, doc_freq[gram]))
        n = len(gram) - 1
        vec[n][gram] = tf * idf
        norm[n] += vec[n][gram] ** 2
    return vec, [math.sqrt(v) for v in norm]


def cider_d(candidates: list[Sentence],
            references: list[list[Sentence]]) -> tuple[float, list[float]]:
    """Clipped TF-IDF cosine over orders 1..4, Gaussian length penalty,
    averaged over references then segments, scaled by 10."""
    _check_inputs(candidates, references)
    if len(candidates) < 2:
        warnings.warn("single-segment corpus: idf degenerates and CIDEr-D is 0",
                      stacklevel=2)

    doc_freq: Counter = Counter()
    for refs in references:
        doc_freq.update(set().union(*map(ngrams, refs)))
    log_num_docs = math.log(len(references))

    per_segment = []
    for cand, refs in zip(candidates, references):
        cand_vec, cand_norm = _tfidf_vector(ngrams(cand), doc_freq, log_num_docs)
        total = 0.0
        for ref in refs:
            ref_vec, ref_norm = _tfidf_vector(ngrams(ref), doc_freq, log_num_docs)
            delta = float(len(cand) - len(ref))
            penalty = math.exp(-(delta ** 2) / (2.0 * CIDER_SIGMA ** 2))
            for n in range(NGRAM_ORDERS):
                dot = sum(min(w, ref_vec[n].get(gram, 0.0)) * ref_vec[n].get(gram, 0.0)
                          for gram, w in cand_vec[n].items())
                if cand_norm[n] > 0 and ref_norm[n] > 0:
                    total += penalty * dot / (cand_norm[n] * ref_norm[n]) / NGRAM_ORDERS
        per_segment.append(CIDER_SCALE * total / len(refs))
    return sum(per_segment) / len(per_segment), per_segment


@dataclass
class MetricReport:
    bleu: list[float]
    rouge_l: float
    cider_d: float
    per_segment: dict[str, dict[str, float]] = field(default_factory=dict)
    meta: dict[str, str] = field(default_factory=lambda: {"bleu_style": "corpus"})

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate_captions(predictions: dict[str, str],
                      references: dict[str, list[str]]) -> MetricReport:
    """Score a predictions map against a references map; keys must align."""
    if not isinstance(predictions, dict) or not isinstance(references, dict):
        raise ContractError("predictions and references must be JSON objects")
    missing = sorted(set(references) - set(predictions))
    if missing:
        raise ContractError(f"predictions missing for segments: {missing[:5]}")
    segment_ids = sorted(references)
    for s in segment_ids:
        if not isinstance(predictions[s], str):
            raise ContractError(f"prediction for segment {s!r} must be a string")
        refs_s = references[s]
        if not isinstance(refs_s, list) or not all(isinstance(r, str) for r in refs_s):
            raise ContractError(f"references for segment {s!r} must be a list of strings")
    cands = [predictions[s].lower().split() for s in segment_ids]
    refs = [[r.lower().split() for r in references[s]] for s in segment_ids]
    bleu_scores = bleu(cands, refs)
    rouge_score, rouge_per = rouge_l(cands, refs)
    cider_score, cider_per = cider_d(cands, refs)
    per_segment = {
        sid: {"rouge_l": rouge_per[i], "cider_d": cider_per[i]}
        for i, sid in enumerate(segment_ids)
    }
    return MetricReport(bleu=bleu_scores, rouge_l=rouge_score, cider_d=cider_score,
                        per_segment=per_segment)
