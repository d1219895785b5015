"""Evaluation metrics: smoothed BLEU and the unbiased pass@k estimator.

BLEU is computed over SVA-aware tokens (the benchmark's lexer where the text
parses, with a regex fallback for malformed responses), with add-one
smoothing on higher-order n-grams -- the paper reports BLEU as a lexical
similarity baseline and shows (Figure 6) that it does not track formal
equivalence.

pass@k follows the unbiased estimator of Chen et al. (2021), as cited by the
paper for Table 5: ``1 - C(n-c, k) / C(n, k)``.
"""

from __future__ import annotations

import math
import re
from collections import Counter

from ..memo import LruMemo
from ..sva.lexer import strip_code_fences

_FALLBACK_TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_$]*|\d+|##|\|->|\|=>|===|!==|[^\sA-Za-z0-9_]")


def sva_tokens(text: str) -> list[str]:
    """Tokenize SVA text for BLEU.

    BLEU is a *text*-level similarity baseline in the paper (standard
    n-gram BLEU over the raw code string), so whitespace tokenization is
    used: formatting, parenthesization and comments all count, which is why
    BLEU fails to track formal equivalence (Figure 6).
    """
    return strip_code_fences(text).split()


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n])
                   for i in range(len(tokens) - n + 1))


#: scores by (candidate, reference, max_n): about 0.15 KB each.  4096 covers
#: one model's 1895 NL2SVA responses (79 Human + 300 Machine problems,
#: five samples each) with margin.
_SCORES = LruMemo("eval.bleu", 4096)
#: a reference's token count and 1..max_n-gram tables by (reference,
#: max_n), about 5 KB each: the five samples of a problem share them.
#: 512 covers the paper's 379 NL2SVA references.
_REFERENCES = LruMemo("eval.bleu.reference", 512)


def _reference_tables(reference: str, max_n: int):
    ref = sva_tokens(reference)
    return len(ref), tuple(_ngrams(ref, n) for n in range(1, max_n + 1))


def sentence_bleu(candidate: str, reference: str, max_n: int = 4) -> float:
    """Smoothed sentence-level BLEU between two SVA snippets (memoised)."""
    return _SCORES.get((candidate, reference, max_n),
                       lambda: _sentence_bleu(candidate, reference, max_n))


def _sentence_bleu(candidate: str, reference: str, max_n: int) -> float:
    cand = sva_tokens(candidate)
    ref_len, ref_tables = _REFERENCES.get(
        (reference, max_n), lambda: _reference_tables(reference, max_n))
    if not cand or not ref_len:
        return 0.0
    log_precision = 0.0
    for n, ref_ngrams in enumerate(ref_tables, 1):
        cand_ngrams = _ngrams(cand, n)
        # a Counter answers a missing gram 0 without storing it, so the
        # shared tables are only read
        overlap = sum(min(count, ref_ngrams[gram])
                      for gram, count in cand_ngrams.items())
        total = max(1, sum(cand_ngrams.values()))
        if n == 1:
            precision = overlap / total
            if precision == 0.0:
                return 0.0
        else:
            # add-one smoothing for higher-order n-grams
            precision = (overlap + 1) / (total + 1)
        log_precision += math.log(precision)
    log_precision /= max_n
    brevity = min(1.0, math.exp(1 - ref_len / max(1, len(cand))))
    return brevity * math.exp(log_precision)


def corpus_bleu(pairs: list[tuple[str, str]], max_n: int = 4) -> float:
    """Corpus-level BLEU over (candidate, reference) pairs."""
    clipped = [0] * (max_n + 1)
    totals = [0] * (max_n + 1)
    cand_len = 0
    ref_len = 0
    for candidate, reference in pairs:
        cand = sva_tokens(candidate)
        ref = sva_tokens(reference)
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            cand_ngrams = _ngrams(cand, n)
            ref_ngrams = _ngrams(ref, n)
            clipped[n] += sum(min(count, ref_ngrams[gram])
                              for gram, count in cand_ngrams.items())
            totals[n] += sum(cand_ngrams.values())
    if cand_len == 0 or totals[1] == 0 or clipped[1] == 0:
        return 0.0
    log_precision = 0.0
    for n in range(1, max_n + 1):
        if n == 1:
            precision = clipped[n] / max(1, totals[n])
        else:
            precision = (clipped[n] + 1) / (totals[n] + 1)
        if precision == 0.0:
            return 0.0
        log_precision += math.log(precision)
    log_precision /= max_n
    brevity = min(1.0, math.exp(1 - ref_len / max(1, cand_len)))
    return brevity * math.exp(log_precision)


def pass_at_k(n: int, c: int, k: int) -> float:
    """Unbiased pass@k (Chen et al. 2021): probability that at least one of
    k samples drawn without replacement from n attempts (c correct) passes.
    """
    if n < 0 or c < 0 or c > n:
        raise ValueError(f"invalid counts n={n} c={c}")
    if k <= 0:
        raise ValueError("k must be positive")
    if k > n:
        k = n
    if c == 0:
        return 0.0
    if n - c < k:
        return 1.0
    return 1.0 - math.comb(n - c, k) / math.comb(n, k)


def mean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def pearson_corr(xs: list[float], ys: list[float]) -> float:
    """Pearson correlation coefficient (Figure 6's BLEU-vs-func analysis)."""
    if len(xs) != len(ys) or len(xs) < 2:
        return 0.0
    mx = mean(xs)
    my = mean(ys)
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = math.sqrt(sum((x - mx) ** 2 for x in xs))
    vy = math.sqrt(sum((y - my) ** 2 for y in ys))
    if vx == 0 or vy == 0:
        return 0.0
    return cov / (vx * vy)
