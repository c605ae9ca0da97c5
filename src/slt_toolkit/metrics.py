"""Corpus BLEU, stop-word-reduced BLEU and checkpoint selection.

BLEU follows the classic corpus-level definition: clipped modified n-gram
precisions up to order 4 summed over segments, combined by geometric mean,
multiplied by the brevity penalty exp(1 - r/c) when the hypothesis is
shorter than the reference. Tokenization is whitespace splitting; inputs
are assumed pre-normalized; scores sum per-segment sufficient statistics.

Reduced BLEU deletes blacklisted stop/function words from both sides
before scoring, the one reading ``select_checkpoint`` ranks by; ``bleu`` is
reduced BLEU with no stop words. For a hypothesis-only reading, score
``remove_stopwords`` of each hypothesis with ``bleu``. A stop list is read
from a word-list file by ``corpus.function_words``, so its words are in
NFC, stripped and lowercased, with the apostrophe-stripped form of each
added.

Large inputs are scored in forked shards (``shards.forked_map``); README.md
says when.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cache
from itertools import chain
from operator import add
from pathlib import Path
from typing import Literal, NamedTuple, Sequence, get_args

from .corpus import DATA, function_words

NGRAM_ORDER = 4

Smoothing = Literal["none", "exp"]
Segments = Sequence[str]


def _check_smoothing(smoothing: str) -> None:
    allowed = get_args(Smoothing)
    if smoothing not in allowed:
        raise ValueError("smoothing must be one of "
                         f"{', '.join(map(repr, allowed))}, not {smoothing!r}")


class BleuScore(NamedTuple):
    score: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    hyp_len: int
    ref_len: int

    def to_dict(self) -> dict:
        return self._asdict() | {"precisions": list(self.precisions)}


def _grams(tokens: list[str]) -> list[list]:
    """The n-grams of orders 1..NGRAM_ORDER, one list per order. Unigrams
    are the token list itself and higher orders tuples, so no n-gram of one
    order equals one of another."""
    # Written out for NGRAM_ORDER == 4: three tails, shared by the zips.
    t1, t2, t3 = tokens[1:], tokens[2:], tokens[3:]
    return [tokens, [*zip(tokens, t1)], [*zip(tokens, t1, t2)],
            [*zip(tokens, t1, t2, t3)]]


def _score(matches: list[int], totals: list[int], ref_len: int,
           smoothing: Smoothing) -> BleuScore:
    """Corpus BLEU from its sufficient statistics, summed over segments:
    clipped matches and n-gram totals per order (the unigram total is the
    hypothesis length) and the reference length."""
    hyp_len = totals[0]
    precisions = [0.0] * NGRAM_ORDER
    log_sum = 0.0
    # As sacreBLEU: the k-th order without a match (k from 1) counts
    # 1/(2^k * total), and no match at any order scores 0.
    smooth = smoothing == "exp" and any(matches)
    zero_orders = 0
    zero_score = False
    for n in range(NGRAM_ORDER):
        if totals[n] == 0:
            # No n-grams of this order: vacuous, precision 1 in the mean.
            precisions[n] = 1.0
            continue
        if matches[n] > 0:
            precisions[n] = matches[n] / totals[n]
        elif smooth:
            zero_orders += 1
            precisions[n] = 1.0 / (2 ** zero_orders * totals[n])
        else:
            precisions[n] = 0.0
            zero_score = True
        if not zero_score:
            log_sum += math.log(precisions[n]) / NGRAM_ORDER
    if hyp_len == 0:
        return BleuScore(0.0, tuple(precisions), 1.0, 0, ref_len)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    score = 0.0 if zero_score else 100.0 * bp * math.exp(log_sum)
    return BleuScore(score, tuple(precisions), bp, hyp_len, ref_len)


def _content(tokens: list[str], words: frozenset[str]) -> list[str]:
    return [t for t in tokens if t.lower() not in words] if words else tokens


def _accumulate(labelled: Sequence[tuple[str, Segments]], refs: Segments,
                views: Sequence[frozenset[str]]
                ) -> list[list[tuple[list[int], list[int], int]]]:
    """The ``_score`` statistics of each labelled hypothesis set under each
    view (the words deleted from both sides), walking the references one
    segment at a time and scoring every set against it in one step. Only an
    empty unreduced reference side is an error. The segments are scored in
    ``forked_map`` shards; the sums are integers, so they are the same in
    any split."""
    ref_lines = list(refs)
    hyp_sets = [list(hyps) for _, hyps in labelled]
    for (label, _), hyp_lines in zip(labelled, hyp_sets):
        if len(hyp_lines) != len(ref_lines):
            raise ValueError(f"{label}: {len(hyp_lines)} hypothesis "
                             f"segments vs {len(ref_lines)} references")
    if not any(line.split() for line in ref_lines):
        raise ValueError("reference corpus is empty")
    from .shards import forked_map
    # Per view: NGRAM_ORDER matches and totals per set, and the ref length.
    width = NGRAM_ORDER * len(hyp_sets)
    rows = [*zip(ref_lines, *hyp_sets)]
    sums, *rest = forked_map(lambda shard: _sums(shard, views, width), rows,
                             len(hyp_sets) * len(views))
    for part in rest:
        for row, (matches, totals, ref_len) in zip(sums, part):
            row[0] = [*map(add, row[0], matches)]
            row[1] = [*map(add, row[1], totals)]
            row[2] += ref_len
    return [[(matches[i:i + NGRAM_ORDER], totals[i:i + NGRAM_ORDER], ref_len)
             for i in range(0, width, NGRAM_ORDER)]
            for matches, totals, ref_len in sums]


def _sums(rows: Sequence[tuple[str, ...]], views: Sequence[frozenset[str]],
          width: int) -> list[list]:
    """Per view, ``[matches, totals, ref_len]`` summed over ``rows``, each a
    reference line followed by one line of every hypothesis set."""
    sums = [[[0] * width, [0] * width, 0] for _ in views]
    for ref_line, *hyp_lines in rows:
        ref_tokens = ref_line.split()
        hyp_tokens = [line.split() for line in hyp_lines]
        for words, row in zip(views, sums):
            kept = _content(ref_tokens, words)
            ref_grams = [*chain(*_grams(kept))]
            keys = set(ref_grams)
            grams = [*chain.from_iterable(map(_grams, [
                _content(tokens, words) for tokens in hyp_tokens]))]
            # This segment's matches: each distinct hit clips to 1, and an
            # n-gram the reference holds r > 1 times adds min(c, r) - 1 for
            # a hypothesis that holds it c > 1 times.
            hits = [*map(len, map(keys.intersection, grams))]
            if len(keys) < len(ref_grams):
                for gram, ref in Counter(ref_grams).items():
                    if ref > 1:
                        order = 0 if gram.__class__ is str else len(gram) - 1
                        for i in range(order, width, NGRAM_ORDER):
                            count = grams[i].count(gram)
                            if count > 1:
                                hits[i] += (count if count < ref else ref) - 1
            row[0] = [*map(add, row[0], hits)]
            row[1] = [*map(add, row[1], map(len, grams))]
            row[2] += len(kept)
    return sums


def bleu(hyps: Segments, refs: Segments, smoothing: Smoothing = "none") -> BleuScore:
    return reduced_bleu(hyps, refs, frozenset(), smoothing)


def read_stop_words(path: str | Path) -> frozenset[str]:
    """The ``function_words`` of a file and the apostrophe-stripped form of
    each ("geht's" -> "gehts") unless empty; errors name the file and the
    line."""
    words = function_words(path)
    return words | {bare for w in words if (bare := w.replace("'", ""))}


@cache
def default_stoplist() -> frozenset[str]:
    """The bundled list, built once per process and shared by all callers."""
    return read_stop_words(DATA / "stopwords_de.txt")


def remove_stopwords(segment: str, stops: frozenset[str]) -> str:
    return " ".join(_content(segment.split(), stops))


def reduced_bleu(hyps: Segments, refs: Segments, stops: frozenset[str],
                 smoothing: Smoothing = "none") -> BleuScore:
    _check_smoothing(smoothing)
    [[stats]] = _accumulate([("segment count mismatch", hyps)], refs,
                            [stops])
    return _score(*stats, smoothing)


def count_stopwords(hyps: Segments, stops: frozenset[str]
                    ) -> tuple[int, float]:
    tokens = [token for line in hyps for token in line.split()]
    count = len(tokens) - len(_content(tokens, stops))
    return count, (count / len(tokens) if tokens else 0.0)


class CandidateScores(NamedTuple):
    name: str
    bleu: BleuScore
    reduced: BleuScore
    stopword_count: int
    stopword_fraction: float


class SelectionReport(NamedTuple):
    candidates: tuple[CandidateScores, ...]
    winner: str

    def to_dict(self) -> dict:
        return {
            "winner": self.winner,
            "candidates": [{
                "name": c.name,
                "bleu": c.bleu.to_dict(),
                "reduced_bleu": c.reduced.to_dict(),
                "stopword_count": c.stopword_count,
                "stopword_fraction": c.stopword_fraction,
            } for c in self.candidates],
        }


def select_checkpoint(candidates: Sequence[tuple[str, Segments]],
                      refs: Segments, stops: frozenset[str],
                      smoothing: Smoothing = "none") -> SelectionReport:
    """Rank candidates by reduced BLEU; ties break toward fewer stop words,
    then lexicographic name."""
    _check_smoothing(smoothing)
    if not candidates:
        raise ValueError("need at least one candidate")
    seen = set()
    for name, _ in candidates:
        if name in seen:
            raise ValueError(f"duplicate candidate name '{name}'")
        seen.add(name)
    full, reduced = _accumulate(
        [(f"candidate '{name}'", hyps) for name, hyps in candidates], refs,
        [frozenset(), stops])
    scored = []
    for (name, _), whole, kept in zip(candidates, full, reduced):
        whole, kept = _score(*whole, smoothing), _score(*kept, smoothing)
        count = whole.hyp_len - kept.hyp_len
        fraction = count / whole.hyp_len if whole.hyp_len else 0.0
        scored.append(CandidateScores(name, whole, kept, count, fraction))
    winner = min(scored, key=lambda c: (-c.reduced.score, c.stopword_count,
                                        c.name))
    return SelectionReport(tuple(scored), winner.name)
