"""Tests for BLEU, reduced BLEU, stop-word accounting and selection.

The BLEU implementation is checked against a deliberately naive oracle
that builds explicit n-gram dictionaries per segment and combines them
with the textbook formula.
"""

import math
import os
import random
import unicodedata
from collections import Counter
from itertools import chain
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from slt_toolkit import shards
from slt_toolkit.metrics import (
    _accumulate,
    bleu,
    count_stopwords,
    default_stoplist,
    read_stop_words,
    reduced_bleu,
    remove_stopwords,
    select_checkpoint,
)


def oracle_bleu(hyps, refs, smoothing="none"):
    """Brute-force corpus BLEU-4, unsmoothed or with sacreBLEU's "exp"
    smoothing: the k-th order without a match counts 1/(2^k * total), and
    no match at any order scores 0."""
    matches = {n: 0 for n in (1, 2, 3, 4)}
    totals = {n: 0 for n in (1, 2, 3, 4)}
    hyp_len = sum(len(h.split()) for h in hyps)
    ref_len = sum(len(r.split()) for r in refs)
    for hyp, ref in zip(hyps, refs):
        h_tokens, r_tokens = hyp.split(), ref.split()
        for n in (1, 2, 3, 4):
            h_grams = [tuple(h_tokens[i:i + n])
                       for i in range(len(h_tokens) - n + 1)]
            r_grams = [tuple(r_tokens[i:i + n])
                       for i in range(len(r_tokens) - n + 1)]
            totals[n] += len(h_grams)
            for gram in set(h_grams):
                matches[n] += min(h_grams.count(gram), r_grams.count(gram))
    if hyp_len == 0 or not any(matches.values()):
        return 0.0
    product = 1.0
    zero_orders = 0
    for n in (1, 2, 3, 4):
        if totals[n] == 0:
            continue  # order vacuous for very short corpora
        if matches[n] > 0:
            product *= matches[n] / totals[n]
        elif smoothing == "exp":
            zero_orders += 1
            product /= 2 ** zero_orders * totals[n]
        else:
            return 0.0
    bp = 1.0 if hyp_len >= ref_len else math.exp(1 - ref_len / hyp_len)
    return 100.0 * bp * product ** 0.25


def _random_corpus(rng, max_segments=10, max_tokens=12, vocab=8):
    words = [f"w{i}" for i in range(vocab)]
    return [" ".join(rng.choice(words)
                     for _ in range(rng.randrange(1, max_tokens + 1)))
            for _ in range(rng.randrange(1, max_segments + 1))]


def test_bleu_matches_oracle_on_random_corpora():
    rng = random.Random(42)
    for _ in range(1000):
        refs = _random_corpus(rng)
        # Mix of related and unrelated hypotheses.
        hyps = [r if rng.random() < 0.3 else _random_corpus(rng, 1)[0]
                for r in refs]
        expected = oracle_bleu(hyps, refs)
        assert bleu(hyps, refs).score == pytest.approx(expected, abs=1e-9)


def test_bleu_hand_case():
    result = bleu(["a b c d"], ["a b c d e"])
    assert result.precisions == (1.0, 1.0, 1.0, 1.0)
    assert result.brevity_penalty == pytest.approx(math.exp(-0.25))
    assert result.score == pytest.approx(77.880, abs=1e-3)
    assert (result.hyp_len, result.ref_len) == (4, 5)


def test_bleu_identity_is_100():
    rng = random.Random(99)
    for _ in range(100):
        corpus = _random_corpus(rng)
        result = bleu(corpus, corpus)
        assert result.score == pytest.approx(100.0)
        assert result.brevity_penalty == 1.0


def test_bleu_clipping():
    # "die" appears once in the reference: clipped unigram count is 1 of 3.
    result = bleu(["die die die"], ["die katze"])
    assert result.precisions[0] == pytest.approx(1 / 3)
    assert result.score == 0.0  # no bigram match under no-smoothing


def test_bleu_exp_smoothing_nonzero():
    result = bleu(["die die die"], ["die katze"], smoothing="exp")
    assert result.score > 0.0
    assert all(p > 0 for p in result.precisions)


def test_bleu_exp_smoothing_hand_cases():
    # Unigrams 3/4 and bigrams 1/3 match; the 1st and 2nd orders without a
    # match get 1/(2*2) and 1/(4*1): 100 * (3/4 * 1/3 * 1/4 * 1/4)^(1/4).
    result = bleu(["a b c d"], ["a b x d"], smoothing="exp")
    assert result.precisions == (0.75, 1 / 3, 0.25, 0.25)
    assert result.score == pytest.approx(100 * 2 ** -1.5)
    # Unigram 1/3; bigrams 0/2 -> 1/4, trigrams 0/1 -> 1/4, 4-grams vacuous.
    result = bleu(["die die die"], ["die katze"], smoothing="exp")
    assert result.precisions == (1 / 3, 0.25, 0.25, 1.0)
    assert result.score == pytest.approx(100 * (1 / 48) ** 0.25)
    # No match at any order: 0, as unsmoothed.
    assert bleu(["x"], ["y"], smoothing="exp") == bleu(["x"], ["y"])
    assert bleu(["x"], ["y"], smoothing="exp").score == 0.0


def test_select_exp_no_match_scores_zero():
    # Both reduced references are empty, so no reduced order matches and
    # both reduced scores are 0.0; fewer stop words then picks "b".
    report = select_checkpoint([("a", ["der hund"]), ("b", ["hund bellt"])],
                               ["der die"], default_stoplist(), "exp")
    assert [c.reduced.score for c in report.candidates] == [0.0, 0.0]
    assert report.winner == "b"


def test_bleu_permutation_invariance():
    rng = random.Random(5)
    refs = _random_corpus(rng, max_segments=8)
    hyps = [_random_corpus(rng, 1)[0] for _ in refs]
    base = bleu(hyps, refs).score
    order = list(range(len(refs)))
    rng.shuffle(order)
    shuffled = bleu([hyps[i] for i in order], [refs[i] for i in order]).score
    assert shuffled == pytest.approx(base)


def test_bleu_length_mismatch():
    with pytest.raises(ValueError, match="2.*1|1.*2"):
        bleu(["a", "b"], ["a"])


def test_bleu_empty_reference():
    with pytest.raises(ValueError, match="empty"):
        bleu([""], [""])


def test_unknown_smoothing_or_side_is_an_error():
    stops = default_stoplist()
    with pytest.raises(ValueError, match="smoothing .*'EXP'"):
        bleu(["a b c d"], ["a b c e"], smoothing="EXP")
    with pytest.raises(ValueError, match="smoothing .*'Exp'"):
        reduced_bleu(["hund bellt"], ["der hund bellt"], stops, "Exp")
    # Reduced BLEU has one reading, stop words deleted from both sides.
    for side in ("both", "hyp"):
        with pytest.raises(TypeError, match="'side'"):
            reduced_bleu(["hund bellt"], ["der hund bellt"], stops,
                         side=side)
    with pytest.raises(ValueError, match="smoothing .*'EXP'"):
        select_checkpoint([("a", ["hund"])], ["hund"], stops, "EXP")


def test_stoplist_integrity():
    stops = default_stoplist()
    assert "der" in stops
    assert "dem" in stops
    assert "geht's" in stops
    assert "gehts" in stops  # apostrophe-stripped variant
    assert "hund" not in stops
    assert len(stops) == 133  # 132 unique raw entries + "gehts"
    for word in stops:
        assert word == word.lower()
        assert " " not in word


# Words with at least one umlaut, which NFD decomposes, and maybe "ß",
# which it keeps.
_UMLAUT_WORDS = st.tuples(
    st.text("aouß", max_size=3), st.sampled_from("äöüÄÖÜ"),
    st.text("aouäöüß", max_size=3)).map("".join)


@settings(max_examples=100, deadline=None)
@given(st.lists(_UMLAUT_WORDS, min_size=1, max_size=5))
def test_nfd_stop_list_reads_as_its_nfc_form(tmp_path_factory, words):
    workdir = tmp_path_factory.mktemp("stoplist")
    text = "".join(word + "\n" for word in words)
    paths = [workdir / "nfc.txt", workdir / "nfd.txt"]
    for path, form in zip(paths, ["NFC", "NFD"]):
        path.write_text(unicodedata.normalize(form, text), encoding="utf-8")
    nfc, nfd = map(read_stop_words, paths)
    assert nfd == nfc
    for stops in (nfc, nfd):
        score = reduced_bleu([f"hund {words[0]}"], ["hund katze"], stops)
        assert score.hyp_len == 1


def test_remove_stopwords():
    stops = default_stoplist()
    assert remove_stopwords("der hund ist auf dem tisch", stops) == \
        "hund tisch"
    assert remove_stopwords("hund katze", stops) == "hund katze"
    assert remove_stopwords("der die das", stops) == ""


def test_remove_stopwords_idempotent():
    stops = default_stoplist()
    rng = random.Random(17)
    pool = ["der", "hund", "die", "katze", "ist", "schöne", "auf", "tag"]
    for _ in range(10_000):
        text = " ".join(rng.choice(pool) for _ in range(rng.randrange(0, 8)))
        once = remove_stopwords(text, stops)
        assert remove_stopwords(once, stops) == once


def test_count_stopwords():
    stops = default_stoplist()
    assert count_stopwords(["der hund", "die katze"], stops) == (2, 0.5)
    assert count_stopwords([], stops) == (0, 0.0)
    assert count_stopwords(["hund"], stops) == (0, 0.0)


def test_reduced_equals_bleu_without_stopwords():
    stops = default_stoplist()
    hyps = ["hund bellt laut", "katze schläft"]
    refs = ["hund bellt leise", "katze schläft gern"]
    assert reduced_bleu(hyps, refs, stops) == bleu(hyps, refs)


def test_reduced_bleu_filters_both_sides():
    stops = default_stoplist()
    hyps = ["der hund bellt laut sehr gut"]
    refs = ["die hund bellt laut sehr gut"]
    filtered_h = [remove_stopwords(h, stops) for h in hyps]
    filtered_r = [remove_stopwords(r, stops) for r in refs]
    assert reduced_bleu(hyps, refs, stops) == bleu(filtered_h, filtered_r)
    assert reduced_bleu(hyps, refs, stops).score == pytest.approx(100.0)


def test_all_stopword_hypothesis_scores_zero():
    stops = default_stoplist()
    result = reduced_bleu(["der die das und"], ["hund bellt laut gern"], stops)
    assert result.score == 0.0


def test_select_checkpoint_prefers_reduced_bleu():
    stops = default_stoplist()
    refs = ["es ist so dass der hund bellt"]
    # "stop_heavy" matches long stop-word n-grams but misses the content;
    # "content" nails the content words and nothing else. Standard BLEU
    # ranks them one way, reduced BLEU the other.
    candidates = [
        ("content", ["hund bellt"]),
        ("stop_heavy", ["es ist so dass die katze bellt"]),
    ]
    report = select_checkpoint(candidates, refs, stops)
    by_name = {c.name: c for c in report.candidates}
    assert by_name["stop_heavy"].bleu.score > by_name["content"].bleu.score
    assert by_name["content"].reduced.score > by_name["stop_heavy"].reduced.score
    assert by_name["stop_heavy"].stopword_count > \
        by_name["content"].stopword_count
    assert report.winner == "content"


def test_select_single_candidate():
    stops = default_stoplist()
    report = select_checkpoint([("only", ["hund"])], ["hund"], stops)
    assert report.winner == "only"


def test_select_tie_breaks():
    stops = default_stoplist()
    refs = ["hund bellt"]
    report = select_checkpoint(
        [("b", ["hund bellt"]), ("a", ["hund bellt"])], refs, stops)
    assert report.winner == "a"  # identical scores and counts: lexicographic
    report = select_checkpoint(
        [("a", ["der hund bellt"]), ("b", ["hund bellt"])],
        ["hund bellt"], stops)
    assert report.winner == "b"  # same reduced score, fewer stop words


def test_select_misaligned_candidate_named():
    stops = default_stoplist()
    with pytest.raises(ValueError, match="bad"):
        select_checkpoint([("bad", ["x", "y"])], ["x"], stops)


def test_select_all_stopword_reference_scores_zero():
    stops = default_stoplist()
    report = select_checkpoint([("a", ["der hund"]), ("b", ["hund"])],
                               ["der die"], stops)
    assert [c.reduced.score for c in report.candidates] == [0.0, 0.0]
    assert report.winner == "b"  # tie on 0.0: fewer stop words wins
    assert reduced_bleu(["der hund"], ["der die"], stops).score == 0.0
    with pytest.raises(ValueError, match="empty"):
        reduced_bleu(["hund"], [""], stops)


# Half of the vocabulary is stop words, so reduced sides are often short or
# empty; "Der" exercises the case-insensitive stop-word match.
_VOCAB = ["der", "Der", "die", "und", "hund", "katze", "bellt", "laut"]


def _segments(n, min_tokens):
    line = st.lists(st.sampled_from(_VOCAB), min_size=min_tokens,
                    max_size=7).map(" ".join)
    return st.lists(line, min_size=n, max_size=n)


@st.composite
def _selection_inputs(draw):
    n = draw(st.integers(1, 6))
    refs = draw(_segments(n, 1))
    candidates = [(f"c{i}", draw(_segments(n, 0)))
                  for i in range(draw(st.integers(1, 5)))]
    return refs, candidates


def _shards(k):
    """Force ``k`` shards in ``_accumulate``, which keeps small inputs in
    one process on its own."""
    return patch.object(shards, "_shard_count", lambda work: k)


@settings(max_examples=300, deadline=None)
@given(_selection_inputs(), st.sampled_from(["none", "exp"]))
def test_select_scores_equal_standalone_and_oracle(inputs, smoothing):
    refs, candidates = inputs
    stops = default_stoplist()
    report = select_checkpoint(candidates, refs, stops, smoothing)
    with _shards(3):
        assert select_checkpoint(candidates, refs, stops, smoothing) == \
            report
    assert [c.name for c in report.candidates] == [n for n, _ in candidates]

    def strip(lines):
        return [" ".join(t for t in line.split() if t.lower() not in
                         stops) for line in lines]

    for (_, hyps), scores in zip(candidates, report.candidates):
        assert scores.bleu == bleu(hyps, refs, smoothing)
        assert scores.reduced == reduced_bleu(hyps, refs, stops, smoothing)
        assert (scores.stopword_count, scores.stopword_fraction) == \
            count_stopwords(hyps, stops)
        assert scores.bleu.score == pytest.approx(
            oracle_bleu(hyps, refs, smoothing), abs=1e-9)
        assert scores.reduced.score == pytest.approx(
            oracle_bleu(strip(hyps), strip(refs), smoothing), abs=1e-9)
    bad = ("bad", candidates[0][1] + ["hund"])
    with pytest.raises(ValueError, match="candidate 'bad'"):
        select_checkpoint(candidates + [bad], refs, stops, smoothing)
    with _shards(3), pytest.raises(ValueError, match="candidate 'bad'"):
        select_checkpoint(candidates + [bad], refs, stops, smoothing)


def _loop_stats(pairs):
    """Reference for the _accumulate statistics: every distinct hypothesis
    n-gram, keyed as a tuple, clipped against the reference count in a
    Python loop."""
    def counts(tokens):
        return Counter(chain.from_iterable(
            zip(*[tokens[k:] for k in range(n)]) for n in range(1, 5)))

    matches, totals = [0] * 4, [0] * 4
    hyp_len = ref_len = 0
    for hyp, ref in pairs:
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(min(len(hyp), 4)):
            totals[n] += len(hyp) - n
        ref_counts = counts(ref)
        for gram, count in counts(hyp).items():
            if ref_counts.get(gram):
                matches[len(gram) - 1] += min(count, ref_counts[gram])
    return matches, totals, hyp_len, ref_len


def _stats_tuple(stats):
    matches, totals, ref_len = stats
    return matches, totals, totals[0], ref_len


def _summed_stats(pairs):
    """_accumulate's statistics of one hypothesis set given as token lists,
    unreduced."""
    [[stats]] = _accumulate([("c", [" ".join(hyp) for hyp, _ in pairs])],
                            [" ".join(ref) for _, ref in pairs],
                            [frozenset()])
    return _stats_tuple(stats)


def test_bleu_stats_clip_repeated_hits_by_hand():
    # Hypothesis "a b a b a b" against "a b a b": a x3 vs 2, b x3 vs 2;
    # "a b" x3 vs 2, "b a" x2 vs 1; "a b a" x2 vs 1, "b a b" x2 vs 1;
    # "a b a b" x2 vs 1, "b a b a" x1 vs 0.
    pairs = [("a b a b a b".split(), "a b a b".split())]
    assert _summed_stats(pairs) == ([4, 3, 2, 1], [6, 5, 4, 3], 6, 4)
    assert _loop_stats(pairs) == _summed_stats(pairs)


def test_candidates_scored_at_once_clip_by_hand():
    # Against "a b a b" (a x2, b x2, "a b" x2, the rest once):
    # "a a a": a x3 clips to 2, "a a" and "a a a" miss;
    # "b a b": b x2 and a x1 match 3, "b a" and "a b" 2, "b a b" 1.
    hyps = ["a b a b a b", "a a a", "b a b"]
    [row] = _accumulate([(h, [h]) for h in hyps], ["a b a b"],
                        [frozenset()])
    assert [_stats_tuple(stats) for stats in row] == [
        ([4, 3, 2, 1], [6, 5, 4, 3], 6, 4),
        ([2, 0, 0, 0], [3, 2, 1, 0], 3, 4),
        ([3, 2, 1, 0], [3, 2, 1, 0], 3, 4)]
    for hyp, stats in zip(hyps, row):
        assert _stats_tuple(stats) == \
            _loop_stats([(hyp.split(), "a b a b".split())])


_WIDE_VOCAB = [f"w{i}" for i in range(200)]


@st.composite
def _stats_pairs(draw):
    """One to five (hypothesis, reference) token lists. Over the 8-word
    vocabulary repeated hits are common; over 200 words and 8-20 tokens,
    with the hypothesis an edited reference, hits up to 4-grams are mostly
    distinct."""
    wide = draw(st.booleans())
    vocab, low, high = (_WIDE_VOCAB, 8, 20) if wide else (_VOCAB, 0, 7)
    words = st.sampled_from(vocab)
    pairs = []
    for _ in range(draw(st.integers(1, 5))):
        ref = draw(st.lists(words, min_size=max(low, 1), max_size=high))
        if wide:
            hyp = list(ref)
            for _ in range(draw(st.integers(0, 4))):
                hyp[draw(st.integers(0, len(hyp) - 1))] = draw(words)
        else:
            hyp = draw(st.lists(words, min_size=low, max_size=high))
        pairs.append((hyp, ref))
    return pairs


@settings(max_examples=400, deadline=None)
@given(_stats_pairs())
def test_bleu_stats_equal_per_gram_loop(pairs):
    assert _summed_stats(pairs) == _loop_stats(pairs)


@st.composite
def _hypothesis_sets(draw):
    """References and one to five hypothesis sets over a few words of the
    8-word vocabulary, so that n-grams repeat at every order."""
    words = st.sampled_from(draw(st.lists(st.sampled_from(_VOCAB),
                                          min_size=1, max_size=4)))
    n = draw(st.integers(1, 4))
    refs = [draw(st.lists(words, min_size=1, max_size=9)) for _ in range(n)]
    hyp_sets = [[draw(st.lists(words, max_size=9)) for _ in range(n)]
                for _ in range(draw(st.integers(1, 5)))]
    return refs, hyp_sets


@settings(max_examples=300, deadline=None)
@given(_hypothesis_sets())
def test_accumulate_scores_each_candidate_as_its_own_loop(inputs):
    refs, hyp_sets = inputs
    stops = default_stoplist()
    views = [frozenset(), stops]
    labelled = [(f"c{i}", [" ".join(hyp) for hyp in hyps])
                for i, hyps in enumerate(hyp_sets)]
    ref_lines = [" ".join(ref) for ref in refs]
    stats = _accumulate(labelled, ref_lines, views)
    with _shards(3):
        assert _accumulate(labelled, ref_lines, views) == stats

    def strip(tokens, words):
        return [t for t in tokens if t.lower() not in words]

    for words, row in zip(views, stats):
        assert len(row) == len(hyp_sets)
        for hyps, entry in zip(hyp_sets, row):
            pairs = [(strip(hyp, words), strip(ref, words))
                     for hyp, ref in zip(hyps, refs)]
            assert _stats_tuple(entry) == _loop_stats(pairs)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _select_inputs(seed):
    rng = random.Random(seed)
    refs = _random_corpus(rng, max_segments=40)
    return [(f"c{i}", [_random_corpus(rng, 1)[0] for _ in refs])
            for i in range(3)], refs


def test_sharded_select_reaps_every_child():
    candidates, refs = _select_inputs(1)
    serial = select_checkpoint(candidates, refs, default_stoplist())
    with _shards(3):
        assert select_checkpoint(candidates, refs,
                                 default_stoplist()) == serial
    _no_child_left()


def test_shard_of_empty_references_is_no_error():
    hyps, refs = ["x", "y", "a b"], ["", "", "a b"]
    serial = bleu(hyps, refs)
    with _shards(3):
        assert bleu(hyps, refs) == serial
        with pytest.raises(ValueError, match="empty"):
            bleu(["x", "y", "z"], ["", " ", ""])
    _no_child_left()
