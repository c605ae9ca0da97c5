"""Tests for vocabulary/singleton/duration statistics."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from slt_toolkit.corpus import SOURCES, Utterance
from slt_toolkit.stats import (
    SliceStats,
    compare_stats,
    format_comparison_table,
    format_stats_table,
    vocab_stats,
)


def _corpus(entries):
    return tuple(Utterance(f"u{i}", text, source, duration)
                 for i, (text, source, duration) in enumerate(entries))


def test_code_built_source_is_counted():
    # A code that is equal to, but not the same object as, the one in
    # SOURCES, as a decoded string is.
    source = "".join(["S", "RF"])
    stats = vocab_stats((Utterance("a", "t", source),))
    assert stats.per_source == {"SRF": SliceStats(1, 0.0, 1, 1)}
    assert stats.total == SliceStats(1, 0.0, 1, 1)


def test_basic_counts():
    corpus = _corpus([("a b a", "SRF", None), ("c", "SRF", None)])
    stats = vocab_stats(corpus)
    assert stats.total.vocabulary == 3
    assert stats.total.singletons == 2  # b and c
    assert stats.total.video_count == 2


def test_empty_corpus():
    stats = vocab_stats(())
    assert stats.total.vocabulary == 0
    assert stats.total.singletons == 0
    assert stats.total.hours == 0.0
    assert stats.per_source == {}


def test_union_semantics_across_sources():
    corpus = _corpus([("x", "SRF", None), ("x", "FN", None)])
    stats = vocab_stats(corpus)
    assert stats.per_source["SRF"].vocabulary == 1
    assert stats.per_source["FN"].vocabulary == 1
    assert stats.total.vocabulary == 1
    assert stats.total.singletons == 0  # frequency 2 in the union


def test_hours_summed_only_over_present_durations():
    corpus = _corpus([("a", "SRF", 1800.0), ("b", "SRF", None),
                      ("c", "FN", 3600.0)])
    stats = vocab_stats(corpus)
    assert stats.per_source["SRF"].hours == pytest.approx(0.5)
    assert stats.total.hours == pytest.approx(1.5)


def _oracle(texts):
    freqs = Counter(t for text in texts for t in text.split())
    return len(freqs), sum(1 for v in freqs.values() if v == 1)


def test_against_brute_force_oracle():
    rng = random.Random(11)
    for _ in range(500):
        entries = [(" ".join(f"t{rng.randrange(30)}"
                             for _ in range(rng.randrange(0, 15))),
                    rng.choice(SOURCES), None)
                   for _ in range(rng.randrange(1, 20))]
        stats = vocab_stats(_corpus(entries))
        vocab, singles = _oracle(e[0] for e in entries)
        assert stats.total.vocabulary == vocab
        assert stats.total.singletons == singles
        assert stats.total.singletons <= stats.total.vocabulary
        # Union vocabulary never exceeds the sum of the per-source parts.
        assert stats.total.vocabulary <= sum(
            s.vocabulary for s in stats.per_source.values())


def _slice_oracle(utterances):
    """A slice's statistics as first written: one Counter.update per
    utterance."""
    freqs = Counter()
    seconds = 0.0
    for utt in utterances:
        freqs.update(utt.text.split())
        if utt.duration_s is not None:
            seconds += utt.duration_s
    return SliceStats(len(utterances), seconds / 3600.0, len(freqs),
                      sum(1 for f in freqs.values() if f == 1))


# Words and the white space str.split() splits on besides " ": tab,
# ideographic space, line separator, next line and file separator.
_STATS_TEXT = st.lists(st.sampled_from(
    ["a", "b", "ab", "ä", " ", "\t", "\u3000", "\u2028", "\u0085", "\x1c",
     "\n"]), max_size=12).map("".join)
_STATS_UTTERANCES = st.lists(st.tuples(
    _STATS_TEXT, st.sampled_from(SOURCES),
    st.none() | st.floats(0, 1e6)), max_size=12)


@settings(max_examples=300, deadline=None)
@given(entries=_STATS_UTTERANCES)
def test_vocab_stats_equal_per_utterance_counts(entries):
    corpus = _corpus(entries)
    stats = vocab_stats(corpus)
    assert stats.total == _slice_oracle(corpus)
    assert stats.per_source == {
        source: _slice_oracle([u for u in corpus if u.source == source])
        for source in SOURCES if any(u.source == source for u in corpus)}


def test_singletons_equal_vocab_minus_repeated_types():
    rng = random.Random(23)
    for _ in range(100):
        texts = [" ".join(f"t{rng.randrange(12)}"
                          for _ in range(rng.randrange(1, 10)))
                 for _ in range(rng.randrange(1, 8))]
        stats = vocab_stats(_corpus([(t, "OTHER", None) for t in texts]))
        freqs = Counter(t for text in texts for t in text.split())
        repeated = sum(1 for v in freqs.values() if v >= 2)
        assert stats.total.singletons == stats.total.vocabulary - repeated


def test_compare_stats_reduction():
    raw = vocab_stats(_corpus(
        [(" ".join(f"w{i}" for i in range(20)), "SRF", None)]))
    clean = vocab_stats(_corpus(
        [(" ".join(f"w{i}" for i in range(10)), "SRF", None)]))
    deltas = {d.field: d for d in compare_stats(raw, clean)}
    assert deltas["vocabulary"].delta == -10
    assert deltas["vocabulary"].pct == pytest.approx(-50.0)
    assert not deltas["vocabulary"].increased


def test_compare_stats_identical_and_increase():
    stats = vocab_stats(_corpus([("a b c", "SRF", None)]))
    assert all(d.delta == 0 for d in compare_stats(stats, stats))
    bigger = vocab_stats(_corpus([("a b c d", "SRF", None)]))
    deltas = {d.field: d for d in compare_stats(stats, bigger)}
    assert deltas["vocabulary"].delta == 1
    assert deltas["vocabulary"].increased


def test_tables_render():
    corpus = _corpus([("a b a", "SRF", 3600.0), ("c", "FN", 1800.0)])
    stats = vocab_stats(corpus)
    table = format_stats_table(stats)
    assert "SRF" in table and "Total" in table and "1.0" in table
    comparison = format_comparison_table(compare_stats(stats, stats))
    assert "vocabulary" in comparison


_HEADER = "                   raw     clean     delta      pct\n"


@pytest.mark.parametrize("raw, clean, expected", [
    ([("a b a", "SRF", 3600.0), ("c", "FN", 1800.0)],
     [("a b a d e", "SRF", 900.0)],
     _HEADER
     + "video_count          2         1        -1   -50.0%\n"
       "hours              1.5       0.2      -1.2   -83.3%\n"
       "vocabulary           3         4        +1   +33.3%  (increase)\n"
       "singletons           2         3        +1   +50.0%  (increase)"),
    ([], [("a b a", "SRF", 3600.0), ("c", "FN", 1800.0)],
     _HEADER
     + "video_count          0         2        +2    +0.0%  (increase)\n"
       "hours              0.0       1.5      +1.5    +0.0%  (increase)\n"
       "vocabulary           0         3        +3    +0.0%  (increase)\n"
       "singletons           0         2        +2    +0.0%  (increase)"),
    ([("a b a", "SRF", 3600.0)], [("a b a", "SRF", 3600.0)],
     _HEADER
     + "video_count          1         1        +0    +0.0%\n"
       "hours              1.0       1.0      +0.0    +0.0%\n"
       "vocabulary           2         2        +0    +0.0%\n"
       "singletons           1         1        +0    +0.0%"),
])
def test_comparison_table_text(raw, clean, expected):
    deltas = compare_stats(vocab_stats(_corpus(raw)),
                           vocab_stats(_corpus(clean)))
    assert format_comparison_table(deltas) == expected
