"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines on the terminal.
"""

import contextlib
import math
import random
import string
import time

import pytest

from slt_toolkit.cleaning import Verdict, clean_corpus
from slt_toolkit.corpus import Utterance
from slt_toolkit.frameplan import plan_padding, plan_windows
from slt_toolkit.itn import contract_numbers_de
from slt_toolkit.metrics import (
    bleu,
    count_stopwords,
    default_stoplist,
    reduced_bleu,
    remove_stopwords,
    select_checkpoint,
)
from slt_toolkit.normalize import normalize_text
from slt_toolkit.numbers_de import spell_number_de
from slt_toolkit.stats import vocab_stats

from test_metrics import _random_corpus, oracle_bleu


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}")


def test_bleu_oracle_equivalence():
    with criterion("BLEU oracle equivalence (1000 random corpora, 1e-9)"):
        rng = random.Random(2024)
        start = time.monotonic()
        for _ in range(1000):
            refs = _random_corpus(rng)
            hyps = [r if rng.random() < 0.3 else _random_corpus(rng, 1)[0]
                    for r in refs]
            assert bleu(hyps, refs).score == \
                pytest.approx(oracle_bleu(hyps, refs), abs=1e-9)
        assert time.monotonic() - start < 10.0


def test_hand_computed_bleu_case():
    with criterion("hand-computed BLEU case (77.880 +/- 0.001)"):
        result = bleu(["a b c d"], ["a b c d e"])
        assert result.score == pytest.approx(77.880, abs=1e-3)
        assert result.brevity_penalty == pytest.approx(math.exp(-0.25))


def test_identity_and_zero_cases():
    with criterion("identity scores 100; all-stop-word hypothesis scores 0"):
        rng = random.Random(7)
        for _ in range(100):
            corpus = _random_corpus(rng)
            assert bleu(corpus, corpus).score == pytest.approx(100.0)
        stops = default_stoplist()
        result = reduced_bleu(["der die das und"], ["hund bellt laut gern"],
                              stops)
        assert result.score == 0.0


def test_reduced_bleu_definition():
    with criterion("reduced BLEU == BLEU without stop words; "
                   "remove_stopwords idempotent"):
        stops = default_stoplist()
        rng = random.Random(13)
        for _ in range(50):
            refs = _random_corpus(rng)  # w0..w7 tokens, never stop words
            hyps = [_random_corpus(rng, 1)[0] for _ in refs]
            assert reduced_bleu(hyps, refs, stops) == bleu(hyps, refs)
        pool = ["der", "die", "hund", "katze", "ist", "Der", "schön", "und"]
        for _ in range(10_000):
            text = " ".join(rng.choice(pool)
                            for _ in range(rng.randrange(0, 10)))
            once = remove_stopwords(text, stops)
            assert remove_stopwords(once, stops) == once


def test_stop_list_integrity():
    with criterion("stop list deduplicated; membership and counting checks"):
        stops = default_stoplist()
        assert isinstance(stops, frozenset)
        assert "der" in stops and "dem" in stops and "geht's" in stops
        assert "hund" not in stops
        assert count_stopwords(["der hund", "die katze"], stops) == (2, 0.5)


def test_model_selection_scenario():
    with criterion("model selection follows reduced BLEU when rankings "
                   "disagree"):
        stops = default_stoplist()
        refs = ["es ist so dass der hund bellt"]
        candidates = [
            ("content", ["hund bellt"]),
            ("stop_heavy", ["es ist so dass die katze bellt"]),
        ]
        report = select_checkpoint(candidates, refs, stops)
        by_name = {c.name: c for c in report.candidates}
        assert by_name["stop_heavy"].bleu.score > \
            by_name["content"].bleu.score
        assert by_name["content"].reduced.score > \
            by_name["stop_heavy"].reduced.score
        assert report.winner == "content"


def test_cleaning_rules_on_synthetic_corpus():
    with criterion("synthetic 1000-line corpus: all noise removed, "
                   "no clean line touched, every id accounted for"):
        rng = random.Random(31)
        status_literals = [
            "1:1-Untertitelung.",
            "Livepassagen können Fehler enthalten.",
            "Mit Live-Untertiteln von SWISS TXT",
        ]
        clean_pool = ["hund bellt laut", "katze schläft gern",
                      "morgen scheint sonne", "wetter bleibt stabil"]
        utterances = []
        noise_ids = set()
        clean_texts = {}
        for i in range(1000):
            uid = f"u{i:04d}"
            roll = rng.random()
            if roll < 0.1:
                text = "#" + rng.choice(clean_pool)
                noise_ids.add(uid)
            elif roll < 0.2:
                text = rng.choice(status_literals)
                noise_ids.add(uid)
            elif roll < 0.3:
                text = f"* {rng.choice(clean_pool)} *"
                noise_ids.add(uid)
            else:
                text = rng.choice(clean_pool)
                clean_texts[uid] = text
            utterances.append(Utterance(uid, text))
        corpus = tuple(utterances)
        cleaned, outcomes = clean_corpus(corpus)
        assert {o.id for o in outcomes} == {u.id for u in corpus}
        surviving = {u.id: u.text for u in cleaned}
        assert set(surviving) == set(clean_texts)  # 100% noise gone
        assert surviving == clean_texts            # 0% clean lines edited
        for o in outcomes:
            if o.id in noise_ids:
                assert o.verdict is Verdict.DROPPED
            else:
                assert o.verdict is Verdict.KEPT


def test_normalization_fuzz_and_examples():
    with criterion("normalization: clean output on 10k fuzz strings, "
                   "fixed point, attested examples"):
        alphabet = (string.ascii_letters + string.digits +
                    string.punctuation + " äöüÄÖÜß")
        rng = random.Random(41)
        for _ in range(10_000):
            text = "".join(rng.choice(alphabet)
                           for _ in range(rng.randrange(0, 30)))
            out = normalize_text(text)
            assert not any(ch.isdigit() for ch in out)
            assert not any(ch.isupper() for ch in out)
            assert normalize_text(out) == out
        assert normalize_text("Mrd.") == "milliarden"
        assert normalize_text("Er zahlt 42 Franken.") == \
            "er zahlt zweiundvierzig franken"


def test_number_round_trip():
    with criterion("contract(spell(n)) == str(n) for n in [0, 100000]"):
        start = time.monotonic()
        for n in range(100_001):
            assert contract_numbers_de(spell_number_de(n)) == str(n)
        assert time.monotonic() - start < 5.0


def test_window_planner():
    with criterion("window planner matches exhaustive enumeration; "
                   "80 frames -> 3 windows; padding 1400x1150"):
        for frames in range(0, 501):
            plan = plan_windows(frames)
            if frames >= 64:
                expected = tuple(s for s in range(0, frames, 8)
                                 if s + 64 <= frames)
            elif frames > 0:
                expected = (0,)
            else:
                expected = ()
            assert plan.window_starts == expected, frames
        assert len(plan_windows(80).window_starts) == 3
        assert plan_padding(1000, 1000)[:2] == (1400, 1150)


def test_stats_oracle_and_union_property():
    with criterion("vocab stats match frequency oracle; union vocabulary "
                   "<= sum of parts on 500 corpora"):
        rng = random.Random(53)
        sources = ["SRF", "FN", "LEX"]
        for _ in range(500):
            entries = []
            for i in range(rng.randrange(1, 15)):
                text = " ".join(f"t{rng.randrange(25)}"
                                for _ in range(rng.randrange(0, 12)))
                entries.append(Utterance(f"u{i}", text, rng.choice(sources)))
            stats = vocab_stats(tuple(entries))
            freqs = {}
            for u in entries:
                for tok in u.text.split():
                    freqs[tok] = freqs.get(tok, 0) + 1
            assert stats.total.vocabulary == len(freqs)
            assert stats.total.singletons == \
                sum(1 for v in freqs.values() if v == 1)
            if stats.per_source:
                assert stats.total.vocabulary <= sum(
                    s.vocabulary for s in stats.per_source.values())
