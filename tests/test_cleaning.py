"""Tests for subtitle cleaning rules and language detection."""

import random
import re

import pytest

from slt_toolkit.cleaning import (
    CleanConfig,
    Language,
    RuleName,
    Verdict,
    clean_corpus,
    default_profiles,
    detect_language,
    match_status_message,
    strip_asterisk_spans,
    DEFAULT_STATUS_PATTERNS,
)
from slt_toolkit.corpus import Utterance


def _corpus(texts):
    return tuple(Utterance(f"u{i}", t) for i, t in enumerate(texts))


def test_status_message_dropped():
    corpus = _corpus(["Mit Live-Untertiteln von SWISS TXT"])
    cleaned, outcomes = clean_corpus(corpus)
    assert len(cleaned) == 0
    assert outcomes[0].verdict is Verdict.DROPPED
    assert outcomes[0].hits[0][0] is RuleName.STATUS_MESSAGE


def test_sound_only_line_dropped():
    corpus = _corpus(["* Beschwingte Blasmusik *"])
    cleaned, outcomes = clean_corpus(corpus)
    assert len(cleaned) == 0
    assert outcomes[0].verdict is Verdict.DROPPED
    assert outcomes[0].hits[0][0] is RuleName.ASTERISK_SOUND


def test_hashtag_dropped():
    cleaned, outcomes = clean_corpus(_corpus(["#Wetter morgen schön"]))
    assert len(cleaned) == 0
    assert outcomes[0].hits[0][0] is RuleName.HASHTAG_START


def test_plain_line_kept():
    cleaned, outcomes = clean_corpus(_corpus(["hallo welt"]))
    assert len(cleaned) == 1
    assert outcomes[0].verdict is Verdict.KEPT
    assert outcomes[0].hits == ()


def test_embedded_sound_cue_edited():
    corpus = _corpus(["Guten Abend *Musik* liebe Zuschauer"])
    cleaned, outcomes = clean_corpus(corpus)
    assert outcomes[0].verdict is Verdict.EDITED
    assert cleaned[0].text == "Guten Abend liebe Zuschauer"
    assert "*" not in cleaned[0].text


def test_unpaired_asterisk_untouched():
    text, spans = strip_asterisk_spans("ein * allein")
    assert text == "ein * allein"
    assert spans == []


def test_asterisk_pairs_nongreedy():
    text, spans = strip_asterisk_spans("*a* mitte *b*")
    assert text == "mitte"
    assert spans == ["*a*", "*b*"]


def test_sound_cue_keeps_thin_space_thousands():
    for text, want in [("*Applaus* Es kamen 1\u202f620 Leute.",
                        "Es kamen 1\u202f620 Leute."),
                       ("Es kamen 1\u2009620 Leute\t*Musik*",
                        "Es kamen 1\u2009620 Leute"),
                       ("a  b *c* *d* e", "a  b e")]:
        assert strip_asterisk_spans(text)[0] == want


def test_order_preserved_and_one_outcome_each():
    texts = ["eins zwei", "#drop", "drei vier", "*nur musik*", "fünf"]
    corpus = _corpus(texts)
    cleaned, outcomes = clean_corpus(corpus)
    assert [o.id for o in outcomes] == [u.id for u in corpus]
    surviving_ids = [u.id for u in cleaned]
    assert surviving_ids == ["u0", "u2", "u4"]


def test_detect_language_german():
    lang, scores = detect_language("der hund ist auf dem tisch",
                                   default_profiles())
    assert lang is Language.DE
    # der, ist, auf, dem are function words; hund/tisch are not
    assert abs(scores[Language.DE] - 4 / 6) < 1e-12


def test_detect_language_empty_defaults_de():
    lang, scores = detect_language("", default_profiles())
    assert lang is Language.DE
    assert all(v == 0.0 for v in scores.values())


def test_detect_language_english():
    lang, scores = detect_language("the cat is on the mat",
                                   default_profiles())
    assert lang is Language.EN
    # the, is, on, the in the EN list; cat/mat not
    assert abs(scores[Language.EN] - 4 / 6) < 1e-12


def test_detect_language_punctuated_function_words():
    profiles = default_profiles()
    lang, scores = detect_language("the, of, and, to, in.", profiles)
    assert lang is Language.EN and scores[Language.EN] == 1.0
    lang, _ = detect_language("Merci à vous.", profiles)
    assert lang is Language.FR
    # The raw form still counts: "d'" is listed as written, "d" is not.
    assert "d" not in profiles[Language.FR]
    lang, scores = detect_language("d' la, vie", profiles)
    assert lang is Language.FR
    assert abs(scores[Language.FR] - 2 / 3) < 1e-12


def test_foreign_sentence_dropped_conservatively():
    cleaned, outcomes = clean_corpus(
        _corpus(["the cat is on the mat", "Katze Hund Tisch"]))
    assert [u.id for u in cleaned] == ["u1"]
    assert outcomes[0].hits[0][0] is RuleName.FOREIGN_SENTENCE


def test_de_only_tokens_detected_as_de():
    profiles = default_profiles()
    de_words = sorted(profiles[Language.DE])[:20]
    lang, _ = detect_language(" ".join(de_words), profiles)
    assert lang is Language.DE


def test_match_status_message():
    assert match_status_message("1:1-Untertitelung.", DEFAULT_STATUS_PATTERNS)
    assert match_status_message("Livepassagen können Fehler enthalten.",
                                DEFAULT_STATUS_PATTERNS)
    assert match_status_message("Mit Live-Untertiteln von SWISS TXT ...",
                                DEFAULT_STATUS_PATTERNS)
    assert not match_status_message("Untertitelung ist wichtig",
                                    DEFAULT_STATUS_PATTERNS)


def test_adding_patterns_is_monotone():
    texts = ["Programmhinweis", "hallo welt", "noch ein satz"]
    base = CleanConfig()
    extended = CleanConfig(
        status_patterns=base.status_patterns + ("Programmhinweis",))
    kept_base = len(clean_corpus(_corpus(texts), cfg=base)[0])
    kept_ext = len(clean_corpus(_corpus(texts), cfg=extended)[0])
    assert kept_ext <= kept_base
    assert kept_ext == 2


def test_clean_config_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"status_patterns": ["Nur dieses"], '
                    '"foreign_threshold": 0.5}', encoding="utf-8")
    cfg = CleanConfig.from_json(path)
    assert cfg == CleanConfig(("Nur dieses",), 0.5)
    # The patterns replace the defaults; an EN score of 1/3 is below 0.5.
    texts = ["Nur dieses", "1:1-Untertitelung.", "the hund bellt", "#weg"]
    assert [u.text for u in clean_corpus(_corpus(texts))[0]] == ["Nur dieses"]
    cleaned, _ = clean_corpus(_corpus(texts), cfg=cfg)
    assert [u.text for u in cleaned] == ["1:1-Untertitelung.",
                                         "the hund bellt"]


_EMPTY_PATTERN = ("field 'status_patterns' must not hold an empty pattern "
                  "or one with white space at either end")


@pytest.mark.parametrize("build", [
    lambda: CleanConfig(status_patterns=("x", "")),
    lambda: CleanConfig()._replace(status_patterns=("",)),
    lambda: CleanConfig(status_patterns=("1:1-Untertitelung. ",)),
    lambda: CleanConfig(status_patterns=("x", "\t1:1-Untertitelung.")),
    lambda: CleanConfig()._replace(status_patterns=(" \u2028",)),
], ids=["constructor", "replace", "trailing", "leading", "blank"])
def test_clean_config_rejects_empty_status_pattern(build):
    """Every text starts with "": an empty pattern would drop every line
    of punctuation only, so no config may hold one. A pattern with white
    space at either end never matches the trimmed text."""
    with pytest.raises(ValueError, match=f"^{re.escape(_EMPTY_PATTERN)}$"):
        build()


def test_determinism():
    rng = random.Random(7)
    texts = [" ".join(rng.choice(["der", "hund", "#x", "*y*", "welt"])
                      for _ in range(rng.randrange(1, 6)))
             for _ in range(200)]
    corpus = _corpus(texts)
    first = clean_corpus(corpus)
    second = clean_corpus(corpus)
    assert [u.text for u in first[0]] == [u.text for u in second[0]]
    assert first[1] == second[1]
