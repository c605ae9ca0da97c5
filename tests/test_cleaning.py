"""Tests for subtitle cleaning rules and language detection."""

import random
import re
import unicodedata

import pytest
from hypothesis import example, given, settings, strategies as st

from slt_toolkit.cleaning import (
    RuleName,
    Verdict,
    clean_corpus,
    default_profiles,
    default_status_patterns,
    detect_language,
    match_status_message,
    strip_asterisk_spans,
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
    assert lang == "DE"
    # der, ist, auf, dem are function words; hund/tisch are not
    assert abs(scores["DE"] - 4 / 6) < 1e-12


def test_detect_language_empty_defaults_de():
    lang, scores = detect_language("", default_profiles())
    assert lang == "DE"
    assert all(v == 0.0 for v in scores.values())


def test_detect_language_english():
    lang, scores = detect_language("the cat is on the mat",
                                   default_profiles())
    assert lang == "EN"
    # the, is, on, the in the EN list; cat/mat not
    assert abs(scores["EN"] - 4 / 6) < 1e-12


def test_detect_language_punctuated_function_words():
    profiles = default_profiles()
    lang, scores = detect_language("the, of, and, to, in.", profiles)
    assert lang == "EN" and scores["EN"] == 1.0
    lang, _ = detect_language("Merci à vous.", profiles)
    assert lang == "FR"
    # The raw form still counts: "d'" is listed as written, "d" is not.
    assert "d" not in profiles["FR"]
    lang, scores = detect_language("d' la, vie", profiles)
    assert lang == "FR"
    assert abs(scores["FR"] - 2 / 3) < 1e-12


def test_foreign_sentence_dropped_conservatively():
    cleaned, outcomes = clean_corpus(
        _corpus(["the cat is on the mat", "Katze Hund Tisch"]))
    assert [u.id for u in cleaned] == ["u1"]
    assert outcomes[0].hits[0][0] is RuleName.FOREIGN_SENTENCE


def test_de_only_tokens_detected_as_de():
    profiles = default_profiles()
    de_words = sorted(profiles["DE"])[:20]
    lang, _ = detect_language(" ".join(de_words), profiles)
    assert lang == "DE"


def test_match_status_message():
    patterns = default_status_patterns()
    assert match_status_message("1:1-Untertitelung.", patterns)
    assert match_status_message("Livepassagen können Fehler enthalten.",
                                patterns)
    assert match_status_message("Mit Live-Untertiteln von SWISS TXT ...",
                                patterns)
    assert not match_status_message("Untertitelung ist wichtig", patterns)
    # The text is put in NFC first.
    assert match_status_message(unicodedata.normalize(
        "NFD", " Livepassagen können Fehler enthalten. ..."), patterns)


def test_adding_patterns_is_monotone():
    texts = ["Programmhinweis", "hallo welt", "noch ein satz"]
    base = default_status_patterns()
    extended = base + ("Programmhinweis",)
    kept_base = len(clean_corpus(_corpus(texts), base)[0])
    kept_ext = len(clean_corpus(_corpus(texts), extended)[0])
    assert kept_ext <= kept_base
    assert kept_ext == 2


def test_status_patterns_replace_the_defaults():
    texts = ["Nur dieses", "1:1-Untertitelung.", "the hund bellt", "#weg"]
    # An EN score of 1/3 reaches the fixed threshold of 0.3.
    assert [u.text for u in clean_corpus(_corpus(texts))[0]] == ["Nur dieses"]
    cleaned, _ = clean_corpus(_corpus(texts), ["Nur dieses"])
    assert [u.text for u in cleaned] == ["1:1-Untertitelung."]
    cleaned, _ = clean_corpus(_corpus(texts), ())
    assert [u.text for u in cleaned] == ["Nur dieses", "1:1-Untertitelung."]


@pytest.mark.parametrize("patterns", [
    ("x", ""), ("",), ("1:1-Untertitelung. ",), ("x", "\t1:1-Untertitelung."),
    (" \u2028",),
], ids=["empty-after-one", "empty", "trailing", "leading", "blank"])
def test_status_patterns_reject_empty_and_edge_space(patterns):
    """Every text starts with "": an empty pattern would drop every line
    of punctuation only. A pattern with white space at either end never
    matches the trimmed text."""
    message = (f"invalid status pattern {patterns[-1]!r}: a pattern must "
               f"not be empty or have white space at either end")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        clean_corpus(_corpus(["hallo"]), patterns)


def test_status_patterns_are_kept_in_nfc():
    text = "Livepassagen können Fehler enthalten."
    nfd = unicodedata.normalize("NFD", text)
    assert nfd != text
    cleaned, outcomes = clean_corpus(_corpus([text]), [nfd])
    assert cleaned == () and outcomes[0].verdict is Verdict.DROPPED


def test_nfd_pattern_drops_both_forms_of_the_line():
    """clean_corpus puts its patterns in NFC, the form
    match_status_message needs, so an NFD pattern drops the line in
    either form."""
    text = "Livepassagen können Fehler enthalten."
    nfd = unicodedata.normalize("NFD", text)
    cleaned, outcomes = clean_corpus(_corpus([text, nfd, "hallo"]), [nfd])
    assert [u.text for u in cleaned] == ["hallo"]
    assert [o.hits[0][0] for o in outcomes[:2]] == [RuleName.STATUS_MESSAGE] * 2


# Texts that mix precomposed letters, sound cues, hashtags, spaces and the
# status literals.
_NFC_TEXT = st.lists(st.one_of(
    st.sampled_from(["ä", "ö", "ü", "Ü", "é", "à", "là", "ç", "ñ", "ß",
                     "*", "#", " ", "\t", ".", "der", "the", "le", "für",
                     "über", "können", "Menü", *default_status_patterns()]),
    st.text(alphabet="aeiouäöüéèàçÄÖÜ ", max_size=6)),
    max_size=10).map("".join)


@settings(max_examples=300, deadline=None)
@given(text=_NFC_TEXT)
@example(text="Livepassagen können Fehler enthalten.")
@example(text="Er würde für die Kinder über alles tun.")
@example(text="Das Menü à la carte für zwei.")
def test_verdicts_do_not_depend_on_the_unicode_form(text):
    """NFD and NFC of one text get the same verdict and the same rules;
    each output keeps the code points of its input."""
    nfd = unicodedata.normalize("NFD", text)
    cleaned, outcomes = clean_corpus(_corpus([text, nfd]))
    nfc_out, nfd_out = outcomes
    assert nfc_out.verdict is nfd_out.verdict
    assert [name for name, _ in nfc_out.hits] == \
        [name for name, _ in nfd_out.hits]
    survivors = {u.id: u.text for u in cleaned}
    if nfd_out.verdict is Verdict.KEPT:
        assert survivors["u1"] == nfd
    if "u1" in survivors:
        assert unicodedata.is_normalized("NFD", survivors["u1"])


@pytest.mark.parametrize("text, language", [
    ("Er würde für die Kinder über alles tun.", "DE"),
    ("Das Menü à la carte für zwei.", "DE"),
], ids=["umlauts", "menu-a-la-carte"])
def test_language_scores_do_not_depend_on_the_unicode_form(text, language):
    profiles = default_profiles()
    nfd = unicodedata.normalize("NFD", text)
    assert nfd != text
    assert detect_language(nfd, profiles) == detect_language(text, profiles)
    assert detect_language(text, profiles)[0] == language


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
