"""Tests for inverse text normalization (number contraction, display form)."""

import re
from itertools import chain

from hypothesis import example, given, settings, strategies as st

from slt_toolkit import itn
from slt_toolkit.itn import (
    _INNER_HEADS,
    _START_HEADS,
    contract_numbers_de,
    restore_display,
)
from slt_toolkit.numbers_de import (
    MAX_NUMBER,
    _TABLE_EIN,
    _TABLE_EINE,
    _TABLE_EINS,
    parse_number_de,
    spell_number_de,
)


def test_contract_simple():
    assert contract_numbers_de("zweiundvierzig") == "42"


def test_contract_no_numbers():
    assert contract_numbers_de("hallo welt") == "hallo welt"


def test_contract_in_context():
    assert contract_numbers_de("eintausendeins gäste") == "1001 gäste"


def test_contract_multi_token_run():
    assert contract_numbers_de("zwei millionen menschen") == "2000000 menschen"


def test_split_number_is_not_cut():
    assert contract_numbers_de(
        "rund zweihundertfünfundsechzig millionen neun tausend sechs tonnen"
    ) == "rund 265009006 tonnen"


# Adjacent numbers are one run: a known limit.
def test_adjacent_numbers_merge():
    assert contract_numbers_de("drei hundert zwei") == "302"


_SCALE_WORD_RE = re.compile(r"(milliarden?|million(?:en)?|tausend)")


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.integers(0, 10 ** 6), st.integers(0, MAX_NUMBER)))
@example(MAX_NUMBER)
@example(1_001_001_001)
def test_split_spelling_contracts_whole(n):
    """Any number spelled with a space before and after each scale word, as
    ASR output writes it, contracts to its digits."""
    split = _SCALE_WORD_RE.sub(r" \1 ", spell_number_de(n)).strip()
    assert contract_numbers_de(split) == str(n)
    assert contract_numbers_de(f"rund {split} menschen") == f"rund {n} menschen"


def test_article_ein_left_alone():
    assert contract_numbers_de("ein hund bellt") == "ein hund bellt"
    assert contract_numbers_de("eine katze schläft") == "eine katze schläft"


def test_articles_are_not_numbers():
    # So contraction needs no article guard of its own.
    assert parse_number_de("ein") is None
    assert parse_number_de("eine") is None
    assert contract_numbers_de("ein hund") == "ein hund"


def test_lone_article_is_not_parsed():
    """"ein" and "eine" alone are no number: a run of one of them is left
    as it is, a longer run is still tried."""
    assert contract_numbers_de("ein mann und eine katze") == \
        "ein mann und eine katze"
    assert contract_numbers_de("eine million ein") == "1000000 ein"


def test_malformed_number_words_left_as_words():
    assert contract_numbers_de("zwanzigund drei") == "zwanzigund 3"
    assert contract_numbers_de("milliarden") == "milliarden"


def test_contract_preserves_non_number_token_count():
    text = "gestern kamen zweihundert gäste zur feier"
    out = contract_numbers_de(text)
    assert out == "gestern kamen 200 gäste zur feier"
    assert len(out.split()) == len(text.split())


def test_roundtrip_exhaustive_small():
    for n in range(10_000):
        assert contract_numbers_de(spell_number_de(n)) == str(n)


def test_parse_rejects_garbage():
    for bad in ["", "hundertund", "einsund", "nulltausend", "millioneins",
                "zweiundzwanzigund", "eins zwei", "einmillion",
                "einemillionen", "zweimillion", "einemilliarden",
                "zweimilliarde", "millionen", "milliardeeins", "einsmillion",
                "eintausendmillion"]:
        assert parse_number_de(bad) is None, bad


def test_roundtrip_scale_coefficients():
    # Coefficients of one take the singular scale word after "eine"; the
    # exhaustive round trips above stop below the first scale word.
    coefs = (0, 1, 2, 21, 101, 999)
    for n in (a * 10 ** 9 + b * 10 ** 6 + c for a in coefs for b in coefs
              for c in (0, 1, 1000, 999_999)):
        assert parse_number_de(spell_number_de(n)) == n


def test_restore_display_sentence():
    assert restore_display("das kostet zweiundvierzig franken") == \
        "Das kostet 42 franken."


def test_restore_display_empty():
    assert restore_display("") == ""


def test_restore_display_word():
    assert restore_display("hallo") == "Hallo."


def test_restore_display_keeps_existing_terminal():
    assert restore_display("schon fertig!") == "Schon fertig!"


def test_restore_display_idempotent_after_numbers():
    texts = ["das kostet zweiundvierzig franken", "hallo",
             "es regnet heute sehr stark"]
    for text in texts:
        once = restore_display(text)
        assert restore_display(once) == once


def test_restore_display_capitalizes_every_sentence():
    assert restore_display("ja. nein! 42 straßen? ß") == \
        "Ja. Nein! 42 Straßen? SS."


# Reference versions: every run of up to four adjacent tokens is parsed,
# and sentence starts are found one character at a time.
def _contract_reference(text):
    tokens = text.split()
    out = []
    i = 0
    while i < len(tokens):
        best_len = 0
        best_value = None
        for j in range(i, min(i + itn._MAX_RUN, len(tokens))):
            value = parse_number_de("".join(tokens[i:j + 1]))
            if value is not None:
                best_len = j - i + 1
                best_value = value
        if best_value is not None and not (
                best_len == 1 and tokens[i] in {"ein", "eine"}):
            out.append(str(best_value))
            i += best_len
        else:
            out.append(tokens[i])
            i += 1
    return " ".join(out)


def _restore_reference(text):
    if not text.strip():
        return text
    chars = list(_contract_reference(text))
    capitalize_next = True
    for k, ch in enumerate(chars):
        if capitalize_next and ch.isalpha():
            chars[k] = ch.upper()
            capitalize_next = False
        elif ch in ".!?":
            capitalize_next = True
    result = "".join(chars)
    if not result.rstrip().endswith((".", "!", "?")):
        result = result.rstrip() + "."
    return result


_NUMBER_WORD = st.one_of(st.integers(0, 99), st.integers(0, 99_999),
                         st.integers(0, MAX_NUMBER)).map(spell_number_de)
_STANDALONE = st.sampled_from(["ein", "eine", "und", "null", "hundert",
                               "tausend", "million", "millionen",
                               "milliarde", "milliarden"])
_PLAIN = st.one_of(
    st.sampled_from(["menschen", "uhr", "franken", "zwischen", "einer",
                     "straße", "ß", "z", "wa", "nzig", "eins.", "Zwei"]),
    st.text(st.sampled_from("adeinrsuzäßéİ.!?"), min_size=1, max_size=6))


@st.composite
def _tokens(draw):
    """A number word cut at random positions, a fragment of one, a
    standalone piece or a plain word."""
    word = draw(_NUMBER_WORD)
    kind = draw(st.sampled_from(["cut", "cut", "fragment", "piece", "plain"]))
    if kind == "cut":
        cuts = sorted(draw(st.sets(st.integers(1, max(1, len(word) - 1)),
                                   min_size=1, max_size=3)))
        bounds = [0, *cuts, len(word)]
        tokens = [word[a:b] for a, b in zip(bounds, bounds[1:])]
    elif kind == "fragment":
        start = draw(st.integers(0, len(word) - 1))
        tokens = [word[start:draw(st.integers(start + 1, len(word)))]]
    elif kind == "piece":
        tokens = [draw(_STANDALONE)]
    else:
        tokens = [draw(_PLAIN)]
    marked = []
    for token in tokens:
        if draw(st.integers(0, 5)) == 0:
            k = draw(st.integers(0, len(token)))
            token = token[:k] + draw(st.sampled_from(".!?")) + token[k:]
        marked.append(token)
    return marked


@st.composite
def _itn_texts(draw):
    tokens = list(chain.from_iterable(draw(st.lists(_tokens(), max_size=6))))
    gaps = st.sampled_from([" ", "  ", "\t", " \t"])
    ends = st.sampled_from(["", " ", "\t"])
    text = draw(ends)
    for k, token in enumerate(tokens):
        text += (draw(gaps) if k else "") + token
    return text + draw(ends)


@settings(max_examples=500, deadline=None)
@given(_itn_texts())
def test_gated_itn_equals_reference(text):
    assert contract_numbers_de(text) == _contract_reference(text)
    assert restore_display(text) == _restore_reference(text)


def test_gated_itn_equals_reference_on_every_single_cut():
    for n in range(1000):
        word = spell_number_de(n)
        for k in range(1, len(word)):
            text = f"{word[:k]} {word[k:]} menschen"
            assert contract_numbers_de(text) == _contract_reference(text)


def _assert_admitted(word):
    """The gates let through every token a run over ``word`` can hold."""
    for size in (1, 2, 3):
        assert word[:size] in _START_HEADS, word
        for k in range(len(word)):
            assert word[k:k + size] in _INNER_HEADS, word


def test_gates_admit_every_table_key():
    for key in chain(_TABLE_EINS, _TABLE_EIN, _TABLE_EINE):
        _assert_admitted(key)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.integers(0, 10 ** 6), st.integers(0, MAX_NUMBER)))
def test_gates_admit_every_number_word(n):
    _assert_admitted(spell_number_de(n))


# Reference: the parser before the "milli" gate, which tried both scale
# splits on every word.
def _parse_feminine_scale_reference(rest, word, table):
    idx = rest.find(word)
    if idx <= 0:
        return 0, rest
    coef = table.get(rest[:idx])
    if coef is None:
        return None
    tail = rest[idx + len(word):]
    if coef == 1:
        if rest[:idx] != "eine":
            return None
        return 1, tail
    suffix = "n" if word.endswith("e") else "en"
    if not tail.startswith(suffix):
        return None
    return coef, tail[len(suffix):]


def _parse_reference(word):
    if word == "null":
        return 0
    rest = word
    result = _parse_feminine_scale_reference(rest, "milliarde", _TABLE_EINE)
    if result is None:
        return None
    billions, rest = result
    result = _parse_feminine_scale_reference(rest, "million", _TABLE_EINE)
    if result is None:
        return None
    millions, rest = result
    thousands = 0
    idx = rest.find("tausend")
    if idx == 0:
        return None
    if idx > 0:
        thousands = _TABLE_EIN.get(rest[:idx], 0)
        if thousands == 0:
            return None
        rest = rest[idx + len("tausend"):]
    low = 0
    if rest:
        low = _TABLE_EINS.get(rest, 0)
        if low == 0:
            return None
    total = billions * 10 ** 9 + millions * 10 ** 6 + thousands * 1000 + low
    return total if total else None


@st.composite
def _spellings(draw):
    """A number word, cut at random or with a scale-like piece inserted."""
    word = draw(_NUMBER_WORD)
    a = draw(st.integers(0, len(word)))
    b = draw(st.integers(a, len(word)))
    if draw(st.booleans()):
        return word[a:b]
    insert = draw(st.sampled_from(["milli", "milliarde", "million",
                                   "tausend", "eine"]))
    return word[:a] + insert + word[a:]


@settings(max_examples=500, deadline=None)
@given(_spellings())
def test_parse_equals_reference(word):
    assert parse_number_de(word) == _parse_reference(word)
