"""Tests for text normalization and German number/date spelling.

The number speller is checked against an independent oracle: a table of
the numerals 0-100 typed from a reference grammar, plus the standard
composition rules applied by hand for spot checks above 100.
"""

import calendar
import random
import re
import string
import sys
import unicodedata

import pytest
from hypothesis import given, settings, strategies as st

from slt_toolkit.corpus import nfc
from slt_toolkit.normalize import (
    AbbrevTable,
    _CHAR_MAP,
    _SEPARATORS_RE,
    _expand_date,
    _expand_decimal,
    _spell_integer,
    default_abbrev_table,
    normalize_text,
)
from slt_toolkit.numbers_de import (
    MAX_NUMBER,
    _days_in_month,
    _spell_under_100,
    spell_date_de,
    spell_number_de,
    spell_ordinal_de,
    spell_year_de,
)

# Oracle: numerals 0-100, typed out independently of the implementation.
_UNITS_ORACLE = {
    0: "null", 1: "eins", 2: "zwei", 3: "drei", 4: "vier", 5: "fünf",
    6: "sechs", 7: "sieben", 8: "acht", 9: "neun", 10: "zehn", 11: "elf",
    12: "zwölf", 13: "dreizehn", 14: "vierzehn", 15: "fünfzehn",
    16: "sechzehn", 17: "siebzehn", 18: "achtzehn", 19: "neunzehn",
}
_TENS_ORACLE = {20: "zwanzig", 30: "dreißig", 40: "vierzig", 50: "fünfzig",
                60: "sechzig", 70: "siebzig", 80: "achtzig", 90: "neunzig"}


def oracle_0_100(n: int) -> str:
    if n in _UNITS_ORACLE:
        return _UNITS_ORACLE[n]
    if n == 100:
        return "einhundert"
    tens, unit = divmod(n, 10)
    if unit == 0:
        return _TENS_ORACLE[n]
    unit_word = "ein" if unit == 1 else _UNITS_ORACLE[unit]
    return unit_word + "und" + _TENS_ORACLE[tens * 10]


def test_spell_number_0_to_100_against_oracle():
    for n in range(101):
        assert spell_number_de(n) == oracle_0_100(n), n


@pytest.mark.parametrize("n,expected", [
    # Hand compositions per the standard convention.
    (42, "zweiundvierzig"),
    (101, "einhunderteins"),
    (231, "zweihunderteinunddreißig"),
    (1000, "eintausend"),
    (1001, "eintausendeins"),
    (21000, "einundzwanzigtausend"),
    (100000, "einhunderttausend"),
    (1000000, "einemillion"),
    (2000000, "zweimillionen"),
    (1000001, "einemillioneins"),
    (1000000000, "einemilliarde"),
    (3500000000, "dreimilliardenfünfhundertmillionen"),
    (999999999999,
     "neunhundertneunundneunzigmilliarden"
     "neunhundertneunundneunzigmillionen"
     "neunhundertneunundneunzigtausendneunhundertneunundneunzig"),
])
def test_spell_number_compositions(n, expected):
    assert spell_number_de(n) == expected


def test_spell_number_out_of_range():
    with pytest.raises(ValueError):
        spell_number_de(-1)
    with pytest.raises(ValueError):
        spell_number_de(10 ** 12)


def test_spell_number_injective_below_100k():
    spellings = {spell_number_de(n) for n in range(100_000)}
    assert len(spellings) == 100_000


def _spell_under_1000(n, one="eins"):
    """A group of three digits as first spelled: its hundreds, then the
    rest with the final-"one" form ``one``."""
    hundreds, rest = divmod(n, 100)
    head = _spell_under_100(hundreds, "ein") + "hundert" if hundreds else ""
    return head + _spell_under_100(rest, one)


def _spell_number_oracle(n):
    """spell_number_de as first written: each group spelled by
    _spell_under_1000 with its final-"one" form, then its scale word."""
    if n == 0:
        return "null"
    billions, n = divmod(n, 10 ** 9)
    millions, n = divmod(n, 10 ** 6)
    thousands, low = divmod(n, 1000)
    word = ""
    if billions:
        word += _spell_under_1000(billions, "eine") + (
            "milliarde" if billions == 1 else "milliarden")
    if millions:
        word += _spell_under_1000(millions, "eine") + (
            "million" if millions == 1 else "millionen")
    if thousands:
        word += _spell_under_1000(thousands, "ein") + "tausend"
    return word + _spell_under_1000(low)


# Every power of ten and its neighbours, and each scale's coefficients
# of one, two and 999.
_SCALE_BOUNDARIES = sorted(
    {n for k in range(13) for n in (10 ** k - 1, 10 ** k, 10 ** k + 1)
     if 0 <= n <= MAX_NUMBER}
    | {c * 10 ** k + r for k in (3, 6, 9) for c in (1, 2, 999)
       for r in (0, 1, 10 ** k - 1)})


def test_spell_number_equals_composition_at_scale_boundaries():
    for n in _SCALE_BOUNDARIES:
        assert spell_number_de(n) == _spell_number_oracle(n), n


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, MAX_NUMBER))
def test_spell_number_equals_composition(n):
    assert spell_number_de(n) == _spell_number_oracle(n)


@pytest.mark.parametrize("day,month,year,expected", [
    (1, 1, 2000, "erster januar zweitausend"),
    (3, 10, 2022, "dritter oktober zweitausendzweiundzwanzig"),
    (7, 7, 1984, "siebter juli neunzehnhundertvierundachtzig"),
    (31, 12, 1999, "einunddreißigster dezember neunzehnhundertneunundneunzig"),
    (29, 2, 2020, "neunundzwanzigster februar zweitausendzwanzig"),
    (20, 5, 1900, "zwanzigster mai neunzehnhundert"),
])
def test_spell_date(day, month, year, expected):
    assert spell_date_de(day, month, year) == expected


def test_spell_date_rejects_invalid():
    with pytest.raises(ValueError):
        spell_date_de(29, 2, 2021)  # not a leap year
    with pytest.raises(ValueError):
        spell_date_de(31, 4, 2020)
    with pytest.raises(ValueError):
        spell_date_de(1, 13, 2020)


def test_month_lengths_equal_calendar():
    with pytest.raises(ValueError):
        spell_date_de(29, 2, 1900)  # a century, not a leap year
    assert spell_date_de(29, 2, 2000).startswith("neunundzwanzigster")
    for year in range(10_000):
        for month in range(1, 13):
            assert _days_in_month(year, month) == \
                calendar.monthrange(year, month)[1], (year, month)


def test_ordinals():
    assert spell_ordinal_de(1) == "erster"
    assert spell_ordinal_de(3) == "dritter"
    assert spell_ordinal_de(7) == "siebter"
    assert spell_ordinal_de(8) == "achter"
    assert spell_ordinal_de(19) == "neunzehnter"
    assert spell_ordinal_de(20) == "zwanzigster"
    assert spell_ordinal_de(21) == "einundzwanzigster"


def test_year_hundreds_convention_bounds():
    assert spell_year_de(1100) == "elfhundert"
    assert spell_year_de(1999) == "neunzehnhundertneunundneunzig"
    assert spell_year_de(2000) == "zweitausend"
    assert spell_year_de(1066) == "eintausendsechsundsechzig"


def _numeric_spans(text):
    """Non-overlapping numeric spans, left to right, with their kind: the
    matches of an empty table's matcher, which has no ABBR branch."""
    return [(m.group(), m.lastgroup)
            for m in AbbrevTable({}).matcher.finditer(text)]


def test_find_numeric_spans_date_and_integer():
    spans = _numeric_spans("am 3.10.2022 kamen 1.000 gäste")
    assert spans == [("3.10.2022", "DATE"), ("1.000", "INTEGER")]


def test_find_numeric_spans_none():
    assert _numeric_spans("abc") == []


def test_find_numeric_spans_decimal():
    assert _numeric_spans("3,5 prozent") == [("3,5", "DECIMAL")]


def test_find_numeric_spans_thin_space_separator():
    assert _numeric_spans("1 000 personen") == [("1 000", "INTEGER")]


def test_normalize_abbreviation():
    assert normalize_text("Mrd.") == "milliarden"
    assert normalize_text("3 Mrd. Franken") == "drei milliarden franken"


def test_normalize_punct_and_case():
    assert normalize_text("Hallo, Welt!") == "hallo welt"


def test_normalize_number_sentence():
    assert normalize_text("Er zahlt 42 Franken.") == \
        "er zahlt zweiundvierzig franken"


def test_normalize_date_sentence():
    assert normalize_text("Am 3.10.2022 regnete es.") == \
        "am dritter oktober zweitausendzweiundzwanzig regnete es"


def test_normalize_decimal():
    assert normalize_text("3,5 Prozent") == "drei komma fünf prozent"


@pytest.mark.parametrize("text, kind, expected", [
    ("1.000,5", "DECIMAL", "eintausend komma fünf"),
    ("1.299,50 Franken", "DECIMAL",
     "eintausendzweihundertneunundneunzig komma fünf null franken"),
    ("1\u202f000,25", "DECIMAL", "eintausend komma zwei fünf"),
    # The Swiss apostrophe, ASCII or U+2019, groups thousands too.
    ("12'000", "INTEGER", "zwölftausend"),
    ("12\u2019000", "INTEGER", "zwölftausend"),
    ("1'299,50 Franken", "DECIMAL",
     "eintausendzweihundertneunundneunzig komma fünf null franken"),
    ("12.345.678,9", "DECIMAL",
     "zwölfmillionendreihundertfünfundvierzigtausendsechshundert"
     "achtundsiebzig komma neun"),
    # A date still wins over a decimal that would start inside it.
    ("3.10.2022,5", "DATE",
     "dritter oktober zweitausendzweiundzwanzig fünf"),
])
def test_normalize_decimal_with_thousands_separator(text, kind, expected):
    assert _numeric_spans(text)[0][1] == kind
    assert normalize_text(text) == expected


def test_normalize_oversized_decimal():
    out = normalize_text("1234567890123,5")
    assert not any(ch.isdigit() for ch in out)
    assert out.endswith(" komma fünf")
    assert normalize_text(out) == out


@pytest.mark.parametrize("digits, expected", [
    ("0" * 4299 + "7", "sieben"),
    ("0" * 4300 + "7", "sieben"),
    ("0" * 5000 + "42", "zweiundvierzig"),
    ("000" + ".000" * 1500 + ".001", "eins"),
    ("0" * 4300 + "7,5", "sieben komma fünf"),
], ids=["4299-zeros", "4300-zeros", "5000-zeros", "grouped", "decimal"])
def test_normalize_long_leading_zero_run(digits, expected):
    """Leading zeros do not count towards int()'s conversion limit: the
    number is spelled from its significant digits."""
    assert normalize_text(digits) == expected


@settings(max_examples=200, deadline=None)
@given(digits=st.from_regex(r"[1-9][0-9]{0,29}", fullmatch=True),
       zeros=st.integers(1, 6))
def test_leading_zeros_do_not_count(digits, zeros):
    """Leading zeros change no spelling, above 12 significant digits too,
    where a number is spelled in groups of three, and in the dotted form
    with thousands separators."""
    assert normalize_text("0" * zeros + digits) == normalize_text(digits)
    padded = "0" * (-len(digits) % 3) + digits
    dotted = ".".join(["000", *(padded[i:i + 3]
                                for i in range(0, len(padded), 3))])
    assert normalize_text(dotted) == normalize_text(digits)


def test_normalize_umlauts_survive():
    assert normalize_text("Straße & Größe") == "straße größe"


_FUZZ_ALPHABET = (string.ascii_letters + string.digits +
                  string.punctuation + " äöüÄÖÜß.,19")


def _fuzz_strings(count, seed=1234):
    rng = random.Random(seed)
    for _ in range(count):
        length = rng.randrange(0, 40)
        yield "".join(rng.choice(_FUZZ_ALPHABET) for _ in range(length))


def test_normalize_output_is_clean_and_idempotent():
    for text in _fuzz_strings(2000):
        out = normalize_text(text)
        assert not any(ch.isdigit() for ch in out), (text, out)
        assert not any(ch.isupper() for ch in out), (text, out)
        assert out == out.strip() and "  " not in out
        assert normalize_text(out) == out, (text, out)


def test_normalize_non_decimal_digits_spelled():
    assert normalize_text("34 m²") == "vierunddreißig m zwei"
    assert normalize_text("CO₂ und ① ²³") == "co zwei und eins zwei drei"
    every = [chr(cp) for cp in range(sys.maxunicode + 1)
             if chr(cp).isdigit() and not chr(cp).isdecimal()]
    assert len(every) == 128
    out = normalize_text(" ".join(every))
    assert not any(ch.isdigit() for ch in out)
    assert len(out.split()) == 128


def test_normalize_empty_abbrev_table_expands_nothing():
    assert normalize_text("3 Mrd. Franken", AbbrevTable({})) == \
        "drei mrd franken"


def test_default_abbrev_table_shared_and_read_only():
    table = default_abbrev_table()
    assert default_abbrev_table() is table
    with pytest.raises(TypeError):
        table.entries["Mrd."] = "Milliardchen"
    entries = {"Mrd.": "Milliarden"}
    own = AbbrevTable(entries)
    entries["Mio."] = "Millionen"
    assert dict(own.entries) == {"Mrd.": "Milliarden"}


def test_abbrev_keys_are_matched_in_nfc():
    """A key typed decomposed matches the NFC text normalize_text reads."""
    nfd = unicodedata.normalize("NFD", "Zür.")
    assert nfd != "Zür."
    assert normalize_text("Zür. und Zür.", AbbrevTable({nfd: "Zuerich"})) \
        == "zuerich und zuerich"
    # Two keys equal in NFC are one key, and the later one wins.
    assert AbbrevTable({nfd: "a", "Zür.": "b"}).entries == {"Zür.": "b"}
    assert AbbrevTable({"Zür.": "a", nfd: "b"}).entries == {"Zür.": "b"}


def test_abbrev_tsv_later_row_wins_across_forms(tmp_path):
    nfd = unicodedata.normalize("NFD", "Zür.")
    path = tmp_path / "table.tsv"
    path.write_text(f"Zür.\ta\n{nfd}\tb\nZür.\tc\n", encoding="utf-8")
    assert AbbrevTable.from_tsv(path).entries == {"Zür.": "c"}


# Reference versions of the abbreviation, punctuation and digit steps, one
# regex alternative and one category lookup per character.
def _expand_abbreviations_oracle(text, table):
    keys = sorted(table.entries, key=len, reverse=True)
    pattern = re.compile(
        "|".join(r"(?<!\w)" + re.escape(k) + r"(?!\w)" for k in keys))
    return pattern.sub(lambda m: table.entries[m.group()], text)


def _strip_punctuation_oracle(text):
    categories = [unicodedata.category(ch) for ch in text]
    return "".join(" " if cat[0] in "PS" else "" if cat == "Cf" else ch
                   for ch, cat in zip(text, categories))


def _spell_digits_oracle(text):
    return "".join(f" {spell_number_de(unicodedata.digit(ch))} "
                   if ch.isdigit() and not ch.isdecimal() else ch
                   for ch in text)


_ANY_CHAR = st.characters(blacklist_categories=("Cs",))
_PUNCT_OR_SYMBOL = st.characters(whitelist_categories=(
    "Pc", "Pd", "Ps", "Pe", "Pi", "Pf", "Po", "Sm", "Sc", "Sk", "So"))
_ASTRAL = st.characters(min_codepoint=0x10000)
_TEXT = st.text(st.one_of(_ANY_CHAR, _PUNCT_OR_SYMBOL, _ASTRAL,
                          st.sampled_from(_FUZZ_ALPHABET + "\u2009²₃①")),
                max_size=40)
# A small key alphabet, so that one key is often a prefix of another. Keys
# and expansions are those AbbrevTable accepts: a key may hold a digit, but
# does not start with one or have white space at either end, and an
# expansion holds no decimal digit (category Nd).
_KEY = st.text(st.sampled_from("aB.,'-_ ß²1"), min_size=1, max_size=3).filter(
    lambda key: not key[0].isdecimal() and key == key.strip())
_EXPANSION = st.text(st.characters(blacklist_categories=("Cs", "Nd")),
                     min_size=1, max_size=4)
_TABLE = st.dictionaries(_KEY, _EXPANSION, min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fast_steps_equal_reference_versions(data):
    table = AbbrevTable(data.draw(_TABLE))
    text = "".join(data.draw(st.lists(
        st.one_of(_TEXT, st.sampled_from(sorted(table.entries) + [" "])),
        max_size=8)))
    # The ABBR matches of the one pattern are those of the per-key pattern.
    abbr_only = table.matcher.sub(lambda m: table.entries[m.group()]
                                  if m.lastgroup == "ABBR" else m.group(),
                                  text)
    assert abbr_only == _expand_abbreviations_oracle(text, table)
    # Without non-decimal digits the character map is the punctuation step.
    text = "".join(ch for ch in text if ch.isdecimal() or not ch.isdigit())
    assert text.translate(_CHAR_MAP) == _strip_punctuation_oracle(text)


# Reference tokenizer: one alternative per kind, DECIMAL tried before
# INTEGER, each with its own grouped whole part.
_WHOLE = r"\d{1,3}(?:[.\u2009\u202f'\u2019]\d{3})+|\d+"
_NUMERIC_ORACLE = re.compile(
    r"(?P<DATE>\b\d{1,2}\.\d{1,2}\.\d{4}\b)"
    rf"|(?P<DECIMAL>(?:{_WHOLE}),\d+)|(?P<INTEGER>{_WHOLE})")


@settings(max_examples=500, deadline=None)
@given(st.text(st.sampled_from("0123456789.,\u2009\u202f'\u2019 a"),
               max_size=16))
def test_numeric_spans_equal_reference(text):
    assert _numeric_spans(text) == [
        (m.group(), m.lastgroup) for m in _NUMERIC_ORACLE.finditer(text)]


# The pattern without its leading (?=\d): the lookahead only lets the
# search skip non-digits, so every match must stay as it was.
_NUMERIC_UNPREFIXED = re.compile(
    r"(?P<DATE>\b\d{1,2}\.\d{1,2}\.\d{4}\b)"
    r"|(?P<INTEGER>\d{1,3}(?:[.\u2009\u202f'\u2019]\d{3})+|\d+)"
    r"(?P<DECIMAL>,\d+)?")


def _matches(pattern, text):
    return [(m.span(), m.lastgroup, m.groups())
            for m in pattern.finditer(text)]


@settings(max_examples=500, deadline=None)
@given(st.text(st.sampled_from("0123456789.,\u2009\u202f'\u2019 aZ²٣"),
               max_size=24))
def test_numeric_lookahead_changes_no_match(text):
    assert _matches(AbbrevTable({}).matcher, text) == \
        _matches(_NUMERIC_UNPREFIXED, text)


# The leading lookahead of a matcher: a character class that may hold
# escaped characters, "]" among them.
_LEADING_LOOKAHEAD = re.compile(r"\A\(\?=\[(?:\\.|[^\]\\])*\]\)")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_matcher_lookahead_changes_no_match(data):
    """The leading (?=[...]) only lets the search skip characters no match
    starts with: without it, every match of a random table stays."""
    table = AbbrevTable(data.draw(st.one_of(
        _TABLE, st.dictionaries(_KEY | st.sampled_from(["]", "^", "\\", "-"]),
                                _EXPANSION, min_size=1, max_size=4))))
    text = "".join(data.draw(st.lists(st.one_of(
        _TEXT, st.sampled_from(sorted(table.entries) + [
            " ", "1", "3.10.2022", "1.000,5", "a"])), max_size=8)))
    pattern, found = _LEADING_LOOKAHEAD.subn("", table.matcher.pattern)
    assert found == 1
    assert _matches(table.matcher, text) == _matches(re.compile(pattern), text)


def test_normalize_nfd_equals_nfc():
    nfc = "Grüße für Zürich"
    nfd = unicodedata.normalize("NFD", nfc)
    assert nfd != nfc
    assert normalize_text(nfd) == normalize_text(nfc) == "grüße für zürich"


@pytest.mark.parametrize("char", ["\u200b", "\u00ad", "\u2060", "\ufeff"])
def test_normalize_drops_format_characters(char):
    assert normalize_text(f"{char}Zür{char}ich 3{char} Mrd.{char}") == \
        "zürich drei milliarden"


# Combining marks and format characters next to digits, abbreviations and
# letters they compose with once a format character between them is gone.
_FORM_PIECES = st.sampled_from(["\u0301", "\u0308", "\u0338", "\u200b",
                                "\u00ad", "\u2060", "\ufeff", "1", "Mrd.",
                                "u", "=", "Ü"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_TEXT, _FORM_PIECES), max_size=8))
def test_normalize_form_independent_nfc_and_idempotent(pieces):
    text = "".join(pieces)
    out = normalize_text(text)
    assert normalize_text(unicodedata.normalize("NFD", text)) == out
    assert unicodedata.is_normalized("NFC", out)
    assert not any(unicodedata.category(ch) == "Cf" for ch in out)
    assert normalize_text(out) == out


@pytest.mark.parametrize("marks", [31, 60, 1_000])
def test_nfc_and_normalize_idempotent_on_long_mark_runs(marks):
    """Marks of classes 220 and 230 in turn, which NFC must reorder: a run
    of more than 30 gets U+034F after each 30, and normalize_text keeps
    it. Two runs of 20 that meet once a format character is deleted get
    one too. A second pass changes neither output."""
    run = ("\u0316\u0301" * marks)[:marks]
    text = f"Z{run} 3 Mrd.{run} x{run[:20]}\u200b{run[:20]}"
    once = nfc(text)
    assert once.count("\u034f") == 2 * ((marks - 1) // 30)
    assert nfc(once) == once
    out = normalize_text(text)
    assert out.count("\u034f") == 2 * ((marks - 1) // 30) + 1
    assert normalize_text(out) == out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_TEXT, st.sampled_from(
    ["Mrd.", "z. B.", "3.10.2022", "31.2.2021", "1.000,5", "m²", " "])),
    max_size=6))
def test_normalize_digit_free_and_idempotent(pieces):
    out = normalize_text("".join(pieces))
    assert not any(ch.isdigit() for ch in out)
    assert normalize_text(out) == out


# normalize_text before its rewrites shared one pattern: abbreviations in a
# pass of their own, then dates and numbers in a second.
_NUMERIC_TWO_PASS = re.compile(
    r"(?=\d)(?:(?P<DATE>\b\d{1,2}\.\d{1,2}\.\d{4}\b)|(?P<INTEGER>\d{1,3}"
    r"(?:" + _SEPARATORS_RE.pattern + r"\d{3})+|\d+)(?P<DECIMAL>,\d+)?)")


def _expand_abbreviations_two_pass(text, table):
    if not table.entries:
        return text
    keys = sorted(table.entries, key=len, reverse=True)
    pattern = re.compile(
        r"(?<!\w)(?:" + "|".join(map(re.escape, keys)) + r")(?!\w)")
    return pattern.sub(lambda m: table.entries[m.group()], text)


def _expand_numeric_two_pass(m):
    if m.lastgroup == "DATE":
        return _expand_date(m.group())
    if m.lastgroup == "DECIMAL":
        return _expand_decimal(m.group())
    return _spell_integer(_SEPARATORS_RE.sub("", m.group()))


def _normalize_two_pass(text, table):
    """normalize_text as first written: abbreviations, then dates and
    numbers, then the digit map and the punctuation map, each in a pass of
    its own."""
    text = unicodedata.normalize("NFC", text)
    text = _expand_abbreviations_two_pass(text, table)
    text = _NUMERIC_TWO_PASS.sub(_expand_numeric_two_pass, text)
    text = _spell_digits_oracle(text)
    text = _strip_punctuation_oracle(text)
    text = text.lower()
    return unicodedata.normalize("NFC", " ".join(text.split()))


@pytest.mark.parametrize("decomposed", [True, False])
@pytest.mark.parametrize("empty_table", [True, False])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_normalize_equals_two_pass_version(decomposed, empty_table, data):
    """One pass gives the output of two: with the empty table, or with the
    default table and a random one that AbbrevTable accepts, whose keys
    the text holds among digits, dates and decimals."""
    tables = [AbbrevTable({})] if empty_table else [
        default_abbrev_table(), AbbrevTable(data.draw(_TABLE))]
    keys = sorted({key for table in tables for key in table.entries})
    text = "".join(data.draw(st.lists(st.one_of(
        _TEXT, _FORM_PIECES, st.sampled_from(
            ["3.10.2022", "1.000,5", "m²", "₂", "①", "٣", "\u2009", " "]
            + keys)), max_size=6)))
    if decomposed:
        text = unicodedata.normalize("NFD", text)
    for table in tables:
        assert normalize_text(text, table) == _normalize_two_pass(text, table)
