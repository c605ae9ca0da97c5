"""Target-text normalization: abbreviations, dates, numbers, punctuation, case.

One fixed pipeline: NFC -> one rewrite pass -> one character map
(punctuation and symbols to spaces, format characters out, non-decimal
digits spelled) -> lowercase -> whitespace collapse -> NFC. The rewrite
pass is one pattern per abbreviation table: the leftmost match wins, and
at one position an abbreviation wins, then a date, then a number, so that
"3.10.2022" is expanded as a date instead of being shredded into integers.
After one pass the output is NFC and contains no digits, no punctuation,
symbol or format characters and no uppercase letters, which makes the
pipeline idempotent. An empty abbreviation table turns off abbreviation
expansion. NFC is ``corpus.nfc``, so a run of more than 30 combining
marks keeps the U+034F it puts after each 30. NFKC is not applied: it
would turn the thin spaces inside grouped numbers into plain spaces.
"""

from __future__ import annotations

import re
import unicodedata
from functools import cache, cached_property, partial
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .corpus import DATA, Checked, nfc, parse_lines
from .numbers_de import MAX_NUMBER, spell_date_de, spell_number_de


# A thousands separator: dot, thin or narrow no-break space, or the Swiss
# apostrophe ' or ’.
_SEPARATORS_RE = re.compile("[.\u2009\u202f'’]")

# The numeric branches of every matcher: a DATE, then a number: digits with
# optional thousands separators, an INTEGER unless a comma fraction follows
# and makes it a DECIMAL. m.lastgroup names the kind, m.group() the span. The
# leading (?=\d) spares the three alternatives at a key's first character.
_NUMERIC = (r"(?=\d)(?:(?P<DATE>\b\d{1,2}\.\d{1,2}\.\d{4}\b)|(?P<INTEGER>"
            r"\d{1,3}(?:" + _SEPARATORS_RE.pattern + r"\d{3})+|\d+)"
            r"(?P<DECIMAL>,\d+)?)")


class _AbbrevTableFields(NamedTuple):
    entries: Mapping[str, str]


class AbbrevTable(Checked, _AbbrevTableFields):
    """Abbreviation -> expansion; keys and values are nonempty, and keys
    are kept in NFC, the form ``normalize_text`` matches in: of two keys
    equal in NFC the later one wins. No ``__slots__``: the instance dict
    holds the matcher once it is built."""

    def __new__(cls, entries: Mapping[str, str]) -> "AbbrevTable":
        entries = {nfc(key): value for key, value in entries.items()}
        for key, value in entries.items():
            if not key or not value:
                raise ValueError("abbreviation keys and values must be nonempty")
            # A key that starts with a digit would cut into a number, one
            # with white space at an end never matches before a word, and a
            # digit in an expansion would reach the output unspelled.
            if key[0].isdecimal() or key != key.strip() or \
                    any(map(str.isdecimal, value)):
                raise ValueError(
                    f"invalid abbreviation {key!r}: {value!r}: a key must not "
                    f"start with a digit or have white space at either end, "
                    f"and an expansion must hold no digit")
        # Read-only: the matcher is compiled from the keys once, and the
        # default table is shared by every caller.
        return tuple.__new__(cls, (MappingProxyType(entries),))

    @cached_property
    def matcher(self) -> re.Pattern:
        """The one pattern of every rewrite: ABBR, one of the keys, longest
        first so "z.B." wins over a hypothetical "z." entry, then _NUMERIC;
        an empty table has no ABBR. Built on first use. The word-boundary
        lookarounds wrap the whole key alternation: repeated in front of
        every key, the lookbehind cost over 15x more. The leading lookahead
        names the characters a match can start with, so that most positions
        fail on one test."""
        keys = sorted(self.entries, key=len, reverse=True)
        heads = "".join(sorted({re.escape(key[0]) for key in keys}))
        abbr = (r"(?P<ABBR>(?<!\w)(?:" + "|".join(map(re.escape, keys))
                + r")(?!\w))|") if keys else ""
        return re.compile(rf"(?=[\d{heads}])(?:{abbr}{_NUMERIC})")

    @staticmethod
    def from_tsv(path: str | Path) -> "AbbrevTable":
        return AbbrevTable(dict(row for _, row in parse_lines(path, _row)))


def _row(line: str) -> tuple[str, str]:
    """One TSV row, abbreviation in NFC and expansion, checked as a table
    of one: so an invalid row fails here, where ``parse_lines`` adds its
    line number."""
    parts = line.split("\t")
    if len(parts) != 2:
        raise ValueError("expected two columns")
    [row] = AbbrevTable(dict([parts])).entries.items()
    return row


@cache
def default_abbrev_table() -> AbbrevTable:
    """The bundled table, read once per process and shared by all callers."""
    return AbbrevTable.from_tsv(DATA / "abbreviations_de.tsv")


_MAX_DIGITS = len(str(MAX_NUMBER))  # MAX_NUMBER is all nines


def _spell_integer(digits: str) -> str:
    # Chosen by length, and int() gets the significant digits only, so that
    # no run, leading zeros included, meets Python's int/str digit limit.
    significant = digits.lstrip("0")
    if len(significant) <= _MAX_DIGITS:
        return spell_number_de(int(significant or "0"))
    # Oversized numbers: spell the significant digits in 3-digit groups
    # from the left; leading zeros do not count here either.
    head = len(significant) % 3 or 3
    groups = [significant[:head], *(significant[i:i + 3] for i in
                                    range(head, len(significant), 3))]
    return " ".join(spell_number_de(int(g)) for g in groups)


def _expand_date(span: str) -> str:
    day, month, year = (int(p) for p in span.split("."))
    try:
        return spell_date_de(day, month, year)
    except ValueError:
        # Not calendar-valid; expand the three fields as plain cardinals.
        return " ".join(spell_number_de(p) for p in (day, month, year))


def _expand_decimal(span: str) -> str:
    whole, frac = span.split(",")
    frac_words = " ".join(spell_number_de(int(d)) for d in frac)
    return f"{_spell_integer(_SEPARATORS_RE.sub('', whole))} komma {frac_words}"


class _CodePointMap(dict):
    """`str.translate` table that works out a code point's replacement on
    first sight. Only code points below U+3000 are remembered, so memory
    stays bounded whatever the input; a table of all 1.1M code points
    built up front would cost every process start."""

    def __init__(self, replace: Callable[[str], str]) -> None:
        super().__init__()
        self._replace = replace

    def __missing__(self, cp: int) -> str:
        value = self._replace(chr(cp))
        if cp < 0x3000:
            self[cp] = value
        return value


def _map_char(ch: str) -> str:
    """Punctuation (P*) and symbols (S*) become spaces and format
    characters (Cf: U+200B, U+00AD, U+2060, U+FEFF, ...) are deleted.
    Digits that are not decimal (superscripts, subscripts, circled digits:
    "²", "₂", "①") escape the matcher but are str.isdigit; each is spelled
    as its own word. Letters, umlauts and ß included, stay."""
    category = unicodedata.category(ch)
    if category[0] in "PS":
        return " "
    if category == "Cf":
        return ""
    if ch.isdigit() and not ch.isdecimal():
        return f" {spell_number_de(unicodedata.digit(ch))} "
    return ch


_CHAR_MAP = _CodePointMap(_map_char)


def _expand(entries: Mapping[str, str], m: re.Match) -> str:
    """The words for one match of an AbbrevTable's matcher."""
    kind = m.lastgroup
    if kind == "ABBR":
        return entries[m.group()]
    if kind == "DATE":
        return _expand_date(m.group())
    if kind == "DECIMAL":
        return _expand_decimal(m.group())
    return _spell_integer(_SEPARATORS_RE.sub("", m.group()))


def normalize_text(text: str, table: AbbrevTable | None = None) -> str:
    if table is None:
        table = default_abbrev_table()
    text = nfc(text)
    text = table.matcher.sub(partial(_expand, table.entries), text)
    text = text.translate(_CHAR_MAP)
    # A deleted format character or a spelled number can leave a combining
    # mark after a letter it now composes with.
    return nfc(" ".join(text.lower().split()))
