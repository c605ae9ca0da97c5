"""Target-text normalization: abbreviations, dates, numbers, punctuation, case.

Pipeline order is abbreviations -> dates -> numbers -> punctuation strip ->
lowercase -> whitespace collapse. Dates go before plain numbers so that
"3.10.2022" is expanded as a date instead of being shredded into integers.
After one pass the output contains no digits, no punctuation or symbol
characters and no uppercase letters, which makes the pipeline idempotent.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path

from .numbers_de import MAX_NUMBER, spell_date_de, spell_number_de


class SpanKind(Enum):
    INTEGER = "INTEGER"
    DECIMAL = "DECIMAL"
    DATE = "DATE"


# Priority: DATE, then DECIMAL (comma fraction), then INTEGER with optional
# thousands separators (dot or thin/narrow space).
_NUMERIC_RE = re.compile(
    r"(?P<DATE>\b\d{1,2}\.\d{1,2}\.\d{4}\b)"
    r"|(?P<DECIMAL>\d+,\d+)"
    r"|(?P<INTEGER>\d{1,3}(?:[.  ]\d{3})+|\d+)"
)

_SEPARATORS_RE = re.compile(r"[.  ]")


def find_numeric_spans(text: str) -> list[tuple[str, SpanKind]]:
    """Non-overlapping numeric spans, left to right, dates winning ties."""
    spans = []
    for m in _NUMERIC_RE.finditer(text):
        kind = SpanKind[m.lastgroup]
        spans.append((m.group(), kind))
    return spans


@dataclass(frozen=True)
class AbbrevTable:
    entries: dict[str, str]

    def __post_init__(self) -> None:
        for key, value in self.entries.items():
            if not key or not value:
                raise ValueError("abbreviation keys and values must be nonempty")

    @staticmethod
    def from_tsv(path: str | Path) -> "AbbrevTable":
        entries: dict[str, str] = {}
        for lineno, line in enumerate(
                Path(path).read_text(encoding="utf-8").splitlines(), start=1):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path} line {lineno}: expected two columns")
            entries[parts[0]] = parts[1]
        return AbbrevTable(entries)


def default_abbrev_table() -> AbbrevTable:
    path = resources.files("slt_toolkit.data") / "abbreviations_de.tsv"
    return AbbrevTable.from_tsv(str(path))


@dataclass(frozen=True)
class NormConfig:
    expand_abbrev: bool = True
    strip_punct: bool = True
    lowercase: bool = True
    expand_numbers: bool = True
    expand_dates: bool = True


def _expand_abbreviations(text: str, table: AbbrevTable) -> str:
    # Longest keys first so "z.B." wins over a hypothetical "z." entry.
    keys = sorted(table.entries, key=len, reverse=True)
    pattern = re.compile(
        "|".join(r"(?<!\w)" + re.escape(k) + r"(?!\w)" for k in keys))
    return pattern.sub(lambda m: table.entries[m.group()], text)


def _spell_integer(digits: str) -> str:
    n = int(digits)
    if n <= MAX_NUMBER:
        return spell_number_de(n)
    # Oversized numbers: spell in 3-digit groups from the left.
    groups = []
    head = len(digits) % 3 or 3
    groups.append(digits[:head])
    groups.extend(digits[i:i + 3] for i in range(head, len(digits), 3))
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
    return f"{_spell_integer(whole)} komma {frac_words}"


def _expand_numeric(text: str, cfg: NormConfig) -> str:
    def repl(m: re.Match) -> str:
        kind = SpanKind[m.lastgroup]
        if kind is SpanKind.DATE:
            if not cfg.expand_dates:
                return m.group()
            return _expand_date(m.group())
        if not cfg.expand_numbers:
            return m.group()
        if kind is SpanKind.DECIMAL:
            return _expand_decimal(m.group())
        return _spell_integer(_SEPARATORS_RE.sub("", m.group()))

    return _NUMERIC_RE.sub(repl, text)


def _strip_punctuation(text: str) -> str:
    # Unicode punctuation (P*) and symbols (S*) become spaces; letters
    # including umlauts and ß are untouched.
    return "".join(
        " " if unicodedata.category(ch)[0] in "PS" else ch for ch in text)


def normalize_text(text: str, table: AbbrevTable | None = None,
                   cfg: NormConfig = NormConfig()) -> str:
    if table is None:
        table = default_abbrev_table()
    if cfg.expand_abbrev:
        text = _expand_abbreviations(text, table)
    if cfg.expand_dates or cfg.expand_numbers:
        text = _expand_numeric(text, cfg)
    if cfg.strip_punct:
        text = _strip_punctuation(text)
    if cfg.lowercase:
        text = text.lower()
    return " ".join(text.split())
