"""Data model and line-oriented I/O for corpora and segment files.

Corpora are stored as JSON Lines (one utterance object per line); hypothesis
and reference files are plain text with one segment per line. Both formats
are UTF-8, accept LF or CRLF on read and emit LF on write. ``Utterance``
checks every field of a corpus line, so a record built in code obeys the
rules of one read from a file. Every other line file, user files and the
data files shipped in ``DATA`` alike, is read and parsed by
``parse_lines``: this module is the package's only file I/O.
Every word list, a stop list or a language profile, is built and checked
by ``function_words`` alone. Every text the package puts in NFC goes
through ``nfc``, which bounds the work of hostile combining-mark runs.
"""

from __future__ import annotations

import json
import re
import sys
import unicodedata
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional

# The source codes of a corpus, in the order ``stats`` reports them.
SOURCES = ("SRF", "FN", "LEX", "OTHER")


class CorpusError(ValueError):
    """Raised on malformed corpus or segment files."""


class Checked:
    """Mixin, first base of a tuple record whose ``__new__`` validates:
    ``_make``, and so ``_replace``, build through ``__new__`` as well."""
    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _UtteranceFields(NamedTuple):
    id: str
    text: str
    source: str
    duration_s: Optional[float]


class Utterance(Checked, _UtteranceFields):
    """One subtitle line, checked as a corpus line is: a nonempty string
    id, a string text, a source code of ``SOURCES`` (None reads as
    "OTHER") and a duration that is None or a finite number >= 0, not a
    boolean, kept as a float. The checks run in a fixed order, so a line
    with several faults reports the same one first."""
    __slots__ = ()

    def __new__(cls, id: str, text: str, source: Optional[str] = "OTHER",
                duration_s: Optional[float] = None) -> "Utterance":
        if type(id) is not str:
            raise CorpusError("field 'id' must be a string")
        if type(text) is not str:
            raise CorpusError("field 'text' must be a string")
        if source is None:
            source = "OTHER"
        elif type(source) is not str:
            raise CorpusError("field 'source' must be a string")
        if duration_s is not None:
            # type(True) is bool; abs() of NaN, the infinities and integers
            # beyond the float range fails the comparison.
            if type(duration_s) not in (int, float) or \
                    not abs(duration_s) <= sys.float_info.max:
                raise CorpusError("field 'duration_s' must be a finite number")
            duration_s = float(duration_s)
        if source not in SOURCES:
            raise CorpusError(f"unknown source '{source}'")
        if not id:
            raise CorpusError("utterance id must be nonempty")
        if duration_s is not None and duration_s < 0:
            raise CorpusError(f"duration_s must be a finite number >= 0, "
                              f"got {duration_s}")
        return tuple.__new__(cls, (id, text, source, duration_s))


def read_text(path: str | Path) -> str:
    """The contents of a UTF-8 text file without one leading byte order
    mark (U+FEFF); a decode error names the file and the line. Bytes are
    decoded as they are, so a lone "\r" stays inside its line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise CorpusError(
            f"{path}: line {line}: not valid UTF-8: {exc}") from exc
    return text[1:] if text.startswith("\ufeff") else text


def _split_lines(raw: str) -> tuple[str, ...]:
    """Lines split on "\n" only, each without the one "\r" of a CRLF; a
    final "\n" ends the last line and opens no empty one, while empty lines
    inside survive as "". Text keeps U+2028, U+2029, U+0085, "\v" and
    "\f", where splitlines() would break lines."""
    if "\r" in raw:  # replace() scans the whole text even for no match
        raw = raw.replace("\r\n", "\n")
    lines = raw.split("\n")
    if lines[-1] == "":
        lines.pop()
    return tuple(lines)


# The data files shipped with the package.
DATA = Path(__file__).parent / "data"

# The Stream-Safe Text Format of Unicode UAX #15, section 13: U+034F
# COMBINING GRAPHEME JOINER, a starter, after each 30 non-starters in a row.
_MAX_NON_STARTERS = 30
_CGJ = "\u034f"
# Every character whose decomposition begins with a non-starter is at or
# above U+0300 and adds at most 2 non-starters to a run, and the character
# before a run adds at most 3: no run passes 30 in text without 14 such
# code points in a row. One class and then 13 more, so that the search
# skips in C to a character that can start a match; the classes are
# negated, since the range up to U+10FFFF took 5-15 ms to compile (2 vCPUs,
# Python 3.11).
_LONG_RUN_CANDIDATE = re.compile("[^\x00-\u02ff][^\x00-\u02ff]{13}")


def _stream_safe(text: str) -> str:
    """``text`` with each character canonically decomposed and U+034F after
    each 30 non-starters in a row. Each character is decomposed on its own,
    so nothing is reordered across characters."""
    out = []
    run = 0
    for ch in "".join([unicodedata.normalize("NFD", c) for c in text]):
        if unicodedata.combining(ch):
            run += 1
            if run > _MAX_NON_STARTERS:
                out.append(_CGJ)
                run = 1
        else:
            run = 0
        out.append(ch)
    return "".join(out)


def nfc(text: str) -> str:
    """``text`` in NFC: the one home of Unicode normalization in the package.

    CPython's NFC takes time quadratic in the length of a run of
    non-starters (combining marks) that must be reordered, so a run of more
    than 30 non-starters in the canonical decomposition is broken by U+034F
    COMBINING GRAPHEME JOINER after each 30 first (UAX #15, section 13).
    Runs are counted in the decomposition, where a character such as
    U+0344 or U+0F73 is two non-starters and a precomposed letter adds its
    marks to the run after it. Text without such a run gets exactly
    ``unicodedata.normalize("NFC", text)``, and ``nfc(nfc(s)) == nfc(s)``
    for every text."""
    if text.isascii():
        return text
    if _LONG_RUN_CANDIDATE.search(text):
        text = _stream_safe(text)
    return unicodedata.normalize("NFC", text)


def _word(line: str) -> str:
    word = nfc(line).strip().lower()
    if word.split() != [word]:
        raise ValueError(f"invalid word: {word!r}")
    return word


def function_words(path: str | Path) -> frozenset[str]:
    """The words of a word-list file, a stop list or a language profile:
    each nonblank line in NFC, stripped and lowercased, the form a token of
    NFC text takes after ``.lower()``. A line must be one ``str.split()``
    token."""
    return frozenset(word for _, word in parse_lines(path, _word))


def parse_lines(path: str | Path, parse: Callable[[str], object]
                ) -> list[tuple[int, object]]:
    """(line number, ``parse(line)``) for each nonblank line of the file at
    ``path``, a user file or one under ``DATA``. A ValueError from ``parse``
    becomes a CorpusError that names the path and the line: this is the
    one loop that parses a file's lines, and so the one place that says
    where in a file a line is wrong."""
    parsed = []
    for lineno, line in enumerate(load_segments(path), start=1):
        if line and not line.isspace():
            try:
                parsed.append((lineno, parse(line)))
            except ValueError as exc:
                raise CorpusError(f"{path}: line {lineno}: {exc}") from exc
    return parsed


# A \u escape in U+D800..U+DFFF, which most ASCII-escaped text lacks: a
# lone surrogate decodes, but no UTF-8 encodes it.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
# (value, end) of the JSON value at the start of a text.
_decode_prefix = json.JSONDecoder().raw_decode


def json_object(text: str) -> dict:
    """The JSON object one line ``text`` holds; errors carry no location,
    which ``parse_lines`` adds."""
    # A text that is one JSON value and nothing else takes one C call;
    # json.loads skips white space around the value and words errors.
    try:
        obj, end = _decode_prefix(text)
    except (ValueError, RecursionError):
        end = -1
    try:
        if end != len(text):
            obj = json.loads(text)
        if _SURROGATE_ESCAPE.search(text):
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except json.JSONDecodeError as exc:
        raise CorpusError(f"malformed JSON: {exc.msg}") from None
    except RecursionError:
        raise CorpusError("JSON nested too deeply") from None
    except UnicodeEncodeError:
        raise CorpusError("string is not valid Unicode") from None
    if not isinstance(obj, dict):
        raise CorpusError("expected a JSON object")
    return obj


def _utterance(line: str) -> Utterance:
    obj = json_object(line)
    return Utterance(obj.get("id"), obj.get("text"), obj.get("source"),
                     obj.get("duration_s"))


def check_unique_ids(path: str | Path, ids: Iterable[tuple[int, str]]
                     ) -> None:
    """Raise a CorpusError that names ``path`` and both lines at the first
    id of the (line number, id) pairs that repeats an earlier one: the ids
    of a corpus or a manifest are unique."""
    first_lines: dict[str, int] = {}
    for lineno, id in ids:
        if (first := first_lines.setdefault(id, lineno)) != lineno:
            raise CorpusError(f"{path}: duplicate id '{id}' "
                              f"(lines {first} and {lineno})")


def load_corpus(path: str | Path) -> tuple[Utterance, ...]:
    """Read a JSONL corpus; one object per line with at least id and text.
    Ids are unique: a repeated id is an error that names both lines."""
    parsed = parse_lines(path, _utterance)
    check_unique_ids(path, ((lineno, utt.id) for lineno, utt in parsed))
    return tuple(utt for _, utt in parsed)


# One JSON Lines record; non-ASCII characters, U+2028 included, stay raw.
# Every record is built afresh from strings and numbers, so it holds no
# cycle to look for.
jsonl_line = json.JSONEncoder(ensure_ascii=False, check_circular=False).encode


def write_corpus(corpus: Iterable[Utterance], path: str | Path) -> None:
    """Write a JSONL corpus that ``load_corpus`` reads back equal. A
    repeated id is refused before the file is opened, with the lines it
    would have taken."""
    corpus = tuple(corpus)
    check_unique_ids(path, enumerate((utt.id for utt in corpus), start=1))
    lines = []
    for utt in corpus:
        obj: dict = {"id": utt.id, "text": utt.text, "source": utt.source}
        if utt.duration_s is not None:
            obj["duration_s"] = utt.duration_s
        lines.append(jsonl_line(obj))
    write_segments(lines, path)


def load_segments(path: str | Path) -> tuple[str, ...]:
    """Read a plain-text segment file; lines are preserved verbatim."""
    return _split_lines(read_text(path))


def write_segments(segments: Iterable[str], path: str | Path) -> None:
    """One UTF-8 line per segment, ended by LF on every platform. The text
    is encoded before the file is opened: a failed write leaves no file."""
    data = "\n".join([*segments, ""]).encode("utf-8")
    Path(path).write_bytes(data)
