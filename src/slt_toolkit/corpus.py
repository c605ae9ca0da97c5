"""Data model and line-oriented I/O for corpora and segment files.

Corpora are stored as JSON Lines (one utterance object per line); hypothesis
and reference files are plain text with one segment per line. Both formats
are UTF-8, accept LF or CRLF on read and emit LF on write.
"""

from __future__ import annotations

import json
import sys
from enum import Enum
from functools import cache
from pathlib import Path
from typing import Iterable, Iterator, List, NamedTuple, Optional


class Source(Enum):
    SRF = "SRF"
    FN = "FN"
    LEX = "LEX"
    OTHER = "OTHER"


class CorpusError(ValueError):
    """Raised on malformed corpus or segment files."""


class DuplicateIdError(CorpusError):
    """Two utterances of one corpus share an id; ``first`` and ``second``
    are their 0-based positions."""

    def __init__(self, id: str, first: int, second: int) -> None:
        super().__init__(
            f"duplicate id '{id}' (entries {first + 1} and {second + 1})")
        self.id, self.first, self.second = id, first, second


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
    source: Source
    duration_s: Optional[float]


class Utterance(Checked, _UtteranceFields):
    """One subtitle line; the id is nonempty and a duration is >= 0."""
    __slots__ = ()

    def __new__(cls, id: str, text: str, source: Source = Source.OTHER,
                duration_s: Optional[float] = None) -> "Utterance":
        if not id:
            raise CorpusError("utterance id must be nonempty")
        if duration_s is not None and duration_s < 0:
            raise CorpusError(f"duration_s must be >= 0, got {duration_s}")
        return tuple.__new__(cls, (id, text, source, duration_s))


class FrozenSlots:
    """Base of the immutable records that are not tuples: fields are
    ``__slots__`` set once with ``object.__setattr__``; equality, hash and
    repr go field by field."""
    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field '{name}'")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copy and pickle would restore slots by __setattr__.
        return type(self), self._values()


class Corpus(FrozenSlots):
    """An immutable sequence of utterances with unique ids."""
    __slots__ = ("utterances",)

    def __init__(self, utterances: tuple[Utterance, ...] = ()) -> None:
        seen: dict[str, int] = {}
        for i, utt in enumerate(utterances):
            if utt.id in seen:
                raise DuplicateIdError(utt.id, seen[utt.id], i)
            seen[utt.id] = i
        object.__setattr__(self, "utterances", utterances)

    def __len__(self) -> int:
        return len(self.utterances)

    def __iter__(self):
        return iter(self.utterances)


def read_text(path: str | Path) -> str:
    """The contents of a UTF-8 text file without one leading byte order
    mark (U+FEFF); a decode error names the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not valid UTF-8: {exc}") from exc
    return text[1:] if text.startswith("\ufeff") else text


def _split_lines(raw: str) -> tuple[str, ...]:
    """Lines split on "\n" only, each without a trailing "\r"; a final
    "\n" ends the last line and opens no empty one, while empty lines
    inside survive as "". Text keeps U+2028, U+2029, U+0085, "\v" and
    "\f", where splitlines() would break lines."""
    lines = raw.split("\n")
    if lines[-1] == "":
        lines.pop()
    return tuple(line.rstrip("\r") for line in lines)


@cache
def bundled_lines(name: str) -> tuple[str, ...]:
    """Lines of a data file shipped in ``slt_toolkit/data``, read once per
    process."""
    return _split_lines(read_text(Path(__file__).parent / "data" / name))


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each nonblank line of a JSONL file.

    write_corpus keeps U+2028, U+2029 and U+0085 raw inside JSON strings,
    so lines are split as in segment files. Errors name the file and the
    line.
    """
    for lineno, line in enumerate(_split_lines(read_text(path)), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(
                f"{path}: line {lineno}: malformed JSON: {exc.msg}") from exc
        except RecursionError:
            raise CorpusError(
                f"{path}: line {lineno}: JSON nested too deeply") from None
        if not isinstance(obj, dict):
            raise CorpusError(f"{path}: line {lineno}: expected a JSON object")
        yield lineno, obj


_REQUIRED = object()
_KIND_NAMES = {str: "a string", int: "an integer", float: "a finite number",
               list: "a list of strings"}


def json_field(obj: dict, name: str, kind: type, where: str | Path,
               default=_REQUIRED):
    """Field ``name`` of a parsed JSON object, checked against ``kind``:
    ``str``; ``int``, not a boolean; ``float``, any finite number but not a
    boolean, returned as a float; ``list``, of strings, returned as a tuple.

    An absent or null field gives ``default`` and, without one, is an
    error. Errors are CorpusErrors that start with ``where`` (the file,
    and for JSONL the line) and name the field.
    """
    value = obj.get(name)
    if value is None and default is not _REQUIRED:
        return default
    if kind is float:
        # Excludes NaN, the infinities and integers beyond the float range.
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
    elif kind is list:
        if type(value) is list and all(type(item) is str for item in value):
            return tuple(value)
    elif type(value) is kind:  # type(True) is bool, not int
        return value
    raise CorpusError(f"{where}: field '{name}' must be {_KIND_NAMES[kind]}")


def _utterance_from_obj(obj: dict, path: str | Path, lineno: int) -> Utterance:
    where = f"{path}: line {lineno}"
    id = json_field(obj, "id", str, where)
    text = json_field(obj, "text", str, where)
    source = json_field(obj, "source", str, where, None)
    duration = json_field(obj, "duration_s", float, where, None)
    try:
        return Utterance(id, text,
                         Source.OTHER if source is None else Source(source),
                         duration)
    except CorpusError as exc:
        raise CorpusError(f"{where}: {exc}") from None
    except ValueError:
        raise CorpusError(f"{where}: unknown source '{source}'") from None


def load_corpus(path: str | Path) -> Corpus:
    """Read a JSONL corpus; one object per line with at least id and text."""
    utterances: List[Utterance] = []
    linenos: List[int] = []
    for lineno, obj in read_jsonl(path):
        utterances.append(_utterance_from_obj(obj, path, lineno))
        linenos.append(lineno)
    try:
        return Corpus(tuple(utterances))
    except DuplicateIdError as exc:
        raise CorpusError(
            f"{path}: duplicate id '{exc.id}' "
            f"(lines {linenos[exc.first]} and {linenos[exc.second]})"
        ) from None


_CORPUS_JSON = json.JSONEncoder(ensure_ascii=False)


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    lines = []
    for utt in corpus:
        obj: dict = {"id": utt.id, "text": utt.text, "source": utt.source.value}
        if utt.duration_s is not None:
            obj["duration_s"] = utt.duration_s
        lines.append(_CORPUS_JSON.encode(obj))
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def load_segments(path: str | Path) -> tuple[str, ...]:
    """Read a plain-text segment file; lines are preserved verbatim."""
    return _split_lines(read_text(path))


def write_segments(segments: Iterable[str], path: str | Path) -> None:
    lines = list(segments)
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
