"""Data model and line-oriented I/O for corpora and segment files.

Corpora are stored as JSON Lines (one utterance object per line); hypothesis
and reference files are plain text with one segment per line. Both formats
are UTF-8, accept LF or CRLF on read and emit LF on write.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, List, Optional


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


@dataclass(frozen=True)
class Utterance:
    id: str
    text: str
    source: Source = Source.OTHER
    duration_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.id:
            raise CorpusError("utterance id must be nonempty")
        if self.duration_s is not None and self.duration_s < 0:
            raise CorpusError(f"duration_s must be >= 0, got {self.duration_s}")


@dataclass(frozen=True)
class Corpus:
    utterances: tuple[Utterance, ...] = ()

    def __post_init__(self) -> None:
        seen: dict[str, int] = {}
        for i, utt in enumerate(self.utterances):
            if utt.id in seen:
                raise DuplicateIdError(utt.id, seen[utt.id], i)
            seen[utt.id] = i

    def __len__(self) -> int:
        return len(self.utterances)

    def __iter__(self):
        return iter(self.utterances)


def read_text(path: str | Path) -> str:
    """The contents of a UTF-8 text file; a decode error names the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not valid UTF-8: {exc}") from exc


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
    path = resources.files("slt_toolkit.data") / name
    return _split_lines(path.read_text(encoding="utf-8"))


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
        if not isinstance(obj, dict):
            raise CorpusError(f"{path}: line {lineno}: expected a JSON object")
        yield lineno, obj


def _utterance_from_obj(obj: dict, path: str | Path, lineno: int) -> Utterance:
    if "id" not in obj or "text" not in obj:
        raise CorpusError(
            f"{path}: line {lineno}: missing required field 'id' or 'text'")
    source = Source.OTHER
    if "source" in obj and obj["source"] is not None:
        try:
            source = Source(obj["source"])
        except ValueError:
            raise CorpusError(
                f"{path}: line {lineno}: unknown source '{obj['source']}'"
            ) from None
    duration = obj.get("duration_s")
    if duration is not None:
        try:
            duration = float(duration)
        except (TypeError, ValueError):
            raise CorpusError(
                f"{path}: line {lineno}: duration_s must be a number"
            ) from None
    try:
        return Utterance(id=str(obj["id"]), text=str(obj["text"]),
                         source=source, duration_s=duration)
    except CorpusError as exc:
        raise CorpusError(f"{path}: line {lineno}: {exc}") from None


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
