"""Data model and line-oriented I/O for corpora and segment files.

Corpora are stored as JSON Lines (one utterance object per line); hypothesis
and reference files are plain text with one segment per line. Both formats
are UTF-8, accept LF or CRLF on read and emit LF on write.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, List, Optional


class Source(Enum):
    SRF = "SRF"
    FN = "FN"
    LEX = "LEX"
    OTHER = "OTHER"


class CorpusError(ValueError):
    """Raised on malformed corpus or segment files."""


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
                raise CorpusError(
                    f"duplicate id '{utt.id}' (entries {seen[utt.id] + 1} and {i + 1})"
                )
            seen[utt.id] = i

    def __len__(self) -> int:
        return len(self.utterances)

    def __iter__(self):
        return iter(self.utterances)


@dataclass(frozen=True)
class SegmentFile:
    lines: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self):
        return iter(self.lines)


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each nonblank line of a JSONL file.

    Lines are split on "\n" only: write_corpus keeps U+2028, U+2029 and
    U+0085 raw inside JSON strings, where splitlines() would break them.
    Errors name the file and the line.
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not valid UTF-8: {exc}") from exc
    for lineno, line in enumerate(raw.split("\n"), start=1):
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
    seen: dict[str, int] = {}
    for lineno, obj in read_jsonl(path):
        utt = _utterance_from_obj(obj, path, lineno)
        if utt.id in seen:
            raise CorpusError(
                f"{path}: duplicate id '{utt.id}' "
                f"(lines {seen[utt.id]} and {lineno})"
            )
        seen[utt.id] = lineno
        utterances.append(utt)
    return Corpus(tuple(utterances))


_CORPUS_JSON = json.JSONEncoder(ensure_ascii=False)


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    lines = []
    for utt in corpus:
        obj: dict = {"id": utt.id, "text": utt.text, "source": utt.source.value}
        if utt.duration_s is not None:
            obj["duration_s"] = utt.duration_s
        lines.append(_CORPUS_JSON.encode(obj))
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def load_segments(path: str | Path) -> SegmentFile:
    """Read a plain-text segment file; lines are preserved verbatim."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not valid UTF-8: {exc}") from exc
    if raw == "":
        return SegmentFile(())
    # splitlines() on "x\n" yields ["x"]; empty lines survive as "" entries
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return SegmentFile(tuple(line.rstrip("\r") for line in lines))


def write_segments(segments: Iterable[str] | SegmentFile, path: str | Path) -> None:
    lines = list(segments)
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
