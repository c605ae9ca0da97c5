"""Sentence-level filtering of noisy subtitle annotation.

Rules, applied in fixed order per utterance:
  1. ASTERISK_SOUND   strip spans enclosed by asterisk pairs (sound cues)
  2. HASHTAG_START    drop lines starting with '#'
  3. STATUS_MESSAGE   drop subtitling-agency boilerplate
  4. FOREIGN_SENTENCE drop lines identified as French/English

An utterance whose text is empty or whitespace after stripping sound cues
is dropped outright. Every rule always runs. Rule 3 matches the SWISS TXT
literals of ``data/status_de.txt``, or the patterns of a line file that
replaces them (an empty one switches the rule off); rule 4 drops a line
whose French or English score wins and reaches 0.3. Both match the text in
NFC, as ``corpus.nfc`` gives it, while outputs keep its code points.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import cache
from itertools import filterfalse
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus import DATA, Utterance, function_words, jsonl_line, nfc, \
    parse_lines, write_segments


class RuleName(Enum):
    FOREIGN_SENTENCE = "FOREIGN_SENTENCE"
    HASHTAG_START = "HASHTAG_START"
    STATUS_MESSAGE = "STATUS_MESSAGE"
    ASTERISK_SOUND = "ASTERISK_SOUND"


class Verdict(Enum):
    KEPT = "KEPT"
    DROPPED = "DROPPED"
    EDITED = "EDITED"


class CleanOutcome(NamedTuple):
    id: str
    verdict: Verdict
    hits: tuple[tuple[RuleName, str], ...] = ()
    text: str | None = None  # surviving (possibly edited) text, None if dropped


@cache
def default_profiles() -> Mapping[str, frozenset[str]]:
    """Each language's bundled function words by its code: "DE", "FR" and
    "EN", in that order, built once per process and shared read-only."""
    return MappingProxyType({
        "DE": function_words(DATA / "stopwords_de.txt"),
        "FR": function_words(DATA / "function_words_fr.txt"),
        "EN": function_words(DATA / "function_words_en.txt"),
    })


def _status_pattern(pattern: str) -> str:
    """One status pattern, in NFC. None is empty, since every text starts
    with "", and none has white space at either end, since it is compared
    with the trimmed text."""
    pattern = nfc(pattern)
    if not pattern or pattern != pattern.strip():
        raise ValueError(f"invalid status pattern {pattern!r}: a pattern "
                         f"must not be empty or have white space at either "
                         f"end")
    return pattern


def read_status_patterns(path: str | Path) -> tuple[str, ...]:
    """The nonblank lines of a status-pattern file, each in NFC."""
    return tuple(p for _, p in parse_lines(path, _status_pattern))


@cache
def default_status_patterns() -> tuple[str, ...]:
    """The bundled agency boilerplate literals, read once per process."""
    return read_status_patterns(DATA / "status_de.txt")


_FOREIGN_THRESHOLD = 0.3

_ASTERISK_SPAN_RE = re.compile(r"\*[^*]*\*")
# A run of cue spans with the ASCII spaces and tabs around them; it pairs
# asterisks exactly as _ASTERISK_SPAN_RE does.
_CUE_RUN_RE = re.compile(r"(?:[ \t]*\*[^*]*\*)+[ \t]*")
# Leading and trailing non-word characters of a token.
_TOKEN_EDGE_RE = re.compile(r"^\W+|\W+$")


def detect_language(text: str, profiles: Mapping[str, frozenset[str]]
                    ) -> tuple[str, dict[str, float]]:
    """Score = fraction of whitespace tokens found in each profile's word set.

    A token is found if it is in the set as written or with its leading and
    trailing non-word characters removed ("the," and "in." count for EN,
    "d'" for FR). Returns the code of the argmax language and the scores by
    code; ties (including empty text) break toward "DE".
    """
    tokens = nfc(text).lower().split()
    # Only tokens with a non-alphanumeric character are stripped, once for
    # all profiles: stripping every token costs more than the lookups.
    edged = [(t, _TOKEN_EDGE_RE.sub("", t))
             for t in filterfalse(str.isalnum, tokens)]
    scores: dict[str, float] = {}
    for lang, words in profiles.items():
        if tokens:
            hits = sum(map(words.__contains__, tokens))
            hits += sum(1 for raw, bare in edged
                        if bare in words and raw not in words)
            scores[lang] = hits / len(tokens)
        else:
            scores[lang] = 0.0
    best = "DE"
    best_score = scores.get("DE", 0.0)
    for lang, score in scores.items():
        if score > best_score:
            best, best_score = lang, score
    return best, scores


def match_status_message(text: str, patterns: Iterable[str]) -> bool:
    """True if the trimmed text in NFC is a pattern, or a pattern plus
    trailing punctuation/whitespace only. The patterns must be in NFC, the
    form ``read_status_patterns``, ``default_status_patterns`` and
    ``clean_corpus`` give them: they are compared as they are, since
    putting each in NFC on every call would cost every utterance."""
    trimmed = nfc(text).strip()
    for pattern in patterns:
        if trimmed == pattern:
            return True
        if trimmed.startswith(pattern):
            tail = trimmed[len(pattern):]
            if tail and all(not ch.isalnum() for ch in tail):
                return True
    return False


def strip_asterisk_spans(text: str) -> tuple[str, list[str]]:
    """Remove *...* spans (non-greedy pairs); unpaired '*' is left alone.

    Each run of spans goes together with the ASCII spaces and tabs next to
    it and leaves one space, then the ends are trimmed. All other text,
    thin spaces that group thousands included, stays verbatim.
    """
    matches = _ASTERISK_SPAN_RE.findall(text)
    if not matches:
        return text, []
    return _CUE_RUN_RE.sub(" ", text).strip(), matches


def _clean_one(utt: Utterance, profiles: Mapping[str, frozenset[str]],
               status_patterns: tuple[str, ...]) -> CleanOutcome:
    text, spans = strip_asterisk_spans(utt.text)
    hits: list[tuple[RuleName, str]] = []
    if spans:
        hits.extend((RuleName.ASTERISK_SOUND, s) for s in spans)
        if not text.strip():
            # Sound cue was the whole line; nothing left to keep.
            return CleanOutcome(utt.id, Verdict.DROPPED, tuple(hits))

    if text.lstrip().startswith("#"):
        hits.append((RuleName.HASHTAG_START, text.strip()))
        return CleanOutcome(utt.id, Verdict.DROPPED, tuple(hits))

    if match_status_message(text, status_patterns):
        hits.append((RuleName.STATUS_MESSAGE, text.strip()))
        return CleanOutcome(utt.id, Verdict.DROPPED, tuple(hits))

    lang, scores = detect_language(text, profiles)
    if lang != "DE" and scores[lang] >= _FOREIGN_THRESHOLD:
        hits.append((RuleName.FOREIGN_SENTENCE, text.strip()))
        return CleanOutcome(utt.id, Verdict.DROPPED, tuple(hits))

    verdict = Verdict.EDITED if spans else Verdict.KEPT
    return CleanOutcome(utt.id, verdict, tuple(hits), text=text)


def clean_corpus(corpus: Sequence[Utterance],
                 status_patterns: Iterable[str] | None = None
                 ) -> tuple[tuple[Utterance, ...], list[CleanOutcome]]:
    """Apply every rule per utterance; survivors keep their input order,
    and their ids stay unique. ``None`` means the bundled status patterns;
    other patterns are checked as a pattern file's lines are."""
    patterns = default_status_patterns() if status_patterns is None \
        else tuple(map(_status_pattern, status_patterns))
    profiles = default_profiles()
    outcomes = [_clean_one(u, profiles, patterns) for u in corpus]
    survivors = tuple(
        u if o.verdict is Verdict.KEPT
        else Utterance(u.id, o.text, u.source, u.duration_s)
        for u, o in zip(corpus, outcomes) if o.verdict is not Verdict.DROPPED)
    return survivors, outcomes


def write_clean_report(outcomes: list[CleanOutcome], path: str | Path) -> None:
    write_segments([jsonl_line(
        {"id": o.id, "verdict": o.verdict.value,
         "hits": [[name.value, span] for name, span in o.hits]})
        for o in outcomes], path)
