"""Vocabulary, singleton and duration statistics per corpus source.

Tokenization is whitespace-only, so the numbers are meaningful on raw as
well as normalized text. The total slice counts each word over the union
of all utterances, the per-source counts added up, and does not sum
per-source values: a word that is a singleton in two sources separately
is not a singleton overall.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import NamedTuple, Sequence

from .corpus import SOURCES, Utterance


class SliceStats(NamedTuple):
    video_count: int
    hours: float
    vocabulary: int
    singletons: int


class CorpusStats(NamedTuple):
    per_source: dict[str, SliceStats]
    total: SliceStats

    def to_dict(self) -> dict:
        out = {src: stats._asdict() for src, stats in self.per_source.items()}
        out["Total"] = self.total._asdict()
        return out


def _slice_stats(utterances: Sequence[Utterance], freqs: Counter
                 ) -> SliceStats:
    seconds = 0.0
    for utt in utterances:
        if utt.duration_s is not None:
            seconds += utt.duration_s
    singletons = sum(1 for f in freqs.values() if f == 1)
    return SliceStats(video_count=len(utterances), hours=seconds / 3600.0,
                      vocabulary=len(freqs), singletons=singletons)


def vocab_stats(corpus: Sequence[Utterance]) -> CorpusStats:
    """Each token is counted once, for its source. The total hours sum the
    whole corpus in its order, as one slice's hours do."""
    per_source = {}
    total: Counter = Counter()
    for source in SOURCES:
        # Decoded strings are not interned: == where "is" would miss.
        members = [u for u in corpus if u.source == source]
        if members:
            # Split and counted in C, one text at a time: a split of all
            # texts joined would hold every token of the slice at once.
            freqs = Counter(chain.from_iterable(
                map(str.split, [utt.text for utt in members])))
            total.update(freqs)
            per_source[source] = _slice_stats(members, freqs)
    return CorpusStats(per_source=per_source,
                       total=_slice_stats(corpus, total))


class FieldDelta(NamedTuple):
    field: str
    raw: float
    clean: float
    delta: float
    pct: float  # percentage change relative to raw; 0 when raw is 0
    increased: bool  # negative reductions are legal but worth flagging


def compare_stats(raw: CorpusStats, clean: CorpusStats) -> list[FieldDelta]:
    """Per-field absolute and percentage deltas on the total slice."""
    deltas = []
    for field in SliceStats._fields:
        r = getattr(raw.total, field)
        c = getattr(clean.total, field)
        delta = c - r
        pct = (delta / r * 100.0) if r else 0.0
        deltas.append(FieldDelta(field, r, c, delta, pct, increased=delta > 0))
    return deltas


def format_stats_table(stats: CorpusStats) -> str:
    sources = sorted(stats.per_source)
    header = ["", *sources, "Total"]
    rows = [header]
    columns = [*[stats.per_source[s] for s in sources], stats.total]
    rows.append(["Videos", *[str(c.video_count) for c in columns]])
    rows.append(["Hours", *[f"{c.hours:.1f}" for c in columns]])
    rows.append(["Vocabulary", *[str(c.vocabulary) for c in columns]])
    rows.append(["Singletons", *[str(c.singletons) for c in columns]])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows)


def format_comparison_table(deltas: list[FieldDelta]) -> str:
    lines = [f"{'':<12}{'raw':>10}{'clean':>10}{'delta':>10}{'pct':>9}"]
    for d in deltas:
        places = 1 if d.field == "hours" else 0
        flag = "  (increase)" if d.increased else ""
        lines.append(
            f"{d.field:<12}{d.raw:>10.{places}f}{d.clean:>10.{places}f}"
            f"{d.delta:>+10.{places}f}{d.pct:>+8.1f}%{flag}")
    return "\n".join(lines)
