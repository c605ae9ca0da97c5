"""In-memory span tracer that wraps the library's public functions from
outside, under the names their callers look them up by.

Coarse calls (one per command or file) open a span with a name, start,
end and parent. Per-line and per-token calls are leaves: their count and
time are added to the enclosing span instead, so memory stays bounded.
A frame's self time is its duration minus the time of the frames nested
in it; a layer's self time is the sum over its frames.
"""

from __future__ import annotations

import os
from collections import Counter
from time import perf_counter


class _Frame:
    __slots__ = ("child",)

    def __init__(self) -> None:
        self.child = 0.0


class Span(_Frame):
    __slots__ = ("id", "name", "layer", "parent", "start", "end", "leaves")

    def __init__(self, sid: int, name: str, layer: str, parent: int | None):
        super().__init__()
        self.id, self.name, self.layer, self.parent = sid, name, layer, parent
        self.start = self.end = 0.0
        # leaf name -> [layer, calls, total_s, child_s, hits]
        self.leaves: dict[str, list] = {}

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "layer": self.layer,
                "parent": self.parent, "start": self.start, "end": self.end,
                "self_s": self.end - self.start - self.child,
                "leaves": {name: dict(zip(
                    ("layer", "calls", "total_s", "child_s", "hits"), agg))
                    for name, agg in self.leaves.items()}}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.frames: list[_Frame] = []
        self.open_spans: list[Span] = []
        self.notes: list[tuple] = []  # (kind, args, result), read after a pass
        self._patched: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, layer: str, fn, note: str | None = None):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.open_spans[-1].id if tracer.open_spans else None
            span = Span(len(tracer.spans), name, layer, parent)
            tracer.spans.append(span)
            tracer.frames.append(span)
            tracer.open_spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer.open_spans.pop()
                tracer.frames.pop()
                if tracer.frames:
                    tracer.frames[-1].child += span.end - span.start
            if note:
                tracer.notes.append((note, args, result))
            return result

        return wrapper

    def leaf(self, name: str, layer: str, fn, hit=None, keep_arg=False):
        """``hit(result)`` adds to the leaf's hit count; ``keep_arg`` keeps
        the first argument for counting after the pass."""
        tracer = self

        def wrapper(*args, **kwargs):
            frames = tracer.frames
            frame = _Frame()
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                frames.pop()
                frames[-1].child += elapsed
                leaves = tracer.open_spans[-1].leaves
                agg = leaves.get(name)
                if agg is None:
                    agg = leaves[name] = [layer, 0, 0.0, 0.0, 0]
                agg[1] += 1
                agg[2] += elapsed
                agg[3] += frame.child
            if hit is not None:
                agg[4] += hit(result)
            if keep_arg:
                tracer.notes.append((name, args[0], None))
            return result

        return wrapper

    def patch(self, obj, attr: str, wrapper) -> None:
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapper)

    def install(self) -> None:
        """Wrap the library's public functions until ``uninstall``."""
        from slt_toolkit import cleaning, cli, frameplan, itn, metrics, \
            normalize, stats
        # Names cli imported from corpus and normalize.
        for name in ("load_corpus", "load_segments"):
            self.patch(cli, name, self.span(
                name, "corpus", getattr(cli, name), note="read"))
        for name in ("write_corpus", "write_segments"):
            self.patch(cli, name, self.span(name, "corpus", getattr(cli, name)))
        self.patch(cli, "default_abbrev_table", self.span(
            "default_abbrev_table", "normalize", cli.default_abbrev_table))
        self.patch(cli, "normalize_text", self.leaf(
            "normalize_text", "normalize", cli.normalize_text))
        # Public functions of the modules cli imported.
        self.patch(cleaning, "clean_corpus", self.span(
            "clean_corpus", "cleaning", cleaning.clean_corpus, note="clean"))
        self.patch(cleaning, "write_clean_report", self.span(
            "write_clean_report", "cleaning", cleaning.write_clean_report))
        self.patch(stats, "vocab_stats", self.span(
            "vocab_stats", "stats", stats.vocab_stats, note="stats"))
        for name in ("compare_stats", "format_stats_table",
                     "format_comparison_table"):
            self.patch(stats, name, self.span(name, "stats",
                                              getattr(stats, name)))
        self.patch(metrics, "select_checkpoint", self.span(
            "select_checkpoint", "metrics", metrics.select_checkpoint,
            note="select"))
        for name in ("bleu", "reduced_bleu", "count_stopwords",
                     "default_stoplist"):
            self.patch(metrics, name, self.span(name, "metrics",
                                                getattr(metrics, name)))
        self.patch(metrics, "remove_stopwords", self.leaf(
            "remove_stopwords", "metrics", metrics.remove_stopwords))
        self.patch(itn, "restore_display", self.leaf(
            "restore_display", "itn", itn.restore_display, keep_arg=True))
        self.patch(frameplan, "plan_windows", self.leaf(
            "plan_windows", "frameplan", frameplan.plan_windows,
            hit=lambda plan: len(plan.window_starts)))
        # Per-token number spelling and parsing, under their callers' names.
        for name in ("spell_number_de", "spell_date_de"):
            self.patch(normalize, name, self.leaf(
                name, "numbers_de", getattr(normalize, name)))
        self.patch(itn, "parse_number_de", self.leaf(
            "parse_number_de", "numbers_de", itn.parse_number_de,
            hit=lambda value: value is not None))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()


RULES = ("FOREIGN_SENTENCE", "HASHTAG_START", "STATUS_MESSAGE",
         "ASTERISK_SOUND")


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span], notes: list[tuple]) -> dict:
    """Per-layer metrics of one traced pass from its spans and notes."""
    self_s = Counter()
    by_name = Counter()       # self time per span or leaf name
    calls = Counter()
    hits = Counter()
    select_s = 0.0
    for span in spans:
        own = span.end - span.start - span.child
        self_s[span.layer] += own
        by_name[span.name] += own
        calls[span.name] += 1
        if span.name == "select_checkpoint":
            select_s += span.end - span.start
        for name, (layer, n, total, child, hit) in span.leaves.items():
            self_s[layer] += total - child
            by_name[name] += total - child
            calls[name] += n
            hits[name] += hit
    lines_read = bytes_read = tokens_counted = itn_tokens = 0
    utterances = kept = candidates = segments = 0
    drops = Counter()
    for kind, arg, result in notes:
        if kind == "read":
            lines_read += len(result)
            bytes_read += os.path.getsize(arg[0])
        elif kind == "clean":
            for outcome in result[1]:
                utterances += 1
                if outcome.verdict.value == "DROPPED":
                    drops[outcome.hits[-1][0].value] += 1
                else:
                    kept += 1
        elif kind == "stats":
            tokens_counted += sum(len(u.text.split()) for u in arg[0])
        elif kind == "select":
            candidates += len(arg[0])
            segments += sum(len(hyps) for _, hyps in arg[0])
        elif kind == "restore_display":
            itn_tokens += len(arg.split())
    spell_calls = calls["spell_number_de"] + calls["spell_date_de"]
    parse_calls = calls["parse_number_de"]
    return {
        "normalize.self_s": self_s["normalize"],
        "normalize.lines_per_s": _rate(calls["normalize_text"],
                                       self_s["normalize"]),
        "numbers_de.spell_calls": spell_calls,
        "numbers_de.spell_s": by_name["spell_number_de"]
        + by_name["spell_date_de"],
        "numbers_de.parse_calls": parse_calls,
        "numbers_de.parse_s": by_name["parse_number_de"],
        "numbers_de.parse_hit_ratio": hits["parse_number_de"] / parse_calls
        if parse_calls else 0.0,
        "itn.self_s": self_s["itn"],
        "itn.lines_per_s": _rate(calls["restore_display"], self_s["itn"]),
        "itn.parse_attempts_per_token": parse_calls / itn_tokens
        if itn_tokens else 0.0,
        "cleaning.self_s": self_s["cleaning"],
        "cleaning.utts_per_s": _rate(utterances, self_s["cleaning"]),
        "cleaning.kept_ratio": kept / utterances if utterances else 0.0,
        **{f"cleaning.drops.{rule}": drops[rule] for rule in RULES},
        "corpus.load_s": by_name["load_corpus"] + by_name["load_segments"],
        "corpus.write_s": by_name["write_corpus"] + by_name["write_segments"],
        "corpus.lines_read": lines_read,
        "corpus.bytes_read": bytes_read,
        "stats.self_s": self_s["stats"],
        "stats.tokens_counted": tokens_counted,
        "frameplan.self_s": self_s["frameplan"],
        "frameplan.plans": calls["plan_windows"],
        "frameplan.windows": hits["plan_windows"],
        "metrics.select_s": select_s,
        "metrics.bleu_calls": calls["bleu"],
        "metrics.bleu_s": by_name["bleu"],
        "metrics.stopword_s": by_name["remove_stopwords"]
        + by_name["count_stopwords"],
        "metrics.segs_per_s": _rate(segments, select_s),
        "metrics.ref_scans_per_candidate": calls["bleu"] / candidates
        if candidates else 0.0,
        "cli.self_s": self_s["cli"],
        "cli.commands": calls["cli.main"],
    }
