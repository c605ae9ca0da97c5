"""Output checks, written independently of the code paths they check.

Each check returns a ``Tally``: one entry per checked operation (an output
line, a statistic, a score or a command). A failure on a line whose
planted ``known_defect`` tag names that very check is an open library
defect (ROADMAP item 4) and is counted as failed but expected; any other
failure is unexpected and makes the run incorrect.
"""

from __future__ import annotations

import json
import math
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

# Which check each planted defect tag is known to break.
KNOWN_DEFECTS = {"lang-punct": "clean.verdict",
                 "cue-space-collapse": "clean.text",
                 "superscript-digit": "normalize.digit_free"}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    by_check: Counter = field(default_factory=Counter)
    examples: list = field(default_factory=list)

    def record(self, check: str, ok: bool, tags=(), detail: str = "") -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        self.by_check[check] += 1
        if not any(KNOWN_DEFECTS.get(tag) == check for tag in tags):
            self.unexpected += 1
            if len(self.examples) < 5:
                self.examples.append(f"{check}: {detail}"[:300])


def _read_jsonl(path: Path) -> list[dict]:
    """Objects of a JSONL output; a malformed line reads as {} and so fails
    whatever check looks at it."""
    if not path.exists():
        return []
    rows = []
    for line in path.read_text(encoding="utf-8").split("\n"):
        if line:
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                obj = {}
            rows.append(obj if isinstance(obj, dict) else {})
    return rows


def _read_lines(path: Path) -> list[str]:
    if not path.exists():
        return []
    return path.read_text(encoding="utf-8").split("\n")[:-1]


# --- prep -------------------------------------------------------------------

def _windows(n: int) -> int:
    return (n - 64) // 8 + 1 if n >= 64 else (1 if n > 0 else 0)


def _recount(rows: list[dict]) -> dict:
    """vocabulary/singletons/videos/hours per source and in total."""
    out = {}
    groups = {"Total": rows}
    for row in rows:
        groups.setdefault(row.get("source"), []).append(row)
    for key, members in groups.items():
        freqs = Counter(t for row in members for t in row.get("text", "").split())
        out[key] = {"video_count": len(members),
                    "hours": sum(row.get("duration_s") or 0.0
                                 for row in members) / 3600.0,
                    "vocabulary": len(freqs),
                    "singletons": sum(1 for f in freqs.values() if f == 1)}
    return out


def _is_clean_normal(line: str) -> str:
    """Name of the first normalization contract the line breaks, or ''."""
    if any(ch.isdigit() for ch in line):
        return "normalize.digit_free"
    if any(unicodedata.category(ch)[0] in "PS" for ch in line):
        return "normalize.punct_free"
    if line != line.lower():
        return "normalize.lowercase"
    return ""


def check_prep(d: Path, labels: dict, normalize_text) -> Tally:
    tally = Tally()
    rows = labels["labels"]
    by_id = {row["id"]: row for row in rows}

    report = {o.get("id"): o.get("verdict")
              for o in _read_jsonl(d / "report.jsonl")}
    survivors = _read_jsonl(d / "clean.jsonl")
    survivor_text = {o.get("id"): o.get("text") for o in survivors}
    for row in rows:
        got = report.get(row["id"])
        check = "clean.verdict"
        ok = got == row["verdict"]
        if ok and row["verdict"] != "DROPPED":
            check = "clean.text"
            got = survivor_text.get(row["id"])
            ok = got == row["expected_text"]
        tally.record(check, ok, row["known_defects"],
                     f"{row['id']} {row['category']} {row['text']!r}: {got!r}")

    normalized = _read_lines(d / "norm.txt")
    tally.record("normalize.line_count", len(normalized) == len(survivors),
                 detail=f"{len(normalized)} lines for {len(survivors)}")
    for survivor, line in zip(survivors, normalized):
        tags = by_id.get(survivor.get("id"), {}).get("known_defects", ())
        broken = _is_clean_normal(line)
        if not broken and normalize_text(line) != line:
            broken = "normalize.idempotent"
        tally.record(broken or "normalize", not broken, tags,
                     f"{survivor.get('text')!r} -> {line!r}")

    stats_text = (d / "stats.json").read_text(encoding="utf-8") \
        if (d / "stats.json").exists() else ""
    try:
        reported = json.loads(stats_text)
    except json.JSONDecodeError:
        reported = {}
    for side, source_rows in (("raw", rows), ("clean", survivors)):
        for key, expected in _recount(source_rows).items():
            got = reported.get(side, {}).get(key, {})
            for name, value in expected.items():
                ok = name in got and math.isclose(got[name], value,
                                                  rel_tol=1e-9, abs_tol=1e-12)
                tally.record("stats.recount", ok,
                             detail=f"{side}.{key}.{name}: {got.get(name)} "
                                    f"!= {value}")

    plans = _read_jsonl(d / "plans.jsonl")
    tally.record("plan.line_count", len(plans) == len(rows),
                 detail=f"{len(plans)} plans for {len(rows)} clips")
    for row, plan in zip(rows, plans):
        ok = plan.get("id") == row["id"] and \
            len(plan.get("window_starts", ())) == _windows(row["frames"])
        tally.record("plan.windows", ok, detail=f"{row['id']}: {plan}")
    return tally


# --- select -----------------------------------------------------------------

def load_stoplist(path: Path) -> frozenset[str]:
    """The README's stop-list rules: lowercase, dedupe, and add the
    apostrophe-free variant of apostrophized entries."""
    words = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        word = line.strip().lower()
        if word:
            words |= {word, word.replace("'", "")}
    return frozenset(words)


def oracle_bleu(hyps: list[str], refs: list[str]) -> dict:
    """Corpus BLEU-4 without smoothing, by explicit n-gram counting."""
    matches, totals = [0] * 4, [0] * 4
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs):
        h, r = hyp.split(), ref.split()
        hyp_len, ref_len = hyp_len + len(h), ref_len + len(r)
        for n in range(1, 5):
            h_grams = Counter(" ".join(h[i:i + n]) for i in range(len(h) - n + 1))
            r_grams = Counter(" ".join(r[i:i + n]) for i in range(len(r) - n + 1))
            totals[n - 1] += sum(h_grams.values())
            matches[n - 1] += sum(min(c, r_grams[g]) for g, c in h_grams.items())
    precisions = [m / t if t else 1.0 for m, t in zip(matches, totals)]
    bp = 1.0 if hyp_len >= ref_len or hyp_len == 0 \
        else math.exp(1.0 - ref_len / hyp_len)
    if hyp_len == 0 or min(precisions) == 0.0:
        score = 0.0
    else:
        score = 100.0 * bp * math.prod(precisions) ** 0.25
    return {"score": score, "precisions": precisions, "brevity_penalty": bp,
            "hyp_len": hyp_len, "ref_len": ref_len}


def _same_score(got: dict, want: dict) -> bool:
    return got.get("hyp_len") == want["hyp_len"] and \
        got.get("ref_len") == want["ref_len"] and \
        all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9) for a, b in zip(
            [got.get("score", -1.0), got.get("brevity_penalty", -1.0),
             *got.get("precisions", [-1.0] * 4)],
            [want["score"], want["brevity_penalty"], *want["precisions"]]))


def check_select(d: Path, labels: dict, stoplist_path: Path) -> Tally:
    tally = Tally()
    stops = load_stoplist(stoplist_path)
    refs = labels["refs"]
    reduced_refs = [" ".join(t for t in r.split() if t.lower() not in stops)
                    for r in refs]
    try:
        report = json.loads((d / "select.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        report = {}
    got = {c.get("name"): c for c in report.get("candidates", [])
           if isinstance(c, dict)}
    ranking = []
    for name, hyps in labels["hyps"].items():
        reduced = [" ".join(t for t in h.split() if t.lower() not in stops)
                   for h in hyps]
        want_bleu = oracle_bleu(hyps, refs)
        want_reduced = oracle_bleu(reduced, reduced_refs)
        stopwords = sum(len(h.split()) for h in hyps) - \
            sum(len(h.split()) for h in reduced)
        mine = got.get(name, {})
        tally.record("select.bleu", _same_score(mine.get("bleu", {}), want_bleu),
                     detail=f"{name}: {mine.get('bleu')} vs {want_bleu}")
        tally.record("select.reduced_bleu",
                     _same_score(mine.get("reduced_bleu", {}), want_reduced)
                     and mine.get("stopword_count") == stopwords,
                     detail=f"{name}: {mine.get('reduced_bleu')} vs "
                            f"{want_reduced}")
        ranking.append((-want_reduced["score"], stopwords, name))
    winner = min(ranking)[2]
    tally.record("select.winner", report.get("winner") == winner,
                 detail=f"{report.get('winner')} != {winner}")
    return tally


# --- display ----------------------------------------------------------------

_NUMBER_WORD = re.compile(
    "(?:null|eins|eine|ein|zwei|drei|vier|fünf|sechs|sech|sieben|sieb|acht|"
    "neun|zehn|elf|zwölf|zwanzig|dreißig|vierzig|fünfzig|sechzig|siebzig|"
    "achtzig|neunzig|und|hundert|tausend|millionen|million|milliarden|"
    "milliarde)+")


def join_number_words(line: str) -> str:
    """Drop the spaces between adjacent number words ("zwei millionen" ->
    "zweimillionen"); a bare "und" does not count as one."""
    out: list[str] = []
    joinable = False
    for token in line.split():
        is_number = token != "und" and _NUMBER_WORD.fullmatch(token) is not None
        if is_number and joinable:
            out[-1] += token
        else:
            out.append(token)
        joinable = is_number
    return " ".join(out)


def check_display(d: Path, labels: dict, normalize_text) -> Tally:
    tally = Tally()
    inputs = labels["inputs"]
    outputs = _read_lines(d / "display.txt")
    tally.record("display.line_count", len(outputs) == len(inputs),
                 detail=f"{len(outputs)} lines for {len(inputs)}")
    for source, line in zip(inputs, outputs):
        first_cased = next((ch for ch in line if ch.isalpha()), "")
        ok = first_cased.isupper() and line.endswith((".", "!", "?")) and \
            join_number_words(normalize_text(line)) == join_number_words(source)
        tally.record("display.roundtrip", ok, detail=f"{source!r} -> {line!r}")
    return tally
