"""Command line interface wiring the toolkit together as subcommands.

Every subcommand is a thin delegator around the library: it loads the
input files, calls the corresponding function and serializes the result.
Start-up loads ``corpus`` and ``normalize`` (with ``numbers_de``) for every
subcommand, and each subcommand imports only the other modules it runs.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain, repeat
from pathlib import Path

from .corpus import CorpusError, jsonl_line, load_corpus, load_segments, \
    write_corpus, write_segments
from .normalize import AbbrevTable, default_abbrev_table, normalize_text

SCHEMA_VERSION = 1
_INF = float("inf")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _path(value: str) -> str:
    """The argparse type of every path option: an empty path is a usage
    error, not the current directory or an absent option."""
    if not value:
        raise argparse.ArgumentTypeError("empty path")
    return value


def _candidate(value: str) -> tuple[str, str]:
    """The argparse type of ``select --hyp``: NAME=PATH, or a bare PATH
    named by its stem; an empty name or path is a usage error."""
    name, sep, path = value.partition("=")
    if not sep:
        name, path = Path(_path(value)).stem, value
    if not name:
        raise argparse.ArgumentTypeError("empty candidate name")
    return name, _path(path)


def _stoplist(args):
    from . import metrics
    if args.stoplist:
        return metrics.read_stop_words(args.stoplist)
    return metrics.default_stoplist()


def _references(path):
    """Reference segments; a file without a token is a data error that
    names it."""
    refs = load_segments(path)
    if not any(map(str.split, refs)):
        raise CorpusError(f"{path}: reference corpus is empty")
    return refs


def _hypotheses(path, refs, ref_path):
    """Hypothesis segments, one per reference segment; a count mismatch is
    a data error that names both files."""
    hyps = load_segments(path)
    if len(hyps) != len(refs):
        raise CorpusError(
            f"{path}: {len(hyps)} segments vs {len(refs)} in {ref_path}")
    return hyps


def _corpus_stats(path):
    """Statistics of a corpus; hours past the float range are a data error
    that names the file."""
    from . import stats
    result = stats.vocab_stats(load_corpus(path))
    # Durations are >= 0: no per-source sum exceeds a finite total.
    if result.total.hours == _INF:
        raise CorpusError(
            f"{path}: duration_s values sum past the float range")
    return result


def _map_lines(func, lines: tuple[str, ...], *consts) -> list[str]:
    """``func(line, *consts)`` of every line, in order, computed in forked
    shards on large inputs (see ``shards.forked_map``)."""
    from .shards import forked_map
    fixed = [*map(repeat, consts)]
    parts = forked_map(lambda shard: [*map(func, shard, *fixed)], lines)
    return [*chain.from_iterable(parts)]


def _emit_json(payload: dict) -> None:
    print(json.dumps({"schema_version": SCHEMA_VERSION} | payload))


def _cmd_clean(args) -> None:
    from . import cleaning
    corpus = load_corpus(args.input)
    patterns = cleaning.read_status_patterns(args.status) if args.status \
        else None
    cleaned, outcomes = cleaning.clean_corpus(corpus, patterns)
    write_corpus(cleaned, args.output)
    if args.report:
        cleaning.write_clean_report(outcomes, args.report)
    print(f"kept {len(cleaned)}/{len(outcomes)} utterances", file=sys.stderr)


def _cmd_normalize(args) -> None:
    segments = load_segments(args.input)
    table = AbbrevTable.from_tsv(args.abbrev) if args.abbrev \
        else default_abbrev_table()
    write_segments(_map_lines(normalize_text, segments, table), args.output)


def _cmd_stats(args) -> None:
    from . import stats
    result = _corpus_stats(args.input)
    if args.compare:
        other = _corpus_stats(args.compare)
        deltas = stats.compare_stats(result, other)
        if any(d.pct == _INF for d in deltas):  # a tiny raw hours total
            raise CorpusError(f"{args.compare}: the change in hours against "
                              f"{args.input} is past the float range")
        if args.json:
            _emit_json({"raw": result.to_dict(), "clean": other.to_dict(),
                        "deltas": [d._asdict() for d in deltas]})
        else:
            print(stats.format_comparison_table(deltas))
    elif args.json:
        _emit_json(result.to_dict())
    else:
        print(stats.format_stats_table(result))


def _cmd_bleu(args) -> None:
    """``bleu`` and ``reduced-bleu``, told apart by the subcommand name."""
    from . import metrics
    refs = _references(args.ref)
    hyps = _hypotheses(args.hyp, refs, args.ref)
    if args.command == "bleu":
        result = metrics.bleu(hyps, refs, args.smoothing)
    else:
        result = metrics.reduced_bleu(hyps, refs, _stoplist(args),
                                      args.smoothing)
    if args.json:
        _emit_json(result.to_dict())
    else:
        precisions = "/".join(f"{p:.3f}" for p in result.precisions)
        print(f"score {result.score:.2f}  (precisions {precisions}, "
              f"BP {result.brevity_penalty:.4f}, "
              f"hyp_len {result.hyp_len}, ref_len {result.ref_len})")


def _cmd_select(args) -> None:
    from . import metrics
    refs = _references(args.ref)
    candidates = [(name, _hypotheses(path, refs, args.ref))
                  for name, path in args.hyp]
    report = metrics.select_checkpoint(candidates, refs, _stoplist(args),
                                       args.smoothing)
    if args.json:
        _emit_json(report.to_dict())
    else:
        for c in report.candidates:
            print(f"{c.name}: BLEU {c.bleu.score:.2f}  "
                  f"reduced {c.reduced.score:.2f}  "
                  f"stopwords {c.stopword_count} ({c.stopword_fraction:.1%})")
        print(f"winner: {report.winner}")


def _cmd_itn(args) -> None:
    from . import itn
    segments = load_segments(args.input)
    write_segments(_map_lines(itn.restore_display, segments), args.output)


def _cmd_plan(args) -> None:
    from . import frameplan
    lines = [jsonl_line({"id": id} | plan.to_dict())
             for id, plan in frameplan.plan_manifest(args.manifest)]
    if args.output is not None:
        write_segments(lines, args.output)
    else:
        sys.stdout.writelines(line + "\n" for line in lines)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="slt",
                     description="Subtitle corpus cleaning and evaluation "
                                 "toolkit for sign language translation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("clean", help="filter noisy utterances from a corpus")
    p.add_argument("--in", dest="input", type=_path, required=True)
    p.add_argument("--out", dest="output", type=_path, required=True)
    p.add_argument("--report", type=_path,
                   help="write per-utterance outcomes as JSONL")
    p.add_argument("--status", type=_path, help="status patterns, one per line")
    p.set_defaults(func=_cmd_clean)

    p = sub.add_parser("normalize", help="normalize segment text")
    p.add_argument("--in", dest="input", type=_path, required=True)
    p.add_argument("--out", dest="output", type=_path, required=True)
    p.add_argument("--abbrev", type=_path, help="abbreviation table TSV")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("stats", help="vocabulary/singleton/hour statistics")
    p.add_argument("--in", dest="input", type=_path, required=True)
    p.add_argument("--compare", type=_path,
                   help="second corpus to diff against")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_stats)

    for name in ("bleu", "reduced-bleu"):
        p = sub.add_parser(name, help=f"corpus-level {name} score")
        p.add_argument("--hyp", type=_path, required=True)
        p.add_argument("--ref", type=_path, required=True)
        p.add_argument("--smoothing", choices=["none", "exp"], default="none")
        p.add_argument("--json", action="store_true")
        if name == "reduced-bleu":
            p.add_argument("--stoplist", type=_path)
        p.set_defaults(func=_cmd_bleu)

    p = sub.add_parser("select", help="pick a checkpoint by reduced BLEU")
    p.add_argument("--ref", type=_path, required=True)
    p.add_argument("--hyp", type=_candidate, action="append", required=True,
                   metavar="NAME=PATH")
    p.add_argument("--stoplist", type=_path)
    p.add_argument("--smoothing", choices=["none", "exp"], default="none")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("itn", help="restore display formatting")
    p.add_argument("--in", dest="input", type=_path, required=True)
    p.add_argument("--out", dest="output", type=_path, required=True)
    p.set_defaults(func=_cmd_itn)

    p = sub.add_parser("plan", help="feature-window plans for frame counts")
    p.add_argument("--manifest", type=_path, required=True,
                   help="JSONL of id/frame_count/width/height")
    p.add_argument("--out", dest="output", type=_path,
                   help="write the plan lines here, not to stdout")
    p.set_defaults(func=_cmd_plan)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:  # CorpusError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
