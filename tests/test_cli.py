"""Tests for the slt command line interface."""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from slt_toolkit import cli, metrics, shards
from slt_toolkit.cli import main
from slt_toolkit.corpus import Utterance, load_corpus, load_segments, \
    write_corpus, write_segments
from slt_toolkit.frameplan import MAX_FRAME_COUNT
from slt_toolkit.itn import restore_display
from slt_toolkit.normalize import default_abbrev_table, normalize_text
from slt_toolkit.numbers_de import MAX_NUMBER, spell_number_de


@pytest.fixture
def seg(tmp_path):
    def write(name, lines):
        path = tmp_path / name
        path.write_text("".join(line + "\n" for line in lines),
                        encoding="utf-8")
        return str(path)
    return write


def test_bleu_identity(seg, capsys):
    hyp = seg("h.txt", ["a b c d e"])
    ref = seg("r.txt", ["a b c d e"])
    assert main(["bleu", "--hyp", hyp, "--ref", ref]) == 0
    assert "score 100.00" in capsys.readouterr().out


def test_bleu_json_matches_library(seg, capsys):
    hyp = seg("h.txt", ["a b c d"])
    ref = seg("r.txt", ["a b c d e"])
    assert main(["bleu", "--hyp", hyp, "--ref", ref, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = metrics.bleu(["a b c d"], ["a b c d e"])
    assert payload == {"schema_version": 1} | expected.to_dict()


def test_bleu_mismatch_is_data_error(seg, capsys):
    hyp = seg("h.txt", ["a", "b"])
    ref = seg("r.txt", ["a"])
    assert main(["bleu", "--hyp", hyp, "--ref", ref]) == 2
    err = capsys.readouterr().err
    assert "2" in err and "1" in err


@pytest.mark.parametrize("command", ["bleu", "reduced-bleu", "select"])
def test_segment_count_mismatch_names_both_files(seg, capsys, command):
    hyp, ref = seg("h.txt", ["a"]), seg("r.txt", ["a", "b"])
    hyp_arg = f"a={hyp}" if command == "select" else hyp
    assert main([command, "--hyp", hyp_arg, "--ref", ref]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {hyp}: 1 segments vs 2 in {ref}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["clean", "--in", "{inp}", "--out", "{out}"],
    ["stats", "--in", "{inp}"],
    ["plan", "--manifest", "{inp}", "--out", "{out}"],
])
def test_lone_surrogate_is_a_data_error_naming_the_line(tmp_path, capsys,
                                                        argv):
    inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    inp.write_text('{"id":"a","text":"b","frame_count":1}\n'
                   '{"id":"\\ud800","text":"\\ud800","frame_count":1}\n',
                   encoding="utf-8")
    code = main([arg.format(inp=inp, out=out) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == \
        f"error: {inp}: line 2: string is not valid Unicode\n"
    assert captured.out == "" and not out.exists()


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bleu", "--hyp", "only.txt"])
    assert exc.value.code == 1


def test_unknown_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


# Every option of every subcommand, -h/--help aside. A change to this
# table is a change to the CLI and belongs in CHANGES.md.
_OPTIONS = {
    "clean": {"--in", "--out", "--report", "--status"},
    "normalize": {"--in", "--out", "--abbrev"},
    "stats": {"--in", "--compare", "--json"},
    "bleu": {"--hyp", "--ref", "--smoothing", "--json"},
    "reduced-bleu": {"--hyp", "--ref", "--smoothing", "--json", "--stoplist"},
    "select": {"--ref", "--hyp", "--stoplist", "--smoothing", "--json"},
    "itn": {"--in", "--out"},
    "plan": {"--manifest", "--out"},
}


def test_option_surface_is_pinned():
    parser = cli.build_parser()
    [commands] = [action.choices for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
    found = {name: {option for action in sub._actions
                    for option in action.option_strings} - {"-h", "--help"}
             for name, sub in commands.items()}
    assert found == _OPTIONS


@pytest.mark.parametrize("args, message", [
    ([], "the following arguments are required: --manifest"),
    (["--frames", "80", "--manifest", "{missing}"],
     "unrecognized arguments: --frames 80"),
    (["--frames", "80", "--out", "{out}"],
     "the following arguments are required: --manifest"),
], ids=["neither", "frames-and-manifest", "frames-and-out"])
def test_plan_flags_it_would_ignore_are_usage_errors(tmp_path, capsys, args,
                                                     message):
    """A manifest is the one source of frame counts; ``--frames`` is no
    option. Exit 1 with a missing manifest shows that no file was read."""
    out = tmp_path / "plans.jsonl"
    argv = [arg.format(missing=tmp_path / "missing.jsonl", out=out)
            for arg in args]
    with pytest.raises(SystemExit) as exc:
        main(["plan", *argv])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.err.endswith(f"error: {message}\n")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("side", ["both", "hyp"])
def test_reduced_side_is_a_usage_error(tmp_path, capsys, side):
    """Reduced BLEU has one reading, stop words deleted from both sides;
    exit 1 with missing files shows that no file was read."""
    with pytest.raises(SystemExit) as exc:
        main(["reduced-bleu", "--hyp", str(tmp_path / "h.txt"), "--ref",
              str(tmp_path / "r.txt"), "--reduced-side", side])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.err.endswith(
        f"error: unrecognized arguments: --reduced-side {side}\n")
    assert captured.out == ""


# Each subcommand with every path option set, to a file in tmp_path.
_PATH_COMMANDS = [
    ["clean", "--in", "c.jsonl", "--out", "out", "--report", "report",
     "--status", "status.txt"],
    ["normalize", "--in", "s.txt", "--out", "out", "--abbrev", "abbrev.tsv"],
    ["stats", "--in", "c.jsonl", "--compare", "c.jsonl"],
    ["bleu", "--hyp", "s.txt", "--ref", "s.txt"],
    ["reduced-bleu", "--hyp", "s.txt", "--ref", "s.txt",
     "--stoplist", "stops.txt"],
    ["select", "--ref", "s.txt", "--hyp", "s.txt", "--stoplist", "stops.txt"],
    ["itn", "--in", "s.txt", "--out", "out"],
    ["plan", "--manifest", "m.jsonl", "--out", "out"],
]
_EMPTY_PATHS = [(argv, i) for argv in _PATH_COMMANDS
                for i in range(1, len(argv), 2)]


@pytest.mark.parametrize("argv, blank", _EMPTY_PATHS, ids=[
    f"{argv[0]} {argv[i]}" for argv, i in _EMPTY_PATHS])
def test_empty_path_is_usage_error(tmp_path, capsys, argv, blank):
    for name, text in [("c.jsonl", '{"id":"a","text":"x"}'),
                       ("s.txt", "a b"), ("status.txt", "Nur dieses"),
                       ("abbrev.tsv", "z.B.\tzum Beispiel"),
                       ("stops.txt", "der"),
                       ("m.jsonl", '{"id":"a","frame_count":70}')]:
        (tmp_path / name).write_text(text + "\n", encoding="utf-8")
    args = [argv[0], *(arg if arg.startswith("-") else str(tmp_path / arg)
                       for arg in argv[1:])]
    args[blank + 1] = ""
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.err.endswith(
        f"error: argument {argv[blank]}: empty path\n")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_reduced_bleu_delegates(seg, capsys):
    hyp = seg("h.txt", ["der hund bellt laut sehr gut"])
    ref = seg("r.txt", ["die hund bellt laut sehr gut"])
    stops = seg("stops.txt", ["der", "die"])
    assert main(["reduced-bleu", "--hyp", hyp, "--ref", ref,
                 "--stoplist", stops, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = metrics.reduced_bleu(
        ["der hund bellt laut sehr gut"], ["die hund bellt laut sehr gut"],
        metrics.read_stop_words(stops))
    assert payload == {"schema_version": 1} | expected.to_dict()


def test_select(seg, capsys):
    ref = seg("r.txt", ["hund bellt"])
    a = seg("a.txt", ["hund bellt"])
    b = seg("b.txt", ["der die das"])
    assert main(["select", "--ref", ref, "--hyp", f"good={a}",
                 "--hyp", f"bad={b}", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["winner"] == "good"
    assert payload["schema_version"] == 1


def test_select_duplicate_name_is_data_error(seg, capsys):
    ref = seg("r.txt", ["hund bellt"])
    h1, h2 = seg("h1.txt", ["hund bellt"]), seg("h2.txt", ["der hund"])
    assert main(["select", "--ref", ref, "--hyp", f"a={h1}",
                 "--hyp", f"a={h2}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: duplicate candidate name 'a'\n"
    assert captured.out == ""


@pytest.mark.parametrize("spec, message", [
    ("a=", "empty path"),
    ("=h.txt", "empty candidate name"),
    ("=", "empty candidate name"),
])
def test_select_hyp_spec_usage_errors(seg, capsys, monkeypatch, spec,
                                      message):
    ref = seg("r.txt", ["hund bellt"])
    monkeypatch.chdir(Path(ref).parent)
    seg("h.txt", ["hund bellt"])

    def no_read(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(cli, "load_segments", no_read)
    with pytest.raises(SystemExit) as exc:
        main(["select", "--ref", ref, "--hyp", spec])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.err.endswith(f"error: argument --hyp: {message}\n")
    assert captured.out == ""


def test_select_bare_hyp_path_is_named_by_stem(seg, capsys):
    ref = seg("r.txt", ["hund bellt"])
    hyp = seg("h.txt", ["hund bellt"])
    assert main(["select", "--ref", ref, "--hyp", hyp]) == 0
    assert capsys.readouterr().out.endswith("winner: h\n")


def test_clean_and_report(tmp_path, seg, capsys):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(
        '{"id":"a","text":"hallo welt"}\n'
        '{"id":"b","text":"#hashtag zeile"}\n'
        '{"id":"c","text":"* Musik *"}\n', encoding="utf-8")
    out = tmp_path / "clean.jsonl"
    report = tmp_path / "report.jsonl"
    assert main(["clean", "--in", str(corpus), "--out", str(out),
                 "--report", str(report)]) == 0
    cleaned = load_corpus(out)
    assert [u.id for u in cleaned] == ["a"]
    lines = [json.loads(l) for l in
             report.read_text(encoding="utf-8").splitlines()]
    assert [l["id"] for l in lines] == ["a", "b", "c"]
    assert lines[1]["verdict"] == "DROPPED"


def test_normalize_segments(tmp_path, seg):
    inp = seg("in.txt", ["Er zahlt 42 Franken.", "Hallo, Welt!"])
    out = tmp_path / "out.txt"
    assert main(["normalize", "--in", inp, "--out", str(out)]) == 0
    assert list(load_segments(out)) == \
        ["er zahlt zweiundvierzig franken", "hallo welt"]


def _normalize_rejects(tmp_path, capsys, inp, flag):
    out = tmp_path / "rejected.txt"
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "--in", inp, "--out", str(out), flag])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag}" in captured.err
    assert captured.out == "" and not out.exists()


def test_normalize_no_numbers_flag(tmp_path, seg, capsys):
    """Digits are always spelled, non-decimal ones too: --no-numbers is a
    usage error."""
    inp = seg("in.txt", ["42 Franken", "34 m²"])
    _normalize_rejects(tmp_path, capsys, inp, "--no-numbers")
    out = tmp_path / "out.txt"
    assert main(["normalize", "--in", inp, "--out", str(out)]) == 0
    assert list(load_segments(out)) == \
        ["zweiundvierzig franken", "vierunddreißig m zwei"]


@pytest.mark.parametrize("flag, line, expected", [
    ("abbrev", "z.B. hier", "zum beispiel hier"),
    ("punct", "Hallo, Welt!", "hallo welt"),
    ("lowercase", "Große Gäste", "große gäste"),
    ("numbers", "42 Gäste", "zweiundvierzig gäste"),
    ("dates", "am 3.10.2022", "am dritter oktober zweitausendzweiundzwanzig"),
], ids=["abbrev-expand_abbrev", "punct-strip_punct", "lowercase-lowercase",
        "numbers-expand_numbers", "dates-expand_dates"])
def test_normalize_no_flag_turns_off_its_step(tmp_path, seg, capsys, flag,
                                              line, expected):
    """Each former --no-* flag turned off the step in its case id. normalize
    is one fixed pipeline now: the flag is a usage error and the step runs
    on every line."""
    inp = seg("in.txt", [line])
    _normalize_rejects(tmp_path, capsys, inp, f"--no-{flag}")
    out = tmp_path / "out.txt"
    assert main(["normalize", "--in", inp, "--out", str(out)]) == 0
    assert list(load_segments(out)) == [expected]


def test_normalize_empty_abbrev_table(tmp_path, seg):
    inp = seg("in.txt", ["3 Mrd. Franken"])
    table = tmp_path / "empty.tsv"
    table.write_text("", encoding="utf-8")
    out = tmp_path / "out.txt"
    assert main(["normalize", "--in", inp, "--out", str(out),
                 "--abbrev", str(table)]) == 0
    assert list(load_segments(out)) == ["drei mrd franken"]


def test_normalize_nfd_abbrev_table(tmp_path, seg):
    """A table file saved in NFD, as some editors do, still expands."""
    inp = seg("in.txt", ["Zür. und Zür."])
    table = tmp_path / "nfd.tsv"
    table.write_text(unicodedata.normalize("NFD", "Zür.\tZuerich\n"),
                     encoding="utf-8")
    out = tmp_path / "out.txt"
    assert main(["normalize", "--in", inp, "--out", str(out),
                 "--abbrev", str(table)]) == 0
    assert list(load_segments(out)) == ["zuerich und zuerich"]


def test_normalize_long_leading_zero_run(tmp_path, seg):
    """A run of leading zeros longer than int()'s conversion limit is
    spelled from its significant digits: the corpus is written whole."""
    inp = seg("in.txt", ["a " + "0" * 4300 + "7 b",
                         "000" + ".000" * 1500 + ".001", "42"])
    out = tmp_path / "out.txt"
    assert main(["normalize", "--in", inp, "--out", str(out)]) == 0
    assert list(load_segments(out)) == ["a sieben b", "eins",
                                        "zweiundvierzig"]


def test_itn_segments(tmp_path, seg):
    inp = seg("in.txt", ["das kostet zweiundvierzig franken"])
    out = tmp_path / "out.txt"
    assert main(["itn", "--in", inp, "--out", str(out)]) == 0
    assert list(load_segments(out)) == ["Das kostet 42 franken."]


def test_itn_drops_a_leading_bom(tmp_path):
    inp = tmp_path / "in.txt"
    inp.write_bytes(b"\xef\xbb\xbfzwei millionen\n")
    out = tmp_path / "out.txt"
    assert main(["itn", "--in", str(inp), "--out", str(out)]) == 0
    assert out.read_bytes() == b"2000000.\n"


# Mixed lengths, blank and whitespace-only lines, numbers and abbreviations.
_LINE_INPUT = [
    "das kostet zweiundvierzig franken", "", "   ",
    "zweihundertfünfundsechzig millionen neun tausend sechs", "\t", "a",
    "Er zahlt 42 Franken am 3.10.2022, z.B. hier.", " hallo  welt ",
    "eins zwei drei vier " * 12, "Große Gäste", "",
    "neunzehnhundertneunundneunzig", "drei hundert zwei",
]


@pytest.mark.parametrize("command", ["itn", "normalize"])
def test_sharded_line_commands_write_identical_files(tmp_path, seg,
                                                     monkeypatch, command):
    """With 1, 2 or 3 forced shards the output bytes are those of the
    serial map, and no child is left after the command."""
    inp = seg("in.txt", _LINE_INPUT)
    table = default_abbrev_table()
    line = {"itn": restore_display,
            "normalize": lambda text: normalize_text(text, table)}[command]
    serial = "".join(line(text) + "\n" for text in _LINE_INPUT)
    for k in (1, 2, 3):
        monkeypatch.setattr(shards, "_shard_count", lambda work: k)
        out = tmp_path / f"out{k}.txt"
        assert main([command, "--in", inp, "--out", str(out)]) == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert out.read_bytes() == serial.encode("utf-8")


def test_stats_reads_a_bom_prefixed_corpus(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    corpus.write_bytes(
        b'\xef\xbb\xbf{"id":"a","text":"x y x","source":"SRF"}\n')
    assert main(["stats", "--in", str(corpus), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["Total"]["vocabulary"] == 2


_FUZZ_TEXT = st.lists(st.one_of(
    st.integers(0, MAX_NUMBER).map(spell_number_de),
    st.sampled_from(["ein", "eine", "millionen", "tausend", "ü", "€", ".",
                     "\ufeff", "\u2028", "\r", "\t"]),
    st.text(max_size=8)), max_size=8).map(" ".join)


@st.composite
def _fuzz_input(draw):
    """Bytes of an input file: random bytes, BOM-prefixed text, text with
    mixed LF and CRLF line ends, or text cut inside a multi-byte
    character."""
    kind = draw(st.sampled_from(["bytes", "bom", "crlf", "cut"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    if kind == "bom":
        return b"\xef\xbb\xbf" + draw(_FUZZ_TEXT).encode("utf-8")
    if kind == "crlf":
        lines = draw(st.lists(_FUZZ_TEXT, max_size=4))
        ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                             min_size=len(lines), max_size=len(lines)))
        return "".join(map(str.__add__, lines, ends)).encode("utf-8")
    char = draw(st.sampled_from(["ü", "ß", "€", "\U0001d11e"])).encode()
    return draw(_FUZZ_TEXT).encode("utf-8") + \
        char[:draw(st.integers(1, len(char) - 1))]


@settings(max_examples=200, deadline=None)
@given(data=_fuzz_input())
def test_itn_fuzz_exits_0_or_names_the_file(tmp_path_factory, data):
    workdir = tmp_path_factory.mktemp("itn-fuzz")
    inp, out = workdir / "in.txt", workdir / "out.txt"
    inp.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["itn", "--in", str(inp), "--out", str(out)])
    assert code in (0, 2)
    if code == 2:
        assert str(inp) in err.getvalue()
    else:
        assert out.read_bytes().decode("utf-8") == "".join(
            restore_display(line) + "\n" for line in load_segments(inp))


# Frame counts at or below 10 000 or above the bound: planning close to
# the bound is slow by design.
_FRAMES = st.one_of(st.integers(-3, 10_000),
                    st.integers(MAX_FRAME_COUNT + 1, 10 ** 400),
                    st.sampled_from([0, 1, MAX_FRAME_COUNT + 1, 10 ** 400]))
_JSON_ANY = st.recursive(
    st.none() | st.booleans() | _FRAMES | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) |
    st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
_FIELD_VALUES = {
    "id": st.sampled_from(["a", "b", "", "Zürich-1", "a\u2028b"]),
    "text": _FUZZ_TEXT,
    "source": st.sampled_from(["SRF", "FN", "LEX", "OTHER", "srf"]),
    "duration_s": st.floats(),
    "frame_count": _FRAMES,
    "width": _FRAMES,
    "height": _FRAMES,
}


@st.composite
def _jsonl_input(draw, fields):
    """Bytes of a JSONL input: random bytes, or lines of objects whose
    fields are valid, random JSON values or absent, of other JSON values
    and of text, with mixed LF and CRLF ends, maybe behind a BOM and maybe
    cut anywhere."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        shape = draw(st.sampled_from(["object", "object", "value", "text"]))
        if shape == "object":
            obj = {}
            for name in fields:
                choice = draw(st.sampled_from(["valid", "valid", "any",
                                               "absent"]))
                if choice != "absent":
                    obj[name] = draw(_FIELD_VALUES[name]
                                     if choice == "valid" else _JSON_ANY)
            lines.append(json.dumps(obj, ensure_ascii=draw(st.booleans())))
        elif shape == "value":
            lines.append(json.dumps(draw(_JSON_ANY)))
        else:
            lines.append(draw(_FUZZ_TEXT))
    data = "".join(line + draw(st.sampled_from(["\n", "\r\n"]))
                   for line in "\n".join(lines).split("\n") if lines
                   ).encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.booleans()):
        data = data[:draw(st.integers(0, len(data)))]
    return data


_CORPUS_FIELDS = ("id", "text", "source", "duration_s")
_INPUTS = {
    "clean": _jsonl_input(_CORPUS_FIELDS),
    "stats": _jsonl_input(_CORPUS_FIELDS),
    "plan": _jsonl_input(("id", "frame_count", "width", "height")),
    "clean --status": _fuzz_input(),
    "normalize --abbrev": _fuzz_input(),
    "reduced-bleu --stoplist": _fuzz_input(),
    "stats --compare": _jsonl_input(_CORPUS_FIELDS),
    "normalize --in": _fuzz_input(),
    "select --ref": _fuzz_input(),
    "bleu --hyp": _fuzz_input(),
    "reduced-bleu --hyp": _fuzz_input(),
    "select --hyp": _fuzz_input(),
}
# Errors about a whole file, not one of its lines.
_FILE_ERRORS = (r"duplicate id .* \(lines \d+ and \d+\)|reference corpus is "
                r"empty|duration_s values sum past|the change in hours|"
                r"\d+ segments vs \d+ in ")


@pytest.mark.parametrize("command", list(_INPUTS))
def test_jsonl_fuzz_exits_0_or_names_the_file_and_line(tmp_path, command):
    """Every reader fed hostile bytes exits 0, or 2 with an error that
    names the file and, for an error about a line, the line."""
    @settings(max_examples=200 if command in ("clean", "stats", "plan")
              else 100, deadline=None)
    @given(data=_INPUTS[command], other=_INPUTS["stats"]
           if command == "stats --compare" else st.none())
    def run(data, other):
        inp, out, report = (tmp_path / "in.jsonl", tmp_path / "out.jsonl",
                            tmp_path / "report.jsonl")
        out.unlink(missing_ok=True)
        report.unlink(missing_ok=True)
        inp.write_bytes(data)
        corpus, segs = tmp_path / "c.jsonl", tmp_path / "s.txt"
        corpus.write_bytes(other or b'{"id":"a","text":"A. hallo"}\n')
        segs.write_text("der hund bellt\n", encoding="utf-8")
        argv = {"clean": ["clean", "--in", inp, "--out", out,
                          "--report", report],
                "stats": ["stats", "--in", inp, "--json"],
                "plan": ["plan", "--manifest", inp, "--out", out],
                "clean --status": ["clean", "--in", corpus, "--out", out,
                                   "--status", inp],
                "normalize --abbrev": ["normalize", "--in", segs, "--out",
                                       out, "--abbrev", inp],
                "reduced-bleu --stoplist": ["reduced-bleu", "--hyp", segs,
                                            "--ref", segs, "--stoplist",
                                            inp, "--json"],
                "stats --compare": ["stats", "--in", corpus, "--compare",
                                    inp, "--json"],
                "normalize --in": ["normalize", "--in", inp, "--out", out],
                "select --ref": ["select", "--ref", inp, "--hyp",
                                 f"a={inp}", "--json"],
                "bleu --hyp": ["bleu", "--hyp", inp, "--ref", segs,
                               "--json"],
                "reduced-bleu --hyp": ["reduced-bleu", "--hyp", inp, "--ref",
                                       segs, "--json"],
                "select --hyp": ["select", "--ref", segs, "--hyp",
                                 f"a={inp}", "--json"]}[command]
        stdout, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(err):
            code = main(list(map(str, argv)))
        assert code in (0, 2)
        if code == 2:
            message = err.getvalue()
            named = re.match(rf"error: ({re.escape(str(inp))}|"
                             rf"{re.escape(str(corpus))}): ", message)
            assert named
            assert re.match(rf"{re.escape(named.group())}"
                            rf"(line \d+: |{_FILE_ERRORS})", message)
            assert stdout.getvalue() == ""
            assert not out.exists() and not report.exists()
        elif command == "clean":
            load_corpus(out)
            assert len(load_segments(report)) == len(load_corpus(inp))
        elif command == "clean --status":
            assert [u.id for u in load_corpus(out)] in ([], ["a"])
        elif command == "plan":
            ids = [json.loads(line)["id"] for line in load_segments(out)]
            assert all(ids) and len(set(ids)) == len(ids)
        elif command.startswith("normalize"):
            assert len(load_segments(out)) == len(
                load_segments(inp if command == "normalize --in" else segs))
        elif stdout.getvalue():  # a JSON document, Infinity and NaN refused
            json.loads(stdout.getvalue(), parse_constant=_refuse)

    run()


def _refuse(name):
    raise ValueError(f"{name} is not JSON")


def test_stats_json(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(
        '{"id":"a","text":"x y x","source":"SRF","duration_s":3600}\n'
        '{"id":"b","text":"x","source":"FN"}\n', encoding="utf-8")
    assert main(["stats", "--in", str(corpus), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["Total"]["vocabulary"] == 2
    assert payload["SRF"]["hours"] == pytest.approx(1.0)


def test_stats_compare_text(tmp_path, capsys):
    raw = tmp_path / "raw.jsonl"
    raw.write_text(
        '{"id":"a","text":"x y x","source":"SRF","duration_s":5400}\n'
        '{"id":"b","text":"z w","source":"FN","duration_s":1800}\n'
        '{"id":"c","text":"q","source":"LEX"}\n', encoding="utf-8")
    clean = tmp_path / "clean.jsonl"
    clean.write_text(
        '{"id":"a","text":"x y x v","source":"SRF","duration_s":5400}\n',
        encoding="utf-8")
    assert main(["stats", "--in", str(raw), "--compare", str(clean)]) == 0
    assert capsys.readouterr().out == (
        "                   raw     clean     delta      pct\n"
        "video_count          3         1        -2   -66.7%\n"
        "hours              2.0       1.5      -0.5   -25.0%\n"
        "vocabulary           5         3        -2   -40.0%\n"
        "singletons           4         2        -2   -50.0%\n")


_STATUS_CORPUS = ('{"id":"a","text":"..."}\n{"id":"b","text":"–"}\n'
                  '{"id":"c","text":"1:1-Untertitelung."}\n'
                  '{"id":"d","text":"Nur dieses!"}\n')


@pytest.mark.parametrize("content, kept", [
    (b"", ["a", "b", "c", "d"]),
    (b"\n \r\n\t\n", ["a", "b", "c", "d"]),
    (b"Nur dieses\n", ["a", "b", "c"]),
    ("1:1-Untertitelung.\nLivepassagen können Fehler enthalten.\n"
     "Mit Live-Untertiteln von SWISS TXT\n".encode("utf-8"), ["a", "b", "d"]),
], ids=["empty", "blank-lines", "replaces-defaults", "copy-of-defaults"])
def test_clean_status_file_replaces_the_defaults(tmp_path, content, kept):
    """The file's patterns replace the bundled ones; a file with no
    pattern keeps every status line, and blank lines are skipped."""
    corpus, out = tmp_path / "c.jsonl", tmp_path / "out.jsonl"
    corpus.write_text(_STATUS_CORPUS, encoding="utf-8")
    status = tmp_path / "status.txt"
    status.write_bytes(content)
    assert main(["clean", "--in", str(corpus), "--out", str(out),
                 "--status", str(status)]) == 0
    assert [u.id for u in load_corpus(out)] == kept


def test_clean_keeps_the_input_unicode_form(tmp_path):
    """Rules match in NFC, but the output corpus and the report spans
    keep the code points of the input."""
    texts = ["Livepassagen können Fehler enthalten.", "*Geräusch* Grüezi",
             "Er würde für die Kinder über alles tun."]
    nfd = [unicodedata.normalize("NFD", t) for t in texts]
    corpus, out = tmp_path / "c.jsonl", tmp_path / "out.jsonl"
    report = tmp_path / "report.jsonl"
    corpus.write_text("".join(json.dumps({"id": f"u{i}", "text": t}) + "\n"
                              for i, t in enumerate(nfd)), encoding="utf-8")
    assert main(["clean", "--in", str(corpus), "--out", str(out),
                 "--report", str(report)]) == 0
    assert [u.text for u in load_corpus(out)] == [
        unicodedata.normalize("NFD", "Grüezi"), nfd[2]]
    assert [json.loads(line) for line in load_segments(report)] == [
        {"id": "u0", "verdict": "DROPPED", "hits": [["STATUS_MESSAGE",
                                                     nfd[0]]]},
        {"id": "u1", "verdict": "EDITED", "hits": [
            ["ASTERISK_SOUND", unicodedata.normalize("NFD", "*Geräusch*")]]},
        {"id": "u2", "verdict": "KEPT", "hits": []}]


@pytest.mark.parametrize("command", ["stoplist", "abbrev", "status"])
def test_non_utf8_list_file_named(tmp_path, seg, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"der\n\xff\n")
    hyp, ref = seg("h.txt", ["der hund"]), seg("r.txt", ["der hund"])
    corpus = tmp_path / "c.jsonl"
    corpus.write_text('{"id":"a","text":"hallo"}\n', encoding="utf-8")
    argv = {"stoplist": ["reduced-bleu", "--hyp", hyp, "--ref", ref,
                         "--stoplist", str(bad)],
            "abbrev": ["normalize", "--in", hyp, "--out",
                       str(tmp_path / "out.txt"), "--abbrev", str(bad)],
            "status": ["clean", "--in", str(corpus), "--out",
                       str(tmp_path / "out.jsonl"), "--status", str(bad)]}
    assert main(argv[command]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {bad}: line 2: not valid UTF-8")


# Each error about one line of a list, table, segment or status file names
# the file and the line.
@pytest.mark.parametrize("command, content, message", [
    ("stoplist", b"der\nfoo bar\n", "line 2: invalid word: 'foo bar'"),
    ("stoplist", b"a\tb\n", "line 1: invalid word: 'a\\tb'\n"),
    ("stoplist", b"der\n\nx y\n", "line 3: invalid word: 'x y'\n"),
    ("abbrev", b"usw.\t\n",
     "line 1: abbreviation keys and values must be nonempty"),
    ("abbrev", b"z.B.\tzum Beispiel\nusw.\tund\tso weiter\n",
     "line 2: expected two columns"),
    ("abbrev", b"Mrd.\tMilliarden\nz.B. \tzum Beispiel\n",
     "line 2: invalid abbreviation 'z.B. ': 'zum Beispiel': a key must not "
     "start with a digit or have white space at either end, and an "
     "expansion must hold no digit\n"),
    ("abbrev", b"Mrd.\tMilliarden\nMio.\tMillionen\n1.\terstens\n",
     "line 3: invalid abbreviation '1.': 'erstens': "),
    ("abbrev", b"Nr.\tNummer 1\n", "line 1: invalid abbreviation 'Nr.': "
     "'Nummer 1': "),
    ("normalize", b"x\ny\nab\xffc\n", "line 3: not valid UTF-8: "),
    ("status", b"Nur dieses\n\n1:1-Untertitelung. \n",
     "line 3: invalid status pattern '1:1-Untertitelung. ': a pattern must "
     "not be empty or have white space at either end\n"),
    ("status", b"Nur dieses\n\t1:1-Untertitelung.\n",
     "line 2: invalid status pattern '\\t1:1-Untertitelung.': "),
    ("status", b"\n \nNur dieses\xe3\x80\x80\n",
     "line 3: invalid status pattern 'Nur dieses\\u3000': "),
    ("status", b"Nur dieses\r\n\r\n\xc2\xa0x\r\n",
     "line 3: invalid status pattern '\\xa0x': "),
], ids=["stoplist", "stoplist-tab", "stoplist-space", "abbrev-empty",
        "abbrev-columns", "abbrev-space", "abbrev-digit-key",
        "abbrev-digit-value", "utf8", "status-trailing", "status-leading-tab", "status-ideographic-space", "status-crlf-nbsp"])
def test_line_error_names_file_and_line(tmp_path, seg, capsys, command,
                                        content, message):
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    hyp, out = seg("h.txt", ["der hund"]), tmp_path / "out"
    corpus = tmp_path / "c.jsonl"
    corpus.write_text('{"id":"a","text":"hallo"}\n', encoding="utf-8")
    argv = {"stoplist": ["reduced-bleu", "--hyp", hyp, "--ref", hyp,
                         "--stoplist", str(bad)],
            "abbrev": ["normalize", "--in", hyp, "--out", str(out),
                       "--abbrev", str(bad)],
            "normalize": ["normalize", "--in", str(bad), "--out", str(out)],
            "status": ["clean", "--in", str(corpus), "--out", str(out),
                       "--status", str(bad)]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: {message}")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("option", ["--window", "--stride"],
                         ids=["window", "stride"])
def test_plan_window_and_stride_are_usage_errors(tmp_path, capsys, option):
    """The window geometry is fixed: 64 frames, stride 8. Exit 1 with a
    missing manifest shows that no file was read."""
    out = tmp_path / "plans.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--manifest", str(tmp_path / "missing.jsonl"),
              "--out", str(out), option, "16"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith(
        f"error: unrecognized arguments: {option} 16\n")
    assert not out.exists()


def _plan_one(tmp_path, frame_count: int) -> list[str]:
    """The argv of ``plan`` over a one-line manifest of ``frame_count``."""
    manifest = tmp_path / "one.jsonl"
    manifest.write_text(json.dumps({"id": "x", "frame_count": frame_count})
                        + "\n", encoding="utf-8")
    return ["plan", "--manifest", str(manifest)]


def test_plan_single_frames(tmp_path, capsys):
    assert main(_plan_one(tmp_path, 80)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["window_starts"] == [0, 8, 16]
    assert payload["feature_dim"] == 1024


def test_plan_zero_frames(tmp_path, capsys):
    assert main(_plan_one(tmp_path, 0)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["window_starts"] == []


def test_plan_manifest(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(
        '{"id":"v1","frame_count":80,"width":1000,"height":1000}\n'
        '{"id":"v2","frame_count":40}\n', encoding="utf-8")
    out = tmp_path / "plans.jsonl"
    assert main(["plan", "--manifest", str(manifest), "--out", str(out)]) == 0
    plans = [json.loads(l) for l in
             out.read_text(encoding="utf-8").splitlines()]
    assert plans[0]["padded_w"] == 1400
    assert plans[1]["tail_padding"] == 24


def test_plan_manifest_keeps_non_ascii_ids_raw(tmp_path):
    manifest, out = tmp_path / "m.jsonl", tmp_path / "plans.jsonl"
    manifest.write_text('{"id":"Zürich-1","frame_count":0}\n',
                        encoding="utf-8")
    assert main(["plan", "--manifest", str(manifest), "--out", str(out)]) == 0
    assert out.read_bytes() == (
        '{"id": "Zürich-1", "padded_w": 224, "padded_h": 224, "scale_x": 1.0, '
        '"scale_y": 1.0, "window_starts": [], "tail_padding": 0, '
        '"uncovered_frames": 0, "feature_dim": 1024}\n').encode("utf-8")


def test_plan_manifest_keeps_unicode_line_separator(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text('{"id":"a\u2028b","frame_count":40}\n',
                        encoding="utf-8")
    assert main(["plan", "--manifest", str(manifest)]) == 0
    assert json.loads(capsys.readouterr().out)["id"] == "a\u2028b"


def test_plan_manifest_error_names_file_and_line(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text('{"id":"v1","frame_count":40}\n\n{oops\n',
                        encoding="utf-8")
    assert main(["plan", "--manifest", str(manifest)]) == 2
    assert f"{manifest}: line 3: malformed JSON" in capsys.readouterr().err


@pytest.mark.parametrize("ids, message", [
    (["", ""], "line 1: clip id must be nonempty"),
    (["a", "a"], "duplicate id 'a' (lines 1 and 2)"),
], ids=["empty", "repeated"])
def test_plan_manifest_bad_ids_are_data_errors(tmp_path, capsys, ids,
                                                message):
    manifest, out = tmp_path / "m.jsonl", tmp_path / "plans.jsonl"
    manifest.write_text("".join(
        json.dumps({"id": id, "frame_count": 40 * n}) + "\n"
        for n, id in enumerate(ids, start=1)), encoding="utf-8")
    assert main(["plan", "--manifest", str(manifest)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {manifest}: {message}\n"
    assert captured.out == ""
    assert main(["plan", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert not out.exists()


def test_plan_manifest_frames_above_bound_names_line(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text('{"id":"a","frame_count":40}\n'
                        f'{{"id":"b","frame_count":{MAX_FRAME_COUNT + 1}}}\n',
                        encoding="utf-8")
    assert main(["plan", "--manifest", str(manifest)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {manifest}: line 2: frame_count must "
                            f"be <= {MAX_FRAME_COUNT}\n")
    assert captured.out == ""


def test_plan_manifest_half_geometry_is_data_error(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.jsonl").write_text(
        '{"id":"a","frame_count":100,"width":640}\n', encoding="utf-8")
    assert main(["plan", "--manifest", "m.jsonl", "--out", "out"]) == 2
    captured = capsys.readouterr()
    assert captured.err == \
        "error: m.jsonl: line 1: width and height must be given together\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_deterministic_output(seg, capsys):
    hyp = seg("h.txt", ["x y z"])
    ref = seg("r.txt", ["x y w"])
    main(["bleu", "--hyp", hyp, "--ref", ref, "--json"])
    first = capsys.readouterr().out
    main(["bleu", "--hyp", hyp, "--ref", ref, "--json"])
    assert capsys.readouterr().out == first


# Exact output, key order and float repr included; the expected strings
# were taken from the dataclass-based records these commands used before.
_RAW = ('{"id":"a","text":"x y x","source":"SRF","duration_s":5400}\n'
        '{"id":"b","text":"z w","source":"FN","duration_s":1800}\n'
        '{"id":"c","text":"q","source":"LEX"}\n')
_CLEAN = '{"id":"a","text":"x y x v","source":"SRF","duration_s":5400}\n'


def test_stats_compare_json_exact(tmp_path, capsys):
    raw, clean = tmp_path / "raw.jsonl", tmp_path / "clean.jsonl"
    raw.write_text(_RAW, encoding="utf-8")
    clean.write_text(_CLEAN, encoding="utf-8")
    assert main(["stats", "--in", str(raw), "--compare", str(clean),
                 "--json"]) == 0
    assert capsys.readouterr().out == (
        '{"schema_version": 1, "raw": {"SRF": {"video_count": 1, "hours": '
        '1.5, "vocabulary": 2, "singletons": 1}, "FN": {"video_count": 1, '
        '"hours": 0.5, "vocabulary": 2, "singletons": 2}, "LEX": '
        '{"video_count": 1, "hours": 0.0, "vocabulary": 1, "singletons": 1}, '
        '"Total": {"video_count": 3, "hours": 2.0, "vocabulary": 5, '
        '"singletons": 4}}, "clean": {"SRF": {"video_count": 1, "hours": 1.5, '
        '"vocabulary": 3, "singletons": 2}, "Total": {"video_count": 1, '
        '"hours": 1.5, "vocabulary": 3, "singletons": 2}}, "deltas": '
        '[{"field": "video_count", "raw": 3, "clean": 1, "delta": -2, "pct": '
        '-66.66666666666666, "increased": false}, {"field": "hours", "raw": '
        '2.0, "clean": 1.5, "delta": -0.5, "pct": -25.0, "increased": false}, '
        '{"field": "vocabulary", "raw": 5, "clean": 3, "delta": -2, "pct": '
        '-40.0, "increased": false}, {"field": "singletons", "raw": 4, '
        '"clean": 2, "delta": -2, "pct": -50.0, "increased": false}]}\n')


_HUGE = ('{"id":"a","text":"x","duration_s":1e308}\n'
         '{"id":"b","text":"y","duration_s":1e308}\n')
_TINY = '{"id":"a","text":"x","duration_s":1e-300}\n'
_BIG = '{"id":"a","text":"x","duration_s":1e300}\n'


# Hours past the float range would print as Infinity, which is not JSON.
@pytest.mark.parametrize("raw, clean, flags, message", [
    (_HUGE, None, [], "{raw}: duration_s values sum past the float range"),
    (_HUGE, None, ["--json"],
     "{raw}: duration_s values sum past the float range"),
    (_RAW, _HUGE, ["--json"],
     "{clean}: duration_s values sum past the float range"),
    (_HUGE, _RAW, [], "{raw}: duration_s values sum past the float range"),
    (_TINY, _BIG, ["--json"],
     "{clean}: the change in hours against {raw} is past the float range"),
], ids=["table", "json", "compare-json", "compare-table", "compare-pct"])
def test_stats_hours_past_float_range_is_data_error(tmp_path, capsys, raw,
                                                     clean, flags, message):
    paths = {"raw": tmp_path / "raw.jsonl", "clean": tmp_path / "clean.jsonl"}
    paths["raw"].write_text(raw, encoding="utf-8")
    argv = ["stats", "--in", str(paths["raw"]), *flags]
    if clean is not None:
        paths["clean"].write_text(clean, encoding="utf-8")
        argv += ["--compare", str(paths["clean"])]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.format(**paths)}\n"
    assert captured.out == ""


def test_empty_reference_file_is_named(seg, capsys):
    hyp, ref = seg("h.txt", ["der hund"]), seg("r.txt", [" "])
    assert main(["select", "--ref", ref, "--hyp", f"a={hyp}"]) == 2
    assert capsys.readouterr().err == \
        f"error: {ref}: reference corpus is empty\n"


_GOOD_BLEU_FIELDS = ('"score": 63.289270782060825, "precisions": '
                     '[0.8333333333333334, 0.75, 0.5, 1.0], "brevity_penalty": '
                     '0.846481724890614, "hyp_len": 6, "ref_len": 7}')
_GOOD_BLEU = "{" + _GOOD_BLEU_FIELDS


def test_select_json_exact(seg, capsys):
    ref = seg("ref.txt", ["der hund bellt laut", "die katze schläft"])
    good = seg("good.txt", ["der hund bellt", "katze schläft gern"])
    bad = seg("bad.txt", ["der der bellt laut", "die die schläft"])
    assert main(["select", "--ref", ref, "--hyp", f"good={good}",
                 "--hyp", f"bad={bad}", "--json"]) == 0
    assert capsys.readouterr().out == (
        '{"schema_version": 1, "winner": "bad", "candidates": [{"name": '
        '"good", "bleu": ' + _GOOD_BLEU + ', "reduced_bleu": {"score": 0.0, '
        '"precisions": [0.8, 0.6666666666666666, 0.0, 1.0], '
        '"brevity_penalty": 1.0, "hyp_len": 5, "ref_len": 5}, '
        '"stopword_count": 1, "stopword_fraction": 0.16666666666666666}, '
        '{"name": "bad", "bleu": {"score": 0.0, "precisions": '
        '[0.7142857142857143, 0.2, 0.0, 0.0], "brevity_penalty": 1.0, '
        '"hyp_len": 7, "ref_len": 7}, "reduced_bleu": {"score": '
        '51.3417119032592, "precisions": [1.0, 1.0, 1.0, 1.0], '
        '"brevity_penalty": 0.513417119032592, "hyp_len": 3, "ref_len": 5}, '
        '"stopword_count": 4, "stopword_fraction": 0.5714285714285714}]}\n')


def test_bleu_json_exact(seg, capsys):
    ref = seg("ref.txt", ["der hund bellt laut", "die katze schläft"])
    hyp = seg("good.txt", ["der hund bellt", "katze schläft gern"])
    assert main(["bleu", "--hyp", hyp, "--ref", ref, "--json"]) == 0
    assert capsys.readouterr().out == \
        '{"schema_version": 1, ' + _GOOD_BLEU_FIELDS + "\n"


def test_plan_frames_exact(tmp_path, capsys):
    assert main(_plan_one(tmp_path, 100)) == 0
    assert capsys.readouterr().out == (
        '{"id": "x", "padded_w": 224, "padded_h": 224, "scale_x": 1.0, '
        '"scale_y": 1.0, "window_starts": [0, 8, 16, 24, 32], '
        '"tail_padding": 0, "uncovered_frames": 4, "feature_dim": 1024}\n')


@pytest.mark.parametrize("command", ["stats", "stats --compare", "select",
                                     "bleu", "reduced-bleu"])
def test_every_json_document_starts_with_schema_version(tmp_path, seg,
                                                        capsys, command):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(_RAW, encoding="utf-8")
    hyp, ref = seg("h.txt", ["der hund bellt"]), seg("r.txt", ["der hund"])
    argv = {"stats": ["stats", "--in", str(corpus)],
            "stats --compare": ["stats", "--in", str(corpus),
                                "--compare", str(corpus)],
            "select": ["select", "--ref", ref, "--hyp", f"a={hyp}"],
            "bleu": ["bleu", "--hyp", hyp, "--ref", ref],
            "reduced-bleu": ["reduced-bleu", "--hyp", hyp, "--ref", ref]
            }[command]
    assert main(argv + ["--json"]) == 0
    [(key, value), *_] = json.loads(capsys.readouterr().out).items()
    assert (key, value) == ("schema_version", 1)


# Each JSON field takes one type; any other value is a data error that
# names the file, the field and, in JSONL, the line.
_CORPUS_OK = '{"id":"z","text":"ok"}\n'


@pytest.mark.parametrize("kind, content, field", [
    ("corpus", '{"id":"a","text":null}', "text"),
    ("corpus", '{"id":"a","text":["x","y"]}', "text"),
    ("corpus", '{"id":"a","text":"x","duration_s":"nan"}', "duration_s"),
    ("corpus", '{"id":"a","text":"x","duration_s":true}', "duration_s"),
    ("corpus", '{"id":"a","text":"x","duration_s":NaN}', "duration_s"),
    ("manifest", '{"id":"a","frame_count":true}', "frame_count"),
    ("manifest", '{"frame_count":40}', "id"),
    ("manifest", '{"id":5,"frame_count":40}', "id"),
])
def test_mistyped_json_field_is_data_error(tmp_path, capsys, kind, content,
                                           field):
    out, bad = tmp_path / "out.jsonl", tmp_path / "bad.json"
    first = '{"id":"z","frame_count":40}\n' if kind == "manifest" \
        else _CORPUS_OK
    bad.write_text(first + content + "\n", encoding="utf-8")
    argv = ["plan", "--manifest", str(bad)] if kind == "manifest" else \
        ["clean", "--in", str(bad), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"error: {bad}: line 2: field '{field}' must be ")
    assert captured.out == ""
    assert not out.exists()


# Nested deeper than the JSON decoder's recursion limit.
_DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("command", ["clean", "stats", "plan"])
def test_deeply_nested_json_is_data_error(tmp_path, capsys, command):
    out, bad = tmp_path / "out.jsonl", tmp_path / "bad.json"
    first = '{"id":"z","frame_count":40}\n' if command == "plan" \
        else _CORPUS_OK
    bad.write_text(first + _DEEP_JSON + "\n", encoding="utf-8")
    argv = {"clean": ["clean", "--in", str(bad), "--out", str(out)],
            "stats": ["stats", "--in", str(bad)],
            "plan": ["plan", "--manifest", str(bad)]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"error: {bad}: line 2: JSON nested too deeply")
    assert captured.out == ""
    assert not out.exists()


def test_normalize_digit_run_over_int_str_limit(tmp_path, seg):
    # 5 000 digits are past Python's int/str limit: only 3-digit groups may
    # reach int(). Leading zeros do not make a number oversized.
    inp = seg("in.txt", ["1" + "0" * 4999, "000" + "9" * 12, "1" + "0" * 12])
    out = tmp_path / "out.txt"
    assert main(["normalize", "--in", inp, "--out", str(out)]) == 0
    long, max_number, oversized = load_segments(out)
    assert long.split() == ["zehn"] + ["null"] * 1666
    assert max_number == spell_number_de(MAX_NUMBER)
    assert oversized == "eins null null null null"


# A line of 200 000 marks of classes 220 and 230 in turn, which NFC must
# reorder: a plain NFC of it would take about 38 s (extrapolated from 1.5 s
# for 40 000 marks on a 2-vCPU host, Python 3.11), and clean puts each
# line in NFC twice.
_MARKS = 200_000
_HOSTILE = "Z" + "\u0316\u0301" * (_MARKS // 2)


@pytest.mark.parametrize("command", ["clean", "normalize"])
def test_long_mark_run_is_linear(tmp_path, command):
    """One hostile line among 200 ordinary ones: clean keeps it verbatim
    and normalize breaks its run with U+034F, each in a fresh process well
    within its time limit."""
    lines = [f"Grüße aus Zürich, Zeile {i}." for i in range(200)] + [_HOSTILE]
    inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
    if command == "clean":
        write_corpus([Utterance(f"u{i}", line) for i, line in
                      enumerate(lines)], inp)
    else:
        write_segments(lines, inp)
    src = Path(__file__).resolve().parent.parent / "src"
    subprocess.run([sys.executable, "-m", "slt_toolkit.cli", command, "--in",
                    str(inp), "--out", str(out)], check=True, timeout=10,
                   capture_output=True,
                   env={**os.environ, "PYTHONPATH": str(src)})
    if command == "clean":
        assert [u.text for u in load_corpus(out)] == lines
    else:
        *ordinary, hostile = load_segments(out)
        assert len(ordinary) == 200
        assert hostile.count("\u034f") == (_MARKS - 1) // 30
