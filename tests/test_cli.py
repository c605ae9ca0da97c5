"""Tests for the slt command line interface."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from slt_toolkit import metrics
from slt_toolkit.cli import main
from slt_toolkit.corpus import load_corpus, load_segments
from slt_toolkit.frameplan import MAX_FRAME_COUNT
from slt_toolkit.itn import restore_display
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
    assert payload == expected.to_dict()


def test_bleu_mismatch_is_data_error(seg, capsys):
    hyp = seg("h.txt", ["a", "b"])
    ref = seg("r.txt", ["a"])
    assert main(["bleu", "--hyp", hyp, "--ref", ref]) == 2
    err = capsys.readouterr().err
    assert "2" in err and "1" in err


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bleu", "--hyp", "only.txt"])
    assert exc.value.code == 1


def test_unknown_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_reduced_bleu_delegates(seg, capsys):
    hyp = seg("h.txt", ["der hund bellt laut sehr gut"])
    ref = seg("r.txt", ["die hund bellt laut sehr gut"])
    stops = seg("stops.txt", ["der", "die"])
    assert main(["reduced-bleu", "--hyp", hyp, "--ref", ref,
                 "--stoplist", stops, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = metrics.reduced_bleu(
        ["der hund bellt laut sehr gut"], ["die hund bellt laut sehr gut"],
        metrics.StopList.from_lines(["der", "die"]))
    assert payload == expected.to_dict()


def test_stoplist_env_override(seg, capsys, monkeypatch):
    stops = seg("stops.txt", ["qqq"])
    monkeypatch.setenv("SLT_STOPLIST", stops)
    hyp = seg("h.txt", ["qqq hund"])
    ref = seg("r.txt", ["hund"])
    assert main(["reduced-bleu", "--hyp", hyp, "--ref", ref, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["score"] == pytest.approx(100.0)


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


def test_normalize_no_numbers_flag(tmp_path, seg):
    inp = seg("in.txt", ["42 Franken"])
    out = tmp_path / "out.txt"
    assert main(["normalize", "--in", inp, "--out", str(out),
                 "--no-numbers"]) == 0
    assert list(load_segments(out)) == ["42 franken"]


def test_normalize_empty_abbrev_table(tmp_path, seg):
    inp = seg("in.txt", ["3 Mrd. Franken"])
    table = tmp_path / "empty.tsv"
    table.write_text("", encoding="utf-8")
    out = tmp_path / "out.txt"
    assert main(["normalize", "--in", inp, "--out", str(out),
                 "--abbrev", str(table)]) == 0
    assert list(load_segments(out)) == ["drei mrd franken"]


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
        assert out.read_text(encoding="utf-8") == "".join(
            restore_display(line) + "\n" for line in load_segments(inp))


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


@pytest.mark.parametrize("content", [b"{not json", b"[1, 2]",
                                     b'{"enabled_rules": ["NO_SUCH_RULE"]}'])
def test_clean_config_error_names_file(tmp_path, capsys, content):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text('{"id":"a","text":"hallo"}\n', encoding="utf-8")
    config = tmp_path / "cfg.json"
    config.write_bytes(content)
    assert main(["clean", "--in", str(corpus), "--out",
                 str(tmp_path / "out.jsonl"), "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {config}: ")


@pytest.mark.parametrize("command", ["stoplist", "env", "abbrev"])
def test_non_utf8_list_file_named(tmp_path, seg, capsys, monkeypatch,
                                  command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"der\n\xff\n")
    hyp, ref = seg("h.txt", ["der hund"]), seg("r.txt", ["der hund"])
    argv = {"stoplist": ["reduced-bleu", "--hyp", hyp, "--ref", ref,
                         "--stoplist", str(bad)],
            "env": ["reduced-bleu", "--hyp", hyp, "--ref", ref],
            "abbrev": ["normalize", "--in", hyp, "--out",
                       str(tmp_path / "out.txt"), "--abbrev", str(bad)]}
    if command == "env":
        monkeypatch.setenv("SLT_STOPLIST", str(bad))
    assert main(argv[command]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {bad}: not valid UTF-8")


def test_plan_single_frames(capsys):
    assert main(["plan", "--frames", "80"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["window_starts"] == [0, 8, 16]
    assert payload["feature_dim"] == 1024


def test_plan_zero_frames(capsys):
    assert main(["plan", "--frames", "0"]) == 0
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


def test_plan_frames_above_bound_is_data_error(capsys):
    assert main(["plan", "--frames", str(MAX_FRAME_COUNT + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.err == \
        f"error: frame_count must be <= {MAX_FRAME_COUNT}\n"
    assert captured.out == ""


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


_GOOD_BLEU = ('{"score": 63.289270782060825, "precisions": '
              '[0.8333333333333334, 0.75, 0.5, 1.0], "brevity_penalty": '
              '0.846481724890614, "hyp_len": 6, "ref_len": 7}')


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
    assert capsys.readouterr().out == _GOOD_BLEU + "\n"


def test_plan_frames_exact(capsys):
    assert main(["plan", "--frames", "100"]) == 0
    assert capsys.readouterr().out == (
        '{"padded_w": 224, "padded_h": 224, "scale_x": 1.0, "scale_y": 1.0, '
        '"window_starts": [0, 8, 16, 24, 32], "tail_padding": 0, '
        '"feature_dim": 1024}\n')


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
    ("config", '{"status_patterns":"A"}', "status_patterns"),
    ("config", '{"enabled_rules":"STATUS_MESSAGE"}', "enabled_rules"),
    ("config", '{"foreign_threshold":true}', "foreign_threshold"),
])
def test_mistyped_json_field_is_data_error(tmp_path, capsys, kind, content,
                                           field):
    corpus, out = tmp_path / "c.jsonl", tmp_path / "out.jsonl"
    bad = tmp_path / "bad.json"
    if kind == "config":
        corpus.write_text(_CORPUS_OK + '{"id":"y","text":"A."}\n',
                          encoding="utf-8")
        bad.write_text(content, encoding="utf-8")
        argv = ["clean", "--in", str(corpus), "--out", str(out),
                "--config", str(bad)]
        where = f"{bad}: "
    else:
        first = '{"id":"z","frame_count":40}\n' if kind == "manifest" \
            else _CORPUS_OK
        bad.write_text(first + content + "\n", encoding="utf-8")
        argv = ["plan", "--manifest", str(bad)] if kind == "manifest" else \
            ["clean", "--in", str(bad), "--out", str(out)]
        where = f"{bad}: line 2: "
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {where}field '{field}' must be ")
    assert captured.out == ""
    assert not out.exists()


# Nested deeper than the JSON decoder's recursion limit.
_DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("command", ["clean", "stats", "plan", "config"])
def test_deeply_nested_json_is_data_error(tmp_path, capsys, command):
    corpus, out = tmp_path / "c.jsonl", tmp_path / "out.jsonl"
    bad = tmp_path / "bad.json"
    if command == "config":
        corpus.write_text(_CORPUS_OK, encoding="utf-8")
        bad.write_text(_DEEP_JSON, encoding="utf-8")
        argv = ["clean", "--in", str(corpus), "--out", str(out),
                "--config", str(bad)]
        where = f"{bad}: "
    else:
        first = '{"id":"z","frame_count":40}\n' if command == "plan" \
            else _CORPUS_OK
        bad.write_text(first + _DEEP_JSON + "\n", encoding="utf-8")
        argv = {"clean": ["clean", "--in", str(bad), "--out", str(out)],
                "stats": ["stats", "--in", str(bad)],
                "plan": ["plan", "--manifest", str(bad)]}[command]
        where = f"{bad}: line 2: "
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {where}JSON nested too deeply")
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
