"""Tests for corpus and segment file I/O."""

import ast
import json
import re
import sys
import unicodedata
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from slt_toolkit.corpus import (
    SOURCES,
    CorpusError,
    Utterance,
    function_words,
    json_object,
    jsonl_line,
    load_corpus,
    load_segments,
    nfc,
    write_corpus,
    write_segments,
)


def test_load_corpus_basic(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id":"a","text":"hallo"}\n'
                    '{"id":"b","text":"welt","duration_s":2.0}\n',
                    encoding="utf-8")
    corpus = load_corpus(path)
    assert len(corpus) == 2
    assert corpus[0].id == "a"
    assert corpus[0].text == "hallo"
    assert corpus[0].source == "OTHER"
    assert corpus[1].duration_s == 2.0


def test_load_corpus_empty(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("", encoding="utf-8")
    assert len(load_corpus(path)) == 0


def test_load_corpus_duplicate_id(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id":"a","text":"x"}\n{"id":"a","text":"y"}\n',
                    encoding="utf-8")
    with pytest.raises(CorpusError, match="duplicate id 'a'.*1.*2"):
        load_corpus(path)


def test_load_corpus_duplicate_id_counts_blank_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id":"a","text":"x"}\n\n{"id":"a","text":"y"}\n',
                    encoding="utf-8")
    with pytest.raises(CorpusError, match=re.escape(
            f"{path}: duplicate id 'a' (lines 1 and 3)")):
        load_corpus(path)


@settings(max_examples=200, deadline=None)
@given(layout=st.lists(st.sampled_from(["", " ", "\t", "a", "b", "c", "d",
                                        "e", "f"]), max_size=12))
def test_load_corpus_duplicate_names_first_repeat(tmp_path_factory, layout):
    # Each letter is one utterance with that id; the rest are blank lines.
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    path.write_text("".join(
        item + "\n" if not item.strip() else
        f'{{"id":"{item}","text":"t"}}\n' for item in layout),
        encoding="utf-8")
    lines_of = {}
    for lineno, item in enumerate(layout, start=1):
        if item.strip():
            lines_of.setdefault(item, []).append(lineno)
    repeated = [lines for lines in lines_of.values() if len(lines) > 1]
    if not repeated:
        assert load_corpus(path) == tuple(
            Utterance(item, "t") for item in layout if item.strip())
        return
    # The id whose second occurrence comes first, at its first two lines.
    first, second = min(repeated, key=lambda lines: lines[1])[:2]
    id = layout[first - 1]
    with pytest.raises(CorpusError, match="^" + re.escape(
            f"{path}: duplicate id '{id}' (lines {first} and {second})")):
        load_corpus(path)


def test_load_corpus_malformed_line_names_lineno(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id":"a","text":"x"}\n{oops\n', encoding="utf-8")
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)


def test_load_corpus_invalid_utf8(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_bytes(b'{"id":"a","text":"\xff"}\n')
    with pytest.raises(CorpusError, match="UTF-8"):
        load_corpus(path)


def test_load_corpus_unknown_fields_ignored(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id":"a","text":"x","extra":[1,2]}\n', encoding="utf-8")
    assert load_corpus(path)[0].text == "x"


def test_corpus_roundtrip(tmp_path):
    corpus = (
        Utterance("a", "tab\there \"quoted\"", "SRF", 1.5),
        Utterance("b", "zweite zeile", "FN"),
    )
    path = tmp_path / "out.jsonl"
    write_corpus(corpus, path)
    loaded = load_corpus(path)
    for orig, back in zip(corpus, loaded):
        assert (orig.id, orig.text, orig.source, orig.duration_s) == \
               (back.id, back.text, back.source, back.duration_s)


@pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\u0085"])
def test_corpus_roundtrip_unicode_line_separators(tmp_path, sep):
    corpus = (Utterance("a", f"vor{sep}nach", "SRF"),
              Utterance("b", "zweite zeile"))
    path = tmp_path / "out.jsonl"
    write_corpus(corpus, path)
    assert [u.text for u in load_corpus(path)] == [f"vor{sep}nach",
                                                   "zweite zeile"]


@settings(max_examples=200, deadline=None)
@given(ids=st.lists(st.sampled_from("abcd"), max_size=8))
@example(ids=["a", "a"])
def test_write_corpus_refuses_what_load_corpus_refuses(tmp_path_factory,
                                                        ids):
    """``write_corpus`` refuses a repeated id with the message that
    ``load_corpus`` gives the file it would have written, and leaves no
    file; it writes every other corpus, from a generator too, so that it
    reads back equal."""
    corpus = tuple(Utterance(id, "t") for id in ids)
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    if len(set(ids)) == len(ids):
        write_corpus(iter(corpus), path)
        assert load_corpus(path) == corpus
        return
    write_segments([f'{{"id":"{id}","text":"t"}}' for id in ids], path)
    with pytest.raises(CorpusError) as loaded:
        load_corpus(path)
    path.unlink()
    with pytest.raises(CorpusError) as written:
        write_corpus(iter(corpus), path)
    assert str(written.value) == str(loaded.value)
    assert not path.exists()


# Values of every JSON type a field can be given, right or wrong.
_FIELD_VALUES = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    st.sampled_from(SOURCES), st.text(st.sampled_from("SRFNLEXO"),
                                      max_size=4),
    st.none(), st.booleans(), st.integers(), st.floats())


@settings(max_examples=500, deadline=None)
@given(args=st.lists(_FIELD_VALUES, min_size=2, max_size=4))
def test_utterance_is_rejected_or_round_trips(tmp_path_factory, args):
    """A record built in code obeys the typed fields of a corpus line: it
    is rejected, or it comes back equal from the file it writes."""
    try:
        utt = Utterance(*args)
    except CorpusError:
        return
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    write_corpus([utt], path)
    assert load_corpus(path) == (utt,)


def test_negative_duration_rejected():
    with pytest.raises(CorpusError):
        Utterance("a", "x", duration_s=-1.0)


@pytest.mark.parametrize("fields", ['"id":"","text":"x"',
                                    '"id":"a","text":"x","duration_s":-1',
                                    '"id":"a","text":"x","duration_s":"abc"',
                                    '"id":"a","text":"x","duration_s":[1]'])
def test_load_corpus_bad_field_names_file_and_line(tmp_path, fields):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id":"z","text":"ok"}\n{' + fields + '}\n',
                    encoding="utf-8")
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: line 2: "):
        load_corpus(path)


# JSON values of every kind a record holds: text with line separators and
# lone surrogates, integers, floats at their edges, booleans, null, lists.
_RECORD_VALUES = st.recursive(
    st.text(max_size=6) | st.sampled_from(["\u2028", "\ud800", "\x00\x1f"])
    | st.integers() | st.floats()
    | st.sampled_from([0.0, -0.0, float("inf"), -float("inf"), 1e16])
    | st.booleans() | st.none(),
    lambda inner: st.lists(inner, max_size=3), max_leaves=8)


@settings(max_examples=500, deadline=None)
@given(record=st.dictionaries(st.text(max_size=4), _RECORD_VALUES,
                              max_size=4))
def test_jsonl_line_equals_json_dumps(record):
    assert jsonl_line(record) == json.dumps(record, ensure_ascii=False)


def test_load_segments_basic(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("a b\nc d\n", encoding="utf-8")
    assert list(load_segments(path)) == ["a b", "c d"]


def test_load_segments_empty_file(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("", encoding="utf-8")
    assert list(load_segments(path)) == []


def test_load_segments_preserves_empty_lines(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("x\n\ny", encoding="utf-8")
    assert list(load_segments(path)) == ["x", "", "y"]


def test_load_segments_crlf(tmp_path):
    path = tmp_path / "s.txt"
    path.write_bytes(b"a b\r\nc d\r\n")
    assert list(load_segments(path)) == ["a b", "c d"]


@pytest.mark.parametrize("raw, lines", [
    (b"a\r\r\nb\r\n", ["a\r", "b"]),  # one "\r" per CRLF is dropped
    (b"a\r\nb\nc\r\n\r\nd\n", ["a", "b", "c", "", "d"]),
    (b"a\rb\r\nc\r d\n", ["a\rb", "c\r d"]),
    (b"a\nb\r", ["a", "b\r"]),  # no "\n" after the last "\r"
])
def test_load_segments_drops_only_the_cr_of_a_crlf(tmp_path, raw, lines):
    path = tmp_path / "s.txt"
    path.write_bytes(raw)
    assert list(load_segments(path)) == lines


def test_load_segments_drops_one_leading_bom(tmp_path):
    path = tmp_path / "s.txt"
    path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfa\n\xef\xbb\xbfb\n")
    assert list(load_segments(path)) == ["\ufeffa", "\ufeffb"]


def test_failed_write_leaves_no_file(tmp_path):
    path = tmp_path / "s.txt"
    with pytest.raises(UnicodeEncodeError):
        write_segments(["a", "\ud800"], path)
    assert not path.exists()


def test_segments_roundtrip(tmp_path):
    lines = ["erste", "", "  mit rand  ", "letzte"]
    path = tmp_path / "s.txt"
    write_segments(lines, path)
    assert list(load_segments(path)) == lines


# Lines without "\n" that do not end in "\r"; a first line does not start
# with the byte order mark that read_text drops.
_SEGMENT_LINES = st.lists(
    st.text(st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="\n"), max_size=12)
    .filter(lambda line: not line.endswith("\r")), max_size=6
).filter(lambda lines: not lines or not lines[0].startswith("\ufeff"))


@settings(max_examples=200, deadline=None)
@given(lines=_SEGMENT_LINES)
def test_segments_roundtrip_property(tmp_path_factory, lines):
    # A lone "\r" stays inside its line: only "\n" ends one.
    path = tmp_path_factory.mktemp("segments") / "s.txt"
    write_segments(lines, path)
    assert list(load_segments(path)) == lines


def test_input_decoding_lives_in_corpus():
    """corpus decodes JSON input and says where in a file an error is; no
    other module decodes JSON input or writes a line location."""
    package = Path(__file__).resolve().parent.parent / "src" / "slt_toolkit"
    found = []
    for module in sorted(package.glob("*.py")):
        if module.name == "corpus.py":
            continue
        source = module.read_text(encoding="utf-8")
        if "json.loads" in source:
            found.append(f"{module.name}: json.loads")
        found += [f"{module.name}:{node.lineno}: {ast.unparse(node)}"
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.JoinedStr)
                  and "line {" in ast.unparse(node)]
    assert found == []


_FILE_IO = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def test_file_io_lives_in_corpus():
    """corpus is the one module that reads or writes a file: no other
    module calls open, .read_text, .read_bytes, .write_text or
    .write_bytes."""
    package = Path(__file__).resolve().parent.parent / "src" / "slt_toolkit"
    found = []
    for module in sorted(package.glob("*.py")):
        if module.name == "corpus.py":
            continue
        tree = ast.parse(module.read_text(encoding="utf-8"))
        found += [f"{module.name}:{node.lineno}: {ast.unparse(node)}"
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and (isinstance(node.func, ast.Name)
                       and node.func.id == "open"
                       or isinstance(node.func, ast.Attribute)
                       and node.func.attr in _FILE_IO)]
    assert found == []


def test_unicode_normalization_lives_in_corpus():
    """corpus.nfc is the one home of NFC: no other module calls
    unicodedata.normalize or imports it. Other unicodedata functions, such
    as category and digit, are free to use."""
    package = Path(__file__).resolve().parent.parent / "src" / "slt_toolkit"
    found = []
    for module in sorted(package.glob("*.py")):
        if module.name == "corpus.py":
            continue
        tree = ast.parse(module.read_text(encoding="utf-8"))
        found += [f"{module.name}:{node.lineno}: {ast.unparse(node)}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr == "normalize"
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "unicodedata"
                  or isinstance(node, ast.ImportFrom)
                  and node.module == "unicodedata"]
    assert found == []


def test_no_module_imports_a_private_name_of_another():
    """A name that starts with "_" is private to its module: no package
    module imports one from another."""
    package = Path(__file__).resolve().parent.parent / "src" / "slt_toolkit"
    found = []
    for module in sorted(package.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        found += [f"{module.name}:{node.lineno}: {alias.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or node.module.startswith("slt_toolkit"))
                  for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_function_words_in_nfc_and_a_bad_line_named(tmp_path):
    """A word list of any language, not only a stop list: each line in
    NFC, stripped and lowercased, and a line of two tokens named."""
    path = tmp_path / "function_words_fr.txt"
    path.write_text(" Le\nE\u0301te\u0301\n\nla\n", encoding="utf-8")
    assert function_words(path) == {"le", "\u00e9t\u00e9", "la"}
    path.write_text("le\nla\n\na b\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=re.escape(
            f"{path}: line 4: invalid word: 'a b'") + "$"):
        function_words(path)


def _json_object_oracle(text):
    """json_object as first written: json.loads on every text. Errors
    carry no location, in a text of several lines too."""
    try:
        obj = json.loads(text)
        if re.search(r"\\u[dD][89a-fA-F]", text):
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except json.JSONDecodeError as exc:
        raise CorpusError(f"malformed JSON: {exc.msg}") from None
    except RecursionError:
        raise CorpusError("JSON nested too deeply") from None
    except UnicodeEncodeError:
        raise CorpusError("string is not valid Unicode") from None
    if not isinstance(obj, dict):
        raise CorpusError("expected a JSON object")
    return obj


def _outcome(decode, text):
    """repr of the decoded value, which tells NaN and -0.0 apart, or the
    error text."""
    try:
        return "value", repr(decode(text))
    except CorpusError as exc:
        return "error", str(exc)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
_PADDING = st.text(st.sampled_from(" \t\r\n"), max_size=3)


@st.composite
def _json_texts(draw):
    """A JSON text, padded with white space, maybe followed by data, cut,
    behind a BOM, wrapped in deep nesting or holding surrogate escapes."""
    text = json.dumps(draw(_JSON_VALUES), ensure_ascii=draw(st.booleans()),
                      indent=draw(st.sampled_from([None, 1])))
    if draw(st.booleans()):  # a lone or paired surrogate escape
        text = draw(st.sampled_from(["{\"a\": %s}", "[%s]", "%s"])) % draw(
            st.sampled_from(['"\\ud800"', '"\\udc00x"', '"\\ud83d\\ude00"',
                             '"\\uD83Dx"']))
    depth = draw(st.sampled_from([0, 0, 1, 50, 5_000]))
    text = '{"a": [' * depth + text + "]}" * depth
    text = draw(_PADDING) + text + draw(_PADDING)
    if draw(st.booleans()):
        text += draw(st.sampled_from(["x", "{}", " 1", ",", "]", "\n{}"]))
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text


@settings(max_examples=500, deadline=None)
@given(text=st.one_of(_json_texts(), st.text(max_size=12)))
def test_json_object_equals_json_loads_version(text):
    assert _outcome(json_object, text) == _outcome(_json_object_oracle, text)


_CGJ = "\u034f"


def _longest_run(text):
    """The longest run of non-starters in the canonical decomposition."""
    longest = run = 0
    for ch in unicodedata.normalize("NFD", text):
        run = run + 1 if unicodedata.combining(ch) else 0
        longest = max(longest, run)
    return longest


# Starters, precomposed letters that decompose into a starter and marks
# ("Ǖ" and "ṩ" into two), marks of several classes, the two-mark
# U+0344 and U+0F73, and mark runs long enough to pass 30 together.
_MARK_TEXT = st.lists(st.one_of(
    st.sampled_from(["a", "Z", " ", "\u00e4", "\u01d5", "\u1e69", "\u0f40",
                     "\u0316", "\u0301", "\u0308", "\u0323", "\u0344",
                     "\u0f71", "\u0f72", "\u0f73", _CGJ, "\u200b", "\u3042"]),
    st.builds(lambda marks, n: marks * n,
              st.sampled_from(["\u0316\u0301", "\u0301", "\u0f73",
                               "\u0344\u0316"]),
              st.integers(1, 24))), max_size=8).map("".join)


@settings(max_examples=400, deadline=None)
@given(text=_MARK_TEXT)
def test_nfc_is_plain_nfc_on_stream_safe_text(text):
    """On text whose decomposition holds no run of more than 30
    non-starters, nfc is exactly unicodedata.normalize("NFC", ...).
    Otherwise it differs by the joiners alone: with them taken out, the
    output is canonically equivalent to the input. Either way the output
    is NFC and nfc leaves it unchanged."""
    out = nfc(text)
    if _longest_run(text) <= 30:
        assert out == unicodedata.normalize("NFC", text)
    else:
        assert out.count(_CGJ) > text.count(_CGJ)
        assert unicodedata.normalize("NFC", out.replace(_CGJ, "")) == \
            unicodedata.normalize("NFC", text.replace(_CGJ, ""))
    assert unicodedata.is_normalized("NFC", out)
    assert _longest_run(out) <= 30
    assert nfc(out) == out


def test_nfc_long_run_candidates_are_sound():
    """nfc scans only text with 14 code points at or above U+0300 in a
    row. That holds every run of more than 30 non-starters as long as each
    character whose decomposition begins with a non-starter is at or above
    U+0300 and is at most 2 of them, and the character before a run adds
    at most 3: checked here against this Python's Unicode database."""
    for cp in range(sys.maxunicode + 1):
        if 0xD800 <= cp <= 0xDFFF:
            continue
        marks = [unicodedata.combining(c) != 0
                 for c in unicodedata.normalize("NFD", chr(cp))]
        if all(marks):
            assert len(marks) <= 2 and cp >= 0x300, hex(cp)
        else:
            assert not marks[0] and marks[::-1].index(False) <= 3, hex(cp)
