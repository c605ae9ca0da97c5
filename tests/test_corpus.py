"""Tests for corpus and segment file I/O."""

import re

import pytest

from slt_toolkit.corpus import (
    Corpus,
    CorpusError,
    Source,
    Utterance,
    load_corpus,
    load_segments,
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
    assert corpus.utterances[0].id == "a"
    assert corpus.utterances[0].text == "hallo"
    assert corpus.utterances[0].source is Source.OTHER
    assert corpus.utterances[1].duration_s == 2.0


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


def test_corpus_rejects_duplicate_id():
    with pytest.raises(CorpusError, match=re.escape(
            "duplicate id 'a' (entries 1 and 3)")):
        Corpus((Utterance("a", "x"), Utterance("b", "y"), Utterance("a", "z")))


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
    assert load_corpus(path).utterances[0].text == "x"


def test_corpus_roundtrip(tmp_path):
    corpus = Corpus((
        Utterance("a", "tab\there \"quoted\"", Source.SRF, 1.5),
        Utterance("b", "zweite zeile", Source.FN),
    ))
    path = tmp_path / "out.jsonl"
    write_corpus(corpus, path)
    loaded = load_corpus(path)
    for orig, back in zip(corpus, loaded):
        assert (orig.id, orig.text, orig.source, orig.duration_s) == \
               (back.id, back.text, back.source, back.duration_s)


@pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\u0085"])
def test_corpus_roundtrip_unicode_line_separators(tmp_path, sep):
    corpus = Corpus((Utterance("a", f"vor{sep}nach", Source.SRF),
                     Utterance("b", "zweite zeile")))
    path = tmp_path / "out.jsonl"
    write_corpus(corpus, path)
    assert [u.text for u in load_corpus(path)] == [f"vor{sep}nach",
                                                   "zweite zeile"]


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


def test_load_segments_drops_one_leading_bom(tmp_path):
    path = tmp_path / "s.txt"
    path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfa\n\xef\xbb\xbfb\n")
    assert list(load_segments(path)) == ["\ufeffa", "\ufeffb"]


def test_segments_roundtrip(tmp_path):
    lines = ["erste", "", "  mit rand  ", "letzte"]
    path = tmp_path / "s.txt"
    write_segments(lines, path)
    assert list(load_segments(path)) == lines
