"""The bundled defaults against a direct read of the data files."""

from pathlib import Path

import pytest

import slt_toolkit
from slt_toolkit.cleaning import Language, default_profiles
from slt_toolkit.metrics import default_stoplist
from slt_toolkit.normalize import default_abbrev_table

DATA = Path(slt_toolkit.__file__).parent / "data"


def _lines(name):
    return (DATA / name).read_text(encoding="utf-8").splitlines()


def _words(name):
    return {w for line in _lines(name) if (w := line.strip().lower())}


def test_profiles_equal_the_word_lists():
    profiles = default_profiles()
    assert list(profiles) == [Language.DE, Language.FR, Language.EN]
    assert profiles == {Language.DE: _words("stopwords_de.txt"),
                        Language.FR: _words("function_words_fr.txt"),
                        Language.EN: _words("function_words_en.txt")}
    # The DE profile holds the list as written: no apostrophe variants.
    assert "geht's" in profiles[Language.DE]
    assert "gehts" not in profiles[Language.DE]
    with pytest.raises(TypeError):  # shared by all callers, so read-only
        profiles[Language.DE] = frozenset()


def test_stoplist_adds_apostrophe_variants():
    words = _words("stopwords_de.txt")
    assert default_stoplist() == \
        words | {w.replace("'", "") for w in words}
    assert "gehts" in default_stoplist()


def test_abbrev_table_equals_the_tsv():
    rows = [line.split("\t") for line in _lines("abbreviations_de.tsv")
            if line.strip()]
    assert dict(default_abbrev_table().entries) == dict(rows)
    assert len(default_abbrev_table().entries) == 35


def test_defaults_are_shared_across_calls():
    assert default_profiles() is default_profiles()
    assert default_stoplist() is default_stoplist()
    assert default_abbrev_table() is default_abbrev_table()
