"""The bundled defaults against a direct read of the data files, and
every data file shipped and read."""

import fnmatch
import importlib
import re
from pathlib import Path

import pytest

import slt_toolkit
from slt_toolkit import corpus
from slt_toolkit.cleaning import default_profiles, default_status_patterns
from slt_toolkit.metrics import default_stoplist
from slt_toolkit.normalize import default_abbrev_table

DATA = Path(slt_toolkit.__file__).parent / "data"
ROOT = Path(__file__).resolve().parent.parent


def _lines(name):
    return (DATA / name).read_text(encoding="utf-8").splitlines()


def _words(name):
    return {w for line in _lines(name) if (w := line.strip().lower())}


def test_profiles_equal_the_word_lists():
    profiles = default_profiles()
    assert list(profiles) == ["DE", "FR", "EN"]
    assert profiles == {"DE": _words("stopwords_de.txt"),
                        "FR": _words("function_words_fr.txt"),
                        "EN": _words("function_words_en.txt")}
    # The DE profile holds the list as written: no apostrophe variants.
    assert "geht's" in profiles["DE"]
    assert "gehts" not in profiles["DE"]
    with pytest.raises(TypeError):  # shared by all callers, so read-only
        profiles["DE"] = frozenset()


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


def test_status_patterns_equal_the_file():
    assert default_status_patterns() == (
        "1:1-Untertitelung.", "Livepassagen können Fehler enthalten.",
        "Mit Live-Untertiteln von SWISS TXT")
    assert default_status_patterns() == tuple(_lines("status_de.txt"))


def test_defaults_are_shared_across_calls():
    assert default_profiles() is default_profiles()
    assert default_stoplist() is default_stoplist()
    assert default_abbrev_table() is default_abbrev_table()
    assert default_status_patterns() is default_status_patterns()


def _default_loaders():
    """Every ``default_*`` function of the package's modules."""
    for path in sorted(DATA.parent.glob("*.py")):
        module = importlib.import_module(f"slt_toolkit.{path.stem}")
        for name, value in vars(module).items():
            if name.startswith("default_") and callable(value) and \
                    value.__module__ == module.__name__:
                yield value


def test_every_data_file_ships_and_is_read(monkeypatch):
    """A wheel holds the data files that match a package-data glob of
    pyproject.toml, and each file there is read by a ``default_*``
    loader: none is left out of the package or orphaned."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    [globs] = re.findall(r"^\[tool\.setuptools\.package-data\]\n"
                         r"slt_toolkit = \[(.*)\]$", text, re.MULTILINE)
    globs = re.findall(r'"([^"]+)"', globs)
    files = sorted(f"data/{p.name}" for p in DATA.iterdir())
    assert files
    assert [f for f in files
            if not any(fnmatch.fnmatchcase(f, g) for g in globs)] == []

    read = set()

    def recording_read_text(path):
        read.add(f"data/{Path(path).name}")
        return original(path)

    original = corpus.read_text
    monkeypatch.setattr(corpus, "read_text", recording_read_text)
    loaders = list(_default_loaders())
    assert sorted(f.__name__ for f in loaders) == [
        "default_abbrev_table", "default_profiles", "default_status_patterns",
        "default_stoplist"]
    for loader in loaders:
        loader.cache_clear()
    for loader in loaders:
        loader()
    assert read == set(files)
