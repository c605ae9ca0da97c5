"""Start-up loads only what the work needs, checked without timing.

Each check runs in a fresh interpreter and lists the package's modules in
``sys.modules``: ``import slt_toolkit`` loads none, the CLI loads the
three that build its parser and every subcommand adds only its own.
Bundled data is read from files next to the package, without importing
``importlib.resources``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import slt_toolkit
from slt_toolkit import numbers_de

SRC = Path(__file__).resolve().parent.parent / "src"

# The package's exports, by the submodule that defines them.
EXPORTS = {
    "corpus": ["Corpus", "Source", "Utterance", "load_corpus",
               "load_segments", "write_corpus", "write_segments"],
    "cleaning": ["CleanConfig", "CleanOutcome", "LanguageProfile", "Verdict",
                 "clean_corpus", "detect_language", "match_status_message"],
    "normalize": ["AbbrevTable", "NormConfig", "normalize_text"],
    "numbers_de": ["parse_number_de", "spell_date_de", "spell_number_de"],
    "itn": ["contract_numbers_de", "restore_display"],
    "metrics": ["BleuScore", "StopList", "bleu", "count_stopwords",
                "default_stoplist", "reduced_bleu", "remove_stopwords",
                "select_checkpoint"],
    "stats": ["CorpusStats", "compare_stats", "vocab_stats"],
    "frameplan": ["MouthPlan", "PadSpec", "WindowPlan", "WindowSpec",
                  "plan_mouth", "plan_padding", "plan_windows"],
}

_LOADED = """\
def loaded():
    return sorted(m.partition(".")[2] for m in sys.modules
                  if m.startswith("slt_toolkit."))
"""


def _run(body: str, *args: str) -> list:
    """Run ``body`` in a fresh interpreter; its last stdout line is JSON."""
    code = f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n" \
        f"{_LOADED}{body}"
    out = subprocess.run([sys.executable, "-c", code, *args], check=True,
                         capture_output=True, text=True, timeout=60)
    return json.loads(out.stdout.splitlines()[-1])


def test_package_import_loads_no_submodule():
    assert _run("import slt_toolkit\nprint(json.dumps(loaded()))") == []


@pytest.mark.parametrize("name, loads", [
    ("bleu", ["corpus", "metrics"]),
    ("metrics", ["corpus", "metrics"]),
    ("restore_display", ["itn", "numbers_de"]),
])
def test_first_use_loads_the_defining_module(name, loads):
    assert _run(f"import slt_toolkit\nslt_toolkit.{name}\n"
                "print(json.dumps(loaded()))") == loads


def test_cli_import_loads_parser_modules_only():
    assert _run("import slt_toolkit.cli\nprint(json.dumps(loaded()))") == \
        ["cli", "corpus", "normalize", "numbers_de"]


_CORPUS = '{"id":"a","text":"der hund","source":"SRF"}\n'


@pytest.mark.parametrize("command, added", [
    ("itn", ["itn"]),
    ("normalize", []),
    ("clean", ["cleaning"]),
    ("stats", ["stats"]),
    ("bleu", ["metrics"]),
    ("select", ["metrics"]),
    ("plan", ["frameplan"]),
])
def test_subcommand_adds_only_its_modules(tmp_path, command, added):
    seg, corpus = tmp_path / "seg.txt", tmp_path / "c.jsonl"
    seg.write_text("zweiundvierzig hunde\n", encoding="utf-8")
    corpus.write_text(_CORPUS, encoding="utf-8")
    out = str(tmp_path / "out")
    argv = {
        "itn": ["itn", "--in", str(seg), "--out", out],
        "normalize": ["normalize", "--in", str(seg), "--out", out],
        "clean": ["clean", "--in", str(corpus), "--out", out],
        "stats": ["stats", "--in", str(corpus)],
        "bleu": ["bleu", "--hyp", str(seg), "--ref", str(seg)],
        "select": ["select", "--hyp", str(seg), "--ref", str(seg)],
        "plan": ["plan", "--frames", "100"],
    }[command]
    before, after, code = _run("""\
import contextlib, io
from slt_toolkit import cli
before = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([before, loaded(), code]))
""", *argv)
    assert code == 0
    assert sorted(set(after) - set(before)) == added


def test_bundled_data_does_not_import_importlib_resources():
    # -S: a site .pth file may import importlib.resources on its own.
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n" \
        "import slt_toolkit.cli\nfrom slt_toolkit import metrics\n" \
        "assert len(metrics.default_stoplist()) > 0\n" \
        "print('importlib.resources' in sys.modules)"
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.split() == ["False"]


def test_exports_resolve_to_submodule_objects():
    names = sorted(n for names in EXPORTS.values() for n in names)
    assert slt_toolkit.__all__ == names
    assert set(names) <= set(dir(slt_toolkit))
    for module, exported in EXPORTS.items():
        sub = getattr(slt_toolkit, module)
        for name in exported:
            assert getattr(slt_toolkit, name) is getattr(sub, name)
    assert slt_toolkit.bleu is slt_toolkit.metrics.bleu
    assert slt_toolkit.__version__ == "0.1.0"


def test_unknown_name_is_an_error():
    with pytest.raises(ImportError):
        from slt_toolkit import nope  # noqa: F401
    with pytest.raises(AttributeError):
        slt_toolkit.find_numeric_spans


# Reference: the inverse tables as first written, one spelling per number.
@pytest.mark.parametrize("one, table", [
    ("eins", numbers_de._TABLE_EINS),
    ("ein", numbers_de._TABLE_EIN),
    ("eine", numbers_de._TABLE_EINE),
])
def test_inverse_tables_equal_reference(one, table):
    reference = {numbers_de._spell_under_1000(i, one): i
                 for i in range(1, 1000)}
    assert list(table.items()) == list(reference.items())
