"""Start-up loads only what the work needs, checked without timing.

Each check runs in a fresh interpreter and lists the package's modules in
``sys.modules``: ``import slt_toolkit`` loads none, a submodule loads only
the ones it imports, the CLI loads the three that build its parser and
every subcommand adds only its own.
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


@pytest.mark.parametrize("module, loads", [
    ("metrics", ["corpus", "metrics"]),
    ("itn", ["itn", "numbers_de"]),
])
def test_submodule_import_loads_only_what_it_needs(module, loads):
    assert _run(f"import slt_toolkit.{module}\n"
                "print(json.dumps(loaded()))") == loads


def test_cli_import_loads_parser_modules_only():
    assert _run("import slt_toolkit.cli\nprint(json.dumps(loaded()))") == \
        ["cli", "corpus", "normalize", "numbers_de"]


_CORPUS = '{"id":"a","text":"der hund","source":"SRF"}\n'


# The commands that map or score line by line also load the shard module,
# whatever the input's size: the shard count is worked out there.
@pytest.mark.parametrize("command, added", [
    ("itn", ["itn", "shards"]),
    ("normalize", ["shards"]),
    ("clean", ["cleaning"]),
    ("stats", ["stats"]),
    ("bleu", ["metrics", "shards"]),
    ("select", ["metrics", "shards"]),
    ("plan", ["frameplan"]),
])
def test_subcommand_adds_only_its_modules(tmp_path, command, added):
    seg, corpus = tmp_path / "seg.txt", tmp_path / "c.jsonl"
    manifest = tmp_path / "m.jsonl"
    seg.write_text("zweiundvierzig hunde\n", encoding="utf-8")
    corpus.write_text(_CORPUS, encoding="utf-8")
    manifest.write_text('{"id":"x","frame_count":100}\n', encoding="utf-8")
    out = str(tmp_path / "out")
    argv = {
        "itn": ["itn", "--in", str(seg), "--out", out],
        "normalize": ["normalize", "--in", str(seg), "--out", out],
        "clean": ["clean", "--in", str(corpus), "--out", out],
        "stats": ["stats", "--in", str(corpus)],
        "bleu": ["bleu", "--hyp", str(seg), "--ref", str(seg)],
        "select": ["select", "--hyp", str(seg), "--ref", str(seg)],
        "plan": ["plan", "--manifest", str(manifest)],
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


@pytest.mark.parametrize("flags", [[], ["-S"]])
def test_metrics_adds_only_math_to_corpus(flags):
    # Every set-up probe compiles metrics.py: what it imports is paid on
    # every workload.
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n" \
        "import slt_toolkit.corpus\nbefore = set(sys.modules)\n" \
        "import slt_toolkit.metrics\n" \
        "print(*sorted(set(sys.modules) - before))"
    out = subprocess.run([sys.executable, *flags, "-c", code], check=True,
                         capture_output=True, text=True, timeout=60)
    added = set(out.stdout.split())
    assert "slt_toolkit.metrics" in added
    assert added <= {"slt_toolkit.metrics", "math"}


def test_version_matches_pyproject():
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert f'\nversion = "{slt_toolkit.__version__}"\n' in pyproject


def test_unknown_name_is_an_error():
    with pytest.raises(ImportError):
        from slt_toolkit import nope  # noqa: F401
    # The package re-exports nothing: names live in their submodules.
    with pytest.raises(ImportError):
        from slt_toolkit import bleu  # noqa: F401
    assert not hasattr(slt_toolkit, "__all__")
    with pytest.raises(AttributeError):
        slt_toolkit.find_numeric_spans


# Reference: the inverse tables as first written, one spelling per number.
@pytest.mark.parametrize("one, table", [
    ("eins", numbers_de._TABLE_EINS),
    ("ein", numbers_de._TABLE_EIN),
    ("eine", numbers_de._TABLE_EINE),
])
def test_inverse_tables_equal_reference(one, table):
    spell = numbers_de._spell_under_100
    reference = {(spell(i // 100, "ein") + "hundert" if i >= 100 else "")
                 + spell(i % 100, one): i for i in range(1, 1000)}
    assert list(table.items()) == list(reference.items())
