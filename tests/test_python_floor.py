"""The package's source parses at the oldest Python that pyproject.toml
admits, so syntax newer than that floor fails here on any interpreter.

``ast.parse(feature_version=...)`` checks on a best-effort basis: it
rejects forms such as ``except*``, but not every newer form.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_source_parses_at_python_floor():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    [(major, minor)] = re.findall(
        r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE)
    floor = (int(major), int(minor))
    assert floor == (3, 10)
    sources = sorted((ROOT / "src" / "slt_toolkit").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=floor)
