"""Golden outputs: each ``prep`` command, run in-process on the small input
under ``tests/golden/``, gives exactly the bytes checked in beside it.

The input is ``benchmarks/generate.py``'s ``make_prep(random.Random(1), dir,
n=100)``: ``raw.jsonl`` and ``clips.jsonl``. The input of ``normalize`` is
the texts of the expected ``clean.jsonl``, written to the output directory
first. After a deliberate change of output, ``python3 tests/golden/make.py``
rewrites the expected files.
"""

import contextlib
import difflib
import io
from pathlib import Path

import pytest

from slt_toolkit import cli
from slt_toolkit.corpus import load_corpus, write_segments

GOLDEN = Path(__file__).parent / "golden"

# Command line, with {in} the golden directory and {out} the output
# directory, and the files it makes; "stats.json" is its standard output.
CASES = {
    "clean": (["clean", "--in", "{in}/raw.jsonl", "--out", "{out}/clean.jsonl",
               "--report", "{out}/report.jsonl"],
              ("clean.jsonl", "report.jsonl")),
    "normalize": (["normalize", "--in", "{out}/clean.txt",
                   "--out", "{out}/norm.txt"], ("norm.txt",)),
    "stats": (["stats", "--in", "{in}/raw.jsonl",
               "--compare", "{in}/clean.jsonl", "--json"], ("stats.json",)),
    "plan": (["plan", "--manifest", "{in}/clips.jsonl",
              "--out", "{out}/plans.jsonl"], ("plans.jsonl",)),
}
STDOUT_NAME = "stats.json"


def run_case(name: str, out: Path) -> dict[str, bytes]:
    """The output files of one case, by name, written to ``out``."""
    argv, outputs = CASES[name]
    if name == "normalize":
        texts = [utt.text for utt in load_corpus(GOLDEN / "clean.jsonl")]
        write_segments(texts, out / "clean.txt")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([arg.format(**{"in": GOLDEN, "out": out})
                         for arg in argv])
    assert code == 0, f"{name} exited {code}"
    return {file: stdout.getvalue().encode("utf-8") if file == STDOUT_NAME
            else (out / file).read_bytes() for file in outputs}


def _first_diff(expected: bytes, actual: bytes, limit: int = 20) -> str:
    lines = difflib.unified_diff(
        expected.decode("utf-8", "replace").splitlines(),
        actual.decode("utf-8", "replace").splitlines(),
        "expected", "actual", lineterm="")
    return "\n".join(line for _, line in zip(range(limit), lines))


@pytest.mark.parametrize("name", CASES)
def test_golden_output(name, tmp_path):
    for file, actual in run_case(name, tmp_path).items():
        expected = (GOLDEN / file).read_bytes()
        assert actual == expected, \
            f"{file} differs from the golden file:\n" \
            f"{_first_diff(expected, actual)}"
