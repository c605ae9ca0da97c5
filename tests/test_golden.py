"""Golden outputs: each command, run in-process on the small inputs under
``tests/golden/``, gives exactly the bytes checked in beside them, with the
work in one shard and in two.

The inputs come from ``benchmarks/generate.py``:
- ``make_prep(random.Random(1), dir, n=100)``: ``raw.jsonl`` and
  ``clips.jsonl``;
- ``make_select(random.Random(1), dir, n=60)``: ``ref.txt`` and
  ``ckpt1.txt`` to ``ckpt5.txt``;
- ``make_display(random.Random(1), dir, n=300)``: ``model.txt``.
The input of ``normalize`` is the texts of the expected ``clean.jsonl``,
written to the output directory first. After a deliberate change of output,
``python3 tests/golden/make.py`` rewrites the expected files.
"""

import contextlib
import difflib
import io
from pathlib import Path
from unittest.mock import patch

import pytest

from slt_toolkit import cli, shards
from slt_toolkit.corpus import load_corpus, write_segments

GOLDEN = Path(__file__).parent / "golden"

# Command line, with {in} the golden directory and {out} the output
# directory, the files it makes, and the file that holds its standard
# output, if it is pinned.
CASES = {
    "clean": (["clean", "--in", "{in}/raw.jsonl", "--out", "{out}/clean.jsonl",
               "--report", "{out}/report.jsonl"],
              ("clean.jsonl", "report.jsonl"), None),
    "normalize": (["normalize", "--in", "{out}/clean.txt",
                   "--out", "{out}/norm.txt"], ("norm.txt",), None),
    "stats": (["stats", "--in", "{in}/raw.jsonl",
               "--compare", "{in}/clean.jsonl", "--json"], (), "stats.json"),
    "plan": (["plan", "--manifest", "{in}/clips.jsonl",
              "--out", "{out}/plans.jsonl"], ("plans.jsonl",), None),
    "bleu": (["bleu", "--hyp", "{in}/ckpt3.txt", "--ref", "{in}/ref.txt"],
             (), "bleu.txt"),
    "reduced-bleu": (["reduced-bleu", "--hyp", "{in}/ckpt1.txt",
                      "--ref", "{in}/ref.txt", "--smoothing", "exp",
                      "--json"], (), "reduced_bleu.json"),
    "select": (["select", "--ref", "{in}/ref.txt"]
               + [f"--hyp={{in}}/ckpt{i}.txt" for i in range(1, 6)]
               + ["--json"], (), "select.json"),
    "itn": (["itn", "--in", "{in}/model.txt", "--out", "{out}/display.txt"],
            ("display.txt",), None),
}


def run_case(name: str, out: Path, shard_count: int = 1
             ) -> dict[str, bytes]:
    """The output files of one case, by name, written to ``out``, with
    every sharded step cut into ``shard_count`` shards."""
    argv, files, stdout_file = CASES[name]
    if name == "normalize":
        texts = [utt.text for utt in load_corpus(GOLDEN / "clean.jsonl")]
        write_segments(texts, out / "clean.txt")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()), \
            patch.object(shards, "_shard_count", lambda work: shard_count):
        code = cli.main([arg.format(**{"in": GOLDEN, "out": out})
                         for arg in argv])
    assert code == 0, f"{name} exited {code}"
    outputs = {file: (out / file).read_bytes() for file in files}
    if stdout_file is not None:
        outputs[stdout_file] = stdout.getvalue().encode("utf-8")
    return outputs


def _first_diff(expected: bytes, actual: bytes, limit: int = 20) -> str:
    lines = difflib.unified_diff(
        expected.decode("utf-8", "replace").splitlines(),
        actual.decode("utf-8", "replace").splitlines(),
        "expected", "actual", lineterm="")
    return "\n".join(line for _, line in zip(range(limit), lines))


@pytest.mark.parametrize("name, shard_count", [
    pytest.param(name, k, id=name if k == 1 else f"{name}-2-shards")
    for k in (1, 2) for name in CASES])
def test_golden_output(name, shard_count, tmp_path):
    for file, actual in run_case(name, tmp_path, shard_count).items():
        expected = (GOLDEN / file).read_bytes()
        assert actual == expected, \
            f"{file} differs from the golden file:\n" \
            f"{_first_diff(expected, actual)}"
