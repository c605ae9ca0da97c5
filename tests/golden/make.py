"""Rewrite the expected outputs of ``tests/test_golden.py``.

    PYTHONPATH=src python3 tests/golden/make.py

Runs every golden case with the package on the path, in one shard, and
writes its outputs next to the inputs, in the order of ``CASES``:
``normalize`` reads the new ``clean.jsonl``. The inputs stay as they are.
Review the diff before committing it.
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_golden import CASES, GOLDEN, run_case  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            for file, data in run_case(name, Path(tmp)).items():
                (GOLDEN / file).write_bytes(data)


if __name__ == "__main__":
    main()
