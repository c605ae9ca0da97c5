"""The library names the benchmark patches and calls, checked in the
tier-1 suite: deleting or renaming one fails here, before a benchmark run.

The tracer (benchmarks/tracing.py) wraps 23 public functions under the
names their callers look them up by, and the set-up probe of
benchmarks/worker.py builds the CLI parser and the bundled resources.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from slt_toolkit import cleaning, cli, metrics, normalize

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"
SRC = TRACING.parent.parent / "src"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = _tracing_module().Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        assert len(patched) == 23
        assert all(getattr(obj, attr) is not original
                   for obj, attr, original in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(obj, attr) is original
               for obj, attr, original in patched)


def test_setup_probe_calls():
    cli.build_parser()
    normalize.default_abbrev_table()
    cleaning.default_profiles()
    metrics.default_stoplist()


# Stdlib modules that cost the set-up probe ~40 ms when the package still
# used dataclasses and calendar. Building any argparse parser loads locale
# (gettext looks up the message catalogs), so locale is checked before
# build_parser.
HEAVY = ("dataclasses", "inspect", "calendar", "datetime", "locale")
_LOADED = "print(json.dumps([m for m in {heavy} if m in sys.modules]))"
_PROBE = f"""\
import json, sys
sys.path.insert(0, sys.argv[1])
from slt_toolkit import cleaning, cli, metrics, normalize
{_LOADED.format(heavy=HEAVY)}
cli.build_parser()
normalize.default_abbrev_table()
cleaning.default_profiles()
metrics.default_stoplist()
{_LOADED.format(heavy=HEAVY[:-1])}
"""


def _loaded(code: str) -> list[list[str]]:
    out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         check=True, capture_output=True, text=True,
                         timeout=60)
    return [json.loads(line) for line in out.stdout.splitlines()]


def test_setup_probe_skips_heavy_stdlib_modules():
    """Deterministic, no timing: a heavy import coming back fails here."""
    [bare] = _loaded(f"import json, sys\n{_LOADED.format(heavy=HEAVY)}")
    after_imports, after_probe = _loaded(_PROBE)
    assert set(after_imports) <= set(bare)
    assert set(after_probe) <= set(bare)


def test_setup_probe_does_not_compile_the_fork_code():
    """The fork, pipe and reap code is imported by the calls that shard,
    never on the way to the first input line."""
    probe = _PROBE + _LOADED.format(heavy=("slt_toolkit.shards",))
    *_, after_probe = _loaded(probe)
    assert after_probe == []
