"""The library names the benchmark patches and calls, checked in the
tier-1 suite: deleting or renaming one fails here, before a benchmark run.

The tracer (benchmarks/tracing.py) wraps 23 public functions under the
names their callers look them up by, and the set-up probe of
benchmarks/worker.py builds the CLI parser and the bundled resources.
"""

import importlib.util
from pathlib import Path

from slt_toolkit import cleaning, cli, metrics, normalize

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


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
