"""Run one workload's CLI commands repeatedly in a fresh interpreter.

    python3 benchmarks/worker.py WORKLOAD WORKDIR SECONDS TRACE SPANS_FILE

The inputs are the generated files in WORKDIR. Timed passes run until
SECONDS have passed; every second one, starting with the first, is
followed by a fresh-interpreter set-up probe. With TRACE set to 1,
untraced and traced passes alternate, the traced ones record spans
(written to SPANS_FILE) and per-layer metrics. The wall time of a
pass is the time spent inside ``slt_toolkit.cli.main``; reading the
cleaned JSONL into a segment file between ``clean`` and ``normalize`` is
glue and is not timed. Results go to WORKDIR/worker.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from slt_toolkit import cli  # noqa: E402

import tracing  # noqa: E402

MIN_PASSES = 3
MAX_SECONDS = 110  # stop early when the program got very slow
PASSES_PER_PROBE = 2

# Set-up in a fresh interpreter: import the package and build the bundled
# resources the workload's commands load, up to the first input line.
SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from slt_toolkit import cleaning, cli, metrics, normalize
cli.build_parser()
if sys.argv[2] == "prep":
    normalize.default_abbrev_table()
    cleaning.default_profiles()
elif sys.argv[2] == "select":
    metrics.default_stoplist()
print(time.perf_counter() - start)
"""


def probe_setup(workload: str) -> float:
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), workload],
                         check=True, capture_output=True, text=True, timeout=60)
    return float(out.stdout)


def _segments_from_jsonl(src: Path, dst: Path) -> None:
    if not src.exists():
        dst.write_text("", encoding="utf-8")
        return
    texts = [json.loads(line)["text"]
             for line in src.read_text(encoding="utf-8").split("\n") if line]
    dst.write_text("".join(t + "\n" for t in texts), encoding="utf-8")


def run_pass(workload: str, d: Path, main) -> tuple[float, list]:
    """One pass of the workload; returns (seconds in cli.main, exit codes)."""
    timed = 0.0
    codes: list = []

    def call(argv: list[str], stdout_name: str | None = None) -> None:
        nonlocal timed
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception:  # a crash is a failed command, not a dead run
                code = "exception"
                traceback.print_exc(file=err)
            timed += perf_counter() - start
        if stdout_name:
            (d / stdout_name).write_text(out.getvalue(), encoding="utf-8")
        if code != 0:
            print(f"{argv[0]} exited {code}: {err.getvalue()[-2000:]}",
                  file=sys.stderr)
        codes.append(code)

    if workload == "prep":
        call(["clean", "--in", str(d / "raw.jsonl"),
              "--out", str(d / "clean.jsonl"),
              "--report", str(d / "report.jsonl")])
        _segments_from_jsonl(d / "clean.jsonl", d / "clean.txt")
        call(["normalize", "--in", str(d / "clean.txt"),
              "--out", str(d / "norm.txt")])
        call(["stats", "--in", str(d / "raw.jsonl"),
              "--compare", str(d / "clean.jsonl"), "--json"], "stats.json")
        call(["plan", "--manifest", str(d / "clips.jsonl"),
              "--out", str(d / "plans.jsonl")])
    elif workload == "select":
        hyps = sorted(p.stem for p in d.glob("ckpt*.txt"))
        argv = ["select", "--ref", str(d / "ref.txt"), "--json"]
        for name in hyps:
            argv += ["--hyp", f"{name}={d / (name + '.txt')}"]
        call(argv, "select.json")
    elif workload == "display":
        call(["itn", "--in", str(d / "model.txt"),
              "--out", str(d / "display.txt")])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return timed, codes


def main(argv: list[str]) -> int:
    workload, workdir, seconds, trace, spans_file = argv
    d, seconds, trace = Path(workdir), float(seconds), trace == "1"
    walls, traced_walls, codes, layers, spans_out = [], [], [], [], []
    # Probes are spread over the run so that they sample the same machine
    # states as the passes; the first one only warms the file cache.
    probe_setup(workload)
    setups = []
    start = perf_counter()
    while True:
        if trace and len(walls) > len(traced_walls):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                wall, pass_codes = run_pass(
                    workload, d, tracer.span("cli.main", "cli", cli.main))
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            layers.append(tracing.layer_metrics(tracer.spans, tracer.notes))
            spans_out += [dict(span.to_dict(), trace_pass=len(traced_walls))
                          for span in tracer.spans]
        else:
            wall, pass_codes = run_pass(workload, d, cli.main)
            walls.append(wall)
            if not trace and len(walls) % PASSES_PER_PROBE == 1:
                setups.append(probe_setup(workload))
        codes.append(pass_codes)
        elapsed = perf_counter() - start
        enough = len(walls) >= MIN_PASSES and \
            (not trace or len(traced_walls) >= MIN_PASSES)
        if (elapsed >= seconds and enough) or elapsed > MAX_SECONDS:
            break
    result = {"walls": walls, "traced_walls": traced_walls, "codes": codes,
              "setups": setups}
    if trace:
        result["layers"] = {
            name: statistics.median(m[name] for m in layers)
            for name in layers[0]}
        Path(spans_file).write_text(
            "".join(json.dumps(s) + "\n" for s in spans_out), encoding="utf-8")
    (d / "worker.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
