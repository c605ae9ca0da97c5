"""Benchmark of slt-toolkit: one workload run, checked, with its metrics.

    python3 benchmarks/run.py --workload {prep,select,display} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; the library is imported from its
``src/``. The run generates seeded inputs under ``.bench_work/``, times
the workload's ``slt`` commands in a fresh interpreter (see worker.py),
checks every output (see checks.py) and prints a human summary followed
by one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a traced run (see tracing.py). Exit code
0 means the run completed, whatever the checks found; any other code means
no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("prep", "select", "display")
WORKER_TIMEOUT = 160

def run_worker(workload: str, workdir: Path, seconds: int, trace: int,
               spans_file: Path) -> tuple[dict, float]:
    """Run worker.py; return its result and its peak RSS in MB."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(workdir),
         str(seconds), str(trace), str(spans_file)], stdout=sys.stderr)
    deadline = time.monotonic() + WORKER_TIMEOUT
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads((workdir / "worker.json").read_text(encoding="utf-8"))
    return result, usage.ru_maxrss / 1024.0  # Linux reports KiB


def upper_quartile(samples: list[float]) -> float:
    """Timing estimate of a run. On a shared host, pass times switch between
    a steady contended speed and erratic faster spells; the upper quartile
    follows the steady one, where the median flips with the mix."""
    return statistics.quantiles(samples, n=4)[2]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "slt_toolkit" / "__init__.py").is_file():
        print(f"error: no slt_toolkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import generate
    from slt_toolkit.normalize import default_abbrev_table, normalize_text

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    spans_file = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
    phases = {"generate": time.monotonic()}
    try:
        labels = generate.generate(args.workload, args.seed, workdir)
        phases["worker"] = time.monotonic()
        result, peak_rss_mb = run_worker(args.workload, workdir, args.seconds,
                                         args.trace, spans_file)
        phases["checks"] = time.monotonic()
        table = default_abbrev_table()

        def renormalize(line: str) -> str:
            return normalize_text(line, table)

        if args.workload == "prep":
            tally = checks.check_prep(workdir, labels, renormalize)
        elif args.workload == "select":
            tally = checks.check_select(
                workdir, labels, SRC / "slt_toolkit" / "data" / "stopwords_de.txt")
        else:
            tally = checks.check_display(workdir, labels, renormalize)
    except (OSError, RuntimeError, subprocess.SubprocessError, ValueError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    phases["end"] = time.monotonic()
    # One check per command of a pass, so that `attempted` depends on the
    # seed only and not on how many passes fitted into the run.
    for command_codes in zip(*result["codes"]):
        bad = [code for code in command_codes if code != 0]
        tally.record("cli.exit", not bad, detail=f"exit codes {bad[:5]}")

    walls = result["walls"]
    wall_s = upper_quartile(walls)
    print(f"{args.workload} seed {args.seed}: {len(walls)} timed passes, "
          f"{labels['lines']} input lines per pass")
    marks = list(phases.items())
    print("  phases (s): " + ", ".join(
        f"{name} {later - at:.1f}"
        for (name, at), (_, later) in zip(marks, marks[1:])))
    if args.trace:
        values = dict(result["layers"], **{"trace.overhead_frac": upper_quartile(
            result["traced_walls"]) / wall_s - 1.0})
        print(f"  traced passes {len(result['traced_walls'])}, spans in "
              f"{spans_file.relative_to(ROOT)}")
    else:
        values = {"wall_s": wall_s, "lines_per_s": labels["lines"] / wall_s,
                  "setup_s": upper_quartile(result["setups"]),
                  "peak_rss_mb": peak_rss_mb}
        for name, samples in (("pass walls", walls),
                              ("set-up probes", result["setups"])):
            print(f"  {name} (s): {' '.join(f'{t:.4f}' for t in samples)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':<36} {tally.failed / tally.attempted:>14.6g} ratio"
          f"  ({tally.failed} of {tally.attempted} checked operations; "
          f"{tally.unexpected} unexpected; by check: {dict(tally.by_check)})")
    for example in tally.examples:
        print(f"  unexpected failure: {example}")
    print(json.dumps({"correct": tally.unexpected == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
