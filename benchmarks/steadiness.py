"""Run the benchmark over several seeds and report how steady it is.

    python3 benchmarks/steadiness.py --workloads prep select display \
        --seeds 10 [--first-seed 1] [--out FILE]

For each workload and end-to-end metric this prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median next to a third of the metric's bound in BENCHMARK.json.
With ``--out`` the same figures are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=["prep", "select", "display"])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    summary = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        fail_fracs: list[float] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, check=True, capture_output=True, text=True,
                timeout=300)
            result = json.loads(out.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect\n{out.stdout}",
                      file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            fail_fracs.append(result["failed"] / result["attempted"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k} {v['value']:.5g}" for k, v in result["metrics"].items())
                + f"  fail_frac {fail_fracs[-1]:.5g}", flush=True)
        summary[workload] = {"fail_frac": fail_fracs}
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary[workload][metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "runs": len(vals), "values": vals}
            print(f"  {workload:<8} {metric['name']:<12} median {median:.5g} "
                  f"q1 {q1:.5g} q3 {q3:.5g} spread {spread:.3f} "
                  f"(bound/3 {metric['bound'] / 3:.3f})", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
