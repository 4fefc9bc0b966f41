"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads train,evaluate,review --seeds 1-10

Runs one workload at a time, one seed at a time, each run alone and
untraced, with the command and run length from BENCHMARK.json.  For every
metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the interquartile distance as a
share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10", help="a range like 1-10 or a list like 1,4,7")
    args = p.parse_args(argv)

    for workload in args.workloads.split(","):
        values, failed, attempted = {}, 0, 0
        for seed in _seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                continue
            for line in lines[:-1]:
                if "test AUROC" in line:
                    print(f"  seed {seed} {line}")
            result = json.loads(lines[-1])
            failed += result["failed"]
            attempted += result["attempted"]
            row = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct {result['correct']}, attempted "
                  f"{result['attempted']}, failed {result['failed']}, "
                  + ", ".join(f"{k} {v:.6g}" for k, v in row.items()), flush=True)
            for k, v in row.items():
                values.setdefault(k, []).append(v)
        print(f"{workload}: failed {failed} of {attempted}")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) < 2 or med == 0:
                print(f"  {name}: median {med:.6g} over {len(vals)} runs")
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"  {name}: median {med:.6g}, quartiles {q1:.6g} / {q3:.6g}, "
                  f"spread {(q3 - q1) / med:.3f} of the median over {len(vals)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
