"""Alternating benchmark pairs between two checkouts.

    python3 tools/bench_pairs.py BASE NEW --workload eval-frozen \
        --pairs 5 --seconds 15 --seed 41

Pair i runs `perfbench/run.py --trace 0` on seed + i in BASE and in NEW,
BASE first in odd pairs and NEW first in even ones, and reads the last
stdout line of each run, a JSON object; a run without one stops the script
with its checkout, exit code and stderr. For each end-to-end metric of
BENCHMARK.json it prints the median [q1, q3] of each side and the pairs in
which NEW is better. Exits 1 if a run is not correct or has failed
operations. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        sys.exit(f"{checkout}: no result (exit {proc.returncode})\n{proc.stderr}")
    return result


def spread(values: list[float]) -> str:
    """median [q1, q3], with quartiles interpolated as numpy's default does."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def summarize(base: list[dict], new: list[dict], better: dict[str, str]
              ) -> tuple[list[str], bool]:
    """Report lines for result dicts of both sides in pair order, with
    `better` naming each metric's direction ("lower" or "higher"); and
    whether every run was correct with no failed operation."""
    lines = []
    for name, direction in better.items():
        a = [r["metrics"][name]["value"] for r in base]
        b = [r["metrics"][name]["value"] for r in new]
        won = sum(y < x if direction == "lower" else y > x for x, y in zip(a, b))
        lines.append(f"{name}: base {spread(a)}  new {spread(b)}  "
                     f"new better in {won} of {len(a)} pairs")
    ok = all(r["correct"] and not r["failed"] for r in base + new)
    if not ok:
        lines.append("a run failed its checks or operations")
    return lines, ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base")
    p.add_argument("new")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    base, new = [], []
    for i in range(args.pairs):
        sides = [(args.base, base), (args.new, new)]
        for checkout, results in sides if i % 2 == 0 else sides[::-1]:
            results.append(run_once(checkout, args.workload, args.seed + i, args.seconds))
            print(f"pair {i + 1} {checkout}: {json.dumps(results[-1])}", flush=True)
    lines, ok = summarize(base, new, better)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
