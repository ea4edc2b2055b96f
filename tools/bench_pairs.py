"""Alternating benchmark pairs between two checkouts.

    python3 tools/bench_pairs.py BASE NEW --workload eval-frozen \
        --pairs 5 --seconds 15 --seed 41

Pair i runs `perfbench/run.py --trace 0` on seed + i in BASE and in NEW,
BASE first in odd pairs and NEW first in even ones, and reads the last
stdout line of each run, a JSON object; a run without one stops the script
with its checkout, exit code and stderr. For each end-to-end metric of
BENCHMARK.json it prints the median [q1, q3] of each side and the pairs in
which NEW is better, and the same for the raw images/s that each run
prints to stderr beside the rescaled one (the rescaling samples a reference
kernel on the program's main thread, so it overstates a gain from other
threads). Exits 1 if a run is not correct or has failed operations. Uses
the standard library only.

With --record PATH it also writes the pairs as JSON: the workload, seeds
and seconds; each checkout's commit, marked dirty when it has uncommitted
changes; the BLAS thread variables of the environment the runs start in
(perfbench/run.py pins them to 1 itself), the Python, numpy and scipy
versions and the CPU model; and per side and end-to-end metric the median,
q1, q3 and the value of each pair, with the raw images/s under
"raw_images_per_s" (null when a run printed none).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RAW = "raw_images_per_s"


def raw_rate(stderr: str) -> float | None:
    """The raw images/s of perfbench/run.py's stderr line
    ("images/s X rescaled, Y raw"), or None without one."""
    found = re.findall(r"images/s \S+ rescaled, (\S+) raw", stderr)
    return float(found[-1]) if found else None


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
    result[RAW] = raw_rate(proc.stderr)
    return result


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3], interpolated as numpy's default does."""
    return (statistics.quantiles(values, n=4, method="inclusive")
            if len(values) > 1 else values * 3)


def spread(values: list[float]) -> str:
    """median [q1, q3]."""
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def raw_rates(results: list[dict]) -> list[float] | None:
    """Each run's raw images/s, or None unless every run printed one."""
    rates = [r.get(RAW) for r in results]
    return None if None in rates else rates


def summarize(base: list[dict], new: list[dict], better: dict[str, str]
              ) -> tuple[list[str], bool]:
    """Report lines for result dicts of both sides in pair order, with
    `better` naming each metric's direction ("lower" or "higher"), and a
    line for the raw images/s when every run has one; and whether every
    run was correct with no failed operation."""
    lines = []
    values = {name: ([r["metrics"][name]["value"] for r in base],
                     [r["metrics"][name]["value"] for r in new]) for name in better}
    raw = raw_rates(base), raw_rates(new)
    if all(raw):
        better = dict(better, **{RAW: "higher"})
        values[RAW] = raw
    for name, direction in better.items():
        a, b = values[name]
        won = sum(y < x if direction == "lower" else y > x for x, y in zip(a, b))
        lines.append(f"{name}: base {spread(a)}  new {spread(b)}  "
                     f"new better in {won} of {len(a)} pairs")
    ok = all(r["correct"] and not r["failed"] for r in base + new)
    if not ok:
        lines.append("a run failed its checks or operations")
    return lines, ok


def commit(checkout: str) -> str | None:
    """The checkout's HEAD, with " (dirty)" when it has uncommitted changes;
    None outside a git work tree."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                              text=True)
    head = git("rev-parse", "HEAD")
    if head.returncode:
        return None
    dirty = git("status", "--porcelain").stdout.strip()
    return head.stdout.strip() + (" (dirty)" if dirty else "")


def version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def record(args, base: list[dict], new: list[dict], better: dict[str, str]) -> dict:
    """The JSON object that --record writes."""
    def stats(values):
        q1, med, q3 = quartiles(values)
        return {"median": med, "q1": q1, "q3": q3, "pairs": values}

    sides = {side: {name: stats([r["metrics"][name]["value"] for r in results])
                    for name in better}
             for side, results in (("base", base), ("new", new))}
    raw = {side: raw_rates(results) for side, results in (("base", base), ("new", new))}
    return {
        "workload": args.workload,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "seconds": args.seconds,
        "commits": {"base": commit(args.base), "new": commit(args.new)},
        "environment": {
            "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
            "python": platform.python_version(),
            "numpy": version("numpy"),
            "scipy": version("scipy"),
            "cpu": cpu_model(),
        },
        "metrics": sides,
        RAW: ({side: stats(rates) for side, rates in raw.items()}
              if all(raw.values()) else None),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base")
    p.add_argument("new")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--record", metavar="PATH", help="also write the pairs as JSON")
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
    if args.record:
        with open(args.record, "w") as fh:
            json.dump(record(args, base, new, better), fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
