"""Benchmark entry point: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Inputs are generated from --seed in a
child process under .perfbench_work/ (removed afterwards); the program sees
only those files. With --trace 0 the last stdout line is a JSON object with
the end-to-end metrics; with --trace 1 it holds the per-layer metrics, and
the spans go to .perfbench_traces/. Times are rescaled to a reference
machine speed (speed.py); stderr gets the raw figures too. Exit code 0
means every output check passed; a failed check prints the result with
"correct": false and exits 1; a checkout without the program exits 2
without a result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from common import (BENCH_DIR, BLAS_ENV, BLAS_THREADS, ROOT, SIZES,
                    MissingProgram, import_program)

WORK_DIR = os.path.join(ROOT, ".perfbench_work")
TRACE_DIR = os.path.join(ROOT, ".perfbench_traces")
GENERATE_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(SIZES["full"]))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=tuple(SIZES), default="full",
                   help="input sizes; 'small' is the smoke-test scale")
    return p.parse_args(argv)


def generate_inputs(workload: str, seed: int, out: str, scale: str) -> None:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "inputs.py"), workload,
           str(seed), out] + (["--small"] if scale == "small" else [])
    subprocess.run(cmd, check=True, timeout=GENERATE_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)


def measure(rs, workload, seconds: float, trace: bool, tracer) -> dict:
    """Run whole rounds until the timed rounds add up to `seconds` of wall
    time, with the workload's set-ups spread over the run: the machine's
    speed changes in spells of seconds, and set-ups taken back to back
    would all fall in one. In a traced run every other round is traced, so
    both halves see the same machine conditions."""
    from checks import CheckFailure
    from retinassl.errors import RetinaSSLError
    from speed import SpeedProbe

    probe = SpeedProbe()
    scale = {}     # round or set-up -> rescaled / raw time

    def patches(on):
        return tracer.patched(rs) if on else contextlib.nullcontext()

    setups = []    # (raw seconds, rescaled seconds)

    def set_up():
        tracer.round = f"setup{len(setups)}"
        with patches(trace):
            raw, norm = probe.timed(workload.setup)
        setups.append((raw, norm))
        scale[tracer.round] = norm / raw

    rounds = []    # (traced, ops, raw seconds, rescaled seconds)
    failed = 0
    correct = True
    timed = 0.0
    set_up()
    while timed < seconds or (trace and len(rounds) < 2):
        while len(setups) < min(workload.setup_repeats,
                                1 + workload.setup_repeats * timed / seconds):
            set_up()
        traced = trace and len(rounds) % 2 == 1
        tracer.round = len(rounds)
        workload.prepare_round()
        t0 = time.perf_counter()
        try:
            with patches(traced):
                raw, norm = probe.timed(workload.run_round)
        except RetinaSSLError as exc:
            print(f"round {tracer.round} failed: {exc}", file=sys.stderr)
            failed += workload.ops_per_round
            timed += time.perf_counter() - t0
            continue
        timed += raw
        rounds.append((traced, workload.ops_per_round, raw, norm))
        scale[tracer.round] = norm / raw
        try:
            workload.check_round()
        except CheckFailure as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
            break
    while correct and len(setups) < workload.setup_repeats:
        set_up()
    if correct:
        try:
            workload.final_check()
        except CheckFailure as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
    attempted = sum(r[1] for r in rounds) + failed
    return {"setups": setups, "rounds": rounds, "scale": scale,
            "attempted": attempted, "failed": failed, "correct": correct}


def images_per_s(rounds, per_op: int, traced: bool, rescaled: bool = True) -> float:
    """Images per second over all untraced (or all traced) rounds."""
    chosen = [r for r in rounds if r[0] == traced]
    col = 3 if rescaled else 2
    return per_op * sum(r[1] for r in chosen) / sum(r[col] for r in chosen)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    try:
        rs = import_program()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from tracing import METRICS, UNITS, Tracer
    from workloads import WORKLOADS

    os.makedirs(WORK_DIR, exist_ok=True)
    inputs = tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=WORK_DIR)
    try:
        generate_inputs(args.workload, args.seed, inputs, args.scale)
        workload = WORKLOADS[args.workload](rs, inputs, args.seed)
        tracer = Tracer()
        res = measure(rs, workload, args.seconds, bool(args.trace), tracer)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    rounds, per_op = res["rounds"], workload.images_per_op
    setup_s = statistics.median(s[1] for s in res["setups"])
    rate = images_per_s(rounds, per_op, False)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds; images/s "
          f"{rate:.2f} rescaled, {images_per_s(rounds, per_op, False, False):.2f} "
          f"raw; setup_s {setup_s:.4f} rescaled, "
          f"{statistics.median(s[0] for s in res['setups']):.4f} raw",
          file=sys.stderr)

    if args.trace:
        traced = {r: rounds[r][1] for r in range(len(rounds)) if rounds[r][0]}
        overhead = images_per_s(rounds, per_op, True) - rate
        values = tracer.metrics(traced, res["scale"], overhead)
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.write(os.path.join(TRACE_DIR, f"{args.workload}-s{args.seed}.json"),
                     {"workload": args.workload, "seed": args.seed,
                      "rounds": rounds, "setups": res["setups"]})
        metrics = {m: {"value": values[m], "unit": UNITS[m]} for m in METRICS}
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
                   "images_per_s": {"value": rate, "unit": "1/s"}}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
