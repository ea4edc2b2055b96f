import importlib.util
import json
import os
import subprocess

import pytest

PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"setup_s": "lower", "peak_rss_mb": "lower", "images_per_s": "higher"}


def result_line(rate, peak=380.0, setup=0.1, correct=True, failed=0):
    """One run's last stdout line, as perfbench/run.py prints it."""
    metrics = {"setup_s": {"value": setup, "unit": "s"},
               "peak_rss_mb": {"value": peak, "unit": "MB"},
               "images_per_s": {"value": rate, "unit": "1/s"}}
    return json.dumps({"correct": correct, "attempted": 2000 * 5, "failed": failed,
                       "metrics": metrics})


def results(*lines):
    return [json.loads(line) for line in lines]


class TestSummary:
    def test_spread_and_pairs_won(self):
        base = results(*(result_line(r, peak=444.0) for r in (1400, 1500, 1450, 1480, 1420)))
        new = results(*(result_line(r) for r in (1800, 1450, 1900, 1850, 1700)))
        lines, ok = bench_pairs.summarize(base, new, BETTER)
        assert ok
        assert lines == [
            "setup_s: base 0.1 [0.1, 0.1]  new 0.1 [0.1, 0.1]  new better in 0 of 5 pairs",
            "peak_rss_mb: base 444 [444, 444]  new 380 [380, 380]  new better in 5 of 5 pairs",
            "images_per_s: base 1450 [1420, 1480]  new 1800 [1700, 1850]  "
            "new better in 4 of 5 pairs",
        ]

    def test_one_pair(self):
        lines, ok = bench_pairs.summarize(results(result_line(10.0)),
                                          results(result_line(9.0)), BETTER)
        assert ok and lines[2].endswith("base 10 [10, 10]  new 9 [9, 9]  "
                                        "new better in 0 of 1 pairs")

    @pytest.mark.parametrize("bad", [dict(correct=False), dict(failed=3)])
    def test_a_failed_run_fails_the_summary(self, bad):
        base = results(result_line(1.0), result_line(1.0))
        new = results(result_line(2.0), result_line(2.0, **bad))
        lines, ok = bench_pairs.summarize(base, new, BETTER)
        assert not ok
        assert lines[-1] == "a run failed its checks or operations"


def test_pairs_alternate_and_step_the_seed(monkeypatch, capsys):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout, seed))
        return json.loads(result_line(2.0 if checkout == "new" else 1.0,
                                      correct=checkout != "new" or seed < 43))

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    args = ["base", "new", "--workload", "eval-frozen", "--seed", "41", "--seconds", "1"]
    assert bench_pairs.main(args + ["--pairs", "2"]) == 0
    assert calls == [("base", 41), ("new", 41), ("new", 42), ("base", 42)]
    assert "new better in 2 of 2 pairs" in capsys.readouterr().out
    assert bench_pairs.main(args + ["--pairs", "3"]) == 1


@pytest.mark.parametrize("stdout", ["", "Traceback (most recent call last):\n  oops\n",
                                    "[1, 2]\n"], ids=["empty", "not_json", "not_an_object"])
def test_a_run_without_a_result_line_names_its_checkout(monkeypatch, stdout):
    def fake_run(args, **kwargs):
        return subprocess.CompletedProcess(args, 3, stdout=stdout, stderr="it broke")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.run_once("base-checkout", "train-desk", 1, 1.0)
    assert exc.value.code == "base-checkout: no result (exit 3)\nit broke"


def test_record_round_trips_and_names_its_environment(monkeypatch, tmp_path):
    rates = iter([1.0, 2.0, 2.5, 1.5, 1.2, 2.2])  # base, new; new, base; base, new

    def fake_run(args, cwd=None, **kwargs):
        if args[0] == "git":
            out = {"rev-parse": f"{cwd}-sha\n",
                   "status": " M src/x.py\n" if cwd == "new" else ""}[args[1]]
            return subprocess.CompletedProcess(args, 0, stdout=out, stderr="")
        return subprocess.CompletedProcess(args, 0, stdout="log\n" + result_line(next(rates)),
                                           stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    path = tmp_path / "BENCH_x.json"
    assert bench_pairs.main(["base", "new", "--workload", "ingest-png", "--pairs", "3",
                             "--seed", "7", "--seconds", "2", "--record", str(path)]) == 0
    with open(path) as fh:
        rec = json.load(fh)
    assert (rec["workload"], rec["seeds"], rec["seconds"]) == ("ingest-png", [7, 8, 9], 2.0)
    assert rec["commits"] == {"base": "base-sha", "new": "new-sha (dirty)"}
    env = rec["environment"]
    assert env["blas_threads"]["OMP_NUM_THREADS"] == "1"
    assert set(env["blas_threads"]) == set(bench_pairs.BLAS_ENV)
    assert env["python"].count(".") == 2
    assert all(env[key] for key in ("numpy", "scipy", "cpu"))
    rate = rec["metrics"]["new"]["images_per_s"]
    assert rate == {"median": 2.2, "q1": 2.1, "q3": 2.35, "pairs": [2.0, 2.5, 2.2]}
    assert rec["metrics"]["base"]["images_per_s"]["pairs"] == [1.0, 1.5, 1.2]
    assert set(rec["metrics"]["base"]) == {"setup_s", "peak_rss_mb", "images_per_s"}


def stderr_line(rescaled, raw):
    """perfbench/run.py's stderr summary of one run."""
    return (f"eval-frozen seed 3: 41 rounds; images/s {rescaled:.2f} rescaled, "
            f"{raw:.2f} raw; setup_s 0.0106 rescaled, 0.0104 raw\n")


def test_raw_rate_reads_the_stderr_line():
    assert bench_pairs.raw_rate("generating\n" + stderr_line(2890.123, 2228.5)) == 2228.5
    assert bench_pairs.raw_rate("round 3 failed: it broke\n") is None


def test_raw_images_per_s_are_summarized_and_recorded(monkeypatch, tmp_path, capsys):
    # (rescaled, raw) per run in run order: base, new; new, base
    rates = iter([(1800.0, 1700.0), (2900.0, 2200.0), (2800.0, 2300.0), (1900.0, 1750.0)])

    def fake_run(args, cwd=None, **kwargs):
        if args[0] == "git":
            return subprocess.CompletedProcess(args, 1, stdout="", stderr="")
        rescaled, raw = next(rates)
        return subprocess.CompletedProcess(args, 0, stdout=result_line(rescaled),
                                           stderr=stderr_line(rescaled, raw))

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    path = tmp_path / "BENCH_x.json"
    assert bench_pairs.main(["base", "new", "--workload", "eval-frozen", "--pairs", "2",
                             "--record", str(path)]) == 0
    assert ("raw_images_per_s: base 1725 [1712, 1738]  new 2250 [2225, 2275]  "
            "new better in 2 of 2 pairs") in capsys.readouterr().out
    with open(path) as fh:
        raw = json.load(fh)["raw_images_per_s"]
    assert raw["base"]["pairs"] == [1700.0, 1750.0]
    assert raw["new"] == {"median": 2250.0, "q1": 2225.0, "q3": 2275.0,
                          "pairs": [2200.0, 2300.0]}
