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
