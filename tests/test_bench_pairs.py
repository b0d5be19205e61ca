"""scripts/bench_pairs.py, loaded by path since scripts/ is not a package: its summary on
fixed numbers, and its pair loop on canned `run.py` results. No benchmark runs here."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

THROUGHPUT = bench_pairs.Metric("images_per_kref", "higher", 0.25)
RSS = bench_pairs.Metric("peak_rss_mb", "lower", 0.05)
PARENT = [1580.0, 1600.0, 1590.0, 1610.0, 1570.0, 1605.0, 1595.0, 1585.0, 1600.0, 1590.0]


def test_reads_the_end_to_end_metrics():
    assert bench_pairs.end_to_end_metrics() == [THROUGHPUT, RSS,
                                                bench_pairs.Metric("setup_s", "lower", 0.25)]


def test_quartiles_interpolate():
    assert bench_pairs.quartiles([float(v) for v in range(1, 11)]) == (3.25, 5.5, 7.75)
    assert bench_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_gain_holds_on_ten_wins_clear_of_the_spread():
    s = bench_pairs.summarize(THROUGHPUT, PARENT, [v + 70.0 for v in PARENT])
    assert (s.wins, s.losses, s.pairs) == (10, 0, 10)
    assert s.parent == (1586.25, 1592.5, 1600.0) and s.change[1] == 1662.5
    assert s.gain_holds and not s.worse_than_bound


def test_nine_wins_hold_and_eight_do_not():
    nine = [v + 70.0 for v in PARENT[:9]] + [PARENT[9] - 1.0]
    assert bench_pairs.summarize(THROUGHPUT, PARENT, nine).gain_holds
    eight = [v + 70.0 for v in PARENT[:8]] + [v - 1.0 for v in PARENT[8:]]
    s = bench_pairs.summarize(THROUGHPUT, PARENT, eight)
    assert (s.wins, s.losses) == (8, 2) and not s.gain_holds


def test_ties_count_for_neither_side():
    change = PARENT[:9] + [PARENT[9] + 70.0]
    s = bench_pairs.summarize(THROUGHPUT, PARENT, change)
    assert (s.wins, s.losses) == (1, 0) and not s.gain_holds


def test_a_gap_inside_the_parent_spread_is_no_gain():
    s = bench_pairs.summarize(THROUGHPUT, PARENT, [v + 10.0 for v in PARENT])
    assert s.wins == 10 and s.parent[2] - s.parent[0] == 13.75
    assert not s.gain_holds


def test_lower_is_better():
    parent = [45.5, 45.4, 45.6, 45.5, 45.5]
    s = bench_pairs.summarize(RSS, parent, [v - 0.5 for v in parent])
    assert (s.wins, s.losses) == (5, 0) and s.gain_holds
    assert bench_pairs.summarize(RSS, parent, [v * 1.06 for v in parent]).worse_than_bound
    assert not bench_pairs.summarize(RSS, parent, [v * 1.04 for v in parent]).worse_than_bound


def test_worse_than_bound():
    assert bench_pairs.summarize(THROUGHPUT, PARENT, [v * 0.7 for v in PARENT]).worse_than_bound
    s = bench_pairs.summarize(THROUGHPUT, PARENT, [v * 0.8 for v in PARENT])
    assert s.losses == 10 and not s.worse_than_bound


def test_summary_line():
    change = [v + 70.0 for v in PARENT[:9]] + [PARENT[9]]
    line = bench_pairs.format_summary(THROUGHPUT, bench_pairs.summarize(THROUGHPUT, PARENT,
                                                                        change))
    assert line == ("images_per_kref (higher is better): parent 1592.5 (quartiles "
                    "1586.25-1600), change 1662.5 (quartiles 1651.25-1670), median gap +70 "
                    "+4.40 %, parent spread 13.75; change won 9 of 10 (0 lost, 1 tied): "
                    "gain holds")


def test_unequal_sides_rejected():
    with pytest.raises(ValueError):
        bench_pairs.summarize(THROUGHPUT, PARENT, PARENT[:9])


def canned_runs(monkeypatch, correct=True):
    """`subprocess.run` answering each `run.py` call with a result, the change's 10 %
    faster. Returns the names of the checkouts run, in order."""
    calls = []

    def run(cmd, capture_output, text, cwd):
        calls.append(Path(cwd).name)
        value = 1100.0 if calls[-1] == "change" else 1000.0
        metrics = {"images_per_kref": {"value": value, "unit": "1/kref"},
                   "peak_rss_mb": {"value": 45.0, "unit": "MB"},
                   "setup_s": {"value": 0.3, "unit": "s"}}
        result = {"correct": correct, "attempted": 5, "failed": 0 if correct else 1,
                  "metrics": metrics}
        return subprocess.CompletedProcess(cmd, 0, "machine: ...\n" + json.dumps(result), "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    return calls


def test_pairs_alternate_and_sum_up(monkeypatch, capsys, tmp_path):
    calls = canned_runs(monkeypatch)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "ablation",
            "--pairs", "3"]
    assert bench_pairs.main(argv) == 0
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    out = capsys.readouterr().out
    assert "pair 2 (change first): images_per_kref 1000 -> 1100" in out
    assert "change won 3 of 3 (0 lost, 0 tied): gain holds" in out
    assert "peak_rss_mb (lower is better)" in out and "won 0 of 3 (0 lost, 3 tied)" in out


def test_incorrect_run_exits_1(monkeypatch, tmp_path):
    canned_runs(monkeypatch, correct=False)
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                          "--workload", "dense"])
    assert exit_info.value.code == 1
