"""Benchmark artifacts keep the axes other scripts merge into them."""

from __future__ import annotations

import json

from benchmarks.bench_pattern_sweep import main as sweep_main


def test_pattern_sweep_keeps_warm_restart_axis(tmp_path):
    path = tmp_path / "BENCH_sweep.json"
    warm_restart = {"gate": {"smoke_min_speedup": 2.0}, "rows": [{"workload": "ex310"}]}
    path.write_text(json.dumps({"benchmark": "pattern-sweep", "warm_restart": warm_restart}))
    sweep_main(["--smoke", "--json", str(path)])
    report = json.loads(path.read_text())
    assert report["warm_restart"] == warm_restart
    assert [row["workload"] for row in report["rows"]] == ["ex310", "wide", "wide4"]


def test_core_digest_flags_sizes_off_the_closed_form():
    from benchmarks.core_digest import wrong_sizes

    row = {"shape": "intro-star", "n": 5, "solution_facts": 25, "core_facts": 5}
    assert wrong_sizes([row]) == []
    [line] = wrong_sizes([row, {**row, "core_facts": 10}])
    assert line == "intro-star n=5: (solution, core) facts (25, 10), expected (25, 5)"
