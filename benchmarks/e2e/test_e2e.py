"""Tests of the end-to-end benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import checkout

checkout.require_program()

import ops  # noqa: E402
import trace as tracing  # noqa: E402

RUN = checkout.ROOT / "benchmarks" / "e2e" / "run.py"
SPEC = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())

_LIST_OPS = (
    "import json, dataclasses, sys; sys.path.insert(0, 'benchmarks/e2e');"
    "import checkout; checkout.require_program(); import ops;"
    "print(json.dumps([dataclasses.asdict(op) for w in ops.WORKLOADS"
    " for op in ops.deck(w, {seed}, 0)]))"
)


def _op_list(seed: int, hash_seed: str) -> str:
    """The first deck of every workload, serialized in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, "-c", _LIST_OPS.format(seed=seed)], cwd=checkout.ROOT,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed),
        capture_output=True, text=True, check=True,
    )
    return completed.stdout


def test_operation_list_is_a_pure_function_of_the_seed():
    first = _op_list(7, "1")
    assert _op_list(7, "2") == first
    assert _op_list(8, "1") != first


def test_decks_keep_their_mix_across_seeds():
    for workload in ("decide-mix", "exchange-core", "fblock-core"):
        mixes = [sorted((op.shape, op.n) for op in ops.deck(workload, seed, 0))
                 for seed in (0, 1)]
        assert mixes[0] == mixes[1]


def test_expected_sizes_match_the_paper_figures():
    assert ops.expected_sizes("shop-flat", 5000) == (30_000, 25_000)
    assert ops.expected_sizes("university-flat", 5000)[1] == 12
    assert ops.expected_sizes("hospital-flat", 2500)[1] == 9_998


def test_boundary_table_resolves_and_uninstalls():
    resolved = tracing.Tracer.resolve()
    assert len(resolved) == len(tracing.BOUNDARIES)
    originals = [(owner, name, getattr(owner, name)) for owner, name, *__ in resolved]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, name) is not original for owner, name, original in originals)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, name) is original for owner, name, original in originals)


def test_a_renamed_boundary_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracing, "BOUNDARIES",
                        tracing.BOUNDARIES + (("repro.engine.core_instance", "gone", "x", None),))
    with pytest.raises(tracing.BoundaryError, match="core_instance.gone"):
        tracing.Tracer.resolve()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=checkout.ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in section
    }


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(checkout.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(checkout.ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "decide-mix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "{" not in completed.stdout
