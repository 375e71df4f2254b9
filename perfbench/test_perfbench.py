"""Tests of the benchmark's own code at tiny sizes.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from forestbound.curve import BoundCurve
from spans import Span, Tracer

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_ANALYSIS = workloads.Workload(
    "tiny-analysis", height=4, atom_size=4, min_ops=4, naive_check=True
)
TINY_POSTHOC = workloads.Workload(
    "tiny-posthoc", height=4, atom_size=8, min_ops=3, queries=9
)
TINY = [TINY_ANALYSIS, TINY_POSTHOC]


@pytest.mark.parametrize("spec", TINY, ids=lambda s: s.name)
@pytest.mark.parametrize("trace,key", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_printed_with_its_unit(capsys, tmp_path, spec, trace, key):
    result = run.execute(spec, 3, 0.0, trace, import_s=0.0, trace_dir=tmp_path)
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1]) == result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCH[key]}
    printed = {n: m["unit"] for n, m in result["metrics"].items()}
    assert printed == declared
    for name, unit in declared.items():
        assert any(
            ln.startswith(f"metric {name} ") and ln.endswith(f" {unit}")
            for ln in lines
        ), name
    assert "metric error_rate 0 ratio" in lines
    assert (tmp_path / f"{spec.name}-seed3.jsonl").exists() == trace


@pytest.mark.parametrize("spec", TINY, ids=lambda s: s.name)
def test_digest_repeats_for_a_seed(spec):
    first = workloads.run_workload(spec, 5, 0.0, False).tally.digest
    traced = workloads.run_workload(spec, 5, 0.0, True).tally.digest
    other = workloads.run_workload(spec, 6, 0.0, False).tally.digest
    assert first == traced != other


def test_tampered_curve_counts_as_failure(monkeypatch, capsys):
    real = workloads.fast_curve

    def off_by_one(family, path):
        values = real(family, path).values
        return BoundCurve(values[:-1] + (values[-1] + 1,))

    monkeypatch.setattr(workloads, "fast_curve", off_by_one)
    result = run.execute(TINY_ANALYSIS, 3, 0.0, False, import_s=0.0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert "metric error_rate 1 ratio" in capsys.readouterr().out


def test_tampered_vstar_counts_as_failure(monkeypatch):
    real = workloads.vstar
    monkeypatch.setattr(workloads, "vstar", lambda f, s: real(f, s) + 1)
    tally = workloads.run_workload(TINY_POSTHOC, 3, 0.0, False).tally
    assert 0 < tally.failed < tally.attempted


def test_raised_error_counts_as_failure(monkeypatch):
    def broken(path, curve):
        raise ValueError("broken")

    monkeypatch.setattr(workloads, "dump_curve_csv", broken)
    result = workloads.run_workload(TINY_ANALYSIS, 3, 0.0, False)
    assert result.tally.failed == result.tally.attempted > 0
    assert not result.ops


def test_self_time_excludes_children_and_beside_calls():
    tr = Tracer()
    tr.spans = [
        Span("analysis", "a", None, 0.0, 10.0),
        Span("zeta.zeta_dkwm", "a", 0, 1.0, 4.0),
        Span("curve.fast_curve", "a", 0, 4.0, 9.0),
        Span("zeta.apply_zetas", "a", 0, 10.0, 12.0, beside=True),
    ]
    selfs = tr.self_times()
    assert selfs["bench"] == pytest.approx(2.0)
    assert selfs["zeta"] == pytest.approx(3.0)
    assert selfs["curve"] == pytest.approx(5.0)
    assert selfs["formats"] == 0.0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replicates-512",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
