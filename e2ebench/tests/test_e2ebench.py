"""Tests of the end-to-end benchmark itself (not of the repro package).

Run from the repository root::

    python3 -m pytest e2ebench/tests -q

The end-to-end tests drive real workloads with a one-second measuring
window (four timed runs each), so the module takes about a minute.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import run  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join("e2ebench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced() -> dict:
    return _bench("suite-warm", 0)


@pytest.fixture(scope="module")
def traced() -> dict:
    return _bench("suite-warm", 1)


def _reference_cells(reference: dict, *, stalls: bool) -> list[dict]:
    cells = []
    for cid, want in reference["cells"].items():
        benchmark, machine = cid.split("@")
        cell = {"benchmark": benchmark, "machine": machine, "status": "ok",
                "checksum_ok": True,
                **{f: want[f] for f in check.CYCLE_FIELDS}}
        if stalls:
            cell["stalls"] = dict(want["stalls"])
        cells.append(cell)
    return cells


def test_every_end_to_end_metric_is_emitted_with_its_unit(untraced):
    want = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    got = {name: m["unit"] for name, m in untraced["metrics"].items()}
    assert got == want
    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["attempted"] >= run.MIN_SAMPLES * 56


def test_every_per_layer_metric_is_emitted_with_its_unit(traced):
    want = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    got = {name: m["unit"] for name, m in traced["metrics"].items()}
    assert got == want


def test_traced_run_reports_untraced_share_and_overhead(traced):
    metrics = traced["metrics"]
    assert 0.0 <= metrics["traced.untraced_share"]["value"] < 0.5
    assert metrics["traced.overhead_share"]["value"] > -0.5
    assert traced["correct"]


def test_reference_cells_pass_and_a_tampered_cell_fails():
    reference = check.load_reference()
    cells = _reference_cells(reference, stalls=True)
    assert check.check_cells(reference, cells, stalls=True) == []

    tampered = copy.deepcopy(reference)
    tampered["cells"]["whet@superscalar-4"]["minor_cycles"] += 1
    failures = check.check_cells(tampered, cells, stalls=True)
    assert len(failures) == 1 and "whet@superscalar-4" in failures[0]

    tampered = copy.deepcopy(reference)
    tampered["cells"]["yacc@cray1-w1"]["stalls"]["raw_dep"] += 1
    assert len(check.check_cells(tampered, cells, stalls=True)) == 1
    assert check.check_cells(tampered, cells, stalls=False) == []


def test_missing_failed_and_crashed_cells_count_as_failures():
    reference = check.load_reference()
    cells = _reference_cells(reference, stalls=False)
    n_cells = len(reference["cells"])
    assert len(check.check_cells(reference, cells[1:], stalls=False)) == 1
    cells[0]["status"] = "failed"
    cells[1]["checksum_ok"] = False
    assert len(check.check_cells(reference, cells, stalls=False)) == 2
    assert len(check.check_cells(reference, None, stalls=False)) == n_cells


def test_tampered_reference_makes_cell_error_rate_nonzero():
    reference = copy.deepcopy(check.load_reference())
    reference["cells"]["linpack@base"]["base_cycles"] += 1.0
    doc = run.measure(run.WORKLOADS["suite-warm"], seed=3, seconds=0.0,
                      trace=False, reference=reference,
                      start=run.time.monotonic())
    n_runs = len(doc["samples"])
    assert n_runs >= run.MIN_SAMPLES
    assert doc["failed"] == n_runs
    line = json.loads(run._result_line(doc))
    assert line["correct"] is False
    assert line["failed"] / line["attempted"] == pytest.approx(1 / 56)


def test_children_never_inherit_fault_injection(monkeypatch):
    for name in run.SCRUBBED:
        monkeypatch.setenv(name, "crash@whet#1")
    env = run.child_env()
    assert not set(run.SCRUBBED) & set(env)
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert env["PYTHONPYCACHEPREFIX"] == run.PYCACHE


def test_refuses_to_run_without_the_program(tmp_path):
    # The benchmark and its declaration, without the program it measures.
    shutil.copytree(BENCH, tmp_path / "e2ebench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "suite-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
