"""Tests of the benchmark itself, on seconds-long shrunken workloads.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, reference  # noqa: E402
from perfbench.run import hash_seed  # noqa: E402
from perfbench.tracing import Tracer, entry_points  # noqa: E402
from perfbench.workloads import WORKLOADS, Inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _scratch_dirs(tmp_path, monkeypatch):
    """Keep the reference cache and SQLite files of test runs out of the tree."""
    monkeypatch.setattr(reference, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(harness, "WORK_DIR", tmp_path / "work")


def _tiny(workload: str, trace: bool, seed: int = 5, tamper=None):
    return harness.run(workload, seed, 1.0, trace, tiny=True, tamper=tamper)


def test_spec_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == [
        name for name in WORKLOADS if name not in ("dblp_steady", "dblp_churn")
    ]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, diagnostics = _tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], diagnostics["check"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = harness.PER_LAYER_UNITS if trace else harness.END_TO_END_UNITS
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], float) and metric["value"] >= 0, name
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert diagnostics["samples" if not trace else "trace"]


def _deliveries_exist(workload: str) -> None:
    _, diagnostics = _tiny(workload, False)
    assert diagnostics["check"]["deliveries"] > 0


@pytest.mark.parametrize("workload", ["dblp_steady", "dblp_churn"])
def test_gate_fails_when_a_delivery_is_dropped(workload):
    _deliveries_exist(workload)
    result, diagnostics = _tiny(workload, False, tamper=lambda d: d[1:])
    assert not result["correct"]
    assert diagnostics["check"]["first_mismatch_document"] is not None


def test_gate_fails_when_a_delivery_is_altered():
    def alter(deliveries):
        sid, lhs_ts, rhs_ts = deliveries[0]
        return [(sid, lhs_ts - 1.0, rhs_ts)] + deliveries[1:]

    result, _ = _tiny("dblp_steady", False, tamper=alter)
    assert not result["correct"]


def test_gate_fails_when_a_delivery_goes_to_another_subscriber():
    def redirect(deliveries):
        sid, lhs_ts, rhs_ts = deliveries[0]
        return [(sid + "x", lhs_ts, rhs_ts)] + deliveries[1:]

    result, _ = _tiny("dblp_steady", False, tamper=redirect)
    assert not result["correct"]


def test_inputs_extend_deterministically():
    workload = WORKLOADS["dblp_churn"].tiny()
    whole = Inputs(workload, 3, 1.0)
    whole.extend(50)
    pieces = Inputs(workload, 3, 1.0)
    for _ in range(5):
        pieces.extend(10)
    assert pieces.documents == whole.documents
    assert pieces.churn == whole.churn
    assert len(whole.churn) == len(whole.documents) - whole.warmup


def test_reference_cache_covers_shorter_prefixes():
    inputs = Inputs(WORKLOADS["dblp_churn"].tiny(), 3, 1.0)
    published = len(inputs.documents) // 2
    digests, cached = reference.reference_digests(inputs, published)
    assert not cached
    assert reference.reference_digests(inputs, published) == (digests, True)
    shorter, cached = reference.reference_digests(inputs, published - 7)
    assert cached and shorter[:-1] == digests[: published - 7]
    assert not reference.reference_digests(inputs, published + 1)[1]


def test_reference_cache_key_covers_the_reference(tmp_path, monkeypatch):
    inputs = Inputs(WORKLOADS["dblp_steady"].tiny(), 3, 1.0)
    key = reference._cache_key(inputs)
    here = Path(reference.__file__)
    copy = tmp_path / here.name
    copy.write_text(here.read_text() + "\n# changed\n")
    shutil.copy(here.with_name("workloads.py"), tmp_path / "workloads.py")
    monkeypatch.setattr(reference, "__file__", str(copy))
    assert reference._cache_key(inputs) != key


@pytest.mark.parametrize("workload", ["dblp_steady", "dblp_burst_sharded"])
def test_worker_private_memory_is_measured(workload):
    _, diagnostics = _tiny(workload, False)
    if workload == "dblp_burst_sharded":
        assert diagnostics["worker_private_mb"] > 0
    else:
        assert diagnostics["worker_private_mb"] == 0


@pytest.mark.parametrize("workload", ["dblp_steady", "dblp_burst_sharded"])
def test_traced_run_restores_every_wrapper(workload):
    before = entry_points()
    _tiny(workload, True)
    assert entry_points() == before


def test_tracer_wraps_and_unwraps():
    before = entry_points()
    tracer = Tracer().install()
    try:
        during = entry_points()
        changed = [key for key in before if during[key] is not before[key]]
        assert len(changed) >= len(before) // 2
    finally:
        tracer.uninstall()
    assert entry_points() == before


def test_traced_layers_account_for_publish_time():
    result, diagnostics = _tiny("dblp_durable", True)
    trace = diagnostics["trace"]
    assert trace["docs"] > 0
    assert trace["attributed_ms"] == pytest.approx(trace["publish_ms"], rel=1e-6)
    metrics = result["metrics"]
    assert metrics["pubsub.broker.publish_ms"]["value"] == pytest.approx(trace["publish_ms"])
    for name in ("storage.sqlite.commit_ms", "xpath.stage1_ms", "relational.plan.execute_ms"):
        assert metrics[name]["value"] > 0, name


def test_cli_pins_the_hash_seed_and_prints_the_result_last(tmp_path):
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dblp_steady", "--seed", "7",
         "--seconds", "1", "--trace", "0", "--tiny"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    diagnostics = json.loads(out[-2])["diagnostics"]
    assert diagnostics["pythonhashseed"] == hash_seed(7)
    assert diagnostics["calibration_start"]["loop_ms"] > 0


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(".*", "__pycache__"))
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dblp_steady", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert run.returncode != 0
    assert run.stdout == ""
