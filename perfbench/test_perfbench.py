"""Tests of the benchmark itself, at the tiny scale.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent


def tiny(workload, seed, tmp_path):
    ctx = workloads.Context(seed, 0.2, workloads.TINY, tmp_path / f"{workload}-{seed}")
    try:
        return workloads.RUNNERS[workload](ctx)
    finally:
        workloads.api.stop_pools()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_and_passes_its_checks(workload, tmp_path):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.4", "--trace", "0", "--scale", "tiny",
         "--work-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = {line.split()[2]: line.split()[4] for line in lines if line.startswith("metric ")}
    names = run.ROLE_NAMES[workload]
    for name, unit in run.END_TO_END.items():
        assert printed[names.get(name, name)] == unit
    assert any(line.startswith(f"digest {workload} answers ") for line in lines)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_and_answers(workload, tmp_path):
    first = tiny(workload, 5, tmp_path / "a")
    second = tiny(workload, 5, tmp_path / "b")
    other = tiny(workload, 6, tmp_path / "c")
    assert first.inputs_digest == second.inputs_digest
    assert first.answers_digest == second.answers_digest
    assert first.metrics["range_mae"] == second.metrics["range_mae"]
    assert first.extras.get("slo_ok_ratio") == second.extras.get("slo_ok_ratio")
    assert other.inputs_digest != first.inputs_digest
    assert not first.failures and not second.failures and not other.failures


def test_scored_reports_an_slo_ratio(tmp_path):
    outcome = tiny("scored", 7, tmp_path)
    assert 0.0 <= outcome.extras["slo_ok_ratio"][0] <= 1.0


#: A span each workload's traced run must record, beside its self-check.
TRACED_SPAN = {
    "serve": "sharding.router.answer",
    "refresh": "sharding.lineage.append",
    "scored": "serving.engine.score_batch_accuracy",
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_and_passes_its_self_check(workload, tmp_path):
    args = run.parse_args(["--workload", workload, "--seed", "4", "--seconds", "0.2",
                           "--trace", "1", "--scale", "tiny", "--work-dir", str(tmp_path)])
    result = run.run(args)
    assert result["correct"], result
    units = run.import_program()[1].metric_units()
    assert set(result["metrics"]) == set(units)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values[f"{TRACED_SPAN[workload]}.calls"] > 0
    assert 0.0 <= values["unattributed.share"] < 1.0
    if workload == "refresh":
        assert values["serving.store.artifact_bytes_per_epoch"] > 0
    else:
        # The traced serving phase is count-boxed: the same submits on
        # every commit, however fast it runs.
        assert values["serving.fleet.submit.calls"] >= workloads.TINY.traced_steps
        assert run.run(args)["metrics"]["serving.fleet.submit.calls"]["value"] == (
            values["serving.fleet.submit.calls"]
        )


def test_traced_run_fails_on_a_missing_span(tmp_path, monkeypatch):
    # A span expected on refresh that never runs (as after a rename) trips
    # the self-check.
    args = run.parse_args(["--workload", "refresh", "--seed", "4", "--seconds", "0.2",
                           "--trace", "1", "--scale", "tiny", "--work-dir", str(tmp_path)])
    import fleet_api

    ghost = fleet_api.Target("streaming.buffer.add_counts",
                             fleet_api.repro.streaming.buffer.IngestBuffer,
                             "add_counts", frozenset({"refresh"}))
    monkeypatch.setattr(fleet_api, "TRACE_TARGETS", (*fleet_api.TRACE_TARGETS, ghost))
    result = run.run(args)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_missing_program_source_exits_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    completed = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_reaping_leaves_no_child_process_behind(tmp_path):
    script = tmp_path / "spawn_pool.py"
    script.write_text(
        "import sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from multiprocessing import get_context, resource_tracker\n"
        "import measure\n"
        "if __name__ == '__main__':\n"
        "    with ProcessPoolExecutor(1, mp_context=get_context('spawn')) as pool:\n"
        "        pool.submit(int).result()\n"
        "    started = resource_tracker._resource_tracker._pid is not None\n"
        "    measure.reap_children()\n"
        "    print(started, measure._child_pids())\n"
    )
    completed = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=60
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["True", "[]"]


def test_benchmark_json_lists_exactly_the_reported_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    layers = run.import_program()[1]
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.metric_units()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
