"""Self-test of the benchmark: run with ``python3 -m pytest bench/tests``.

The smoke form of each workload runs its first op only, so the whole file
takes well under a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    report = run.run_benchmark(workload, seed=1, seconds=0, trace=trace, smoke=True, setups=1)
    result = report["result"]
    want = _units(SPEC["per_layer"] if trace else SPEC["end_to_end"])
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_forced_wrong_expectation_is_a_failure(tmp_path):
    run.setup("theory_lattice", 1, tmp_path, smoke=True)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    (op,) = manifest["ops"]
    result = run.run_pass(tmp_path, 0)
    assert run.evaluate(manifest["ops"], result) == []
    op["expect"]["m"] += 1
    (failure,) = run.evaluate(manifest["ops"], result)
    assert failure["id"] == op["id"] and not failure["known"]


def test_trivial_semigroup_check_is_the_known_failure(tmp_path):
    run.setup("check_small", 1, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    known = [op for op in manifest["ops"] if "known_failure" in op]
    assert [op["input"] for op in known] == [
        op["input"] for op in manifest["ops"] if op["expect"].get("m") == 0
    ]
    assert len(known) == 1
    manifest["ops"] = known
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    (failure,) = run.evaluate(known, run.run_pass(tmp_path, 0))
    assert failure["known"]


def test_random_inputs_depend_only_on_the_seed():
    a = workloads.random_partial_map_closures(7, 20)
    assert a == workloads.random_partial_map_closures(7, 20)
    assert a != workloads.random_partial_map_closures(8, 20)
    assert len({table for _, table in a}) == 20
    assert all(1 <= len(table) <= workloads.CHECK_SMALL_MAX_SIZE for _, table in a)
