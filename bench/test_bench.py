"""Tests of the benchmark itself:  python3 -m pytest bench  (from the repository root)."""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Counts that two traced runs of one seed must reproduce exactly.
EXACT_COUNTS = (
    "polarization.detection_event_objects",
    "protocol.companion_runs",
    "protocol.erasure_indices",
    "attacks.brute_force_identify.calls",
    "optics.sideband_intensities_oracle.calls",
    "reporting.bundle_bytes",
)


def _traced_run(tmp_path: Path, tag: str) -> dict:
    """One fully traced worker run of a small lossy scenario (erasures occur)."""
    scenario = {
        "schema_version": 1,
        "seed": 5,
        "simulate": {"num_slots": 3000},
        "channel": {"length_km": 100.0, "dark_count_prob": 1e-5},
        "attack_sweep": {"alpha_sq_over_m_grid": [2.0], "trials": 100, "pns_mc_trials": 1000},
        "optics_verify": {"sweep_points": 4, "cross_sweep_points": 2, "num_samples": 2048},
    }
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    argvs = [
        ["simulate", "--scenario", str(scenario_path), "--out", str(tmp_path / f"sim-{tag}.json")],
        ["attack-sweep", "--scenario", str(scenario_path), "--out", str(tmp_path / f"sweep-{tag}.json"),
         "--workers", "1"],
        ["optics-verify", "--scenario", str(scenario_path), "--out", str(tmp_path / f"verify-{tag}.json")],
    ]
    job = {"commands": argvs, "trace": "full", "result": str(tmp_path / f"result-{tag}.json"), "spans": None}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")], input=json.dumps(job) + "\n",
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "done\n"
    return json.loads(Path(job["result"]).read_text())


def test_counts_repeat_exactly_across_traced_runs(tmp_path):
    first, second = _traced_run(tmp_path, "a"), _traced_run(tmp_path, "b")
    assert [c["exit_code"] for c in first["commands"]] == [0, 0, 0]
    for name in EXACT_COUNTS:
        assert first["layers"][name] > 0, name
        assert first["layers"][name] == second["layers"][name], name
    assert first["layers"]["protocol.companion_runs"] == 3


def test_self_times_subtract_direct_children_only():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; second child [5, 9]
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["reporting.simulate_results", 1.0, 4.0, 0, None],
        ["protocol.run_session", 2.0, 3.0, 1, None],
        ["reporting.write_bundle", 5.0, 9.0, 0, None],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(tracing.self_times(spans)) == 10.0
    assert tracing.aggregate(spans)["cli.main"] == {"calls": 1, "busy_s": 10.0, "self_s": 3.0}
    assert tracing.nearest_ancestor(spans, 2, "cli.main") == 0


def test_strict_json_rejects_non_finite(tmp_path):
    path = tmp_path / "bundle.json"
    path.write_text('{"data": {"x": NaN}, "meta": {}}')
    with pytest.raises(ValueError):
        checks.load_strict(path)


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analysis", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_timings_scale_to_the_reference_speed():
    ref = run.calibrate.REFERENCE_S
    assert run.scaled({"s": 2.0, "cal_s": 2 * ref}) == pytest.approx(1.0)
    repeat = {"commands": [{"wall_s": 1.0, "cal_s": ref}, {"wall_s": 1.0, "cal_s": 2 * ref}]}
    assert run.command_seconds(repeat) == pytest.approx(1.5)
