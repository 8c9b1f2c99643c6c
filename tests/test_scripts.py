"""The experiment scripts stay runnable."""
import pathlib
import subprocess
import sys

import pytest

from hpqkd import scenario
from hpqkd.reporting import optics_verify_results

SCRIPTS = sorted((pathlib.Path(__file__).parent.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_runs(script):
    result = subprocess.run(
        [sys.executable, str(script), "--help"], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert "usage" in result.stdout.lower()


def test_fringe_scan_small_run():
    # The script prints the channel-1 rows and the prefactor of the matching
    # optics-verify results.
    script = SCRIPTS[[s.name for s in SCRIPTS].index("fringe_scan.py")]
    result = subprocess.run(
        [sys.executable, str(script), "--points", "4"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    resolved = scenario.resolve({"schema_version": 1, "optics_verify": {"sweep_points": 4}})
    results, _ = optics_verify_results(resolved)
    expected = results["fringe_sweeps"]["channel1"]["rows"]
    lines = result.stdout.splitlines()
    printed = [[float(value) for value in line.split()] for line in lines[1 : 1 + len(expected)]]
    keys = ("delta_phi", "closed_upper", "oracle_upper", "closed_lower", "oracle_lower")
    assert printed == [pytest.approx([row[key] for key in keys], rel=1e-4, abs=1e-30) for row in expected]
    prefactor = results["prefactor"]
    assert f"fitted A = {prefactor['fitted_amplitude']:.6e}" in result.stdout
    assert lines[-1] == f"confirmed: {prefactor['confirmed']}" == "confirmed: e0^2*m1^2/8"


def test_attack_crossover_small_run():
    script = SCRIPTS[[s.name for s in SCRIPTS].index("attack_crossover.py")]
    result = subprocess.run(
        [sys.executable, str(script), "--m-bases", "4", "--trials", "100", "--ratios", "1", "64"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()[1:] if line.strip()]
    assert [(row[0], float(row[1])) for row in rows] == [("4", 1.0), ("4", 64.0)]


def test_rate_multipliers_small_run():
    script = SCRIPTS[[s.name for s in SCRIPTS].index("rate_multipliers.py")]
    result = subprocess.run(
        [sys.executable, str(script), "--slots", "2000", "--lengths-km", "0", "1000"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()[1:] if line.strip()]
    modes = ["baseline_bb84", "hybrid", "parallel", "hybrid_parallel"]
    assert [(row[0], row[1]) for row in rows] == [(length, mode) for length in ("0.0", "1000.0") for mode in modes]
    # Both ratios, per usable slot and per sent slot, of the lossless baseline are 1.
    assert rows[0][-2:] == ["1.000", "1.000"]
    # No photon survives 1000 km, so every ratio is undefined, never nan.
    assert [row[-2:] for row in rows[4:]] == [["n/a", "n/a"]] * 4
