"""The three workloads: one generated scenario each, run through all three commands.

Every workload runs ``simulate``, ``attack-sweep --workers 1`` and
``optics-verify`` on one scenario file, because every end-to-end metric is
reported on every workload.  The scenario sizes decide which layers carry
the work; README.md gives the reasons and the measured shares.  The seed is
the only input that varies, and it reaches the program only as the
scenario's ``seed`` field.
"""
from __future__ import annotations

COMMANDS = ("simulate", "attack-sweep", "optics-verify")

#: The ``sim-*`` workloads run 2e5 slots, a three-point sweep (low,
#: crossover and saturated points of the default grid) at the minimum of 100
#: trials, and 2 x 4 + 2 = 10 oracle spectra.  A repeat then lasts about a
#: second, most of it in ``simulate``, and a run holds a couple of dozen.
_SIM = {
    "simulate": {"num_slots": 200_000},
    "attack_sweep": {"alpha_sq_over_m_grid": [0.0625, 2.0, 64.0], "trials": 100},
    "optics_verify": {"sweep_points": 4, "cross_sweep_points": 2},
}

WORKLOADS = {
    "sim-ideal": _SIM,
    "sim-longhaul": {**_SIM, "channel": {"length_km": 100.0, "dark_count_prob": 1e-5}},
    # The default scenario: 1e4 slots, 11 grid points x 1000 trials (M=64)
    # and 2 x 32 + 16 = 80 oracle spectra at 16384 samples.
    "analysis": {},
}


def scenario(workload: str, seed: int) -> dict:
    """The scenario document of ``workload`` for ``seed``."""
    return {"schema_version": 1, "seed": seed, **WORKLOADS[workload]}


def command_argv(command: str, scenario_path: str, out_path: str) -> list[str]:
    argv = [command, "--scenario", scenario_path, "--out", out_path]
    if command == "attack-sweep":
        argv += ["--workers", "1"]
    return argv
