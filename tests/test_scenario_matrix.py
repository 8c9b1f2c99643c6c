"""The scenario matrix, pinned: the benchmark's three workloads at a reduced size.

Each workload runs all three commands through ``cli.main``.  The ``data`` of
the ``simulate`` and ``attack-sweep`` bundles is pinned by its sha256, so a
refactor that claims "the same numbers" is checked mechanically.  The
``optics-verify`` floats come from numpy's vectorized cosines and pairwise
sums, whose last ulp can move between numpy builds and CPUs, so they are
compared with a committed expected file at a relative tolerance instead;
its flags are compared exactly.

Run this file as a script to rewrite the expected file, after a change that
is meant to move the optics numbers.
"""
import hashlib
import json
import math
import pathlib
import sys

import pytest

from hpqkd import cli, reporting
from physics_reference import reference_run_session

#: The 3-point sweep at 100 trials, and 4 fringe points (2 x 4 + 2 spectra).
_REDUCED = {
    "attack_sweep": {"alpha_sq_over_m_grid": [0.0625, 2.0, 64.0], "trials": 100},
    "optics_verify": {"sweep_points": 4, "cross_sweep_points": 2},
}

#: The three workloads at seed 1: 2e4 slots on the ideal and the 100 km
#: link, and the default scenario with its sweep and fringe scan cut down.
WORKLOADS = {
    "sim-ideal": {**_REDUCED, "simulate": {"num_slots": 20_000}},
    "sim-longhaul": {
        **_REDUCED,
        "simulate": {"num_slots": 20_000},
        "channel": {"length_km": 100.0, "dark_count_prob": 1e-5},
    },
    "analysis": {"attack_sweep": {"trials": 100}, "optics_verify": _REDUCED["optics_verify"]},
}

#: sha256 of ``reporting.data_bytes`` per (workload, command): the
#: ``simulate`` data in session stream layout 7 (``protocol.STREAM_LAYOUT``)
#: and the ``attack-sweep`` data in attack stream layout 4
#: (``attacks.STREAM_LAYOUT``).  A change that moves one changes what the
#: command writes: it must bump the layout id of the streams it changed, or
#: rename the changed field, and give the reason in CHANGES.md.
DATA_DIGESTS = {
    ("sim-ideal", "simulate"): "f07b5b8bf7da00990b84a485a44ba3ff50b712144a5cc85f50536b862dd6aaff",
    ("sim-ideal", "attack-sweep"): "75c9778b997eac0f7bf3714524e4a926cfe9048e794eac5d1c337646cf249bb8",
    ("sim-longhaul", "simulate"): "4eaba0db678eebf5882e1a406fffaa0f16728a283d4d300218169499347a46c6",
    ("sim-longhaul", "attack-sweep"): "7ba34b5e7387c0e4700be2b12c687fcffd397a7f2543c31d2bbcf8b3e0ff1d22",
    ("analysis", "simulate"): "c9fcbd524d275fcf68193247cee233b01c2a53b75ab37b382752aa2629e60ba0",
    ("analysis", "attack-sweep"): "78db3e53a932b3ec73ac7f685a52e30d596a3b5e318f98334f6b3542c5693181",
}

#: ``simulate`` digests of the per-slot reference sessions
#: (``physics_reference.reference_run_session``), written as layout 5 wrote
#: them: ``stream_layout`` 5 and no per-sent-slot keys.  As with
#: ``LAYOUT5_DIGESTS``, a change to the session's own draws leaves them.
LAYOUT5_SIMULATE_DIGESTS = {
    "sim-ideal": "448729c280c6a48a9ca8ae8a973af3816704894a032282b3e7018c2c3d93dbe0",
    "sim-longhaul": "e7e7adfaa8746698d1cc3477b2d2179f9d244311dce859d8d3e583a212808d21",
    "analysis": "504ef092da5e9ea0806d1b564bbf7488f6fe0027cb2fdbb7a202e0dce77ca8d2",
}

#: The ``simulate`` digests of the two lossless workloads in stream layout 6.
#: Layout 7 cuts the basis words of K' plane by plane, which changes the
#: parities, but with no loss and no dark count Bob decodes R whatever the
#: parity: these data differ from layout 7's only in ``stream_layout``.
LAYOUT6_SIMULATE_DIGESTS = {
    "sim-ideal": "78ef5355adae84ab9e261e597a8e29655fb557af90ec8fcf32e9acf7abe01ac0",
    "analysis": "5dbfdefe776073ad4ef912638ae72cdafc5d4a198450299c03b025edde398590",
}

EXPECTED_OPTICS = pathlib.Path(__file__).with_name("scenario_matrix_optics.json")

#: Relative tolerance of the optics floats; a power below the dark-channel
#: floor (1e-24 of e0^2) is spectral noise, compared in absolute terms.
_REL, _ABS = 1e-12, 1e-24


def _bundle(tmp_path, workload: str, command: str) -> dict:
    path = tmp_path / f"{workload}.json"
    path.write_text(json.dumps({"schema_version": 1, "seed": 1, **WORKLOADS[workload]}))
    out = tmp_path / f"{workload}-{command}.json"
    assert cli.main([command, "--scenario", str(path), "--out", str(out)]) == cli.EXIT_OK
    return json.loads(out.read_text())


@pytest.mark.parametrize("workload, command", sorted(DATA_DIGESTS))
def test_data_matches_pinned_digest(tmp_path, workload, command):
    digest = hashlib.sha256(reporting.data_bytes(_bundle(tmp_path, workload, command))).hexdigest()
    assert digest == DATA_DIGESTS[(workload, command)], (
        f"the data of `{command}` on {workload} changed: a change to the numbers must bump a "
        "stream-layout id, or rename the changed field, and give the reason in CHANGES.md"
    )


@pytest.mark.parametrize("workload", sorted(LAYOUT6_SIMULATE_DIGESTS))
def test_lossless_data_moved_only_by_the_layout_id(tmp_path, workload):
    bundle = _bundle(tmp_path, workload, "simulate")
    results = bundle["data"]["results"]
    assert results["stream_layout"] == 7
    results["stream_layout"] = 6
    assert hashlib.sha256(reporting.data_bytes(bundle)).hexdigest() == LAYOUT6_SIMULATE_DIGESTS[workload]


@pytest.mark.parametrize("workload", sorted(LAYOUT5_SIMULATE_DIGESTS))
def test_layout5_reference_reproduces_layout5_data(tmp_path, workload, monkeypatch):
    monkeypatch.setattr(reporting, "run_session", reference_run_session)
    bundle = _bundle(tmp_path, workload, "simulate")
    results = bundle["data"]["results"]
    assert results["stream_layout"] == 7
    results["stream_layout"] = 5
    for session in results["sessions"]:
        del session["useful_rate_bits_per_sent_slot"], session["rate_ratio_per_sent_slot_vs_baseline"]
        for channel in session["per_channel"]:
            del channel["useful_rate_bits_per_sent_slot"]
    assert hashlib.sha256(reporting.data_bytes(bundle)).hexdigest() == LAYOUT5_SIMULATE_DIGESTS[workload]


def _assert_close(actual, expected, where: str) -> None:
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), where
        for key in expected:
            _assert_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_close(a, e, f"{where}[{i}]")
    elif isinstance(expected, float) and not isinstance(actual, bool):
        assert math.isclose(actual, expected, rel_tol=_REL, abs_tol=_ABS), f"{where}: {actual!r} != {expected!r}"
    else:
        assert actual == expected and type(actual) is type(expected), f"{where}: {actual!r} != {expected!r}"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_optics_verify_matches_expected_file(tmp_path, workload):
    results = _bundle(tmp_path, workload, "optics-verify")["data"]["results"]
    expected = json.loads(EXPECTED_OPTICS.read_text())[workload]
    assert results["tuned"] is expected["tuned"] is True
    assert results["checks_passed"] is expected["checks_passed"] is True
    assert results["prefactor"]["confirmed"] == expected["prefactor"]["confirmed"]
    _assert_close(results, expected, workload)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {
            w: _bundle(pathlib.Path(tmp), w, "optics-verify")["data"]["results"] for w in sorted(WORKLOADS)
        }
    EXPECTED_OPTICS.write_text(json.dumps(table, sort_keys=True, indent=2) + "\n")
    print(f"wrote {EXPECTED_OPTICS}", file=sys.stderr)
