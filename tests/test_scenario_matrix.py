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

#: sha256 of ``reporting.data_bytes`` per (workload, command).  The
#: ``simulate`` digests moved when ``public_transcript`` became the erasure
#: bitmask (with the transcripts popped the data hashed as before), again
#: with session stream layouts 3, 4 and 5 (``protocol.STREAM_LAYOUT``), and
#: with layout 6, whose weak channels draw counts per slot class and whose
#: sessions gained ``useful_rate_bits_per_sent_slot`` and
#: ``rate_ratio_per_sent_slot_vs_baseline``.  Under layout 5 the data hashed
#: as ``LAYOUT5_SIMULATE_DIGESTS``.  The ``attack-sweep`` digests moved with
#: ``attacks.STREAM_LAYOUT`` 3, whose PNS table draws one set of photon
#: arrival times for every row: only its ``mc_fraction`` and ``mc_stderr``
#: columns and ``stream_layout`` changed.  They moved again with layout 4,
#: which draws only the pulses whose first photon arrives before the largest
#: mean, and with ``analytic_fraction`` summed as a series below mu = 1 (it
#: moved by 1e-15 to 1.1e-12 relative): only those three columns and
#: ``stream_layout`` changed, and no ``brute_force_table`` byte.
DATA_DIGESTS = {
    ("sim-ideal", "simulate"): "78ef5355adae84ab9e261e597a8e29655fb557af90ec8fcf32e9acf7abe01ac0",
    ("sim-ideal", "attack-sweep"): "75c9778b997eac0f7bf3714524e4a926cfe9048e794eac5d1c337646cf249bb8",
    ("sim-longhaul", "simulate"): "c4da07f26cdad759edf83ca25b6d42ba4e94e9c7a1f84f2de5e7a8e6347978b0",
    ("sim-longhaul", "attack-sweep"): "7ba34b5e7387c0e4700be2b12c687fcffd397a7f2543c31d2bbcf8b3e0ff1d22",
    ("analysis", "simulate"): "5dbfdefe776073ad4ef912638ae72cdafc5d4a198450299c03b025edde398590",
    ("analysis", "attack-sweep"): "78db3e53a932b3ec73ac7f685a52e30d596a3b5e318f98334f6b3542c5693181",
}

#: ``simulate`` digests under layout 5, which the layout-5 reference session
#: (``physics_reference.reference_run_session``) reproduces once the
#: per-sent-slot keys are taken out.  At layouts 4 and 5 the lossless
#: workloads recorded only the new layout id.
LAYOUT5_SIMULATE_DIGESTS = {
    "sim-ideal": "448729c280c6a48a9ca8ae8a973af3816704894a032282b3e7018c2c3d93dbe0",
    "sim-longhaul": "1e2a52169673ff4145b7c45b5b8180c4f32215963991c417c45ee57402ee1a1d",
    "analysis": "504ef092da5e9ea0806d1b564bbf7488f6fe0027cb2fdbb7a202e0dce77ca8d2",
}

#: ``simulate`` digests of the lossless workloads under layout 3.  They read
#: no dark stream, so with ``stream_layout`` put back to 3 their layout-4
#: data must hash the same.
LAYOUT3_SIMULATE_DIGESTS = {
    "sim-ideal": "694812fde31835c6c8ddea3fa25ca75034871f1219a67230988b998ffff6dd7d",
    "analysis": "4d20b89c44e130721752e3b3f92dd5ef85fb198d79eac1f74fe455b96a338a38",
}

#: ``simulate`` digests of the lossless workloads under layout 4.  Their
#: weak fields fall between the cuts, where layout 5 draws the same
#: uniforms in blocks, and their meso clicks (p = 1 - 1.4e-11) have no quiet
#: slot in either layout, so with ``stream_layout`` put back to 4 their
#: layout-5 data must hash the same.
LAYOUT4_SIMULATE_DIGESTS = {
    "sim-ideal": "54a9cb8b1c17d291168b8a5665d5d63ac3b32b0a3aa23d8dc1eecc08e12ed642",
    "analysis": "4d392354f2c650fe2b0c4d469feab262c1dfcf8499030a7d2665de0fc7a7a816",
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


def _layout5_bundle(tmp_path, workload: str, monkeypatch) -> dict:
    """The ``simulate`` bundle of the layout-5 reference sessions, as layout 5 wrote it."""
    monkeypatch.setattr(reporting, "run_session", reference_run_session)
    bundle = _bundle(tmp_path, workload, "simulate")
    results = bundle["data"]["results"]
    assert results["stream_layout"] == 6
    results["stream_layout"] = 5
    for session in results["sessions"]:
        del session["useful_rate_bits_per_sent_slot"], session["rate_ratio_per_sent_slot_vs_baseline"]
        for channel in session["per_channel"]:
            del channel["useful_rate_bits_per_sent_slot"]
    return bundle


@pytest.mark.parametrize("workload", sorted(LAYOUT5_SIMULATE_DIGESTS))
def test_layout5_reference_reproduces_layout5_data(tmp_path, workload, monkeypatch):
    bundle = _layout5_bundle(tmp_path, workload, monkeypatch)
    assert hashlib.sha256(reporting.data_bytes(bundle)).hexdigest() == LAYOUT5_SIMULATE_DIGESTS[workload]


@pytest.mark.parametrize("workload", sorted(LAYOUT3_SIMULATE_DIGESTS))
def test_lossless_data_moved_only_by_the_layout_id(tmp_path, workload, monkeypatch):
    # Layouts 3 to 5 drew the same numbers on a lossless link.
    bundle = _layout5_bundle(tmp_path, workload, monkeypatch)
    for layout, digests in ((4, LAYOUT4_SIMULATE_DIGESTS), (3, LAYOUT3_SIMULATE_DIGESTS)):
        bundle["data"]["results"]["stream_layout"] = layout
        assert hashlib.sha256(reporting.data_bytes(bundle)).hexdigest() == digests[workload], layout


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
