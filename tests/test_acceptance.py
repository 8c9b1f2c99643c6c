"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion.  Tolerances are fixed here, not calibrated at run time.
"""
import json
import time

import numpy as np
import pytest

from hpqkd import cli, reporting, scenario
from hpqkd.attacks import estimate_success, pns_exploitable_fraction
from hpqkd.keystream import (
    ExpandedKey,
    expand_key,
    popcount,
    random_bytes,
    simulate_meso_transmission,
    SeedKey,
)
from hpqkd.optics import (
    ModulationPlan,
    fit_half_angle_fringe,
    sideband_intensities_closed_form,
    sideband_intensities_oracle,
    tuned_fiber,
)
from hpqkd.polarization import overlap_exact
from hpqkd.protocol import ChannelModel, SessionConfig, run_session
from physics_reference import TwoModeCoherentState, overlap_small_angle, stokes_monte_carlo

PLAN = ModulationPlan()  # m1 = 2*m3 = 0.1, tones 1 and 3 GHz, quadrature bias
FIBER = tuned_fiber(PLAN)
SEED = 20260809


def report_line(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def oracle_sweep(channel: int, points: int = 32):
    phases = np.linspace(0, 2 * np.pi, points, endpoint=False)
    upper, lower = [], []
    for phase in phases:
        plan = PLAN.with_phases(phi1_a=phase) if channel == 1 else PLAN.with_phases(phi2_a=phase)
        spec = sideband_intensities_oracle(plan, FIBER)
        upper.append(spec.upper1 if channel == 1 else spec.upper2)
        lower.append(spec.lower1 if channel == 1 else spec.lower2)
    return phases, np.array(upper), np.array(lower)


def test_criterion_01_interference_law():
    start = time.perf_counter()
    phases, upper1, lower1 = oracle_sweep(1)
    a_u1, res_u1 = fit_half_angle_fringe(phases, upper1, "cos2")
    a_l1, res_l1 = fit_half_angle_fringe(phases, lower1, "sin2")
    _, upper2, lower2 = oracle_sweep(2)
    a_u2, res_u2 = fit_half_angle_fringe(phases, upper2, "sin2")
    a_l2, res_l2 = fit_half_angle_fringe(phases, lower2, "cos2")
    elapsed = time.perf_counter() - start

    ref = PLAN.e0**2 * PLAN.m1**2
    candidates = {"/8": ref / 8, "/16": ref / 16}
    confirmed = min(candidates, key=lambda k: abs(a_u1 - candidates[k]))
    ok = (
        max(res_u1, res_l1, res_u2, res_l2) <= 0.01
        and confirmed == "/8"
        and elapsed < 10.0
    )
    report_line(
        1,
        "interference-law",
        ok,
        f"residuals u1={res_u1:.4%} l1={res_l1:.4%} u2={res_u2:.4%} l2={res_l2:.4%}, "
        f"fitted A={a_u1:.6e}, candidates /8={candidates['/8']:.6e} /16={candidates['/16']:.6e}, "
        f"oracle confirms m1^2{confirmed}, runtime {elapsed:.1f}s",
    )


def test_criterion_02_complementarity():
    phases = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    closed_sums = np.array(
        [
            (lambda s: s.upper1 + s.lower1)(
                sideband_intensities_closed_form(PLAN.with_phases(phi1_a=p), FIBER)
            )
            for p in phases
        ]
    )
    closed_dev = float(np.max(np.abs(closed_sums - closed_sums.mean())))
    _, upper, lower = oracle_sweep(1, points=16)
    oracle_sums = upper + lower
    oracle_spread = float((oracle_sums.max() - oracle_sums.min()) / oracle_sums.mean())
    ok = closed_dev <= 1e-12 and oracle_spread <= 0.01
    report_line(
        2,
        "complementarity",
        ok,
        f"closed-form max deviation {closed_dev:.2e}, oracle spread {oracle_spread:.4%}",
    )


def test_criterion_03_channel_independence():
    # Channel 1 probed at the half-fringe point so both arms carry
    # comparable power and the relative spread is well conditioned.
    values_u, values_l = [], []
    for phase in np.linspace(0, 2 * np.pi, 16, endpoint=False):
        spec = sideband_intensities_oracle(
            PLAN.with_phases(phi1_a=np.pi / 2, phi2_a=phase), FIBER
        )
        values_u.append(spec.upper1)
        values_l.append(spec.lower1)
    spread_u = (max(values_u) - min(values_u)) / np.mean(values_u)
    spread_l = (max(values_l) - min(values_l)) / np.mean(values_l)
    ok = spread_u <= 0.01 and spread_l <= 0.01
    report_line(
        3,
        "channel-independence",
        ok,
        f"channel-1 spread under phi2 sweep: upper {spread_u:.4%}, lower {spread_l:.4%}",
    )


def _rate_variance(report) -> float:
    total = 0.0
    for ch in report.per_channel:
        p = ch.useful_rate_bits_per_slot
        usable = ch.sifted_bits / p if p > 0 else report.slots
        total += p * (1 - p) / usable
    return total


def test_criterion_04_rate_multipliers():
    start = time.perf_counter()
    reports = {}
    for mode in ("baseline_bb84", "hybrid", "parallel", "hybrid_parallel"):
        config = SessionConfig(
            mode=mode, num_slots=10_000, channel=ChannelModel(), plan=PLAN, fiber=FIBER, seed=SEED
        )
        reports[mode] = run_session(config)
    elapsed = time.perf_counter() - start

    base = reports["baseline_bb84"]
    base_rate = base.useful_rate_bits_per_slot
    base_var = _rate_variance(base)
    details = []
    ok = elapsed < 30.0
    for mode, target in (("baseline_bb84", 1.0), ("hybrid", 2.0), ("parallel", 2.0), ("hybrid_parallel", 4.0)):
        rate = reports[mode].useful_rate_bits_per_slot
        ratio = rate / base_rate
        sigma = target * np.sqrt(_rate_variance(reports[mode]) / rate**2 + base_var / base_rate**2)
        if mode == "baseline_bb84":
            within = ratio == 1.0
        else:
            within = abs(ratio - target) <= 3 * sigma
        ok = ok and within
        details.append(f"{mode}={ratio:.3f} (target {target}, 3sigma {3 * sigma:.3f})")
    report_line(4, "rate-multipliers", ok, ", ".join(details) + f", runtime {elapsed:.1f}s")


def test_criterion_05_sifting_bound():
    config = SessionConfig(
        mode="baseline_bb84", num_slots=10_000, channel=ChannelModel(), plan=PLAN, fiber=FIBER, seed=SEED + 1
    )
    report = run_session(config)
    fraction = report.sifted_bits / report.raw_detections
    bound = 0.5 + 3 * np.sqrt(0.25 / report.raw_detections)
    ok = fraction <= bound
    report_line(5, "sifting-bound", ok, f"sifted/detected {fraction:.4f} <= {bound:.4f}")


def test_criterion_06_brute_force_crossover():
    start = time.perf_counter()
    m = 64
    trials = 1000
    rng = np.random.default_rng(SEED)
    rich = estimate_success(64.0 * m, m, trials, rng)
    starved = estimate_success(m / 16.0, m, trials, rng)
    grid = [m * 2.0**e for e in range(-4, 7)]
    curve = [
        estimate_success(a, m, trials, child)
        for a, child in zip(grid, np.random.default_rng(SEED + 2).spawn(len(grid)))
    ]
    elapsed = time.perf_counter() - start

    rich_ok = rich.success_rate >= 0.99
    starved_bound = 1 / m + 5 * starved.stderr
    starved_ok = starved.success_rate <= starved_bound
    rates = [p.success_rate for p in curve]
    errs = [p.stderr for p in curve]
    monotone = all(rates[i + 1] >= rates[i] - 2 * (errs[i] + errs[i + 1]) for i in range(len(rates) - 1))
    ok = rich_ok and starved_ok and monotone and elapsed < 60.0
    report_line(
        6,
        "brute-force-crossover",
        ok,
        f"success(64M)={rich.success_rate:.4f}>=0.99, "
        f"success(M/16)={starved.success_rate:.4f}<={starved_bound:.4f}, "
        f"monotone={monotone}, runtime {elapsed:.1f}s",
    )


def test_criterion_07_pns_hardening():
    two = pns_exploitable_fraction(0.1, 2)
    three = pns_exploitable_fraction(0.1, 3)
    rng = np.random.default_rng(SEED + 3)
    draws = rng.poisson(0.1, 300_000)
    mc_ok = True
    for threshold, analytic in ((2, two), (3, three)):
        mc = float(np.mean(draws >= threshold))
        sigma = np.sqrt(analytic * (1 - analytic) / len(draws))
        mc_ok = mc_ok and abs(mc - analytic) <= 3 * sigma
    ok = (
        two == pytest.approx(4.679e-3, rel=1e-3)
        and three == pytest.approx(1.547e-4, rel=1e-3)
        and two / three >= 25
        and mc_ok
    )
    report_line(
        7,
        "pns-hardening",
        ok,
        f"tails {two:.4e} / {three:.4e}, ratio {two / three:.1f}x, MC within 3sigma: {mc_ok}",
    )


def test_criterion_08_stokes_statistics():
    state = TwoModeCoherentState(alpha=3.0, theta=0.0)
    trials = 100_000
    rng = np.random.default_rng(SEED + 4)
    n = state.mean_photons
    details = []
    ok = True
    for index in (1, 2, 3):
        _, var = stokes_monte_carlo(state, index, trials, rng)
        sigma = np.sqrt((2 * n**2 + n) / trials)  # Var of the sample variance
        ok = ok and abs(var - n) <= 3 * sigma
        details.append(f"S{index} var={var:.3f}")
    report_line(8, "stokes-statistics", ok, ", ".join(details) + f" (target {n}, 3sigma {3 * sigma:.3f})")


def test_criterion_09_distinguishability():
    thetas = np.linspace(0, np.pi, 101)
    intensities = np.linspace(0, 20, 41)
    pointwise = all(
        overlap_small_angle(a, t) == pytest.approx(np.exp(-2 * a * np.sin(t) ** 2), abs=1e-12)
        for a in intensities
        for t in thetas
    )
    exact_identity = all(
        overlap_exact(np.sqrt(a), t) == pytest.approx(np.exp(-2 * a * (1 - np.cos(t))), abs=1e-12)
        for a in intensities
        for t in thetas
    )
    unity = overlap_small_angle(5.0, 0.0) == 1.0 and overlap_exact(np.sqrt(5.0), 0.0) == 1.0
    grid = np.linspace(0.5, 20, 40)
    decreasing = all(
        overlap_small_angle(b, 0.8) < overlap_small_angle(a, 0.8)
        and overlap_exact(np.sqrt(b), 0.8) < overlap_exact(np.sqrt(a), 0.8)
        for a, b in zip(grid, grid[1:])
    )
    ratio = np.log(overlap_exact(2.0, 1e-4)) / np.log(overlap_small_angle(4.0, 1e-4))
    factor_two = ratio == pytest.approx(0.5, abs=1e-6)
    ok = pointwise and exact_identity and unity and decreasing and factor_two
    report_line(
        9,
        "distinguishability",
        ok,
        f"pointwise={pointwise}, exact-identity={exact_identity}, unity={unity}, "
        f"decreasing={decreasing}, small-angle exponent ratio {ratio:.6f} (documents the factor 2)",
    )


def _transmit_angle(word: int, parity: int, bit: int, m_bases: int) -> float:
    """Reference: the angle D*pi/(2M) of word D, a quarter turn further when parity(D) XOR bit == 1."""
    return word * np.pi / (2 * m_bases) + (parity ^ bit) * (np.pi / 2)


def test_criterion_10_key_pipeline_round_trip():
    # Statistical round trip at M=256 over 1e4 slots.
    m = 256
    slots = 10_000
    rng = np.random.default_rng(SEED + 5)
    seed_key = SeedKey.from_hex("00112233445566778899aabbccddeeff")
    parity = expand_key(seed_key, slots).packed  # slot i's parity is bit i of K' at any M
    r = random_bytes(rng, slots)
    bits, erased = simulate_meso_transmission(parity, r, slots, 25.0, rng, 1.0, 0.0, (rng, rng))
    erasures = int(popcount(erased, slots))
    erasure_rate = erasures / slots
    error_rate = int(popcount((bits ^ r) & ~erased, slots)) / (slots - erasures)

    # Exhaustive quadrant codification: all 4 parity/bit cases for each M.
    # A one-slot K' holds its word plane by plane, least significant bit
    # first, and the slot's parity is the key's first bit.
    quadrant_ok = True
    for m_cases in (2, 4, 16, 256):
        bits_per = m_cases.bit_length() - 1
        for word in (0, 1):
            word_bits = [(word >> j) & 1 for j in range(bits_per)]
            for bit in (0, 1):
                kp = ExpandedKey(packed=np.packbits(np.array(word_bits, dtype=np.uint8)), num_bits=bits_per)
                parity = int(kp.packed[0]) >> 7
                angle = _transmit_angle(word, parity, bit, m_cases)
                in_first = angle < np.pi / 2
                quadrant_ok = quadrant_ok and (in_first == ((word % 2) ^ bit == 0))
                base = word * np.pi / (2 * m_cases)
                offset = angle - (0.0 if in_first else np.pi / 2)
                quadrant_ok = quadrant_ok and offset == pytest.approx(base, abs=1e-12)

    ok = error_rate < 1e-3 and erasure_rate < 1e-3 and quadrant_ok
    report_line(
        10,
        "key-pipeline-round-trip",
        ok,
        f"error rate {error_rate:.2e} < 1e-3, erasure rate {erasure_rate:.2e} < 1e-3, "
        f"quadrant codification exhaustive over M in (2,4,16,256): {quadrant_ok}",
    )


def test_criterion_11_determinism(tmp_path):
    scenario_doc = {
        "schema_version": 1,
        "seed": SEED,
        "simulate": {"num_slots": 2000},
        "attack_sweep": {
            "m_bases": 8,
            "alpha_sq_over_m_grid": [0.25, 4.0, 64.0],
            "trials": 150,
            "pns_mc_trials": 20_000,
        },
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_doc))
    raw, resolved = scenario.load(str(path))

    sim_a = reporting.make_bundle("simulate", raw, resolved, reporting.simulate_results(resolved))
    sim_b = reporting.make_bundle("simulate", raw, resolved, reporting.simulate_results(resolved))
    sim_ok = reporting.data_bytes(sim_a) == reporting.data_bytes(sim_b)

    sweep_serial = reporting.make_bundle(
        "attack-sweep", raw, resolved, reporting.attack_sweep_results(resolved, workers=1)
    )
    sweep_parallel = reporting.make_bundle(
        "attack-sweep", raw, resolved, reporting.attack_sweep_results(resolved, workers=3)
    )
    sweep_ok = reporting.data_bytes(sweep_serial) == reporting.data_bytes(sweep_parallel)

    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["simulate", "--scenario", str(path), "--out", str(out_a)]) == 0
    assert cli.main(["simulate", "--scenario", str(path), "--out", str(out_b)]) == 0
    cli_ok = json.loads(out_a.read_text())["data"] == json.loads(out_b.read_text())["data"]

    ok = sim_ok and sweep_ok and cli_ok
    report_line(
        11,
        "determinism",
        ok,
        f"repeat-run bytes identical: {sim_ok}, serial==parallel sweep: {sweep_ok}, CLI re-run: {cli_ok}",
    )
