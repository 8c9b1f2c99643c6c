"""Session engine: detection law, sifting, rate multipliers, determinism."""
import dataclasses
import hashlib
import itertools
import json
import warnings

import numpy as np
import pytest

from hpqkd import keystream as ks
from hpqkd import protocol
from hpqkd.optics import FiberLink, ModulationPlan, OpticsNotTunedError, split_upper_probability, tuned_fiber
from hpqkd.protocol import (
    ChannelModel,
    SecurityConditionWarning,
    SessionConfig,
    run_session,
)
from hpqkd.polarization import CLICK_BLOCK, SPARSE_CLICK_PROB
import physics_reference as ref
from physics_reference import reference_run_session

PLAN = ModulationPlan()
FIBER = tuned_fiber(PLAN)
IDEAL = ChannelModel()  # no loss, unit efficiency, no dark counts


def detection_split(delta_phi, channel, plan, fiber, channel_model, rng) -> str:
    """Single-slot detector outcome: 'upper', 'lower', 'none', or 'both'.

    Scalar reference for the session engine's vectorized detection pass: a
    surviving weak pulse routes to one sideband detector with the normalized
    closed-form split for the channel; dark counts click each detector
    independently.
    """
    p_upper = split_upper_probability(plan, fiber, channel, delta_phi)
    mu = channel_model.mu_weak * channel_model.survival_probability if p_upper is not None else 0.0
    signal = rng.poisson(mu) > 0
    to_upper = rng.random() < (float(p_upper) if p_upper is not None else 0.5)
    upper = (signal and to_upper) or (rng.random() < channel_model.dark_count_prob)
    lower = (signal and not to_upper) or (rng.random() < channel_model.dark_count_prob)
    if upper and lower:
        return "both"
    if upper:
        return "upper"
    if lower:
        return "lower"
    return "none"


def compute_qber(alice_bits, bob_bits, matched_slots) -> float:
    """Reference: the disagreeing matched slots over the matched slots, two integers divided once."""
    matched = np.asarray(matched_slots, dtype=bool)
    wrong = np.asarray(alice_bits) != np.asarray(bob_bits)
    return int(np.count_nonzero(wrong & matched)) / int(np.count_nonzero(matched))


def config(mode="baseline_bb84", slots=10_000, seed=42, channel=IDEAL, plan=PLAN, fiber=FIBER, **kw):
    return SessionConfig(
        mode=mode, num_slots=slots, channel=channel, plan=plan, fiber=fiber, seed=seed, **kw
    )


class TestChannelModel:
    def test_survival_combines_loss_and_efficiency(self):
        ch = ChannelModel(length_km=50, loss_db_per_km=0.2, detector_efficiency=0.1)
        assert ch.survival_probability == pytest.approx(0.1 * 10 ** (-1.0))

    def test_security_condition_warning(self):
        with pytest.warns(SecurityConditionWarning) as record:
            ChannelModel(alpha_sq_meso=25.0, m_bases=16)
        assert record[0].filename == __file__  # the caller, not the generated __init__

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelModel(detector_efficiency=1.5)
        with pytest.raises(ValueError):
            ChannelModel(mu_weak=-0.1)
        with pytest.raises(ValueError):
            ChannelModel(m_bases=12)
        with pytest.raises(ValueError, match="mu_weak must be in"):
            ChannelModel(mu_weak=2e6)
        with pytest.raises(ValueError, match="length_km must be finite"):
            ChannelModel(length_km=10**400)  # no float holds it

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(ChannelModel) if f.name != "m_bases"]
    )
    def test_non_finite_field_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ChannelModel(**{name: value})


class TestSessionConfig:
    def test_mode_and_bounds_validated(self):
        with pytest.raises(ValueError):
            config(mode="bb84")
        with pytest.raises(ValueError):
            config(slots=0)
        with pytest.raises(ValueError):
            config(seed=-1)
        for fraction in (-0.5, 2.0, np.nan):
            with pytest.raises(ValueError, match="basis_flip_fault_fraction"):
                config(basis_flip_fault_fraction=fraction)


def _bounded_params():
    for cls in (ChannelModel, ModulationPlan, FiberLink, SessionConfig):
        for field in dataclasses.fields(cls):
            for side in ("low", "high"):
                if field.metadata.get(side) is not None:
                    bound = field.metadata[side]
                    outside = bound - 1 if side == "low" else bound * 2
                    yield pytest.param(cls, field.name, bound, outside, id=f"{cls.__name__}.{field.name}-{side}")


@pytest.mark.parametrize("cls, name, bound, outside", list(_bounded_params()))
def test_every_stated_bound_is_enforced(cls, name, bound, outside):
    """Each bound a field declares holds at its value and is refused just outside it."""
    make = {FiberLink: lambda **kw: FiberLink(**{"length_m": 1.0, **kw}), SessionConfig: config}.get(cls, cls)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a depth or basis count at its bound warns
        assert getattr(make(**{name: bound}), name) == bound
    with pytest.raises(ValueError, match=f"{name} must be"):
        make(**{name: outside})


class TestComputeQber:
    def test_identical_and_complemented(self):
        bits = np.array([0, 1, 1, 0])
        mask = np.ones(4, dtype=bool)
        assert compute_qber(bits, bits, mask) == 0.0
        assert compute_qber(bits, 1 - bits, mask) == 1.0

    def test_independent_sequences_near_half(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 2, 10_000)
        b = rng.integers(0, 2, 10_000)
        qber = compute_qber(a, b, np.ones(10_000, dtype=bool))
        assert abs(qber - 0.5) <= 3 * np.sqrt(0.25 / 10_000)

    @pytest.mark.parametrize("matched", ("random", "all", "single"))
    @pytest.mark.parametrize("seed", range(4))
    def test_count_equals_mean_of_gathered_slots(self, seed, matched):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 50_000))
        a = rng.integers(0, 2, n, dtype=np.uint8)
        b = a ^ (rng.random(n) < rng.random()).astype(np.uint8)
        mask = {
            "random": rng.random(n) < rng.random(),
            "all": np.ones(n, dtype=bool),
            "single": np.arange(n) == rng.integers(0, n),
        }[matched]
        if not mask.any():
            mask[0] = True
        assert compute_qber(a, b, mask) == float(np.mean(a[mask] != b[mask]))


class TestDetectionSplit:
    def test_deterministic_at_zero_phase(self):
        rng = np.random.default_rng(2)
        ch = ChannelModel(mu_weak=20.0)  # essentially never vacuum
        outcomes = {detection_split(0.0, 1, PLAN, FIBER, ch, rng) for _ in range(300)}
        assert outcomes == {"upper"}

    def test_channel2_lands_lower_at_zero_phase(self):
        rng = np.random.default_rng(3)
        ch = ChannelModel(mu_weak=20.0)
        outcomes = {detection_split(0.0, 2, PLAN, FIBER, ch, rng) for _ in range(300)}
        assert outcomes == {"lower"}

    def test_even_split_at_quarter_phase(self):
        rng = np.random.default_rng(4)
        ch = ChannelModel(mu_weak=20.0)
        trials = 10_000
        upper = sum(
            detection_split(np.pi / 2, 1, PLAN, FIBER, ch, rng) == "upper" for _ in range(trials)
        )
        assert abs(upper / trials - 0.5) <= 3 * np.sqrt(0.25 / trials)

    def test_vacuum_is_silent(self):
        rng = np.random.default_rng(5)
        ch = ChannelModel(mu_weak=0.0)
        assert detection_split(0.0, 1, PLAN, FIBER, ch, rng) == "none"

    @pytest.mark.parametrize("channel", (1, 2))
    @pytest.mark.parametrize("alice_basis", (0, 1), ids=["phase-0", "phase-half-pi"])
    def test_engine_follows_reference_law(self, channel, alice_basis):
        # Bob measures in basis 0, so the slots whose bit is 0 sit at
        # delta_phi = alice_basis * pi/2.  Bright enough pulses and frequent
        # dark counts make all four outcomes common.
        ch = ChannelModel(mu_weak=1.0, dark_count_prob=0.2)
        counts = np.zeros((2, 2, 2), dtype=np.int64)
        counts[alice_basis, 0, 1] = 40_000
        tally, _ = protocol._weak_outcomes(config(seed=31, channel=ch), channel, counts)
        at_phase = tally[1][0]  # kept, bit 0: upper only, lower only, both, neither
        engine = dict(zip(("upper", "lower", "both", "none"), at_phase))
        rng = np.random.default_rng(32)
        reference = [
            detection_split(alice_basis * np.pi / 2, channel, PLAN, FIBER, ch, rng) for _ in range(20_000)
        ]
        n_engine, n_reference = sum(at_phase), len(reference)
        for outcome, hits in engine.items():
            f_engine = hits / n_engine
            f_reference = reference.count(outcome) / n_reference
            pooled = (f_engine * n_engine + f_reference * n_reference) / (n_engine + n_reference)
            sigma = np.sqrt(pooled * (1 - pooled) * (1 / n_engine + 1 / n_reference))
            assert abs(f_engine - f_reference) <= 3 * sigma, outcome


class TestBaseline:
    def test_sifted_fraction_is_half_of_detections(self):
        report = run_session(config(seed=7))
        fraction = report.sifted_bits / report.raw_detections
        sigma = np.sqrt(0.25 / report.raw_detections)
        assert abs(fraction - 0.5) <= 3 * sigma

    def test_ideal_channel_qber_zero(self):
        report = run_session(config(seed=8))
        assert report.qber == 0.0

    def test_dark_count_only_clicks_give_half_qber(self):
        ch = ChannelModel(mu_weak=0.0, dark_count_prob=1e-3)
        report = run_session(config(seed=9, slots=100_000, channel=ch))
        assert report.sifted_bits > 30
        assert abs(report.qber - 0.5) <= 3 * np.sqrt(0.25 / report.sifted_bits)

    def test_report_count_invariants(self):
        report = run_session(config(seed=10))
        assert report.sifted_bits <= report.raw_detections <= report.slots
        assert 0 <= report.qber <= 1

    def test_transcript_announces_bases(self):
        report = run_session(config(seed=11, slots=64))
        assert set(report.public_transcript) == {"announced_bases"}
        assert "alice_ch1" in report.public_transcript["announced_bases"]

    def test_basis_flip_fault_raises_qber_by_half_fraction(self):
        fault = 0.2
        report = run_session(config(seed=12, basis_flip_fault_fraction=fault))
        expected = fault / 2
        sigma = np.sqrt(expected * (1 - expected) / report.sifted_bits)
        assert abs(report.qber - expected) <= 3 * sigma


class TestHybrid:
    def test_rate_doubles_baseline(self):
        baseline = run_session(config(seed=13))
        hybrid = run_session(config(mode="hybrid", seed=13))
        ratio = hybrid.useful_rate_bits_per_slot / baseline.useful_rate_bits_per_slot
        assert abs(ratio - 2.0) <= 3 * 2.0 * 0.03  # ~3% rate cv at 1e4 slots
        assert hybrid.qber == 0.0

    def test_bases_always_agree(self):
        report = run_session(config(mode="hybrid", seed=14))
        assert report.per_channel[0].basis_agreement == 1.0

    def test_erasures_negligible_at_bright_meso(self):
        report = run_session(config(mode="hybrid", seed=15))
        assert report.meso_erasures / report.slots < 1e-3

    def test_transcript_hides_bases(self):
        report = run_session(config(mode="hybrid", seed=16, slots=256))
        assert "announced_bases" not in report.public_transcript
        assert set(report.public_transcript) == {"erasure_mask_hex"}


class TestParallel:
    def test_rate_doubles_baseline(self):
        baseline = run_session(config(seed=17))
        parallel = run_session(config(mode="parallel", seed=17))
        ratio = parallel.useful_rate_bits_per_slot / baseline.useful_rate_bits_per_slot
        assert abs(ratio - 2.0) <= 3 * 2.0 * 0.03
        assert parallel.qber == 0.0
        assert {c.channel for c in parallel.per_channel} == {1, 2}

    def test_requires_tuned_link(self):
        detuned = dataclasses.replace(FIBER, length_m=FIBER.length_m * 1.02)
        with pytest.raises(OpticsNotTunedError):
            run_session(config(mode="parallel", seed=18, fiber=detuned))

    def test_disabled_second_channel_reduces_to_baseline(self):
        plan = dataclasses.replace(PLAN, m2=0.0, m4=0.0)
        baseline = run_session(config(seed=19, plan=plan))
        parallel = run_session(config(mode="parallel", seed=19, plan=plan))
        ch2 = parallel.per_channel[1]
        assert ch2.raw_detections == 0 and ch2.sifted_bits == 0
        ratio = parallel.useful_rate_bits_per_slot / baseline.useful_rate_bits_per_slot
        assert abs(ratio - 1.0) <= 3 * 0.03

    def test_session_qber_is_the_error_count_over_the_sifted_bits(self):
        # Each channel's errors are counted and the sum divided once; the sum
        # of qber * sifted_bits over the channels gives 0.0785498489425982 here.
        ch = ChannelModel(length_km=20, dark_count_prob=0.02)
        report = run_session(config(mode="parallel", seed=193, slots=3000, channel=ch))
        errors = sum(round(c.qber * c.sifted_bits) for c in report.per_channel)
        assert (errors, report.sifted_bits) == (52, 662)
        assert sum(c.qber * c.sifted_bits for c in report.per_channel) / 662 == 0.0785498489425982
        assert report.qber == 52 / 662 == 0.07854984894259819

    def test_transcript_announces_both_channels(self):
        report = run_session(config(mode="parallel", seed=20, slots=128))
        assert "alice_ch2" in report.public_transcript["announced_bases"]

    @pytest.mark.parametrize("fault", (0.0, 0.3))
    @pytest.mark.parametrize("channel", ("default", "longhaul"))
    def test_channel1_is_the_baseline_channel(self, channel, fault):
        # Same roles, so the same bases, class sizes and class draws.
        kw = dict(seed=7, slots=20_001, channel=GOLDEN_CHANNELS[channel], basis_flip_fault_fraction=fault)
        baseline = run_session(config(**kw))
        parallel = run_session(config(mode="parallel", **kw))
        assert parallel.per_channel[0] == baseline.per_channel[0]
        announced = parallel.public_transcript["announced_bases"]
        assert {k: announced[k] for k in ("alice_ch1", "bob_ch1")} == baseline.public_transcript["announced_bases"]


class TestHybridParallel:
    def test_rate_quadruples_baseline(self):
        baseline = run_session(config(seed=21))
        quad = run_session(config(mode="hybrid_parallel", seed=21))
        ratio = quad.useful_rate_bits_per_slot / baseline.useful_rate_bits_per_slot
        assert abs(ratio - 4.0) <= 3 * 4.0 * 0.03
        for channel_report in quad.per_channel:
            per = channel_report.useful_rate_bits_per_slot / baseline.useful_rate_bits_per_slot
            assert abs(per - 2.0) <= 3 * 2.0 * 0.035

    def test_multiplier_survives_loss(self):
        lossy = ChannelModel(length_km=50, loss_db_per_km=0.2, detector_efficiency=0.1, mu_weak=0.5)
        baseline = run_session(config(seed=22, channel=lossy, slots=200_000))
        quad = run_session(config(mode="hybrid_parallel", seed=22, channel=lossy, slots=200_000))
        ratio = quad.useful_rate_bits_per_slot / baseline.useful_rate_bits_per_slot
        cv = np.sqrt(1 / baseline.sifted_bits + 1 / quad.sifted_bits)
        assert abs(ratio - 4.0) <= 3 * 4.0 * cv

    def test_transcript_hides_bases(self):
        report = run_session(config(mode="hybrid_parallel", seed=23, slots=256))
        assert "announced_bases" not in report.public_transcript
        assert set(report.public_transcript) == {"erasure_mask_hex"}


class TestOrderingAndDeterminism:
    def test_rate_ordering_chain(self):
        seed = 24
        rates = {
            mode: run_session(config(mode=mode, seed=seed)).useful_rate_bits_per_slot
            for mode in ("baseline_bb84", "hybrid", "parallel", "hybrid_parallel")
        }
        slack = 3 * 0.03 * rates["baseline_bb84"]
        assert rates["baseline_bb84"] <= rates["hybrid"] + slack
        assert rates["hybrid"] <= rates["hybrid_parallel"]
        assert rates["parallel"] <= rates["hybrid_parallel"]

    def test_identical_config_identical_report(self):
        for mode in ("baseline_bb84", "hybrid", "parallel", "hybrid_parallel"):
            a = run_session(config(mode=mode, seed=25, slots=2000))
            b = run_session(config(mode=mode, seed=25, slots=2000))
            assert a == b
            assert a.to_dict() == b.to_dict()

    def test_seed_changes_report(self):
        a = run_session(config(seed=26, slots=2000))
        b = run_session(config(seed=27, slots=2000))
        assert a.sifted_bits != b.sifted_bits or a.qber != b.qber or a.to_dict() != b.to_dict()


#: Channel settings, as (channel, ChannelModel, plan, fiber, fault
#: fraction), on which the class cells of ``_weak_outcomes`` must equal the
#: law on the per-slot split floats, bit for bit.  They cover both channels,
#: dark counts, a dark channel (p = 0), a detuned fiber and 100-km links.
#: The fault fraction does not enter the cells: it moves slots between
#: classes.  A case moves only if the cell law itself changes.
SPLIT_TABLE_CASES = {
    "ch1": (1, IDEAL, PLAN, FIBER, 0.0),
    "ch2": (2, IDEAL, PLAN, FIBER, 0.0),
    "ch1-dark-counts": (1, ChannelModel(mu_weak=1.0, dark_count_prob=0.2), PLAN, FIBER, 0.0),
    "ch2-dark-counts": (2, ChannelModel(mu_weak=1.0, dark_count_prob=0.2), PLAN, FIBER, 0.0),
    "dark-channel": (1, ChannelModel(dark_count_prob=0.2), dataclasses.replace(PLAN, m1=0.0, m3=0.0), FIBER, 0.0),
    "ch1-detuned": (1, IDEAL, PLAN, FiberLink(length_m=FIBER.length_m + 0.0123), 0.0),
    "ch2-fault": (2, ChannelModel(dark_count_prob=0.2), PLAN, FIBER, 0.3),
    "ch1-100km": (1, ChannelModel(length_km=100, dark_count_prob=0.01), PLAN, FIBER, 0.0),
    "ch2-100km-fault": (2, ChannelModel(length_km=100, dark_count_prob=0.01), PLAN, FIBER, 0.3),
}


class TestSplitTable:
    @pytest.mark.parametrize("name", sorted(SPLIT_TABLE_CASES))
    def test_class_cells_read_the_per_slot_split_floats(self, name, monkeypatch):
        # Layout 6: the 8 cells of class [a, c, k] are Alice's bit b (1/2
        # each) times upper only, lower only, both, neither, with t the split
        # law at the per-slot phase expression of (a, b, c).
        channel, ch, plan, fiber, _ = SPLIT_TABLE_CASES[name]
        calls = []
        rng = np.random.default_rng(0)
        monkeypatch.setattr(protocol, "_stream", lambda seed, role: _RecordingRng(role, rng, calls))
        cfg = config(channel=ch, plan=plan, fiber=fiber)
        protocol._weak_outcomes(cfg, channel, np.ones((2, 2, 2), dtype=np.int64))
        ((role, name, (_, pvals)),) = calls
        assert (role, name) == (f"weak_counts_ch{channel}", "multinomial")
        combos = np.array(list(itertools.product((0, 1), repeat=3)), dtype=np.uint8)  # rows (a, b, c)
        a, b, c = np.tile(combos, (5, 1)).T  # a per-slot sized array, not the 8-entry table
        per_slot = split_upper_probability(plan, fiber, channel, (a * (np.pi / 2) + b * np.pi) - c * (np.pi / 2))
        d = ch.dark_count_prob
        p = 0.0 if per_slot is None else -np.expm1(-ch.mu_weak * ch.survival_probability)
        for i, (a_i, b_i, c_i) in enumerate(combos):
            t = 0.5 if per_slot is None else per_slot[i]
            cells = [
                (1 - d) * (p * t + (1 - p) * d),
                (1 - d) * (p * (1 - t) + (1 - p) * d),
                p * d + (1 - p) * d * d,
                (1 - p) * (1 - d) * (1 - d),
            ]
            for kept in (0, 1):
                got = pvals[a_i, c_i, kept, 4 * b_i : 4 * b_i + 4]
                assert got.tolist() == [cell / 2 for cell in cells], (a_i, b_i, c_i)

    @pytest.mark.parametrize("mode", protocol.MODES)
    def test_split_law_sees_at_most_eight_phases(self, mode, monkeypatch):
        seen = []

        def recording(plan, fiber, channel, delta_phi):
            seen.append(np.size(delta_phi))
            return split_upper_probability(plan, fiber, channel, delta_phi)

        monkeypatch.setattr(protocol, "split_upper_probability", recording)
        run_session(config(mode=mode, slots=5000))
        assert 1 <= len(seen) <= 2 and all(size <= 8 for size in seen), seen


class TestSlotCounts:
    @pytest.mark.parametrize("n, fault", [(1, 0.0), (8, 1.0), (37, 0.3), (4096, 0.5), (20_001, 0.0), (20_001, 0.3)])
    @pytest.mark.parametrize(
        "kept, lanes, lane", [("matched", 1, 0), ("random", 1, 0), ("random", 2, 0), ("random", 2, 1)]
    )
    def test_counts_equal_the_per_slot_counts(self, n, fault, kept, lanes, lane):
        # A fault prefix of round(0.3 * 37) = 11 or 6000 slots ends mid-byte.
        # The sifted modes keep the matched slots of one channel's strings; the
        # assisted ones a mask, over strings that interleave two channels.
        rng = np.random.default_rng(n)
        a, b = rng.integers(0, 2, (2, lanes * n), dtype=np.uint8)
        k = a == b if kept == "matched" else rng.random(lanes * n) < 0.7
        flipped = round(fault * n)
        fault_flags = np.arange(n) < flipped
        sel = slice(lane, None, lanes)
        expected = np.zeros((2, 2, 2, 2), dtype=np.int64)
        np.add.at(expected, (fault_flags.astype(np.uint8), a[sel], b[sel], k[sel].astype(np.uint8)), 1)
        packed_kept = None if kept == "matched" else np.packbits(k)
        got = protocol._slot_counts(np.packbits(a), np.packbits(b), packed_kept, n, flipped, lanes, lane)
        assert np.array_equal(got, expected)


def _meso_law(channel: ChannelModel) -> tuple[float, float]:
    """Closed-form meso erasure fraction and decode error over usable slots.

    The pulse reaches its arm with p = 1 - exp(-alpha_sq * eta); that arm
    fires with P_A = 1 - (1 - p)(1 - d), the other arm only on a dark count
    d.  A slot is usable when exactly one arm fires, and wrong when that is
    the other arm.
    """
    p = -np.expm1(-channel.alpha_sq_meso * channel.survival_probability)
    d = channel.dark_count_prob
    p_aligned = 1 - (1 - p) * (1 - d)
    wrong = (1 - p_aligned) * d
    usable = p_aligned * (1 - d) + wrong
    return 1 - usable, wrong / usable


def _z_law(hits: int, trials: int, p0: float) -> float:
    if p0 == 0:
        return 0.0 if hits == 0 else np.inf
    return (hits / trials - p0) / np.sqrt(p0 * (1 - p0) / trials)


def _z_two_sample(hits_a: int, n_a: int, hits_b: int, n_b: int) -> float:
    pooled = (hits_a + hits_b) / (n_a + n_b)
    if pooled == 0:
        return 0.0
    return (hits_a / n_a - hits_b / n_b) / np.sqrt(pooled * (1 - pooled) * (1 / n_a + 1 / n_b))


#: Lossy and dark-count channels with erasure fractions from 0.37 to 0.75.
MESO_CHANNELS = {
    "lossy-70km": ChannelModel(length_km=70),
    "dark-70km": ChannelModel(length_km=70, dark_count_prob=0.05),
    "dark-100km": ChannelModel(length_km=100, dark_count_prob=0.02),
}
MESO_SEEDS = range(8)
MESO_SLOTS = 25_000


def _meso_pool(channel: ChannelModel) -> tuple[int, int, int]:
    """(erased, wrong, slots) of the engine's meso leg, summed over the seed pool."""
    erased = wrong = 0
    for seed in MESO_SEEDS:
        cfg = config(mode="hybrid", slots=MESO_SLOTS, seed=seed, channel=channel)
        r = ks.random_bytes(protocol._stream(seed, "r_entropy"), MESO_SLOTS)
        bits, erasure = protocol._meso_leg(cfg, r, MESO_SLOTS)
        erased += int(ks.popcount(erasure, MESO_SLOTS))
        wrong += int(ks.popcount((bits ^ r) & ~erasure, MESO_SLOTS))
    return erased, wrong, len(MESO_SEEDS) * MESO_SLOTS


@pytest.mark.parametrize("name", sorted(MESO_CHANNELS))
def test_meso_leg_agrees_with_law(name):
    """The meso leg's erasure fraction and decode error agree with ``_meso_law``."""
    channel = MESO_CHANNELS[name]
    erasure_law, error_law = _meso_law(channel)
    erased, wrong, slots = _meso_pool(channel)
    assert 0.3 < erasure_law < 0.8
    z = {
        "erasure vs law": _z_law(erased, slots, erasure_law),
        "error vs law": _z_law(wrong, slots - erased, error_law),
    }
    assert all(abs(v) < 3 for v in z.values()), z


#: Links whose meso signal click takes the two count-and-subset regimes of
#: ``polarization.add_clicks``: the quiet slots at 40 km (p = 0.981) and
#: the click slots at 130 km (p = 0.061).  Their dark fields are count and
#: subset too.
MESO_SPARSE_CHANNELS = {
    "complement-40km": ChannelModel(length_km=40, dark_count_prob=0.05),
    "subset-130km": ChannelModel(length_km=130, dark_count_prob=0.01),
}


@pytest.mark.parametrize("name", sorted(MESO_SPARSE_CHANNELS))
def test_meso_sparse_fields_agree_with_law(name):
    """A sparse meso click field, drawn as a count and a subset of slots, agrees with ``_meso_law``."""
    channel = MESO_SPARSE_CHANNELS[name]
    p = -np.expm1(-channel.alpha_sq_meso * channel.survival_probability)
    erasure_law, error_law = _meso_law(channel)
    erased, wrong, slots = _meso_pool(channel)
    assert not SPARSE_CLICK_PROB < p < 1 - SPARSE_CLICK_PROB
    assert min(erasure_law * slots, error_law * (1 - erasure_law) * slots) > 100  # events enough for a z
    z = {
        "erasure vs law": _z_law(erased, slots, erasure_law),
        "error vs law": _z_law(wrong, slots - erased, error_law),
    }
    assert all(abs(v) < 3 for v in z.values()), z


def test_poisson_pulse_clicks_with_the_meso_click_law():
    """A Poisson(m) pulse holds a photon with probability 1 - exp(-m), the click law of ``_meso_law``.

    m = alpha_sq * eta of the lossless link and of the 70-, 100- and 130-km
    meso links; one generator draws all four pools.
    """
    links = {
        "lossless": IDEAL,
        "70km": MESO_CHANNELS["lossy-70km"],
        "100km": MESO_CHANNELS["dark-100km"],
        "130km": MESO_SPARSE_CHANNELS["subset-130km"],
    }
    rng = np.random.default_rng(2006)
    slots = 200_000
    z = {}
    for name, link in links.items():
        m = link.alpha_sq_meso * link.survival_probability
        z[name] = _z_law(int(np.count_nonzero(rng.poisson(m, slots) > 0)), slots, -np.expm1(-m))
    assert all(abs(v) < 3 for v in z.values()), z


def _weak_law(channel: ChannelModel, mode: str, flipped: float = 0.0) -> tuple[float, float, float, float]:
    """Closed-form weak-channel fractions of a session: (conclusive, sifted, error, double click).

    Conclusive and double click are over sent slots, sifted over usable
    slots and error over sifted bits, averaged over the mode's channels.  A slot of split law t
    sends its signal, present with p = 1 - exp(-mu * eta), to the upper
    detector with probability t; with dark probability d per detector the
    upper one alone fires with (1 - d)(p t + (1 - p) d), the lower one alone
    with the same at 1 - t, and both with p d + (1 - p) d**2 at any t.  The
    sifted modes keep the matched-basis slots.
    The assisted modes keep the usable meso slots, on which Bob's basis is
    Alice's unless the meso decode was wrong (``_meso_law``); on an erased
    slot it matches half the time.  On the fraction ``flipped`` of the slots
    the fault flips the basis Bob measures in, not the one he announces or
    decodes.
    """
    p = -np.expm1(-channel.mu_weak * channel.survival_probability)
    d = channel.dark_count_prob
    channels = (1, 2) if mode in ("parallel", "hybrid_parallel") else (1,)
    assisted = mode in ("hybrid", "hybrid_parallel")
    erasure, wrong = _meso_law(channel) if assisted else (0.0, 0.0)
    conclusive = kept = errors = 0.0
    for ch, (a, b, c), flip in itertools.product(channels, itertools.product((0, 1), repeat=3), (0, 1)):
        share = flipped if flip else 1 - flipped
        t = float(split_upper_probability(PLAN, FIBER, ch, a * np.pi / 2 + b * np.pi - (c ^ flip) * np.pi / 2))
        upper_bit = 0 if split_upper_probability(PLAN, FIBER, ch, 0.0) >= 0.5 else 1
        upper_only = (1 - d) * (p * t + (1 - p) * d)
        lower_only = (1 - d) * (p * (1 - t) + (1 - p) * d)
        wrong_only = lower_only if b == upper_bit else upper_only
        if assisted:  # (a, b) uniform; c given a follows the meso decode
            on_usable = 1 - wrong if c == a else wrong
            conclusive += share * ((1 - erasure) * on_usable + erasure / 2) * (upper_only + lower_only) / 4
            kept += share * on_usable * (upper_only + lower_only) / 4
            errors += share * on_usable * wrong_only / 4
        else:  # (a, b, c) uniform; matched bases are kept
            conclusive += share * (upper_only + lower_only) / 8
            if c == a:
                kept += share * (upper_only + lower_only) / 8
                errors += share * wrong_only / 8
    return conclusive / len(channels), kept / len(channels), errors / kept, p * d + (1 - p) * d * d


def _weak_pool(channel: ChannelModel, mode: str, run, fault: float = 0.0) -> np.ndarray:
    """(conclusive, slots, sifted, usable, errors, double clicks) summed over the seed pool and channels.

    ``run`` is ``run_session`` or ``reference_run_session``, the per-slot
    session of layout 5.
    """
    totals = np.zeros(6, dtype=np.int64)
    for seed in WEAK_SEEDS:
        cfg = config(mode=mode, slots=WEAK_SLOTS, seed=seed, channel=channel, basis_flip_fault_fraction=fault)
        report = run(cfg)
        slots = report.slots * len(report.per_channel)
        errors = sum(round(c.qber * c.sifted_bits) for c in report.per_channel)
        totals += (
            report.raw_detections,
            slots,
            report.sifted_bits,
            slots - report.meso_erasures,
            errors,
            report.double_click_erasures,
        )
    return totals


def _pool_z(law, engine: np.ndarray, reference: np.ndarray) -> dict:
    """z of each pool's fractions (conclusive, sifted, error, double click) against the law, and of the
    engine's pool against the reference's."""
    z = {}
    for name, (conclusive, slots, kept, usable, errors, double) in (("engine", engine), ("reference", reference)):
        z[f"conclusive, {name} vs law"] = _z_law(conclusive, slots, law[0])
        z[f"sifted, {name} vs law"] = _z_law(kept, usable, law[1])
        z[f"error, {name} vs law"] = _z_law(errors, kept, law[2])
        z[f"double click, {name} vs law"] = _z_law(double, slots, law[3])
    (c1, n1, k1, u1, e1, d1), (c2, n2, k2, u2, e2, d2) = engine, reference
    z["conclusive vs reference"] = _z_two_sample(c1, n1, c2, n2)
    z["sifted vs reference"] = _z_two_sample(k1, u1, k2, u2)
    z["error vs reference"] = _z_two_sample(e1, k1, e2, k2)
    z["double click vs reference"] = _z_two_sample(d1, n1, d2, n2)
    return z


#: Lossless, lossy and dark-count links at both weak intensities.  The
#: per-slot reference draws the weak clicks of the 70-km and 100-km links
#: (p = 0.05 and 0.005) as a count and a subset of slots, the others one
#: uniform per slot.
WEAK_CHANNELS = {
    "lossless": IDEAL,
    "lossless-dark": ChannelModel(mu_weak=1.3, dark_count_prob=0.02),
    "lossy-70km": ChannelModel(length_km=70, mu_weak=1.3),
    "dark-70km": ChannelModel(length_km=70, dark_count_prob=0.05),
    "longhaul-100km": ChannelModel(length_km=100, dark_count_prob=1e-5),
}
WEAK_SEEDS = range(8)
WEAK_SLOTS = 20_000

@pytest.mark.parametrize("fault", (0.0, 0.3))
@pytest.mark.parametrize("mode", protocol.MODES)
@pytest.mark.parametrize("name", sorted(WEAK_CHANNELS))
def test_weak_layout6_agrees_with_law_and_layout5(name, mode, fault):
    """The engine draws a weak channel's counts per slot class (layout 6), the reference one outcome per slot
    (layout 5): both agree with ``_weak_law`` and with each other."""
    law = _weak_law(WEAK_CHANNELS[name], mode, round(fault * WEAK_SLOTS) / WEAK_SLOTS)
    engine = _weak_pool(WEAK_CHANNELS[name], mode, run_session, fault)
    z = _pool_z(law, engine, _weak_pool(WEAK_CHANNELS[name], mode, reference_run_session, fault))
    assert 0 < law[0] < 1 and 0 < law[1] < 1
    assert all(abs(v) < 3 for v in z.values()), z


class _RecordingRng:
    """A generator that records each draw as (role, method, positional args)."""

    def __init__(self, role, rng, calls):
        self._role, self._rng, self._calls = role, rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def record(*args, **kwargs):
            self._calls.append((self._role, name, args))
            return method(*args, **kwargs)

        return record


def _field_calls(p: float, slots: int) -> list[str]:
    """The calls of one click field over ``slots`` slots with probability p."""
    if p == 0:
        return []
    if SPARSE_CLICK_PROB < p < 1 - SPARSE_CLICK_PROB:
        return ["random"] * -(-slots // CLICK_BLOCK)
    return ["binomial", "choice"]


#: Links that put the meso fields in each regime: dark count-and-subset
#: with meso blocks at 50 km; the meso quiet slots on the lossless link;
#: dark quiet slots at d = 0.95; and the lossless link at d = 0, where no
#: meso dark stream is built.
DRAW_CHANNELS = (
    ChannelModel(length_km=50, dark_count_prob=0.01),
    ChannelModel(mu_weak=1.3, dark_count_prob=0.5),
    ChannelModel(length_km=20, dark_count_prob=0.95),
    IDEAL,
)


def _mode_roles(mode: str, dark: bool) -> list[str]:
    """The roles a session of ``mode`` reads: each channel's class draws and bases, or R and the meso leg.

    The meso dark roles only with ``dark``: at d = 0 no detector reads them.
    """
    channels = (1, 2) if mode in ("parallel", "hybrid_parallel") else (1,)
    roles = [f"weak_counts_ch{ch}" for ch in channels]
    if mode in ("hybrid", "hybrid_parallel"):
        meso_dark = ["meso_dark_transmit", "meso_dark_reflect"] if dark else []
        return roles + ["r_entropy", "meso_channel", *meso_dark]
    return roles + [f"{party}_bases_ch{ch}" for ch in channels for party in ("alice", "bob")]


@pytest.mark.parametrize("mode", protocol.MODES)
def test_session_draws_follow_layout6(mode, monkeypatch):
    """Layout 6: one byte draw per bases role and R, the meso click fields in their regimes, and on each
    ``weak_counts_ch*`` role one multinomial draw over the 8 slot classes and nothing else.

    Each role the mode reads is built once, where it is read: a second
    build would restart its stream and repeat its draws.
    """
    assert protocol.STREAM_LAYOUT == 6
    slots = 2 * CLICK_BLOCK + 1001  # three blocks
    stream = protocol._stream
    channels = (1, 2) if mode in ("parallel", "hybrid_parallel") else (1,)
    assisted = mode in ("hybrid", "hybrid_parallel")
    for channel, fault in itertools.product(DRAW_CHANNELS, (0.0, 0.3)):
        calls, built = [], []

        def recording(seed, role):
            built.append(role)
            return _RecordingRng(role, stream(seed, role), calls)

        monkeypatch.setattr(protocol, "_stream", recording)
        run_session(config(mode=mode, slots=slots, channel=channel, basis_flip_fault_fraction=fault))
        dark = channel.dark_count_prob > 0
        assert sorted(built) == sorted(_mode_roles(mode, dark)), (channel, built)
        if mode == "baseline_bb84":  # no r_entropy, meso_* or *_ch2
            assert sorted(built) == ["alice_bases_ch1", "bob_bases_ch1", "weak_counts_ch1"]
        draws = {}
        for role, name, args in calls:
            draws.setdefault(role, []).append((name, args))
        assert set(draws) == set(built), (channel, draws.keys())
        for ch in channels:
            ((name, (counts, pvals)),) = draws.pop(f"weak_counts_ch{ch}")
            assert name == "multinomial" and counts.shape == (2, 2, 2) and pvals.shape == (2, 2, 2, 8)
            assert counts.sum() == slots
        names = {role: [name for name, _ in role_draws] for role, role_draws in draws.items()}
        expected = {}
        if assisted:
            meso_slots = len(channels) * slots
            p_meso = -np.expm1(-channel.alpha_sq_meso * channel.survival_probability)
            expected["meso_channel"] = _field_calls(p_meso, meso_slots)
            meso_dark = _field_calls(channel.dark_count_prob, meso_slots)
            expected |= {"meso_dark_transmit": meso_dark, "meso_dark_reflect": meso_dark}
        clicks = {role: names.get(role, []) for role in expected}
        assert clicks == expected, (channel, clicks)
        other = {role: role_draws for role, role_draws in draws.items() if role not in expected}
        assert all(len(role_draws) == 1 for role_draws in other.values()), other  # one array per role and session
        assert {name for ((name, args),) in other.values()} == {"integers"}
        bits = {"r_entropy": len(channels) * slots}  # the bases roles draw one bit per slot
        assert {role: args for role, ((name, args),) in other.items()} == {
            role: (0, 256, -(-bits.get(role, slots) // 8)) for role in other
        }


@pytest.mark.parametrize("seed", (0, 7, 2**64 - 1))
def test_stream_is_its_roles_spawned_child(seed):
    """``_stream(seed, role)`` draws as child i of ``SeedSequence(seed).spawn(len(_ROLES))``."""
    children = np.random.SeedSequence(seed).spawn(len(protocol._ROLES))
    for role, child in zip(protocol._ROLES, children, strict=True):
        got, want = protocol._stream(seed, role), np.random.default_rng(child)
        assert got.bit_generator.state == want.bit_generator.state, role
        for draw in (lambda rng: rng.integers(0, 256, 64, dtype=np.uint8), lambda rng: rng.random(16)):
            assert np.array_equal(draw(got), draw(want)), role


#: sha256 of ``json.dumps(report.to_dict(), sort_keys=True)`` of
#: ``run_session`` at seed 7 and 2000 slots on each ``GOLDEN_CHANNELS`` link,
#: in stream layout 6.  They pin every number a session reports.  A change
#: that moves one changes what a scenario produces: it must bump
#: ``protocol.STREAM_LAYOUT`` (or rename the changed field) and give the
#: reason in CHANGES.md.
GOLDEN_DIGESTS = {
    "default": {
        "baseline_bb84": "b7ec0a2c779e51e4a2e3139686880fe4ef8327ef87426b4a961643222d52c96d",
        "hybrid": "f2bab838a28ad18de37464cbe57d2349225e71c7b02e88af5140107ac91c0f2f",
        "parallel": "4a6620e1e712be7ac554c40d7316c29fc27f2a6793d106213e7ab9b7649d0049",
        "hybrid_parallel": "ef921b053c464aaf5d03018efc5a8effbb4b1e72d068236574f948c1ead37fec",
    },
    "longhaul": {
        "baseline_bb84": "52f0026a0bd0f4eb8cdd228c6219749caa4cec9e782bf5d781a917b726e7ebe4",
        "hybrid": "1d945b96b742ce5d44371b699c842d8c02163fe8326b66675f18e3cb12df8048",
        "parallel": "1c184f0bc4c9c511d8fd389ddc907147d5ab5c18ce911817482270b7445a57a6",
        "hybrid_parallel": "b005d314baee0dfd93c6913f4292f100a614775f60a7e9fc28edb4df5d58c63c",
    },
    "dark": {
        "baseline_bb84": "0d5b436667c52304dc3583ca6e9908f4eeb49771261b28b84c56494a002f184d",
        "hybrid": "8d84b4d7a4b5605c231fdcd58169eb30d482869934715ecfa90a004ef7940f9a",
        "parallel": "7e561a1973db4ae5c02b7e5028068592727d178032607efd1cc202f4ce27ac1b",
        "hybrid_parallel": "548ede9b963569feed18487b6d1c8f2635aad581a8fe28d45f4013e34c268aba",
    },
    "dense-dark": {
        "baseline_bb84": "c6e6e3bf546f6dc2b566cc56ed2c5c4c244a2b8ba968702792ad6853044b348b",
        "hybrid": "ca53e32facc5212801b736c3565f2ea2169e5abacb52585c5025faac1405cac6",
        "parallel": "6c5931e48fdd9e6ed432db2737d03e302a50b2a7154b4cd8bf876d6b963b0c1f",
        "hybrid_parallel": "f371a73cf7c3d4834c83ddfeceb2df5641f2b1cfc76a709a63f4b322509c414b",
    },
}

#: The same digests of ``reference_run_session``, the per-slot reference in
#: stream layout 5, on the first three links.  They pin the reference that
#: the seed-pool gates compare the engine with.  It shares only
#: ``protocol._stream``, K' and the split law with the package, so a change
#: to the session's own draws leaves them.  One moves only when the
#: reference or one of those three changes, and must say why in CHANGES.md.
LAYOUT5_DIGESTS = {
    "default": {
        "baseline_bb84": "95d5ec9418929d44443f81218733d08730128c6a333467d2c2c0684f2d3a6927",
        "hybrid": "50adf381c83a182b3f93c6297521787a9291d00f3a4ddc205becf8177eb58b3a",
        "parallel": "3c4b882c7c9d88a3b18f04e28f3dccbeb298c04803cc253a3dea5b770a9d5c7d",
        "hybrid_parallel": "066afe2a1846d3b48b24a361575ae8f53c45eabffcc382591b8d5435d5839308",
    },
    "longhaul": {
        "baseline_bb84": "07e49b6f8c3a92f49ab4a786c67cf494c5d290544fa68e5d1db5d3b19cb97475",
        "hybrid": "c3b2d948e4fa4807ed077634ddd6e68d9fb782f20108bc050452391fe9e6f293",
        "parallel": "d200473fb758fb62e534aa913ab7599f792704d15ba71624e6687c60b36fde25",
        "hybrid_parallel": "7ab6716d3ea8b184d7ae4e540219c380e8331bf171c50cf713c759c8a6c55047",
    },
    "dark": {
        "baseline_bb84": "c2ad78f5926781be3145374ef553ece889c8af1316c84548f59cf3b1d82ac2ab",
        "hybrid": "e9304a7716cdb8c467718709937c67bcb57f0c52de4483116b605eb07f71ba13",
        "parallel": "d30a2f4a9ef0b8c84fbc397701edae8eaa0616bacba58d310cdb12c3cecc6e84",
        "hybrid_parallel": "36d587a27948f459621477f6cd6ec56b518d1815bb098ff6dae525b4911ef27a",
    },
}
GOLDEN_CHANNELS = {
    "default": IDEAL,
    "longhaul": ChannelModel(length_km=100, dark_count_prob=1e-5),
    "dark": ChannelModel(length_km=20, dark_count_prob=0.02),
    "dense-dark": ChannelModel(dark_count_prob=0.5),
}


@pytest.mark.parametrize("channel", sorted(GOLDEN_DIGESTS))
@pytest.mark.parametrize("mode", ("baseline_bb84", "hybrid", "parallel", "hybrid_parallel"))
def test_report_matches_golden_digest(mode, channel):
    report = run_session(config(mode=mode, seed=7, slots=2000, channel=GOLDEN_CHANNELS[channel]))
    digest = hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_DIGESTS[channel][mode]


@pytest.mark.parametrize("channel", sorted(LAYOUT5_DIGESTS))
@pytest.mark.parametrize("mode", protocol.MODES)
def test_layout5_reference_reproduces_layout5_sessions(mode, channel):
    report = reference_run_session(config(mode=mode, seed=7, slots=2000, channel=GOLDEN_CHANNELS[channel]))
    digest = hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()
    assert digest == LAYOUT5_DIGESTS[channel][mode]


@pytest.mark.parametrize("slots", (3, 2001))
@pytest.mark.parametrize("m_bases", (2, 8, 256, 2**12, 2**16))
@pytest.mark.parametrize("channel", sorted(GOLDEN_CHANNELS))
def test_packed_meso_leg_equals_the_per_slot_reference(channel, m_bases, slots):
    """The packed meso leg gives the per-slot one's decode and erasures, bit for bit.

    Words of 1, 3 and 12 bits share bytes; words of 8 and 16 bits are whole
    bytes.  Neither slot count is a whole number of bytes, and the bits past
    the last slot must be zero, as ``np.packbits`` pads them.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SecurityConditionWarning)  # alpha_sq >= M at M = 2 and 8
        link = dataclasses.replace(GOLDEN_CHANNELS[channel], m_bases=m_bases)
    cfg = config(mode="hybrid", seed=7, slots=slots, channel=link)
    r = ks.random_bytes(protocol._stream(cfg.seed, "r_entropy"), slots)
    bits, erased = protocol._meso_leg(cfg, r, slots)
    decoded = ref.meso_leg(cfg, np.unpackbits(r, count=slots))
    np.testing.assert_array_equal(bits, np.packbits(decoded.bits))
    np.testing.assert_array_equal(erased, np.packbits(decoded.erasure))


def _mask_bits(report) -> tuple[np.ndarray, int]:
    """The published erasure mask unpacked, and its length in interleaved slots (0 in the sifted modes)."""
    mask = report.public_transcript.get("erasure_mask_hex", "")
    length = report.slots * len(report.per_channel) if mask else 0
    return np.unpackbits(np.frombuffer(bytes.fromhex(mask), dtype=np.uint8)), length


#: (erasure count, sha256 of ``json.dumps`` of the index list) that the
#: long-haul golden sessions published as ``erasure_slots`` before the
#: transcript became a bitmask, at seed 7; 2001 slots leave 6 padding bits.
ERASURE_LISTS = {
    ("hybrid", 2000): (1587, "b49195ecad029b2c1c6dd291c5c8f6e76f8d328783aa7cfb2901d39554393a2e"),
    ("hybrid_parallel", 2000): (3155, "1226c799ab9624d3d4b766ce98e24ff1c47ee74d228c067d45d9f3bdf3b74fa4"),
    ("hybrid_parallel", 2001): (3157, "ca98518c9222983cf9713d48463af9495b6f3a44bea0d1d75403726736165610"),
}


@pytest.mark.parametrize("mode, slots", sorted(ERASURE_LISTS))
def test_erasure_mask_decodes_to_the_index_list(mode, slots):
    report = run_session(config(mode=mode, seed=7, slots=slots, channel=GOLDEN_CHANNELS["longhaul"]))
    bits, length = _mask_bits(report)
    indices = np.flatnonzero(bits[:length]).tolist()
    count, digest = ERASURE_LISTS[(mode, slots)]
    assert len(indices) == count
    assert hashlib.sha256(json.dumps(indices).encode()).hexdigest() == digest


@pytest.mark.parametrize("channel", sorted(GOLDEN_CHANNELS))
@pytest.mark.parametrize("mode", protocol.MODES)
def test_erasure_mask_counts_the_meso_erasures(mode, channel):
    report = run_session(config(mode=mode, seed=7, slots=2001, channel=GOLDEN_CHANNELS[channel]))
    bits, length = _mask_bits(report)
    assert len(bits) == -(-length // 8) * 8
    assert int(bits.sum()) == report.meso_erasures
    assert not bits[length:].any()
