"""Session engine: detection law, sifting, rate multipliers, determinism."""
import dataclasses
import hashlib
import json

import numpy as np
import pytest

from hpqkd.optics import ModulationPlan, OpticsNotTunedError, tuned_fiber
from hpqkd.protocol import (
    ChannelModel,
    SecurityConditionWarning,
    SessionConfig,
    compute_qber,
    detection_split,
    run_baseline_bb84,
    run_hybrid,
    run_hybrid_parallel,
    run_parallel,
    run_session,
)

PLAN = ModulationPlan()
FIBER = tuned_fiber(PLAN)
IDEAL = ChannelModel()  # no loss, unit efficiency, no dark counts


def config(mode="baseline_bb84", slots=10_000, seed=42, channel=IDEAL, plan=PLAN, fiber=FIBER, **kw):
    return SessionConfig(
        mode=mode, num_slots=slots, channel=channel, plan=plan, fiber=fiber, seed=seed, **kw
    )


class TestChannelModel:
    def test_survival_combines_loss_and_efficiency(self):
        ch = ChannelModel(length_km=50, loss_db_per_km=0.2, detector_efficiency=0.1)
        assert ch.survival_probability == pytest.approx(0.1 * 10 ** (-1.0))

    def test_security_condition_warning(self):
        with pytest.warns(SecurityConditionWarning):
            ChannelModel(alpha_sq_meso=25.0, m_bases=16)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelModel(detector_efficiency=1.5)
        with pytest.raises(ValueError):
            ChannelModel(mu_weak=-0.1)
        with pytest.raises(ValueError):
            ChannelModel(m_bases=12)

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

    def test_runner_rejects_other_modes(self):
        with pytest.raises(ValueError):
            run_hybrid(config(mode="baseline_bb84"))
        with pytest.raises(ValueError):
            run_baseline_bb84(config(mode="hybrid"))


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

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_qber([], [], [])
        with pytest.raises(ValueError):
            compute_qber([0, 1], [0], [True, True])
        with pytest.raises(ValueError):
            compute_qber([0, 1], [0, 1], [False, False])


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


class TestBaseline:
    def test_sifted_fraction_is_half_of_detections(self):
        report = run_baseline_bb84(config(seed=7))
        fraction = report.sifted_bits / report.raw_detections
        sigma = np.sqrt(0.25 / report.raw_detections)
        assert abs(fraction - 0.5) <= 3 * sigma

    def test_ideal_channel_qber_zero(self):
        report = run_baseline_bb84(config(seed=8))
        assert report.qber == 0.0

    def test_dark_count_only_clicks_give_half_qber(self):
        ch = ChannelModel(mu_weak=0.0, dark_count_prob=1e-3)
        report = run_baseline_bb84(config(seed=9, slots=100_000, channel=ch))
        assert report.sifted_bits > 30
        assert abs(report.qber - 0.5) <= 3 * np.sqrt(0.25 / report.sifted_bits)

    def test_report_count_invariants(self):
        report = run_baseline_bb84(config(seed=10))
        assert report.sifted_bits <= report.raw_detections <= report.slots
        assert 0 <= report.qber <= 1
        assert report.rate_ratio_vs_baseline == 1.0

    def test_transcript_announces_bases(self):
        report = run_baseline_bb84(config(seed=11, slots=64))
        assert "announced_bases" in report.public_transcript
        assert "alice_ch1" in report.public_transcript["announced_bases"]

    def test_basis_flip_fault_raises_qber_by_half_fraction(self):
        fault = 0.2
        report = run_baseline_bb84(config(seed=12, basis_flip_fault_fraction=fault))
        expected = fault / 2
        sigma = np.sqrt(expected * (1 - expected) / report.sifted_bits)
        assert abs(report.qber - expected) <= 3 * sigma


class TestHybrid:
    def test_rate_doubles_baseline(self):
        baseline = run_baseline_bb84(config(seed=13))
        hybrid = run_hybrid(config(mode="hybrid", seed=13))
        ratio = hybrid.useful_rate_bits_per_slot / baseline.useful_rate_bits_per_slot
        assert abs(ratio - 2.0) <= 3 * 2.0 * 0.03  # ~3% rate cv at 1e4 slots
        assert hybrid.qber == 0.0

    def test_bases_always_agree(self):
        report = run_hybrid(config(mode="hybrid", seed=14))
        assert report.per_channel[0].basis_agreement == 1.0

    def test_erasures_negligible_at_bright_meso(self):
        report = run_hybrid(config(mode="hybrid", seed=15))
        assert report.meso_erasures / report.slots < 1e-3

    def test_transcript_hides_bases(self):
        report = run_hybrid(config(mode="hybrid", seed=16, slots=256))
        assert "announced_bases" not in report.public_transcript
        assert set(report.public_transcript) == {"erasure_slots"}


class TestParallel:
    def test_rate_doubles_baseline(self):
        baseline = run_baseline_bb84(config(seed=17))
        parallel = run_parallel(config(mode="parallel", seed=17))
        ratio = parallel.useful_rate_bits_per_slot / baseline.useful_rate_bits_per_slot
        assert abs(ratio - 2.0) <= 3 * 2.0 * 0.03
        assert parallel.qber == 0.0
        assert {c.channel for c in parallel.per_channel} == {1, 2}

    def test_requires_tuned_link(self):
        detuned = dataclasses.replace(FIBER, length_m=FIBER.length_m * 1.02)
        with pytest.raises(OpticsNotTunedError):
            run_parallel(config(mode="parallel", seed=18, fiber=detuned))

    def test_disabled_second_channel_reduces_to_baseline(self):
        plan = dataclasses.replace(PLAN, m2=0.0, m4=0.0)
        baseline = run_baseline_bb84(config(seed=19, plan=plan))
        parallel = run_parallel(config(mode="parallel", seed=19, plan=plan))
        ch2 = parallel.per_channel[1]
        assert ch2.raw_detections == 0 and ch2.sifted_bits == 0
        ratio = parallel.useful_rate_bits_per_slot / baseline.useful_rate_bits_per_slot
        assert abs(ratio - 1.0) <= 3 * 0.03

    def test_transcript_announces_both_channels(self):
        report = run_parallel(config(mode="parallel", seed=20, slots=128))
        assert "alice_ch2" in report.public_transcript["announced_bases"]


class TestHybridParallel:
    def test_rate_quadruples_baseline(self):
        baseline = run_baseline_bb84(config(seed=21))
        quad = run_hybrid_parallel(config(mode="hybrid_parallel", seed=21))
        ratio = quad.useful_rate_bits_per_slot / baseline.useful_rate_bits_per_slot
        assert abs(ratio - 4.0) <= 3 * 4.0 * 0.03
        for channel_report in quad.per_channel:
            per = channel_report.useful_rate_bits_per_slot / baseline.useful_rate_bits_per_slot
            assert abs(per - 2.0) <= 3 * 2.0 * 0.035

    def test_multiplier_survives_loss(self):
        lossy = ChannelModel(length_km=50, loss_db_per_km=0.2, detector_efficiency=0.1, mu_weak=0.5)
        baseline = run_baseline_bb84(config(seed=22, channel=lossy, slots=200_000))
        quad = run_hybrid_parallel(config(mode="hybrid_parallel", seed=22, channel=lossy, slots=200_000))
        ratio = quad.useful_rate_bits_per_slot / baseline.useful_rate_bits_per_slot
        cv = np.sqrt(1 / baseline.sifted_bits + 1 / quad.sifted_bits)
        assert abs(ratio - 4.0) <= 3 * 4.0 * cv

    def test_transcript_hides_bases(self):
        report = run_hybrid_parallel(config(mode="hybrid_parallel", seed=23, slots=256))
        assert "announced_bases" not in report.public_transcript


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
        a = run_baseline_bb84(config(seed=26, slots=2000))
        b = run_baseline_bb84(config(seed=27, slots=2000))
        assert a.sifted_bits != b.sifted_bits or a.qber != b.qber or a.to_dict() != b.to_dict()

    def test_ratio_field_self_consistent(self):
        report = run_hybrid(config(mode="hybrid", seed=28))
        assert abs(report.rate_ratio_vs_baseline - 2.0) <= 3 * 2.0 * 0.045


#: sha256 of ``json.dumps(report.to_dict(), sort_keys=True)`` at seed 7 and
#: 2000 slots.  A change that alters any of these changes the numbers a
#: scenario produces, and must say so and bump a stream-layout id.
GOLDEN_DIGESTS = {
    "default": {
        "baseline_bb84": "89eaa68cbe02497a9c1c94d3e766a05b31c3ca95c1b403f8d1dd9cbf89eba3c4",
        "hybrid": "7f3e09d12a6b55f8b049c2997668cfa7589dc10d573979f6753bf5825c8c8481",
        "parallel": "62f3a245975cc96c42504223888445da6892f2321ba85ef11de44dc4b736c60f",
        "hybrid_parallel": "8b3395e4c5382d740971e6db9caefa15c197bca4569ddceae4e7abbd1432db6a",
    },
    "longhaul": {
        "baseline_bb84": "027f07ef99eb3a0dfd7d9c95e87150ed10b716e41606abc3247c8e4ef7ea4dc9",
        "hybrid": "29f829deb29ee8484b52f4b3c2081f8266875473e63ebb28921009d90b3d1736",
        "parallel": "5ce89b2a1a4014d3cb5709d51bbffd3050c8f44ebb998ecdfb1470ed05f534aa",
        "hybrid_parallel": "3af27253087b5851ae892ace03da82f177232ef6d16af432991641d3963716ee",
    },
}
GOLDEN_CHANNELS = {"default": IDEAL, "longhaul": ChannelModel(length_km=100, dark_count_prob=1e-5)}


@pytest.mark.parametrize("channel", sorted(GOLDEN_DIGESTS))
@pytest.mark.parametrize("mode", ("baseline_bb84", "hybrid", "parallel", "hybrid_parallel"))
def test_report_matches_golden_digest(mode, channel):
    report = run_session(config(mode=mode, seed=7, slots=2000, channel=GOLDEN_CHANNELS[channel]))
    digest = hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_DIGESTS[channel][mode]
