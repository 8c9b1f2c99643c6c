"""Adversary models: brute-force identification, amplifier attack, PNS tails."""
import copy
import dataclasses
import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpqkd.attacks import (
    _TIE_JITTER,
    _TRIAL_BLOCK,
    MAX_ATTACK_M_BASES,
    STREAM_LAYOUT,
    AnomalyVerdict,
    PnsModel,
    amplifier_attack,
    attack_success_curve,
    bob_anomaly_monitor,
    estimate_success,
    pns_exploitable_fraction,
    _identify,
)
from hpqkd.polarization import DetectionCounts, TwoModeCoherentState


def _grid(m: int) -> np.ndarray:
    """The M candidate polarizations k*pi/M, tiling [0, pi)."""
    return np.arange(m) * np.pi / m


def brute_force_identify(index: int, m: int, signal_mean: float, rng) -> SimpleNamespace:
    """One trial of the batched kernel on candidate ``index``, its outcome fields as scalars."""
    batch = _identify(np.array([index]), m, signal_mean, rng)
    return SimpleNamespace(**{f.name: getattr(batch, f.name)[0] for f in dataclasses.fields(batch)})


class TestConfig:
    def test_default_angles_tile_half_turn(self):
        # A bright pulse at every candidate is identified, so the estimates are the grid itself.
        batch = _identify(np.arange(8), 8, 1e4, np.random.default_rng(9))
        assert batch.success.all()
        angles = batch.estimated_angle
        assert angles[0] == 0.0
        assert np.allclose(np.diff(angles), np.pi / 8)
        assert angles[-1] < np.pi


class TestBruteForce:
    def test_requires_two_candidates(self):
        for m in (1, MAX_ATTACK_M_BASES + 1):
            with pytest.raises(ValueError, match="m_bases must be in"):
                estimate_success(1.0, m, 100, np.random.default_rng(0))

    @given(m=st.integers(2, 24), a_sq=st.floats(0.0, 64.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_cases_partition_the_subpulses(self, m, a_sq, seed):
        outcome = brute_force_identify(seed % m, m, a_sq, np.random.default_rng(seed))
        assert outcome.case_both + outcome.case_none + outcome.case_one == m

    def test_vacuum_gives_no_information(self):
        m = 8
        rng = np.random.default_rng(3)
        outcomes = [brute_force_identify(2, m, 0.0, rng) for _ in range(3000)]
        assert all(o.case_none == m for o in outcomes)
        rate = np.mean([o.success for o in outcomes])
        assert abs(rate - 1 / m) <= 3 * np.sqrt((1 / m) * (1 - 1 / m) / 3000)
        assert all(o.estimated_angle in _grid(m) for o in outcomes)

    def test_subpulse_energy_accounting(self):
        # Equal splitting puts exactly |alpha|^2 / M photons in each sub-pulse,
        # so the silent-sub-pulse fraction must match exp(-|alpha|^2 / M).
        m = 8
        rng = np.random.default_rng(4)
        alpha_sq = 4.0
        trials = 3000
        silent = np.mean([brute_force_identify(3, m, alpha_sq, rng).case_none for _ in range(trials)]) / m
        expected = np.exp(-alpha_sq / m)
        assert abs(silent - expected) <= 3 * np.sqrt(expected * (1 - expected) / (trials * m))

    def test_rich_pulse_identified_reliably(self):
        m = 16
        rng = np.random.default_rng(5)
        hits = 0
        trials = 300
        for _ in range(trials):
            hits += brute_force_identify(rng.integers(0, m), m, 64.0 * m, rng).success
        assert hits / trials >= 0.99

    def test_starved_pulse_defeats_identification(self):
        m = 16
        rng = np.random.default_rng(6)
        point = estimate_success(m / 16, m, 500, rng)
        # Reference bound at the starved point: at most 2/M plus sampling slack.
        assert point.success_rate <= 2 / m + 5 * point.stderr

    def test_success_compares_exact_state(self):
        outcome = brute_force_identify(1, 4, 1e4, np.random.default_rng(9))
        assert outcome.success
        assert outcome.estimated_angle == pytest.approx(np.pi / 4)


def _reference_identify(theta, m, signal_mean, rng):
    """Scalar reference for ``_identify``.

    Replays the layout-2 draws by hand (transmit counts, reflect counts,
    jitter, fallback indices), then scores every trial on its own as the
    per-trial identification did before batching: fewest vetoing photons
    first (a photon where the hypothesis predicts a dark arm), then the
    highest log-likelihood plus jitter; no single click means the fallback.
    """
    angles = _grid(m)
    n = len(theta)
    sub_mean = signal_mean / m
    delta = theta[:, None] - angles
    counts_t = rng.poisson(sub_mean * np.cos(delta) ** 2)
    counts_r = rng.poisson(sub_mean * np.sin(delta) ** 2)
    jitter = rng.uniform(0.0, _TIE_JITTER, (n, m))
    fallback = rng.integers(0, m, n)

    cos2 = np.cos(angles[:, None] - angles[None, :]) ** 2
    mean_t = sub_mean * cos2
    mean_r = sub_mean * (1 - cos2)
    log_t = np.log(np.where(mean_t > 0, mean_t, 1.0))
    log_r = np.log(np.where(mean_r > 0, mean_r, 1.0))
    dark_t, dark_r = (mean_t == 0).astype(float), (mean_r == 0).astype(float)
    estimates = []
    for i in range(n):
        both = (counts_t[i] > 0) & (counts_r[i] > 0)
        none = (counts_t[i] == 0) & (counts_r[i] == 0)
        one = ~(both | none)
        if not one.any():
            estimates.append(angles[fallback[i]])
            continue
        vetoes = dark_t @ counts_t[i] + dark_r @ counts_r[i]
        scores = log_t @ counts_t[i] + log_r @ counts_r[i] + jitter[i]
        scores = np.where(one & (vetoes == vetoes[one].min()), scores, -np.inf)
        estimates.append(angles[int(np.argmax(scores))])
    return np.array(estimates)


@pytest.mark.parametrize(
    "m", list(range(2, 65)) + [2**k for k in range(7, MAX_ATTACK_M_BASES.bit_length())]
)
def test_only_dark_arm_is_each_candidates_own_reflect_arm(m):
    """Without dark counts, the arms a candidate on the grid k*pi/M predicts
    dark are exactly its own reflect arm, which is all ``_identify`` counts
    as vetoes.  The means are those of ``_reference_identify``.
    """
    angles = _grid(m)
    cos2 = np.cos(angles[:, None] - angles[None, :]) ** 2
    for signal_mean in (1.0, 1e-3, 1e-12):
        assert not (signal_mean * cos2 == 0).any()
        np.testing.assert_array_equal(signal_mean * (1 - cos2) == 0, np.eye(m, dtype=bool))


class TestStreamLayout:
    # Each id ends in the attacker's dark-count mean, which is always 0.0.
    @pytest.mark.parametrize("m", [2, 3, 8, 64, MAX_ATTACK_M_BASES], ids="{}-0.0".format)
    def test_batched_kernel_matches_scalar_reference(self, m):
        rng = np.random.default_rng([m, 0])
        trials = 300 if m <= 64 else 50  # the scalar reference costs O(M^2) per trial
        for ratio in (0.0, 1 / 16, 1.0, 4.0, 64.0):
            index = rng.integers(0, m, trials)
            theta = _grid(m)[index]
            replay = copy.deepcopy(rng)
            batch = _identify(index, m, ratio * m, rng)
            expected = _reference_identify(theta, m, ratio * m, replay)
            np.testing.assert_array_equal(batch.estimated_angle, expected)
            np.testing.assert_array_equal(batch.success, expected == theta)
            np.testing.assert_array_equal(batch.case_both + batch.case_none + batch.case_one, m)
            assert rng.bit_generator.state == replay.bit_generator.state

    @pytest.mark.parametrize("m", [2, 3, 8, 64, MAX_ATTACK_M_BASES])
    def test_poisson_means_equal_the_reference_means(self, m):
        # Means one ulp apart almost always draw the same counts, so the
        # digests cannot tell them apart: compare the means themselves.
        rng = np.random.default_rng([m, 1])
        index = rng.integers(0, m, 200)
        means = []
        recorder = SimpleNamespace(
            poisson=lambda lam: means.append(lam) or rng.poisson(lam), uniform=rng.uniform, integers=rng.integers
        )
        _identify(index, m, 3.0 * m, recorder)
        delta = _grid(m)[index][:, None] - _grid(m)  # as ``_reference_identify`` draws them
        sub_mean = 3.0 * m / m
        assert len(means) == 2
        np.testing.assert_array_equal(means[0], sub_mean * np.cos(delta) ** 2)
        np.testing.assert_array_equal(means[1], sub_mean * np.sin(delta) ** 2)

    @pytest.mark.parametrize("trials", [100, 2 * _TRIAL_BLOCK + 1])
    def test_estimate_success_draws_in_blocks(self, trials):
        m, alpha_sq = 8, 8.0
        rng = np.random.default_rng(11)
        replay = copy.deepcopy(rng)
        point = estimate_success(alpha_sq, m, trials, rng)
        hits = 0
        for start in range(0, trials, _TRIAL_BLOCK):
            theta = _grid(m)[replay.integers(0, m, min(_TRIAL_BLOCK, trials - start))]
            hits += int(np.sum(_reference_identify(theta, m, alpha_sq, replay) == theta))
        assert point.success_rate == hits / trials
        assert rng.bit_generator.state == replay.bit_generator.state


#: sha256 of ``attack_success_curve`` as JSON under stream layout 2, per
#: (M, trials); the second case ends on a partial block.  A new digest means
#: the sweep consumes its streams differently: bump ``STREAM_LAYOUT``.
SWEEP_GOLDEN_DIGESTS = {
    (64, 1000): "ca5234bbb286da9beaff1aa63281de9f5ddde5a938c9cefe39806b03f879df86",
    (8, 2 * _TRIAL_BLOCK + 1): "0635fc417e26d954244cee02e3bf3a44f8f913813702963e1ba96ae58be4f1ec",
}


@pytest.mark.parametrize("m, trials", sorted(SWEEP_GOLDEN_DIGESTS))
def test_success_curve_matches_golden_digest(m, trials):
    assert STREAM_LAYOUT == 2
    grid = [m * ratio for ratio in (0.0, 0.25, 1.0, 4.0, 64.0)]
    points = attack_success_curve(grid, m, trials, np.random.default_rng(2026))
    payload = json.dumps([dataclasses.asdict(p) for p in points], sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == SWEEP_GOLDEN_DIGESTS[(m, trials)]


class TestSuccessCurve:
    def test_monotone_and_saturating(self):
        m = 8
        grid = [m * r for r in (0.0625, 1.0, 4.0, 64.0)]
        points = attack_success_curve(grid, m, 300, np.random.default_rng(7))
        rates = [p.success_rate for p in points]
        errs = [p.stderr for p in points]
        for i in range(len(rates) - 1):
            assert rates[i + 1] >= rates[i] - 2 * (errs[i] + errs[i + 1])
        assert rates[-1] >= 0.95

    def test_two_candidates_vacuum_is_a_coin_flip(self):
        points = attack_success_curve([0.0], 2, 3000, np.random.default_rng(8))
        assert abs(points[0].success_rate - 0.5) <= 3 * np.sqrt(0.25 / 3000)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            attack_success_curve([], 4, 200, rng)
        with pytest.raises(ValueError):
            attack_success_curve([1.0], 4, 50, rng)
        with pytest.raises(ValueError, match="workers"):
            attack_success_curve([1.0], 4, 200, rng, workers=0)

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError, match="alpha_sq"):
            estimate_success(-1.0, 4, 100, np.random.default_rng(0))

    def test_reproducible_per_seed(self):
        grid = [1.0, 4.0]
        a = attack_success_curve(grid, 4, 150, np.random.default_rng(42))
        b = attack_success_curve(grid, 4, 150, np.random.default_rng(42))
        assert a == b


class TestAmplifier:
    def test_unity_gain_is_identity(self):
        pulse = TwoModeCoherentState(alpha=2.0, theta=0.3)
        amplified = amplifier_attack(pulse, gain=1.0)
        assert amplified.state == pulse
        assert amplified.ase_photons == 0.0

    def test_gain_scales_signal_and_attaches_background(self):
        pulse = TwoModeCoherentState(alpha=np.sqrt(10.0), theta=0.0)
        amplified = amplifier_attack(pulse, gain=4.0)
        assert amplified.state.mean_photons == pytest.approx(40.0)
        assert amplified.ase_photons == pytest.approx(6.0)  # 2*(G-1)
        rng = np.random.default_rng(10)
        trials = 5000
        means = np.mean(
            [
                (e.counts_transmit, e.counts_reflect)
                for e in (amplified.measure(0.0, rng) for _ in range(trials))
            ],
            axis=0,
        )
        assert abs(means[0] - 43.0) <= 3 * np.sqrt(43.0 / trials)
        assert abs(means[1] - 3.0) <= 3 * np.sqrt(3.0 / trials)

    def test_crossed_arm_sees_half_the_background(self):
        pulse = TwoModeCoherentState(alpha=np.sqrt(10.0), theta=0.0)
        amplified = amplifier_attack(pulse, gain=4.0, ase_photons=2.0)
        rng = np.random.default_rng(11)
        trials = 8000
        crossed = np.mean(
            [amplified.measure(np.pi / 2, rng).counts_transmit for _ in range(trials)]
        )
        assert abs(crossed - 1.0) <= 3 * np.sqrt(1.0 / trials)

    def test_noiseless_amplification_rejected(self):
        pulse = TwoModeCoherentState(alpha=1.0, theta=0.0)
        with pytest.raises(ValueError):
            amplifier_attack(pulse, gain=2.0, ase_photons=0.0)
        with pytest.raises(ValueError):
            amplifier_attack(pulse, gain=0.5)


def _counts_from_events(events) -> DetectionCounts:
    """Pack scalar ``DetectionEvent`` results into one ``DetectionCounts``."""
    pairs = np.array([(e.counts_transmit, e.counts_reflect) for e in events], dtype=np.int64)
    return DetectionCounts(*pairs.reshape(-1, 2).T)


class TestAnomalyMonitor:
    @staticmethod
    def _dark_only_events(n, dark, rng):
        reflect = (rng.random(n) < dark).astype(int)
        return DetectionCounts(np.ones(n, dtype=int), reflect)

    def test_clean_channel_not_flagged(self):
        rng = np.random.default_rng(12)
        events = self._dark_only_events(1_000_000, 1e-5, rng)
        verdict = bob_anomaly_monitor(events, expected_dark_rate=1e-5)
        assert isinstance(verdict, AnomalyVerdict)
        assert not verdict.anomalous

    def test_amplifier_attack_flagged(self):
        pulse = TwoModeCoherentState(alpha=np.sqrt(25.0), theta=0.0)
        amplified = amplifier_attack(pulse, gain=4.0)
        rng = np.random.default_rng(13)
        events = _counts_from_events(amplified.measure(0.0, rng) for _ in range(5000))
        verdict = bob_anomaly_monitor(events, expected_dark_rate=1e-5)
        assert verdict.anomalous
        assert verdict.wrong_arm_rate > verdict.threshold

    def test_monotone_signal_vs_no_attack(self):
        # The amplifier can only raise the crossed-arm click rate.
        pulse = TwoModeCoherentState(alpha=np.sqrt(25.0), theta=0.0)
        rng = np.random.default_rng(14)
        clean = amplifier_attack(pulse, gain=1.0)
        noisy = amplifier_attack(pulse, gain=4.0)
        clean_rate = np.mean([clean.measure(0.0, rng).counts_reflect > 0 for _ in range(4000)])
        noisy_rate = np.mean([noisy.measure(0.0, rng).counts_reflect > 0 for _ in range(4000)])
        assert noisy_rate >= clean_rate

    def test_silent_detectors(self):
        events = DetectionCounts(np.zeros(100, dtype=int), np.zeros(100, dtype=int))
        verdict = bob_anomaly_monitor(events, expected_dark_rate=1e-3)
        assert verdict.wrong_arm_rate == 0.0
        assert not verdict.anomalous

    def test_validation(self):
        with pytest.raises(ValueError):
            bob_anomaly_monitor(DetectionCounts([], []), 1e-3)
        with pytest.raises(ValueError):
            bob_anomaly_monitor(DetectionCounts([0], [0]), 1.5)


class TestPns:
    def test_vacuum_is_never_exploitable(self):
        assert pns_exploitable_fraction(PnsModel(mu=0.0, min_exploitable=2)) == 0.0
        assert pns_exploitable_fraction(PnsModel(mu=0.0, min_exploitable=3)) == 0.0

    def test_tail_values_at_dim_pulses(self):
        two = pns_exploitable_fraction(PnsModel(mu=0.1, min_exploitable=2))
        three = pns_exploitable_fraction(PnsModel(mu=0.1, min_exploitable=3))
        assert two == pytest.approx(4.679e-3, rel=1e-3)
        assert three == pytest.approx(1.547e-4, rel=1e-3)
        assert two / three >= 25

    def test_monte_carlo_agrees(self):
        rng = np.random.default_rng(15)
        trials = 200_000
        draws = rng.poisson(0.1, trials)
        for threshold in (2, 3):
            analytic = pns_exploitable_fraction(PnsModel(mu=0.1, min_exploitable=threshold))
            mc = np.mean(draws >= threshold)
            assert abs(mc - analytic) <= 3 * np.sqrt(analytic * (1 - analytic) / trials)

    @given(mu=st.floats(0.01, 5.0), bump=st.floats(0.01, 5.0))
    def test_strictly_increasing_in_intensity(self, mu, bump):
        lo = pns_exploitable_fraction(PnsModel(mu=mu, min_exploitable=2))
        hi = pns_exploitable_fraction(PnsModel(mu=mu + bump, min_exploitable=2))
        assert hi > lo

    @given(mu=st.floats(0.01, 5.0))
    def test_higher_threshold_is_harder(self, mu):
        assert pns_exploitable_fraction(PnsModel(mu=mu, min_exploitable=3)) < (
            pns_exploitable_fraction(PnsModel(mu=mu, min_exploitable=2))
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            PnsModel(mu=-0.1)
        for mu in (np.nan, np.inf):
            with pytest.raises(ValueError, match="mu must be finite"):
                PnsModel(mu=mu)
        with pytest.raises(ValueError):
            PnsModel(mu=0.1, min_exploitable=4)
