"""Adversary models: brute-force identification and PNS tails."""
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
    attack_success_curve,
    estimate_success,
    pns_exploitable_fraction,
    _identify,
)


def _grid(m: int) -> np.ndarray:
    """The M candidate polarizations k*pi/M, tiling [0, pi)."""
    return np.arange(m) * np.pi / m


def _recorder(rng, draws: list) -> SimpleNamespace:
    """``rng`` as ``_identify`` uses it, appending (mean, counts) of each Poisson draw to ``draws``."""

    def poisson(lam):
        draws.append((lam, rng.poisson(lam)))
        return draws[-1][1]

    return SimpleNamespace(poisson=poisson, uniform=rng.uniform, integers=rng.integers)


def brute_force_identify(index: int, m: int, signal_mean: float, rng) -> SimpleNamespace:
    """One trial of the batched kernel on candidate ``index``: its verdict and its silent sub-pulses."""
    draws = []
    success = _identify(np.array([index]), m, signal_mean, _recorder(rng, draws))
    (_, transmit), (_, reflect) = draws
    return SimpleNamespace(success=bool(success[0]), case_none=int(((transmit == 0) & (reflect == 0)).sum()))


class TestConfig:
    def test_default_angles_tile_half_turn(self):
        # A bright pulse at every candidate is identified, and the means it is
        # drawn with put the candidates on a grid that tiles [0, pi).
        draws = []
        success = _identify(np.arange(8), 8, 1e4, _recorder(np.random.default_rng(9), draws))
        assert success.all()
        angles = _grid(8)
        assert angles[0] == 0.0
        assert np.allclose(np.diff(angles), np.pi / 8)
        assert angles[-1] < np.pi
        np.testing.assert_array_equal(draws[0][0], 1e4 / 8 * np.cos(angles[:, None] - angles) ** 2)


class TestBruteForce:
    def test_requires_two_candidates(self):
        for m in (1, MAX_ATTACK_M_BASES + 1):
            with pytest.raises(ValueError, match="m_bases must be in"):
                estimate_success(1.0, m, 100, np.random.default_rng(0))

    @given(m=st.integers(2, 24), a_sq=st.floats(0.0, 64.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_single_trial_matches_scalar_reference(self, m, a_sq, seed):
        # The reference sorts every sub-pulse into double, silent or single
        # click on its own; one trial's verdict must agree with it.
        rng = np.random.default_rng(seed)
        replay = copy.deepcopy(rng)
        theta = _grid(m)[[seed % m]]
        success = _identify(np.array([seed % m]), m, a_sq, rng)
        np.testing.assert_array_equal(success, _reference_identify(theta, m, a_sq, replay) == theta)

    def test_vacuum_gives_no_information(self):
        m = 8
        rng = np.random.default_rng(3)
        outcomes = [brute_force_identify(2, m, 0.0, rng) for _ in range(3000)]
        assert all(o.case_none == m for o in outcomes)
        rate = np.mean([o.success for o in outcomes])
        assert abs(rate - 1 / m) <= 3 * np.sqrt((1 / m) * (1 - 1 / m) / 3000)

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
        assert brute_force_identify(1, 4, 1e4, np.random.default_rng(9)).success


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
            success = _identify(index, m, ratio * m, rng)
            np.testing.assert_array_equal(success, _reference_identify(theta, m, ratio * m, replay) == theta)
            assert rng.bit_generator.state == replay.bit_generator.state

    @pytest.mark.parametrize("m", [2, 3, 8, 64, MAX_ATTACK_M_BASES])
    def test_poisson_means_equal_the_reference_means(self, m):
        # Means one ulp apart almost always draw the same counts, so the
        # digests cannot tell them apart: compare the means themselves.
        rng = np.random.default_rng([m, 1])
        index = rng.integers(0, m, 200)
        draws = []
        _identify(index, m, 3.0 * m, _recorder(rng, draws))
        delta = _grid(m)[index][:, None] - _grid(m)  # as ``_reference_identify`` draws them
        sub_mean = 3.0 * m / m
        means = [lam for lam, _ in draws]
        assert len(means) == 2
        np.testing.assert_array_equal(means[0], sub_mean * np.cos(delta) ** 2)
        np.testing.assert_array_equal(means[1], sub_mean * np.sin(delta) ** 2)

    @pytest.mark.parametrize("trials", [100, 2 * _TRIAL_BLOCK + 1])
    def test_estimate_success_draws_in_blocks(self, trials):
        # Block by block, the kernel's verdicts are the scalar reference's,
        # trial by trial, and ``estimate_success`` counts exactly their hits.
        for m in (2, 8, 64):
            alpha_sq = 1.0 * m
            rng = np.random.default_rng(11)
            kernel, replay = copy.deepcopy(rng), copy.deepcopy(rng)
            point = estimate_success(alpha_sq, m, trials, rng)
            hits = 0
            for start in range(0, trials, _TRIAL_BLOCK):
                n = min(_TRIAL_BLOCK, trials - start)
                success = _identify(kernel.integers(0, m, n), m, alpha_sq, kernel)
                theta = _grid(m)[replay.integers(0, m, n)]
                expected = _reference_identify(theta, m, alpha_sq, replay) == theta
                np.testing.assert_array_equal(success, expected, err_msg=f"M = {m}, block at {start}")
                hits += int(success.sum())
            assert point.success_rate == hits / trials, m
            assert rng.bit_generator.state == kernel.bit_generator.state == replay.bit_generator.state, m


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


class TestPns:
    def test_vacuum_is_never_exploitable(self):
        assert pns_exploitable_fraction(0.0, 2) == 0.0
        assert pns_exploitable_fraction(0.0, 3) == 0.0

    def test_tail_values_at_dim_pulses(self):
        two = pns_exploitable_fraction(0.1, 2)
        three = pns_exploitable_fraction(0.1, 3)
        assert two == pytest.approx(4.679e-3, rel=1e-3)
        assert three == pytest.approx(1.547e-4, rel=1e-3)
        assert two / three >= 25

    def test_monte_carlo_agrees(self):
        rng = np.random.default_rng(15)
        trials = 200_000
        draws = rng.poisson(0.1, trials)
        for threshold in (2, 3):
            analytic = pns_exploitable_fraction(0.1, threshold)
            mc = np.mean(draws >= threshold)
            assert abs(mc - analytic) <= 3 * np.sqrt(analytic * (1 - analytic) / trials)

    @given(mu=st.floats(0.01, 5.0), bump=st.floats(0.01, 5.0))
    def test_strictly_increasing_in_intensity(self, mu, bump):
        lo = pns_exploitable_fraction(mu, 2)
        hi = pns_exploitable_fraction(mu + bump, 2)
        assert hi > lo

    @given(mu=st.floats(0.01, 5.0))
    def test_higher_threshold_is_harder(self, mu):
        assert pns_exploitable_fraction(mu, 3) < pns_exploitable_fraction(mu, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            pns_exploitable_fraction(-0.1, 2)
        for mu in (np.nan, np.inf):
            with pytest.raises(ValueError, match="mu must be finite"):
                pns_exploitable_fraction(mu, 2)
        with pytest.raises(ValueError):
            pns_exploitable_fraction(0.1, 4)
