"""Coherent polarization states: rotations, Stokes statistics, overlaps, click fields."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hpqkd.polarization import (
    CLICK_BLOCK,
    SPARSE_CLICK_PROB,
    DetectionEvent,
    add_clicks,
    clear_tail,
    overlap_exact,
    sparse_slots,
    two_arm_clicks,
)
from physics_reference import DetectionCounts, TwoModeCoherentState
from physics_reference import add_clicks as reference_add_clicks
from physics_reference import overlap_small_angle, rotate, stokes_monte_carlo, stokes_summary

amplitude = st.floats(0.0, 6.0)
pol_angle = st.floats(0.0, np.pi, exclude_max=True)


def _mode_means(state: TwoModeCoherentState) -> tuple[float, float]:
    """Mean photon numbers of the (horizontal, vertical) modes."""
    n = state.mean_photons
    return n * np.cos(state.theta) ** 2, n * np.sin(state.theta) ** 2


class TestState:
    def test_theta_canonicalized_mod_pi(self):
        state = TwoModeCoherentState(alpha=2.0, theta=np.pi + 0.3)
        assert state.theta == pytest.approx(0.3)

    def test_mode_means_split_energy(self):
        state = TwoModeCoherentState(alpha=3.0, theta=np.pi / 6)
        h, v = _mode_means(state)
        assert h == pytest.approx(9 * 0.75)
        assert v == pytest.approx(9 * 0.25)

    def test_detection_event_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            DetectionEvent(counts_transmit=-1, counts_reflect=0)

    def test_detection_counts_validated(self):
        with pytest.raises(ValueError):
            DetectionCounts(np.array([1, -1]), np.array([0, 0]))
        with pytest.raises(ValueError):
            DetectionCounts(np.array([1, 0]), np.array([0]))
        with pytest.raises(ValueError):
            DetectionCounts(np.zeros((2, 2), dtype=int), np.zeros((2, 2), dtype=int))
        counts = DetectionCounts([3, 0], [0, 1])
        assert len(counts) == 2
        assert counts.counts_transmit.tolist() == [3, 0]
        assert counts.counts_reflect.tolist() == [0, 1]


def _pack(bits) -> np.ndarray:
    return np.packbits(np.asarray(bits, dtype=bool))


def _unpack(field: np.ndarray, n: int) -> np.ndarray:
    return np.unpackbits(field, count=n).astype(bool)


class TestTwoArmClicks:
    SIGNAL = np.array([True, True, False, False])
    TO_FIRST = np.array([True, False, True, False])

    def test_signal_routes_to_one_arm(self):
        rngs = (np.random.default_rng(1), np.random.default_rng(2))
        first, second = two_arm_clicks(_pack(self.SIGNAL), _pack(self.TO_FIRST), 4, 0.0, rngs)
        assert first.tolist() == [0b1000_0000] and second.tolist() == [0b0100_0000]

    def test_no_dark_counts_draw_nothing(self):
        rngs = (np.random.default_rng(1), np.random.default_rng(2))
        before = [rng.bit_generator.state for rng in rngs]
        two_arm_clicks(_pack(self.SIGNAL), _pack(self.TO_FIRST), 4, 0.0, rngs)
        assert [rng.bit_generator.state for rng in rngs] == before

    def test_each_arm_reads_its_own_dark_stream_once(self):
        signal, to_first = np.tile(self.SIGNAL, 16), np.tile(self.TO_FIRST, 16)
        rngs = (_RecordingRng(np.random.default_rng(1)), _RecordingRng(np.random.default_rng(2)))
        first, second = two_arm_clicks(_pack(signal), _pack(to_first), 64, 0.5, rngs)
        darks = []
        for rng, seed in zip(rngs, (1, 2)):
            # One block of uniforms from each stream at d = 0.5, and nothing more.
            assert rng.calls == ["random"]
            reference = np.random.default_rng(seed)
            dark = reference.random(64) < 0.5
            assert rng.bit_generator.state == reference.bit_generator.state
            darks.append(dark)
        np.testing.assert_array_equal(first, _pack((signal & to_first) | darks[0]))
        np.testing.assert_array_equal(second, _pack((signal & ~to_first) | darks[1]))

    @pytest.mark.parametrize("n", (1, 63, 20_001))
    def test_certain_dark_counts_fire_every_slot(self, n):
        # Every slot fires, and no bit past the last slot.
        rngs = (np.random.default_rng(1), np.random.default_rng(2))
        first, second = two_arm_clicks(_pack(np.zeros(n)), _pack(np.ones(n)), n, 1.0, rngs)
        np.testing.assert_array_equal(first, _pack(np.ones(n)))
        np.testing.assert_array_equal(second, _pack(np.ones(n)))

    @pytest.mark.parametrize("d", (0.0, 1e-4, 0.5))
    def test_one_slot(self, d):
        rngs = (np.random.default_rng(1), np.random.default_rng(2))
        first, second = two_arm_clicks(_pack([True]), _pack([True]), 1, d, rngs)
        assert first.tolist() == [0x80] and second.shape == (1,) and second[0] in (0, 0x80)

    @pytest.mark.parametrize("d", (-0.1, 1.5, float("nan")))
    def test_dark_count_prob_outside_the_unit_interval_raises(self, d):
        rngs = (np.random.default_rng(1), np.random.default_rng(2))
        with pytest.raises(ValueError, match="dark_count_prob"):
            two_arm_clicks(_pack(self.SIGNAL), _pack(self.TO_FIRST), 4, d, rngs)


def _reference_field(prior: np.ndarray, p: float, rng) -> np.ndarray:
    """Reference: ``prior`` OR a Bernoulli(p) field, by the calls of p's regime (one ``random(n)`` in the middle)."""
    n = len(prior)
    if SPARSE_CLICK_PROB < p < 1 - SPARSE_CLICK_PROB:
        return prior | (rng.random(n) < p)
    if p == 0:
        return prior.copy()
    sparse = p <= SPARSE_CLICK_PROB
    slots = rng.choice(n, rng.binomial(n, p if sparse else 1 - p), replace=False, shuffle=False)
    field = np.zeros(n, dtype=bool) if sparse else np.ones(n, dtype=bool)
    field[slots] = sparse
    return prior | field


def _blocks(n: int) -> list[str]:
    return ["random"] * -(-n // CLICK_BLOCK)


def _count_and_subset(n: int) -> list[str]:
    return ["binomial", "choice"]


#: p on each side of both cuts, with the calls each makes on an n-slot field.
FIELD_CASES = {
    "zero": (0.0, lambda n: []),
    "subset-at-cut": (SPARSE_CLICK_PROB, _count_and_subset),
    "blocks-above-subset-cut": (np.nextafter(SPARSE_CLICK_PROB, 1), _blocks),
    "blocks-below-complement-cut": (np.nextafter(1 - SPARSE_CLICK_PROB, 0), _blocks),
    "complement-at-cut": (1 - SPARSE_CLICK_PROB, _count_and_subset),
    "one": (1.0, _count_and_subset),
}


class TestClickField:
    @pytest.mark.parametrize("n", (1, 64, 2 * CLICK_BLOCK + 5))
    @pytest.mark.parametrize("name", FIELD_CASES)
    def test_regimes_make_their_calls(self, name, n):
        p, calls = FIELD_CASES[name]
        prior = np.random.default_rng(n).random(n) < 0.3
        field, rng, reference = _pack(prior), _RecordingRng(np.random.default_rng(5)), np.random.default_rng(5)
        add_clicks(field, n, p, rng)
        assert rng.calls == calls(n)
        np.testing.assert_array_equal(field, _pack(_reference_field(prior, p, reference)))
        assert rng.bit_generator.state == reference.bit_generator.state
        if p in (0.0, 1.0):  # nothing drawn
            assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state
            np.testing.assert_array_equal(field, _pack(np.ones(n) if p else prior))

    def test_blocks_equal_one_draw(self):
        n = 3 * CLICK_BLOCK + 17
        field = np.zeros(-(-n // 8), dtype=np.uint8)
        add_clicks(field, n, 0.5, np.random.default_rng(8))
        np.testing.assert_array_equal(field, _pack(np.random.default_rng(8).random(n) < 0.5))

    @pytest.mark.parametrize("p", (-0.1, 1.5, float("nan"), -np.inf))
    def test_probability_outside_the_unit_interval_raises(self, p):
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="click probability"):
            add_clicks(np.zeros(1, dtype=np.uint8), 4, p, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("preset", (False, True))
    @pytest.mark.parametrize("n", (1, 7, 9, CLICK_BLOCK + 3))
    @pytest.mark.parametrize("p", (0.0, 1e-5, 1 / 16, 0.22, 15 / 16, 1 - 1e-5, 1.0))
    def test_packed_field_equals_the_per_slot_field(self, p, n, preset):
        # Bit for bit, from one seed, into an empty field or one with clicks
        # already set; the comparison with np.packbits also holds every bit
        # past n at zero.
        prior = np.random.default_rng(n).random(n) < 0.5 if preset else np.zeros(n, dtype=bool)
        unpacked, field = prior.copy(), _pack(prior)
        reference_add_clicks(unpacked, p, np.random.default_rng(11))
        add_clicks(field, n, p, np.random.default_rng(11))
        np.testing.assert_array_equal(field, _pack(unpacked))

    @pytest.mark.parametrize("n", (7, 1001, 2 * CLICK_BLOCK + 5))
    @pytest.mark.parametrize("p", (1e-3, SPARSE_CLICK_PROB, 1 - SPARSE_CLICK_PROB, 1 - 1e-3))
    def test_sparse_regimes_equal_the_bitwise_at_reference(self, p, n):
        # The sparse regimes as they were written with np.bitwise_or.at and
        # np.bitwise_and.at, byte for byte, on a field of random bytes: its
        # clicks already set, and the bits past n of its partial last byte
        # left as they are (n = 7 and 1001).
        preset = np.random.default_rng(n).integers(0, 256, -(-n // 8), dtype=np.uint8)
        field, expected = preset.copy(), preset.copy()
        add_clicks(field, n, p, np.random.default_rng(12))
        slots = sparse_slots(n, min(p, 1 - p), np.random.default_rng(12))
        byte, bit = slots >> 3, np.uint8(0x80) >> (slots & 7).astype(np.uint8)
        if p <= SPARSE_CLICK_PROB:
            np.bitwise_or.at(expected, byte, bit)
        else:
            clicks = np.full_like(expected, 0xFF)
            clear_tail(clicks, n)
            np.bitwise_and.at(clicks, byte, ~bit)
            expected |= clicks
        np.testing.assert_array_equal(field, expected)


class _RecordingRng:
    """A generator that records the name of each method called on it."""

    def __init__(self, rng):
        self._rng, self.calls = rng, []

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def record(*args, **kwargs):
            self.calls.append(name)
            return attr(*args, **kwargs)

        return record


def _z_count(hits: int, trials: int, p: float) -> float:
    """z of a Binomial(trials, p) count, continuity-corrected so that one
    hit where far less than one is expected does not read as 3 sigma."""
    mean, sd = trials * p, np.sqrt(trials * p * (1 - p))
    return float(np.sign(hits - mean) * max(abs(hits - mean) - 0.5, 0) / sd)


def _z_two_sample(hits_a: int, n_a: int, hits_b: int, n_b: int) -> float:
    pooled = (hits_a + hits_b) / (n_a + n_b)
    if pooled in (0, 1):
        return 0.0
    return (hits_a / n_a - hits_b / n_b) / np.sqrt(pooled * (1 - pooled) * (1 / n_a + 1 / n_b))


def _engine_dark(n: int, d: float, rngs) -> tuple[np.ndarray, np.ndarray]:
    no_signal = np.zeros(-(-n // 8), dtype=np.uint8)
    first, second = two_arm_clicks(no_signal, no_signal, n, d, rngs)
    return _unpack(first, n), _unpack(second, n)


#: Both sparse regimes and the blocks: a count and a subset of slots at 1e-4
#: and 0.02, blocks of uniforms at 0.5, and a count and a subset of quiet
#: slots at 0.98.
DARK_PROBS = (1e-4, 0.02, 0.5, 0.98)
DARK_LENGTHS = (63, 10_001, 200_000)
#: Slots pooled over calls per (d, n): 50 dark counts per arm at d = 1e-4.
DARK_POOL_SLOTS = 500_000


def _dark_pool(n: int, d: float) -> tuple[np.ndarray, int]:
    """Dark counts pooled over calls, (first arm, second arm, both arms, either arm's first half), and the slots."""
    rngs = (np.random.default_rng([4, 1]), np.random.default_rng([4, 2]))
    calls = -(-DARK_POOL_SLOTS // n)
    totals = np.zeros(4, dtype=np.int64)
    for _ in range(calls):
        first, second = _engine_dark(n, d, rngs)
        totals += (first.sum(), second.sum(), (first & second).sum(), first[: n // 2].sum() + second[: n // 2].sum())
    return totals, calls * n


@pytest.mark.parametrize("n", DARK_LENGTHS)
@pytest.mark.parametrize("d", DARK_PROBS)
def test_dark_counts_follow_bernoulli_law(d, n):
    """Each regime of the click field gives each arm i.i.d. Bernoulli(d) dark clicks."""
    (first, second, both, front), slots = _dark_pool(n, d)
    calls, half = slots // n, n // 2
    z = {
        "first arm vs n d": _z_count(first, slots, d),
        "second arm vs n d": _z_count(second, slots, d),
        "double dark vs n d^2": _z_count(both, slots, d * d),
        "first half vs second half": _z_two_sample(
            front, 2 * calls * half, first + second - front, 2 * calls * (n - half)
        ),
    }
    assert all(abs(v) < 3 for v in z.values()), z


class TestRotate:
    def test_identity(self):
        state = TwoModeCoherentState(alpha=1.5, theta=0.0)
        assert rotate(state, 0.0) == state

    def test_quarter_turn_balances_modes(self):
        rotated = rotate(TwoModeCoherentState(alpha=2.0, theta=0.0), np.pi / 4)
        h, v = _mode_means(rotated)
        assert h == pytest.approx(2.0)
        assert v == pytest.approx(2.0)

    def test_inverse_rotation_restores(self):
        state = TwoModeCoherentState(alpha=1.0, theta=0.7)
        back = rotate(rotate(state, 0.31), -0.31)
        assert back.theta == pytest.approx(state.theta, abs=1e-12)

    @given(a=amplitude, theta=pol_angle, delta=st.floats(-10.0, 10.0))
    def test_energy_conserved(self, a, theta, delta):
        state = rotate(TwoModeCoherentState(alpha=a, theta=theta), delta)
        h, v = _mode_means(state)
        assert h + v == pytest.approx(a * a, abs=1e-12 * max(1, a * a))


class TestStokes:
    def test_horizontal_state(self):
        s = stokes_summary(TwoModeCoherentState(alpha=2.0, theta=0.0))
        assert s.s1_mean == pytest.approx(4.0)
        assert s.s2_mean == pytest.approx(0.0, abs=1e-15)
        assert s.s3_mean == 0.0
        assert (s.s1_var, s.s2_var, s.s3_var) == (4.0, 4.0, 4.0)

    def test_diagonal_state(self):
        s = stokes_summary(TwoModeCoherentState(alpha=2.0, theta=np.pi / 4))
        assert s.s1_mean == pytest.approx(0.0, abs=1e-12)
        assert s.s2_mean == pytest.approx(4.0)

    def test_vacuum(self):
        s = stokes_summary(TwoModeCoherentState(alpha=0.0, theta=0.3))
        assert s.s1_mean == s.s2_mean == s.s3_mean == 0.0
        assert s.s1_var == 0.0

    @given(a=amplitude, theta=pol_angle)
    def test_linear_state_mean_identity(self, a, theta):
        s = stokes_summary(TwoModeCoherentState(alpha=a, theta=theta))
        assert s.s1_mean**2 + s.s2_mean**2 == pytest.approx(a**4, rel=1e-9, abs=1e-9)

    def test_monte_carlo_matches_summary(self):
        # Mean and variance of each parameter within 3 sigma at 1e5 trials.
        state = TwoModeCoherentState(alpha=3.0, theta=0.0)
        trials = 100_000
        rng = np.random.default_rng(11)
        n = state.mean_photons
        for index, expected_mean in ((1, 9.0), (2, 0.0), (3, 0.0)):
            mean, var = stokes_monte_carlo(state, index, trials, rng)
            mean_sigma = np.sqrt(n / trials)
            assert abs(mean - expected_mean) <= 3 * mean_sigma
            # Var(s^2) for the count difference: (2*kappa2^2 + kappa4)/trials.
            var_sigma = np.sqrt((2 * n**2 + n) / trials)
            assert abs(var - n) <= 3 * var_sigma

    def test_monte_carlo_vacuum_is_exactly_zero(self):
        state = TwoModeCoherentState(alpha=0.0, theta=0.0)
        mean, var = stokes_monte_carlo(state, 2, 1000, np.random.default_rng(0))
        assert mean == 0.0 and var == 0.0

    def test_monte_carlo_validation(self):
        state = TwoModeCoherentState(alpha=1.0, theta=0.0)
        with pytest.raises(ValueError):
            stokes_monte_carlo(state, 1, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            stokes_monte_carlo(state, 4, 10, np.random.default_rng(0))


class TestOverlap:
    def test_identical_states(self):
        assert overlap_small_angle(3.0, 0.0) == 1.0
        assert overlap_exact(np.sqrt(3.0), 0.0) == 1.0

    def test_vacuum_indistinguishable(self):
        assert overlap_small_angle(0.0, 1.2) == 1.0
        assert overlap_exact(0.0, 1.2) == 1.0

    def test_small_angle_form_at_unit_photon_right_angle(self):
        assert overlap_small_angle(1.0, np.pi / 2) == pytest.approx(np.exp(-2), rel=1e-12)

    def test_exact_form_at_opposite_field(self):
        assert overlap_exact(1.0, np.pi) == pytest.approx(np.exp(-4), rel=1e-12)

    @given(a_sq=st.floats(0.0, 50.0), theta=st.floats(0.0, np.pi))
    def test_exact_identity(self, a_sq, theta):
        alpha = np.sqrt(a_sq)
        expected = np.exp(-2 * a_sq * (1 - np.cos(theta)))
        assert overlap_exact(alpha, theta) == pytest.approx(expected, rel=1e-12)

    def test_exponent_ratio_halves_at_small_angle(self):
        # log(exact)/log(small-angle form) -> 1/2: the two laws differ by a
        # factor 2 in the exponent even to leading order.
        theta = 1e-4
        ratio = np.log(overlap_exact(2.0, theta)) / np.log(overlap_small_angle(4.0, theta))
        assert ratio == pytest.approx(0.5, abs=1e-8)

    @given(theta=st.floats(0.05, np.pi - 0.05), a_lo=st.floats(0.1, 5.0), bump=st.floats(0.1, 5.0))
    def test_strictly_decreasing_in_intensity(self, theta, a_lo, bump):
        a_hi = a_lo + bump
        assert overlap_small_angle(a_hi, theta) < overlap_small_angle(a_lo, theta)
        assert overlap_exact(np.sqrt(a_hi), theta) < overlap_exact(np.sqrt(a_lo), theta)

    @given(theta=st.floats(0.05, np.pi - 0.05), a_sq=st.floats(0.1, 50.0))
    def test_bounded_and_below_one_off_axis(self, theta, a_sq):
        for value in (overlap_small_angle(a_sq, theta), overlap_exact(np.sqrt(a_sq), theta)):
            assert 0 < value < 1

    def test_rejects_negative_intensity(self):
        with pytest.raises(ValueError):
            overlap_small_angle(-1.0, 0.1)

