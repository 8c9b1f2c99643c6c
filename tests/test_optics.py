"""Sideband optics: exact modulator identities, fringe laws, and the oracle."""
import dataclasses
import functools
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hpqkd import optics
from hpqkd.optics import (
    DEFAULT_ORACLE_SAMPLES,
    SPEED_OF_LIGHT,
    FiberLink,
    ModulationPlan,
    OpticsNotTunedError,
    SidebandSpectrum,
    SmallSignalWarning,
    fit_half_angle_fringe,
    is_tuned,
    require_tuned,
    sideband_intensities_closed_form,
    sideband_intensities_oracle,
    split_upper_probability,
    tuned_fiber,
    tuning_offsets,
)
from physics_reference import (
    TimeDomainField,
    alice_field_exact,
    alice_intensity_small_signal,
    synthesize_bob_field,
    tone_powers,
)

PLAN = ModulationPlan()
FIBER = tuned_fiber(PLAN)

depth = st.floats(0.0, 0.2)
angle = st.floats(0.0, 2 * np.pi)


def plan_with(**kwargs) -> ModulationPlan:
    base = dict(
        e0=1.0, psi1=3 * np.pi / 2, m1=0.1, m2=0.1, m3=0.05, m4=0.05,
        phi1_a=0.0, phi2_a=0.0, phi1_b=0.0, phi2_b=0.0,
    )
    base.update(kwargs)
    return ModulationPlan(**base)


def propagate(plan: ModulationPlan, fiber: FiberLink) -> dict[str, float]:
    """Per-sideband phases accumulated over the link, relative to the carrier.

    The common carrier phase is removed; upper sidebands advance by
    +(n/c)*Omega*L, lower sidebands by the opposite sign.
    """
    chi1 = fiber.link_phase(plan.omega1)
    chi2 = fiber.link_phase(plan.omega2)
    return {"upper1": chi1, "lower1": -chi1, "upper2": chi2, "lower2": -chi2}


class TestPlanValidation:
    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            plan_with(m1=-0.1)

    def test_equal_tones_rejected(self):
        with pytest.raises(ValueError):
            ModulationPlan(omega1=1e9, omega2=1e9)

    def test_rf_near_carrier_rejected(self):
        with pytest.raises(ValueError):
            ModulationPlan(omega0=1e10, omega1=2e9, omega2=6e9)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ModulationPlan)])
    def test_non_finite_field_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ModulationPlan(**{name: value})

    def test_large_depth_warns_but_constructs(self):
        with pytest.warns(SmallSignalWarning):
            plan = plan_with(m1=0.5)
        assert plan.m1 == 0.5

    def test_small_signal_warning_points_at_the_caller(self):
        with pytest.warns(SmallSignalWarning) as record:
            ModulationPlan(m1=0.5)
        assert record[0].filename == __file__

    def test_phase_copy_repeats_no_warning(self):
        with pytest.warns(SmallSignalWarning):
            plan = ModulationPlan(m1=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert plan.with_phases(phi1_a=1.0).m1 == 0.5

    @pytest.mark.parametrize("kwargs", [{"e0": 1e160}, {"m1": 7.0}], ids=["e0-1e160", "m1-7"])
    def test_values_above_the_caps_rejected(self, kwargs):
        # A library caller gets the caps the scenario states: no square of the plan overflows.
        with pytest.raises(ValueError, match="must be in"):
            ModulationPlan(**kwargs)

    def test_values_at_the_caps_construct(self):
        with pytest.warns(SmallSignalWarning):
            plan = ModulationPlan(e0=optics.MAX_FIELD, m1=optics.MAX_DEPTH)
        assert sideband_intensities_closed_form(plan, FIBER).carrier >= 0

    def test_delta_phi(self):
        plan = plan_with(phi1_a=1.0, phi1_b=0.25, phi2_a=0.5, phi2_b=2.0)
        assert plan.delta_phi(1) == pytest.approx(0.75)
        assert plan.delta_phi(2) == pytest.approx(-1.5)
        with pytest.raises(ValueError):
            plan.delta_phi(3)


class TestAliceField:
    def test_modulation_off_constructive_bias(self):
        plan = plan_with(m1=0.0, m2=0.0, psi1=0.0)
        assert alice_field_exact(plan, 0.37e-9) == pytest.approx(plan.e0)

    def test_modulation_off_destructive_bias(self):
        plan = plan_with(m1=0.0, m2=0.0, psi1=np.pi)
        assert abs(alice_field_exact(plan, 1.1e-9)) == pytest.approx(0.0, abs=1e-15)

    def test_quadrature_bias_period_average(self):
        # |field|^2 averaged over one tone period stays at e0^2/2.
        plan = plan_with(m1=0.1, m2=0.0)
        t = np.linspace(0, 2 * np.pi / plan.omega1, 4096, endpoint=False)
        mean = np.mean(np.abs(alice_field_exact(plan, t)) ** 2)
        assert mean == pytest.approx(plan.e0**2 / 2, rel=1e-6)

    @given(psi1=angle, m1=depth, m2=depth, phi=angle, frac=st.floats(0.0, 1.0))
    def test_intensity_identity_exact(self, psi1, m1, m2, phi, frac):
        plan = plan_with(psi1=psi1, m1=m1, m2=m2, phi1_a=phi)
        t = frac * 2e-9
        drive = m1 * np.cos(plan.omega1 * t + phi) + m2 * np.cos(plan.omega2 * t)
        expected = (plan.e0**2 / 2) * (1 + np.cos(psi1 + drive))
        assert abs(alice_field_exact(plan, t)) ** 2 == pytest.approx(expected, abs=1e-12)

    def test_small_signal_quadrature_form(self):
        # At quadrature bias the bias term drops and the tone terms flip sign.
        plan = plan_with(m1=0.08, m2=0.03, phi1_a=0.4, phi2_a=1.3)
        t = np.linspace(0, 1e-9, 64)
        expected = (plan.e0**2 / 2) * (
            1
            + plan.m1 * np.cos(plan.omega1 * t + plan.phi1_a)
            + plan.m2 * np.cos(plan.omega2 * t + plan.phi2_a)
        )
        np.testing.assert_allclose(alice_intensity_small_signal(plan, t), expected, rtol=1e-12)

    def test_small_signal_constant_without_modulation(self):
        plan = plan_with(m1=0.0, m2=0.0, psi1=np.pi / 2)
        assert alice_intensity_small_signal(plan, 0.7e-9) == pytest.approx(plan.e0**2 / 2)

    def test_small_signal_error_below_one_percent(self):
        plan = plan_with(m1=0.05, m2=0.05)
        t = np.linspace(0, 1e-9, 2048, endpoint=False)  # full beat period
        exact = np.abs(alice_field_exact(plan, t)) ** 2
        approx = alice_intensity_small_signal(plan, t)
        assert np.max(np.abs(approx - exact) / exact) <= 0.01


class TestFiberAndPropagation:
    def test_zero_length_means_zero_phases(self):
        phases = propagate(PLAN, FiberLink(length_m=0.0))
        assert all(v == 0.0 for v in phases.values())

    def test_direct_formula(self):
        fiber = FiberLink(length_m=0.025, refractive_index=1.5)
        omega = 2 * np.pi * 1e9
        expected = 1.5 / SPEED_OF_LIGHT * omega * 0.025
        assert fiber.link_phase(omega) == pytest.approx(expected, rel=1e-15)

    def test_tuned_fiber_hits_both_conditions(self):
        phases = propagate(PLAN, FIBER)
        assert phases["upper1"] == pytest.approx(np.pi / 2, abs=1e-9)
        assert phases["upper2"] == pytest.approx(3 * np.pi / 2, abs=1e-9)
        assert phases["lower1"] == -phases["upper1"]
        assert is_tuned(PLAN, FIBER)

    def test_tuned_fiber_needs_3x_tone_ratio(self):
        plan = ModulationPlan(omega2=2 * np.pi * 1.5e9)
        with pytest.raises(OpticsNotTunedError):
            tuned_fiber(plan)

    def test_require_tuned_raises_on_detuned(self):
        with pytest.raises(OpticsNotTunedError):
            require_tuned(PLAN, FiberLink(length_m=FIBER.length_m * 1.01))

    def test_tuning_offsets_zero_when_tuned(self):
        off1, off2 = tuning_offsets(PLAN, FIBER)
        assert off1 < 1e-9 and off2 < 1e-9

    def test_fiber_validation(self):
        with pytest.raises(ValueError):
            FiberLink(length_m=-1.0)
        with pytest.raises(ValueError):
            FiberLink(length_m=1.0, refractive_index=0.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["length_m", "refractive_index"])
    def test_fiber_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            FiberLink(**{"length_m": 1.0, name: value})


class TestClosedForm:
    def test_destructive_lower_sideband_at_zero_phase(self):
        spectrum = sideband_intensities_closed_form(PLAN, FIBER)
        assert spectrum.lower1 == pytest.approx(0.0, abs=1e-15)
        assert spectrum.upper1 == pytest.approx(PLAN.e0**2 * PLAN.m1**2 / 8, rel=1e-12)

    def test_complement_at_pi(self):
        plan = plan_with(phi1_a=np.pi)
        spectrum = sideband_intensities_closed_form(plan, FIBER)
        assert spectrum.upper1 == pytest.approx(0.0, abs=1e-15)
        assert spectrum.lower1 == pytest.approx(plan.e0**2 * plan.m1**2 / 8, rel=1e-12)

    def test_channel2_orientation_swapped(self):
        spectrum = sideband_intensities_closed_form(PLAN, FIBER)
        assert spectrum.upper2 == pytest.approx(0.0, abs=1e-15)
        assert spectrum.lower2 == pytest.approx(PLAN.e0**2 * PLAN.m2**2 / 8, rel=1e-12)

    @given(dphi=angle, m1=depth, m3=depth)
    def test_complementarity_sum_is_phase_free(self, dphi, m1, m3):
        plan = plan_with(m1=m1, m3=m3, phi1_a=dphi)
        spectrum = sideband_intensities_closed_form(plan, FIBER)
        expected = (plan.e0**2 / 4) * (m1**2 / 4 + m3**2)
        assert spectrum.upper1 + spectrum.lower1 == pytest.approx(expected, abs=1e-15)

    def test_unit_visibility_at_matched_depths(self):
        # m1 = 2*m3 zeroes the fringe minimum exactly.
        phases = np.linspace(0, 2 * np.pi, 64, endpoint=False)  # grid hits pi exactly
        powers = [
            sideband_intensities_closed_form(plan_with(phi1_a=p), FIBER).upper1 for p in phases
        ]
        vis = (max(powers) - min(powers)) / (max(powers) + min(powers))
        assert vis == pytest.approx(1.0, abs=1e-12)

    @given(dphi2=angle)
    def test_channel1_blind_to_channel2_phases(self, dphi2):
        reference = sideband_intensities_closed_form(PLAN, FIBER)
        swept = sideband_intensities_closed_form(plan_with(phi2_a=dphi2), FIBER)
        assert swept.upper1 == reference.upper1
        assert swept.lower1 == reference.lower1

    @given(m1=depth, m3=depth, dphi=angle)
    def test_intensities_structurally_nonnegative(self, m1, m3, dphi):
        plan = plan_with(m1=m1, m3=m3, phi1_a=dphi)
        spectrum = sideband_intensities_closed_form(plan, FIBER)
        assert spectrum.upper1 >= 0 and spectrum.lower1 >= 0

    def test_spectrum_rejects_negative_intensity(self):
        with pytest.raises(ValueError):
            SidebandSpectrum(carrier=1.0, upper1=-1e-3, lower1=0, upper2=0, lower2=0)

    def test_split_probability_matches_tuned_fringe(self):
        dphi = np.linspace(0, 2 * np.pi, 32)
        p = split_upper_probability(PLAN, FIBER, 1, dphi)
        np.testing.assert_allclose(p, np.cos(dphi / 2) ** 2, atol=1e-9)
        assert split_upper_probability(plan_with(m1=0.0, m3=0.0), FIBER, 1, 0.0) is None


def oracle_sweep(plan, fiber, channel, points=16, num_samples=4096):
    phases = np.linspace(0, 2 * np.pi, points, endpoint=False)
    upper, lower = [], []
    for p in phases:
        swept = plan.with_phases(phi1_a=p) if channel == 1 else plan.with_phases(phi2_a=p)
        spectrum = sideband_intensities_oracle(swept, fiber, num_samples=num_samples)
        upper.append(spectrum.upper1 if channel == 1 else spectrum.upper2)
        lower.append(spectrum.lower1 if channel == 1 else spectrum.lower2)
    return phases, np.array(upper), np.array(lower)


class TestOracle:
    def test_no_modulation_leaves_only_carrier(self):
        plan = plan_with(m1=0, m2=0, m3=0, m4=0, psi1=2.1)
        spectrum = sideband_intensities_oracle(plan, FIBER)
        expected_carrier = plan.e0**2 * abs(1 + np.exp(1j * plan.psi1)) ** 2 / 4
        assert spectrum.carrier == pytest.approx(expected_carrier, rel=1e-12)
        for name in ("upper1", "lower1", "upper2", "lower2"):
            assert getattr(spectrum, name) == pytest.approx(0.0, abs=1e-20)

    def test_fringe_fit_and_prefactor(self):
        # The oracle arbitrates the fringe prefactor: e0^2*m1^2/8, not /16.
        phases, upper, lower = oracle_sweep(PLAN, FIBER, 1, points=32)
        a_up, res_up = fit_half_angle_fringe(phases, upper, "cos2")
        a_lo, res_lo = fit_half_angle_fringe(phases, lower, "sin2")
        assert res_up <= 0.01 and res_lo <= 0.01
        ref = PLAN.e0**2 * PLAN.m1**2
        assert abs(a_up - ref / 8) < abs(a_up - ref / 16)
        assert a_up == pytest.approx(ref / 8, rel=0.01)

    def test_channel2_swap(self):
        phases, upper, lower = oracle_sweep(PLAN, FIBER, 2, points=16)
        a_up, res_up = fit_half_angle_fringe(phases, upper, "sin2")
        a_lo, res_lo = fit_half_angle_fringe(phases, lower, "cos2")
        assert res_up <= 0.01 and res_lo <= 0.01
        assert a_up == pytest.approx(PLAN.e0**2 * PLAN.m2**2 / 8, rel=0.01)

    def test_small_signal_convergence_quadratic(self):
        # Halving all depths must shrink the relative closed-form error >= 3x.
        errors = []
        for scale in (1.0, 0.5):
            plan = plan_with(m1=0.1 * scale, m2=0.0, m3=0.05 * scale, m4=0.0, phi1_a=1.1)
            closed = sideband_intensities_closed_form(plan, FIBER)
            oracle = sideband_intensities_oracle(plan, FIBER, num_samples=4096)
            errors.append(abs(oracle.upper1 - closed.upper1) / oracle.upper1)
        assert errors[1] <= errors[0] / 3

    def test_oracle_complementarity_within_one_percent(self):
        phases, upper, lower = oracle_sweep(PLAN, FIBER, 1, points=16)
        sums = upper + lower
        assert (sums.max() - sums.min()) / sums.mean() <= 0.01

    def test_channel_independence_under_phi2_sweep(self):
        # Probe at the half-fringe point so both arms are well away from zero.
        upper, lower = [], []
        for p in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            spectrum = sideband_intensities_oracle(
                PLAN.with_phases(phi1_a=np.pi / 2, phi2_a=p), FIBER, num_samples=4096
            )
            upper.append(spectrum.upper1)
            lower.append(spectrum.lower1)
        for values in (np.array(upper), np.array(lower)):
            assert (values.max() - values.min()) / values.mean() <= 0.01

    def test_single_drive_chirp_breaks_the_fringe_law(self):
        # The single-arm transfer, which only the reference field models (the
        # oracle uses push-pull drive): its chirp shifts and lifts the fringe,
        # so the half-angle fit degrades badly.
        phases = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        upper = [
            reference_oracle(PLAN.with_phases(phi1_a=p), FIBER, num_samples=4096, include_chirp=True).upper1
            for p in phases
        ]
        _, residual = fit_half_angle_fringe(phases, upper, "cos2")
        assert residual > 0.10

    def test_nyquist_rejected(self):
        with pytest.raises(ValueError, match="Nyquist"):
            synthesize_bob_field(PLAN, FIBER, num_samples=8)
        with pytest.raises(ValueError, match="Nyquist"):
            sideband_intensities_oracle(PLAN, FIBER, num_samples=8)

    def test_incommensurate_tones_rejected(self):
        plan = ModulationPlan(omega2=PLAN.omega1 * np.sqrt(2))
        with pytest.raises(ValueError, match="rational"):
            sideband_intensities_oracle(plan, FIBER)

    def test_common_period_is_cached_and_errors_are_not(self):
        optics._common_period.cache_clear()
        optics._oracle_grid.cache_clear()
        for _ in range(3):
            sideband_intensities_oracle(PLAN, FIBER, num_samples=1024)
        info = optics._common_period.cache_info()
        # The first call's checks compute it, and its grid build finds it.
        assert (info.misses, info.hits) == (1, 3)
        irrational = ModulationPlan(omega2=PLAN.omega1 * np.sqrt(2))
        for _ in range(3):
            with pytest.raises(ValueError, match="rational"):
                sideband_intensities_oracle(irrational, FIBER)
        assert optics._common_period.cache_info().currsize == 1

    def test_tone_power_requires_exact_bin(self):
        field = synthesize_bob_field(PLAN, FIBER, num_samples=1024)
        with pytest.raises(ValueError, match="bin"):
            tone_power(field, PLAN.omega1 * 1.1)

    def test_off_bin_tone_rejected(self):
        # omega1/omega2 is 4096/4095 within 1e-9, so the grid spans 4096
        # cycles of omega1, on which omega2 runs 2e-6 cycles past bin 4095.
        plan = plan_with(omega2=PLAN.omega1 * 4095 / 4096 * (1 + 5e-10))
        with pytest.raises(ValueError, match="does not sit on a DFT bin"):
            sideband_intensities_oracle(plan, FIBER, num_samples=2**15)

    def test_field_grid_covers_common_period(self):
        field = synthesize_bob_field(PLAN, FIBER, num_samples=1024)
        cycles1 = PLAN.omega1 * field.duration / (2 * np.pi)
        cycles2 = PLAN.omega2 * field.duration / (2 * np.pi)
        assert cycles1 == pytest.approx(round(cycles1), abs=1e-9)
        assert cycles2 == pytest.approx(round(cycles2), abs=1e-9)
        assert field.sample_rate > 2 * max(PLAN.omega1, PLAN.omega2) / np.pi
        assert len(field.samples) == 1024

    def test_default_grid_size(self):
        field = synthesize_bob_field(PLAN, FIBER)
        assert len(field.samples) == DEFAULT_ORACLE_SAMPLES


def tone_power(field, omega: float) -> float:
    """Power at one baseband offset, read from one FFT of the field."""
    (power,) = tone_powers(field, (omega,))
    return power


def _projection_power(field, omega) -> float:
    """Reference readout: direct projection onto one DFT bin."""
    n = len(field.samples)
    k = round(omega * field.duration / (2 * np.pi))
    return float(abs(np.mean(field.samples * np.exp(-2j * np.pi * k * np.arange(n) / n))) ** 2)


def reference_field(plan, fiber, num_samples=DEFAULT_ORACLE_SAMPLES, include_chirp=False):
    """Bob's field with the link applied in the Fourier domain, on a fresh grid.

    Each DFT component at offset delta picks up the phase (n/c)*delta*L
    between a forward and an inverse FFT: the propagation law written bin by
    bin, independent of the time shift that the oracle and ``synthesize_bob_field`` apply.
    """
    period = optics._common_period(plan.omega1, plan.omega2)
    t = np.arange(num_samples) * (period / num_samples)
    drive = plan.m1 * np.cos(plan.omega1 * t + plan.phi1_a) + plan.m2 * np.cos(plan.omega2 * t + plan.phi2_a)
    if include_chirp:
        field = (plan.e0 / 2) * (1 + np.exp(1j * plan.psi1) * np.exp(1j * drive))
    else:
        field = plan.e0 * np.cos((plan.psi1 + drive) / 2)
    offsets = 2 * np.pi * np.fft.fftfreq(num_samples, d=period / num_samples)
    propagation = np.exp(1j * (fiber.refractive_index / SPEED_OF_LIGHT) * offsets * fiber.length_m)
    field = np.fft.ifft(np.fft.fft(field) * propagation)
    bob = np.exp(
        1j * (plan.m3 * np.cos(plan.omega1 * t + plan.phi1_b) + plan.m4 * np.cos(plan.omega2 * t + plan.phi2_b))
    )
    return TimeDomainField(sample_rate=num_samples / period, samples=field * bob)


def reference_oracle(plan, fiber, num_samples=DEFAULT_ORACLE_SAMPLES, include_chirp=False):
    """Oracle spectrum of the Fourier-domain reference field, read by direct projection."""
    field = reference_field(plan, fiber, num_samples, include_chirp)
    return SidebandSpectrum(
        carrier=_projection_power(field, 0.0),
        upper1=_projection_power(field, plan.omega1),
        lower1=_projection_power(field, -plan.omega1),
        upper2=_projection_power(field, plan.omega2),
        lower2=_projection_power(field, -plan.omega2),
    )


def assert_spectra_close(spectrum, reference, e0):
    for name in ("carrier", "upper1", "lower1", "upper2", "lower2"):
        assert abs(getattr(spectrum, name) - getattr(reference, name)) <= 1e-15 * e0**2, name


class TestFftReadout:
    CASES = {
        "default": (PLAN, FIBER),
        "detuned": (PLAN, FiberLink(length_m=FIBER.length_m * 1.01)),
        "dark-channel1": (plan_with(m1=0.0, m3=0.0, phi2_a=0.7), FIBER),
        "swept": (plan_with(phi1_a=1.3, phi2_a=2.9, phi1_b=0.4, phi2_b=5.1), FIBER),
        # omega2 1.5e-9 cycles off bin 3: the oracle reads the bin, as an FFT does.
        "off-bin": (plan_with(omega2=3 * PLAN.omega1 * (1 + 5e-10)), FIBER),
    }
    #: The Fourier-domain reference applies the link at each bin's offset, so
    #: it puts an off-bin tone's link phase at its bin (2e-11 e0^2 away).
    ON_BIN = [case for case in CASES if case != "off-bin"]

    @pytest.mark.parametrize("num_samples", [1024, 4096, 16384])
    @pytest.mark.parametrize("case", ON_BIN)
    def test_matches_direct_projection(self, case, num_samples):
        plan, fiber = self.CASES[case]
        reference = reference_oracle(plan, fiber, num_samples)
        spectrum = sideband_intensities_oracle(plan, fiber, num_samples)
        assert_spectra_close(spectrum, reference, plan.e0)

    @pytest.mark.parametrize("num_samples", [1024, 4096, 16384])
    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_fft_of_the_synthesized_field(self, case, num_samples):
        plan, fiber = self.CASES[case]
        spectrum = sideband_intensities_oracle(plan, fiber, num_samples)
        field = synthesize_bob_field(plan, fiber, num_samples)
        offsets = (0.0, plan.omega1, -plan.omega1, plan.omega2, -plan.omega2)
        assert_spectra_close(spectrum, SidebandSpectrum(*tone_powers(field, offsets)), plan.e0)
        projections = SidebandSpectrum(*(_projection_power(field, omega) for omega in offsets))
        assert_spectra_close(spectrum, projections, plan.e0)

    @pytest.mark.parametrize("num_samples", [1024, 4096, 16384])
    @pytest.mark.parametrize("case", ON_BIN)
    def test_field_matches_fourier_domain_propagation(self, case, num_samples):
        # The time shift and the bin-by-bin phase put the same power in every bin.
        plan, fiber = self.CASES[case]
        field = synthesize_bob_field(plan, fiber, num_samples)
        reference = reference_field(plan, fiber, num_samples)
        powers = np.abs(np.fft.fft(field.samples) / num_samples) ** 2
        expected = np.abs(np.fft.fft(reference.samples) / num_samples) ** 2
        assert np.max(np.abs(powers - expected)) <= 1e-15 * plan.e0**2

    def test_tone_power_matches_direct_projection(self):
        field = synthesize_bob_field(plan_with(phi1_a=0.9), FIBER, num_samples=4096)
        for omega in (0.0, PLAN.omega1, -PLAN.omega1, PLAN.omega2, -PLAN.omega2, 2 * PLAN.omega2):
            assert abs(tone_power(field, omega) - _projection_power(field, omega)) <= 1e-15

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps == np.finfo(float).eps, reason="long double is double on this platform"
    )
    @pytest.mark.parametrize("channel", [1, 2])
    def test_matches_long_double_dft(self, channel):
        # 16384 is the commands' grid; 1000, 4097 and 12289 end in a partial
        # block of the oracle's readout.
        for case, num_samples in itertools.product(("default", "off-bin"), (1000, 4096, 4097, 12289, 16384)):
            base, fiber = self.CASES[case]
            for phase in np.linspace(0, 2 * np.pi, 16, endpoint=False):
                plan = base.with_phases(**{f"phi{channel}_a": phase})
                spectrum = sideband_intensities_oracle(plan, fiber, num_samples=num_samples)
                reference = long_double_oracle(plan, fiber, num_samples=num_samples)
                where = f"{case}, {num_samples} samples, phase {phase:.3f}"
                assert abs(spectrum.carrier - reference.carrier) <= 5e-16 * plan.e0**2, where
                for name in ("upper1", "lower1", "upper2", "lower2"):
                    error = abs(getattr(spectrum, name) - getattr(reference, name))
                    assert error <= 1e-17 * plan.e0**2, f"{name}, {where}"


def long_double_oracle(plan, fiber, num_samples):
    """The oracle's field and bins, evaluated in long double by a direct DFT.

    The plan, the link phases and the grid step are the oracle's doubles;
    every product, cosine and sum after them is taken in long double.
    """
    ld = np.longdouble
    period = ld(optics.oracle_period(plan, num_samples))
    n = np.arange(num_samples)
    t = n * (period / num_samples)
    omega1, omega2 = ld(plan.omega1), ld(plan.omega2)
    phase1 = ld(plan.phi1_a) + ld(fiber.link_phase(plan.omega1))
    phase2 = ld(plan.phi2_a) + ld(fiber.link_phase(plan.omega2))
    drive = ld(plan.m1) * np.cos(omega1 * t + phase1) + ld(plan.m2) * np.cos(omega2 * t + phase2)
    envelope = ld(plan.e0) * np.cos((ld(plan.psi1) + drive) / 2)
    bob = ld(plan.m3) * np.cos(omega1 * t + ld(plan.phi1_b)) + ld(plan.m4) * np.cos(omega2 * t + ld(plan.phi2_b))
    re, im = envelope * np.cos(bob), envelope * np.sin(bob)
    powers = []
    for omega in (0.0, plan.omega1, -plan.omega1, plan.omega2, -plan.omega2):
        cos_k, sin_k = _long_double_twiddles(round(omega * float(period) / (2 * np.pi)), num_samples)
        # (re + i*im) * (cos - i*sin), summed
        x = np.sum(re * cos_k + im * sin_k) / num_samples
        y = np.sum(im * cos_k - re * sin_k) / num_samples
        powers.append(float(x * x + y * y))
    return SidebandSpectrum(*powers)


@functools.lru_cache(maxsize=8)
def _long_double_twiddles(k, num_samples):
    """cos and sin of 2*pi*(k*n mod N)/N in long double, shared by a sweep's calls."""
    angle = 8 * np.arctan(np.longdouble(1)) * (k * np.arange(num_samples) % num_samples) / num_samples
    return np.cos(angle), np.sin(angle)


class TestOracleGridCache:
    @pytest.mark.parametrize(
        "variants, grids",
        [
            ([(PLAN, FIBER), (PLAN, FiberLink(length_m=FIBER.length_m * 1.01))], 1),
            ([(PLAN, FIBER), (PLAN, FiberLink(length_m=FIBER.length_m, refractive_index=1.6))], 1),
            ([(plan_with(phi1_b=0.0), FIBER), (plan_with(phi1_b=0.8), FIBER)], 2),
            ([(plan_with(phi2_b=0.0), FIBER), (plan_with(phi2_b=2.2), FIBER)], 2),
            ([(plan_with(m3=0.05), FIBER), (plan_with(m3=0.02, m4=0.07), FIBER)], 2),
            ([(PLAN, FIBER), (plan_with(omega2=5 * PLAN.omega1), FIBER)], 2),
        ],
        ids=["length", "index", "phi1_b", "phi2_b", "bob-depths", "omega2"],
    )
    def test_alternating_settings_never_read_a_stale_grid(self, variants, grids):
        # The fiber is not part of the grid: two links share one grid.
        references = [reference_oracle(plan, fiber, num_samples=2048) for plan, fiber in variants]
        uncached = []
        for plan, fiber in variants:
            optics._oracle_grid.cache_clear()
            uncached.append(sideband_intensities_oracle(plan, fiber, num_samples=2048))
        assert uncached[0] != uncached[1]  # a stale grid would show
        optics._oracle_grid.cache_clear()
        for _ in range(3):
            for (plan, fiber), reference, fresh in zip(variants, references, uncached):
                spectrum = sideband_intensities_oracle(plan, fiber, num_samples=2048)
                assert spectrum == fresh
                assert_spectra_close(spectrum, reference, plan.e0)
        assert optics._oracle_grid.cache_info().misses == grids

    def test_alice_sweep_reuses_one_grid(self):
        optics._oracle_grid.cache_clear()
        for phase in np.linspace(0, 2 * np.pi, 5, endpoint=False):
            sideband_intensities_oracle(PLAN.with_phases(phi1_a=phase, phi2_a=phase), FIBER, 1024)
        info = optics._oracle_grid.cache_info()
        assert (info.misses, info.hits) == (1, 4)

    def test_at_most_two_grids_stay_cached(self):
        # A grid holds 80 B per sample, 84 MB at the largest accepted grid.
        optics._oracle_grid.cache_clear()
        for phi1_b in (0.0, 0.4, 0.8):
            sideband_intensities_oracle(plan_with(phi1_b=phi1_b), FIBER, 1024)
        info = optics._oracle_grid.cache_info()
        assert (info.misses, info.currsize, info.maxsize) == (3, 2, 2)

    def test_cached_arrays_are_read_only(self):
        grid = optics._oracle_grid(
            PLAN.omega1, PLAN.omega2, PLAN.m3, PLAN.m4, PLAN.phi1_b, PLAN.phi2_b, 1024
        )
        assert grid.shape == (10, 1024)
        for array in (grid, *grid):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_field_samples_are_not_the_cached_arrays(self):
        # Callers own the field they get back; writing to it changes no later field.
        first = synthesize_bob_field(PLAN, FIBER, num_samples=1024)
        expected = first.samples.copy()
        first.samples[:] = 0
        again = synthesize_bob_field(PLAN, FIBER, num_samples=1024)
        np.testing.assert_array_equal(again.samples, expected)


class TestFringeFit:
    def test_recovers_amplitude_on_synthetic_data(self):
        phases = np.linspace(0, 2 * np.pi, 24, endpoint=False)
        a, res = fit_half_angle_fringe(phases, 3.5 * np.cos(phases / 2) ** 2, "cos2")
        assert a == pytest.approx(3.5, rel=1e-12)
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            fit_half_angle_fringe([0.0], [1.0], "tan2")
