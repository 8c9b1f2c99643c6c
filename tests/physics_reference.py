"""Reference physics that no command reaches, kept as test oracles.

The polarization rotation and Stokes statistics of a linearly polarized
coherent state, the small-angle overlap that sits beside
``polarization.overlap_exact``, the single-arm Mach-Zehnder field with its
small-signal intensity, and the field at Bob's output with its tone powers
read from one FFT, the readout ``optics.sideband_intensities_oracle``
replaced by direct DFT sums.  ``test_polarization``, ``test_optics`` and
``test_acceptance`` check these laws and compare the package against them.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from hpqkd.optics import DEFAULT_ORACLE_SAMPLES, FiberLink, ModulationPlan, oracle_period
from hpqkd.polarization import TwoModeCoherentState


@dataclass(frozen=True)
class StokesSummary:
    """Means (photons) and variances (photons^2) of the three Stokes parameters."""

    s1_mean: float
    s2_mean: float
    s3_mean: float
    s1_var: float
    s2_var: float
    s3_var: float


def rotate(state: TwoModeCoherentState, delta: float) -> TwoModeCoherentState:
    """Polarization rotation by ``delta``; energy and amplitude are invariant."""
    return replace(state, theta=(state.theta + delta) % np.pi)


def stokes_summary(state: TwoModeCoherentState) -> StokesSummary:
    """Stokes means and variances of the linearly polarized coherent state.

    <S1> = n*cos(2*theta), <S2> = n*sin(2*theta), <S3> = 0 with n = |alpha|^2;
    every variance equals n, so polarization uncertainty scales with intensity.
    """
    n = state.mean_photons
    return StokesSummary(
        s1_mean=n * np.cos(2 * state.theta),
        s2_mean=n * np.sin(2 * state.theta),
        s3_mean=0.0,
        s1_var=n,
        s2_var=n,
        s3_var=n,
    )


def stokes_monte_carlo(
    state: TwoModeCoherentState,
    parameter_index: int,
    trials: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Sampled mean and variance of one Stokes parameter.

    Simulates the photon-number-difference measurement: S1 uses the H/V
    basis, S2 the +-45 degree basis, and S3 the circular basis, where a
    linear input feeds both arms with independent Poisson counts of mean
    |alpha|^2 / 2.  Returns (sample mean, sample variance).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = state.mean_photons
    if parameter_index == 1:
        mean_a = n * np.cos(state.theta) ** 2
        mean_b = n * np.sin(state.theta) ** 2
    elif parameter_index == 2:
        mean_a = n * np.cos(state.theta - np.pi / 4) ** 2
        mean_b = n * np.sin(state.theta - np.pi / 4) ** 2
    elif parameter_index == 3:
        mean_a = mean_b = n / 2
    else:
        raise ValueError("parameter_index must be 1, 2 or 3")
    diff = rng.poisson(mean_a, trials).astype(float) - rng.poisson(mean_b, trials)
    variance = float(np.var(diff, ddof=1)) if trials > 1 else 0.0
    return float(np.mean(diff)), variance


def overlap_small_angle(alpha_sq: float, theta: float) -> float:
    """Squared inner product exp(-2*|alpha|^2*sin^2(theta)).

    Small-angle form of the distinguishability between a horizontal state
    and one rotated by theta; see ``overlap_exact`` for the exact law (the
    two differ by a factor 2 in the exponent even to leading order).
    """
    if alpha_sq < 0:
        raise ValueError("alpha_sq must be >= 0")
    return float(np.exp(-2 * alpha_sq * np.sin(theta) ** 2))


def alice_field_exact(plan: ModulationPlan, t) -> np.ndarray:
    """Exact baseband field at the Mach-Zehnder output, no small-depth expansion.

    Returns (e0/2) * (1 + exp(j*psi1) * exp(j*[m1*cos(omega1*t + phi1_a)
    + m2*cos(omega2*t + phi2_a)])); the optical-carrier factor is omitted
    throughout (baseband convention).
    """
    t = np.asarray(t, dtype=float)
    drive = plan.m1 * np.cos(plan.omega1 * t + plan.phi1_a) + plan.m2 * np.cos(
        plan.omega2 * t + plan.phi2_a
    )
    return (plan.e0 / 2) * (1 + np.exp(1j * plan.psi1) * np.exp(1j * drive))


def alice_intensity_small_signal(plan: ModulationPlan, t) -> np.ndarray:
    """First-order modulator intensity: the small-signal expansion of |field|^2."""
    t = np.asarray(t, dtype=float)
    return (plan.e0**2 / 2) * (
        1
        + np.cos(plan.psi1)
        - plan.m1 * np.sin(plan.psi1) * np.cos(plan.omega1 * t + plan.phi1_a)
        - plan.m2 * np.sin(plan.psi1) * np.cos(plan.omega2 * t + plan.phi2_a)
    )


@dataclass(frozen=True)
class TimeDomainField:
    """Baseband field samples on a uniform grid (carrier factor removed)."""

    sample_rate: float
    samples: np.ndarray

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def synthesize_bob_field(
    plan: ModulationPlan, fiber: FiberLink, num_samples: int = DEFAULT_ORACLE_SAMPLES
) -> TimeDomainField:
    """Exact field at Bob's output, sampled over one common tone period.

    Alice's modulator is taken in balanced push-pull drive: the output
    envelope e0*cos((psi1 + drive(t))/2) carries the exact interferometric
    intensity law (e0^2/2)*(1 + cos(psi1 + drive)) with no residual phase
    modulation, and contains every harmonic order of the drive.

    The dispersionless link advances every spectral component at offset
    delta by the same delay, i.e. by the phase (n/c)*delta*L, so it arrives
    as Alice's field with each RF phase advanced by ``fiber.link_phase`` of
    its tone.  Bob's exact phase-modulator exponential is then applied in
    the time domain.

    Raises ValueError when the grid violates the Nyquist bound for the
    highest tone or the tones share no common period.
    """
    period = oracle_period(plan, num_samples)
    t = np.arange(num_samples) * (period / num_samples)
    bob = np.exp(
        1j * (plan.m3 * np.cos(plan.omega1 * t + plan.phi1_b) + plan.m4 * np.cos(plan.omega2 * t + plan.phi2_b))
    )
    phase1 = plan.phi1_a + fiber.link_phase(plan.omega1)
    phase2 = plan.phi2_a + fiber.link_phase(plan.omega2)
    drive = plan.m1 * np.cos(plan.omega1 * t + phase1) + plan.m2 * np.cos(plan.omega2 * t + phase2)
    field = plan.e0 * np.cos((plan.psi1 + drive) / 2)
    return TimeDomainField(sample_rate=num_samples / period, samples=field * bob)


def tone_powers(field: TimeDomainField, omegas) -> list[float]:
    """Powers at several baseband offsets, read from one FFT of the field.

    Each offset must fall on an exact DFT bin of the sampled duration
    (integer number of cycles), otherwise its power would leak into
    neighbouring bins.
    """
    n = len(field.samples)
    bins = []
    for omega in omegas:
        cycles = omega * field.duration / (2 * np.pi)
        k = round(cycles)
        if abs(cycles - k) > 1e-6:
            raise ValueError(f"omega {omega:g} does not sit on a DFT bin (cycles {cycles:g})")
        bins.append(k % n)
    spectrum = np.fft.fft(field.samples)
    return [float(abs(spectrum[k] / n) ** 2) for k in bins]
