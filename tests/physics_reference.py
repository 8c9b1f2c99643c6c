"""Reference physics that no command reaches, kept as test oracles.

The polarization rotation and Stokes statistics of a linearly polarized
coherent state, the small-angle overlap that sits beside
``polarization.overlap_exact``, and the single-arm Mach-Zehnder field with
its small-signal intensity.  ``test_polarization``, ``test_optics`` and
``test_acceptance`` check these laws and compare the package against them.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from hpqkd.optics import ModulationPlan
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
