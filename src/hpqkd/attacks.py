"""Eavesdropper models for the mesoscopic polarization channel.

Covers the brute-force polarization identification (pulse splitting with
per-candidate analyzers and three-case detector logic), the optical-amplifier
attack with its unavoidable unpolarized background, the receiver-side anomaly
monitor that background trips, and photon-number-splitting exploitability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polarization import DetectionCounts, DetectionEvent, TwoModeCoherentState

#: Stand-in for log(0) that keeps matrix products finite: one photon observed
#: where a hypothesis predicts a dark arm must veto that hypothesis.
_LOG_FLOOR = -1e9

#: Ties between candidate scores are broken uniformly at random by adding a
#: jitter far below any physical log-likelihood gap.
_TIE_JITTER = 1e-9


def default_candidate_angles(m_bases: int) -> np.ndarray:
    """M equally spaced polarization candidates i*pi/M covering [0, pi)."""
    return np.arange(m_bases) * np.pi / m_bases


@dataclass(frozen=True)
class BruteForceConfig:
    """Candidate set and detectors for the pulse-splitting identification attack.

    One sub-pulse is spent per candidate angle; an analyzer at angle phi
    resolves phi against its orthogonal partner phi + pi/2.  The attacker's
    detectors are perfect by default; ``detector_efficiency`` thins the
    Poisson counts and ``dark_count_mean`` adds spurious counts per arm.
    """

    m_bases: int
    candidate_angles: np.ndarray | None = None
    detector_efficiency: float = 1.0
    dark_count_mean: float = 0.0

    def __post_init__(self):
        if self.m_bases < 1:
            raise ValueError("m_bases must be positive")
        if not 0 <= self.detector_efficiency <= 1:
            raise ValueError("detector_efficiency must be a probability")
        if self.dark_count_mean < 0:
            raise ValueError("dark_count_mean must be >= 0")
        angles = (
            default_candidate_angles(self.m_bases)
            if self.candidate_angles is None
            else np.asarray(self.candidate_angles, dtype=float)
        )
        if len(angles) != self.m_bases:
            raise ValueError("need exactly m_bases candidate angles")
        if np.any(angles < 0) or np.any(angles >= np.pi):
            raise ValueError("candidate angles must lie in [0, pi)")
        if np.any(np.diff(angles) <= 0):
            raise ValueError("candidate angles must be distinct and sorted")
        object.__setattr__(self, "candidate_angles", angles)


@dataclass(frozen=True)
class AttackOutcome:
    """Result of one brute-force identification run.

    ``case_both``/``case_none``/``case_one`` tally the sub-pulses with clicks
    in both detectors, neither, or exactly one; they always partition the M
    sub-pulses.  ``success`` means the estimate matches the transmitted
    polarization.
    """

    estimated_angle: float
    case_both: int
    case_none: int
    case_one: int
    success: bool


def _hypothesis_log_means(angles: np.ndarray, signal_mean: float, dark_mean: float):
    """log of the per-arm count means under every (candidate, analyzer) pair."""
    delta = angles[:, None] - angles[None, :]
    cos2 = np.cos(delta) ** 2
    with np.errstate(divide="ignore"):
        log_t = np.maximum(np.log(signal_mean * cos2 + dark_mean), _LOG_FLOOR)
        log_r = np.maximum(np.log(signal_mean * (1 - cos2) + dark_mean), _LOG_FLOOR)
    return log_t, log_r


def brute_force_identify(
    pulse: TwoModeCoherentState,
    config: BruteForceConfig,
    rng: np.random.Generator,
) -> AttackOutcome:
    """Split the pulse across all candidates, measure, and pick the best one.

    The pulse is divided into M equal sub-pulses of mean photon number
    |alpha|^2 / M with unchanged polarization; sub-pulse i is analyzed at
    candidate angle phi_i.  Double clicks eliminate a candidate, silent
    sub-pulses carry no information, and single-detector clicks mark a
    candidate as consistent.  Among consistent candidates the estimate
    maximizes the log-Poisson likelihood of every observed count under that
    candidate's angle (ties uniform at random); with no consistent candidate
    the estimate falls back to a uniform random pick.
    """
    m = config.m_bases
    if m < 2:
        raise ValueError("brute force needs at least 2 candidates")
    angles = config.candidate_angles
    mu_sub = pulse.mean_photons / m
    detected_mean = mu_sub * config.detector_efficiency
    dark = config.dark_count_mean

    delta = pulse.theta - angles
    counts_t = rng.poisson(detected_mean * np.cos(delta) ** 2 + dark)
    counts_r = rng.poisson(detected_mean * np.sin(delta) ** 2 + dark)

    both = (counts_t > 0) & (counts_r > 0)
    none = (counts_t == 0) & (counts_r == 0)
    one = ~(both | none)

    log_mean_t, log_mean_r = _hypothesis_log_means(angles, detected_mean, dark)
    scores = log_mean_t @ counts_t + log_mean_r @ counts_r
    scores = scores + rng.uniform(0.0, _TIE_JITTER, m)
    scores = np.where(one, scores, -np.inf)

    if one.any():
        estimate_index = int(np.argmax(scores))
    else:
        estimate_index = int(rng.integers(0, m))
    estimated_angle = float(angles[estimate_index])

    matches = abs((estimated_angle - pulse.theta + np.pi / 2) % np.pi - np.pi / 2) < 1e-9
    return AttackOutcome(
        estimated_angle=estimated_angle,
        case_both=int(both.sum()),
        case_none=int(none.sum()),
        case_one=int(one.sum()),
        success=bool(matches),
    )


@dataclass(frozen=True)
class SweepPoint:
    alpha_sq: float
    success_rate: float
    stderr: float
    trials: int


def estimate_success(
    alpha_sq: float,
    m_bases: int,
    trials: int,
    rng: np.random.Generator,
) -> SweepPoint:
    """Identification probability at one pulse intensity.

    The transmitter draws a fresh uniform candidate angle per trial and the
    attacker runs ``brute_force_identify``; returns the success rate with
    its binomial standard error.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials per grid point")
    config = BruteForceConfig(m_bases)
    hits = 0
    for _ in range(trials):
        angle = config.candidate_angles[rng.integers(0, m_bases)]
        pulse = TwoModeCoherentState(alpha=math.sqrt(alpha_sq), theta=angle)
        hits += brute_force_identify(pulse, config, rng).success
    rate = hits / trials
    stderr = math.sqrt(rate * (1 - rate) / trials)
    return SweepPoint(alpha_sq=float(alpha_sq), success_rate=rate, stderr=stderr, trials=trials)


def attack_success_curve(
    alpha_sq_grid,
    m_bases: int,
    trials: int,
    rng: np.random.Generator,
) -> list[SweepPoint]:
    """Empirical identification probability across pulse intensities.

    Every grid point runs on its own child stream spawned in grid order, so
    the curve is reproducible point by point and may be evaluated in any
    execution order.
    """
    alpha_sq_grid = list(alpha_sq_grid)
    if not alpha_sq_grid:
        raise ValueError("alpha_sq_grid must not be empty")
    return [
        estimate_success(alpha_sq, m_bases, trials, point_rng)
        for alpha_sq, point_rng in zip(alpha_sq_grid, rng.spawn(len(alpha_sq_grid)))
    ]


@dataclass(frozen=True)
class AmplifiedPulse:
    """Amplified signal plus the unpolarized background the amplifier added.

    ``ase_photons`` is the total mean of spontaneous-emission photons across
    both polarization modes; being unpolarized, any analyzer splits it evenly,
    so each arm sees an extra Poisson(ase_photons / 2) on measurement.
    """

    state: TwoModeCoherentState
    ase_photons: float

    def measure(self, analyzer_angle: float, rng: np.random.Generator) -> DetectionEvent:
        n = self.state.mean_photons
        delta = self.state.theta - analyzer_angle
        half_ase = self.ase_photons / 2
        return DetectionEvent(
            counts_transmit=int(rng.poisson(n * np.cos(delta) ** 2 + half_ase)),
            counts_reflect=int(rng.poisson(n * np.sin(delta) ** 2 + half_ase)),
        )


def amplifier_attack(
    pulse: TwoModeCoherentState,
    gain: float,
    ase_photons: float | None = None,
) -> AmplifiedPulse:
    """Scale the pulse by ``gain`` and attach the mandatory ASE background.

    Noiseless amplification is disallowed: any gain above 1 must come with
    unpolarized spontaneous-emission photons.  The default background is the
    quantum-limited floor of gain - 1 photons per polarization mode
    (2*(gain - 1) total).
    """
    if gain < 1:
        raise ValueError("gain must be >= 1")
    if ase_photons is None:
        ase_photons = 2 * (gain - 1)
    if ase_photons < 0:
        raise ValueError("ase_photons must be >= 0")
    if gain > 1 and ase_photons == 0:
        raise ValueError("amplification with zero spontaneous emission is unphysical")
    amplified = TwoModeCoherentState(alpha=pulse.alpha * math.sqrt(gain), theta=pulse.theta)
    return AmplifiedPulse(state=amplified, ase_photons=float(ase_photons))


@dataclass(frozen=True)
class AnomalyVerdict:
    wrong_arm_rate: float
    threshold: float
    anomalous: bool
    events: int


def bob_anomaly_monitor(counts: DetectionCounts, expected_dark_rate: float) -> AnomalyVerdict:
    """Flag excess clicks in the arm that should only see dark counts.

    The receiver knows the transmitted polarization in advance, so his
    crossed (reflect) arm should click at the dark-count rate alone; the
    verdict is anomalous when the empirical rate exceeds it by more than
    5 binomial standard errors.
    """
    n = len(counts)
    if not n:
        raise ValueError("need at least one detection event")
    if not 0 <= expected_dark_rate <= 1:
        raise ValueError("expected_dark_rate must be a probability")
    rate = int((counts.counts_reflect > 0).sum()) / n
    threshold = expected_dark_rate + 5 * math.sqrt(expected_dark_rate * (1 - expected_dark_rate) / n)
    return AnomalyVerdict(
        wrong_arm_rate=rate,
        threshold=threshold,
        anomalous=rate > threshold,
        events=n,
    )


@dataclass(frozen=True)
class PnsModel:
    """Photon-number-splitting exploitability of a weak-pulse source.

    ``min_exploitable`` is 2 when measurement bases are announced publicly
    (the eavesdropper keeps one photon and waits) and 3 when they are never
    announced, as in the hybrid protocol.
    """

    mu: float
    min_exploitable: int = 2

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError("mu must be >= 0")
        if self.min_exploitable not in (2, 3):
            raise ValueError("min_exploitable must be 2 or 3")


def pns_exploitable_fraction(model: PnsModel) -> float:
    """Poisson tail P(n >= min_exploitable) for pulses of mean ``model.mu``."""
    head = sum(
        math.exp(-model.mu) * model.mu**k / math.factorial(k)
        for k in range(model.min_exploitable)
    )
    return max(0.0, 1.0 - head)
