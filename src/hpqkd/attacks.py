"""Eavesdropper models for the mesoscopic polarization channel.

Covers the brute-force polarization identification (pulse splitting with
per-candidate analyzers and three-case detector logic), the optical-amplifier
attack with its unavoidable unpolarized background, the receiver-side anomaly
monitor that background trips, and photon-number-splitting exploitability.
"""
from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass

import numpy as np

from .optics import check_params, param
from .polarization import DetectionCounts, DetectionEvent, TwoModeCoherentState

#: Ties between candidate scores are broken uniformly at random by adding a
#: jitter far below any physical log-likelihood gap.
_TIE_JITTER = 1e-9

#: Largest accepted ``m_bases``.  The sweep's log-mean table grows as M^2: at
#: this M a point of 1000 trials peaks at 92 MiB traced (130 MB RSS) and
#: takes 160-240 us per trial, against 4-9 us at M = 64 (one BLAS thread,
#: 2-core VM).  Up to this M the only arm an ideal attacker's candidate on
#: the grid k*pi/M predicts dark is its own reflect arm, which
#: ``_identify``'s veto count relies on.
MAX_ATTACK_M_BASES = 1024


def _hypothesis_tables(cos2: np.ndarray, signal_mean: float) -> np.ndarray:
    """Log of the per-arm count means under every (candidate, analyzer) pair,
    from their cos^2 table ``cos2``, as an M x 2M table over the transmit then
    reflect arms of every analyzer; 0 where a mean is exactly 0.
    """
    means = np.concatenate([signal_mean * cos2, signal_mean * (1 - cos2)], axis=1)
    return np.log(np.where(means == 0, 1.0, means))


#: Trials scored per batched draw in ``estimate_success``.  Part of the
#: stream layout: memory stays O(_TRIAL_BLOCK * M + M^2) for any trial count.
_TRIAL_BLOCK = 1024

#: Layout of the random streams consumed by the brute-force sweep, recorded
#: in the ``attack-sweep`` bundle.  Layout 2: ``attack_success_curve`` spawns
#: one child per grid point in grid order (``attack-sweep`` spawns one more
#: for its PNS table), on which ``estimate_success`` runs blocks of up to
#: ``_TRIAL_BLOCK`` trials; per block of n trials it draws the true
#: candidate indices ``integers(0, M, n)``, then ``_identify`` draws the
#: transmit counts ``poisson`` (n, M), the reflect counts ``poisson`` (n, M),
#: the tie jitter ``uniform`` (n, M) and the fallback indices
#: ``integers(0, M, n)``, every one of them whether or not it is used.
STREAM_LAYOUT = 2


@dataclass(frozen=True)
class _Batch:
    """Outcomes of n identification trials, one entry per trial."""

    estimated_angle: np.ndarray
    case_both: np.ndarray
    case_none: np.ndarray
    case_one: np.ndarray
    success: np.ndarray


def _identify(true_index: np.ndarray, m: int, signal_mean: float, rng: np.random.Generator) -> _Batch:
    """Run ``len(true_index)`` identification trials at once.

    Trial i splits a pulse of mean photon number ``signal_mean`` polarized
    at candidate ``true_index[i]`` of the grid k*pi/M into M equal
    sub-pulses and analyzes sub-pulse k at candidate angle k*pi/M, with
    ideal detectors (no loss, no dark counts).  Double clicks eliminate a
    candidate, silent sub-pulses carry no information, and single-detector
    clicks mark it as consistent.  Among consistent candidates the estimate
    has the fewest vetoing photons (a photon where the candidate predicts a
    dark arm), then the highest log-Poisson likelihood of every count, ties
    uniform at random; with no consistent candidate it falls back to a
    uniform random pick.  Draw order as documented at ``STREAM_LAYOUT``.
    """
    angles = np.arange(m) * np.pi / m
    n = len(true_index)
    sub_mean = signal_mean / m

    # cos^2 and sin^2 of every candidate minus analyzer angle, one row per candidate.
    cos2, sin2 = (f(angles[:, None] - angles) ** 2 for f in (np.cos, np.sin))
    # Transmit then reflect arm of every analyzer, as in the hypothesis tables.
    counts = np.concatenate(
        [rng.poisson(sub_mean * cos2[true_index]), rng.poisson(sub_mean * sin2[true_index])],
        axis=1,
        dtype=float,
    )
    jitter = rng.uniform(0.0, _TIE_JITTER, (n, m))
    fallback = rng.integers(0, m, n)

    clicks_t, clicks_r = counts[:, :m] > 0, counts[:, m:] > 0
    both = clicks_t & clicks_r
    none = ~(clicks_t | clicks_r)
    one = clicks_t ^ clicks_r

    scores = counts @ _hypothesis_tables(cos2, sub_mean).T
    scores += jitter
    # On this grid the one arm a candidate predicts dark is its own reflect
    # arm (``MAX_ATTACK_M_BASES``).  Vetoes and log-likelihoods are both
    # exact, so ties break on the jitter and not on rounding.
    vetoes = np.where(one, counts[:, m:], np.inf)
    scores[vetoes > vetoes.min(axis=1, keepdims=True)] = -np.inf
    index = np.where(one.any(axis=1), np.argmax(scores, axis=1), fallback)
    return _Batch(angles[index], both.sum(axis=1), none.sum(axis=1), one.sum(axis=1), index == true_index)


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
    attacker runs the brute-force identification, in blocks of at most
    ``_TRIAL_BLOCK`` trials; returns the success rate with its binomial
    standard error.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials per grid point")
    if not alpha_sq >= 0:
        raise ValueError("alpha_sq must be >= 0")
    if not 2 <= m_bases <= MAX_ATTACK_M_BASES:
        raise ValueError(f"m_bases must be in [2, {MAX_ATTACK_M_BASES}], got {m_bases!r}")
    hits = 0
    for start in range(0, trials, _TRIAL_BLOCK):
        n = min(_TRIAL_BLOCK, trials - start)
        hits += int(_identify(rng.integers(0, m_bases, n), m_bases, alpha_sq, rng).success.sum())
    rate = hits / trials
    stderr = math.sqrt(rate * (1 - rate) / trials)
    return SweepPoint(alpha_sq=float(alpha_sq), success_rate=rate, stderr=stderr, trials=trials)


def attack_success_curve(
    alpha_sq_grid,
    m_bases: int,
    trials: int,
    rng: np.random.Generator,
    workers: int = 1,
) -> list[SweepPoint]:
    """Empirical identification probability across pulse intensities.

    Every grid point runs on its own child stream spawned in grid order, so
    the curve is reproducible point by point and may be evaluated in any
    execution order: ``workers`` > 1 runs them on min(workers, points, CPUs)
    processes, with the same result.
    """
    alpha_sq_grid = list(alpha_sq_grid)
    if not alpha_sq_grid:
        raise ValueError("alpha_sq_grid must not be empty")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    points = len(alpha_sq_grid)
    args = (alpha_sq_grid, [m_bases] * points, [trials] * points, rng.spawn(points))
    processes = min(workers, points, os.cpu_count() or 1)
    if processes > 1:
        # Imported here: the process machinery costs every other command about 15 ms of start-up.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=processes) as pool:
            return list(pool.map(estimate_success, *args))
    return list(map(estimate_success, *args))


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

    mu: float = param(MISSING, "photons", "mean photon number of the weak pulses", low=0)
    min_exploitable: int = 2

    def __post_init__(self):
        check_params(self)
        if self.min_exploitable not in (2, 3):
            raise ValueError("min_exploitable must be 2 or 3")


def pns_exploitable_fraction(model: PnsModel) -> float:
    """Poisson tail P(n >= min_exploitable) for pulses of mean ``model.mu``."""
    head = sum(
        math.exp(-model.mu) * model.mu**k / math.factorial(k)
        for k in range(model.min_exploitable)
    )
    return max(0.0, 1.0 - head)
