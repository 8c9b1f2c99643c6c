"""Eavesdropper models for the mesoscopic polarization channel.

Covers the brute-force polarization identification (pulse splitting with
per-candidate analyzers and three-case detector logic), read by
``attack-sweep``'s crossover curve, and the photon-number-splitting
exploitability of its weak-pulse table.
"""
from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

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

#: Pulses per block of ``pns_tail_fractions``.  Part of the stream layout:
#: memory stays O(_PNS_BLOCK) for any pulse count.
_PNS_BLOCK = 2**16

#: Layout of the random streams consumed by ``attack-sweep``, recorded in its
#: bundle.  Layout 4: ``attack_success_curve`` spawns one child per grid
#: point in grid order, on which ``estimate_success`` runs blocks of up to
#: ``_TRIAL_BLOCK`` trials; per block of n trials it draws the true
#: candidate indices ``integers(0, M, n)``, then ``_identify`` draws the
#: transmit counts ``poisson`` (n, M), the reflect counts ``poisson`` (n, M),
#: the tie jitter ``uniform`` (n, M) and the fallback indices
#: ``integers(0, M, n)``, every one of them whether or not it is used (as in
#: layouts 2 and 3).  ``attack-sweep`` spawns one more child for its PNS
#: table, on which ``pns_tail_fractions`` first draws the number of pulses
#: whose first photon arrives before the largest mean, reach, as
#: ``binomial(trials, p)`` with p = -expm1(-reach); then it runs blocks of up
#: to ``_PNS_BLOCK`` of those pulses, and per block of n pulses draws
#: ``random(n)`` for their first arrivals, then for each k from 2 to the
#: largest threshold ``standard_exponential(live)`` for the ``live`` pulses,
#: in pulse order, whose arrival time k - 1 is below reach.  Layout 3 drew
#: every pulse's first arrival with ``standard_exponential``; layout 2 drew
#: ``poisson(mu, trials)`` per table row.
STREAM_LAYOUT = 4


def _identify(true_index: np.ndarray, m: int, signal_mean: float, rng: np.random.Generator) -> np.ndarray:
    """Run ``len(true_index)`` identification trials at once; True where a trial's estimate is right.

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

    one = (counts[:, :m] > 0) ^ (counts[:, m:] > 0)

    scores = counts @ _hypothesis_tables(cos2, sub_mean).T
    scores += jitter
    # On this grid the one arm a candidate predicts dark is its own reflect
    # arm (``MAX_ATTACK_M_BASES``).  Vetoes and log-likelihoods are both
    # exact, so ties break on the jitter and not on rounding.
    vetoes = np.where(one, counts[:, m:], np.inf)
    scores[vetoes > vetoes.min(axis=1, keepdims=True)] = -np.inf
    index = np.where(one.any(axis=1), np.argmax(scores, axis=1), fallback)
    return index == true_index


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
        hits += int(_identify(rng.integers(0, m_bases, n), m_bases, alpha_sq, rng).sum())
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


def pns_exploitable_fraction(mu: float, min_exploitable: int) -> float:
    """Poisson tail P(n >= min_exploitable) for weak pulses of mean photon number ``mu``.

    ``min_exploitable`` is 2 when measurement bases are announced publicly
    (the eavesdropper keeps one photon and waits) and 3 when they are never
    announced, as in the hybrid protocol.
    """
    if not abs(mu) <= sys.float_info.max:  # NaN, inf, an int too big for a float
        raise ValueError("mu must be finite")
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu!r}")
    if min_exploitable not in (2, 3):
        raise ValueError("min_exploitable must be 2 or 3")
    if mu < 1:
        # Below mu = 1, 1 - head cancels (at mu = 1e-6, t = 3 it reads 0), so
        # sum the tail itself.  Each term is at most a third of the one before, so
        # the terms left out add less than 3**-36 of the first.
        return math.fsum(
            math.exp(-mu) * mu**k / math.factorial(k) for k in range(min_exploitable, min_exploitable + 36)
        )
    # From mu = 1 on the tail is at least 0.08, so 1 - head does not cancel.
    head = sum(math.exp(-mu) * mu**k / math.factorial(k) for k in range(min_exploitable))
    return max(0.0, 1.0 - head)


def pns_tail_fractions(mus, thresholds, trials: int, rng: np.random.Generator) -> np.ndarray:
    """Monte Carlo P(N >= t) for every mean in ``mus`` and threshold in ``thresholds``.

    A check of ``pns_exploitable_fraction`` that does not use the Poisson
    law: photons arrive as a unit-rate Poisson process, arrival t at
    S_t = E_1 + ... + E_t with i.i.d. standard exponentials E_k, and a pulse
    of mean mu holds at least t photons iff S_t < mu (so mu = 0 reads 0).
    Only pulses whose first photon arrives before the largest mean, reach,
    can count, so the draw keeps a Binomial(trials, p) number of them, p =
    P(E_1 < reach), and draws each one's E_1 from the exponential law
    truncated to [0, reach) by inversion.  That has the law of drawing every
    pulse and dropping the late ones, and it uses only the law of one
    exponential, which every drawn arrival follows as before, so the table
    stays a check of the Poisson tail formula and not a copy of it.
    All means and thresholds share one set of ``trials`` arrival sequences,
    so each entry is a Binomial(trials, P(N >= t)) fraction, and the entries
    never fall as mu grows or t falls.  Returns a len(mus) x len(thresholds)
    array.  Draw order as documented at ``STREAM_LAYOUT``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    means = np.asarray(mus, dtype=float)
    if not means.size or not (np.isfinite(means) & (means >= 0)).all():
        raise ValueError("need at least one mean, each finite and >= 0")
    thresholds = list(thresholds)
    if not thresholds or not set(thresholds) <= {2, 3}:
        raise ValueError("thresholds must be 2 or 3, at least one")
    # An arrival time's bin counts the means at or below it, so it is below
    # mu iff its bin is at most the number of means below mu.  Arrivals are
    # binned only while below reach, so no bin counts every mean.  (Not
    # np.unique: its first call imports numpy.ma, 17 ms and 1 MB.)
    levels = np.sort(means)
    rank = np.searchsorted(levels, means)
    reach = levels[-1]
    p = -math.expm1(-reach)
    kept = int(rng.binomial(trials, p))
    hits = np.zeros((max(thresholds) + 1, len(levels)), dtype=np.int64)
    for start in range(0, kept, _PNS_BLOCK):
        # First arrivals -log1p(-p * u), mapped in place.
        arrival = rng.random(min(_PNS_BLOCK, kept - start))
        arrival *= -p
        np.log1p(arrival, out=arrival)
        np.negative(arrival, out=arrival)
        for k in range(2, max(thresholds) + 1):
            arrival += rng.standard_exponential(len(arrival))
            arrival = arrival[arrival < reach]
            hits[k] += np.bincount(np.searchsorted(levels, arrival, side="right"), minlength=len(levels))
    below = np.cumsum(hits, axis=1)
    return below[np.ix_(thresholds, rank)].T / trials
