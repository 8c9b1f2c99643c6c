"""Two-tone sideband interferometry.

Alice drives a Mach-Zehnder amplitude modulator with two RF tones, the light
propagates over a dispersionless fiber link, and Bob phase-modulates with the
same two tones before sideband-selective detection.  The module provides both
the first-order closed-form sideband intensities and an exact time-domain
spectral oracle that samples the full field over one common tone period and
reads each of the five tone powers as one direct DFT sum at its bin.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import MISSING, dataclass, field, fields, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

#: Modulation depths above this are outside the small-signal regime; the
#: closed forms degrade as O(m^2).  A warning, never an error.
SMALL_SIGNAL_LIMIT = 0.2

#: Largest accepted ``e0`` and modulation depth (rad; one turn of drive
#: phase, 30x the small-signal limit): every power and e0^2*m^2 product of
#: the optics stays below ~1e18, where e0 or m1 = 1e160 overflowed.
MAX_FIELD = 1e6
MAX_DEPTH = 2 * math.pi

#: Link phases must match pi/2 (channel 1) and 3*pi/2 (channel 2) mod 2*pi
#: within this tolerance for the cos^2/sin^2 detection law to apply.
TUNING_TOLERANCE = 1e-6  # rad

DEFAULT_ORACLE_SAMPLES = 2**14


class OpticsNotTunedError(ValueError):
    """Link phases violate the pi/2 / 3*pi/2 tuning condition."""


class SmallSignalWarning(UserWarning):
    """A modulation depth exceeds the small-signal validity range."""


def param(default, unit: str, help: str, low=None, high=None):
    """A dataclass field of one physical parameter: default, unit, help text and inclusive bounds.

    ``check_params`` enforces the bounds, and the scenario schema and the CLI
    help text are generated from the same declaration.  ``MISSING`` makes
    the field required.
    """
    return field(default=default, metadata={"unit": unit, "help": help, "low": low, "high": high})


def check_params(config) -> None:
    """Refuse a ``param`` field of a dataclass that is not finite or lies outside its bounds."""
    for f in fields(config):
        if not f.metadata:
            continue
        value, low, high = getattr(config, f.name), f.metadata["low"], f.metadata["high"]
        if not abs(value) <= sys.float_info.max:  # NaN, inf, an int too big for a float
            raise ValueError(f"{f.name} must be finite")
        if (low is not None and value < low) or (high is not None and value > high):
            rule = f">= {low!r}" if high is None else f"in [{low!r}, {high!r}]"
            raise ValueError(f"{f.name} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class ModulationPlan:
    """All modulator and carrier parameters for one two-tone configuration.

    ``m1``/``m2`` are Alice's amplitude-modulation depths for tones
    ``omega1``/``omega2``; ``m3``/``m4`` are Bob's phase-modulation depths.
    ``psi1`` is the DC bias phase of Alice's Mach-Zehnder.  The RF phases
    ``phi*_a``/``phi*_b`` carry the protocol information.
    """

    e0: float = param(1.0, "field", "carrier field amplitude", low=0, high=MAX_FIELD)
    omega0: float = param(2 * np.pi * 193.4e12, "rad/s", "optical carrier angular frequency (metadata)")
    psi1: float = param(3 * np.pi / 2, "rad", "Mach-Zehnder DC bias phase")
    m1: float = param(0.1, "rad", "transmitter modulation depth, channel 1", low=0, high=MAX_DEPTH)
    m2: float = param(0.1, "rad", "transmitter modulation depth, channel 2", low=0, high=MAX_DEPTH)
    m3: float = param(0.05, "rad", "receiver modulation depth, channel 1", low=0, high=MAX_DEPTH)
    m4: float = param(0.05, "rad", "receiver modulation depth, channel 2", low=0, high=MAX_DEPTH)
    omega1: float = param(2 * np.pi * 1.0e9, "rad/s", "RF tone of channel 1 (positive, below omega0/10)")
    omega2: float = param(2 * np.pi * 3.0e9, "rad/s", "RF tone of channel 2 (positive, below omega0/10, not omega1)")
    phi1_a: float = param(0.0, "rad", "transmitter RF phase, channel 1")
    phi2_a: float = param(0.0, "rad", "transmitter RF phase, channel 2")
    phi1_b: float = param(0.0, "rad", "receiver RF phase, channel 1")
    phi2_b: float = param(0.0, "rad", "receiver RF phase, channel 2")

    def __post_init__(self):
        check_params(self)
        if self.omega1 <= 0 or self.omega2 <= 0:
            raise ValueError("RF frequencies must be positive")
        if self.omega1 == self.omega2:
            raise ValueError("omega1 and omega2 must differ (distinct sidebands)")
        if max(self.omega1, self.omega2) >= self.omega0 / 10:
            raise ValueError("RF tones must sit far below the optical carrier")
        if any(m > SMALL_SIGNAL_LIMIT for m in (self.m1, self.m2, self.m3, self.m4)):
            warnings.warn(
                f"modulation depth > {SMALL_SIGNAL_LIMIT}: outside the "
                "small-signal regime, closed forms lose accuracy",
                SmallSignalWarning,
                stacklevel=3,  # the constructor's caller, past the generated __init__
            )

    def with_phases(self, phi1_a=None, phi2_a=None) -> "ModulationPlan":
        """Copy of the plan with some of Alice's RF phases replaced (sweep helper).

        The copy has this plan's depths, so it repeats no small-signal warning.
        """
        phases = {"phi1_a": phi1_a, "phi2_a": phi2_a}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallSignalWarning)
            return replace(self, **{name: value for name, value in phases.items() if value is not None})

    def delta_phi(self, channel: int) -> float:
        """RF phase difference Alice minus Bob for the given channel (1 or 2)."""
        if channel == 1:
            return self.phi1_a - self.phi1_b
        if channel == 2:
            return self.phi2_a - self.phi2_b
        raise ValueError("channel must be 1 or 2")


@dataclass(frozen=True)
class FiberLink:
    """Dispersionless fiber of length ``length_m`` and index ``refractive_index``.

    Propagation constants are derived, never stored: each spectral component
    at offset +-Omega from the carrier accumulates the relative phase
    +-(n/c)*Omega*L once the common carrier phase is removed.
    """

    length_m: float = param(MISSING, "m", "interferometric link length", low=0)
    refractive_index: float = param(1.5, "-", "fiber group index", low=1)

    def __post_init__(self):
        check_params(self)

    def link_phase(self, omega: float) -> float:
        """Relative phase (n/c)*omega*L accumulated by a sideband at offset omega."""
        return self.refractive_index / SPEED_OF_LIGHT * omega * self.length_m


def tuned_fiber(plan: ModulationPlan, refractive_index: float = 1.5) -> FiberLink:
    """Shortest link satisfying (n/c)*Omega1*L = pi/2 and (n/c)*Omega2*L = 3*pi/2.

    Both conditions hold simultaneously only when Omega2 = 3*Omega1 (up to
    2*pi multiples of the link phases); raises OpticsNotTunedError otherwise.
    """
    length = (np.pi / 2) * SPEED_OF_LIGHT / (refractive_index * plan.omega1)
    fiber = FiberLink(length_m=length, refractive_index=refractive_index)
    if not is_tuned(plan, fiber):
        raise OpticsNotTunedError(
            "no single length tunes both channels; need omega2 = 3*omega1 "
            f"(got omega2/omega1 = {plan.omega2 / plan.omega1:g})"
        )
    return fiber


def _phase_distance(value: float, target: float) -> float:
    return abs((value - target + np.pi) % (2 * np.pi) - np.pi)


def tuning_offsets(plan: ModulationPlan, fiber: FiberLink) -> tuple[float, float]:
    """Distances (rad) of the two link phases from pi/2 and 3*pi/2, mod 2*pi."""
    return (
        _phase_distance(fiber.link_phase(plan.omega1), np.pi / 2),
        _phase_distance(fiber.link_phase(plan.omega2), 3 * np.pi / 2),
    )


def is_tuned(plan: ModulationPlan, fiber: FiberLink) -> bool:
    off1, off2 = tuning_offsets(plan, fiber)
    return off1 <= TUNING_TOLERANCE and off2 <= TUNING_TOLERANCE


def require_tuned(plan: ModulationPlan, fiber: FiberLink) -> None:
    if not is_tuned(plan, fiber):
        off1, off2 = tuning_offsets(plan, fiber)
        raise OpticsNotTunedError(
            f"link phases off tuning by {off1:.3e} rad (ch1) / {off2:.3e} rad (ch2)"
        )


@dataclass(frozen=True)
class SidebandSpectrum:
    """Optical power at the carrier and the four first-order sidebands.

    ``upper1``/``lower1`` sit at carrier +- omega1, ``upper2``/``lower2`` at
    carrier +- omega2.  Units of e0^2.
    """

    carrier: float
    upper1: float
    lower1: float
    upper2: float
    lower2: float

    def __post_init__(self):
        for name in ("carrier", "upper1", "lower1", "upper2", "lower2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} intensity must be >= 0")


def _channel_terms(plan: ModulationPlan, fiber: FiberLink, channel: int):
    """(sum term, interference amplitude, link phase) of the fringe law."""
    if channel == 1:
        m_alice, m_bob, omega = plan.m1, plan.m3, plan.omega1
    elif channel == 2:
        m_alice, m_bob, omega = plan.m2, plan.m4, plan.omega2
    else:
        raise ValueError("channel must be 1 or 2")
    return m_alice**2 / 4 + m_bob**2, m_alice * m_bob, fiber.link_phase(omega)


def sideband_intensities_closed_form(plan: ModulationPlan, fiber: FiberLink) -> SidebandSpectrum:
    """First-order sideband powers after Bob's phase modulator.

    Per channel the upper/lower sidebands carry
    (e0^2/8) * [mA^2/4 + mB^2 +- mA*mB*sin((n/c)*Omega*L + dphi)], so their
    sum is fringe-phase independent and the visibility reaches 1 exactly at
    mA = 2*mB.  Derived at quadrature bias (psi1 = 3*pi/2); accuracy degrades
    at other bias points and at depths beyond the small-signal range.
    """
    scale = plan.e0**2 / 8
    out = {}
    for channel, names in ((1, ("upper1", "lower1")), (2, ("upper2", "lower2"))):
        s, v, chi = _channel_terms(plan, fiber, channel)
        fringe = v * np.sin(chi + plan.delta_phi(channel))
        # s >= v structurally (s - v = (mA/2 - mB)^2), so both intensities are
        # nonnegative; clamp the one-ulp dip rounding can produce at the null.
        out[names[0]] = max(scale * (s + fringe), 0.0)
        out[names[1]] = max(scale * (s - fringe), 0.0)
    carrier = (plan.e0**2 / 2) * (1 + np.cos(plan.psi1))
    return SidebandSpectrum(carrier=max(carrier, 0.0), **out)


def split_upper_probability(plan: ModulationPlan, fiber: FiberLink, channel: int, delta_phi):
    """Probability that a detected sideband photon lands on the upper detector.

    Normalized closed-form split I+/(I+ + I-) for the channel; ``delta_phi``
    may be an array.  Returns None for a dark channel (both depths zero).
    """
    s, v, chi = _channel_terms(plan, fiber, channel)
    if s == 0:
        return None
    return 0.5 + (v / (2 * s)) * np.sin(chi + np.asarray(delta_phi, dtype=float))


@lru_cache(maxsize=16)
def _common_period(omega1: float, omega2: float, max_denominator: int = 4096):
    """Shortest duration holding an integer number of cycles of both tones.

    Cached, since every oracle spectrum asks for it; a ValueError is raised
    again on every call, as ``lru_cache`` keeps no exceptions.
    """
    ratio = omega1 / omega2
    frac = Fraction(ratio).limit_denominator(max_denominator) if math.isfinite(ratio) else Fraction(0)
    if frac.numerator == 0 or abs(float(frac) - ratio) > 1e-9 * ratio:
        raise ValueError(
            "omega1/omega2 must be rational (within 1e-9) for leak-free "
            f"spectral extraction; got ratio {ratio!r}"
        )
    return 2 * np.pi * frac.numerator / omega1


def oracle_period(plan: ModulationPlan, num_samples: int) -> float:
    """Duration of the oracle grid: one common period of the two tones.

    Raises ValueError when the tones share no common period, when
    ``num_samples`` < 2, or when ``num_samples`` points over that period
    violate the Nyquist bound for the highest tone.
    """
    period = _common_period(plan.omega1, plan.omega2)
    if num_samples < 2:
        raise ValueError("num_samples must be >= 2")
    nyquist = 2 * max(plan.omega1, plan.omega2) / np.pi
    if num_samples / period <= nyquist:
        raise ValueError(
            f"num_samples {num_samples} gives sample rate {num_samples / period:g}, which "
            f"violates the Nyquist bound {nyquist:g} for the highest tone"
        )
    return period


#: Samples per partial sum of the oracle's bin readout: a block's dot
#: products go to BLAS, and the block sums are then added pairwise.
_ORACLE_BLOCK = 4096

#: Two grids, 84 MB each at ``scenario.MAX_ORACLE_SAMPLES``: a command builds
#: one, and a caller that alternates two settings of Bob's still finds both.
@lru_cache(maxsize=2)
def _oracle_grid(omega1, omega2, m3, m4, phi1_b, phi2_b, num_samples):
    """The per-sample factors of one oracle grid, as a read-only 10 x N array.

    Rows 0-3 are cos and sin of omega1*t and of omega2*t, from which Alice's
    drive at any RF phase is a sum of products; rows 4-5 are cos and sin of
    Bob's phase-modulator phase; rows 6-9 are cos and sin of
    2*pi*(k*n mod N)/N at the exact DFT bin k of omega1 and of omega2, the
    twiddles an FFT reads those bins with.  None of them depends on Alice's
    settings, which the fringe sweeps vary, nor on the fiber, so a sweep
    builds them once.

    Raises ValueError when a tone does not sit on a DFT bin of the grid.
    """
    period = _common_period(omega1, omega2)
    n = np.arange(num_samples)
    t = n * (period / num_samples)
    bins = []
    for omega in (omega1, omega2):
        cycles = omega * period / (2 * np.pi)
        if abs(cycles - round(cycles)) > 1e-6:
            raise ValueError(f"omega {omega:g} does not sit on a DFT bin (cycles {cycles:g})")
        bins.append(round(cycles))

    def angles():  # one at a time, so the build holds one angle array beside the grid
        yield omega1 * t
        yield omega2 * t
        yield m3 * np.cos(omega1 * t + phi1_b) + m4 * np.cos(omega2 * t + phi2_b)
        for k in bins:
            yield (2 * np.pi / num_samples) * (k * n % num_samples)

    grid = np.empty((10, num_samples))
    for row, angle in zip(range(0, 10, 2), angles()):
        np.cos(angle, out=grid[row])
        np.sin(angle, out=grid[row + 1])
    grid.flags.writeable = False
    return grid


def sideband_intensities_oracle(
    plan: ModulationPlan, fiber: FiberLink, num_samples: int = DEFAULT_ORACLE_SAMPLES
) -> SidebandSpectrum:
    """Ground-truth sideband powers from the exact field at Bob's output.

    No small-depth expansion anywhere.  Alice's modulator is taken in
    balanced push-pull drive: the output envelope e0*cos((psi1 + drive(t))/2)
    carries the exact interferometric intensity law
    (e0^2/2)*(1 + cos(psi1 + drive)) with no residual phase modulation, and
    contains every harmonic order of the drive.  The dispersionless link
    advances every spectral component at offset delta by the same delay,
    i.e. by the phase (n/c)*delta*L, so the field arrives as Alice's with
    each RF phase advanced by ``fiber.link_phase`` of its tone.  Bob's exact
    phase-modulator exponential multiplies it in the time domain.

    The field is sampled over one common tone period (``oracle_period``),
    and each tone power is a direct DFT sum at the tone's exact bin.  With
    the tones, Bob's phasor and the twiddles from a small per-grid cache, a
    call takes one cosine per sample, for the envelope, and small matrix
    products: the drive from the four tone rows, and the sideband sums from
    the four twiddle rows, per block of ``_ORACLE_BLOCK`` samples with the
    block sums added pairwise.  The carrier is the field's pairwise mean.

    Raises ValueError when the grid violates the Nyquist bound for the
    highest tone, the tones share no common period, or a tone does not sit
    on a DFT bin.
    """
    oracle_period(plan, num_samples)  # its Nyquist and common-period checks
    grid = _oracle_grid(plan.omega1, plan.omega2, plan.m3, plan.m4, plan.phi1_b, plan.phi2_b, num_samples)
    phase1 = plan.phi1_a + fiber.link_phase(plan.omega1)
    phase2 = plan.phi2_a + fiber.link_phase(plan.omega2)
    # Half of Alice's drive m*cos(omega*t + phase), from the rows cos and sin
    # of omega*t; halving is exact, so this is cos((psi1 + drive)/2).
    m1, m2 = plan.m1 / 2, plan.m2 / 2
    half = np.array([m1 * math.cos(phase1), -m1 * math.sin(phase1), m2 * math.cos(phase2), -m2 * math.sin(phase2)])
    envelope = half @ grid[:4]
    envelope += plan.psi1 / 2
    np.cos(envelope, out=envelope)
    field = grid[4:6] * envelope  # rows re, im of Bob's field over e0, so powers are in e0^2
    mean = np.add.reduce(field, axis=1) / num_samples
    # The carrier sums to 0 against a tone's twiddles.  Taken out first, it
    # leaves partial sums, and so rounding, at the scale of the sidebands.
    field -= mean[:, None]
    # The sums of re and im against the four twiddle rows, per block of
    # _ORACLE_BLOCK samples (the last block partial), then over the blocks.
    whole = num_samples // _ORACLE_BLOCK
    cut = whole * _ORACLE_BLOCK
    blocks = np.matmul(
        field[:, :cut].reshape(2, whole, _ORACLE_BLOCK).transpose(1, 0, 2),
        grid[6:, :cut].reshape(4, whole, _ORACLE_BLOCK).transpose(1, 2, 0),
    )
    last = field[:, cut:] @ grid[6:, cut:].T
    # One contiguous row of block sums per bin sum: numpy adds along it pairwise.
    per_block = np.concatenate((blocks, last[None])).reshape(whole + 1, 8).T.copy()
    sums = np.add.reduce(per_block, axis=1) / num_samples  # [re, im][tone][cos, sin]
    powers = [mean[0] ** 2 + mean[1] ** 2]
    # The bins +k and -k (upper and lower sideband) of a tone from the same four sums.
    for (rc, rs), (ic, is_) in zip(*sums.reshape(2, 2, 2)):
        powers += [(rc + is_) ** 2 + (ic - rs) ** 2, (rc - is_) ** 2 + (ic + rs) ** 2]
    return SidebandSpectrum(*(float(plan.e0**2 * p) for p in powers))


def fit_half_angle_fringe(delta_phis, powers, kind: str = "cos2") -> tuple[float, float]:
    """Least-squares amplitude A of P = A*cos^2(dphi/2) (or sin^2).

    Returns (A, max relative residual |P - A*basis| / A).
    """
    delta_phis = np.asarray(delta_phis, dtype=float)
    powers = np.asarray(powers, dtype=float)
    if kind == "cos2":
        basis = np.cos(delta_phis / 2) ** 2
    elif kind == "sin2":
        basis = np.sin(delta_phis / 2) ** 2
    else:
        raise ValueError("kind must be 'cos2' or 'sin2'")
    amplitude = float(np.dot(powers, basis) / np.dot(basis, basis))
    if amplitude == 0.0:
        # Dark channel: an all-zero sweep is a perfect zero-amplitude fit.
        residual = float(np.max(np.abs(powers)))
        return amplitude, residual
    residual = float(np.max(np.abs(powers - amplitude * basis)) / amplitude)
    return amplitude, residual
