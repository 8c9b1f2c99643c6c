"""Reference physics that no command reaches, kept as test oracles.

A linearly polarized two-mode coherent state with its rotation and Stokes
statistics, the small-angle overlap that sits beside
``polarization.overlap_exact``, the single-arm Mach-Zehnder field with its
small-signal intensity, and the field at Bob's output with its tone powers
read from one FFT, the readout ``optics.sideband_intensities_oracle``
replaced by direct DFT sums.  The click fields and the meso pass (basis
schedule, transmission, decode) one value per slot, with their two-arm
counts (``DetectionCounts``), which the packed meso leg must equal bit for
bit.  And the one per-slot session reference: the weak-channel pass of
session stream layout 5, one outcome per slot (``reference_channel_run``),
and the session that runs it on every role's stream
(``reference_run_session``).  The seed-pool gates of ``test_protocol``
compare the package with it and with closed-form laws, and
``LAYOUT5_DIGESTS`` pin it.  ``test_polarization``, ``test_optics``,
``test_protocol``, ``test_scenario_matrix`` and ``test_acceptance`` read
these oracles.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from hpqkd import keystream as ks
from hpqkd import protocol
from hpqkd.keystream import ExpandedKey, bits_per_slot
from hpqkd.optics import (
    DEFAULT_ORACLE_SAMPLES,
    FiberLink,
    ModulationPlan,
    oracle_period,
    split_upper_probability,
)
from hpqkd.polarization import SPARSE_CLICK_PROB, sparse_slots, uniform_blocks


@dataclass(frozen=True)
class TwoModeCoherentState:
    """Linearly polarized coherent state |alpha*cos(theta), alpha*sin(theta)>.

    ``theta`` is stored in [0, pi) because linear polarizations at theta and
    theta + pi are the same physical state.
    """

    alpha: complex
    theta: float

    def __post_init__(self):
        if not np.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        object.__setattr__(self, "theta", float(self.theta) % np.pi)

    @property
    def mean_photons(self) -> float:
        return float(abs(self.alpha) ** 2)


@dataclass(frozen=True)
class DetectionCounts:
    """Photon counts, or 0/1 clicks, at the two PBS outputs for a run of slots, one array per arm."""

    counts_transmit: np.ndarray
    counts_reflect: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.counts_transmit)
        r = np.asarray(self.counts_reflect)
        if t.ndim != 1 or r.ndim != 1 or len(t) != len(r):
            raise ValueError("counts must be two 1-D arrays of one length")
        if (t < 0).any() or (r < 0).any():
            raise ValueError("photon counts must be >= 0")
        object.__setattr__(self, "counts_transmit", t)
        object.__setattr__(self, "counts_reflect", r)

    def __len__(self) -> int:
        return len(self.counts_transmit)


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


# The click fields and the meso pass, one bool or uint8 per slot, on the
# draws of stream layout 6.  The packed ``polarization.add_clicks``,
# ``two_arm_clicks`` and ``protocol._meso_leg`` must equal them bit for bit.


def add_clicks(field: np.ndarray, p: float, rng: np.random.Generator) -> None:
    """OR an i.i.d. Bernoulli(p) click field into the boolean ``field``, in place.

    The draw depends on p.  Up to ``SPARSE_CLICK_PROB`` it draws the click
    slots (``sparse_slots``), nothing at p = 0.  From 1 - ``SPARSE_CLICK_PROB``
    on it draws the quiet slots with 1 - p, which is exact there (Sterbenz),
    so the law is that of ``random(n) < p``; at p = 1 the draw is empty.  In
    between it draws ``random(n) < p`` in blocks (``uniform_blocks``).
    """
    if not 0 <= p <= 1:
        raise ValueError(f"click probability must be in [0, 1], got {p!r}")
    n = len(field)
    if p <= SPARSE_CLICK_PROB:
        if p > 0:
            field[sparse_slots(n, p, rng)] = True
    elif p >= 1 - SPARSE_CLICK_PROB:
        quiet = sparse_slots(n, 1 - p, rng)
        kept = field[quiet]
        field.fill(True)
        field[quiet] = kept
    else:
        for block, u in uniform_blocks(rng, n):
            field[block] |= u < p


def two_arm_clicks(
    signal: np.ndarray,
    to_first: np.ndarray,
    dark_count_prob: float,
    dark_rngs: Iterable[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Clicks of a two-arm threshold detector, one boolean per slot and arm.

    A signal click lands in the first arm where ``to_first`` holds and in
    the second arm elsewhere.  Each arm also fires on its own i.i.d. dark
    counts, drawn by ``add_clicks`` from its generator in ``dark_rngs``
    (first arm, then second); with no dark counts nothing is drawn and
    ``dark_rngs`` is not iterated, so a lazy iterable builds no generator.
    Exactly one arm firing is conclusive; no click or a double click is an
    erasure.
    """
    if not 0 <= dark_count_prob <= 1:
        raise ValueError(f"dark_count_prob must be in [0, 1], got {dark_count_prob!r}")
    first = signal & to_first
    second = signal & ~to_first
    if dark_count_prob > 0:
        for arm, rng in zip((first, second), dark_rngs, strict=True):
            add_clicks(arm, dark_count_prob, rng)
    return first, second


@dataclass(frozen=True)
class BasisSchedule:
    """Per-slot basis parity and encoded bit.

    Slot i's basis is the log2(M)-bit word D read big-endian from bits
    [i log2(M), (i + 1) log2(M)) of the expanded key; its first-quadrant
    angle is D*pi/(2*M) and its orthogonal partner sits a quarter turn
    away.  The transmitted angle is in the first quadrant exactly when
    parity(D) XOR bit == 0, and nothing else of D is ever read, so the
    schedule holds ``parity``, the word's last bit, as uint8.  It comes
    from K' alone, so the receiver decodes with the same array.
    """

    parity: np.ndarray
    bit: np.ndarray

    def __len__(self) -> int:
        return len(self.parity)


def _parities(kprime: ExpandedKey, m_bases: int) -> np.ndarray:
    """parity(D) of each whole log2(M)-bit word of K', read from the packed bytes.

    A whole-byte word's parity is the low bit of its last byte.  Otherwise
    eight words fill log2(M) bytes, so the words at one position of such a
    group sit ``log2(M)`` bytes apart, their last bit always at the same
    place in the byte: one strided column per position.
    """
    bits_per = bits_per_slot(m_bases)
    slots = len(kprime) // bits_per
    if bits_per % 8 == 0:
        step = bits_per // 8
        return kprime.packed[step - 1 :: step][:slots] & 1
    parity = np.empty(slots, dtype=np.uint8)
    for position in range(min(8, slots)):
        last = (position + 1) * bits_per - 1  # the word's last bit, counted from its group's start
        column = parity[position::8]
        np.right_shift(kprime.packed[last >> 3 :: bits_per][: len(column)], 7 - (last & 7), out=column)
        column &= 1
    return parity


def build_basis_schedule(kprime: ExpandedKey, r: np.ndarray, m_bases: int) -> BasisSchedule:
    """Pair each key word with a data bit; the parity rule fixes the transmit angle.

    Even basis word and bit 0 (or odd word and bit 1) put the polarization in
    the first quadrant; the other two combinations select the orthogonal
    partner in the second quadrant.
    """
    r = np.asarray(r, dtype=np.uint8)
    parity = _parities(kprime, m_bases)
    if len(r) != len(parity):
        raise ValueError(
            f"data length {len(r)} != floor(|K'| / log2(M)) = {len(parity)}"
        )
    return BasisSchedule(parity=parity, bit=r)


@dataclass(frozen=True)
class DecodedBits:
    """Receiver-side recovery of the data bits, with erasure flags.

    ``erasure`` marks slots whose detection was inconclusive (no click or
    clicks in both arms); ``bits`` is only meaningful where ``erasure`` is
    False.
    """

    bits: np.ndarray
    erasure: np.ndarray


def bob_decode(parity: np.ndarray, counts: DetectionCounts) -> DecodedBits:
    """Decode per-slot detection counts with the shared basis parities.

    ``parity`` holds parity(D) of the words D that both parties read from
    K' (a schedule's ``parity``: it does not depend on the data bits, so the
    session builds it once).  The receiver analyzes at each word's
    first-quadrant angle, so a transmit-arm click decodes to parity(D), the
    bit that maps to the first quadrant, and a reflect-arm click to the
    other bit.
    """
    parity = np.asarray(parity, dtype=np.uint8)
    if len(counts) != len(parity):
        raise ValueError(f"got counts for {len(counts)} slots, expected {len(parity)}")
    clicked_r = counts.counts_reflect > 0
    erasure = ~((counts.counts_transmit > 0) ^ clicked_r)
    bits = parity ^ clicked_r
    return DecodedBits(bits=bits, erasure=erasure)


def simulate_meso_transmission(
    schedule: BasisSchedule,
    alpha_sq: float,
    rng: np.random.Generator,
    survival: float,
    dark_count_prob: float,
    dark_rngs: Iterable[np.random.Generator],
) -> DetectionCounts:
    """Send the schedule as mesoscopic pulses and detect at the shared basis.

    Each slot carries a coherent pulse of mean photon number ``alpha_sq`` at
    the scheduled angle, thinned by ``survival`` (loss and detector
    efficiency).  Only whether an arm fired is ever read, so the pulse is
    drawn as a click with p = 1 - exp(-alpha_sq * survival), which is
    exactly P(Poisson > 0): one ``polarization.add_clicks`` field from
    ``rng``.  The analyzer always sits at the slot's first-quadrant angle,
    so the click lands in one arm, the transmit arm iff parity(D) == bit.
    Each arm also fires on a dark count with probability
    ``dark_count_prob``, drawn by ``two_arm_clicks`` from ``dark_rngs``
    (transmit arm, reflect arm).  NaN or a negative ``alpha_sq`` raises
    ``ValueError``.  Returns the 0/1 clicks of each arm.
    """
    if not alpha_sq >= 0 or not 0 <= survival <= 1:  # NaN fails both
        raise ValueError(f"alpha_sq must be >= 0 and survival a probability, got {alpha_sq!r} and {survival!r}")
    signal = np.zeros(len(schedule), dtype=bool)
    add_clicks(signal, -np.expm1(-alpha_sq * survival), rng)
    aligned = schedule.parity == schedule.bit
    click_t, click_r = two_arm_clicks(signal, aligned, dark_count_prob, dark_rngs)
    return DetectionCounts(click_t.view(np.uint8), click_r.view(np.uint8))


def meso_leg(config, r_bits: np.ndarray) -> DecodedBits:
    """The meso leg of a session over the unpacked R, one value per slot."""
    ch = config.channel
    schedule = build_basis_schedule(
        ks.expand_key(config.resolved_seed_key(), len(r_bits) * bits_per_slot(ch.m_bases)),
        r_bits,
        ch.m_bases,
    )
    counts = simulate_meso_transmission(
        schedule,
        ch.alpha_sq_meso,
        protocol._stream(config.seed, "meso_channel"),
        survival=ch.survival_probability,
        dark_count_prob=ch.dark_count_prob,
        dark_rngs=(protocol._stream(config.seed, f"meso_dark_{arm}") for arm in ("transmit", "reflect")),
    )
    return bob_decode(schedule.parity, counts)


@dataclass
class ChannelRun:
    """One weak channel's per-slot pass: Alice's bits, each detector's clicks and Bob's bits."""

    alice_bits: np.ndarray
    click_upper: np.ndarray
    click_lower: np.ndarray
    conclusive: np.ndarray
    bob_bits: np.ndarray


def measured_bases(config, bob_basis: np.ndarray) -> np.ndarray:
    """Bob's bases as his receiver sets them: the fault flips the first slots."""
    flipped = round(config.basis_flip_fault_fraction * config.num_slots)
    if not flipped:
        return bob_basis
    out = bob_basis.copy()
    out[:flipped] ^= 1
    return out


def reference_bits(rng, n) -> np.ndarray:
    """Reference: ``n`` 0/1 values from ``ceil(n / 8)`` random bytes, unpacked big-endian."""
    return np.unpackbits(rng.integers(0, 256, (n + 7) // 8, dtype=np.uint8))[:n]


def reference_channel_run(config, streams, channel, alice_basis, bob_basis_actual) -> ChannelRun:
    """Detection pass of one sideband channel in stream layout 5, written slot by slot.

    Alice's bits are random bytes unpacked on ``alice_bits_ch*``.  The pass
    forms a float fringe phase per slot, evaluates the split law t on each,
    and chooses Bob's bit with ``np.where``.  With p = 1 - exp(-mu) up to
    1/16 the channel draws a count and that many click slots on
    ``photons_ch*``, then one routing uniform per click slot, upper below t
    (nothing at p = 0); above 1/16 one ``random(n)``, a signal below p and
    the upper detector below p * t.  Each detector adds its dark clicks from
    ``dark_*_ch*`` (``two_arm_clicks``).  ``streams`` maps each role to its
    generator (``session_streams``).
    """
    n = config.num_slots
    ch = config.channel
    bits = reference_bits(streams[f"alice_bits_ch{channel}"], n)
    delta_phi = (alice_basis * (np.pi / 2) + bits * np.pi) - bob_basis_actual * (np.pi / 2)
    p_upper = split_upper_probability(config.plan, config.fiber, channel, delta_phi)
    if p_upper is None:
        mu = 0.0
        p_upper = np.full(n, 0.5)
        upper_bit = 0
    else:
        mu = ch.mu_weak * ch.survival_probability
        upper_bit = 0 if split_upper_probability(config.plan, config.fiber, channel, 0.0) >= 0.5 else 1
    p_click = -np.expm1(-mu)
    rng = streams[f"photons_ch{channel}"]
    if p_click <= 1 / 16:
        signal, to_upper = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        if p_click > 0:
            slots = rng.choice(n, rng.binomial(n, p_click), replace=False, shuffle=False)
            signal[slots] = True
            to_upper[slots] = rng.random(len(slots)) < p_upper[slots]
    else:
        u = rng.random(n)
        signal = u < p_click
        to_upper = u < p_click * p_upper
    dark_rngs = (streams[f"dark_upper_ch{channel}"], streams[f"dark_lower_ch{channel}"])
    click_upper, click_lower = two_arm_clicks(signal, to_upper, ch.dark_count_prob, dark_rngs)
    bob_bits = np.where(click_upper, upper_bit, 1 - upper_bit).astype(np.uint8)
    return ChannelRun(bits, click_upper, click_lower, click_upper ^ click_lower, bob_bits)


def session_streams(seed) -> dict:
    """Every role's generator for ``seed``, each built as the engine builds it."""
    return {role: protocol._stream(seed, role) for role in protocol._ROLES}


def _hex_bits(bits: np.ndarray) -> str:
    return np.packbits(bits).tobytes().hex()


def reference_run_session(config) -> protocol.SessionReport:
    """``run_session`` as stream layout 5 ran it: each weak channel one outcome per slot.

    Alice's bits, the sifted bases and R are random bytes unpacked
    (``reference_bits``), and each weak channel is ``reference_channel_run``
    on ``session_streams(config.seed)``.  The meso leg is the per-slot
    ``meso_leg``.  The report is assembled as the package assembles it.
    """
    streams = session_streams(config.seed)
    channels = (1, 2) if config.mode in ("parallel", "hybrid_parallel") else (1,)
    assisted = config.mode in ("hybrid", "hybrid_parallel")
    n = config.num_slots
    if assisted:
        r_bits = reference_bits(streams["r_entropy"], len(channels) * n)
        decoded = meso_leg(config, r_bits)
    reports, usable_counts, announced = [], [], {}
    double_clicks = errors = 0
    for channel in channels:
        if assisted:
            sel = slice(channel - 1, None, len(channels))
            alice_basis, bob_basis = r_bits[sel], decoded.bits[sel]
            keep = ~decoded.erasure[sel]
            usable = int(np.count_nonzero(keep))
            agreement = int(np.count_nonzero((bob_basis == alice_basis) & keep)) / usable if usable else 0.0
        else:
            alice_basis = reference_bits(streams[f"alice_bases_ch{channel}"], n)
            bob_basis = reference_bits(streams[f"bob_bases_ch{channel}"], n)
            keep = alice_basis == bob_basis
            usable, agreement = n, None
            announced[f"alice_ch{channel}"] = _hex_bits(alice_basis)
            announced[f"bob_ch{channel}"] = _hex_bits(bob_basis)
        run = reference_channel_run(config, streams, channel, alice_basis, measured_bases(config, bob_basis))
        kept = keep & run.conclusive
        sifted = int(np.count_nonzero(kept))
        wrong = int(np.count_nonzero((run.alice_bits != run.bob_bits) & kept))
        reports.append(
            protocol.ChannelReport(
                channel=channel,
                raw_detections=int(np.count_nonzero(run.conclusive)),
                sifted_bits=sifted,
                qber=wrong / sifted if sifted else 0.0,
                useful_rate_bits_per_slot=sifted / usable if usable else 0.0,
                basis_agreement=agreement,
            )
        )
        usable_counts.append(usable)
        double_clicks += int(np.count_nonzero(run.click_upper & run.click_lower))
        errors += wrong
    if assisted:
        transcript = {"erasure_mask_hex": _hex_bits(decoded.erasure)}
        meso_erasures = int(np.count_nonzero(decoded.erasure))
    else:
        transcript, meso_erasures = {"announced_bases": announced}, 0
    sifted = sum(c.sifted_bits for c in reports)
    return protocol.SessionReport(
        mode=config.mode,
        seed=config.seed,
        slots=n,
        usable_slots=min(usable_counts),
        raw_detections=sum(c.raw_detections for c in reports),
        sifted_bits=sifted,
        double_click_erasures=double_clicks,
        meso_erasures=meso_erasures,
        qber=errors / sifted if sifted else 0.0,
        useful_rate_bits_per_slot=sum(c.useful_rate_bits_per_slot for c in reports),
        per_channel=tuple(reports),
        public_transcript=transcript,
    )
