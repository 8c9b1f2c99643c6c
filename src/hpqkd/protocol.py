"""End-to-end key distribution sessions over a lossy photonic channel.

Four modes share one detection model and one runner, ``run_session``: a
plain sifted single-channel session (``baseline_bb84``), the
keystream-assisted single channel with no sifting (``hybrid``), two sideband
channels running side by side (``parallel``), and the keystream-assisted
two-channel composition (``hybrid_parallel``) whose useful-bit rate reaches
four times the baseline.
"""
from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import keystream as ks
from .optics import (
    FiberLink,
    ModulationPlan,
    check_params,
    param,
    require_tuned,
    split_upper_probability,
)
from .polarization import SPARSE_CLICK_PROB, sparse_slots, two_arm_clicks, uniform_blocks

MODES = ("baseline_bb84", "hybrid", "parallel", "hybrid_parallel")

_HALF_PI = np.pi / 2

#: (Alice basis, bit, Bob basis) of each entry of a channel's split table,
#: entry ``(a << 2) | (b << 1) | c``, as uint8 like the per-slot values.
_COMBOS = np.array([(i >> 2, i >> 1 & 1, i & 1) for i in range(8)], dtype=np.uint8).T

#: The per-role random streams, by spawn key: ``_stream(seed, role)`` is
#: child ``_ROLES.index(role)`` of ``SeedSequence(seed)``.  Slot randomness
#: is consumed as arrays indexed by slot, so results do not depend on how
#: slot processing is batched.  Roles are only ever appended, so each keeps
#: its stream; ``routing_ch*`` keeps its index although nothing reads it.
_ROLES = (
    "alice_bits_ch1",
    "alice_bits_ch2",
    "alice_bases_ch1",
    "alice_bases_ch2",
    "bob_bases_ch1",
    "bob_bases_ch2",
    "photons_ch1",
    "photons_ch2",
    "routing_ch1",
    "routing_ch2",
    "dark_upper_ch1",
    "dark_lower_ch1",
    "dark_upper_ch2",
    "dark_lower_ch2",
    "r_entropy",
    "meso_channel",
    "meso_dark_transmit",
    "meso_dark_reflect",
)

#: Layout of the random streams a session consumes, recorded in the
#: ``simulate`` results.  Layout 5: each role of ``_ROLES`` is built by
#: ``_stream`` where it is read, and read front to back, once per session.
#: Every 0/1 array is ``keystream.random_bits``: ``ceil(n / 8)`` bytes
#: ``integers(0, 256, uint8)``, unpacked big-endian.  A weak channel draws
#: its bits that way (and, in the sifted modes, both parties' bases), and
#: the assisted modes draw R (k = n per channel bits) on ``r_entropy``.
#: Every i.i.d. Bernoulli(p) click field over n slots is one
#: ``polarization.add_clicks`` draw, in one of three regimes cut at
#: p = 1/16 and p = 15/16 (``polarization.SPARSE_CLICK_PROB``):
#:
#: - p <= 1/16: ``k = binomial(n, p)``, then ``choice(n, k, replace=False,
#:   shuffle=False)`` gives the click slots; nothing is drawn at p = 0.  A
#:   Binomial(n, p) count followed by a uniform k-subset gives each pattern
#:   with k ones the probability p**k (1 - p)**(n - k), the law of
#:   ``random(n) < p``.
#: - p >= 15/16: the same draw with 1 - p gives the quiet slots.  1 - p is
#:   exact there (Sterbenz), so the law is that of ``random(n) < p``.
#: - in between: ``random(n) < p``, drawn in blocks of 2**14 uniforms
#:   (``polarization.CLICK_BLOCK``), which concatenate to one ``random(n)``.
#:
#: Each detector's dark stream (``dark_*_ch*``, ``meso_dark_transmit`` and
#: ``meso_dark_reflect``) holds one such field with p = d, and
#: ``meso_channel`` one with p = 1 - exp(-alpha_sq * survival), the meso
#: signal click.  On ``photons_ch*`` a weak channel with p = 1 - exp(-mu)
#: and split law t draws, when p <= 1/16, the click slots as above and then
#: one ``random(k)`` routing uniform per click slot, in the order ``choice``
#: returned them, upper where u < t; otherwise one uniform u per slot, in
#: blocks, with a click where u < p, upper where u < p * t.  Either way
#: P(upper) = p t and P(lower) = p (1 - t).  ``routing_ch*`` is never read.
#: The byte streams and the block-drawn uniforms hold one kind of draw in
#: slot order, so a reader that takes them a chunk at a time (32 slots at a
#: time, for the bytes) can keep this layout; a count-and-subset field is
#: drawn once per session.  K' is the ``shake256-ctr64k-v2`` keystream of
#: ``keystream.expand_key``, and only the parity of each basis word is read
#: from it.
STREAM_LAYOUT = 5


#: Largest accepted mean photon number of a pulse: far above any physical
#: setting, and far below the ~9.2e18 mean numpy's Poisson sampler refuses.
MAX_PHOTONS = 1e6


class SecurityConditionWarning(UserWarning):
    """Mesoscopic intensity is not small against the basis count."""


@dataclass(frozen=True)
class ChannelModel:
    """Loss, detectors, and pulse intensities of the optical link."""

    length_km: float = param(0.0, "km", "fiber span length", low=0)
    loss_db_per_km: float = param(0.2, "dB/km", "fiber attenuation", low=0)
    detector_efficiency: float = param(1.0, "probability", "single-photon detector efficiency", low=0, high=1)
    dark_count_prob: float = param(
        0.0, "probability/gate", "dark-count probability per detector gate", low=0, high=1
    )
    mu_weak: float = param(0.5, "photons", "mean photon number of weak pulses", low=0, high=MAX_PHOTONS)
    alpha_sq_meso: float = param(
        25.0, "photons", "mean photon number of mesoscopic pulses", low=0, high=MAX_PHOTONS
    )
    m_bases: int = param(256, "-", "basis count M (power of two)", low=2, high=ks.MAX_M_BASES)

    def __post_init__(self):
        check_params(self)
        ks.bits_per_slot(self.m_bases)  # power-of-two check
        if self.alpha_sq_meso >= self.m_bases:
            warnings.warn(
                f"alpha_sq_meso={self.alpha_sq_meso:g} >= M={self.m_bases}: "
                "the polarization channel is exposed to brute-force "
                "identification (needs |alpha|^2 << M)",
                SecurityConditionWarning,
                stacklevel=3,  # the constructor's caller, past the generated __init__
            )

    @property
    def survival_probability(self) -> float:
        """Per-photon probability of reaching and firing a detector."""
        return self.detector_efficiency * 10 ** (-self.loss_db_per_km * self.length_km / 10)


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to reproduce one session bit for bit."""

    mode: str
    num_slots: int
    channel: ChannelModel
    plan: ModulationPlan
    fiber: FiberLink
    seed: int
    basis_flip_fault_fraction: float = param(
        0.0, "fraction", "receiver-side basis-flip fault injected on this fraction of slots", low=0, high=1
    )
    seed_key_hex: str | None = None

    def __post_init__(self):
        check_params(self)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.num_slots < 1:
            raise ValueError("num_slots must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.seed_key_hex is not None:
            self.resolved_seed_key()  # must parse as hex and hold 64 to 512 bits
        if self.mode in ("parallel", "hybrid_parallel"):
            require_tuned(self.plan, self.fiber)  # both channels need the tuned split

    def resolved_seed_key(self) -> ks.SeedKey:
        if self.seed_key_hex is not None:
            return ks.SeedKey.from_hex(self.seed_key_hex)
        raw = hashlib.blake2b(self.seed.to_bytes(8, "big"), digest_size=16).digest()
        return ks.SeedKey.from_bytes(raw)


@dataclass(frozen=True)
class ChannelReport:
    channel: int
    raw_detections: int
    sifted_bits: int
    qber: float
    useful_rate_bits_per_slot: float
    basis_agreement: float | None = None

    def to_dict(self) -> dict:
        """The fields by name; ``basis_agreement`` only where the bases were not sifted."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.basis_agreement is None:
            del out["basis_agreement"]
        return out


@dataclass(frozen=True)
class SessionReport:
    """Aggregated session accounting; field names are frozen (see README).

    The rate ratio against the baseline compares two sessions, so it is not
    a field here: ``reporting.simulate_results`` adds it to each session.
    """

    mode: str
    seed: int
    slots: int
    usable_slots: int
    raw_detections: int
    sifted_bits: int
    double_click_erasures: int
    meso_erasures: int
    qber: float
    useful_rate_bits_per_slot: float
    per_channel: tuple[ChannelReport, ...]
    public_transcript: dict

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["per_channel"] = [c.to_dict() for c in self.per_channel]
        return out


def _stream(seed: int, role: str) -> np.random.Generator:
    """A new generator for ``role``: child ``_ROLES.index(role)`` of ``SeedSequence(seed)``.

    A session builds each role it reads once, where it reads it.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_ROLES.index(role),)))


def _measured_bases(config: SessionConfig, bob_basis: np.ndarray) -> np.ndarray:
    """Bob's bases as his receiver sets them: the fault flips the first slots."""
    flipped = round(config.basis_flip_fault_fraction * config.num_slots)
    if not flipped:
        return bob_basis
    out = bob_basis.copy()
    out[:flipped] ^= 1
    return out


@dataclass
class _ChannelRun:
    alice_bits: np.ndarray
    click_upper: np.ndarray
    click_lower: np.ndarray
    conclusive: np.ndarray
    bob_bits: np.ndarray


def _run_channel(
    config: SessionConfig,
    channel: int,
    alice_basis: np.ndarray,
    bob_basis_actual: np.ndarray,
) -> _ChannelRun:
    """Detection pass of one sideband channel for the given basis choices.

    The fringe phase of a slot, and with it the split law, depends only on
    (Alice basis, bit, Bob basis), so the law is read from an 8-entry table
    keyed by ``(alice_basis << 2) | (bit << 1) | bob_basis``.  Its entries
    come from the per-slot phase expression on those 8 combinations, so each
    slot gets the very float the per-slot law gives it; no float phase is
    held per slot.
    """
    n = config.num_slots
    ch = config.channel
    bits = ks.random_bits(_stream(config.seed, f"alice_bits_ch{channel}"), n)
    a, b, c = _COMBOS
    table = split_upper_probability(
        config.plan, config.fiber, channel, (a * _HALF_PI + b * np.pi) - c * _HALF_PI
    )
    if table is None:  # no signal, so nothing reads the table
        mu = 0.0
        upper_bit = 0
    else:
        mu = ch.mu_weak * ch.survival_probability
        upper_bit = 0 if table[0] >= 0.5 else 1  # combination 0 sits at phase 0.0
    key = (alice_basis << 2) | (bits << 1) | bob_basis_actual

    # A signal click with p, routed upper with the slot's t: p * t in all.
    p_click = -np.expm1(-mu)
    rng = _stream(config.seed, f"photons_ch{channel}")
    if p_click <= SPARSE_CLICK_PROB:  # the click slots, then one routing uniform each
        signal = np.zeros(n, dtype=bool)
        to_upper = np.zeros(n, dtype=bool)
        if p_click > 0:
            slots = sparse_slots(n, p_click, rng)
            signal[slots] = True
            to_upper[slots[rng.random(len(slots)) < table[key[slots]]]] = True
    else:  # one uniform per slot: a click below p, routed upper below p * t
        signal = np.empty(n, dtype=bool)
        to_upper = np.empty(n, dtype=bool)
        upper_table = p_click * table
        for block, u in uniform_blocks(rng, n):
            np.less(u, p_click, out=signal[block])
            np.less(u, upper_table[key[block]], out=to_upper[block])
    # Built only where two_arm_clicks draws dark clicks: at d > 0.
    dark_rngs = (_stream(config.seed, f"dark_{arm}_ch{channel}") for arm in ("upper", "lower"))
    click_upper, click_lower = two_arm_clicks(signal, to_upper, ch.dark_count_prob, dark_rngs)
    conclusive = click_upper ^ click_lower
    bob_bits = click_upper.view(np.uint8) ^ np.uint8(1 - upper_bit)
    return _ChannelRun(bits, click_upper, click_lower, conclusive, bob_bits)


def _hex_bits(bits: np.ndarray) -> str:
    """The bits packed big-endian, zero-padded to a whole byte, as hex."""
    return np.packbits(bits).tobytes().hex()


def _meso_leg(config: SessionConfig, r_bits: np.ndarray):
    """Distribute the basis stream over the mesoscopic polarization channel."""
    ch = config.channel
    # No name keeps K' past the schedule, so it is freed before the meso
    # draws allocate theirs.
    schedule = ks.build_basis_schedule(
        ks.expand_key(config.resolved_seed_key(), len(r_bits) * ks.bits_per_slot(ch.m_bases)),
        r_bits,
        ch.m_bases,
    )
    counts = ks.simulate_meso_transmission(
        schedule,
        ch.alpha_sq_meso,
        _stream(config.seed, "meso_channel"),
        survival=ch.survival_probability,
        dark_count_prob=ch.dark_count_prob,
        dark_rngs=(_stream(config.seed, f"meso_dark_{arm}") for arm in ("transmit", "reflect")),
    )
    # Both parties derive the same parities from K'; they are built once.
    return ks.bob_decode(schedule.parity, counts)


def run_session(config: SessionConfig) -> SessionReport:
    """Run one session of ``config.mode``.

    The mode fixes two things.  The parallel modes run both sideband
    channels on the same slots, which requires the link phases tuned so each
    channel realizes its deterministic matched-basis split (upper/lower
    orientation swapped between channels); the other modes run channel 1.

    The sifted modes (``baseline_bb84``, ``parallel``) draw independent
    random bases for each party and channel and announce them.  Matched
    bases give a fringe phase of 0 or pi (deterministic detector), mismatched
    bases give +-pi/2 (an even split), and sifting keeps only the matched
    conclusive slots, which costs half the detections on an ideal channel.

    The keystream-assisted modes (``hybrid``, ``hybrid_parallel``) send one
    data stream R over the mesoscopic polarization channel; both parties use
    it as the basis sequence, consumed interleaved (channel 1 then channel 2
    within each slot), so bases always agree and every conclusive slot yields
    a key bit.  Slots whose mesoscopic decode was an erasure are reconciled
    publicly by a bitmask over the interleaved sequence, which keeps the
    announcement unambiguous across channels, and excluded from rate
    accounting on both sides.  The final key is the channel-1 key followed
    by the channel-2 key.
    """
    channels = (1, 2) if config.mode in ("parallel", "hybrid_parallel") else (1,)
    assisted = config.mode in ("hybrid", "hybrid_parallel")
    n = config.num_slots
    if assisted:
        r_bits = ks.random_bits(_stream(config.seed, "r_entropy"), len(channels) * n)
        decoded = _meso_leg(config, r_bits)

    reports = []
    usable_counts = []
    double_clicks = 0
    errors = 0
    announced = {}
    for channel in channels:
        if assisted:
            sel = slice(channel - 1, None, len(channels))
            alice_basis, bob_basis = r_bits[sel], decoded.bits[sel]
            keep = ~decoded.erasure[sel]
            usable = int(np.count_nonzero(keep))
            agreement = int(np.count_nonzero((bob_basis == alice_basis) & keep)) / usable if usable else 0.0
        else:
            alice_basis = ks.random_bits(_stream(config.seed, f"alice_bases_ch{channel}"), n)
            bob_basis = ks.random_bits(_stream(config.seed, f"bob_bases_ch{channel}"), n)
            keep = alice_basis == bob_basis
            usable = n
            agreement = None
            announced[f"alice_ch{channel}"] = _hex_bits(alice_basis)
            announced[f"bob_ch{channel}"] = _hex_bits(bob_basis)
        run = _run_channel(config, channel, alice_basis, _measured_bases(config, bob_basis))
        kept = keep & run.conclusive
        sifted = int(np.count_nonzero(kept))
        wrong = int(np.count_nonzero((run.alice_bits != run.bob_bits) & kept))
        reports.append(
            ChannelReport(
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
        transcript = {"announced_bases": announced}
        meso_erasures = 0
    sifted = sum(c.sifted_bits for c in reports)
    return SessionReport(
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
