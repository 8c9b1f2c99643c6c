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
import itertools
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

MODES = ("baseline_bb84", "hybrid", "parallel", "hybrid_parallel")

_HALF_PI = np.pi / 2

#: The per-role random streams, by spawn key: ``_stream(seed, role)`` is
#: child ``_ROLES.index(role)`` of ``SeedSequence(seed)``.  Roles are only
#: ever appended, so each keeps its stream; ``alice_bits_ch*``,
#: ``photons_ch*``, ``routing_ch*`` and ``dark_*_ch*`` keep their indices
#: although layouts 6 and 7 read none of them.
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
    "weak_counts_ch1",
    "weak_counts_ch2",
)

#: Layout of the random streams a session consumes, recorded in the
#: ``simulate`` results.  Layout 7: each role of ``_ROLES`` is built by
#: ``_stream`` where it is read, and read front to back, once per session.
#: A bit string over n slots is ``ceil(n / 8)`` bytes ``integers(0, 256,
#: uint8)``, read big-endian: the sifted modes draw both parties' bases so
#: (``keystream.random_bytes``, on ``alice_bases_ch*`` and
#: ``bob_bases_ch*``), and the assisted modes draw R, n bits per channel
#: interleaved, on ``r_entropy`` the same way.  The session holds every
#: per-slot bit string in this packed form, zero past the last slot.
#:
#: A weak channel draws nothing per slot.  Its slots fall into 8 classes
#: [a, c, k]: Alice's basis a, Bob's measured basis c, and k = 1 where the
#: slot is kept (matched announced bases in a sifted mode, a usable meso
#: decode in an assisted one, where Bob's basis is the decoded one).  The
#: fault flips c on the first ``round(f * n)`` slots.  The class sizes are
#: popcounts of the bit strings (``_slot_counts``).  ``weak_counts_ch*``
#: then draws one ``multinomial`` per class, in class order, over 8 cells:
#: Alice's bit b (1/2 each) times upper only, lower only, both and neither,
#: with P(upper only) = (1 - d)(p t + (1 - p) d), P(lower only) the same at
#: 1 - t, P(both) = p d + (1 - p) d**2, where p = 1 - exp(-mu) and t is the
#: split law of (a, b, c) (``_weak_outcomes``).
#:
#: The meso leg draws each i.i.d. Bernoulli(p) click field over n slots
#: with one ``polarization.add_clicks`` call, in one of three regimes cut at
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
#: ``meso_channel`` holds the signal click, p = 1 - exp(-alpha_sq *
#: survival), and ``meso_dark_transmit`` and ``meso_dark_reflect`` one
#: field each with p = d.  K' is the ``shake256-ctr64k-v2`` keystream of
#: ``keystream.expand_key``, and the basis words are cut from it plane by
#: plane, so parity(D_i) is bit i of K': the meso leg expands one bit per
#: meso slot at any M.
STREAM_LAYOUT = 7


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


#: The fringe phase of each (Alice basis a, bit b, Bob basis c), [a, b, c],
#: formed as the per-slot expression forms it: the split law's 8 arguments.
_PHASES = np.array(
    [(a * _HALF_PI + b * np.pi) - c * _HALF_PI for a, b, c in itertools.product((0, 1), repeat=3)]
).reshape(2, 2, 2)

#: The bits of channel 1 and of channel 2 in a byte of a string that
#: interleaves the two slot by slot, channel 1 first (big-endian).
_LANE_MASKS = (0xAA, 0x55)


def _joint(ones_a: int, ones_b: int, ones_ab: int, total: int) -> list[list[int]]:
    """Slots [a][b] of a 2 x 2 table, from the ones of a, of b and of a & b among ``total``."""
    return [[total - ones_a - ones_b + ones_ab, ones_b - ones_ab], [ones_a - ones_ab, ones_ab]]


def _slot_counts(alice, bob, kept, n: int, flipped: int, lanes: int = 1, lane: int = 0) -> np.ndarray:
    """Slots of one channel by [fault, a, b, k], from packed bit strings.

    ``alice`` and ``bob`` hold Alice's basis a and Bob's announced or
    decoded basis b, one bit per slot packed big-endian; ``kept`` marks the
    kept slots k, or is None where a slot is kept when a == b (the sifted
    modes).  The strings interleave ``lanes`` channels (1 or 2), and this
    channel's bits are lane ``lane``; bits past the last slot are not read.  fault = 1
    on the first ``flipped`` slots, 0 on the rest.  Every count is a
    popcount of the strings or of their bitwise products.
    """
    # Rows a, b, a & b, then k, a & k, b & k, a & b & k, built in place.
    fields = np.empty((3 if kept is None else 7, len(alice)), dtype=np.uint8)
    fields[0], fields[1] = alice, bob
    np.bitwise_and(alice, bob, out=fields[2])
    if kept is not None:
        fields[3] = kept
        np.bitwise_and(fields[:3], kept, out=fields[4:])
    if lanes > 1:  # this channel's bits only
        fields &= _LANE_MASKS[lane]
    whole = ks.popcount(fields, lanes * n).tolist()
    prefix = ks.popcount(fields, lanes * flipped).tolist() if flipped else [0] * len(fields)
    out = []
    for ones, slots in (([w - f for w, f in zip(whole, prefix)], n - flipped), (prefix, flipped)):
        in_all = _joint(*ones[:3], slots)
        if kept is None:
            on_kept = [[in_all[0][0], 0], [0, in_all[1][1]]]
        else:
            on_kept = _joint(*ones[4:], ones[3])
        out.append([[[in_all[a][b] - on_kept[a][b], on_kept[a][b]] for b in (0, 1)] for a in (0, 1)])
    return np.array(out)


def _weak_outcomes(config: SessionConfig, channel: int, counts: np.ndarray) -> tuple[list, int]:
    """Draw one sideband channel's detections per class: ``(tally, upper_bit)``.

    ``counts`` holds the slots per class [a, c, k]: Alice's basis, Bob's
    measured basis and whether the slot is kept.  Each class draws one
    multinomial over Alice's bit b (1/2 each) and the outcome o: upper
    detector only, lower only, both, neither.  A weak pulse holds a photon
    with p = 1 - exp(-mu) and sends it to the upper detector with the split
    law t of (a, b, c); each detector also fires on a dark count d.  The
    fringe phase, and with it t, depends only on (a, b, c), so the law is
    evaluated on those 8 phases.  Returns the detections [k][b][o], summed
    over a and c, and the bit an upper click decodes to.
    """
    ch = config.channel
    table = split_upper_probability(config.plan, config.fiber, channel, _PHASES)
    if table is None:  # no signal, so the split is never read
        p, split, upper_bit = 0.0, np.full((2, 2, 2), 0.5), 0
    else:
        p = float(-np.expm1(-ch.mu_weak * ch.survival_probability))
        split, upper_bit = table, 0 if table[0, 0, 0] >= 0.5 else 1  # a = b = c = 0 sits at phase 0.0
    d = ch.dark_count_prob
    dark = (1 - p) * d  # no photon, and a dark count
    both, neither = p * d + dark * d, (1 - p) * (1 - d) * (1 - d)

    def cells(t):  # one value of Alice's bit, half the slots
        return ((1 - d) * (p * t + dark) / 2, (1 - d) * (p * (1 - t) + dark) / 2, both / 2, neither / 2)

    t = split.tolist()
    pvals = np.array([[[*cells(t[a][0][c]), *cells(t[a][1][c])] for c in (0, 1)] for a in (0, 1)])
    rng = _stream(config.seed, f"weak_counts_ch{channel}")
    outcomes = rng.multinomial(counts, np.broadcast_to(pvals[:, :, None], (2, 2, 2, 8)))
    return outcomes.reshape(2, 2, 2, 2, 4).sum(axis=(0, 1)).tolist(), upper_bit


def _meso_leg(config: SessionConfig, r: np.ndarray, num_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Send the ``num_bits`` bits of R over the mesoscopic channel: Bob's ``(bits, erased)``, packed."""
    ch = config.channel
    # Both parties derive the same parities: slot i's is bit i of K' at any M.
    return ks.simulate_meso_transmission(
        ks.expand_key(config.resolved_seed_key(), num_bits).packed,
        r,
        num_bits,
        ch.alpha_sq_meso,
        _stream(config.seed, "meso_channel"),
        survival=ch.survival_probability,
        dark_count_prob=ch.dark_count_prob,
        dark_rngs=(_stream(config.seed, f"meso_dark_{arm}") for arm in ("transmit", "reflect")),
    )


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
    flipped = round(config.basis_flip_fault_fraction * n)
    if assisted:
        alice = ks.random_bytes(_stream(config.seed, "r_entropy"), len(channels) * n)
        bob, erased = _meso_leg(config, alice, len(channels) * n)
        kept = ~erased

    reports = []
    usable_counts = []
    double_clicks = 0
    errors = 0
    announced = {}
    for channel in channels:
        if assisted:
            by_bob = _slot_counts(alice, bob, kept, n, flipped, len(channels), channel - 1)
            usable = int(by_bob[..., 1].sum())
            agreed = int(by_bob[:, 0, 0, 1].sum() + by_bob[:, 1, 1, 1].sum())
            agreement = agreed / usable if usable else 0.0
        else:
            alice = ks.random_bytes(_stream(config.seed, f"alice_bases_ch{channel}"), n)
            bob = ks.random_bytes(_stream(config.seed, f"bob_bases_ch{channel}"), n)
            by_bob = _slot_counts(alice, bob, None, n, flipped)
            usable = n
            agreement = None
            announced[f"alice_ch{channel}"] = alice.tobytes().hex()
            announced[f"bob_ch{channel}"] = bob.tobytes().hex()
        # Bob measures in b, except where the fault flips it: the classes [a, c, k].
        classes = by_bob[0] + by_bob[1][:, ::-1]
        tally, upper_bit = _weak_outcomes(config, channel, classes)  # [k][b][o]
        on_kept = tally[1]
        sifted = sum(on_kept[b][o] for b in (0, 1) for o in (0, 1))
        # A wrong bit: the lower detector alone for b = upper_bit, the upper one alone otherwise.
        wrong = on_kept[upper_bit][1] + on_kept[1 - upper_bit][0]
        reports.append(
            ChannelReport(
                channel=channel,
                raw_detections=sum(tally[k][b][o] for k in (0, 1) for b in (0, 1) for o in (0, 1)),
                sifted_bits=sifted,
                qber=wrong / sifted if sifted else 0.0,
                useful_rate_bits_per_slot=sifted / usable if usable else 0.0,
                basis_agreement=agreement,
            )
        )
        usable_counts.append(usable)
        double_clicks += sum(tally[k][b][2] for k in (0, 1) for b in (0, 1))
        errors += wrong

    if assisted:
        transcript = {"erasure_mask_hex": erased.tobytes().hex()}
        meso_erasures = int(ks.popcount(erased, len(channels) * n))
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
