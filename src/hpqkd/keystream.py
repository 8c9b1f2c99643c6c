"""Shared-key expansion and the quadrant codification of basis angles.

A pre-shared secret key seeds a deterministic keystream; consecutive
log2(M)-bit words of the expanded key select one of M first-quadrant basis
angles per slot, and a fresh random bit stream picks the quadrant through
the parity rule, encoding one bit in each transmitted polarization.
"""
from __future__ import annotations

import hashlib
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .polarization import DetectionCounts, add_clicks, two_arm_clicks

_DOMAIN = b"hpqkd-keystream-v2"
_BLOCK_BYTES = 65_536

_MIN_SEED_BITS = 64
#: 512 bits is twice SHAKE256's 256-bit security strength, so a longer key
#: adds no strength to the expansion (and its length still fits one byte).
_MAX_SEED_BITS = 512

#: Largest basis count M: the M angles D*pi/(2M) stay distinct floats below
#: pi/2.  At 2**53 neighbours collide, and from 2**54 the top word rounds
#: onto pi/2 (the wrong quadrant).
MAX_M_BASES = 2**52


@dataclass(frozen=True)
class SeedKey:
    """Pre-shared secret key of 64 to 512 bits, a whole number of bytes."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.ndim != 1 or not np.all((bits == 0) | (bits == 1)):
            raise ValueError("bits must be a flat 0/1 sequence")
        if len(bits) < _MIN_SEED_BITS:
            raise ValueError(f"seed key must hold at least {_MIN_SEED_BITS} bits")
        if len(bits) > _MAX_SEED_BITS:
            raise ValueError(
                f"seed key must hold at most {_MAX_SEED_BITS} bits; "
                "a longer key adds no strength to the SHAKE256 keystream"
            )
        if len(bits) % 8:
            # Packed to bytes, a key and its zero-padded extension would be one key.
            raise ValueError("seed key must hold a whole number of bytes")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SeedKey":
        return cls(bits=np.unpackbits(np.frombuffer(raw, dtype=np.uint8)))

    @classmethod
    def from_hex(cls, hexstr: str) -> "SeedKey":
        return cls.from_bytes(bytes.fromhex(hexstr))

    def to_bytes(self) -> bytes:
        return np.packbits(self.bits).tobytes()


@dataclass(frozen=True)
class ExpandedKey:
    """Deterministic keystream expansion of a SeedKey.

    ``packed`` holds the keystream bits packed big-endian, eight to a uint8
    (``np.packbits`` order), with the unused low bits of the last byte zero;
    ``len()`` is the number of bits.
    """

    packed: np.ndarray
    num_bits: int

    def __len__(self) -> int:
        return self.num_bits


def expand_key(seed: SeedKey, target_bits: int) -> ExpandedKey:
    """Expand the seed into ``target_bits`` keystream bits (``shake256-ctr64k-v2``).

    Counter mode over SHAKE256: block i is the first 65 536 bytes of
    SHAKE256(domain || len(seed) as one byte || seed || big_endian_64(i)),
    the last block cut to the bytes needed, so any block can be computed on
    its own.  Identical inputs always yield identical bits, so transmitter
    and receiver derive the same stream.
    """
    if target_bits < 1:
        raise ValueError("target_bits must be >= 1")
    raw = seed.to_bytes()
    prefix = _DOMAIN + bytes([len(raw)]) + raw
    stream = bytearray((target_bits + 7) // 8)
    for i, start in enumerate(range(0, len(stream), _BLOCK_BYTES)):
        size = min(_BLOCK_BYTES, len(stream) - start)
        stream[start : start + size] = hashlib.shake_256(prefix + i.to_bytes(8, "big")).digest(size)
    stream[-1] &= 0xFF << (8 * len(stream) - target_bits) & 0xFF
    return ExpandedKey(packed=np.frombuffer(stream, dtype=np.uint8), num_bits=target_bits)


def random_bytes(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniform bits packed big-endian: ``ceil(n / 8)`` random bytes, zero past bit n.

    The bytes are ``np.packbits(random_bits(rng, n))``.  Drawn in pieces of a
    multiple of 4 bytes (32 bits), they equal one draw of the whole, so a
    reader that takes 32·k bits at a time sees the same bits.
    """
    packed = rng.integers(0, 256, (n + 7) // 8, dtype=np.uint8)
    if n % 8:
        packed[-1] &= 0xFF << (8 - n % 8) & 0xFF
    return packed


def random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniform 0/1 values as uint8: ``random_bytes(rng, n)``, unpacked."""
    return np.unpackbits(random_bytes(rng, n), count=n)


#: Ones in each byte value, and in each pair of bytes read as one uint16
#: (the sum of the two bytes' counts, so the byte order does not matter).
_BYTE_ONES = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1, dtype=np.uint8)
_PAIR_ONES = np.add.outer(_BYTE_ONES, _BYTE_ONES).ravel()


def popcount(packed: np.ndarray, num_bits: int):
    """Ones among the first ``num_bits`` bits of big-endian packed bytes (last axis).

    Table lookups, two bytes at a time, so any numpy the package accepts
    counts the same way; the bits past ``num_bits`` are never read.
    """
    whole, rest = divmod(num_bits, 8)
    paired = whole - whole % 2
    ones = np.take(_PAIR_ONES, packed[..., :paired].view(np.uint16)).sum(axis=-1, dtype=np.int64)
    if whole % 2:
        ones += _BYTE_ONES[packed[..., paired]]
    if rest:
        ones += _BYTE_ONES[packed[..., whole] >> (8 - rest)]
    return ones


def bits_per_slot(m_bases: int) -> int:
    if m_bases < 2 or m_bases & (m_bases - 1) or m_bases > MAX_M_BASES:
        raise ValueError(f"m_bases must be a power of two in [2, 2**{MAX_M_BASES.bit_length() - 1}]")
    return m_bases.bit_length() - 1


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
