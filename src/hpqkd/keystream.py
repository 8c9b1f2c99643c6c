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

from .polarization import add_clicks, clear_tail, two_arm_clicks

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
    """Pre-shared secret key of 8 to 64 bytes (64 to 512 bits)."""

    raw: bytes

    def __post_init__(self):
        if not isinstance(self.raw, bytes):
            raise TypeError(f"seed key must be bytes, got {type(self.raw).__name__}")
        if 8 * len(self.raw) < _MIN_SEED_BITS:
            raise ValueError(f"seed key must hold at least {_MIN_SEED_BITS} bits")
        if 8 * len(self.raw) > _MAX_SEED_BITS:
            raise ValueError(
                f"seed key must hold at most {_MAX_SEED_BITS} bits; "
                "a longer key adds no strength to the SHAKE256 keystream"
            )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SeedKey":
        return cls(memoryview(raw).tobytes())

    @classmethod
    def from_hex(cls, hexstr: str) -> "SeedKey":
        return cls(bytes.fromhex(hexstr))

    def to_bytes(self) -> bytes:
        return self.raw


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
    clear_tail(stream, target_bits)
    return ExpandedKey(packed=np.frombuffer(stream, dtype=np.uint8), num_bits=target_bits)


def random_bytes(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniform bits packed big-endian: ``ceil(n / 8)`` random bytes, zero past bit n.

    The bytes are one ``integers(0, 256, uint8)`` draw, bit 0 the most
    significant bit of byte 0.  Drawn in pieces of a multiple of 4 bytes
    (32 bits), they equal one draw of the whole, so a reader that takes
    32·k bits at a time sees the same bits.
    """
    packed = rng.integers(0, 256, (n + 7) // 8, dtype=np.uint8)
    clear_tail(packed, n)
    return packed


def popcount(packed: np.ndarray, num_bits: int):
    """Ones among the first ``num_bits`` bits of big-endian packed bytes (last axis).

    The bits past ``num_bits`` are never read.
    """
    whole, rest = divmod(num_bits, 8)
    ones = np.bitwise_count(packed[..., :whole]).sum(axis=-1, dtype=np.int64)
    if rest:
        ones += np.bitwise_count(packed[..., whole] >> (8 - rest))
    return ones


def bits_per_slot(m_bases: int) -> int:
    if m_bases < 2 or m_bases & (m_bases - 1) or m_bases > MAX_M_BASES:
        raise ValueError(f"m_bases must be a power of two in [2, 2**{MAX_M_BASES.bit_length() - 1}]")
    return m_bases.bit_length() - 1


def basis_parities(kprime: ExpandedKey, m_bases: int) -> np.ndarray:
    """parity(D) of each whole log2(M)-bit word D of K', one bit per slot, packed.

    Slot i's basis is the word D read big-endian from bits
    [i log2(M), (i + 1) log2(M)) of K'; its first-quadrant angle is
    D*pi/(2*M), and the transmitted angle is in the first quadrant exactly
    when parity(D) XOR bit == 0.  Nothing else of D is ever read, so the
    words are never built.  Eight words fill log2(M) bytes, so the words at
    one position of such a group sit ``log2(M)`` bytes apart, their last
    bit always at the same place in the byte: one strided column per
    position, shifted into that position's bit of each packed byte.  The
    bits past the last slot are zero.
    """
    bits_per = bits_per_slot(m_bases)
    slots = len(kprime) // bits_per
    parity = np.zeros((slots + 7) // 8, dtype=np.uint8)
    for position in range(min(8, slots)):
        last = (position + 1) * bits_per - 1  # the word's last bit, counted from its group's start
        words = kprime.packed[last >> 3 :: bits_per][: (slots - position + 7) // 8]
        bit = words & (0x80 >> (last & 7))
        shift = (last & 7) - position  # from its place in the key byte to its place in the parity byte
        parity[: len(words)] |= bit << shift if shift >= 0 else bit >> -shift
    return parity


def simulate_meso_transmission(
    parity: np.ndarray,
    r: np.ndarray,
    num_slots: int,
    alpha_sq: float,
    rng: np.random.Generator,
    survival: float,
    dark_count_prob: float,
    dark_rngs: Iterable[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Send R as mesoscopic pulses, detect at the shared basis and decode: ``(bits, erased)``.

    ``parity`` (``basis_parities``) and the data bits ``r`` hold one bit per
    slot, packed big-endian, zero past ``num_slots``.  Each slot carries a
    coherent pulse of mean photon number ``alpha_sq`` at the scheduled
    angle, thinned by ``survival`` (loss and detector efficiency).  Only
    whether an arm fired is ever read, so the pulse is drawn as a click with
    p = 1 - exp(-alpha_sq * survival), which is exactly P(Poisson > 0): one
    ``polarization.add_clicks`` field from ``rng``.  The analyzer always
    sits at the slot's first-quadrant angle, so the click lands in one arm,
    the transmit arm iff parity(D) == bit.  Each arm also fires on a dark
    count with probability ``dark_count_prob``, drawn by ``two_arm_clicks``
    from ``dark_rngs`` (transmit arm, reflect arm).

    Bob decodes with the same parities: a transmit-arm click is parity(D),
    the bit that maps to the first quadrant, and a reflect-arm click the
    other bit, so ``bits`` = parity XOR reflect.  No click or a double
    click is an erasure, so ``erased`` = NOT(transmit XOR reflect).  Both
    are packed, zero past ``num_slots``; ``bits`` means nothing where
    ``erased`` is set.  NaN or a negative ``alpha_sq`` raises
    ``ValueError``, as do strings of another length than
    ``ceil(num_slots / 8)`` bytes.
    """
    if not alpha_sq >= 0 or not 0 <= survival <= 1:  # NaN fails both
        raise ValueError(f"alpha_sq must be >= 0 and survival a probability, got {alpha_sq!r} and {survival!r}")
    if not len(parity) == len(r) == (num_slots + 7) // 8:
        raise ValueError(f"got {len(parity)} parity and {len(r)} data bytes for {num_slots} slots")
    signal = np.zeros_like(r)
    add_clicks(signal, num_slots, -np.expm1(-alpha_sq * survival), rng)
    transmit, reflect = two_arm_clicks(signal, ~(parity ^ r), num_slots, dark_count_prob, dark_rngs)
    erased = ~(transmit ^ reflect)
    clear_tail(erased, num_slots)
    return parity ^ reflect, erased
