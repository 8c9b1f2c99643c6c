"""Detection of linearly polarized coherent pulses.

``two_arm_clicks`` is the threshold detector of the mesoscopic leg behind
a polarizing beam splitter, its click fields one bit per slot, packed
(``add_clicks``).  ``overlap_exact`` is the exact distinguishability of two
such pulses.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DetectionEvent:
    """Photon counts at the two outputs of a polarizing beam splitter.

    No command builds one: it stays because the benchmark's traced meso hook
    (``bench/worker.py``) imports it.
    """

    counts_transmit: int
    counts_reflect: int

    def __post_init__(self):
        if self.counts_transmit < 0 or self.counts_reflect < 0:
            raise ValueError("photon counts must be >= 0")


#: Click fields with p <= SPARSE_CLICK_PROB are drawn as a count and a subset
#: of slots, and those with p >= 1 - SPARSE_CLICK_PROB as a count and a
#: subset of quiet slots; see ``add_clicks``.
SPARSE_CLICK_PROB = 1 / 16

#: Uniforms drawn at a time (128 KiB of float64) where a field is dense.
CLICK_BLOCK = 2**14


def uniform_blocks(rng: np.random.Generator, n: int):
    """``rng.random(n)`` in blocks of ``CLICK_BLOCK``: yields (slot slice, uniforms).

    Consecutive ``random`` draws concatenate to one draw of their total
    length, so the values equal those of one ``random(n)``; only one block
    is held at a time.
    """
    for start in range(0, n, CLICK_BLOCK):
        stop = min(start + CLICK_BLOCK, n)
        yield slice(start, stop), rng.random(stop - start)


def sparse_slots(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """The slots of an i.i.d. Bernoulli(p) field over n slots that hold a one.

    ``k = binomial(n, p)``, then ``choice(n, k, replace=False, shuffle=False)``:
    a Binomial(n, p) count followed by a uniform k-subset gives each pattern
    with k ones the probability p**k (1 - p)**(n - k).
    """
    return rng.choice(n, rng.binomial(n, p), replace=False, shuffle=False)


def clear_tail(field, num_slots: int) -> None:
    """Zero the bits past ``num_slots`` of a packed big-endian bit string, in place."""
    field[-1] &= 0xFF << (-num_slots % 8) & 0xFF


def _bit_places(slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each slot's byte in a packed field, and its bit there as a one-bit uint8 mask."""
    return slots >> 3, np.uint8(0x80) >> (slots & 7).astype(np.uint8)


def add_clicks(field: np.ndarray, num_slots: int, p: float, rng: np.random.Generator) -> None:
    """OR an i.i.d. Bernoulli(p) click field over ``num_slots`` slots into ``field``, in place.

    ``field`` holds one bit per slot, packed big-endian into
    ``ceil(num_slots / 8)`` uint8; bits past the last slot are left as they
    are.  The draw depends on p.  Up to ``SPARSE_CLICK_PROB`` it draws the
    click slots (``sparse_slots``) and sets them, nothing at p = 0.  From
    1 - ``SPARSE_CLICK_PROB`` on it draws the quiet slots with 1 - p, which
    is exact there (Sterbenz), and sets every other slot, so the law is that
    of ``random(n) < p``; at p = 1 the draw is empty.  In between it draws
    ``random(n) < p`` in blocks (``uniform_blocks``), each packed as it is
    drawn.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"click probability must be in [0, 1], got {p!r}")
    # The drawn slots are distinct, so no two of their one-bit masks share a
    # bit: adding the masks sets (subtracting them clears) exactly those
    # bits, and numpy runs add.at and subtract.at several times faster than
    # bitwise_or.at and bitwise_and.at.
    if p <= SPARSE_CLICK_PROB:
        if p > 0:
            clicks = np.zeros_like(field)
            np.add.at(clicks, *_bit_places(sparse_slots(num_slots, p, rng)))
            field |= clicks
    elif p >= 1 - SPARSE_CLICK_PROB:
        clicks = np.full_like(field, 0xFF)
        clear_tail(clicks, num_slots)
        np.subtract.at(clicks, *_bit_places(sparse_slots(num_slots, 1 - p, rng)))
        field |= clicks
    else:
        for block, u in uniform_blocks(rng, num_slots):
            packed = np.packbits(u < p)
            field[block.start // 8 : block.start // 8 + len(packed)] |= packed


def two_arm_clicks(
    signal: np.ndarray,
    to_first: np.ndarray,
    num_slots: int,
    dark_count_prob: float,
    dark_rngs: Iterable[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Clicks of a two-arm threshold detector over ``num_slots`` slots, each arm a packed field.

    ``signal`` and ``to_first`` are packed as ``add_clicks`` packs, with
    ``signal`` zero past the last slot.  A signal click lands in the first
    arm where ``to_first`` holds and in the second arm elsewhere.  Each arm
    also fires on its own i.i.d. dark counts, drawn by ``add_clicks`` from
    its generator in ``dark_rngs`` (first arm, then second); with no dark
    counts nothing is drawn and ``dark_rngs`` is not iterated, so a lazy
    iterable builds no generator.  Exactly one arm firing is conclusive;
    no click or a double click is an erasure.
    """
    if not 0 <= dark_count_prob <= 1:
        raise ValueError(f"dark_count_prob must be in [0, 1], got {dark_count_prob!r}")
    first = signal & to_first
    second = signal & ~to_first
    if dark_count_prob > 0:
        for arm, rng in zip((first, second), dark_rngs, strict=True):
            add_clicks(arm, num_slots, dark_count_prob, rng)
    return first, second


def overlap_exact(alpha: complex, theta: float) -> float:
    """Exact |<alpha,0|alpha*cos(theta), alpha*sin(theta)>|^2.

    Evaluates the two-mode coherent-state inner product, which reduces to
    exp(-2*|alpha|^2*(1 - cos(theta))).
    """
    return float(np.exp(-2 * abs(alpha) ** 2 * (1 - np.cos(theta))))
