"""Key expansion, quadrant codification, and the polarization round trip."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpqkd.keystream import (
    BasisSchedule,
    ExpandedKey,
    MAX_M_BASES,
    DecodedBits,
    SeedKey,
    bits_per_slot,
    bob_decode,
    build_basis_schedule,
    expand_key,
    popcount,
    random_bits,
    random_bytes,
    simulate_meso_transmission,
)
from hpqkd.polarization import DetectionCounts

#: Frozen interoperability vectors for the shake256-ctr64k-v2 keystream.
VECTOR_SEED_HEX = "00112233445566778899aabbccddeeff"
VECTOR_FIRST_256_BITS_HEX = "083f95075b63cdfd9cb85945fea03b85b69a412cb6fe3c18796858d74f5f32de"
#: sha256 of the packed first 3 * 65536 * 8 - 5 bits of the same seed's
#: stream: two block boundaries, and a last byte with its 5 low bits zero.
VECTOR_THREE_BLOCKS_SHA256 = "55a1bf5d952b1f2b7c6df9c710fd601dc617221b6dfa50e35a92a77ca986f757"
BLOCK_BITS = 65536 * 8

powers_of_two = st.sampled_from([2, 4, 8, 16, 64, 256, 1024])


def _fresh_key(tag: bytes = b"k") -> SeedKey:
    return SeedKey.from_bytes((tag * 16)[:16])


def key_bits(kprime: ExpandedKey) -> np.ndarray:
    """The expanded key as one uint8 per bit."""
    return np.unpackbits(kprime.packed, count=len(kprime))


def packed_key(bits) -> ExpandedKey:
    """An ExpandedKey holding the given 0/1 bits."""
    bits = np.asarray(bits, dtype=np.uint8)
    return ExpandedKey(packed=np.packbits(bits), num_bits=len(bits))


def shake256_keystream(seed: bytes, target_bits: int) -> bytes:
    """Reference: the shake256-ctr64k-v2 keystream built from ``hashlib`` directly."""
    nbytes = (target_bits + 7) // 8
    blocks = [
        hashlib.shake_256(b"hpqkd-keystream-v2" + bytes([len(seed)]) + seed + i.to_bytes(8, "big")).digest(65536)
        for i in range((nbytes + 65535) // 65536)
    ]
    bits = np.unpackbits(np.frombuffer(b"".join(blocks), dtype=np.uint8), count=target_bits)
    return np.packbits(bits).tobytes()


def basis_words(kprime: ExpandedKey, m_bases: int) -> np.ndarray:
    """Reference: the whole log2(M)-bit words D of K', read big-endian, as int64.

    Whole-byte words join the key's bytes; other widths join its unpacked
    bits.  The schedule holds only parity(D), which must equal ``D & 1``.
    """
    bits_per = bits_per_slot(m_bases)
    slots = len(kprime) // bits_per
    if bits_per % 8 == 0:
        columns, shift = kprime.packed[: slots * bits_per // 8].reshape(slots, bits_per // 8).T, 8
    else:
        columns, shift = np.unpackbits(kprime.packed, count=slots * bits_per).reshape(slots, bits_per).T, 1
    words = columns[0].astype(np.int64)
    for column in columns[1:]:  # most significant first
        words <<= shift
        words |= column
    return words


def first_quadrant_angle(words, m_bases: int) -> np.ndarray:
    """Reference: the first-quadrant angle D*pi/(2M) of basis word D."""
    return np.asarray(words) * np.pi / (2 * m_bases)


def transmit_angle(words, schedule, m_bases: int) -> np.ndarray:
    """Reference: each slot's transmit angle, in the second quadrant when parity(D) XOR bit == 1."""
    second_quadrant = schedule.parity ^ schedule.bit
    return first_quadrant_angle(words, m_bases) + second_quadrant * (np.pi / 2)


def _analyzer_angles(words, m_bases: int) -> np.ndarray:
    """First-quadrant analyzer setting for each slot (receiver side)."""
    return first_quadrant_angle(words, m_bases)


class TestSeedKey:
    def test_minimum_length_enforced(self):
        with pytest.raises(ValueError):
            SeedKey.from_bytes(b"\x00" * 7)

    def test_bits_must_be_binary(self):
        with pytest.raises(ValueError):
            SeedKey(bits=np.full(64, 2, dtype=np.uint8))

    def test_roundtrip_bytes(self):
        raw = bytes(range(16))
        assert SeedKey.from_bytes(raw).to_bytes() == raw

    def test_bit_count_must_be_a_whole_number_of_bytes(self):
        # Packed to bytes, a 65-bit key and its zero-padded 72-bit extension
        # would give the same K', so a partial byte is refused.
        bits = np.unpackbits(np.frombuffer(bytes(range(1, 65)), dtype=np.uint8))
        for n in (64, 72, 512):
            assert len(SeedKey(bits=bits[:n]).to_bytes()) == n // 8
        for n in (65, 71, 100, 511):
            with pytest.raises(ValueError, match="whole number of bytes"):
                SeedKey(bits=bits[:n])


class TestExpansion:
    def test_deterministic(self):
        key = _fresh_key()
        a = expand_key(key, 1000)
        b = expand_key(key, 1000)
        assert np.array_equal(a.packed, b.packed)

    def test_frozen_test_vector(self):
        expanded = expand_key(SeedKey.from_hex(VECTOR_SEED_HEX), 256)
        assert expanded.packed.tobytes().hex() == VECTOR_FIRST_256_BITS_HEX

    def test_frozen_multi_block_digest(self):
        # Three blocks, the last one cut 5 bits short: pins every block's
        # counter encoding and keying, not only block 0.
        expanded = expand_key(SeedKey.from_hex(VECTOR_SEED_HEX), 3 * BLOCK_BITS - 5)
        assert len(expanded) == 3 * BLOCK_BITS - 5
        assert hashlib.sha256(expanded.packed.tobytes()).hexdigest() == VECTOR_THREE_BLOCKS_SHA256

    @pytest.mark.parametrize("seed_bytes", [8, 16, 64])
    @pytest.mark.parametrize("target_bits", [1, 8, 13, BLOCK_BITS - 3, BLOCK_BITS, BLOCK_BITS + 1, 2 * BLOCK_BITS + 77])
    def test_equals_the_hashlib_oracle(self, seed_bytes, target_bits):
        raw = bytes(range(7, 7 + seed_bytes))
        expanded = expand_key(SeedKey.from_bytes(raw), target_bits)
        assert expanded.packed.dtype == np.uint8
        assert expanded.packed.tobytes() == shake256_keystream(raw, target_bits)
        assert len(expanded) == target_bits

    def test_one_hash_per_block(self, monkeypatch):
        calls = []
        shake_256 = hashlib.shake_256

        def counting(data):
            calls.append(len(data))
            return shake_256(data)

        monkeypatch.setattr("hpqkd.keystream.hashlib.shake_256", counting)
        for target_bits, blocks in [(1, 1), (BLOCK_BITS, 1), (BLOCK_BITS + 1, 2), (5 * BLOCK_BITS - 8, 5)]:
            calls.clear()
            expand_key(_fresh_key(), target_bits)
            assert len(calls) == blocks, target_bits

    def test_avalanche_on_single_seed_bit(self):
        key = _fresh_key()
        flipped_bits = key.bits.copy()
        flipped_bits[0] ^= 1
        flipped = SeedKey(bits=flipped_bits)
        n = 10_000
        a = key_bits(expand_key(key, n))
        b = key_bits(expand_key(flipped, n))
        differing = np.mean(a != b)
        assert abs(differing - 0.5) <= 3 * np.sqrt(0.25 / n)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            expand_key(_fresh_key(), 0)

    def test_prefix_stability(self):
        # Extending the stream never rewrites earlier bits.
        key = _fresh_key()
        short = key_bits(expand_key(key, 100))
        long = key_bits(expand_key(key, 700))
        assert np.array_equal(long[:100], short)

    def test_prefix_stability_across_a_block_boundary(self):
        key = _fresh_key()
        short = key_bits(expand_key(key, BLOCK_BITS - 3))
        long = key_bits(expand_key(key, BLOCK_BITS + 29))
        assert np.array_equal(long[: BLOCK_BITS - 3], short)


class TestRandomStream:
    def test_bits_are_the_unpacked_bytes(self):
        bits = random_bits(np.random.default_rng(3), 37)
        raw = np.random.default_rng(3).integers(0, 256, 5, dtype=np.uint8)
        assert bits.dtype == np.uint8 and len(bits) == 37
        assert np.array_equal(bits, np.unpackbits(raw)[:37])

    @pytest.mark.parametrize("piece", [4, 8, 12, 4096])
    def test_byte_draws_in_pieces_of_four_equal_one_draw(self, piece):
        # A chunked reader can take 32-slot multiples of random_bits and keep
        # the stream: numpy fills uint8 draws from 32-bit words.
        total = 3 * 4096 + 7
        whole = np.random.default_rng(8).integers(0, 256, total, dtype=np.uint8)
        rng = np.random.default_rng(8)
        pieces = [rng.integers(0, 256, min(piece, total - i), dtype=np.uint8) for i in range(0, total, piece)]
        assert np.array_equal(np.concatenate(pieces), whole)
        rng = np.random.default_rng(8)
        bits = [random_bits(rng, min(8 * piece, 8 * total - i)) for i in range(0, 8 * total, 8 * piece)]
        assert np.array_equal(np.concatenate(bits), np.unpackbits(whole))

    @pytest.mark.parametrize("piece", [1, 2, 3, 5])
    def test_byte_draws_in_other_pieces_differ(self, piece):
        # Pinned because it is a numpy implementation detail (numpy 2.4):
        # each draw starts on a fresh 32-bit word, so chunks of a size that
        # is not a multiple of 4 bytes would change the stream.
        whole = np.random.default_rng(8).integers(0, 256, 64, dtype=np.uint8)
        rng = np.random.default_rng(8)
        pieces = [rng.integers(0, 256, piece, dtype=np.uint8) for _ in range(0, 64, piece)]
        assert not np.array_equal(np.concatenate(pieces)[:64], whole)

    def test_balanced_bits(self):
        bits = random_bits(np.random.default_rng(1), 100_000)
        assert abs(np.mean(bits) - 0.5) <= 3 * np.sqrt(0.25 / 100_000)

    @pytest.mark.parametrize("n", [1, 8, 37, 4096, 4099])
    def test_bytes_are_the_packed_bits(self, n):
        # The bits past n are zero, as np.packbits pads them.
        packed = random_bytes(np.random.default_rng(3), n)
        assert packed.dtype == np.uint8 and len(packed) == -(-n // 8)
        assert np.array_equal(packed, np.packbits(random_bits(np.random.default_rng(3), n)))


class TestPopcount:
    def test_every_byte_value(self):
        values = np.arange(256, dtype=np.uint8)
        assert [int(popcount(values[i : i + 1], 8)) for i in range(256)] == [bin(x).count("1") for x in range(256)]
        assert popcount(values, 8 * 256) == sum(bin(x).count("1") for x in range(256))

    def test_every_pair_of_bytes(self):
        # Whole bytes are read two at a time.
        pairs = np.arange(65536, dtype=">u2").view(np.uint8).reshape(-1, 2)
        assert popcount(pairs, 16).tolist() == [bin(x).count("1") for x in range(65536)]

    @pytest.mark.parametrize("num_bits", [0, 1, 7, 8, 9, 12_345, 8 * 4096 - 3, 8 * 4096])
    def test_counts_only_the_leading_bits(self, num_bits):
        # Every byte is 0xff, so a count past num_bits would show; 12 345 and
        # 8 * 4096 - 3 end mid-byte, as a fault prefix or a slot count may.
        packed = np.full(4096, 0xFF, dtype=np.uint8)
        assert popcount(packed, num_bits) == num_bits

    @pytest.mark.parametrize("n, prefix", [(37, 13), (4099, 1229), (20_001, 6000), (20_001, 6001)])
    def test_random_string_and_prefix(self, n, prefix):
        bits = random_bits(np.random.default_rng(n + prefix), n)
        packed = np.packbits(bits)
        packed[-1] |= 0xFF >> (n % 8) if n % 8 else 0  # ones past n are not counted
        assert popcount(packed, n) == int(bits.sum()) == "".join(map(str, bits)).count("1")
        assert popcount(packed, prefix) == int(bits[:prefix].sum())

    def test_counts_along_the_last_axis(self):
        rows = np.random.default_rng(4).integers(0, 256, (3, 11), dtype=np.uint8)
        expected = [sum(bin(x).count("1") for x in row[:10]) + bin(row[10] >> 3).count("1") for row in rows]
        assert popcount(rows, 85).tolist() == expected


class TestSchedule:
    def _angle_for(self, words_bits, r, m):
        kprime = packed_key(words_bits)
        schedule = build_basis_schedule(kprime, np.asarray(r, dtype=np.uint8), m)
        return transmit_angle(basis_words(kprime, m), schedule, m)

    def test_even_word_bit_zero_first_quadrant(self):
        assert self._angle_for([0, 0, 0, 0], [0], 16)[0] == pytest.approx(0.0)

    def test_odd_word_bit_zero_second_quadrant(self):
        m = 16
        assert self._angle_for([0, 0, 0, 1], [0], m)[0] == pytest.approx(np.pi / (2 * m) + np.pi / 2)

    def test_odd_word_bit_one_first_quadrant(self):
        m = 16
        assert self._angle_for([0, 0, 0, 1], [1], m)[0] == pytest.approx(np.pi / (2 * m))

    def test_even_word_bit_one_second_quadrant(self):
        assert self._angle_for([0, 0, 1, 0], [1], 16)[0] == pytest.approx(2 * np.pi / 32 + np.pi / 2)

    @pytest.mark.parametrize("m", [2, 4, 64, 256, 1024, 2**16, 2**48])
    def test_basis_words_are_big_endian(self, m):
        bits_per = int(np.log2(m))
        kprime = expand_key(_fresh_key(), 50 * bits_per + bits_per - 1)  # trailing bits unused
        schedule = build_basis_schedule(kprime, np.zeros(50, dtype=np.uint8), m)
        expected = [
            int("".join(str(b) for b in key_bits(kprime)[i * bits_per : (i + 1) * bits_per]), 2)
            for i in range(50)
        ]
        assert basis_words(kprime, m).tolist() == expected
        assert schedule.parity.dtype == np.uint8
        assert schedule.parity.tolist() == [word & 1 for word in expected]

    @pytest.mark.parametrize("slots", [1, 7, 8, 9, 63, 4097])
    def test_parity_is_the_last_bit_of_each_word(self, slots):
        key = _fresh_key(b"p")
        for log_m in range(1, 53):
            m = 2**log_m
            kprime = expand_key(key, slots * log_m + log_m - 1)  # trailing bits unused
            schedule = build_basis_schedule(kprime, np.zeros(slots, dtype=np.uint8), m)
            np.testing.assert_array_equal(schedule.parity, basis_words(kprime, m) & 1, err_msg=f"M = 2**{log_m}")

    @given(m=powers_of_two, seed=st.integers(0, 2**32 - 1), slots=st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_quadrant_rule_holds_everywhere(self, m, seed, slots):
        rng = np.random.default_rng(seed)
        kprime = expand_key(_fresh_key(), slots * int(np.log2(m)))
        r = random_bits(rng, slots)
        schedule = build_basis_schedule(kprime, r, m)
        words = basis_words(kprime, m)
        parity = words % 2
        angle = transmit_angle(words, schedule, m)
        in_first = angle < np.pi / 2
        np.testing.assert_array_equal(in_first, (parity ^ schedule.bit) == 0)
        # The in-quadrant offset always matches the word's canonical angle.
        base = first_quadrant_angle(words, m)
        np.testing.assert_allclose(np.where(in_first, angle, angle - np.pi / 2), base)

    @given(kbits=st.integers(8, 512), m=st.sampled_from([4, 16, 64]))
    @settings(max_examples=40, deadline=None)
    def test_slot_count_floors(self, kbits, m):
        kprime = expand_key(_fresh_key(), kbits)
        expected = kbits // int(np.log2(m))
        if expected == 0:
            return
        r = np.zeros(expected, dtype=np.uint8)
        assert len(build_basis_schedule(kprime, r, m)) == expected

    def test_non_power_of_two_rejected(self):
        kprime = expand_key(_fresh_key(), 12)
        with pytest.raises(ValueError):
            build_basis_schedule(kprime, np.zeros(4, dtype=np.uint8), 12)

    @pytest.mark.parametrize("m", [2 * MAX_M_BASES, 2**63, 2**64, 2**65])
    def test_basis_count_above_cap_rejected(self, m):
        with pytest.raises(ValueError, match="power of two"):
            bits_per_slot(m)

    def test_top_words_at_the_cap_keep_distinct_first_quadrant_angles(self):
        assert bits_per_slot(MAX_M_BASES) == 52
        words = np.arange(MAX_M_BASES - 64, MAX_M_BASES, dtype=np.int64)
        angles = first_quadrant_angle(words, MAX_M_BASES)
        assert np.all(np.diff(angles) > 0) and angles[-1] < np.pi / 2
        # The transmit arm comes from parity XOR bit; the angle's quadrant agrees with it.
        for bit in (0, 1):
            bits = np.full(len(words), bit, dtype=np.uint8)
            schedule = BasisSchedule((words & 1).astype(np.uint8), bits)
            np.testing.assert_array_equal(words % 2 == bit, transmit_angle(words, schedule, MAX_M_BASES) < np.pi / 2)

    def test_length_mismatch_rejected(self):
        kprime = expand_key(_fresh_key(), 16)
        with pytest.raises(ValueError):
            build_basis_schedule(kprime, np.zeros(3, dtype=np.uint8), 16)

    def test_both_sides_derive_identical_words(self):
        kprime_alice = expand_key(_fresh_key(), 64)
        kprime_bob = expand_key(_fresh_key(), 64)
        r = np.zeros(16, dtype=np.uint8)
        a = build_basis_schedule(kprime_alice, r, 16)
        b = build_basis_schedule(kprime_bob, r, 16)
        np.testing.assert_array_equal(a.parity, b.parity)
        np.testing.assert_array_equal(basis_words(kprime_alice, 16), basis_words(kprime_bob, 16))

    def test_analyzer_angles_are_first_quadrant_canonical(self):
        kprime = expand_key(_fresh_key(), 40)
        r = random_bits(np.random.default_rng(9), 10)
        schedule = build_basis_schedule(kprime, r, 16)
        words = basis_words(kprime, 16)
        assert len(words) == len(schedule)
        analyzers = _analyzer_angles(words, 16)
        assert np.all(analyzers < np.pi / 2)
        np.testing.assert_allclose(
            analyzers, first_quadrant_angle(words, 16)
        )


class TestRoundTrip:
    def test_noiseless_channel_recovers_r(self):
        m = 256
        slots = 10_000
        rng = np.random.default_rng(21)
        kprime = expand_key(_fresh_key(), slots * 8)
        r = random_bits(rng, slots)
        schedule = build_basis_schedule(kprime, r, m)
        events = simulate_meso_transmission(schedule, 25.0, rng, 1.0, 0.0, (rng, rng))
        decoded = bob_decode(schedule.parity, events)
        assert decoded.erasure.mean() < 1e-3
        ok = ~decoded.erasure
        assert np.mean(decoded.bits[ok] != r[ok]) < 1e-3

    def test_vacuum_pulses_all_erased(self):
        m = 4
        kprime = expand_key(_fresh_key(), 20)
        r = random_bits(np.random.default_rng(2), 10)
        schedule = build_basis_schedule(kprime, r, m)
        rng = np.random.default_rng(3)
        events = simulate_meso_transmission(schedule, 0.0, rng, 1.0, 0.0, (rng, rng))
        decoded = bob_decode(schedule.parity, events)
        assert decoded.erasure.all()

    def test_dark_clicks_in_both_arms_erase(self):
        m = 16
        kprime = expand_key(_fresh_key(), 40)
        schedule = build_basis_schedule(kprime, random_bits(np.random.default_rng(4), 10), m)
        rng = np.random.default_rng(5)
        counts = simulate_meso_transmission(schedule, 0.0, rng, 1.0, 1.0, (rng, rng))
        assert counts.counts_transmit.tolist() == counts.counts_reflect.tolist() == [1] * 10
        decoded = bob_decode(schedule.parity, counts)
        assert decoded.erasure.all()

    @pytest.mark.parametrize(
        "alpha_sq, survival", [(float("nan"), 1.0), (-1.0, 1.0), (25.0, float("nan")), (25.0, 1.5)]
    )
    def test_invalid_intensity_or_survival_raises(self, alpha_sq, survival):
        kprime = expand_key(_fresh_key(), 40)
        schedule = build_basis_schedule(kprime, random_bits(np.random.default_rng(4), 10), 16)
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="alpha_sq"):
            simulate_meso_transmission(schedule, alpha_sq, rng, survival, 0.0, (rng, rng))

    def test_single_aligned_slot_decodes_exactly(self):
        m = 16
        kprime = expand_key(_fresh_key(), 4)
        schedule = build_basis_schedule(kprime, np.array([0], dtype=np.uint8), m)
        transmit_first = transmit_angle(basis_words(kprime, m), schedule, m)[0] < np.pi / 2
        counts = DetectionCounts([5], [0]) if transmit_first else DetectionCounts([0], [5])
        decoded = bob_decode(schedule.parity, counts)
        assert not decoded.erasure[0]
        assert decoded.bits[0] == 0

    def test_event_count_mismatch_rejected(self):
        kprime = expand_key(_fresh_key(), 8)
        parity = build_basis_schedule(kprime, np.zeros(4, dtype=np.uint8), 4).parity
        with pytest.raises(ValueError):
            bob_decode(parity, DetectionCounts([1], [0]))

    def test_double_click_is_erasure(self):
        kprime = expand_key(_fresh_key(), 4)
        parity = build_basis_schedule(kprime, np.zeros(2, dtype=np.uint8), 4).parity
        decoded = bob_decode(parity, DetectionCounts([1, 0], [1, 0]))
        assert isinstance(decoded, DecodedBits)
        assert decoded.erasure.all()
        # The protocol feeds these bits to the weak channel on erased slots:
        # parity^1 on a double click (the reflect arm fired), parity with no click.
        words = basis_words(kprime, 4)
        assert parity.tolist() == (words % 2).tolist()
        assert decoded.bits.tolist() == [words[0] % 2 ^ 1, words[1] % 2]

