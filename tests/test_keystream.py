"""Key expansion, quadrant codification, and the polarization round trip."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpqkd.keystream import (
    ExpandedKey,
    MAX_M_BASES,
    SeedKey,
    _WORD_COUNT_BYTES,
    bits_per_slot,
    expand_key,
    popcount,
    random_bytes,
    simulate_meso_transmission,
)
from hpqkd.protocol import ChannelModel
from physics_reference import basis_words

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


def random_bits(rng, n: int) -> np.ndarray:
    """``n`` uniform 0/1 values as uint8: ``random_bytes(rng, n)``, unpacked."""
    return np.unpackbits(random_bytes(rng, n), count=n)


def parity_bits(kprime: ExpandedKey, m_bases: int) -> np.ndarray:
    """The package's parities of K''s floor(|K'| / log2(M)) slots, one uint8 each: K''s first bits.

    For an expanded key these are the bits of ``expand_key(seed, slots)``,
    what a session expands.
    """
    return key_bits(kprime)[: len(kprime) // bits_per_slot(m_bases)]


def meso_round_trip(kprime, r_bits, m_bases, alpha_sq, rng, survival=1.0, dark=0.0):
    """``simulate_meso_transmission`` on K''s parities and the 0/1 values ``r_bits``: (bits, erased), unpacked."""
    n = len(r_bits)
    bits, erased = simulate_meso_transmission(
        np.packbits(parity_bits(kprime, m_bases)), np.packbits(r_bits), n, alpha_sq, rng, survival, dark, (rng, rng)
    )
    return np.unpackbits(bits, count=n), np.unpackbits(erased, count=n).astype(bool)


def first_quadrant_angle(words, m_bases: int) -> np.ndarray:
    """Reference: the first-quadrant angle D*pi/(2M) of basis word D."""
    return np.asarray(words) * np.pi / (2 * m_bases)


def transmit_angle(words, parity, bits, m_bases: int) -> np.ndarray:
    """Reference: each slot's transmit angle, in the second quadrant when parity(D) XOR bit == 1."""
    second_quadrant = parity ^ bits
    return first_quadrant_angle(words, m_bases) + second_quadrant * (np.pi / 2)


def _analyzer_angles(words, m_bases: int) -> np.ndarray:
    """First-quadrant analyzer setting for each slot (receiver side)."""
    return first_quadrant_angle(words, m_bases)


class TestSeedKey:
    def test_minimum_length_enforced(self):
        with pytest.raises(ValueError):
            SeedKey.from_bytes(b"\x00" * 7)

    def test_bits_must_be_binary(self):
        # A key is its bytes; an array of bit values is not one.
        with pytest.raises(TypeError, match="bytes"):
            SeedKey(np.full(64, 2, dtype=np.uint8))

    @pytest.mark.parametrize(
        "value",
        [np.full(64, 0.5), np.full(64, 1.9), np.zeros(64, dtype=np.uint8), list(range(16)), bytearray(16), "00" * 16],
    )
    def test_only_bytes_are_a_key(self, value):
        # Cast to uint8, a float array would read 0.5 as the all-zero key and
        # 1.9 as the all-ones key.
        with pytest.raises(TypeError, match="seed key must be bytes"):
            SeedKey(value)

    def test_roundtrip_bytes(self):
        raw = bytes(range(16))
        assert SeedKey.from_bytes(raw).to_bytes() == raw
        assert SeedKey.from_bytes(bytearray(raw)) == SeedKey(raw) == SeedKey.from_hex(raw.hex())

    @pytest.mark.parametrize("size", [7, 8, 64, 65])
    def test_byte_bounds_and_their_messages(self, size):
        if 8 <= size <= 64:
            assert SeedKey(bytes(size)).to_bytes() == bytes(size)
        else:
            with pytest.raises(ValueError, match=f"at {'least 64' if size < 8 else 'most 512'} bits"):
                SeedKey(bytes(size))


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
        flipped_raw = bytearray(key.to_bytes())
        flipped_raw[0] ^= 0x80  # the key's first bit
        flipped = SeedKey(bytes(flipped_raw))
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
        packed = random_bytes(np.random.default_rng(3), 37)
        raw = np.random.default_rng(3).integers(0, 256, 5, dtype=np.uint8)
        assert packed.dtype == np.uint8 and len(packed) == 5
        assert np.array_equal(np.unpackbits(packed)[:37], np.unpackbits(raw)[:37])
        assert not np.unpackbits(packed)[37:].any()

    @pytest.mark.parametrize("piece", [4, 8, 12, 4096])
    def test_byte_draws_in_pieces_of_four_equal_one_draw(self, piece):
        # A chunked reader can take 32-slot multiples of random_bytes and keep
        # the stream: numpy fills uint8 draws from 32-bit words.
        total = 3 * 4096 + 7
        whole = np.random.default_rng(8).integers(0, 256, total, dtype=np.uint8)
        rng = np.random.default_rng(8)
        pieces = [rng.integers(0, 256, min(piece, total - i), dtype=np.uint8) for i in range(0, total, piece)]
        assert np.array_equal(np.concatenate(pieces), whole)
        rng = np.random.default_rng(8)
        packed = [random_bytes(rng, min(8 * piece, 8 * total - i)) for i in range(0, 8 * total, 8 * piece)]
        assert np.array_equal(np.concatenate(packed), whole)

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
        raw = np.random.default_rng(3).integers(0, 256, -(-n // 8), dtype=np.uint8)
        assert packed.dtype == np.uint8 and len(packed) == -(-n // 8)
        assert np.array_equal(packed, np.packbits(np.unpackbits(raw)[:n]))


class TestPopcount:
    def test_every_byte_value(self):
        values = np.arange(256, dtype=np.uint8)
        assert [int(popcount(values[i : i + 1], 8)) for i in range(256)] == [bin(x).count("1") for x in range(256)]
        assert popcount(values, 8 * 256) == sum(bin(x).count("1") for x in range(256))

    def test_every_pair_of_bytes(self):
        # Every 16-bit pattern, as the two whole bytes of one row.
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

    @pytest.mark.parametrize("num_bits", [16 * 2**12 - 1, 16 * 2**12, 16 * 2**12 + 9, 3 * 16 * 2**12 + 5])
    def test_counts_across_lookup_blocks(self, num_bits):
        # Long rows, whole and ending mid-byte, with random bytes past num_bits:
        # every whole byte counts once and none past the prefix counts.
        rows = np.random.default_rng(num_bits).integers(0, 256, (2, -(-num_bits // 8) + 3), dtype=np.uint8)
        expected = [int(np.unpackbits(row)[:num_bits].sum()) for row in rows]
        assert popcount(rows, num_bits).tolist() == expected

    @pytest.mark.parametrize("width", [1, 7, 9, 13, 25, 26, _WORD_COUNT_BYTES + 13, 3 * _WORD_COUNT_BYTES + 13])
    def test_matches_unpackbits_on_unaligned_rows(self, width):
        # Row widths that are not a multiple of 8 bytes put most rows off an
        # 8-byte boundary, as does a 1-D string that starts 3 bytes into its
        # buffer.  Prefixes of 1-200 bits, and on the wide rows also around
        # the word count's threshold and up to the end.
        prefixes = range(1, min(200, 8 * width) + 1)
        if width > _WORD_COUNT_BYTES:
            threshold = 8 * _WORD_COUNT_BYTES
            prefixes = [*prefixes, *range(threshold - 100, threshold + 101), *range(8 * width - 200, 8 * width + 1)]
        rng = np.random.default_rng(width)
        rows = rng.integers(0, 256, (5, width), dtype=np.uint8)
        flat = rows.reshape(-1)[3:]
        ones = np.cumsum(np.unpackbits(rows, axis=-1), axis=-1)
        flat_ones = np.cumsum(np.unpackbits(flat))
        for num_bits in prefixes:
            expected = ones[:, num_bits - 1]
            assert popcount(rows, num_bits).tolist() == expected.tolist(), num_bits
            assert [int(popcount(row, num_bits)) for row in rows] == expected.tolist(), num_bits
            assert int(popcount(flat, num_bits)) == int(flat_ones[num_bits - 1]), num_bits

    def test_counts_along_the_last_axis(self):
        rows = np.random.default_rng(4).integers(0, 256, (3, 11), dtype=np.uint8)
        expected = [sum(bin(x).count("1") for x in row[:10]) + bin(row[10] >> 3).count("1") for row in rows]
        assert popcount(rows, 85).tolist() == expected


class TestSchedule:
    def _angle_for(self, words_bits, r, m):
        kprime = packed_key(words_bits)
        return transmit_angle(basis_words(kprime, m), parity_bits(kprime, m), np.asarray(r, dtype=np.uint8), m)

    # One slot: its word's bits are K''s bits, least significant first.
    def test_even_word_bit_zero_first_quadrant(self):
        assert self._angle_for([0, 0, 0, 0], [0], 16)[0] == pytest.approx(0.0)

    def test_odd_word_bit_zero_second_quadrant(self):
        m = 16
        assert self._angle_for([1, 0, 0, 0], [0], m)[0] == pytest.approx(np.pi / (2 * m) + np.pi / 2)

    def test_odd_word_bit_one_first_quadrant(self):
        m = 16
        assert self._angle_for([1, 0, 0, 0], [1], m)[0] == pytest.approx(np.pi / (2 * m))

    def test_even_word_bit_one_second_quadrant(self):
        assert self._angle_for([0, 1, 0, 0], [1], 16)[0] == pytest.approx(2 * np.pi / 32 + np.pi / 2)

    @pytest.mark.parametrize("m", [2, 4, 64, 256, 1024, 2**16, 2**48])
    def test_basis_words_are_big_endian(self, m):
        # K''s bits are counted big-endian in each byte (``np.packbits``
        # order), and bit j of word i is bit 50 j + i of them; written out
        # most significant first, word i reads its planes last to first.
        bits_per = int(np.log2(m))
        kprime = expand_key(_fresh_key(), 50 * bits_per + bits_per - 1)  # trailing bits unused
        bits = key_bits(kprime)
        expected = [
            int("".join(str(bits[j * 50 + i]) for j in reversed(range(bits_per))), 2) for i in range(50)
        ]
        assert basis_words(kprime, m).tolist() == expected
        parity = np.packbits(parity_bits(kprime, m))
        assert parity.dtype == np.uint8 and len(parity) == 7
        assert np.unpackbits(parity).tolist() == [word & 1 for word in expected] + [0] * 6
        assert np.array_equal(parity, expand_key(_fresh_key(), 50).packed)

    @pytest.mark.parametrize("slots", [1, 7, 8, 9, 63, 4097])
    def test_parity_is_the_last_bit_of_each_word(self, slots):
        # Slot i's parity, the last bit of its word written out, is bit i of
        # K' at every M: a session's n bits.  Packed, zero past the last
        # slot, as np.packbits pads.
        key = _fresh_key(b"p")
        parities = expand_key(key, slots).packed
        for log_m in range(1, 53):
            m = 2**log_m
            kprime = expand_key(key, slots * log_m + log_m - 1)  # trailing bits unused
            np.testing.assert_array_equal(parities, np.packbits(basis_words(kprime, m) & 1), err_msg=f"M = 2**{log_m}")

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 2001, 8 * 65536 + 3])
    @pytest.mark.parametrize("m", [2, 4, 256, MAX_M_BASES])
    def test_first_key_bits_are_the_plane_major_parities(self, m, n, lanes):
        # expand_key(key, slots) is what a session hashes; the reference
        # builds every word from slots * log2(M) bits.  With two lanes the
        # string is hybrid_parallel's, channel 1 then channel 2 in each of n
        # slots, whose planes are cut over all 2n.  8 * 65536 + 3 slots
        # cross a block boundary of the first plane.
        key = _fresh_key(b"w")
        slots = lanes * n
        words = basis_words(expand_key(key, slots * bits_per_slot(m)), m)
        assert len(words) == slots
        np.testing.assert_array_equal(expand_key(key, slots).packed, np.packbits(words & 1))

    @given(m=powers_of_two, seed=st.integers(0, 2**32 - 1), slots=st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_quadrant_rule_holds_everywhere(self, m, seed, slots):
        rng = np.random.default_rng(seed)
        kprime = expand_key(_fresh_key(), slots * int(np.log2(m)))
        r = random_bits(rng, slots)
        words = basis_words(kprime, m)
        parity = parity_bits(kprime, m)
        angle = transmit_angle(words, parity, r, m)
        in_first = angle < np.pi / 2
        np.testing.assert_array_equal(in_first, (words % 2 ^ r) == 0)
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
        assert len(basis_words(kprime, m)) == expected
        parity = expand_key(_fresh_key(), expected).packed
        assert len(parity) == -(-expected // 8)
        assert not np.unpackbits(parity)[expected:].any()

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            bits_per_slot(12)
        with pytest.raises(ValueError, match="power of two"):
            ChannelModel(m_bases=12)

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
            angles = transmit_angle(words, (words & 1).astype(np.uint8), bits, MAX_M_BASES)
            np.testing.assert_array_equal(words % 2 == bit, angles < np.pi / 2)

    def test_length_mismatch_rejected(self):
        # Four slots are one byte of parities; two bytes of data are refused.
        parity = expand_key(_fresh_key(), 4).packed
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="data bytes"):
            simulate_meso_transmission(parity, np.zeros(2, dtype=np.uint8), 4, 25.0, rng, 1.0, 0.0, (rng, rng))

    def test_both_sides_derive_identical_words(self):
        kprime_alice = expand_key(_fresh_key(), 64)
        kprime_bob = expand_key(_fresh_key(), 64)
        np.testing.assert_array_equal(parity_bits(kprime_alice, 16), parity_bits(kprime_bob, 16))
        np.testing.assert_array_equal(basis_words(kprime_alice, 16), basis_words(kprime_bob, 16))

    def test_analyzer_angles_are_first_quadrant_canonical(self):
        kprime = expand_key(_fresh_key(), 40)
        words = basis_words(kprime, 16)
        assert len(words) == len(parity_bits(kprime, 16)) == 10
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
        bits, erased = meso_round_trip(kprime, r, m, 25.0, rng)
        assert erased.mean() < 1e-3
        ok = ~erased
        assert np.mean(bits[ok] != r[ok]) < 1e-3

    def test_vacuum_pulses_all_erased(self):
        m = 4
        kprime = expand_key(_fresh_key(), 20)
        r = random_bits(np.random.default_rng(2), 10)
        _, erased = meso_round_trip(kprime, r, m, 0.0, np.random.default_rng(3))
        assert erased.all()

    def test_dark_clicks_in_both_arms_erase(self):
        # Every slot clicks in both arms: erased, and a reflect click read.
        m = 16
        kprime = expand_key(_fresh_key(), 40)
        r = random_bits(np.random.default_rng(4), 10)
        bits, erased = meso_round_trip(kprime, r, m, 0.0, np.random.default_rng(5), dark=1.0)
        assert erased.all()
        assert bits.tolist() == (parity_bits(kprime, m) ^ 1).tolist()

    @pytest.mark.parametrize(
        "alpha_sq, survival", [(float("nan"), 1.0), (-1.0, 1.0), (25.0, float("nan")), (25.0, 1.5)]
    )
    def test_invalid_intensity_or_survival_raises(self, alpha_sq, survival):
        kprime = expand_key(_fresh_key(), 40)
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="alpha_sq"):
            meso_round_trip(kprime, random_bits(np.random.default_rng(4), 10), 16, alpha_sq, rng, survival)

    def test_single_aligned_slot_decodes_exactly(self):
        # A pulse that always clicks (p = 1 - exp(-1e6) == 1.0) and no dark
        # count: the click lands in the arm the angle's quadrant selects,
        # and each bit decodes exactly under an even and an odd word.
        m = 16
        for word in (0, 1):
            kprime = packed_key([word, 0, 0, 0])
            parity = parity_bits(kprime, m)
            for bit in (0, 1):
                r = np.array([bit], dtype=np.uint8)
                assert (transmit_angle(basis_words(kprime, m), parity, r, m)[0] < np.pi / 2) == (word == bit)
                bits, erased = meso_round_trip(kprime, r, m, 1e6, np.random.default_rng(1))
                assert not erased[0]
                assert bits[0] == bit

    def test_event_count_mismatch_rejected(self):
        # Four slots are one byte; a slot count of nine needs two.
        parity = expand_key(_fresh_key(), 4).packed
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="for 9 slots"):
            simulate_meso_transmission(parity, np.zeros(1, dtype=np.uint8), 9, 25.0, rng, 1.0, 0.0, (rng, rng))

    def test_double_click_is_erasure(self):
        kprime = expand_key(_fresh_key(), 4)
        r = np.zeros(2, dtype=np.uint8)
        rng = np.random.default_rng(2)
        double, double_erased = meso_round_trip(kprime, r, 4, 0.0, rng, dark=1.0)
        silent, silent_erased = meso_round_trip(kprime, r, 4, 0.0, rng)
        assert double_erased.all() and silent_erased.all()
        # The protocol feeds these bits to the weak channel on erased slots:
        # parity^1 on a double click (the reflect arm fired), parity with no click.
        words = basis_words(kprime, 4)
        assert parity_bits(kprime, 4).tolist() == (words % 2).tolist()
        assert double.tolist() == (words % 2 ^ 1).tolist()
        assert silent.tolist() == (words % 2).tolist()
