"""Unit and property tests of the O-QPSK / DSSS modulation model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.modulation import (
    CHIP_SEQUENCES,
    OqpskDsssModulator,
    chip_sequence_matrix,
)


class TestChipSequences:
    def test_sixteen_sequences_of_32_chips(self):
        assert len(CHIP_SEQUENCES) == 16
        for sequence in CHIP_SEQUENCES.values():
            assert sequence.shape == (32,)
            assert set(np.unique(sequence)).issubset({0, 1})

    def test_sequences_are_distinct(self):
        matrix = chip_sequence_matrix()
        assert len({tuple(row) for row in matrix}) == 16

    def test_sequences_1_to_7_are_cyclic_shifts_of_sequence_0(self):
        for symbol in range(1, 8):
            shifted = np.roll(CHIP_SEQUENCES[0], 4 * symbol)
            assert np.array_equal(CHIP_SEQUENCES[symbol], shifted)

    def test_sequences_8_to_15_are_conjugated(self):
        for symbol in range(8, 16):
            base = CHIP_SEQUENCES[symbol - 8].copy()
            base[1::2] ^= 1
            assert np.array_equal(CHIP_SEQUENCES[symbol], base)

    def test_minimum_distance_is_large(self):
        # Near-orthogonal code: every pair differs in at least 12 chips.
        matrix = chip_sequence_matrix().astype(np.int32)
        distances = np.array([np.sum(matrix ^ row, axis=1) for row in matrix])
        off_diagonal = distances[~np.eye(16, dtype=bool)]
        assert off_diagonal.min() >= 12


class TestModulator:
    def setup_method(self):
        self.modulator = OqpskDsssModulator()

    def test_bytes_to_symbols_low_nibble_first(self):
        symbols = self.modulator.bytes_to_symbols(b"\x3A")
        assert list(symbols) == [0x0A, 0x03]

    def test_symbols_to_bytes_roundtrip(self):
        data = bytes(range(32))
        symbols = self.modulator.bytes_to_symbols(data)
        assert self.modulator.symbols_to_bytes(symbols) == data

    def test_symbols_to_bytes_odd_length_raises(self):
        with pytest.raises(ValueError):
            self.modulator.symbols_to_bytes([1, 2, 3])

    def test_symbols_out_of_range_raise(self):
        with pytest.raises(ValueError):
            self.modulator.spread([16])
        with pytest.raises(ValueError):
            self.modulator.symbols_to_bytes([17, 1])

    def test_spread_length(self):
        chips = self.modulator.spread([0, 1, 2])
        assert chips.shape == (96,)

    def test_despread_requires_multiple_of_32(self):
        with pytest.raises(ValueError):
            self.modulator.despread(np.zeros(31))

    def test_modulate_demodulate_roundtrip_noiseless(self):
        payload = bytes([0, 1, 2, 3, 0xFF, 0xAB, 0x55, 0xAA])
        chips = self.modulator.modulate(payload)
        assert self.modulator.demodulate(chips) == payload

    def test_demodulation_corrects_few_chip_errors(self):
        payload = b"\xDE\xAD\xBE\xEF"
        chips = self.modulator.modulate(payload).copy()
        # Flip 3 chips in each 32-chip block: still closer to the original
        # code word (minimum distance 12 -> corrects up to 5 flips).
        for block in range(len(chips) // 32):
            for offset in (1, 7, 20):
                index = block * 32 + offset
                chips[index] ^= 1
        assert self.modulator.demodulate(chips) == payload

    def test_empty_input(self):
        assert self.modulator.spread([]).size == 0
        assert self.modulator.despread([]).size == 0
        assert self.modulator.modulate(b"") .size == 0

    @settings(max_examples=30, deadline=None)
    @given(payload=st.binary(min_size=1, max_size=40))
    def test_roundtrip_property(self, payload):
        chips = self.modulator.modulate(payload)
        assert chips.size == len(payload) * 2 * 32
        assert self.modulator.demodulate(chips) == payload
