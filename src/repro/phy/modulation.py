"""O-QPSK / DSSS modulation model of the 2450 MHz PHY.

Each 4-bit symbol is mapped onto one of sixteen nearly-orthogonal 32-chip
pseudo-noise sequences; the chips are transmitted with offset-QPSK and
half-sine pulse shaping.  For the energy analysis only the *timing* matters,
but the full chip mapping is implemented so the analytic bit-error model can
be derived from the actual code distance properties, and so the wired test
bench (:mod:`repro.channel.wired`) can run true chip-level Monte-Carlo
experiments when regenerating Figure 4.

The sixteen sequences follow Table 24 of IEEE 802.15.4-2003: sequences 1–7
are cyclic shifts (by 4 chips) of sequence 0, and sequences 8–15 are the
conjugated (odd-indexed chips inverted) versions of 0–7.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

#: Chip sequence of data symbol 0 (LSB-first chip order), per the standard.
_SYMBOL0_CHIPS = np.array(
    [1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1,
     0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0],
    dtype=np.uint8,
)


def _build_chip_sequences() -> Dict[int, np.ndarray]:
    """Construct the sixteen 32-chip PN sequences of the 2450 MHz PHY."""
    sequences: Dict[int, np.ndarray] = {}
    for symbol in range(8):
        shifted = np.roll(_SYMBOL0_CHIPS, 4 * symbol)
        sequences[symbol] = shifted.copy()
    for symbol in range(8, 16):
        base = sequences[symbol - 8].copy()
        # Conjugation: invert every odd-indexed chip (the Q-phase chips).
        base[1::2] ^= 1
        sequences[symbol] = base
    return sequences


#: Mapping 4-bit data symbol -> 32-chip PN sequence (numpy uint8 arrays).
CHIP_SEQUENCES: Dict[int, np.ndarray] = _build_chip_sequences()


def chip_sequence_matrix() -> np.ndarray:
    """All sixteen chip sequences stacked as a (16, 32) uint8 matrix."""
    return np.vstack([CHIP_SEQUENCES[s] for s in range(16)])


class OqpskDsssModulator:
    """Bit <-> chip conversion for the 2450 MHz O-QPSK/DSSS PHY.

    The modulator provides

    * :meth:`bytes_to_symbols` / :meth:`symbols_to_bytes` — nibble packing,
      least-significant nibble first as required by the standard;
    * :meth:`spread` — symbols to chips;
    * :meth:`despread` — chips back to symbols using minimum-Hamming-distance
      (hard-decision) correlation, which is what a low-complexity sensor-node
      receiver such as the CC2420 implements.
    """

    chips_per_symbol = 32
    bits_per_symbol = 4

    def __init__(self):
        self._matrix = chip_sequence_matrix().astype(np.int16)

    # -- bit / symbol packing ----------------------------------------------
    @staticmethod
    def bytes_to_symbols(data: bytes) -> np.ndarray:
        """Split octets into 4-bit symbols, least-significant nibble first."""
        arr = np.frombuffer(bytes(data), dtype=np.uint8)
        low = arr & 0x0F
        high = arr >> 4
        symbols = np.empty(2 * len(arr), dtype=np.uint8)
        symbols[0::2] = low
        symbols[1::2] = high
        return symbols

    @staticmethod
    def symbols_to_bytes(symbols: Sequence[int]) -> bytes:
        """Inverse of :meth:`bytes_to_symbols`.

        Raises
        ------
        ValueError
            If the number of symbols is odd or a symbol is out of range.
        """
        symbols = np.asarray(symbols, dtype=np.int64)
        if symbols.size % 2 != 0:
            raise ValueError("Symbol stream length must be even to form octets")
        if symbols.size and (symbols.min() < 0 or symbols.max() > 15):
            raise ValueError("Symbols must lie in 0..15")
        low = symbols[0::2]
        high = symbols[1::2]
        return bytes((high << 4 | low).astype(np.uint8).tolist())

    # -- spreading ----------------------------------------------------------
    def spread(self, symbols: Sequence[int]) -> np.ndarray:
        """Map data symbols to the transmitted chip stream (uint8 0/1)."""
        symbols = np.asarray(symbols, dtype=np.int64)
        if symbols.size and (symbols.min() < 0 or symbols.max() > 15):
            raise ValueError("Symbols must lie in 0..15")
        if symbols.size == 0:
            return np.zeros(0, dtype=np.uint8)
        return self._matrix[symbols].astype(np.uint8).reshape(-1)

    def despread(self, chips: Sequence[int]) -> np.ndarray:
        """Hard-decision despreading: nearest chip sequence per 32-chip block.

        Raises
        ------
        ValueError
            If the chip stream length is not a multiple of 32.
        """
        chips = np.asarray(chips, dtype=np.int16)
        if chips.size % self.chips_per_symbol != 0:
            raise ValueError("Chip stream length must be a multiple of 32")
        if chips.size == 0:
            return np.zeros(0, dtype=np.uint8)
        blocks = chips.reshape(-1, self.chips_per_symbol)
        # Hamming distance of each block to each of the 16 candidate codes.
        distances = np.count_nonzero(
            blocks[:, None, :] != self._matrix[None, :, :], axis=2)
        return np.argmin(distances, axis=1).astype(np.uint8)

    # -- convenience --------------------------------------------------------
    def modulate(self, data: bytes) -> np.ndarray:
        """Full transmit mapping: octets to chip stream."""
        return self.spread(self.bytes_to_symbols(data))

    def demodulate(self, chips: Sequence[int]) -> bytes:
        """Full receive mapping: chip stream back to octets."""
        return self.symbols_to_bytes(self.despread(chips))
