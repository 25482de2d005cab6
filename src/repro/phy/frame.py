"""PHY protocol data unit (PPDU) framing sizes.

A transmitted 802.15.4 packet consists of (Figure 5 of the paper):

* a 4-byte preamble used by the receiver for synchronisation,
* a 1-byte start-of-frame delimiter (SFD),
* a 1-byte frame-length field (the PHY header), and
* the PHY service data unit (PSDU), i.e. the MAC frame, of up to 127 bytes.

The paper counts 13 bytes of combined PHY + MAC overhead per data frame
(``L_o``): 4 (preamble) + 1 (SFD) + 1 (length) + 7 bytes of MAC header/footer
with short addressing (frame control 2, sequence number 1, addressing 4 when
short 16-bit PAN-compressed addresses are used... the paper rounds the MAC
overhead to 8 bytes including the 2-byte FCS).  The exact MAC accounting
lives in :mod:`repro.mac.frames`; this module only models the PHY portion.
"""

#: Synchronisation preamble length (octets of zeros).
PHY_PREAMBLE_BYTES = 4
#: Start-of-frame delimiter length.
PHY_SFD_BYTES = 1
#: Frame-length field length (the "PHY header" proper).
PHY_LENGTH_FIELD_BYTES = 1
#: Total PHY overhead per packet: preamble + SFD + length field = 6 bytes.
PHY_HEADER_BYTES = PHY_PREAMBLE_BYTES + PHY_SFD_BYTES + PHY_LENGTH_FIELD_BYTES
