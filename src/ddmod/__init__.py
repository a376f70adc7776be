"""Non-orthogonal delay-Doppler modulation toolkit.

Subpackages by concern:

- ``numerics``  dense complex linear algebra (QR with a fixed diagonal
  convention)
- ``zak``       discrete delay-Doppler (Zak-type) transform and the basis
  constructions behind the modulation
- ``modem``     the digital modulator/demodulator with compression factors
- ``channel``   AWGN with Eb/N0 bookkeeping and seedable substreams
- ``detect``    matched filter, iterative soft decoder, 2-D K-best sphere
  decoder with operation counting
- ``harness``   reproducible Monte-Carlo BER sweeps, presets, CSV output
"""

__version__ = "0.1.0"
