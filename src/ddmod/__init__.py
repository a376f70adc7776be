"""Non-orthogonal delay-Doppler modulation toolkit.

Modules by concern:

- ``numerics``  dense complex linear algebra (QR with a fixed diagonal
  convention), and the count rule (``as_count``) and the real-number rule
  (``is_real``) that every count and factor argument is checked by
- ``zak``       discrete delay-Doppler (Zak-type) transform, maps and
  signals as plain arrays, and the pulse-train basis signals behind the
  modulation
- ``modem``     the digital modulator/demodulator with compression factors
- ``channel``   AWGN with Eb/N0 bookkeeping and seedable substreams
- ``detect``    matched filter, iterative soft decoder, 2-D K-best sphere
  decoder with operation counting
- ``harness``   reproducible Monte-Carlo BER sweeps, presets, CSV output
- ``properties`` the transform, modem and detector identities, each written
  once, for the tests and ``verify-properties``
- ``cli``       the ``ddmod`` command: ``simulate``, ``verify-properties``,
  ``complexity``
"""

__version__ = "0.1.0"
