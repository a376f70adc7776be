"""AWGN impairment with explicit Eb/N0 bookkeeping and seedable substreams.

Noise is added in the time domain; every receiver-side domain change in this
package is unitary, so the noise statistics carry over unchanged.  Random
streams come from the counter-based Philox generator keyed on
``(master_seed, stream, index)``, which makes every frame's noise independent
of thread scheduling and batch sizes.
"""

import numpy as np

from . import modem

# fixed second key word so user seeds never collide with numpy defaults
_KEY_SALT = 0x9E3779B97F4A7C15

# reserved stream id for the transmit-energy calibration batch
CALIBRATION_STREAM = 0xEB


def substream(master_seed, stream, index=0):
    """Deterministic generator for one work item.

    Distinct ``(stream, index)`` pairs give statistically independent
    Philox substreams under the same master seed.
    """
    key = np.array([np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF), np.uint64(_KEY_SALT)])
    counter = np.array(
        [0, 0, np.uint64(stream & 0xFFFFFFFFFFFFFFFF), np.uint64(index & 0xFFFFFFFFFFFFFFFF)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def noise_variance(ebn0_db, eb):
    """Per-complex-sample noise variance for a target Eb/N0.

    ``N0 = eb / 10**(ebn0_db/10)``; with the unit-step discrete convention
    and a unitary transmit pulse the per-sample variance equals ``N0``.
    """
    if eb <= 0:
        raise ValueError("eb must be positive")
    return eb / 10.0 ** (ebn0_db / 10.0)


def awgn(samples, sigma_sq, rng):
    """Add circularly-symmetric complex Gaussian noise of variance ``sigma_sq``.

    ``sigma_sq / 2`` lands on each real axis; deterministic given the
    generator state.
    """
    if sigma_sq < 0:
        raise ValueError("sigma_sq must be non-negative")
    samples = np.asarray(samples, dtype=complex)
    if sigma_sq == 0.0:
        return samples.copy()
    scale = np.sqrt(sigma_sq / 2.0)
    noise = rng.standard_normal(samples.shape) + 1j * rng.standard_normal(samples.shape)
    return samples + scale * noise


def apply_separable_channel(x, h1=None, h2=None):
    """Separable matrix channel ``H1 @ X @ H2.conj().T`` (noise added separately)."""
    x = np.asarray(x, dtype=complex)
    out = x
    if h1 is not None:
        h1 = np.asarray(h1, dtype=complex)
        if h1.shape[1] != x.shape[0]:
            raise ValueError(f"H1 shape {h1.shape} does not left-multiply {x.shape}")
        out = h1 @ out
    if h2 is not None:
        h2 = np.asarray(h2, dtype=complex)
        if h2.shape[1] != x.shape[1]:
            raise ValueError(f"H2 shape {h2.shape} does not right-multiply {x.shape}")
        out = out @ h2.conj().T
    return out


def measure_eb(params, constellation, master_seed, n_frames=200):
    """Average transmitted energy per bit over a seeded calibration batch.

    Measured from the actual waveform rather than assumed from constellation
    energy: for compression factors below 1 the transform is non-unitary and
    per-frame energy fluctuates, so measured-energy normalization keeps Eb/N0
    comparisons fair across overloading factors.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be at least 1")
    rng = substream(master_seed, CALIBRATION_STREAM)
    bits_per_frame = params.frame_symbols * constellation.bits_per_symbol
    chunk = max(1, modem.STACK_ENTRIES // params.frame_symbols)
    energy = 0.0
    for start in range(0, n_frames, chunk):
        bits = rng.integers(0, 2, size=(min(chunk, n_frames - start), bits_per_frame))
        x = modem.modulate(modem.map_bits(bits, constellation, params.n, params.m), params)
        # frame energies are added left to right, one at a time, so Eb does
        # not depend on the chunk size or on how a reduction groups them
        for frame_energy in np.sum(np.abs(x) ** 2, axis=1):
            energy += float(frame_energy)
    return energy / (n_frames * bits_per_frame)
