"""AWGN impairment with explicit Eb/N0 bookkeeping and seedable substreams.

Noise is added in the time domain; every receiver-side domain change in this
package is unitary, so the noise statistics carry over unchanged.  Random
streams come from the counter-based Philox generator keyed on
``(master_seed, stream, index)``, which makes every frame's noise independent
of thread scheduling and batch sizes.  A generator can be reset to another
substream instead of built anew, :func:`raw_bits` gives the bits numpy's
``integers(0, 2)`` draws from raw words, and :func:`awgn` adds noise to a stack.
"""

import numpy as np

from . import modem

# fixed second key word so user seeds never collide with numpy defaults
_KEY_SALT = 0x9E3779B97F4A7C15

# reserved stream id and frame count of the transmit-energy calibration batch
CALIBRATION_STREAM = 0xEB
CALIBRATION_FRAMES = 200

_MASK = 0xFFFFFFFFFFFFFFFF
# the buffer fields of a new Philox: nothing drawn yet
_UNBUFFERED = {"buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def substream(master_seed, stream, index=0, rng=None):
    """Deterministic generator for one work item.

    Distinct ``(stream, index)`` pairs give statistically independent
    Philox substreams under the same master seed.  Given ``rng``, a
    Philox-backed generator in any state, it resets that generator to the
    start of the substream and returns it: a Philox stream is fixed by its
    key and counter, so the reset generator draws bit for bit what a new one
    would, without the cost of building one.
    """
    key = (master_seed & _MASK, _KEY_SALT)
    counter = (0, 0, stream & _MASK, index & _MASK)
    if rng is None:
        return np.random.Generator(
            np.random.Philox(key=np.array(key, np.uint64), counter=np.array(counter, np.uint64))
        )
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": key},
        **_UNBUFFERED,
    }
    return rng


def raw_bits(words, shape):
    """The int64 bits ``rng.integers(0, 2, size=shape)`` draws, from its raw words.

    Each is the top bit of a 32-bit half of a word, low half first: for a range of
    2 numpy's draw never rejects.  ``(W,)`` words give one draw, ``(B, W)`` one per
    row.  A draw finds no half word buffered, as :func:`substream` leaves the rng.
    """
    halves = np.ascontiguousarray(words, "<u8").view("<u4")
    count = np.prod(shape, dtype=int) // np.prod(halves.shape[:-1], dtype=int)
    return (halves[..., :count] >> 31).astype(np.int64).reshape(shape)


def noise_variance(ebn0_db, eb):
    """Per-complex-sample noise variance for a target Eb/N0.

    ``N0 = eb / 10**(ebn0_db/10)``; with the unit-step discrete convention
    and a unitary transmit pulse the per-sample variance equals ``N0``.
    """
    if eb <= 0:
        raise ValueError("eb must be positive")
    return eb / 10.0 ** (ebn0_db / 10.0)


def awgn(samples, sigma_sq, noise):
    """Add circularly-symmetric complex Gaussian noise of variance ``sigma_sq``.

    ``samples`` is one waveform ``(L,)`` or a stack ``(B, L)``, and
    ``sigma_sq`` a scalar or one variance per waveform.  ``noise`` holds
    each waveform's standard normal draws, real parts then imaginary parts:
    ``(2, L)`` for one waveform, ``(B, 2, L)`` for a stack, as
    ``rng.standard_normal((2, L))`` draws them.  ``sigma_sq / 2`` lands on
    each real axis, and a waveform of zero variance comes back as an exact
    copy, signed zeros included.
    """
    samples = np.asarray(samples, dtype=complex)
    sigma_sq = np.asarray(sigma_sq, dtype=float)
    if not (sigma_sq >= 0).all():
        raise ValueError("sigma_sq must be non-negative")
    noise = np.asarray(noise)
    if noise.shape != (*samples.shape[:-1], 2, samples.shape[-1]):
        raise ValueError(f"noise shape {noise.shape} does not match samples {samples.shape}")
    scale = np.sqrt(sigma_sq / 2.0)[..., None]
    out = samples + scale * (noise[..., 0, :] + 1j * noise[..., 1, :])
    np.copyto(out, samples, where=(sigma_sq == 0)[..., None])
    return out


def measure_eb(params, constellation, master_seed):
    """Average transmitted energy per bit over a seeded calibration batch of
    ``CALIBRATION_FRAMES`` frames.

    Measured from the actual waveform rather than assumed from constellation
    energy: for compression factors below 1 the transform is non-unitary and
    per-frame energy fluctuates, so measured-energy normalization keeps Eb/N0
    comparisons fair across overloading factors.  ``constellation`` is not
    read: the frames carry the modem's one alphabet (see
    ``modem.Constellation`` for why the parameter stays).
    """
    rng = substream(master_seed, CALIBRATION_STREAM)
    bits_per_frame = params.frame_symbols * modem.BITS_PER_SYMBOL
    chunk = max(1, modem.STACK_ENTRIES // params.frame_symbols)
    energy = 0.0
    for start in range(0, CALIBRATION_FRAMES, chunk):
        shape = (min(chunk, CALIBRATION_FRAMES - start), bits_per_frame)
        bits = raw_bits(rng.bit_generator.random_raw(-(-shape[0] * bits_per_frame // 2)), shape)
        x = modem.modulate(modem.map_bits(bits, params.n, params.m), params)
        # frame energies are added left to right, one at a time, so Eb does
        # not depend on the chunk size or on how a reduction groups them
        for frame_energy in np.sum(np.abs(x) ** 2, axis=1):
            energy += float(frame_energy)
    return energy / (CALIBRATION_FRAMES * bits_per_frame)
