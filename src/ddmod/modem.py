"""Digital delay-Doppler modem with adjustable compression factors.

The symbol frame ``S`` is an ``N x M`` complex array (Doppler rows, delay
columns), the time-frequency frame ``X`` an ``N x M`` array (time-slot rows,
subcarrier columns), and the waveform a length ``N*M`` vector sampled at
``T/M``.  The transmit and receive functions also take a stack of frames
with a leading frame axis, ``(B, N, M)`` frames or ``(B, N*M)`` waveforms;
each frame of a stack comes out bit-identical to the same frame passed
alone.  ``alpha = beta = 1`` reproduces the orthogonal OTFS chain (ISFFT
followed by a rectangular-pulse Heisenberg transform); compression factors
below 1 keep the same frame carried in a signal whose effective
time-bandwidth occupancy shrinks by ``alpha*beta``, making the transform
matrices non-unitary.

The end-to-end bridge used by the detector:
``wigner_rect(modulate(S)) == A @ S @ B.conj().T`` exactly, for all
``alpha, beta``.
"""

import functools
from dataclasses import dataclass

import numpy as np

# most symbol entries (frames x N x M) stacked into one batched call by the
# harness and the Eb calibration, and survivor entries (frames x survivors x
# N x M) in one sphere decode; it bounds their memory and never changes a
# result
STACK_ENTRIES = 1 << 13


@dataclass(frozen=True)
class ModemParams:
    """Frame dimensions and compression factors.

    ``m`` delay bins, ``n`` Doppler bins, ``alpha`` the Doppler compression
    and ``beta`` the delay compression, both in (0, 1].  The time-frequency
    grid stays critically sampled for every compression (no truncation of
    slots or subcarriers), so the transmit chain is always invertible.

    The transform factors ``doppler_matrix`` (A) and ``delay_adjoint`` (B+)
    are built on first use and cached on the instance, read-only.
    """

    m: int
    n: int
    alpha: float = 1.0
    beta: float = 1.0
    T: float = 1.0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("frame dimensions must be at least 1")
        if not (0.0 < self.alpha <= 1.0) or not (0.0 < self.beta <= 1.0):
            raise ValueError("compression factors must lie in (0, 1]")
        if self.T <= 0:
            raise ValueError("T must be positive")

    @property
    def delta_f(self):
        return 1.0 / self.T

    @property
    def frame_symbols(self):
        return self.m * self.n

    @functools.cached_property
    def doppler_matrix(self):
        a = build_doppler_matrix(self.alpha, self.n)
        a.setflags(write=False)
        return a

    @functools.cached_property
    def delay_adjoint(self):
        b = build_delay_matrix(self.beta, self.m).conj()
        b.setflags(write=False)
        return b.T


@dataclass(frozen=True)
class Constellation:
    """Symbol alphabet with an index <-> bit-label convention.

    ``points[i]`` carries the bit label given by the big-endian binary
    expansion of ``i`` over ``bits_per_symbol`` bits.
    """

    name: str
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        if pts.size == 0:
            raise ValueError("constellation must not be empty")
        k = int(np.log2(pts.size))
        if 2**k != pts.size:
            raise ValueError("constellation size must be a power of two")
        object.__setattr__(self, "points", pts)

    @property
    def bits_per_symbol(self):
        return int(np.log2(self.points.size))

    @property
    def axis_magnitude(self):
        """Mean per-axis magnitude, the soft clipper's saturation scale."""
        return float(np.mean(np.abs(self.points.real)))

    def nearest(self, w):
        """Entrywise index of the nearest point; ties break to the lowest index.

        The points are compared one at a time, so the work arrays keep the
        shape of ``w``.
        """
        w = np.asarray(w, dtype=complex)
        best = np.abs(w - self.points[0])
        idx = np.zeros(w.shape, dtype=np.intp)
        for k in range(1, self.points.size):
            dist = np.abs(w - self.points[k])
            idx[dist < best] = k
            np.minimum(best, dist, out=best)
        return idx


def qpsk():
    """Gray-mapped unit-energy QPSK.

    bits 00 -> (+1+j)/sqrt(2), 01 -> (-1+j)/sqrt(2),
    11 -> (-1-j)/sqrt(2),      10 -> (+1-j)/sqrt(2);
    first bit selects the imaginary sign, second the real sign.
    """
    pts = np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j]) / np.sqrt(2.0)
    return Constellation(name="qpsk", points=pts)


_CONSTELLATIONS = {"qpsk": qpsk}


def get_constellation(name):
    try:
        return _CONSTELLATIONS[name]()
    except KeyError:
        raise ValueError(f"unknown constellation {name!r}") from None


def build_doppler_matrix(alpha, n):
    """Doppler-side transform, ``A[n, k] = exp(2j*pi*alpha*n*k/N) / sqrt(N)``.

    Unitary exactly at ``alpha = 1`` (the DFT limit); full rank for all
    ``alpha`` in (0, 1].
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    idx = np.arange(n)
    return np.exp(2j * np.pi * alpha * np.outer(idx, idx) / n) / np.sqrt(n)


def build_delay_matrix(beta, m):
    """Delay-side transform, ``B[m, l] = exp(2j*pi*beta*m*l/M) / sqrt(M)``.

    The minus sign of the delay-direction exponent is realized where ``B`` is
    applied (right multiplication by ``B.conj().T``), keeping both factors
    structurally symmetric.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if m < 1:
        raise ValueError("m must be at least 1")
    idx = np.arange(m)
    return np.exp(2j * np.pi * beta * np.outer(idx, idx) / m) / np.sqrt(m)


def _frames(s, params):
    """``s`` as a complex ``(N, M)`` frame or ``(B, N, M)`` stack of frames."""
    s = np.asarray(s, dtype=complex)
    if s.ndim not in (2, 3) or s.shape[-2:] != (params.n, params.m):
        raise ValueError(f"frame shape {s.shape} does not match ({params.n}, {params.m})")
    return s


def isfft_nonorth(s, params):
    """Symbol frame to time-frequency frame: ``X = A @ S @ B.conj().T``.

    Entrywise ``X[n, m] = sum_{k,l} S[k, l] * exp(2j*pi*(alpha*n*k/N -
    beta*m*l/M)) / sqrt(N*M)``; at ``alpha = beta = 1`` this is the inverse
    symplectic finite Fourier transform.
    """
    s = _frames(s, params)
    return params.doppler_matrix @ s @ params.delay_adjoint

def heisenberg_rect(x_tf, params):
    """Time-frequency frame to waveform with the rectangular transmit pulse.

    Block ``n`` of the waveform is the unitary inverse DFT of row ``n``:
    ``samples[n*M + p] = sum_m X[n, m] * exp(2j*pi*m*p/M) / sqrt(M)``.
    """
    x_tf = _frames(x_tf, params)
    blocks = np.fft.ifft(x_tf, axis=-1)
    blocks *= np.sqrt(params.m)
    return blocks.reshape(*x_tf.shape[:-2], -1)


def wigner_rect(y, params):
    """Waveform back to the time-frequency frame; exact inverse of
    :func:`heisenberg_rect` (unitary, so white noise statistics carry over).
    """
    y = np.asarray(y, dtype=complex)
    if y.ndim not in (1, 2) or y.shape[-1] != params.n * params.m:
        raise ValueError(f"signal length {y.shape} does not match {params.n * params.m}")
    blocks = y.reshape(*y.shape[:-1], params.n, params.m)
    tf = np.fft.fft(blocks, axis=-1)
    tf /= np.sqrt(params.m)
    return tf


def modulate(s, params):
    """Full transmit chain: symbol frame to waveform."""
    return heisenberg_rect(isfft_nonorth(s, params), params)


def overloading_factor(alpha, beta):
    """Fractional symbol excess over the orthogonal budget, ``1/(alpha*beta) - 1``."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("compression factors must be positive")
    return 1.0 / (alpha * beta) - 1.0


def map_bits(bits, constellation, n_rows, m_cols):
    """Map a bit vector onto an ``n_rows x m_cols`` symbol frame.

    A ``(B, bits)`` array maps row by row onto a ``(B, n_rows, m_cols)``
    stack of frames.
    """
    bits = np.asarray(bits, dtype=int)
    bps = constellation.bits_per_symbol
    if bits.ndim > 2 or bits.shape[-1:] != (n_rows * m_cols * bps,):
        raise ValueError(
            f"expected {n_rows * m_cols * bps} bits for a {n_rows}x{m_cols} frame, "
            f"got shape {bits.shape}"
        )
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must be 0 or 1")
    weights = 1 << np.arange(bps - 1, -1, -1)
    idx = bits.reshape(-1, bps) @ weights
    return constellation.points[idx].reshape(*bits.shape[:-1], n_rows, m_cols)


def demap_symbols(frame, constellation):
    """Nearest-neighbor demap of a symbol frame back to a bit vector.

    A ``(B, N, M)`` stack of frames demaps to a ``(B, bits)`` array, one row
    per frame.  Ties break toward the lowest constellation index, so the
    demap is deterministic for any input.
    """
    frame = np.asarray(frame)
    idx = constellation.nearest(frame)[..., None]
    bps = constellation.bits_per_symbol
    bits = (idx >> np.arange(bps - 1, -1, -1)) & 1
    return bits.reshape(*frame.shape[:-2], -1)
