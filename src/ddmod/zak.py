"""Discrete delay-Doppler signal analysis on a (lam, mu)-parameterized grid.

Time is in units of the symbol duration T and frequency in units of
``delta_f = 1/T``.  A sampled signal is analyzed over a finite frame of
``periods`` consecutive blocks of length ``lam`` and treated as
frame-periodic.  The transform maps it onto the fundamental delay-Doppler
cell ``[0, lam) x [0, mu)``; under the frame-periodic convention every
continuous-time identity (quasi-periodicity, the multiplication and
convolution images, inversion back to time or frequency) holds exactly in
its discrete circular form, which is what the property tests assert.

Grid conventions
----------------
``step = 1 / samples_per_T`` is the sampling interval and
``block_len = lam * samples_per_T`` must be an integer (delays are rejected,
never resampled).  With ``P = periods`` and ``L = block_len``:

- delay grid      ``tau_a = a * step``,         ``a = 0 .. L-1``
- Doppler grid    ``nu_b  = b * mu / P``,       ``b = 0 .. P-1``
- forward map     ``map[a, b] = sqrt(lam) * sum_n x(tau_a + n*lam)
  * exp(-2j*pi*n*b/P)`` summed over the ``P`` retained blocks
- time inversion  rectangle rule over the Doppler grid,
  ``x(tau_a + n*lam) = sqrt(lam)/(lam*mu) * nu_step
  * sum_b map[a, b] * exp(+2j*pi*n*b/P)``

A signal is a plain ``(P*L,)`` complex array and a map a plain ``(L, P)``
one indexed ``map[a, b]``; the grid both live on is the ``ZakParams`` passed
beside them.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import numerics

ALIGN_TOL = 1e-9


class GridAlignmentError(ValueError):
    """A delay, frequency, or signal does not land on the sampling grid."""


@dataclass(frozen=True)
class ZakParams:
    """Transform grid: period multipliers and resolution, in units of T.

    ``lam`` is the delay period and ``mu`` the Doppler period.
    ``samples_per_T`` sets the delay-grid density and ``periods`` the number
    of retained ``lam`` blocks (equivalently the Doppler-grid density).
    """

    lam: float = 1.0
    mu: float = 1.0
    samples_per_T: int = 8
    periods: int = 8

    def __post_init__(self):
        # an int past the float range is refused here, not by an OverflowError
        if not all(numerics.is_real(v) and 0 < v <= sys.float_info.max
                   for v in (self.lam, self.mu)):
            raise ValueError(
                f"lam and mu must be finite and positive, got lam={self.lam}, mu={self.mu}"
            )
        numerics.as_count("samples_per_T", self.samples_per_T)
        numerics.as_count("periods", self.periods)
        try:
            blocks = self.lam * self.samples_per_T
        except OverflowError:
            blocks = math.inf
        if not (math.isfinite(blocks) and round(blocks) >= 1
                and abs(blocks - round(blocks)) <= ALIGN_TOL):
            raise GridAlignmentError(
                f"lam is not a positive multiple of the sampling step: "
                f"lam*samples_per_T={blocks}"
            )

    @property
    def step(self):
        return 1 / self.samples_per_T

    @property
    def block_len(self):
        return int(round(self.lam * self.samples_per_T))

    @property
    def frame_len(self):
        return self.periods * self.block_len

    @property
    def nu_step(self):
        return self.mu / self.periods

    @property
    def tau_grid(self):
        return np.arange(self.block_len) * self.step

    @property
    def nu_grid(self):
        return np.arange(self.periods) * self.nu_step


def _aligned_index(value, unit, what):
    """Integer multiple of ``unit`` that equals ``value``, or raise."""
    ratio = value / unit
    if not math.isfinite(ratio):
        raise GridAlignmentError(f"{what}={value} is not a finite multiple of {unit}")
    idx = round(ratio)
    if abs(ratio - idx) > ALIGN_TOL * max(1.0, abs(ratio)):
        raise GridAlignmentError(f"{what}={value} is not aligned to the grid (unit {unit})")
    return int(idx)


def _check_map(values, p):
    """``values`` as an array, refused unless it is one finite map on ``p``'s grid."""
    values = np.asarray(values)
    if values.shape != (p.block_len, p.periods):
        raise ValueError(f"map {values.shape} does not match the grid {p.block_len, p.periods}")
    if not np.isfinite(values).all():
        raise ValueError("map values must be finite")
    return values


def _check_signal(x, p):
    """``x`` as a complex array, refused unless it is one finite frame of ``p``."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (p.frame_len,):
        raise GridAlignmentError(f"signal shape {x.shape} is not one frame of {p.frame_len}")
    if not np.isfinite(x).all():
        raise ValueError("samples must be finite")
    return x


def zak_transform(x, p):
    """Forward transform of a frame-periodic signal onto the fundamental cell.

    ``map[a, b] = sqrt(lam) * sum_n x(tau_a + n*lam) * exp(-2j*pi*n*nu_b/mu)``
    with the sum over the frame's ``periods`` blocks.  On the Doppler grid the
    phase factors reduce to a DFT across blocks.  Returns the
    ``(block_len, periods)`` map.
    """
    blocks = _check_signal(x, p).reshape(p.periods, p.block_len)
    return np.sqrt(p.lam) * np.fft.fft(blocks, axis=0).T


def zak_to_time(m, p):
    """Invert a delay-Doppler map back to the sampled frame.

    Rectangle rule over the Doppler cell; later blocks are reconstructed via
    the quasi-periodic extension, so the round trip with
    :func:`zak_transform` is exact.
    """
    values = _check_map(m, p)
    coeff = np.sqrt(p.lam) / (p.lam * p.mu) * p.nu_step
    blocks = coeff * (p.periods * np.fft.ifft(values, axis=1)).T
    return blocks.reshape(-1)


def zak_to_spectrum(m, p, f):
    """Fourier value of the underlying frame at frequency ``f``.

    ``F(f) = 1/sqrt(lam) * integral_0^{lam} map(tau, lam*mu*f) *
    exp(-2j*pi*f*tau) dtau`` discretized by the rectangle rule.  ``lam*mu*f``
    must land on the Doppler grid modulo ``mu``, i.e. ``f`` must be a
    multiple of the frame's frequency resolution ``1/(periods*lam)``.
    """
    values = _check_map(m, p)
    b = _aligned_index(p.lam * p.mu * f, p.nu_step, "lam*mu*f") % p.periods
    return complex(
        p.step / np.sqrt(p.lam)
        * np.sum(values[:, b] * np.exp(-2j * np.pi * f * p.tau_grid))
    )


def dd_shift(x, tau0, nu0, p):
    """Delay by ``tau0`` and Doppler-shift by ``nu0`` with periodic extension.

    Returns ``r(t) = x(t - tau0) * exp(2j*pi*nu0*(t - tau0))`` where the delay
    wraps circularly at the frame edge.  ``tau0`` must be grid aligned.
    """
    x = _check_signal(x, p)
    if not math.isfinite(nu0):
        raise ValueError(f"nu0={nu0} must be finite")
    shift = _aligned_index(tau0, p.step, "tau0")
    t_rel = (np.arange(p.frame_len) - shift) * p.step
    return np.roll(x, shift) * np.exp(2j * np.pi * nu0 * t_rel)


def _check_train(tau0, nu0, p):
    if not (0 <= tau0 < p.lam * (1 + ALIGN_TOL)):
        raise ValueError(f"tau0={tau0} outside the fundamental cell [0, {p.lam})")
    if not (0 <= nu0 < p.mu * (1 + ALIGN_TOL)):
        raise ValueError(f"nu0={nu0} outside the fundamental cell [0, {p.mu})")


def _pulse_train(shape, start, nu0, p, n_count):
    """``n_count`` copies of ``shape`` a block apart from sample ``start``, copy ``n``
    weighted ``sqrt(lam)/(lam*mu) * exp(2j*pi*nu0*n/mu)``, wrapping at the frame edge."""
    samples = np.zeros(p.frame_len, dtype=complex)
    amp = np.sqrt(p.lam) / (p.lam * p.mu)
    for n in range(n_count):
        w = amp * np.exp(2j * np.pi * nu0 * n / p.mu)
        pos = (start + n * p.block_len + np.arange(len(shape))) % p.frame_len
        samples[pos] += w * shape
    return samples


def pulse_basis(tau0, nu0, p):
    """Delta-train basis element ``psi`` at ``(tau0, nu0)``, rendered over the frame.

    ``psi(t) = sqrt(lam)/(lam*mu) * sum_{n=0}^{periods-1}
    exp(2j*pi*nu0*n/mu) * delta(t - tau0 - n*lam)``, each impulse a value-1
    single sample at the grid-aligned ``tau0``.  ``np.vdot(psi, x)`` equals
    the map of ``x`` at that cell point divided by ``lam*mu``, and the
    elements over the whole grid, weighted ``nu_step * lam * mu``, rebuild
    ``x``.  Impulses wrap circularly at the frame edge.
    """
    _check_train(tau0, nu0, p)
    start = _aligned_index(tau0, p.step, "tau0")
    return _pulse_train(np.ones(1, dtype=complex), start, nu0, p, p.periods)


def modulation_base(k, l, p, M, N, theta, phi):
    """Modulation base ``chi_(k,l)``: a scaled multitone pulse train.

    ``chi_(k,l) = 1/sqrt(M*N) * psi``, with ``psi`` the train of
    :func:`pulse_basis` at ``tau0 = l*phi/M``, ``nu0 = k*theta/N`` and
    ``max(1, round(N/lam))`` impulses, each replaced by the block-periodic
    sum of ``M`` tones spaced ``1/lam``, so any in-cell
    ``tau0`` is renderable.  Spanning ``M`` frequency slots makes distinct
    delay indices orthogonal in the ``theta = mu, phi = 1`` limit and
    non-orthogonal under compression.
    """
    if not (0 <= k < N):
        raise ValueError(f"Doppler index k={k} out of range [0, {N})")
    if not (0 <= l < M):
        raise ValueError(f"delay index l={l} out of range [0, {M})")
    tau0 = l * phi / M
    nu0 = k * theta / N
    _check_train(tau0, nu0, p)
    t_block = np.arange(p.block_len) * p.step
    tones = np.arange(M)
    shape = np.exp(2j * np.pi * np.outer(t_block - tau0, tones) / p.lam).sum(axis=1)
    return _pulse_train(shape, 0, nu0, p, max(1, round(N / p.lam))) / np.sqrt(M * N)
