"""Discrete delay-Doppler signal analysis on a (lam, mu)-parameterized grid.

A sampled signal is analyzed over a finite frame of ``periods`` consecutive
intervals of length ``lam * T`` seconds and treated as frame-periodic.  The
transform maps it onto the fundamental delay-Doppler cell
``[0, lam*T) x [0, mu*delta_f)``; under the frame-periodic convention every
continuous-time identity (quasi-periodicity, the multiplication and
convolution images, inversion back to time or frequency) holds exactly in
its discrete circular form, which is what the property tests assert.

Grid conventions
----------------
``step = T / samples_per_T`` is the sampling interval and
``block_len = lam * samples_per_T`` must be an integer (delays are rejected,
never resampled).  With ``P = periods`` and ``L = block_len``:

- delay grid      ``tau_a = a * step``,                ``a = 0 .. L-1``
- Doppler grid    ``nu_b  = b * mu * delta_f / P``,    ``b = 0 .. P-1``
- forward map     ``map[a, b] = sqrt(lam*T) * sum_n x(tau_a + n*lam*T)
  * exp(-2j*pi*n*b/P)`` summed over the ``P`` retained blocks
- time inversion  rectangle rule over the Doppler grid,
  ``x(tau_a + n*lam*T) = sqrt(lam*T)/(lam*mu) * nu_step
  * sum_b map[a, b] * exp(+2j*pi*n*b/P)``

Delta conventions
-----------------
Two renderings of point masses appear and each call site states which one it
uses: an :class:`ImpulseTrain` renders atoms as single samples of
``weight / step`` (unit-area delta, the right dual wherever an *integral*
consumes the samples), while the ``"impulse"`` pulse kind of ``pulse_basis``
places a value-1 single-sample rectangle (the right dual for the transform's
block *sum*).
"""

from dataclasses import dataclass

import numpy as np

ALIGN_TOL = 1e-9


class GridAlignmentError(ValueError):
    """A delay, frequency, or signal does not land on the sampling grid."""


@dataclass(frozen=True)
class ZakParams:
    """Transform grid: period multipliers, symbol duration, and resolution.

    ``lam`` scales the delay period ``lam*T`` and ``mu`` the Doppler period
    ``mu*delta_f`` with ``delta_f = 1/T`` held exactly.  ``samples_per_T``
    sets the delay-grid density and ``periods`` the number of retained
    ``lam*T`` blocks (equivalently the Doppler-grid density).
    """

    lam: float = 1.0
    mu: float = 1.0
    T: float = 1.0
    samples_per_T: int = 8
    periods: int = 8

    def __post_init__(self):
        if self.lam <= 0 or self.mu <= 0:
            raise ValueError("lam and mu must be positive")
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.samples_per_T < 1 or self.periods < 1:
            raise ValueError("samples_per_T and periods must be at least 1")
        blocks = self.lam * self.samples_per_T
        if abs(blocks - round(blocks)) > ALIGN_TOL:
            raise GridAlignmentError(
                f"lam*T is not a multiple of the sampling step: lam*samples_per_T={blocks}"
            )

    @property
    def delta_f(self):
        return 1.0 / self.T

    @property
    def step(self):
        return self.T / self.samples_per_T

    @property
    def block_len(self):
        return int(round(self.lam * self.samples_per_T))

    @property
    def frame_len(self):
        return self.periods * self.block_len

    @property
    def nu_step(self):
        return self.mu * self.delta_f / self.periods

    @property
    def tau_grid(self):
        return np.arange(self.block_len) * self.step

    @property
    def nu_grid(self):
        return np.arange(self.periods) * self.nu_step


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled complex signal."""

    samples: np.ndarray
    step: float

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=complex))
        if self.samples.ndim != 1:
            raise ValueError("samples must be a 1-d sequence")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if not np.isfinite(self.samples).all():
            raise ValueError("samples must be finite")

    def __len__(self):
        return len(self.samples)


@dataclass(frozen=True)
class DDMap:
    """Delay-Doppler image on the fundamental cell.

    ``values[a, b]`` is indexed by (delay index, Doppler index).
    """

    tau_grid: np.ndarray
    nu_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tau_grid", np.asarray(self.tau_grid, dtype=float))
        object.__setattr__(self, "nu_grid", np.asarray(self.nu_grid, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        if self.values.shape != (len(self.tau_grid), len(self.nu_grid)):
            raise ValueError(
                f"values shape {self.values.shape} does not match grids "
                f"({len(self.tau_grid)}, {len(self.nu_grid)})"
            )
        if len(self.tau_grid) == 0 or len(self.nu_grid) == 0:
            raise ValueError("grids must be non-empty")
        if np.any(np.diff(self.tau_grid) <= 0) or np.any(np.diff(self.nu_grid) <= 0):
            raise ValueError("grids must be strictly increasing")


@dataclass(frozen=True)
class ImpulseTrain:
    """Weighted delta atoms at strictly increasing times."""

    times: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=complex))
        if self.times.shape != self.weights.shape or self.times.ndim != 1:
            raise ValueError("times and weights must be matching 1-d sequences")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("atom times must be strictly increasing")
        if not np.isfinite(self.weights).all():
            raise ValueError("weights must be finite")


def _aligned_index(value, unit, what):
    """Integer multiple of ``unit`` that equals ``value``, or raise."""
    ratio = value / unit
    idx = round(ratio)
    if abs(ratio - idx) > ALIGN_TOL * max(1.0, abs(ratio)):
        raise GridAlignmentError(f"{what}={value} is not aligned to the grid (unit {unit})")
    return int(idx)


def _check_frame(x, p):
    if abs(x.step - p.step) > ALIGN_TOL * p.step:
        raise GridAlignmentError(f"signal step {x.step} does not match grid step {p.step}")
    if len(x) != p.frame_len:
        raise GridAlignmentError(
            f"signal length {len(x)} does not match the frame length {p.frame_len}"
        )


def inner_product(a, b):
    """Discretized L2 inner product ``integral conj(a) * b dt``."""
    if len(a) != len(b) or abs(a.step - b.step) > ALIGN_TOL * a.step:
        raise ValueError("signals must share the sampling grid")
    return complex(a.step * np.vdot(a.samples, b.samples))


def zak_transform(x, p):
    """Forward transform of a frame-periodic signal onto the fundamental cell.

    ``map[a, b] = sqrt(lam*T) * sum_n x(tau_a + n*lam*T) * exp(-2j*pi*n*nu_b*T/mu)``
    with the sum over the frame's ``periods`` blocks.  On the Doppler grid the
    phase factors reduce to a DFT across blocks.
    """
    _check_frame(x, p)
    blocks = x.samples.reshape(p.periods, p.block_len)
    values = np.sqrt(p.lam * p.T) * np.fft.fft(blocks, axis=0).T
    return DDMap(tau_grid=p.tau_grid, nu_grid=p.nu_grid, values=values)


def zak_to_time(m, p):
    """Invert a delay-Doppler map back to the sampled frame.

    Rectangle rule over the Doppler cell; later blocks are reconstructed via
    the quasi-periodic extension, so the round trip with
    :func:`zak_transform` is exact.
    """
    values = m.values
    if values.shape != (p.block_len, p.periods):
        raise ValueError(
            f"map shape {values.shape} does not match the grid "
            f"({p.block_len}, {p.periods})"
        )
    coeff = np.sqrt(p.lam * p.T) / (p.lam * p.mu) * p.nu_step
    blocks = coeff * (p.periods * np.fft.ifft(values, axis=1)).T
    return SampledSignal(samples=blocks.reshape(-1), step=p.step)


def zak_to_spectrum(m, p, f):
    """Fourier value of the underlying frame at frequency ``f``.

    ``F(f) = 1/sqrt(lam*T) * integral_0^{lam*T} map(tau, lam*mu*f) *
    exp(-2j*pi*f*tau) dtau`` discretized by the rectangle rule.  ``lam*mu*f``
    must land on the Doppler grid modulo ``mu*delta_f``, i.e. ``f`` must be a
    multiple of the frame's frequency resolution ``1/(periods*lam*T)``.
    """
    b = _aligned_index(p.lam * p.mu * f, p.nu_step, "lam*mu*f") % p.periods
    tau = m.tau_grid
    return complex(
        p.step / np.sqrt(p.lam * p.T) * np.sum(m.values[:, b] * np.exp(-2j * np.pi * f * tau))
    )


def dd_shift(x, tau0, nu0):
    """Delay by ``tau0`` and Doppler-shift by ``nu0`` with periodic extension.

    Returns ``r(t) = x(t - tau0) * exp(2j*pi*nu0*(t - tau0))`` where the delay
    wraps circularly at the frame edge.  ``tau0`` must be grid aligned.
    """
    shift = _aligned_index(tau0, x.step, "tau0")
    t_rel = (np.arange(len(x)) - shift) * x.step
    samples = np.roll(x.samples, shift) * np.exp(2j * np.pi * nu0 * t_rel)
    return SampledSignal(samples=samples, step=x.step)


def _check_cell(tau0, nu0, p):
    if not (0 <= tau0 < p.lam * p.T * (1 + ALIGN_TOL)):
        raise ValueError(f"tau0={tau0} outside the fundamental cell [0, {p.lam * p.T})")
    if not (0 <= nu0 < p.mu * p.delta_f * (1 + ALIGN_TOL)):
        raise ValueError(f"nu0={nu0} outside the fundamental cell [0, {p.mu * p.delta_f})")


def impulse_basis(tau0, nu0, p):
    """Delta-train basis element located at ``(tau0, nu0)``.

    Atoms sit at ``t = tau0 + n*lam*T`` with weights
    ``sqrt(lam*T)/(lam*mu) * exp(2j*pi*nu0*n*T/mu)``, one per frame block:
    ``n = 0 .. periods-1``.
    """
    _check_cell(tau0, nu0, p)
    n = np.arange(p.periods)
    times = tau0 + n * p.lam * p.T
    weights = np.sqrt(p.lam * p.T) / (p.lam * p.mu) * np.exp(2j * np.pi * nu0 * n * p.T / p.mu)
    return ImpulseTrain(times=times, weights=weights)


def render_impulse_train(train, p):
    """Render delta atoms onto the frame as samples of ``weight / step``."""
    samples = np.zeros(p.frame_len, dtype=complex)
    for t, w in zip(train.times, train.weights):
        idx = _aligned_index(t, p.step, "atom time") % p.frame_len
        samples[idx] += w / p.step
    return SampledSignal(samples=samples, step=p.step)


def basis_coefficient(x, tau0, nu0, p):
    """Projection of ``x`` onto the delta-train basis element at ``(tau0, nu0)``.

    Evaluates ``<basis, x>`` directly on the atoms (a delta against a sum, so
    no ``dt`` factor); equals ``1/(lam*mu)`` times the transform value at the
    same cell point.
    """
    _check_frame(x, p)
    train = impulse_basis(tau0, nu0, p)
    total = 0.0 + 0.0j
    for t, w in zip(train.times, train.weights):
        idx = _aligned_index(t, p.step, "atom time") % p.frame_len
        total += np.conj(w) * x.samples[idx]
    return complex(total)


def pulse_basis(tau0, nu0, p, n_count, pulse="impulse", tones=None):
    """Pulse-train basis element ``psi`` rendered over the frame.

    ``psi(t) = sqrt(lam*T)/(lam*mu) * sum_{n=0}^{n_count-1}
    exp(2j*pi*nu0*n*T/mu) * s(t - tau0 - n*lam*T)`` where the pulse ``s`` is
    selected by ``pulse``:

    - ``"impulse"``: value-1 single-sample rectangle (grid-aligned ``tau0``)
    - ``"rect"``: width-``lam*T`` unit rectangle, genuinely translated
      (grid-aligned ``tau0``)
    - ``"multitone"``: sum of ``tones`` complex exponentials spaced
      ``1/(lam*T)`` — a pulse rectangular in frequency rather than in time.
      Being block-periodic, its translate acts on the phase content inside
      fixed ``lam*T`` windows (the block window never moves, matching the
      digital transmit chain), so any in-cell ``tau0`` is renderable.

    Pulses wrap circularly at the frame edge.
    """
    _check_cell(tau0, nu0, p)
    if n_count < 1:
        raise ValueError("n_count must be at least 1")
    samples = np.zeros(p.frame_len, dtype=complex)
    amp = np.sqrt(p.lam * p.T) / (p.lam * p.mu)
    if pulse == "multitone":
        if tones is None or tones < 1:
            raise ValueError("multitone pulse needs a positive tone count")
        t_block = np.arange(p.block_len) * p.step
        m = np.arange(tones)
        shape = np.exp(2j * np.pi * np.outer(t_block - tau0, m) / (p.lam * p.T)).sum(axis=1)
        start = 0
    elif pulse == "impulse":
        shape = np.ones(1, dtype=complex)  # value-1 single-sample rectangle
        start = _aligned_index(tau0, p.step, "tau0")
    elif pulse == "rect":
        shape = np.ones(p.block_len, dtype=complex)
        start = _aligned_index(tau0, p.step, "tau0")
    else:
        raise ValueError(f"unknown pulse kind {pulse!r}")
    for n in range(n_count):
        w = amp * np.exp(2j * np.pi * nu0 * n * p.T / p.mu)
        pos = (start + n * p.block_len + np.arange(len(shape))) % p.frame_len
        samples[pos] += w * shape
    return SampledSignal(samples=samples, step=p.step)


def modulation_base(k, l, p, M, N, theta, phi, pulse="multitone"):
    """Modulation base ``chi_(k,l)``: a scaled pulse train on the symbol grid.

    ``chi_(k,l) = 1/sqrt(M*N) * psi`` located at ``tau0 = l*phi*T/M`` and
    ``nu0 = k*theta*delta_f/N`` with ``n_count = round(periods... N/lam)``
    pulse repetitions.  The default multitone pulse spans ``M`` frequency
    slots, which is what makes distinct delay indices orthogonal in the
    ``theta = mu, phi = 1`` limit and non-orthogonal under compression.
    """
    if not (0 <= k < N):
        raise ValueError(f"Doppler index k={k} out of range [0, {N})")
    if not (0 <= l < M):
        raise ValueError(f"delay index l={l} out of range [0, {M})")
    tau0 = l * phi * p.T / M
    nu0 = k * theta * p.delta_f / N
    n_count = max(1, round(N / p.lam))
    tones = M if pulse == "multitone" else None
    psi = pulse_basis(tau0, nu0, p, n_count, pulse=pulse, tones=tones)
    return SampledSignal(samples=psi.samples / np.sqrt(M * N), step=psi.step)
