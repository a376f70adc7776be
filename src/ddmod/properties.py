"""The identities the transform, modem and detector rest on, each written once.

Each ``check_*`` takes its parameters explicitly (a ``ZakParams``, a
``ModemParams``, or the frame shape and compression), draws its random data
from the generator it is given, evaluates both sides of one identity
numerically and returns the worst relative error (0.0 or 1.0 for the exact
combinatorial checks).  The test suite and the acceptance criteria call these
functions with their own parameters, seeds and bounds; :func:`run_all` runs
every entry of :data:`CHECKS` on its default parameter sets, each from a
generator seeded 0, for the ``verify-properties`` command.
"""

from itertools import product

import numpy as np

from . import detect, modem, zak

REL_TOL = 1e-8


def _rel(err, scale):
    return err / max(scale, 1e-300)


def _max_rel(x, ref):
    """``max |x - ref|`` relative to ``max |ref|``."""
    return _rel(np.max(np.abs(x - ref)), np.max(np.abs(ref)))


def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_signal(p, rng):
    """Complex Gaussian frame signal on the sampling grid of ``p``."""
    return _complex_normal(rng, p.frame_len)


def _block_phase(p):
    """Factor picked up by the map when the signal advances one ``lam`` block."""
    return np.exp(2j * np.pi * p.nu_grid / p.mu)


def nu_convolution(va, vb, p):
    """Map of a pointwise product: the scaled periodic convolution along nu."""
    lag = (np.arange(p.periods)[:, None] - np.arange(p.periods)[None, :]) % p.periods
    conv = np.einsum("ajk,ak->aj", va[:, lag], vb)
    return np.sqrt(p.lam) / (p.lam * p.mu) * p.nu_step * conv


def tau_convolution(va, vb, p):
    """Map of a circular convolution: the scaled twisted convolution along tau."""
    lag = np.arange(p.block_len)[:, None] - np.arange(p.block_len)[None, :]
    terms = va[lag % p.block_len]
    terms[lag < 0] *= np.conj(_block_phase(p))
    return np.einsum("ijk,jk->ik", terms, vb) * p.step / np.sqrt(p.lam)


def check_zak_roundtrip(p, rng):
    x = random_signal(p, rng)
    xr = zak.zak_to_time(zak.zak_transform(x, p), p)
    return _max_rel(xr, x)


def check_quasi_periodicity(p, rng):
    """Advancing the signal one block multiplies the map by the block phase."""
    x = random_signal(p, rng)
    v = zak.zak_transform(x, p)
    advanced = np.roll(x.reshape(p.periods, p.block_len), -1, axis=0).reshape(-1)
    vs = zak.zak_transform(advanced, p)
    return _max_rel(vs, v * _block_phase(p)[None, :])


def check_nu_periodicity(p, rng):
    """The defining sum one Doppler period up reproduces the grid values.

    The identity is exact, so the error is taken entry by entry.
    """
    x = random_signal(p, rng)
    v = zak.zak_transform(x, p)
    nu_up = p.nu_grid + p.mu
    kernel = np.exp(-2j * np.pi * np.outer(np.arange(p.periods), nu_up) / p.mu)
    direct = np.sqrt(p.lam) * (x.reshape(p.periods, p.block_len).T @ kernel)
    return float(np.max(np.abs(direct - v) / np.abs(v)))


def check_shift_invariance(p, rng):
    """A grid delay/Doppler shift moves the map and phases it.

    The shift, in delay steps and Doppler bins of the frame resolution, is
    drawn from ``rng`` after the signal.
    """
    x = random_signal(p, rng)
    delay, bins = int(rng.integers(0, p.block_len)), int(rng.integers(0, p.frame_len))
    tau0 = delay * p.step
    nu0 = bins / (p.periods * p.lam)
    v = zak.zak_transform(x, p)
    vr = zak.zak_transform(zak.dd_shift(x, tau0, nu0, p), p)
    b_shift = int(round(p.lam * p.mu * nu0 / p.nu_step))
    cols = (np.arange(p.periods) - b_shift) % p.periods
    d = np.arange(p.block_len) - delay
    pred = v[d % p.block_len][:, cols]
    pred[d < 0] *= np.conj(_block_phase(p))[cols]
    pred *= np.exp(2j * np.pi * nu0 * d * p.step)[:, None]
    return _max_rel(pred, vr)


def check_multiplication(p, rng):
    a, b = random_signal(p, rng), random_signal(p, rng)
    va = zak.zak_transform(a, p)
    vb = zak.zak_transform(b, p)
    vc = zak.zak_transform(a * b, p)
    return _max_rel(nu_convolution(va, vb, p), vc)


def check_convolution(p, rng):
    a, b = random_signal(p, rng), random_signal(p, rng)
    c = p.step * np.fft.ifft(np.fft.fft(a) * np.fft.fft(b))
    va = zak.zak_transform(a, p)
    vb = zak.zak_transform(b, p)
    vc = zak.zak_transform(c, p)
    return _max_rel(tau_convolution(va, vb, p), vc)


def check_fourier_inversion(p, rng):
    """``zak_to_spectrum`` against the direct DFT at a random grid frequency."""
    x = random_signal(p, rng)
    f = int(rng.integers(0, p.frame_len)) / (p.periods * p.lam)
    t = np.arange(p.frame_len) * p.step
    direct = p.step * np.sum(x * np.exp(-2j * np.pi * f * t))
    via_map = zak.zak_to_spectrum(zak.zak_transform(x, p), p, f)
    return _rel(abs(via_map - direct), abs(direct))


def check_completeness(p, rng):
    x = random_signal(p, rng)
    recon = np.zeros(p.frame_len, dtype=complex)
    for a in range(p.block_len):
        for b in range(p.periods):
            psi = zak.pulse_basis(p.tau_grid[a], p.nu_grid[b], p)
            # the lam*mu reweighting inverts the coefficient normalization
            recon += np.vdot(psi, x) * psi * p.nu_step * p.lam * p.mu
    return _max_rel(recon, x)


def check_modem_bridge(params, rng):
    """``wigner_rect(modulate(S)) == A S B+`` for a random frame."""
    s = _complex_normal(rng, (params.n, params.m))
    lhs = modem.wigner_rect(modem.modulate(s, params), params)
    a = modem.build_doppler_matrix(params.alpha, params.n)
    b = modem.build_delay_matrix(params.beta, params.m)
    return _max_rel(a @ s @ b.conj().T, lhs)


def _model(n, m, alpha, beta, y):
    a = modem.build_doppler_matrix(alpha, n)
    b = modem.build_delay_matrix(beta, m)
    return detect.build_effective_model(a, b, y)


def check_objective_decomposition(n, m, alpha, beta, rng):
    """The partial metrics of all cells sum to the total objective."""
    model = _model(n, m, alpha, beta, _complex_normal(rng, (n, m)))
    s = _complex_normal(rng, (n, m))
    total = detect.total_objective(model, s)
    parts = sum(detect.partial_metric(model, s, r, c) for r in range(n) for c in range(m))
    return _rel(abs(total - parts), abs(total))


def check_schedule_soundness(n, m):
    """The wavefront visits every cell once, each after its whole quadrant."""
    order = detect.wavefront_schedule(n, m)
    if len(order) != n * m or len(set(order)) != n * m:
        return 1.0
    seen = set()
    for r, c in order:
        quad = {(i, j) for i in range(r, n) for j in range(c, m)} - {(r, c)}
        if not quad <= seen:
            return 1.0
        seen.add((r, c))
    return 0.0


def check_counter_conformance(n, m, alpha, beta):
    """A single-candidate sweep counts exactly the predicted operations."""
    model = _model(n, m, alpha, beta, np.ones((n, m), dtype=complex))
    _, _, counter = detect.sd2d_decode(model, k_list=1)
    want = detect.predicted_complexity(m, n)
    return max(
        _rel(abs(int(counter.mults.sum()) - want.mults), want.mults),
        _rel(abs(int(counter.adds.sum()) - want.adds), want.adds),
    )


def check_ml_equivalence(n, m, alpha, beta, rng):
    """An exhaustive-width sphere decode reaches the brute-force minimum.

    Checked on 20 random QPSK frames with noise of standard deviation 0.3
    per real axis.
    """
    a = modem.build_doppler_matrix(alpha, n)
    b = modem.build_delay_matrix(beta, m)
    hypotheses = [np.array(pts).reshape(n, m) for pts in product(modem.POINTS, repeat=n * m)]
    worst = 0.0
    for _ in range(20):
        s = modem.POINTS[rng.integers(0, 4, size=(n, m))]
        y = a @ s @ b.conj().T + 0.3 * _complex_normal(rng, (n, m))
        model = detect.build_effective_model(a, b, y)
        s_hat, _, _ = detect.sd2d_decode(model, k_list=len(hypotheses))
        best = min(detect.total_objective(model, f) for f in hypotheses)
        worst = max(worst, _rel(detect.total_objective(model, s_hat) - best, best))
    return worst


def _each(check, cases):
    """``rng -> worst error of check over cases``, the cases sharing ``rng``."""
    return lambda rng: max(check(*case, rng) for case in cases)


def _zak_cases(lam_mu, samples_per_T=8, periods=6):
    return [
        (zak.ZakParams(lam=lam, mu=mu, samples_per_T=samples_per_T, periods=periods),)
        for lam, mu in lam_mu
    ]


_ZAK_SETS = [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0)]

# (name, rng -> worst relative error) on the default parameter sets
CHECKS = [
    ("zak round trip (time inversion)", _each(check_zak_roundtrip, _zak_cases(_ZAK_SETS))),
    ("zak quasi-periodicity",
     _each(check_quasi_periodicity, _zak_cases([(1.0, 1.0), (2.0, 1.0)]))),
    ("zak nu-periodicity", _each(check_nu_periodicity, _zak_cases(_ZAK_SETS))),
    ("zak delay/Doppler shift invariance",
     _each(check_shift_invariance, _zak_cases(_ZAK_SETS))),
    ("zak multiplication image", _each(check_multiplication, _zak_cases([(1.0, 1.0)]))),
    ("zak convolution image", _each(check_convolution, _zak_cases([(1.0, 1.0)]))),
    ("zak Fourier inversion", _each(check_fourier_inversion, _zak_cases(_ZAK_SETS))),
    ("zak basis completeness",
     _each(check_completeness, _zak_cases([(1.0, 1.0)], samples_per_T=4, periods=4))),
    ("modem effective-model bridge", _each(check_modem_bridge, [
        (modem.ModemParams(m=4, n=4, alpha=alpha, beta=beta),)
        for alpha, beta in [(1.0, 1.0), (0.8, 0.9), (0.675, 0.675)]
    ])),
    ("objective decomposition", _each(check_objective_decomposition, [(5, 3, 0.8, 0.7)])),
    ("wavefront schedule soundness", lambda _rng: max(
        check_schedule_soundness(n, m) for n, m in product(range(1, 7), repeat=2)
    )),
    ("operation-counter conformance", lambda _rng: max(
        check_counter_conformance(n, m, 0.9, 0.9) for n, m in [(2, 2), (4, 4), (8, 4), (4, 8)]
    )),
    ("small-frame ML equivalence", _each(check_ml_equivalence, [(2, 2, 0.775, 0.775)])),
]


def run_all():
    """Run every check; returns a list of (name, passed, worst_rel_error)."""
    results = []
    for name, fn in CHECKS:
        worst = fn(np.random.default_rng(0))
        results.append((name, worst <= REL_TOL, worst))
    return results
