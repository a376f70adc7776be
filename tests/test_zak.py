"""Tests for the delay-Doppler transform and basis constructions."""

import re

import numpy as np
import pytest

from ddmod import modem, properties, zak
from ddmod.properties import random_signal
from oracles import dirichlet_sq

PARAM_SETS = [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0)]


def make_params(lam=1.0, mu=1.0, samples_per_T=8, periods=6):
    return zak.ZakParams(lam=lam, mu=mu, samples_per_T=samples_per_T, periods=periods)


def forward_oracle(x, p):
    """Direct triple-loop evaluation of the transform definition."""
    out = np.zeros((p.block_len, p.periods), dtype=complex)
    for a in range(p.block_len):
        for b in range(p.periods):
            acc = 0.0 + 0.0j
            for n in range(p.periods):
                acc += x[a + n * p.block_len] * np.exp(
                    -2j * np.pi * n * p.nu_grid[b] / p.mu
                )
            out[a, b] = np.sqrt(p.lam) * acc
    return out


class TestParams:
    def test_grid_alignment_enforced(self):
        with pytest.raises(zak.GridAlignmentError):
            zak.ZakParams(lam=0.3, samples_per_T=8)

    @pytest.mark.parametrize("field,value", [
        ("lam", np.inf), ("lam", np.nan), ("lam", -1.0), ("mu", np.inf), ("mu", np.nan),
        ("mu", 0.0), ("mu", -2.0),
    ])
    def test_rejects_nonfinite_or_nonpositive_fields(self, field, value):
        with pytest.raises(ValueError, match="lam and mu must be finite and positive"):
            zak.ZakParams(**{field: value})

    def test_refusal_shows_a_string_factor_as_a_string(self):
        message = "lam and mu must be finite and positive, got lam='0.5', mu=1.0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            zak.ZakParams(lam="0.5")

    @pytest.mark.parametrize("field", ["lam", "mu"])
    @pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["10**400", "-10**400"])
    def test_rejects_an_int_past_the_float_range(self, field, value):
        # refused by name, not with an OverflowError from the finiteness check
        with pytest.raises(ValueError, match=f"{field}={value}"):
            zak.ZakParams(**{field: value})

    def test_rejects_a_block_shorter_than_one_sample(self):
        with pytest.raises(zak.GridAlignmentError, match="positive multiple"):
            zak.ZakParams(lam=1e-12, samples_per_T=8)

    @pytest.mark.parametrize("fields", [{"lam": 1e308}, {"samples_per_T": 10**400}],
                             ids=["lam", "samples_per_T"])
    def test_rejects_a_block_length_past_the_float_range(self, fields):
        with pytest.raises(zak.GridAlignmentError, match=r"lam\*samples_per_T=inf"):
            zak.ZakParams(**fields)

    def test_grids(self):
        p = make_params(lam=2.0, mu=1.0, samples_per_T=4, periods=3)
        assert p.block_len == 8
        assert p.frame_len == 24
        assert len(p.tau_grid) == 8 and len(p.nu_grid) == 3
        assert p.tau_grid[-1] < p.lam
        assert p.nu_grid[-1] < p.mu


NONFINITE = [complex(np.inf, 0), complex(0, np.inf), complex(0, np.nan)]


@pytest.mark.parametrize("bad", NONFINITE)
class TestFiniteValues:
    def test_transform_rejects_nonfinite_samples(self, bad):
        p = make_params()
        x = np.zeros(p.frame_len, dtype=complex)
        x[1] = bad
        with pytest.raises(ValueError, match="samples must be finite"):
            zak.zak_transform(x, p)
        with pytest.raises(ValueError, match="samples must be finite"):
            zak.dd_shift(x, 0.0, 0.0, p)

    def test_inversion_rejects_nonfinite_map_values(self, bad):
        p = make_params()
        m = np.zeros((p.block_len, p.periods), dtype=complex)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="map values must be finite"):
            zak.zak_to_time(m, p)
        with pytest.raises(ValueError, match="map values must be finite"):
            zak.zak_to_spectrum(m, p, 0.0)

    @pytest.mark.parametrize("negate", [False, True], ids=["plus", "minus"])
    def test_positions_must_be_finite(self, bad, negate):
        # inf, inf and nan, each with both signs: one ValueError each, not an
        # OverflowError or an all-NaN signal
        p = make_params()
        m = np.zeros((p.block_len, p.periods), dtype=complex)
        x = np.ones(p.frame_len, dtype=complex)
        value = -abs(bad) if negate else abs(bad)
        with pytest.raises(zak.GridAlignmentError, match="is not a finite multiple"):
            zak.zak_to_spectrum(m, p, value)
        with pytest.raises(zak.GridAlignmentError, match="is not a finite multiple"):
            zak.dd_shift(x, value, 0.0, p)
        with pytest.raises(ValueError, match="nu0=.* must be finite"):
            zak.dd_shift(x, 0.0, value, p)


class TestForward:
    def test_unit_impulse(self):
        p = make_params(lam=2.0)
        x = np.zeros(p.frame_len, dtype=complex)
        x[0] = 1.0
        m = zak.zak_transform(x, p)
        assert np.allclose(m[0, :], np.sqrt(p.lam))
        assert np.allclose(m[1:, :], 0.0)

    @pytest.mark.parametrize("lam,mu", PARAM_SETS)
    def test_matches_direct_summation_oracle(self, lam, mu):
        p = make_params(lam=lam, mu=mu, samples_per_T=4, periods=5)
        x = random_signal(p, np.random.default_rng(10))
        m = zak.zak_transform(x, p)
        assert np.allclose(m, forward_oracle(x, p), rtol=1e-12, atol=1e-12)

    def test_on_grid_exponential_concentrates(self):
        p = make_params()
        b0 = 2
        nu0 = p.nu_grid[b0]
        t = np.arange(p.frame_len) * p.step
        m = zak.zak_transform(np.exp(2j * np.pi * nu0 * t), p)
        power = np.abs(m) ** 2
        off = power.copy()
        off[:, b0] = 0.0
        assert np.max(off) < 1e-20 * np.max(power)

    def test_truncated_exponential_sidelobes_follow_dirichlet(self):
        # windowing the exponential to q blocks spreads its Doppler row into
        # the squared Dirichlet profile
        p = make_params(periods=8)
        b0, q = 3, 5
        nu0 = p.nu_grid[b0]
        t = np.arange(p.frame_len) * p.step
        x = np.exp(2j * np.pi * nu0 * t)
        x[q * p.block_len:] = 0.0
        m = zak.zak_transform(x, p)
        profile = np.abs(m[0, :]) ** 2
        expect = p.lam * dirichlet_sq((p.nu_grid - nu0) / p.mu, q)
        assert np.allclose(profile, expect, rtol=1e-10, atol=1e-12)

    def test_rejects_misaligned_signal(self):
        p = make_params()
        for x in [np.zeros(p.frame_len - 1), np.zeros((p.periods, p.block_len))]:
            with pytest.raises(zak.GridAlignmentError):
                zak.zak_transform(x, p)


class TestInversion:
    @pytest.mark.parametrize("lam,mu", PARAM_SETS)
    def test_roundtrip(self, lam, mu):
        p = make_params(lam=lam, mu=mu)
        assert properties.check_zak_roundtrip(p, np.random.default_rng(11)) < 1e-10

    def test_impulse_recovered(self):
        p = make_params()
        x = np.zeros(p.frame_len, dtype=complex)
        x[0] = 1.0
        xr = zak.zak_to_time(zak.zak_transform(x, p), p)
        assert np.allclose(xr, x, atol=1e-14)

    def test_zero_map(self):
        p = make_params()
        m = np.zeros((p.block_len, p.periods))
        assert np.all(zak.zak_to_time(m, p) == 0)

    def test_wrong_shape_rejected(self):
        p = make_params()
        for shape in [(2, p.periods), (p.block_len, 5), (p.periods, p.block_len), (48,),
                      (0, p.periods)]:
            m = np.zeros(shape)
            with pytest.raises(ValueError, match="does not match the grid"):
                zak.zak_to_time(m, p)
            with pytest.raises(ValueError, match="does not match the grid"):
                zak.zak_to_spectrum(m, p, 0.0)


class TestSpectrum:
    def freqs(self, p):
        return np.arange(p.frame_len) / (p.periods * p.lam)

    def dft_oracle(self, x, p, f):
        t = np.arange(p.frame_len) * p.step
        return p.step * np.sum(x * np.exp(-2j * np.pi * f * t))

    def test_impulse_has_flat_spectrum(self):
        p = make_params()
        x = np.zeros(p.frame_len, dtype=complex)
        x[0] = 1.0
        m = zak.zak_transform(x, p)
        mags = [abs(zak.zak_to_spectrum(m, p, f)) for f in self.freqs(p)[:10]]
        assert np.allclose(mags, mags[0], rtol=1e-10)

    @pytest.mark.parametrize("lam,mu", PARAM_SETS)
    def test_matches_direct_dft_oracle(self, lam, mu):
        rng = np.random.default_rng(12)
        p = make_params(lam=lam, mu=mu, samples_per_T=4, periods=5)
        x = random_signal(p, rng)
        m = zak.zak_transform(x, p)
        for f in self.freqs(p)[:: p.periods]:
            assert zak.zak_to_spectrum(m, p, f) == pytest.approx(
                self.dft_oracle(x, p, f), rel=1e-10, abs=1e-12
            )

    def test_truncated_exponential_peak_and_sidelobes(self):
        p = make_params(periods=8)
        q = 5
        f0 = self.freqs(p)[p.periods * 2]  # on the frequency grid
        t = np.arange(p.frame_len) * p.step
        x = np.exp(2j * np.pi * f0 * t)
        x[q * p.block_len:] = 0.0
        m = zak.zak_transform(x, p)
        # spectrum magnitudes around the peak follow the Dirichlet kernel
        for df_blocks in range(-3, 4):
            f = f0 + df_blocks / (p.periods * p.lam)
            got = abs(zak.zak_to_spectrum(m, p, f)) ** 2
            expect = abs(self.dft_oracle(x, p, f)) ** 2
            assert got == pytest.approx(expect, rel=1e-9, abs=1e-15)
            dirich = p.step**2 * dirichlet_sq(
                df_blocks / (p.periods * p.block_len), q * p.block_len
            )
            assert got == pytest.approx(dirich, rel=1e-9, abs=1e-15)

    def test_linearity(self):
        rng = np.random.default_rng(13)
        p = make_params()
        x1, x2 = random_signal(p, rng), random_signal(p, rng)
        f = 3.0 / (p.periods * p.lam)
        lhs = zak.zak_to_spectrum(zak.zak_transform(x1 + x2, p), p, f)
        rhs = zak.zak_to_spectrum(zak.zak_transform(x1, p), p, f) + zak.zak_to_spectrum(
            zak.zak_transform(x2, p), p, f
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_off_grid_frequency_rejected(self):
        p = make_params()
        m = zak.zak_transform(random_signal(p, np.random.default_rng(0)), p)
        with pytest.raises(zak.GridAlignmentError):
            zak.zak_to_spectrum(m, p, 0.123456)


class TestDDShift:
    def test_zero_shift_is_identity(self):
        p = make_params()
        x = random_signal(p, np.random.default_rng(14))
        assert np.array_equal(zak.dd_shift(x, 0.0, 0.0, p), x)

    def test_one_step_delay_is_circular_shift(self):
        p = make_params()
        x = random_signal(p, np.random.default_rng(15))
        assert np.allclose(zak.dd_shift(x, p.step, 0.0, p), np.roll(x, 1))

    def test_misaligned_delay_rejected(self):
        p = make_params()
        x = random_signal(p, np.random.default_rng(16))
        with pytest.raises(zak.GridAlignmentError):
            zak.dd_shift(x, 0.3 * p.step, 0.0, p)

    @pytest.mark.parametrize("lam,mu", PARAM_SETS)
    def test_shift_invariance_identity(self, lam, mu):
        # transform of the delayed/Doppler-shifted signal against the
        # shifted-and-phased transform of the original, both numeric; the
        # shift is drawn after the signal: at seed 17, 6 delay steps and 20
        # Doppler bins (55 at lam = 2), not a multiple of the 6 periods
        p = make_params(lam=lam, mu=mu)
        err = properties.check_shift_invariance(p, np.random.default_rng(17))
        assert err < 1e-10


class TestImpulseBasis:
    """The delta-train basis element ``pulse_basis``."""

    def test_zero_doppler_weights_equal(self):
        p = make_params(lam=2.0, mu=1.0)
        psi = zak.pulse_basis(3 * p.step, 0.0, p)
        atoms = np.flatnonzero(psi)
        expect = np.sqrt(p.lam) / (p.lam * p.mu)
        assert np.allclose(psi[atoms], expect)
        assert atoms[0] == 3 and len(atoms) == p.periods
        assert np.allclose(np.diff(atoms) * p.step, p.lam)

    def test_half_cell_doppler_alternates_sign(self):
        p = make_params(lam=1.0, mu=1.0)
        weights = zak.pulse_basis(0.0, p.mu / 2, p)[:: p.block_len]
        signs = weights / weights[0]
        assert np.allclose(signs, [(-1.0) ** n for n in range(p.periods)])

    def test_out_of_cell_or_off_grid_rejected(self):
        p = make_params()
        with pytest.raises(ValueError):
            zak.pulse_basis(p.lam * 1.5, 0.0, p)
        with pytest.raises(ValueError):
            zak.pulse_basis(0.0, p.mu * 1.1, p)
        with pytest.raises(zak.GridAlignmentError):
            zak.pulse_basis(0.3 * p.step, 0.0, p)

    @pytest.mark.parametrize("lam,mu", PARAM_SETS)
    def test_projection_equals_scaled_transform(self, lam, mu):
        # coefficient from the inner product against the transform value,
        # computed through independent paths
        p = make_params(lam=lam, mu=mu)
        x = random_signal(p, np.random.default_rng(18))
        m = zak.zak_transform(x, p)
        for a, b in [(0, 0), (2, 1), (5, 3)]:
            coef = np.vdot(zak.pulse_basis(p.tau_grid[a], p.nu_grid[b], p), x)
            expect = m[a, b] / (p.lam * p.mu)
            assert coef == pytest.approx(expect, rel=1e-10)


class TestProjection:
    def test_self_projection_and_cross_vanishing(self):
        p = make_params(samples_per_T=4, periods=4)
        tau0, nu0 = p.tau_grid[1], p.nu_grid[2]
        basis = zak.pulse_basis(tau0, nu0, p)
        self_coef = np.vdot(basis, basis)
        # periods atoms of magnitude sqrt(lam)/(lam*mu)
        expect = p.periods / (p.lam * p.mu**2)
        assert self_coef == pytest.approx(expect, rel=1e-12)
        for a, b in [(0, 0), (2, 2), (1, 3)]:
            cross = np.vdot(zak.pulse_basis(p.tau_grid[a], p.nu_grid[b], p), basis)
            assert abs(cross) < 1e-10 * abs(self_coef)

    def test_linearity(self):
        rng = np.random.default_rng(19)
        p = make_params()
        x1, x2 = random_signal(p, rng), random_signal(p, rng)
        psi = zak.pulse_basis(p.tau_grid[2], p.nu_grid[1], p)
        lhs = np.vdot(psi, 2 * x1 + x2)
        rhs = 2 * np.vdot(psi, x1) + np.vdot(psi, x2)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert np.vdot(zak.pulse_basis(0.0, 0.0, p), np.zeros(p.frame_len)) == 0.0


class TestPulseBasis:
    def test_concentration_matches_dirichlet_product(self):
        # fixture: value-1 single-sample pulse, Doppler profile compared at
        # the pulse's delay column against the closed form with one
        # frequency term
        p = make_params(samples_per_T=8, periods=8)
        a0, b0 = 3, 2
        tau0, nu0 = p.tau_grid[a0], p.nu_grid[b0]
        psi = zak.pulse_basis(tau0, nu0, p)
        m = zak.zak_transform(psi, p)
        got = np.abs(m[a0, :]) ** 2
        expect = (
            1.0
            / (p.lam * p.mu) ** 2
            * dirichlet_sq((p.nu_grid - nu0) / p.mu, p.periods)
        )
        peak_scale = np.max(expect)
        at_peaks = expect > 1e-2 * peak_scale
        assert np.allclose(got[at_peaks], expect[at_peaks], rtol=1e-8)
        assert np.allclose(got[~at_peaks], expect[~at_peaks], atol=1e-8 * peak_scale)
        # off-column values vanish for the single-sample pulse
        off = np.delete(np.abs(m) ** 2, a0, axis=0)
        assert np.max(off) < 1e-20 * peak_scale


class TestModulationBase:
    def orthogonal_params(self, M, N):
        # dense delay grid so every l/M lands on a sample
        return zak.ZakParams(lam=1.0, mu=1.0, samples_per_T=4 * M, periods=N)

    def test_origin_base_is_scaled_pulse_train(self):
        M = N = 4
        p = self.orthogonal_params(M, N)
        chi = zak.modulation_base(0, 0, p, M, N, theta=1.0, phi=1.0)
        # the closed form at tau0 = nu0 = 0: N unit-weight copies of the sum
        # of M tones spaced 1/lam; the tones are block-periodic, so the
        # frame's own time axis renders every copy
        t = np.arange(p.frame_len) * p.step
        tones = np.exp(2j * np.pi * np.outer(t, np.arange(M)) / p.lam).sum(axis=1)
        psi = np.sqrt(p.lam) / (p.lam * p.mu) * tones
        assert np.allclose(chi, psi / np.sqrt(M * N))

    def test_orthogonal_limit(self):
        M = N = 4
        p = self.orthogonal_params(M, N)
        pairs = [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((2, 1), (1, 3)), ((3, 2), (3, 1))]
        for (k1, l1), (k2, l2) in pairs:
            c1 = zak.modulation_base(k1, l1, p, M, N, theta=1.0, phi=1.0)
            c2 = zak.modulation_base(k2, l2, p, M, N, theta=1.0, phi=1.0)
            norm = abs(np.vdot(c1, c1))
            assert abs(np.vdot(c1, c2)) <= 1e-10 * norm

    def test_compressed_bases_overlap(self):
        M = N = 4
        p = self.orthogonal_params(M, N)
        beta = 0.75  # aligned: l*0.75/4 is a multiple of 1/16
        c1 = zak.modulation_base(0, 1, p, M, N, theta=1.0, phi=beta)
        c2 = zak.modulation_base(0, 2, p, M, N, theta=1.0, phi=beta)
        norm = abs(np.vdot(c1, c1))
        assert abs(np.vdot(c1, c2)) > 1e-3 * norm

    @pytest.mark.parametrize("N,M,alpha,beta", [
        (4, 4, 1.0, 1.0), (4, 4, 0.8, 0.75), (4, 3, 0.9, 0.85), (2, 4, 0.675, 0.675),
    ])
    def test_modulated_signal_is_a_combination_of_bases(self, N, M, alpha, beta):
        # the paper's modulated signal is the frame's linear combination of
        # the modulation bases; on the grid lam = mu = 1 with M samples per T
        # and N periods, the modem's waveform is that combination over sqrt(M)
        p = zak.ZakParams(lam=1, mu=1, samples_per_T=M, periods=N)
        rng = np.random.default_rng(40)
        s = rng.normal(size=(N, M)) + 1j * rng.normal(size=(N, M))
        x = modem.modulate(s, modem.ModemParams(m=M, n=N, alpha=alpha, beta=beta))
        bases = sum(
            s[k, l] * zak.modulation_base(k, l, p, M, N, theta=alpha, phi=beta)
            for k in range(N) for l in range(M)
        )
        assert np.max(np.abs(x - bases / np.sqrt(M))) <= 1e-12 * np.max(np.abs(x))

    def test_index_range_checked(self):
        p = self.orthogonal_params(4, 4)
        with pytest.raises(ValueError):
            zak.modulation_base(4, 0, p, 4, 4, theta=1.0, phi=1.0)
        with pytest.raises(ValueError):
            zak.modulation_base(0, -1, p, 4, 4, theta=1.0, phi=1.0)


class TestTransformProperties:
    @pytest.mark.parametrize("lam,mu", PARAM_SETS)
    def test_quasi_periodicity(self, lam, mu):
        p = make_params(lam=lam, mu=mu)
        assert properties.check_quasi_periodicity(p, np.random.default_rng(20)) < 1e-10

    def test_nu_periodicity_exact_on_grid(self):
        # the phase factors have period mu in nu by construction:
        # evaluating the defining sum one period up reproduces every grid
        # entry to 1e-12 of its own magnitude
        p = make_params(mu=2.0)
        assert properties.check_nu_periodicity(p, np.random.default_rng(21)) <= 1e-12

    @pytest.mark.parametrize("lam,mu", PARAM_SETS)
    def test_multiplication_property_and_symmetry(self, lam, mu):
        p = make_params(lam=lam, mu=mu)
        assert properties.check_multiplication(p, np.random.default_rng(22)) < 1e-8
        rng = np.random.default_rng(22)
        a_sig, b_sig = random_signal(p, rng), random_signal(p, rng)
        va = zak.zak_transform(a_sig, p)
        vb = zak.zak_transform(b_sig, p)
        vc = zak.zak_transform(a_sig * b_sig, p)
        swapped = properties.nu_convolution(va, vb, p) - properties.nu_convolution(vb, va, p)
        assert np.max(np.abs(swapped)) < 1e-10 * np.max(np.abs(vc))

    @pytest.mark.parametrize("lam,mu", PARAM_SETS)
    def test_convolution_property_and_symmetry(self, lam, mu):
        p = make_params(lam=lam, mu=mu)
        assert properties.check_convolution(p, np.random.default_rng(23)) < 1e-8
        rng = np.random.default_rng(23)
        a_sig, b_sig = random_signal(p, rng), random_signal(p, rng)
        c = p.step * np.fft.ifft(np.fft.fft(a_sig) * np.fft.fft(b_sig))
        va = zak.zak_transform(a_sig, p)
        vb = zak.zak_transform(b_sig, p)
        vc = zak.zak_transform(c, p)
        swapped = properties.tau_convolution(va, vb, p) - properties.tau_convolution(vb, va, p)
        assert np.max(np.abs(swapped)) < 1e-10 * np.max(np.abs(vc))

    @pytest.mark.parametrize("lam,mu", PARAM_SETS)
    def test_basis_completeness(self, lam, mu):
        p = make_params(lam=lam, mu=mu, samples_per_T=4, periods=4)
        assert properties.check_completeness(p, np.random.default_rng(24)) < 1e-8
