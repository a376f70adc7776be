"""Tests for the shared linear-algebra helpers and the count and real-number rules."""

import numpy as np
import pytest

from ddmod import detect, harness, modem, numerics, zak
from oracles import dirichlet_sq


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestQRDecompose:
    def test_identity(self):
        q, r = numerics.qr_decompose(np.eye(4, dtype=complex))
        assert np.allclose(q, np.eye(4))
        assert np.allclose(r, np.eye(4))

    def test_permutation_gets_nonnegative_diagonal(self):
        a = np.array([[0, 1], [1, 0]], dtype=complex)
        q, r = numerics.qr_decompose(a)
        # Q is a signed permutation and R diagonal (1, 1) under the convention
        assert np.allclose(np.abs(q), np.array([[0, 1], [1, 0]]))
        assert np.allclose(np.diag(r), [1.0, 1.0])
        assert np.allclose(r, np.diag(np.diag(r)))

    def test_roundtrip_seed0(self):
        rng = np.random.default_rng(0)
        a = random_complex(rng, (8, 8))
        q, r = numerics.qr_decompose(a)
        assert np.linalg.norm(a - q @ r) / np.linalg.norm(a) < 1e-12

    def test_q_unitary_and_r_upper(self):
        rng = np.random.default_rng(1)
        a = random_complex(rng, (6, 6))
        q, r = numerics.qr_decompose(a)
        n = a.shape[0]
        assert np.linalg.norm(q.conj().T @ q - np.eye(n)) <= 1e-10 * n
        assert np.allclose(r, np.triu(r))
        diag = np.diag(r)
        assert np.all(diag.imag == 0) and np.all(diag.real >= 0)

    def test_deterministic_factors(self):
        rng = np.random.default_rng(2)
        a = random_complex(rng, (5, 5))
        q1, r1 = numerics.qr_decompose(a)
        q2, r2 = numerics.qr_decompose(a.copy())
        assert np.array_equal(q1, q2) and np.array_equal(r1, r2)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            numerics.qr_decompose(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        a = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            numerics.qr_decompose(a)

    @pytest.mark.parametrize("bad", [complex(0, np.inf), complex(0, np.nan)])
    def test_rejects_nonfinite_imaginary_parts(self, bad):
        with pytest.raises(ValueError, match="finite"):
            numerics.as_matrix([[1.0, bad]])

    def test_norm_identities(self):
        rng = np.random.default_rng(3)
        a = random_complex(rng, (7, 7))
        q, r = numerics.qr_decompose(a)
        assert np.sum(np.abs(a) ** 2) == pytest.approx(np.sum(np.abs(q @ r) ** 2), rel=1e-10)
        x = random_complex(rng, (7,))
        assert np.linalg.norm(q @ x) == pytest.approx(np.linalg.norm(x), rel=1e-10)


class TestDirichletSq:
    def test_removable_singularity(self):
        assert dirichlet_sq(0.0, 5) == 25.0
        assert dirichlet_sq(1.0, 5) == 25.0
        assert dirichlet_sq(-3.0, 4) == 16.0

    def test_half_mainlobe_point(self):
        k = 4
        expect = 1.0 / np.sin(np.pi / 8) ** 2
        assert dirichlet_sq(1.0 / (2 * k), k) == pytest.approx(expect, rel=1e-12)

    def test_matches_geometric_sum_oracle(self):
        # |sum_{n=0}^{K-1} exp(2j pi n x)|^2 evaluated directly
        x, k = 0.3, 7
        oracle = abs(np.sum(np.exp(2j * np.pi * np.arange(k) * x))) ** 2
        assert dirichlet_sq(x, k) == pytest.approx(oracle, rel=1e-12)

    def test_even_and_periodic(self):
        rng = np.random.default_rng(4)
        for x in rng.uniform(-2, 2, size=20):
            v = dirichlet_sq(x, 6)
            assert dirichlet_sq(-x, 6) == pytest.approx(v, rel=1e-9)
            assert dirichlet_sq(x + 1.0, 6) == pytest.approx(v, rel=1e-9)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            dirichlet_sq(0.1, 0)

    def test_vector_argument(self):
        out = dirichlet_sq(np.array([0.0, 0.25]), 2)
        assert out.shape == (2,)
        assert out[0] == 4.0


def small_model():
    a, b = modem.build_doppler_matrix(0.8, 2), modem.build_delay_matrix(0.8, 2)
    return detect.build_effective_model(a, b, np.ones((2, 2), dtype=complex))


def small_config(**fields):
    base = dict(m=2, n=2, alpha=0.9, beta=0.9, decoder="matched",
                ebn0_db_points=(4.0,), max_frames=1)
    return harness.SweepConfig(**{**base, **fields})


# caller -> (the name its message gives, the least count, a call taking the count)
COUNT_CALLERS = {
    "ZakParams.samples_per_T": ("samples_per_T", 1, lambda v: zak.ZakParams(samples_per_T=v)),
    "ZakParams.periods": ("periods", 1, lambda v: zak.ZakParams(periods=v)),
    "ModemParams.m": ("m", 1, lambda v: modem.ModemParams(m=v, n=2)),
    "ModemParams.n": ("n", 1, lambda v: modem.ModemParams(m=2, n=v)),
    "build_doppler_matrix": ("size", 1, lambda v: modem.build_doppler_matrix(0.8, v)),
    "build_delay_matrix": ("size", 1, lambda v: modem.build_delay_matrix(0.8, v)),
    "map_bits.n_rows": ("n_rows", 1, lambda v: modem.map_bits(np.zeros(12), modem.qpsk(), v, 2)),
    "map_bits.m_cols": ("m_cols", 1, lambda v: modem.map_bits(np.zeros(12), modem.qpsk(), 2, v)),
    "wavefront_schedule.n_rows": ("n_rows", 1, lambda v: detect.wavefront_schedule(v, 2)),
    "wavefront_schedule.m_cols": ("m_cols", 1, lambda v: detect.wavefront_schedule(2, v)),
    "sd2d_decode": ("k_list", 1, lambda v: detect.sd2d_decode(small_model(), modem.qpsk(), v)),
    "im_soft_decode": ("iterations", 1,
                       lambda v: detect.im_soft_decode(small_model(), 0.5, v, modem.qpsk())),
    "predicted_complexity.m": ("m", 1, lambda v: detect.predicted_complexity(v, 2)),
    "predicted_complexity.n": ("n", 1, lambda v: detect.predicted_complexity(2, v)),
    **{f"SweepConfig.{name}": (name, 1, lambda v, name=name: small_config(**{name: v}))
       for name in ("m", "n", "iterations", "k_list", "min_bit_errors", "max_frames")},
    "SweepConfig.master_seed": ("master_seed", 0, lambda v: small_config(master_seed=v)),
    "run_sweep": ("workers", 1, lambda v: harness.run_sweep(small_config(), workers=v)),
}

# caller -> (the message it refuses a factor with, a call taking the factor)
FACTOR_CALLERS = {
    "ModemParams.alpha": ("compression factors", lambda v: modem.ModemParams(2, 2, alpha=v)),
    "ModemParams.beta": ("compression factors", lambda v: modem.ModemParams(2, 2, beta=v)),
    "build_doppler_matrix": ("positive compression factor",
                             lambda v: modem.build_doppler_matrix(v, 2)),
    "build_delay_matrix": ("positive compression factor", lambda v: modem.build_delay_matrix(v, 2)),
    "overloading_factor": ("compression factors", lambda v: modem.overloading_factor(v, 0.5)),
    "ZakParams.lam": ("lam and mu must be", lambda v: zak.ZakParams(lam=v)),
    "ZakParams.mu": ("lam and mu must be", lambda v: zak.ZakParams(mu=v)),
    "SweepConfig.alpha": ("alpha must be a real number", lambda v: small_config(alpha=v)),
    "SweepConfig.beta": ("beta must be a real number", lambda v: small_config(beta=v)),
}


class TestNumberRules:
    @pytest.mark.parametrize("value", [0, -1, 2.5, True, "2"],
                             ids=["0", "-1", "2.5", "True", "str"])
    @pytest.mark.parametrize("caller", COUNT_CALLERS)
    def test_a_count_is_checked_by_the_count_rule(self, caller, value):
        name, least, call = COUNT_CALLERS[caller]
        if value == 0 and least == 0:
            call(value)
            return
        with pytest.raises(ValueError, match=f"^{name} must be an integer of at least {least}, "):
            call(value)

    @pytest.mark.parametrize("caller", COUNT_CALLERS)
    def test_a_numpy_integer_count_is_accepted(self, caller):
        COUNT_CALLERS[caller][2](np.int64(3))

    @pytest.mark.parametrize("value", [True, "0.5"], ids=["True", "str"])
    @pytest.mark.parametrize("caller", FACTOR_CALLERS)
    def test_a_factor_that_is_not_a_real_number_is_refused(self, caller, value):
        message, call = FACTOR_CALLERS[caller]
        with pytest.raises(ValueError, match=message):
            call(value)
