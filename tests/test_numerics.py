"""Tests for the shared linear-algebra helpers."""

import numpy as np
import pytest

from ddmod import numerics
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

