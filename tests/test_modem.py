"""Tests for the non-orthogonal modem chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmod import modem, properties

# regression baseline from an SVD oracle, see test_condition_number_baseline
COND_A_09_16 = 17.139345394283602
# Gray QPSK up to scale, in label order, and the refusal of any other alphabet
PATTERN = np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j])
CONSTELLATION_MESSAGE = (
    r"^a constellation must be c \* \(1\+1j, -1\+1j, 1-1j, -1-1j\) with a finite c > 0$"
)


def random_frame(rng, n, m):
    return rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))


def isfft_double_sum(s, alpha, beta):
    """Direct double-sum evaluation of the transform definition."""
    n, m = s.shape
    out = np.zeros((n, m), dtype=complex)
    for nn in range(n):
        for mm in range(m):
            acc = 0.0 + 0.0j
            for k in range(n):
                for l in range(m):
                    acc += s[k, l] * np.exp(
                        2j * np.pi * (alpha * nn * k / n - beta * mm * l / m)
                    )
            out[nn, mm] = acc / np.sqrt(n * m)
    return out


class TestDopplerMatrix:
    def test_dft_limit(self):
        a = modem.build_doppler_matrix(1.0, 2)
        assert np.allclose(a, np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        assert np.allclose(a.conj().T @ a, np.eye(2), atol=1e-12)

    def test_half_compression_2x2(self):
        a = modem.build_doppler_matrix(0.5, 2)
        assert np.allclose(a, np.array([[1, 1], [1, 1j]]) / np.sqrt(2))

    def test_condition_number_baseline(self):
        a = modem.build_doppler_matrix(0.9, 16)
        s = np.linalg.svd(a, compute_uv=False)
        assert s[0] / s[-1] == pytest.approx(COND_A_09_16, rel=1e-9)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            modem.build_doppler_matrix(0.0, 4)

    @pytest.mark.parametrize("alpha", [0.675, 0.775, 0.8, 0.9, 1.0])
    def test_full_rank_in_scope(self, alpha):
        a = modem.build_doppler_matrix(alpha, 16)
        assert np.linalg.matrix_rank(a) == 16


class TestDelayMatrix:
    def test_dft_limit(self):
        b = modem.build_delay_matrix(1.0, 2)
        assert np.allclose(b, np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        b = modem.build_delay_matrix(1.0, 8)
        assert np.linalg.norm(b.conj().T @ b - np.eye(8)) <= 1e-12

    def test_gram_off_diagonal_positive_when_compressed(self):
        b = modem.build_delay_matrix(0.775, 4)
        gram = b.conj().T @ b
        off = np.abs(gram - np.diag(np.diag(gram)))
        mask = ~np.eye(4, dtype=bool)
        assert np.all(off[mask] > 0.0)


class TestIsfft:
    @pytest.mark.parametrize("m,n,alpha,beta,seed", [(4, 3, 1.0, 1.0, 30), (3, 5, 0.8, 0.7, 31)],
                             ids=["orthogonal", "compressed"])
    def test_matches_double_sum(self, m, n, alpha, beta, seed):
        params = modem.ModemParams(m=m, n=n, alpha=alpha, beta=beta)
        s = random_frame(np.random.default_rng(seed), n, m)
        got = modem.isfft_nonorth(s, params)
        assert np.allclose(got, isfft_double_sum(s, alpha, beta), rtol=1e-12, atol=1e-12)

    def test_single_pilot_gives_constant_frame(self):
        params = modem.ModemParams(m=4, n=4, alpha=0.9, beta=0.8)
        s = np.zeros((4, 4), dtype=complex)
        s[0, 0] = 1.0
        got = modem.isfft_nonorth(s, params)
        assert np.allclose(got, 1.0 / 4.0)

    def test_linearity(self):
        rng = np.random.default_rng(32)
        params = modem.ModemParams(m=4, n=4, alpha=0.85, beta=0.95)
        s1, s2 = random_frame(rng, 4, 4), random_frame(rng, 4, 4)
        lhs = modem.isfft_nonorth(s1 + 2j * s2, params)
        rhs = modem.isfft_nonorth(s1, params) + 2j * modem.isfft_nonorth(s2, params)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_shape_mismatch(self):
        params = modem.ModemParams(m=4, n=4)
        with pytest.raises(ValueError):
            modem.isfft_nonorth(np.zeros((3, 4)), params)


class TestHeisenbergWigner:
    def test_constant_frame_gives_impulse_train(self):
        n, m = 4, 8
        params = modem.ModemParams(m=m, n=n)
        x = np.full((n, m), 1.0 / np.sqrt(n * m), dtype=complex)
        sig = modem.heisenberg_rect(x, params)
        # direct per-block inverse DFT: every block collapses onto its first sample
        expect = np.zeros(n * m, dtype=complex)
        expect[::m] = 1.0 / np.sqrt(n)
        assert np.allclose(sig, expect, atol=1e-12)
        assert np.sum(np.abs(sig) ** 2) == pytest.approx(1.0)

    def test_single_entry_gives_single_block_tone(self):
        n, m = 3, 4
        params = modem.ModemParams(m=m, n=n)
        x = np.zeros((n, m), dtype=complex)
        x[1, 2] = 1.0
        sig = modem.heisenberg_rect(x, params).reshape(n, m)
        assert np.allclose(sig[0], 0) and np.allclose(sig[2], 0)
        expect = np.exp(2j * np.pi * 2 * np.arange(m) / m) / np.sqrt(m)
        assert np.allclose(sig[1], expect)

    def test_parseval(self):
        rng = np.random.default_rng(33)
        params = modem.ModemParams(m=8, n=4)
        x = random_frame(rng, 4, 8)
        sig = modem.heisenberg_rect(x, params)
        assert np.sum(np.abs(sig) ** 2) == pytest.approx(np.sum(np.abs(x) ** 2), rel=1e-12)

    def test_wigner_inverts_heisenberg(self):
        rng = np.random.default_rng(34)
        params = modem.ModemParams(m=5, n=6)
        x = random_frame(rng, 6, 5)
        back = modem.wigner_rect(modem.heisenberg_rect(x, params), params)
        assert np.allclose(back, x, atol=1e-12)

    def test_zero_signal(self):
        params = modem.ModemParams(m=4, n=4)
        assert np.all(modem.wigner_rect(np.zeros(16), params) == 0)

    def test_wigner_preserves_noise_variance(self):
        # Monte-Carlo oracle: per-entry variance through the unitary front-end
        rng = np.random.default_rng(35)
        params = modem.ModemParams(m=4, n=4)
        trials, sigma_sq = 10_000, 0.7
        acc = 0.0
        for _ in range(trials):
            noise = np.sqrt(sigma_sq / 2) * (
                rng.standard_normal(16) + 1j * rng.standard_normal(16)
            )
            acc += np.sum(np.abs(modem.wigner_rect(noise, params)) ** 2)
        per_entry = acc / (trials * 16)
        assert per_entry == pytest.approx(sigma_sq, rel=0.05)

    def test_wrong_length_rejected(self):
        params = modem.ModemParams(m=4, n=4)
        with pytest.raises(ValueError):
            modem.wigner_rect(np.zeros(15), params)


class TestModulate:
    def test_2x2_unit_symbol(self):
        params = modem.ModemParams(m=2, n=2, alpha=1.0, beta=1.0)
        s = np.zeros((2, 2), dtype=complex)
        s[0, 0] = 1.0
        sig = modem.modulate(s, params)
        expect = np.array([1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0])
        assert np.allclose(sig, expect, atol=1e-12)

    def test_zero_frame(self):
        params = modem.ModemParams(m=4, n=2, alpha=0.8, beta=0.8)
        assert np.all(modem.modulate(np.zeros((2, 4)), params) == 0)

    def test_unitary_chain_at_orthogonal_limit(self):
        rng = np.random.default_rng(36)
        params = modem.ModemParams(m=4, n=4)
        s = random_frame(rng, 4, 4)
        sig = modem.modulate(s, params)
        assert np.sum(np.abs(sig) ** 2) == pytest.approx(np.sum(np.abs(s) ** 2), rel=1e-12)


class TestBridgeInvariants:
    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (0.9, 0.9), (0.8, 0.95), (0.675, 0.675)])
    def test_wigner_of_modulate_is_matrix_model(self, alpha, beta):
        params = modem.ModemParams(m=4, n=6, alpha=alpha, beta=beta)
        assert properties.check_modem_bridge(params, np.random.default_rng(37)) <= 1e-12

    def test_otfs_limit_roundtrip(self):
        rng = np.random.default_rng(38)
        params = modem.ModemParams(m=8, n=8, alpha=1.0, beta=1.0)
        s = random_frame(rng, 8, 8)
        tf = modem.wigner_rect(modem.modulate(s, params), params)
        a = modem.build_doppler_matrix(1.0, 8)
        b = modem.build_delay_matrix(1.0, 8)
        back = a.conj().T @ tf @ b
        assert np.max(np.abs(back - s)) < 1e-10


class TestOverloadingFactor:
    @pytest.mark.parametrize(
        "alpha,beta,expect_pct",
        [(0.9, 0.9, 23.5), (0.85, 0.9, 30.7), (0.675, 0.675, 119.5), (0.8, 0.8, 56.25),
         (0.775, 0.775, 66.5)],
    )
    def test_reference_values(self, alpha, beta, expect_pct):
        eta = modem.overloading_factor(alpha, beta)
        assert 100 * eta == pytest.approx(expect_pct, abs=0.1)

    def test_orthogonal_limit_is_zero(self):
        assert modem.overloading_factor(1.0, 1.0) == 0.0

    def test_product_that_underflows_is_refused(self):
        with pytest.raises(ValueError, match=r"1e-200 and 1e-200 multiply to 0\.0"):
            modem.overloading_factor(1e-200, 1e-200)
        # a subnormal product still has its factor, as the formula gives it
        assert modem.overloading_factor(1e-160, 1e-160) == np.inf

    def test_strictly_decreasing_in_each_factor(self):
        etas = [modem.overloading_factor(a, 0.9) for a in (0.7, 0.8, 0.9, 1.0)]
        assert all(x > y for x, y in zip(etas, etas[1:]))
        etas = [modem.overloading_factor(0.9, b) for b in (0.7, 0.8, 0.9, 1.0)]
        assert all(x > y for x, y in zip(etas, etas[1:]))


class TestBitMapping:
    @pytest.mark.parametrize("bits,point", [
        ((0, 0), (1 + 1j) / np.sqrt(2)),
        ((0, 1), (-1 + 1j) / np.sqrt(2)),
        ((1, 1), (-1 - 1j) / np.sqrt(2)),
        ((1, 0), (1 - 1j) / np.sqrt(2)),
    ], ids=["00", "01", "11", "10"])
    def test_qpsk_gray_table(self, bits, point):
        frame = modem.map_bits(np.array(bits), modem.qpsk(), 1, 1)
        assert frame[0, 0] == pytest.approx(point)

    def test_demap_tolerates_small_perturbation(self):
        rng = np.random.default_rng(40)
        q = modem.qpsk()
        bits = rng.integers(0, 2, size=32)
        frame = modem.map_bits(bits, q, 4, 4)
        wobble = 0.09 * np.exp(2j * np.pi * rng.uniform(size=(4, 4)))
        assert np.array_equal(modem.demap_symbols(frame + wobble, q), bits)

    def test_stacked_roundtrip_row_by_row(self):
        rng = np.random.default_rng(41)
        q = modem.qpsk()
        bits = rng.integers(0, 2, size=(3, 2 * 3 * 2))
        frames = modem.map_bits(bits, q, 2, 3)
        assert frames.shape == (3, 2, 3)
        assert np.array_equal(frames[1], modem.map_bits(bits[1], q, 2, 3))
        assert np.array_equal(modem.demap_symbols(frames, q), bits)
        with pytest.raises(ValueError):
            modem.map_bits(bits[None], q, 2, 3)

    @pytest.mark.parametrize("bad", [0.5, 1.5, -0.5])
    def test_non_binary_values_refused_before_the_cast(self, bad):
        bits = np.zeros(32)
        bits[5] = bad
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            modem.map_bits(bits, modem.qpsk(), 4, 4)

    def test_float_and_bool_bits_map_as_integers(self):
        q = modem.qpsk()
        bits = np.random.default_rng(42).integers(0, 2, size=(2, 32))
        frames = modem.map_bits(bits, q, 4, 4)
        assert np.array_equal(modem.map_bits(bits.astype(float), q, 4, 4), frames)
        assert np.array_equal(modem.map_bits(bits.astype(bool), q, 4, 4), frames)

    def test_bit_count_mismatch(self):
        with pytest.raises(ValueError):
            modem.map_bits(np.zeros(7, dtype=int), modem.qpsk(), 2, 2)

    def test_unit_average_energy(self):
        q = modem.qpsk()
        assert np.mean(np.abs(q.points) ** 2) == pytest.approx(1.0)
        assert q.axis_magnitude == pytest.approx(2**-0.5)


class TestConstellation:
    @pytest.mark.parametrize("scale", [2**-0.5, 1.0, 3.0, 5e-324])
    def test_scaled_qpsk_accepted(self, scale):
        q = modem.Constellation(points=scale * PATTERN)
        assert np.array_equal(q.points, scale * PATTERN) and q.bits_per_symbol == 2

    @pytest.mark.parametrize("points", [
        np.exp(2j * np.pi * np.arange(8) / 8),
        np.concatenate([PATTERN, PATTERN]),
        PATTERN[[0, 1, 3, 2]],
        PATTERN[::-1],
        np.conj(PATTERN),
        -1.0 * PATTERN,
        0.0 * PATTERN,
        np.nan * PATTERN,
        np.inf * PATTERN,
        np.array([]),
    ], ids=["8psk", "8 points", "gray order swapped", "reversed", "conjugated",
            "negative scale", "zero scale", "nan scale", "inf scale", "empty"])
    def test_anything_else_refused_with_one_message(self, points):
        with pytest.raises(ValueError, match=CONSTELLATION_MESSAGE):
            modem.Constellation(points=points)


class TestNearest:
    # each axis value, and whether the sign rule counts it as negative
    AXES = [(0.0, 0), (-0.0, 0), (np.nan, 0), (5e-324, 0), (-5e-324, 1),
            (0.5, 0), (-0.5, 1), (np.inf, 0), (-np.inf, 1)]

    @pytest.mark.parametrize("scale", [2**-0.5, 1.0, 1e300])
    def test_sign_rule(self, scale):
        # label 2 * (imag < 0) + (real < 0): +-0 and NaN count as positive,
        # +-inf goes by its sign
        q = modem.Constellation(points=scale * PATTERN)
        w = np.array([[complex(re, im) for re, _ in self.AXES] for im, _ in self.AXES])
        bits = np.array([[(im_neg, re_neg) for _, re_neg in self.AXES] for _, im_neg in self.AXES])
        want = 2 * bits[..., 0] + bits[..., 1]
        assert np.array_equal(q.nearest(w), want)
        assert np.array_equal(q.nearest(w[None].repeat(3, axis=0)), np.stack([want] * 3))
        assert np.array_equal(modem.demap_symbols(w, q), bits.reshape(-1))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), frames=st.integers(1, 8),
           spread=st.floats(-12, 12), scale=st.floats(1e-100, 1e100))
    def test_equals_argmin_where_the_distances_do_not_tie(self, seed, frames, spread, scale):
        # the argmin of the rounded distances on random stacks, at any
        # positive scale, wherever its best two distances differ by more than
        # rounding; the pinned sweeps hold no value closer to a tie
        q = modem.Constellation(points=scale * PATTERN)
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(frames, 4, 8)).view(complex) * (scale * 10.0**spread)
        dist = np.abs(w[..., None] - q.points)
        best = np.sort(dist, axis=-1)
        apart = best[..., 1] - best[..., 0] > 8 * np.finfo(float).eps * best[..., 1]
        # within 1e12 of the scale a tie is rare, so most entries are compared
        assert apart.mean() > 0.5
        assert np.array_equal(q.nearest(w)[apart], np.argmin(dist, axis=-1)[apart])


class TestModemParams:
    def test_rejects_out_of_range_compression(self):
        with pytest.raises(ValueError):
            modem.ModemParams(m=4, n=4, alpha=1.1)
        with pytest.raises(ValueError):
            modem.ModemParams(m=4, n=4, beta=0.0)

    def test_rejects_empty_frame(self):
        with pytest.raises(ValueError):
            modem.ModemParams(m=0, n=4)

    def test_cached_factors_equal_fresh_builds(self):
        params = modem.ModemParams(m=3, n=5, alpha=0.8, beta=0.7)
        a, b_h = params.doppler_matrix, params.delay_adjoint
        assert params.doppler_matrix is a and params.delay_adjoint is b_h
        assert np.array_equal(a, modem.build_doppler_matrix(0.8, 5))
        assert np.array_equal(b_h, modem.build_delay_matrix(0.7, 3).conj().T)
        assert not a.flags.writeable and not b_h.flags.writeable
        # the cache is no part of the value
        fresh = modem.ModemParams(m=3, n=5, alpha=0.8, beta=0.7)
        assert fresh == params and hash(fresh) == hash(params)
        assert repr(fresh) == repr(params)

    def test_isfft_bitwise_equals_freshly_built_factors(self):
        rng = np.random.default_rng(33)
        params = modem.ModemParams(m=4, n=3, alpha=0.85, beta=0.75)
        s = rng.normal(size=(6, 3, 4)) + 1j * rng.normal(size=(6, 3, 4))
        a = modem.build_doppler_matrix(0.85, 3)
        b = modem.build_delay_matrix(0.75, 4)
        for _ in range(2):
            assert np.array_equal(modem.isfft_nonorth(s, params), a @ s @ b.conj().T)
            assert np.array_equal(modem.isfft_nonorth(s[2], params), a @ s[2] @ b.conj().T)
