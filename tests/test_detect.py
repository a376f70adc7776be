"""Tests for the effective model, iterative decoder, and 2-D sphere decoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmod import channel, detect, modem, properties


def make_model(n, m, alpha, beta, y=None, h1=None, h2=None):
    a = modem.build_doppler_matrix(alpha, n)
    b = modem.build_delay_matrix(beta, m)
    if y is None:
        y = np.zeros((n, m), dtype=complex)
    return detect.build_effective_model(a, b, y, h1=h1, h2=h2)


def identity_model(n, m, y):
    """Model with G = H = I, so R = L = I and U = Y."""
    return detect.build_effective_model(np.eye(n, dtype=complex), np.eye(m, dtype=complex), y)


def random_qpsk_frame(rng, n, m):
    q = modem.qpsk()
    return q.points[rng.integers(0, 4, size=(n, m))]


def all_qpsk_frames(n, m):
    """Every QPSK frame, in ``itertools.product`` order over the entries."""
    digits = np.indices((4,) * (n * m)).reshape(n * m, -1).T
    return modem.qpsk().points[digits].reshape(-1, n, m)


class TestBuildEffectiveModel:
    def test_orthogonal_limit_is_unitary(self):
        model = make_model(4, 4, 1.0, 1.0)
        assert np.linalg.norm(model.g.conj().T @ model.g - np.eye(4)) < 1e-12

    def test_factor_invariants(self):
        rng = np.random.default_rng(60)
        y = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        model = make_model(5, 3, 0.8, 0.9, y=y)
        assert np.allclose(model.q_g @ model.r, model.g, atol=1e-12)
        assert np.allclose(model.r, np.triu(model.r))
        assert np.allclose(model.l, np.tril(model.l))
        diag = np.diag(model.r)
        assert np.all(diag.imag == 0) and np.all(diag.real >= 0)
        u_expect = model.q_g.conj().T @ y @ model.q_h
        assert np.linalg.norm(model.u - u_expect) <= 1e-10 * np.linalg.norm(y)

    def test_noiseless_objective_vanishes_at_truth(self):
        rng = np.random.default_rng(61)
        s = random_qpsk_frame(rng, 4, 4)
        a = modem.build_doppler_matrix(0.8, 4)
        b = modem.build_delay_matrix(0.8, 4)
        model = detect.build_effective_model(a, b, a @ s @ b.conj().T)
        assert detect.total_objective(model, s) < 1e-18

    def test_separable_channel_residual_is_noise_only(self):
        rng = np.random.default_rng(62)
        n, m = 2, 2
        h1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h2 = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        a = modem.build_doppler_matrix(0.9, n)
        b = modem.build_delay_matrix(0.9, m)
        s = random_qpsk_frame(rng, n, m)
        noise = 0.1 * (rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)))
        y = channel.apply_separable_channel(a @ s @ b.conj().T, h1, h2) + noise
        model = detect.build_effective_model(a, b, y, h1=h1, h2=h2)
        resid = detect.total_objective(model, s)
        assert resid == pytest.approx(float(np.sum(np.abs(noise) ** 2)), rel=1e-10)

    def test_singular_channel_refused(self):
        h1 = np.zeros((4, 4), dtype=complex)
        with pytest.raises(detect.SingularModelError):
            make_model(4, 4, 1.0, 1.0, h1=h1)

    def test_refresh_observation(self):
        rng = np.random.default_rng(63)
        model = make_model(3, 3, 0.9, 0.9)
        y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        fresh = detect.refresh_observation(model, y)
        direct = make_model(3, 3, 0.9, 0.9, y=y)
        assert np.allclose(fresh.u, direct.u)
        assert np.array_equal(fresh.r, direct.r)


class TestObjectiveAndPartialMetric:
    def test_true_frame_zero_noiseless(self):
        rng = np.random.default_rng(64)
        s = random_qpsk_frame(rng, 3, 3)
        a = modem.build_doppler_matrix(0.85, 3)
        b = modem.build_delay_matrix(0.85, 3)
        model = detect.build_effective_model(a, b, a @ s @ b.conj().T)
        assert detect.total_objective(model, s) == pytest.approx(0.0, abs=1e-18)

    def test_zero_frame_gives_observation_energy(self):
        rng = np.random.default_rng(65)
        y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        model = make_model(4, 4, 0.8, 0.8, y=y)
        assert detect.total_objective(model, np.zeros((4, 4))) == pytest.approx(
            float(np.sum(np.abs(y) ** 2)), rel=1e-12
        )

    def test_identity_factor_metric(self):
        rng = np.random.default_rng(66)
        y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        model = identity_model(3, 3, y)
        s = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        for r in range(3):
            for c in range(3):
                expect = abs(y[r, c] - s[r, c]) ** 2
                assert detect.partial_metric(model, s, r, c) == pytest.approx(expect)

    def test_corner_metric_single_term(self):
        rng = np.random.default_rng(67)
        y = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        model = make_model(3, 4, 0.8, 0.7, y=y)
        s = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        r, c = 2, 3
        expect = abs(model.u[r, c] - model.r[r, r] * s[r, c] * model.l[c, c]) ** 2
        assert detect.partial_metric(model, s, r, c) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("n,m", [(3, 4), (4, 3), (5, 5)])
    def test_decomposition_identity(self, n, m):
        err = properties.check_objective_decomposition(n, m, 0.8, 0.9, np.random.default_rng(68))
        assert err <= 1e-10

    def test_counter_tally(self):
        model = make_model(4, 4, 0.9, 0.9)
        s = np.zeros((4, 4), dtype=complex)
        counter = detect.OpCounter()
        detect.partial_metric(model, s, 1, 1, counter=counter)
        # min-axis extent is 3 at (1, 1) on a 4x4 frame
        assert (counter.complex_mults, counter.complex_adds) == (4, 3)


class TestWavefrontSchedule:
    def test_single_cell(self):
        assert detect.wavefront_schedule(1, 1) == [(0, 0)]

    def test_2x2_order(self):
        assert detect.wavefront_schedule(2, 2) == [(1, 1), (1, 0), (0, 1), (0, 0)]

    def test_2x3_positions(self):
        order = detect.wavefront_schedule(2, 3)
        assert len(order) == 6 and len(set(order)) == 6

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("m", range(1, 9))
    def test_permutation_and_dependency_soundness(self, n, m):
        assert properties.check_schedule_soundness(n, m) == 0.0


class TestSd2dUpdate:
    """The per-cell survivor update, seen through whole decodes."""

    def test_greedy_identity_factors_round_to_nearest(self):
        rng = np.random.default_rng(69)
        q = modem.qpsk()
        y = 0.8 * random_qpsk_frame(rng, 2, 2) + 0.05 * (
            rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        )
        model = identity_model(2, 2, y)
        s_hat, _, _ = detect.sd2d_decode(model, q, k_list=1)
        assert np.array_equal(s_hat, detect.hard_demap(y, q))

    def test_1x1_scalar_argmin(self):
        q = modem.qpsk()
        y = np.array([[0.4 - 0.2j]])
        model = make_model(1, 1, 0.9, 0.9, y=y)
        s_hat, loss, _ = detect.sd2d_decode(model, q, k_list=4)
        objs = [abs(y[0, 0] - model.g[0, 0] * p * np.conj(model.h[0, 0])) ** 2 for p in q.points]
        assert loss == pytest.approx(min(objs), rel=1e-12)
        assert s_hat[0, 0] == q.points[int(np.argmin(objs))]

    def test_losses_sorted_and_entries_are_points(self):
        rng = np.random.default_rng(70)
        q = modem.qpsk()
        y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        model = make_model(2, 2, 0.775, 0.775, y=y)
        for radius_sq in (None, 1e-12):
            s_hat, loss, _ = detect.sd2d_decode(model, q, k_list=8, radius_sq=radius_sq)
            assert np.all(np.isin(s_hat.reshape(-1), q.points))
            assert np.isfinite(loss)

    def test_exhaustive_update_matches_brute_force(self):
        rng = np.random.default_rng(71)
        q = modem.qpsk()
        s = random_qpsk_frame(rng, 2, 2)
        a = modem.build_doppler_matrix(0.775, 2)
        b = modem.build_delay_matrix(0.775, 2)
        y = a @ s @ b.conj().T + 0.3 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        model = detect.build_effective_model(a, b, y)
        s_hat, loss, _ = detect.sd2d_decode(model, q, k_list=256)
        frames = all_qpsk_frames(2, 2)
        objs = np.array([detect.total_objective(model, f) for f in frames])
        assert loss == pytest.approx(objs.min(), rel=1e-10)
        assert np.array_equal(s_hat, frames[int(np.argmin(objs))])

    def test_k16_matches_brute_force_on_seeded_batch(self):
        rng = np.random.default_rng(90)
        q = modem.qpsk()
        a = modem.build_doppler_matrix(0.775, 2)
        b = modem.build_delay_matrix(0.775, 2)
        frames = all_qpsk_frames(2, 2)
        base = detect.build_effective_model(a, b, np.zeros((2, 2), dtype=complex))
        for _ in range(20):
            s = random_qpsk_frame(rng, 2, 2)
            y = a @ s @ b.conj().T + 0.25 * (
                rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            )
            model = detect.refresh_observation(base, y)
            _, loss, _ = detect.sd2d_decode(model, q, k_list=16)
            objs = [detect.total_objective(model, f) for f in frames]
            assert loss == pytest.approx(min(objs), rel=1e-10)

    def test_full_k_list_is_exhaustive_on_rectangular_frame(self):
        # with k_list = |A|^(N*M) the search provably enumerates every frame
        rng = np.random.default_rng(91)
        q = modem.qpsk()
        n, m = 2, 3
        a = modem.build_doppler_matrix(0.8, n)
        b = modem.build_delay_matrix(0.7, m)
        s = random_qpsk_frame(rng, n, m)
        y = a @ s @ b.conj().T + 0.4 * (rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)))
        model = detect.build_effective_model(a, b, y)
        _, loss, _ = detect.sd2d_decode(model, q, k_list=4 ** (n * m))
        objs = [detect.total_objective(model, f) for f in all_qpsk_frames(n, m)]
        assert loss == pytest.approx(min(objs), rel=1e-10)

    def test_empty_constellation_rejected(self):
        with pytest.raises(ValueError):
            modem.Constellation(name="empty", points=np.array([]))


class TestSd2dDecode:
    def test_noiseless_exact_recovery(self):
        rng = np.random.default_rng(72)
        q = modem.qpsk()
        for k_list in (1, 4, 16):
            s = random_qpsk_frame(rng, 4, 4)
            a = modem.build_doppler_matrix(0.8, 4)
            b = modem.build_delay_matrix(0.8, 4)
            model = detect.build_effective_model(a, b, a @ s @ b.conj().T)
            s_hat, loss, _ = detect.sd2d_decode(model, q, k_list=k_list)
            assert np.array_equal(s_hat, s)
            assert loss < 1e-18

    def test_final_loss_matches_objective(self):
        rng = np.random.default_rng(73)
        q = modem.qpsk()
        s = random_qpsk_frame(rng, 3, 3)
        a = modem.build_doppler_matrix(0.85, 3)
        b = modem.build_delay_matrix(0.85, 3)
        y = a @ s @ b.conj().T + 0.2 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        model = detect.build_effective_model(a, b, y)
        s_hat, loss, _ = detect.sd2d_decode(model, q, k_list=8)
        assert loss == pytest.approx(detect.total_objective(model, s_hat), rel=1e-10)

    def test_k_best_monotonicity_on_seeded_batch(self):
        rng = np.random.default_rng(74)
        q = modem.qpsk()
        a = modem.build_doppler_matrix(0.775, 4)
        b = modem.build_delay_matrix(0.775, 4)
        base = detect.build_effective_model(a, b, np.zeros((4, 4), dtype=complex))
        for _ in range(50):
            s = random_qpsk_frame(rng, 4, 4)
            y = a @ s @ b.conj().T + 0.3 * (
                rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            )
            model = detect.refresh_observation(base, y)
            _, loss1, _ = detect.sd2d_decode(model, q, k_list=1)
            _, loss8, _ = detect.sd2d_decode(model, q, k_list=8)
            assert loss8 <= loss1 + 1e-12

    def test_initializer_never_worsened(self):
        rng = np.random.default_rng(75)
        q = modem.qpsk()
        a = modem.build_doppler_matrix(0.675, 4)
        b = modem.build_delay_matrix(0.675, 4)
        base = detect.build_effective_model(a, b, np.zeros((4, 4), dtype=complex))
        for _ in range(30):
            s = random_qpsk_frame(rng, 4, 4)
            y = a @ s @ b.conj().T + 0.6 * (
                rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            )
            model = detect.refresh_observation(base, y)
            initial = detect.hard_demap(detect.matched_filter_estimate(model), q)
            _, loss, _ = detect.sd2d_decode(model, q, k_list=2, initial=initial)
            assert loss <= detect.total_objective(model, initial) * (1 + 1e-9)

    def test_tiny_radius_still_returns(self):
        rng = np.random.default_rng(76)
        q = modem.qpsk()
        y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        model = make_model(2, 2, 0.9, 0.9, y=y)
        s_hat, loss, _ = detect.sd2d_decode(model, q, k_list=4, radius_sq=1e-12)
        assert np.all(np.isin(s_hat.reshape(-1), q.points))
        assert np.isfinite(loss)

    def test_rejects_bad_radius(self):
        model = make_model(2, 2, 0.9, 0.9)
        with pytest.raises(ValueError):
            detect.sd2d_decode(model, modem.qpsk(), k_list=4, radius_sq=0.0)


class TestSd2dContract:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        n=st.integers(1, 3),
        m=st.integers(1, 3),
        k_list=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        with_initial=st.booleans(),
    )
    def test_decoder_contract(self, n, m, k_list, seed, with_initial):
        rng = np.random.default_rng(seed)
        q = modem.qpsk()
        a = modem.build_doppler_matrix(0.8, n)
        b = modem.build_delay_matrix(0.75, m)
        y = a @ random_qpsk_frame(rng, n, m) @ b.conj().T + 0.5 * (
            rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        )
        model = detect.build_effective_model(a, b, y)
        initial = None
        if with_initial:
            initial = detect.hard_demap(detect.matched_filter_estimate(model), q)
        s_hat, loss, _ = detect.sd2d_decode(model, q, k_list=k_list, initial=initial)
        assert loss == pytest.approx(detect.total_objective(model, s_hat), rel=1e-10)
        assert np.all(np.isin(s_hat.reshape(-1), q.points))
        if initial is not None:
            assert loss <= detect.total_objective(model, initial) * (1 + 1e-9)
        frames = all_qpsk_frames(n, m)
        brute = np.sum(np.abs(y - a @ frames @ b.conj().T) ** 2, axis=(1, 2)).min()
        _, full_loss, _ = detect.sd2d_decode(model, q, k_list=4 ** (n * m), initial=initial)
        assert full_loss == pytest.approx(brute, rel=1e-10)


class TestOperationCounting:
    @pytest.mark.parametrize("m,n", [(2, 2), (4, 4), (4, 8)])
    def test_single_candidate_sweep_matches_prediction(self, m, n):
        assert properties.check_counter_conformance(n, m, 0.9, 0.9) == 0.0

    def test_predicted_values(self):
        c44 = detect.predicted_complexity(4, 4)
        assert (c44.mults, c44.adds) == (56, 40)
        assert c44.ref_1d_mults == 136
        c16 = detect.predicted_complexity(16, 16)
        assert (c16.mults, c16.adds) == (2432, 2176)
        assert c16.ref_1d_mults == 32896
        c11 = detect.predicted_complexity(1, 1)
        assert (c11.mults, c11.adds) == (2, 1)
        assert c44.qr_shapes == ((4, 4), (4, 4))
        assert c16.ref_1d_qr_shape == (256, 256)


class TestMatchedFilter:
    def test_unitary_case_recovers_truth_noiseless(self):
        rng = np.random.default_rng(77)
        s = random_qpsk_frame(rng, 4, 4)
        a = modem.build_doppler_matrix(1.0, 4)
        b = modem.build_delay_matrix(1.0, 4)
        model = detect.build_effective_model(a, b, a @ s @ b.conj().T)
        assert np.allclose(detect.matched_filter_estimate(model), s, atol=1e-12)

    def test_compressed_case_matches_direct_product(self):
        rng = np.random.default_rng(78)
        s = random_qpsk_frame(rng, 4, 4)
        a = modem.build_doppler_matrix(0.8, 4)
        b = modem.build_delay_matrix(0.8, 4)
        model = detect.build_effective_model(a, b, a @ s @ b.conj().T)
        expect = (a.conj().T @ a) @ s @ (b.conj().T @ b)
        assert np.allclose(detect.matched_filter_estimate(model), expect, atol=1e-12)

    def test_zero_observation(self):
        model = make_model(3, 3, 0.8, 0.8)
        assert np.all(detect.matched_filter_estimate(model) == 0)


class TestIterativeMethod:
    def test_identity_operator_is_stationary(self):
        rng = np.random.default_rng(79)
        s = random_qpsk_frame(rng, 4, 4)
        a = modem.build_doppler_matrix(1.0, 4)
        b = modem.build_delay_matrix(1.0, 4)
        y = a @ s @ b.conj().T + 0.1 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        model = detect.build_effective_model(a, b, y)
        x0 = detect.matched_filter_estimate(model)
        assert np.allclose(detect.im_decode(model, 1.0, 1), x0, atol=1e-12)
        assert np.allclose(detect.im_decode(model, 1.0, 7), x0, atol=1e-12)

    def test_scalar_toy_converges_to_double(self):
        # G+G = 0.5, H+H = 1: iterates follow the geometric series toward 2*x0
        g = np.array([[np.sqrt(0.5)]], dtype=complex)
        h = np.array([[1.0]], dtype=complex)
        y = np.array([[1.0]], dtype=complex)
        model = detect.build_effective_model(g, h, y)
        x0 = detect.matched_filter_estimate(model)
        got = detect.im_decode(model, 1.0, 60)
        partial = sum(0.5**k for k in range(61)) * x0
        assert got[0, 0] == pytest.approx(partial[0, 0], rel=1e-12)
        assert got[0, 0] == pytest.approx(2 * x0[0, 0], rel=1e-8)

    def test_compressed_noiseless_zero_forcing(self):
        rng = np.random.default_rng(80)
        s = random_qpsk_frame(rng, 4, 4)
        a = modem.build_doppler_matrix(0.8, 4)
        b = modem.build_delay_matrix(0.8, 4)
        model = detect.build_effective_model(a, b, a @ s @ b.conj().T)
        # relaxation below 2/rho(composite operator) guarantees convergence;
        # at omega = 0.5 the slowest mode contracts by 1 - omega*lmin per step,
        # which needs ~500 iterations to push the residual under 1e-6
        rho = (np.linalg.svd(a, compute_uv=False)[0] * np.linalg.svd(b, compute_uv=False)[0]) ** 2
        omega = 0.5
        assert omega < 2 / rho
        x = detect.im_decode(model, omega, 500)
        op = detect.distortion_operator(model)
        x0 = detect.matched_filter_estimate(model)
        resid = np.linalg.norm(x0 - op(x)) / np.linalg.norm(x0)
        assert resid < 1e-6
        # the fixed point is the zero-forcing solution, here the true frame
        assert np.allclose(x, s, atol=1e-5)


class TestSoftClip:
    def test_piecewise_rule_per_axis(self):
        out = detect.soft_clip(np.array([[0.3 + 0.7j]]), 0.5)
        assert out[0, 0] == pytest.approx(0.3 + 1.0j)

    def test_zero_threshold_gives_signs(self):
        w = np.array([[0.2 - 0.4j, -1.5 + 0.0j]])
        out = detect.soft_clip(w, 0.0)
        assert out[0, 0] == 1.0 - 1.0j
        assert out[0, 1] == -1.0 + 1.0j  # sign(0) = +1

    def test_idempotent_below_one(self):
        rng = np.random.default_rng(81)
        w = 2.5 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        for d in (0.0, 0.4, 1.0):
            once = detect.soft_clip(w, d)
            assert np.allclose(detect.soft_clip(once, d), once)

    def test_output_in_unit_square(self):
        rng = np.random.default_rng(82)
        w = 3.0 * (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        out = detect.soft_clip(w, 0.7)
        assert np.max(np.abs(out.real)) <= 1.0 and np.max(np.abs(out.imag)) <= 1.0

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            detect.soft_clip(np.zeros((1, 1)), -0.1)

    def test_above_one_threshold_is_legal(self):
        w = np.array([[1.2 + 0.1j]])
        assert detect.soft_clip(w, 2.0)[0, 0] == pytest.approx(1.2 + 0.1j)


class TestImSoftDecode:
    def test_single_iteration_literal_formula(self):
        # one step written out: threshold 0, so s is the clipped matched
        # filter output, and the step is anchored on s
        rng = np.random.default_rng(83)
        s = random_qpsk_frame(rng, 4, 4)
        a = modem.build_doppler_matrix(0.9, 4)
        b = modem.build_delay_matrix(0.9, 4)
        y = a @ s @ b.conj().T
        model = detect.build_effective_model(a, b, y)
        omega, scale = 0.6, 2**-0.5
        got = detect.im_soft_decode(model, omega, 1)
        w0 = detect.matched_filter_estimate(model)
        op = detect.distortion_operator(model)
        quant = scale * detect.soft_clip(w0 / scale, 0.0)
        assert np.allclose(got, omega * (w0 - op(quant)) + quant, atol=1e-12)

    def test_orthogonal_noiseless_recovers_frame(self):
        rng = np.random.default_rng(84)
        q = modem.qpsk()
        s = random_qpsk_frame(rng, 4, 4)
        a = modem.build_doppler_matrix(1.0, 4)
        b = modem.build_delay_matrix(1.0, 4)
        model = detect.build_effective_model(a, b, a @ s @ b.conj().T)
        w = detect.im_soft_decode(model, 1.0, 10)
        assert np.array_equal(detect.hard_demap(w, q), s)

    def test_beats_matched_filter_on_noisy_batch(self):
        # seeded Monte-Carlo comparison against the one-shot baseline
        rng = np.random.default_rng(85)
        q = modem.qpsk()
        n = m = 8
        alpha = beta = 0.9
        a = modem.build_doppler_matrix(alpha, n)
        b = modem.build_delay_matrix(beta, m)
        base = detect.build_effective_model(a, b, np.zeros((n, m), dtype=complex))
        err_soft = err_matched = 0
        bits = 0
        for _ in range(150):
            s = random_qpsk_frame(rng, n, m)
            noise = np.sqrt(0.05 / 2) * (rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)))
            model = detect.refresh_observation(base, a @ s @ b.conj().T + noise)
            w = detect.im_soft_decode(model, 0.5, 40)
            x0 = detect.matched_filter_estimate(model)
            err_soft += int(np.sum(detect.hard_demap(w, q) != s))
            err_matched += int(np.sum(detect.hard_demap(x0, q) != s))
            bits += n * m
        assert err_soft < err_matched


class TestHardDemap:
    def test_identity_on_constellation(self):
        rng = np.random.default_rng(86)
        q = modem.qpsk()
        s = random_qpsk_frame(rng, 3, 5)
        assert np.array_equal(detect.hard_demap(s, q), s)

    def test_tie_breaks_to_lowest_index(self):
        q = modem.qpsk()
        out = detect.hard_demap(np.zeros((2, 2), dtype=complex), q)
        assert np.all(out == q.points[0])

    def test_small_perturbation_recovers(self):
        rng = np.random.default_rng(87)
        q = modem.qpsk()
        s = random_qpsk_frame(rng, 4, 4)
        delta = 0.3 * np.exp(2j * np.pi * rng.uniform(size=(4, 4)))  # below half min distance
        assert np.array_equal(detect.hard_demap(s + delta, q), s)

    def test_agrees_with_bit_demap(self):
        # both demappers share one nearest-point search, ties included
        rng = np.random.default_rng(88)
        q = modem.qpsk()
        frames = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(20)]
        frames += [np.zeros((2, 2), dtype=complex), np.array([[1.0, 1j, -1.0, -1j, 0.5]])]
        for w in frames:
            assert np.array_equal(
                modem.demap_symbols(detect.hard_demap(w, q), q), modem.demap_symbols(w, q)
            )
