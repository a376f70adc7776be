"""Tests for the effective model, iterative decoder, and 2-D sphere decoder."""

import math
import pickle
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmod import detect, harness, modem, properties
from oracles import (distortion_operator, im_soft_decode_every_step, im_soft_settling_step,
                     same_bits, soft_clip)

Q = modem.qpsk()
# its axis_magnitude is exactly 1.0
UNIT = modem.Constellation(points=np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j]))


def make_model(n, m, alpha, beta, y=None):
    a = modem.build_doppler_matrix(alpha, n)
    b = modem.build_delay_matrix(beta, m)
    if y is None:
        y = np.zeros((n, m), dtype=complex)
    return detect.build_effective_model(a, b, y)


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

    def test_singular_channel_refused(self):
        b = modem.build_delay_matrix(1.0, 4)
        y = np.zeros((4, 4), dtype=complex)
        with pytest.raises(detect.SingularModelError, match="G is effectively singular"):
            detect.build_effective_model(np.zeros((4, 4)), b, y)
        with pytest.raises(detect.SingularModelError, match="H is effectively singular"):
            detect.build_effective_model(b, np.zeros((4, 4)), y)

    def test_refresh_observation(self):
        rng = np.random.default_rng(63)
        model = make_model(3, 3, 0.9, 0.9)
        y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        fresh = detect.refresh_observation(model, y)
        direct = make_model(3, 3, 0.9, 0.9, y=y)
        assert np.allclose(fresh.u, direct.u)
        assert np.array_equal(fresh.r, direct.r)

    def test_refreshed_u_is_never_stale(self):
        # u is computed on first read, so read it before each refresh: a
        # refreshed model must not keep the u of the model it came from, nor
        # of its pickled copy, which is how a pool worker gets the base model
        rng = np.random.default_rng(66)
        model = make_model(3, 2, 0.9, 0.9, y=rng.normal(size=(3, 2)) + 0j)
        y = rng.normal(size=(4, 3, 2)) + 1j * rng.normal(size=(4, 3, 2))
        direct = [make_model(3, 2, 0.9, 0.9, y=frame).u for frame in y]
        base_u = model.u
        for base in (model, pickle.loads(pickle.dumps(model))):
            assert same_bits(base.u, base_u)
            assert same_bits(detect.refresh_observation(base, y[0]).u, direct[0])
            stacked = detect.refresh_observation(base, y)
            assert all(same_bits(u, want) for u, want in zip(stacked.u, direct))

    def test_stacked_observation_keeps_frame_shape(self):
        rng = np.random.default_rng(65)
        model = make_model(3, 2, 0.9, 0.9)
        y = rng.normal(size=(5, 3, 2)) + 1j * rng.normal(size=(5, 3, 2))
        stacked = detect.refresh_observation(model, y)
        assert stacked.shape == (3, 2) and stacked.u.shape == (5, 3, 2)
        assert np.array_equal(stacked.u[4], detect.refresh_observation(model, y[4]).u)
        with pytest.raises(ValueError):
            detect.refresh_observation(model, y[..., :1])


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


class TestWavefrontSchedule:
    def test_single_cell(self):
        assert detect.wavefront_schedule(1, 1) == [(0, 0)]

    def test_2x2_order(self):
        assert detect.wavefront_schedule(2, 2) == [(1, 1), (1, 0), (0, 1), (0, 0)]

    def test_2x3_positions(self):
        order = detect.wavefront_schedule(2, 3)
        assert len(order) == 6 and len(set(order)) == 6

    def test_wide_frame_order(self):
        assert detect.wavefront_schedule(2, 3) == [
            (1, 2), (1, 1), (0, 2), (0, 1), (1, 0), (0, 0)
        ]

    def test_tall_frame_order(self):
        assert detect.wavefront_schedule(3, 2) == [
            (2, 1), (2, 0), (1, 1), (1, 0), (0, 1), (0, 0)
        ]

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
            modem.Constellation(points=np.array([]))


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
        for radius_sq in (-1.0, math.nan):
            with pytest.raises(ValueError, match="radius_sq"):
                detect.sd2d_decode(model, modem.qpsk(), k_list=4, radius_sq=radius_sq)


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


class TestStackedSd2d:
    """A stacked decode gives each frame exactly what it gets alone."""

    @staticmethod
    def assert_frames_decode_alone(stacked, models, q, k_list, radius_sq, initial):
        s_hat, loss, counter = stacked
        assert s_hat.shape == models.y_t.shape and loss.shape == (len(models.y_t),)
        assert counter.mults.shape == counter.adds.shape == loss.shape
        assert counter.mults.dtype.kind == counter.adds.dtype.kind == "i"
        assert counter.total == sum(int(x) + int(y) for x, y in zip(counter.mults, counter.adds))
        assert type(counter.total) is int
        for i, y in enumerate(models.y_t):
            alone = detect.refresh_observation(models, y)
            s_1, loss_1, counter_1 = detect.sd2d_decode(
                alone, q, k_list,
                radius_sq=radius_sq if np.ndim(radius_sq) == 0 else radius_sq[i],
                initial=None if initial is None else initial[i],
            )
            assert np.array_equal(s_hat[i], s_1)
            assert loss[i].tobytes() == np.float64(loss_1).tobytes()
            assert counter_1.mults.shape == counter_1.adds.shape == (1,)
            assert counter.mults[i] == counter_1.mults[0]
            assert counter.adds[i] == counter_1.adds[0]

    @settings(derandomize=True, database=None, deadline=None, max_examples=120)
    @given(
        n=st.integers(1, 4),
        m=st.integers(1, 4),
        k_list=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        sigmas=st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0]), min_size=1, max_size=7),
        with_initial=st.booleans(),
        radius_sq=st.sampled_from([None, 0.0, math.inf]),
        chunk=st.sampled_from([None, 1, 2, 3]),
    )
    def test_stack_equals_frames_decoded_alone(
        self, n, m, k_list, seed, sigmas, with_initial, radius_sq, chunk
    ):
        # STACK_ENTRIES then holds the survivors of `chunk` frames, so the
        # stack is decoded in chunks of that many frames, the last maybe fewer
        entries = modem.STACK_ENTRIES
        if chunk is not None:
            entries = chunk * min(k_list, 4 ** (n * m)) * n * m
        rng = np.random.default_rng(seed)
        q = modem.qpsk()
        a = modem.build_doppler_matrix(0.8, n)
        b = modem.build_delay_matrix(0.75, m)
        s = q.points[rng.integers(0, 4, size=(len(sigmas), n, m))]
        noise = rng.normal(size=(2, len(sigmas), n, m))
        y = a @ s @ b.conj().T + np.array(sigmas)[:, None, None] * (noise[0] + 1j * noise[1])
        models = detect.refresh_observation(make_model(n, m, 0.8, 0.75), y)
        initial = None
        if with_initial:
            initial = detect.hard_demap(detect.matched_filter_estimate(models), q)
        with mock.patch.object(modem, "STACK_ENTRIES", entries):
            stacked = detect.sd2d_decode(models, q, k_list, radius_sq=radius_sq, initial=initial)
        self.assert_frames_decode_alone(stacked, models, q, k_list, radius_sq, initial)

    def test_estimates_hold_no_survivors(self):
        rng = np.random.default_rng(93)
        y = rng.normal(size=(8, 4, 4)) + 1j * rng.normal(size=(8, 4, 4))
        models = detect.refresh_observation(make_model(4, 4, 0.8, 0.8), y)
        for model in (models, detect.refresh_observation(models, y[0])):
            s_hat = detect.sd2d_decode(model, modem.qpsk(), 16)[0]
            owner = s_hat if s_hat.base is None else s_hat.base
            assert owner.size <= s_hat.size

    def test_memory_does_not_grow_with_the_stack(self):
        # 32 frames of 16 survivors fill one chunk at 4x4; 512 frames take 16
        rng = np.random.default_rng(94)
        y = rng.normal(size=(512, 4, 4)) + 1j * rng.normal(size=(512, 4, 4))
        models = detect.refresh_observation(make_model(4, 4, 0.8, 0.8), y)
        small = detect.refresh_observation(models, y[:32])

        def traced_peak(model):
            tracemalloc.start()
            try:
                detect.sd2d_decode(model, modem.qpsk(), 16)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(models) < 2 * traced_peak(small)

    def test_one_frame_pruned_by_its_radius(self):
        # frame 1's zero radius prunes every child at every cell, so it keeps
        # one survivor throughout; the infinite radii of frames 0 and 2 keep
        # k_list survivors
        rng = np.random.default_rng(92)
        q = modem.qpsk()
        y = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        models = detect.refresh_observation(make_model(4, 4, 0.8, 0.8), y)
        radius_sq = np.array([math.inf, 0.0, math.inf])
        stacked = detect.sd2d_decode(models, q, 4, radius_sq=radius_sq)
        self.assert_frames_decode_alone(stacked, models, q, 4, radius_sq, None)
        single = detect.predicted_complexity(4, 4)
        counter = stacked[2]
        assert (counter.mults[1], counter.adds[1]) == (single.mults, single.adds)
        assert counter.mults[0] > single.mults and counter.mults[2] > single.mults

    def test_nan_frame_falls_back_to_its_first_child(self):
        # every child of the NaN frame is NaN, like the padding; it still
        # keeps one real survivor, and its neighbour decodes as alone
        q = modem.qpsk()
        y = np.array([np.full((2, 2), np.nan + 0j), 0.7 * np.ones((2, 2))])
        models = detect.refresh_observation(make_model(2, 2, 1.0, 1.0), y)
        s_hat, loss, counter = detect.sd2d_decode(models, q, 4)
        assert np.array_equal(s_hat[0], np.full((2, 2), q.points[0]))
        assert np.isnan(loss[0])
        self.assert_frames_decode_alone((s_hat, loss, counter), models, q, 4, None, None)


class TestOperationCounting:
    @pytest.mark.parametrize("m,n", [(2, 2), (4, 4), (4, 8), (8, 4)])
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

    @pytest.mark.parametrize("m,n,name", [(2.5, 2, "m"), (4, True, "n"), (0, 4, "m")])
    def test_predicted_values_need_integer_dimensions(self, m, n, name):
        # a float m once predicted a float count
        with pytest.raises(ValueError, match=f"^{name} must be an integer of at least 1"):
            detect.predicted_complexity(m, n)


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


def two_where_clip(w, d):
    """The clipper written per axis, as two ``np.where`` passes."""
    w = np.asarray(w, dtype=complex)

    def axis(p):
        return np.where(np.abs(p) < d, p, np.where(p < 0, -1.0, 1.0))

    return axis(w.real) + 1j * axis(w.imag)


class TestSoftClip:
    @staticmethod
    def edge_grid(d):
        """Every pairing of axis values at and around the threshold ``d``."""
        axis = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]
        for v in (d, np.nextafter(d, 0.0), np.nextafter(d, math.inf)):
            axis += [v, -v]
        grid = np.empty((len(axis), len(axis)), dtype=complex)
        grid.real, grid.imag = np.array(axis)[:, None], np.array(axis)[None, :]
        return grid

    @pytest.mark.parametrize("d", [0.0, 0.5, 1.0, 2.0])
    def test_matches_two_where_oracle_on_edge_values(self, d):
        w = self.edge_grid(d)
        before = w.copy()
        out = soft_clip(w, d)
        assert np.array_equal(out, two_where_clip(w, d), equal_nan=True)
        assert np.array_equal(w, before, equal_nan=True)

    @pytest.mark.parametrize("d", [0.0, 0.5, 1.0, 2.0])
    def test_kept_entries_keep_their_sign_of_zero(self, d):
        w = self.edge_grid(d)
        out = soft_clip(w, d)
        for part in (np.real, np.imag):
            kept = np.abs(part(w)) < d
            assert np.array_equal(np.signbit(part(out))[kept], np.signbit(part(w))[kept])

    @pytest.mark.parametrize("view", [
        lambda w: w, lambda w: w.T, lambda w: w[:, ::2], lambda w: w[..., ::-1],
        lambda w: w.real, lambda w: w[0, 0, 0],
    ], ids=["stack", "transposed", "strided", "reversed", "real", "scalar"])
    def test_layouts_match_two_where_oracle(self, view):
        rng = np.random.default_rng(86)
        w = 1.5 * (rng.normal(size=(3, 4, 6)) + 1j * rng.normal(size=(3, 4, 6)))
        x = view(w)
        before = np.array(x, copy=True)
        for d in (0.0, 0.5, 1.0, 2.0):
            out = soft_clip(x, d)
            assert out.shape == np.shape(x) and out.dtype == complex
            assert np.array_equal(out, two_where_clip(x, d))
        assert np.array_equal(x, before)

    def test_piecewise_rule_per_axis(self):
        out = soft_clip(np.array([[0.3 + 0.7j]]), 0.5)
        assert out[0, 0] == pytest.approx(0.3 + 1.0j)

    def test_zero_threshold_gives_signs(self):
        w = np.array([[0.2 - 0.4j, -1.5 + 0.0j]])
        out = soft_clip(w, 0.0)
        assert out[0, 0] == 1.0 - 1.0j
        assert out[0, 1] == -1.0 + 1.0j  # sign(0) = +1

    def test_idempotent_below_one(self):
        rng = np.random.default_rng(81)
        w = 2.5 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        for d in (0.0, 0.4, 1.0):
            once = soft_clip(w, d)
            assert np.allclose(soft_clip(once, d), once)

    def test_output_in_unit_square(self):
        rng = np.random.default_rng(82)
        w = 3.0 * (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        out = soft_clip(w, 0.7)
        assert np.max(np.abs(out.real)) <= 1.0 and np.max(np.abs(out.imag)) <= 1.0

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            soft_clip(np.zeros((1, 1)), -0.1)

    def test_above_one_threshold_is_legal(self):
        w = np.array([[1.2 + 0.1j]])
        assert soft_clip(w, 2.0)[0, 0] == pytest.approx(1.2 + 0.1j)


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
        omega, scale = 0.6, Q.axis_magnitude
        got = detect.im_soft_decode(model, omega, 1, Q)
        w0 = detect.matched_filter_estimate(model)
        op = distortion_operator(model)
        quant = scale * soft_clip(w0 / scale, 0.0)
        assert np.allclose(got, omega * (w0 - op(quant)) + quant, atol=1e-12)

    def test_orthogonal_noiseless_recovers_frame(self):
        rng = np.random.default_rng(84)
        q = modem.qpsk()
        s = random_qpsk_frame(rng, 4, 4)
        a = modem.build_doppler_matrix(1.0, 4)
        b = modem.build_delay_matrix(1.0, 4)
        model = detect.build_effective_model(a, b, a @ s @ b.conj().T)
        w = detect.im_soft_decode(model, 1.0, 10, Q)
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
            w = detect.im_soft_decode(model, 0.5, 40, Q)
            x0 = detect.matched_filter_estimate(model)
            err_soft += int(np.sum(detect.hard_demap(w, q) != s))
            err_matched += int(np.sum(detect.hard_demap(x0, q) != s))
            bits += n * m
        assert err_soft < err_matched

    def test_empty_stack_gives_an_empty_result(self):
        models = detect.refresh_observation(make_model(4, 3, 0.8, 0.85),
                                            np.zeros((0, 4, 3), dtype=complex))
        for omega in (0.5, np.zeros((0, 1, 1))):
            got = detect.im_soft_decode(models, omega, 20, Q)
            assert got.shape == (0, 4, 3) and got.dtype == complex


class TestImSoftFixedPoint:
    """The early exit returns exactly the iterate of the full loop."""

    @staticmethod
    def stack(n, frames, sigma, seed):
        rng = np.random.default_rng(seed)
        a = modem.build_doppler_matrix(0.8, n)
        b = modem.build_delay_matrix(0.8, n)
        s = modem.qpsk().points[rng.integers(0, 4, size=(frames, n, n))]
        noise = rng.normal(size=(2, frames, n, n))
        y = a @ s @ b.conj().T + sigma * (noise[0] + 1j * noise[1])
        return detect.refresh_observation(make_model(n, n, 0.8, 0.8), y)

    @staticmethod
    def counted_steps(monkeypatch):
        """A patch of the operator that hands back each step's clipped
        iterate as ``(B, N, M)`` frames, in frame order."""
        steps = []
        original = detect._stack_operator

        def counting(model, frames):
            op, layout = original(model, frames)

            def counted(s, out):
                steps.append(s.swapaxes(1, 2).reshape(-1, *model.shape)[:frames].copy())
                return op(s, out)

            return counted, layout

        monkeypatch.setattr(detect, "_stack_operator", counting)
        return steps

    @pytest.mark.parametrize("n,frames", [(4, 40), (16, 8)])
    @pytest.mark.parametrize("omega", [0.25, 1.0, 1.2])
    @pytest.mark.parametrize("iterations", [1, 75])
    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_matches_the_loop_without_exit(self, n, frames, omega, iterations, sigma):
        models = self.stack(n, frames, sigma, seed=93 + n)
        want = im_soft_decode_every_step(models, omega, iterations, Q.axis_magnitude)
        assert np.array_equal(detect.im_soft_decode(models, omega, iterations, Q), want)
        # one relaxation factor per frame
        omegas = np.linspace(0.25, 1.2, frames)[:, None, None]
        want = im_soft_decode_every_step(models, omegas, iterations, Q.axis_magnitude)
        assert np.array_equal(detect.im_soft_decode(models, omegas, iterations, Q), want)

    @pytest.mark.parametrize("omega", [0.25, 1.0, 1.2])
    @pytest.mark.parametrize("iterations", [1, 75])
    def test_special_observations_match_bitwise(self, omega, iterations):
        models = self.stack(4, 10, 0.3, seed=96)
        y = models.y_t.copy()
        p = y.view(float)  # (frames, 4, 8)
        p[0] = 0.0
        p[1] = -0.0
        p[2, ::2] = -0.0
        p[3, 1, 3] = np.inf
        p[4, 0, 0] = -np.inf
        p[5, 2, 5] = np.nan
        p[6, 3, 7] = -np.nan
        p[7, 0, :4] = [np.inf, -np.inf, np.nan, -0.0]
        with np.errstate(invalid="ignore", over="ignore"):
            models = detect.refresh_observation(models, y)
            want = im_soft_decode_every_step(models, omega, iterations, Q.axis_magnitude)
            got = detect.im_soft_decode(models, omega, iterations, Q)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.isfinite(got[8:]).all()

    @staticmethod
    def clip_edge_stack():
        """An identity model (``G = H = I``) stacking one 1x1 frame per value
        of ``TestSoftClip.edge_grid(0.5)`` and of a grid of subnormals."""
        tiny = np.array([5e-324, 1e-310, np.nextafter(2.0**-1022, 0.0)])
        tiny = np.concatenate([tiny, -tiny])
        grid = np.empty((len(tiny), len(tiny)), dtype=complex)
        grid.real, grid.imag = tiny[:, None], tiny[None, :]
        values = np.concatenate([TestSoftClip.edge_grid(0.5).ravel(), grid.ravel()])
        return detect.refresh_observation(identity_model(1, 1, np.zeros((1, 1))),
                                          values.reshape(-1, 1, 1))

    @pytest.mark.parametrize("omega", [0.25, 1.0, 1.25])
    def test_clip_at_half_matches_bitwise_on_edge_values(self, omega):
        # axis magnitude 1 and two steps, so step 1 clips the observation at d = 0.5
        models = self.clip_edge_stack()
        with np.errstate(invalid="ignore"):
            want = im_soft_decode_every_step(models, omega, 2, UNIT.axis_magnitude)
            got = detect.im_soft_decode(models, omega, 2, UNIT)
        assert same_bits(got, want)

    def test_first_step_clips_edge_values_as_soft_clip_does(self, monkeypatch):
        # the observation itself is the start, infinities included, where the
        # complex products of the matched filter would turn them into NaNs
        models = self.clip_edge_stack()
        monkeypatch.setattr(detect, "matched_filter_estimate", lambda model: model.y_t.copy())
        steps = self.counted_steps(monkeypatch)
        with np.errstate(invalid="ignore"):
            detect.im_soft_decode(models, 0.5, 2, UNIT)
        # a NaN stays the same NaN, where soft_clip maps it to +1
        p = models.y_t.view(float)
        want = np.where(np.isnan(p), p, soft_clip(models.y_t, 0.5).view(float))
        assert same_bits(steps[0], want.view(complex))

    def test_last_step_clips_edge_values_as_soft_clip_does(self, monkeypatch):
        # one step, so its d = 0, with the observation itself as the start:
        # the matched filter's complex products would turn -0.0 into +0.0
        # and an infinity into NaN
        axis = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 5e-324, -5e-324,
                math.inf, -math.inf, math.nan, -math.nan]
        values = np.array([complex(x, y) for x in axis for y in axis])
        models = detect.refresh_observation(identity_model(1, 1, np.zeros((1, 1))),
                                            values.reshape(-1, 1, 1))
        omegas = np.linspace(0.25, 1.25, len(values))[:, None, None]
        monkeypatch.setattr(detect, "matched_filter_estimate", lambda model: model.y_t.copy())
        steps = self.counted_steps(monkeypatch)
        with np.errstate(invalid="ignore"):
            got = detect.im_soft_decode(models, omegas, 1, UNIT)
            want = im_soft_decode_every_step(models, omegas, 1, UNIT.axis_magnitude)
        # a NaN stays the same NaN, where soft_clip maps it to +1
        p = models.y_t.view(float)
        clip = np.where(np.isnan(p), p, soft_clip(models.y_t, 0.0).view(float))
        assert same_bits(steps[0], clip.view(complex))
        # a NaN axis follows the NaN rule checked above, so compare the rest
        no_nan = ~np.isnan(values.real) & ~np.isnan(values.imag)
        assert same_bits(got[no_nan], want[no_nan])

    def test_noiseless_stack_stops_early(self, monkeypatch):
        models = self.stack(4, 10, 0.0, seed=94)
        want = im_soft_decode_every_step(models, 0.5, 75, Q.axis_magnitude)
        settle = im_soft_settling_step(models, 0.5, 75, Q.axis_magnitude)
        steps = self.counted_steps(monkeypatch)
        assert np.array_equal(detect.im_soft_decode(models, 0.5, 75, Q), want)
        assert len(steps) == settle < 75

    # each step writes the next iterate into the other of two buffers, so
    # a stack that settles at an odd step ends in the other one than at an
    # even step
    @pytest.mark.parametrize("sigma,seed,settle", [
        (0.0, 94, 16), (0.0, 90, 19), (0.2, 100, 56), (0.2, 94, 51),
    ])
    def test_stacks_settling_at_odd_and_even_steps_match_the_full_loop(
        self, sigma, seed, settle, monkeypatch
    ):
        models = self.stack(4, 10, sigma, seed)
        assert im_soft_settling_step(models, 0.5, 75, Q.axis_magnitude) == settle
        steps = self.counted_steps(monkeypatch)
        got = detect.im_soft_decode(models, 0.5, 75, Q)
        assert len(steps) == settle
        assert same_bits(got, im_soft_decode_every_step(models, 0.5, 75, Q.axis_magnitude))

    def test_stack_stops_when_its_last_frame_settles(self, monkeypatch):
        models = self.stack(4, 6, 0.3, seed=95)
        want = im_soft_decode_every_step(models, 0.5, 75, Q.axis_magnitude)
        steps = self.counted_steps(monkeypatch)
        alone = []
        for y in models.y_t:
            model = detect.refresh_observation(models, y)
            detect.im_soft_decode(model, 0.5, 75, Q)
            assert len(steps) == im_soft_settling_step(model, 0.5, 75, Q.axis_magnitude)
            alone.append(len(steps))
            steps.clear()
        assert np.array_equal(detect.im_soft_decode(models, 0.5, 75, Q), want)
        assert len(steps) == max(alone) == im_soft_settling_step(models, 0.5, 75, Q.axis_magnitude)
        assert min(alone) < max(alone) < 75


class TestWideOperator:
    """The ``(chunks, N, b, M)`` iterate, one GEMM per side and chunk, keeps
    every frame's bits."""

    # (float-view index, value) written into one frame's observation: the
    # special observations of TestImSoftFixedPoint
    SPECIALS = (
        (np.s_[:], 0.0),
        (np.s_[:], -0.0),
        (np.s_[::2], -0.0),
        (np.s_[-1, 3], np.inf),
        (np.s_[0, 0], -np.inf),
        (np.s_[1, 5], np.nan),
        (np.s_[-1, -1], -np.nan),
        (np.s_[0, :4], [np.inf, -np.inf, np.nan, -0.0]),
    )
    # the cap at each preset shape: the most frames whose products stay on
    # one BLAS thread
    CAPS = {(4, 4): 1023, (16, 8): 31, (16, 16): 15}

    @pytest.fixture(autouse=True)
    def fresh_checks(self):
        """Clear the width check's cached verdicts before and after each test:
        one that patches the products the check compares leaves its own
        verdicts behind, and one that counts the check's runs needs none."""
        detect._width_keeps_bits.cache_clear()
        yield
        detect._width_keeps_bits.cache_clear()

    @staticmethod
    def stack(n, m, frames, sigma, seed, specials=()):
        rng = np.random.default_rng(seed)
        base = make_model(n, m, 0.8, 0.85)
        s = modem.qpsk().points[rng.integers(0, 4, size=(frames, n, m))]
        noise = rng.normal(size=(2, frames, n, m))
        y = base.g @ s @ base.h.conj().T + sigma * (noise[0] + 1j * noise[1])
        for frame, kind in specials:
            index, value = TestWideOperator.SPECIALS[kind]
            y[frame % frames].view(float)[index] = value
        with np.errstate(invalid="ignore", over="ignore"):
            return detect.refresh_observation(base, y)

    @staticmethod
    def cap(n, m):
        """The most frames whose products stay below 2^16."""
        return (detect.SERIAL_GEMM_MNK - 1) // (n * m * max(n, m))

    @staticmethod
    def forced_chunks(keeps=True):
        """Make the width check's verdict ``keeps`` at every width: with
        ``True`` every frame shape runs chunked, at the cap of the one-thread
        bound, and with ``False`` as chunks of one frame."""
        return mock.patch.object(detect, "_width_keeps_bits", lambda n, m, width: keeps)

    @staticmethod
    def layout(frames, cap):
        """The fewest chunks of at most ``cap`` frames, as even as they can be."""
        chunks = math.ceil(frames / cap)
        return chunks, math.ceil(frames / chunks)

    @staticmethod
    def recorded_paths():
        """A patch of the operator choice, and the list of its frame counts
        and the chunk layout of each decode under the patch, in call order."""
        paths = []
        original = detect._stack_operator

        def recording(model, frames):
            op, layout = original(model, frames)
            paths.append((frames, layout))
            return op, layout

        return mock.patch.object(detect, "_stack_operator", recording), paths

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        shape=st.sampled_from([(4, 4), (2, 4), (8, 16), (16, 16)]),
        data=st.data(),
        iterations=st.integers(1, 20),
        sigma=st.sampled_from([0.0, 0.3, 1.0]),
        specials=st.lists(st.tuples(st.integers(0, 511), st.integers(0, 7)), max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_equals_frames_decoded_alone(
        self, shape, data, iterations, sigma, specials, seed
    ):
        n, m = shape
        bound = modem.STACK_ENTRIES // (n * m)
        frames = data.draw(st.one_of(st.just(bound), st.integers(1, bound)), label="frames")
        models = self.stack(n, m, frames, sigma, seed, specials)
        omegas = np.random.default_rng(seed).uniform(0.2, 1.3, size=(frames, 1, 1))
        cap = self.cap(n, m)
        recording, paths = self.recorded_paths()
        with self.forced_chunks(), np.errstate(invalid="ignore", over="ignore"):
            with recording:
                stacked = detect.im_soft_decode(models, omegas, iterations, Q)
            assert paths == [(frames, self.layout(frames, cap))]
            want = im_soft_decode_every_step(models, omegas, iterations, Q.axis_magnitude)
            assert same_bits(stacked, want)
            for y, omega, w in zip(models.y_t, omegas, stacked):
                model = detect.refresh_observation(models, y)
                assert same_bits(detect.im_soft_decode(model, omega, iterations, Q), w)

    # a round of 16 rows is cut into 2 or 3 chunks, the last one padded
    @pytest.mark.parametrize("n,m,frames,chunks,width", [
        (16, 16, 16, 2, 8), (16, 16, 20, 2, 10), (16, 16, 31, 3, 11), (16, 16, 32, 3, 11),
        (16, 8, 32, 2, 16), (16, 8, 40, 2, 20), (16, 8, 63, 3, 21), (16, 8, 64, 3, 22),
    ])
    def test_full_rounds_run_in_chunks_with_each_frames_bits(self, n, m, frames, chunks, width):
        # on this machine's BLAS; every third frame noiseless (+inf dB), and
        # specials in the first, a middle and the last frame, which pads
        sigma = np.where(np.arange(frames) % 3, 0.4, 0.0)[:, None, None]
        specials = [(0, 7), (frames // 2, 3), (frames - 1, 5)]
        models = self.stack(n, m, frames, sigma, seed=frames + n * m, specials=specials)
        omegas = np.linspace(0.25, 1.0, frames)[:, None, None]
        recording, paths = self.recorded_paths()
        with np.errstate(invalid="ignore", over="ignore"):
            with recording:
                stacked = detect.im_soft_decode(models, omegas, 75, Q)
            assert paths == [(frames, (chunks, width))]
            want = im_soft_decode_every_step(models, omegas, 75, Q.axis_magnitude)
            assert same_bits(stacked, want)
            for y, omega, w in zip(models.y_t, omegas, stacked):
                model = detect.refresh_observation(models, y)
                assert same_bits(detect.im_soft_decode(model, omega, 75, Q), w)
        assert np.isnan(stacked[frames - 1]).all() and np.isfinite(stacked[1]).all()

    def test_every_product_stays_on_one_blas_thread(self, monkeypatch):
        # counted from the operands' shapes, with no BLAS call: numpy runs a
        # stacked product as one GEMM per stacked matrix
        products = []

        class Gemms(np.ndarray):
            """An operand that records each GEMM of a product with it into
            a given output, and runs none."""

            def __array_ufunc__(self, ufunc, method, *inputs, out):
                assert ufunc is np.matmul and method == "__call__"
                a, b = (np.asarray(x) for x in inputs)
                (rows, inner), (inner_b, cols) = a.shape[-2:], b.shape[-2:]
                assert inner == inner_b
                products.append(rows * inner * cols)
                lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
                assert out[0].shape == lead + (rows, cols)
                return out[0]

        monkeypatch.setattr(detect, "_width_keeps_bits", lambda n, m, width: True)
        monkeypatch.setattr(detect, "_gram_matrices", lambda model: (
            np.empty((model.shape[0],) * 2, complex).view(Gemms),
            np.empty((model.shape[1],) * 2, complex).view(Gemms),
        ))
        shapes = {(cfg.n, cfg.m) for cfg in harness.PRESETS.values()}
        assert shapes == set(self.CAPS)
        for n, m in sorted(shapes):
            cap = self.CAPS[n, m]
            assert detect._chunk_cap(n, m) == cap
            model = make_model(n, m, 0.8, 0.85)
            budget = modem.STACK_ENTRIES // (n * m)
            for frames in range(1, 4 * budget + 1):
                op, (chunks, width) = detect._stack_operator(model, frames)
                assert (chunks, width) == self.layout(frames, cap)
                products.clear()
                x = np.empty((chunks, n, width, m), dtype=complex)
                assert op(x, np.empty_like(x)).shape == x.shape
                assert products == [n * n * width * m, n * width * m * m]
                assert max(products) < detect.SERIAL_GEMM_MNK
            # one frame more would reach the bound
            assert n * (cap + 1) * m * max(n, m) >= detect.SERIAL_GEMM_MNK

    # shapes with N < 2 or M % 4 != 0, whose widths above 1 differ on
    # OpenBLAS 0.3.31's Haswell kernel, all but 1x1 and 1x4, which run wide
    @pytest.mark.parametrize("n,m", [(1, 4), (1, 16), (3, 5), (4, 3), (1, 1), (2, 2)])
    def test_the_width_check_alone_picks_the_layout(self, n, m, monkeypatch):
        # the check's verdict on this machine's BLAS, then a failing one
        for keeps in (detect._width_keeps_bits, lambda n, m, width: False):
            checked = []
            monkeypatch.setattr(detect, "_width_keeps_bits",
                                lambda n, m, width: checked.append(width) or keeps(n, m, width))
            # None stands for a model of one (N, M) frame
            for frames in (1, 3, 40, None):
                models = self.stack(n, m, frames or 1, 0.3, seed=97)
                if frames is None:
                    models = detect.refresh_observation(models, models.y_t[0])
                omegas = np.linspace(0.25, 1.2, frames or 1).reshape(
                    models.y_t.shape[:-2] + (1, 1))
                recording, paths = self.recorded_paths()
                with recording:
                    got = detect.im_soft_decode(models, omegas, 20, Q)
                b = frames or 1
                assert paths == [(b, (1, b) if b > 1 and keeps(n, m, b) else (b, 1))]
                want = im_soft_decode_every_step(models, omegas, 20, Q.axis_magnitude)
                assert same_bits(got, want)
                for y, omega, w in zip(models.y_t.reshape(-1, n, m), omegas.reshape(-1, 1, 1),
                                       got.reshape(-1, n, m)):
                    model = detect.refresh_observation(models, y)
                    assert same_bits(detect.im_soft_decode(model, omega, 20, Q), w)
            # each stack's width above 1 was checked, and nothing else
            assert checked == [3, 40]

    # the widest chunk a round runs: a whole round at 4x4; at 16 rows the
    # most frames whose products stay on one BLAS thread
    @pytest.mark.parametrize("n,m,bound", [(4, 4, 512), (16, 8, 31), (16, 16, 15)])
    def test_check_accepts_the_preset_shapes(self, n, m, bound, monkeypatch):
        # on this machine's BLAS: one chunk of each width a round can run
        sizes = []
        original = detect._chunked_operator

        def sized(gtg, hth, chunks, width):
            op = original(gtg, hth, chunks, width)
            return lambda x, out: sizes.append((chunks, x.size)) or op(x, out)

        monkeypatch.setattr(detect, "_chunked_operator", sized)
        assert min(modem.STACK_ENTRIES // (n * m), detect._chunk_cap(n, m)) == bound
        widths = range(2, bound + 1)
        assert all(detect._width_keeps_bits(n, m, width) for width in widths)
        assert sizes == [(1, width * n * m) for width in widths]

    def test_each_width_that_runs_is_checked_once(self, monkeypatch):
        # the (N, M, width) the check ran, leaving out the calls its cache
        # answered
        checked = []
        original = detect._width_keeps_bits

        def counted(n, m, width):
            misses = original.cache_info().misses
            verdict = original(n, m, width)
            if original.cache_info().misses > misses:
                checked.append((n, m, width))
            return verdict

        monkeypatch.setattr(detect, "_width_keeps_bits", counted)
        # mixed stack sizes, some repeated; at 16x16 some cut into chunks
        sizes = {(4, 4): [1, 2, 37, 2, 512, 1, 37, 300, 9, 512],
                 (16, 16): [1, 15, 16, 32, 7, 15, 20, 1, 32]}
        recording, paths = self.recorded_paths()
        ran = []
        with recording:
            for (n, m), counts in sizes.items():
                for frames in counts:
                    models = self.stack(n, m, frames, 0.3, seed=frames + n)
                    detect.im_soft_decode(models, 0.5, 3, Q)
                    ran.append((n, m, self.layout(frames, self.cap(n, m))[1]))
        # each stack ran at the width of its cap, or as chunks of one frame
        # where its width failed the check
        for (n, m, _), (frames, layout) in zip(ran, paths, strict=True):
            assert layout in [self.layout(frames, self.cap(n, m)), (frames, 1)]
        # the widths above 1 that ran, each checked once, and no width 1
        assert sorted(checked) == sorted({key for key in ran if key[2] > 1})

    def test_a_width_that_fails_its_check_runs_as_chunks_of_one(self, monkeypatch):
        # a BLAS kernel that sums a chunk of 37 frames in another order
        original = detect._chunked_operator

        def skewed(gtg, hth, chunks, width):
            op = original(gtg, hth, chunks, width)

            def skew(x, out):
                return np.multiply(op(x, out), 1 + 2**-52, out=out)

            return skew if width == 37 else op

        monkeypatch.setattr(detect, "_chunked_operator", skewed)
        recording, paths = self.recorded_paths()
        for frames in (37, 36):
            models = self.stack(4, 4, frames, 0.3, seed=101)
            omegas = np.linspace(0.25, 1.2, frames)[:, None, None]
            with recording:
                got = detect.im_soft_decode(models, omegas, 75, Q)
            assert same_bits(got, im_soft_decode_every_step(models, omegas, 75, Q.axis_magnitude))
        assert paths == [(37, (37, 1)), (36, (1, 36))]

    def test_cap_of_one_gives_the_forced_caps_bits(self, monkeypatch):
        models = self.stack(4, 4, 50, 0.3, seed=98)
        omegas = np.linspace(0.25, 1.2, 50)[:, None, None]
        recording, paths = self.recorded_paths()
        with recording:
            with self.forced_chunks():
                chunked = detect.im_soft_decode(models, omegas, 75, Q)
            monkeypatch.setattr(detect, "_chunk_cap", lambda n, m: 1)
            one_each = detect.im_soft_decode(models, omegas, 75, Q)
        assert paths == [(50, (1, 50)), (50, (50, 1))]
        assert same_bits(chunked, one_each)

    @pytest.mark.parametrize("m,chunked", [(4, True), (3, False)], ids=["wide", "refused"])
    def test_omega_shape_is_checked_on_both_layouts(self, m, chunked):
        models = self.stack(4, m, 6, 0.3, seed=100)
        one = detect.refresh_observation(models, models.y_t[0])
        recording, paths = self.recorded_paths()
        bad = [(models, (6,)), (models, (6, 1)), (models, (1, 1, 1)), (one, (1, 1, 1)),
               (one, (1,))]
        with recording:
            for model, shape in bad:
                want = f"omega must be a scalar or shaped {model.y_t.shape[:-2] + (1, 1)}, "
                with pytest.raises(ValueError, match=re.escape(f"{want}got {shape}")):
                    detect.im_soft_decode(model, np.full(shape, 0.5), 20, Q)
        assert paths == []
        # one factor per frame gives each frame the bits of a scalar omega
        with self.forced_chunks(chunked), recording:
            for model, shape in [(models, (6, 1, 1)), (one, (1, 1))]:
                got = detect.im_soft_decode(model, np.full(shape, 0.5), 20, Q)
                assert same_bits(got, detect.im_soft_decode(model, 0.5, 20, Q))
        six = (1, 6) if chunked else (6, 1)
        assert paths == [(6, six), (6, six), (1, (1, 1)), (1, (1, 1))]

    def test_stack_above_the_cap_runs_in_balanced_chunks(self, monkeypatch):
        monkeypatch.setattr(detect, "SERIAL_GEMM_MNK", 257)  # four 4x4 frames
        models = self.stack(4, 4, 5, 0.0, seed=99)
        head = detect.refresh_observation(models, models.y_t[:4])
        omegas = np.linspace(0.25, 1.0, 5)[:, None, None]
        steps = TestImSoftFixedPoint.counted_steps(monkeypatch)
        recording, paths = self.recorded_paths()
        with recording:
            got = detect.im_soft_decode(models, omegas, 75, Q)
            # the copy of the last frame that fills the last chunk settles
            # with it, so the stack stops when the unpadded one would
            assert len(steps) == im_soft_settling_step(models, omegas, 75, Q.axis_magnitude) < 75
            head_got = detect.im_soft_decode(head, omegas[:4], 75, Q)
        # two chunks of three frames, the last frame twice
        assert paths == [(5, (2, 3)), (4, (1, 4))]
        assert same_bits(got, im_soft_decode_every_step(models, omegas, 75, Q.axis_magnitude))
        assert same_bits(head_got, got[:4])


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
