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
from oracles import im_soft_decode_every_step, im_soft_settling_step, same_bits, soft_clip



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
    return modem.POINTS[rng.integers(0, 4, size=(n, m))]


def all_qpsk_frames(n, m):
    """Every QPSK frame, in ``itertools.product`` order over the entries."""
    digits = np.indices((4,) * (n * m)).reshape(n * m, -1).T
    return modem.POINTS[digits].reshape(-1, n, m)


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

    def test_refresh_equals_a_fresh_build_and_is_never_stale(self):
        # u is computed on first read, so read it before each refresh: a
        # refreshed model must not keep the u of the model it came from, nor
        # of its pickled copy, which is how a sweep's child process gets the
        # base model when it spawns; a child that forks inherits it unpickled
        rng = np.random.default_rng(66)
        model = make_model(3, 2, 0.9, 0.9, y=rng.normal(size=(3, 2)) + 0j)
        y = rng.normal(size=(4, 3, 2)) + 1j * rng.normal(size=(4, 3, 2))
        direct = [make_model(3, 2, 0.9, 0.9, y=frame) for frame in y]
        base_u = model.u
        for base in (model, pickle.loads(pickle.dumps(model))):
            assert same_bits(base.u, base_u)
            one = detect.refresh_observation(base, y[0])
            assert same_bits(one.u, direct[0].u) and np.array_equal(one.r, direct[0].r)
            # a stack keeps the frame shape, and each frame's u is its own
            stacked = detect.refresh_observation(base, y)
            assert stacked.shape == (3, 2)
            assert same_bits(stacked.u, np.array([frame.u for frame in direct]))
        with pytest.raises(ValueError):
            detect.refresh_observation(model, y[..., :1])


class TestObjectiveAndPartialMetric:
    def test_zero_frame_gives_observation_energy(self):
        rng = np.random.default_rng(65)
        y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        model = make_model(4, 4, 0.8, 0.8, y=y)
        assert detect.total_objective(model, np.zeros((4, 4))) == pytest.approx(
            float(np.sum(np.abs(y) ** 2)), rel=1e-12
        )

    @pytest.mark.parametrize("r", range(3))
    @pytest.mark.parametrize("c", range(3))
    def test_identity_factor_metric(self, r, c):
        rng = np.random.default_rng(66)
        y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        model = identity_model(3, 3, y)
        s = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
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

    def test_one_frame_sums_like_a_stack_of_one(self):
        rng = np.random.default_rng(69)
        y = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        model = make_model(3, 4, 0.8, 0.7, y=y)
        s = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        one = detect.total_objective(model, s)
        stack = detect.total_objective(detect.refresh_observation(model, y[None]), s[None])
        assert one.shape == () and stack.shape == (1,) and same_bits(one, stack[0])

    def test_frame_of_another_shape_refused(self):
        model = make_model(3, 4, 0.8, 0.7)
        wrong = np.zeros((4, 3))
        with pytest.raises(ValueError, match=r"observation shape \(4, 3\) does not match \(3, 4\)"):
            detect.build_effective_model(model.g, model.h, wrong)
        with pytest.raises(ValueError, match=r"frame shape \(4, 3\) does not match \(3, 4\)"):
            detect.total_objective(model, wrong)
        with pytest.raises(ValueError, match=r"frame shape \(4, 3\) does not match \(3, 4\)"):
            detect.partial_metric(model, wrong, 0, 0)


class TestWavefrontSchedule:
    @pytest.mark.parametrize("n,m,order", [
        (1, 1, [(0, 0)]),
        (2, 2, [(1, 1), (1, 0), (0, 1), (0, 0)]),
        (2, 3, [(1, 2), (1, 1), (0, 2), (0, 1), (1, 0), (0, 0)]),
        (3, 2, [(2, 1), (2, 0), (1, 1), (1, 0), (0, 1), (0, 0)]),
    ], ids=["1x1", "2x2", "wide", "tall"])
    def test_order(self, n, m, order):
        assert detect.wavefront_schedule(n, m) == order

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("m", range(1, 9))
    def test_permutation_and_dependency_soundness(self, n, m):
        assert properties.check_schedule_soundness(n, m) == 0.0

    @pytest.mark.parametrize("order", [
        [(1, 1), (1, 0), (1, 0), (0, 0)],
        [(0, 0), (1, 1), (1, 0), (0, 1)],
    ], ids=["repeats_a_cell", "origin_first"])
    def test_soundness_check_refuses_a_bad_schedule(self, order, monkeypatch):
        monkeypatch.setattr(detect, "wavefront_schedule", lambda n, m: order)
        assert properties.check_schedule_soundness(2, 2) == 1.0


class TestSd2dUpdate:
    """The per-cell survivor update, seen through whole decodes."""

    def test_greedy_identity_factors_round_to_nearest(self):
        rng = np.random.default_rng(69)
        y = 0.8 * random_qpsk_frame(rng, 2, 2) + 0.05 * (
            rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        )
        model = identity_model(2, 2, y)
        s_hat, _, _ = detect.sd2d_decode(model, k_list=1)
        assert np.array_equal(s_hat, detect.hard_demap(y))

    def test_1x1_scalar_argmin(self):
        y = np.array([[0.4 - 0.2j]])
        model = make_model(1, 1, 0.9, 0.9, y=y)
        s_hat, loss, _ = detect.sd2d_decode(model, k_list=4)
        objs = [abs(y[0, 0] - model.g[0, 0] * p * np.conj(model.h[0, 0])) ** 2
                for p in modem.POINTS]
        assert loss == pytest.approx(min(objs), rel=1e-12)
        assert s_hat[0, 0] == modem.POINTS[int(np.argmin(objs))]

    def test_k16_matches_brute_force_on_seeded_batch(self):
        rng = np.random.default_rng(90)
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
            _, loss, _ = detect.sd2d_decode(model, k_list=16)
            objs = [detect.total_objective(model, f) for f in frames]
            assert loss == pytest.approx(min(objs), rel=1e-10)

    def test_full_k_list_is_exhaustive_on_rectangular_frame(self):
        # with k_list = |A|^(N*M) the search provably enumerates every frame
        rng = np.random.default_rng(91)
        n, m = 2, 3
        a = modem.build_doppler_matrix(0.8, n)
        b = modem.build_delay_matrix(0.7, m)
        s = random_qpsk_frame(rng, n, m)
        y = a @ s @ b.conj().T + 0.4 * (rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)))
        model = detect.build_effective_model(a, b, y)
        _, loss, _ = detect.sd2d_decode(model, k_list=4 ** (n * m))
        objs = [detect.total_objective(model, f) for f in all_qpsk_frames(n, m)]
        assert loss == pytest.approx(min(objs), rel=1e-10)


class TestSd2dDecode:
    # each k_list decodes the frame it drew from one seeded stream before
    @pytest.mark.parametrize("draw,k_list", [(0, 1), (1, 4), (2, 16)])
    def test_noiseless_exact_recovery(self, draw, k_list):
        rng = np.random.default_rng(72)
        s = [random_qpsk_frame(rng, 4, 4) for _ in range(draw + 1)][-1]
        a = modem.build_doppler_matrix(0.8, 4)
        b = modem.build_delay_matrix(0.8, 4)
        model = detect.build_effective_model(a, b, a @ s @ b.conj().T)
        s_hat, loss, _ = detect.sd2d_decode(model, k_list=k_list)
        assert np.array_equal(s_hat, s)
        assert loss < 1e-18

    def test_k_best_monotonicity_on_seeded_batch(self):
        rng = np.random.default_rng(74)
        a = modem.build_doppler_matrix(0.775, 4)
        b = modem.build_delay_matrix(0.775, 4)
        base = detect.build_effective_model(a, b, np.zeros((4, 4), dtype=complex))
        for _ in range(50):
            s = random_qpsk_frame(rng, 4, 4)
            y = a @ s @ b.conj().T + 0.3 * (
                rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            )
            model = detect.refresh_observation(base, y)
            _, loss1, _ = detect.sd2d_decode(model, k_list=1)
            _, loss8, _ = detect.sd2d_decode(model, k_list=8)
            assert loss8 <= loss1 + 1e-12

    def test_tiny_radius_still_returns(self):
        rng = np.random.default_rng(76)
        y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        model = make_model(2, 2, 0.9, 0.9, y=y)
        s_hat, loss, _ = detect.sd2d_decode(model, k_list=4, radius_sq=1e-12)
        assert np.all(np.isin(s_hat.reshape(-1), modem.POINTS))
        assert np.isfinite(loss)

    @pytest.mark.parametrize("radius_sq", [-1.0, math.nan])
    def test_rejects_bad_radius(self, radius_sq):
        model = make_model(2, 2, 0.9, 0.9)
        with pytest.raises(ValueError, match="radius_sq"):
            detect.sd2d_decode(model, k_list=4, radius_sq=radius_sq)


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
        a = modem.build_doppler_matrix(0.8, n)
        b = modem.build_delay_matrix(0.75, m)
        y = a @ random_qpsk_frame(rng, n, m) @ b.conj().T + 0.5 * (
            rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        )
        model = detect.build_effective_model(a, b, y)
        initial = None
        if with_initial:
            initial = detect.hard_demap(detect.matched_filter_estimate(model))
        s_hat, loss, _ = detect.sd2d_decode(model, k_list=k_list, initial=initial)
        assert loss == pytest.approx(detect.total_objective(model, s_hat), rel=1e-10)
        assert np.all(np.isin(s_hat.reshape(-1), modem.POINTS))
        if initial is not None:
            assert loss <= detect.total_objective(model, initial) * (1 + 1e-9)
        frames = all_qpsk_frames(n, m)
        brute = np.sum(np.abs(y - a @ frames @ b.conj().T) ** 2, axis=(1, 2)).min()
        _, full_loss, _ = detect.sd2d_decode(model, k_list=4 ** (n * m), initial=initial)
        assert full_loss == pytest.approx(brute, rel=1e-10)


class TestStackedSd2d:
    """A stacked decode gives each frame exactly what it gets alone."""

    @staticmethod
    def assert_frames_decode_alone(stacked, models, k_list, radius_sq, initial):
        s_hat, loss, counter = stacked
        assert s_hat.shape == models.y_t.shape and loss.shape == (len(models.y_t),)
        assert counter.mults.shape == counter.adds.shape == loss.shape
        assert counter.mults.dtype.kind == counter.adds.dtype.kind == "i"
        assert counter.total == sum(int(x) + int(y) for x, y in zip(counter.mults, counter.adds))
        assert type(counter.total) is int
        for i, y in enumerate(models.y_t):
            alone = detect.refresh_observation(models, y)
            s_1, loss_1, counter_1 = detect.sd2d_decode(
                alone, k_list,
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
        # SURVIVOR_ENTRIES then holds the survivors of `chunk` frames, so the
        # stack is decoded in the fewest chunks of at most that many frames,
        # all as wide as the first but the last, which may hold fewer
        entries = detect.SURVIVOR_ENTRIES
        if chunk is not None:
            entries = chunk * min(k_list, 4 ** (n * m)) * n * m
        rng = np.random.default_rng(seed)
        a = modem.build_doppler_matrix(0.8, n)
        b = modem.build_delay_matrix(0.75, m)
        s = modem.POINTS[rng.integers(0, 4, size=(len(sigmas), n, m))]
        noise = rng.normal(size=(2, len(sigmas), n, m))
        y = a @ s @ b.conj().T + np.array(sigmas)[:, None, None] * (noise[0] + 1j * noise[1])
        models = detect.refresh_observation(make_model(n, m, 0.8, 0.75), y)
        initial = None
        if with_initial:
            initial = detect.hard_demap(detect.matched_filter_estimate(models))
        with mock.patch.object(detect, "SURVIVOR_ENTRIES", entries):
            stacked = detect.sd2d_decode(models, k_list, radius_sq=radius_sq, initial=initial)
        self.assert_frames_decode_alone(stacked, models, k_list, radius_sq, initial)

    def test_estimates_hold_no_survivors(self):
        rng = np.random.default_rng(93)
        y = rng.normal(size=(8, 4, 4)) + 1j * rng.normal(size=(8, 4, 4))
        models = detect.refresh_observation(make_model(4, 4, 0.8, 0.8), y)
        for model in (models, detect.refresh_observation(models, y[0])):
            s_hat = detect.sd2d_decode(model, 16)[0]
            owner = s_hat if s_hat.base is None else s_hat.base
            assert owner.size <= s_hat.size

    @pytest.mark.parametrize("frames,widths", [
        (512, [64] * 8), (100, [50, 50]), (65, [33, 32]), (1, [1]), (0, []),
    ])
    def test_chunks_are_balanced_within_the_survivor_budget(self, frames, widths, monkeypatch):
        # at 4x4 with k_list = 16, SURVIVOR_ENTRIES holds the survivors of 64
        # frames; a stack runs in the fewest chunks of at most 64 frames
        original, seen = detect._kbest, []

        def recorded(model, u, k_list, radius_sq):
            seen.append(len(u))
            return original(model, u, k_list, radius_sq)

        monkeypatch.setattr(detect, "_kbest", recorded)
        rng = np.random.default_rng(95)
        y = rng.normal(size=(frames, 4, 4)) + 1j * rng.normal(size=(frames, 4, 4))
        models = detect.refresh_observation(make_model(4, 4, 0.8, 0.8), y)
        s_hat, loss, counter = detect.sd2d_decode(models, 16)
        assert seen == widths
        assert s_hat.shape == y.shape and loss.shape == counter.mults.shape == (frames,)

    def test_memory_does_not_grow_with_the_stack(self):
        # 64 frames of 16 survivors fill one chunk at 4x4; 512 frames take 8
        rng = np.random.default_rng(94)
        y = rng.normal(size=(512, 4, 4)) + 1j * rng.normal(size=(512, 4, 4))
        models = detect.refresh_observation(make_model(4, 4, 0.8, 0.8), y)
        small = detect.refresh_observation(models, y[:64])

        def traced_peak(model):
            tracemalloc.start()
            try:
                detect.sd2d_decode(model, 16)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(models) < 2 * traced_peak(small)

    def test_one_frame_pruned_by_its_radius(self):
        # frame 1's zero radius prunes every child at every cell, so it keeps
        # one survivor throughout; the infinite radii of frames 0 and 2 keep
        # k_list survivors
        rng = np.random.default_rng(92)
        y = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        models = detect.refresh_observation(make_model(4, 4, 0.8, 0.8), y)
        radius_sq = np.array([math.inf, 0.0, math.inf])
        stacked = detect.sd2d_decode(models, 4, radius_sq=radius_sq)
        self.assert_frames_decode_alone(stacked, models, 4, radius_sq, None)
        single = detect.predicted_complexity(4, 4)
        counter = stacked[2]
        assert (counter.mults[1], counter.adds[1]) == (single.mults, single.adds)
        assert counter.mults[0] > single.mults and counter.mults[2] > single.mults

    def test_nan_frame_falls_back_to_its_first_child(self):
        # every child of the NaN frame is NaN, like the padding; it still
        # keeps one real survivor, and its neighbour decodes as alone
        y = np.array([np.full((2, 2), np.nan + 0j), 0.7 * np.ones((2, 2))])
        models = detect.refresh_observation(make_model(2, 2, 1.0, 1.0), y)
        s_hat, loss, counter = detect.sd2d_decode(models, 4)
        assert np.array_equal(s_hat[0], np.full((2, 2), modem.POINTS[0]))
        assert np.isnan(loss[0])
        self.assert_frames_decode_alone((s_hat, loss, counter), models, 4, None, None)


class TestMatchedFilter:
    @pytest.mark.parametrize("alpha,seed", [(1.0, 77), (0.8, 78)])
    def test_equals_the_gram_products(self, alpha, seed):
        s = random_qpsk_frame(np.random.default_rng(seed), 4, 4)
        a = modem.build_doppler_matrix(alpha, 4)
        b = modem.build_delay_matrix(alpha, 4)
        model = detect.build_effective_model(a, b, a @ s @ b.conj().T)
        # the unitary case gives the frame back
        expect = s if alpha == 1.0 else (a.conj().T @ a) @ s @ (b.conj().T @ b)
        assert np.allclose(detect.matched_filter_estimate(model), expect, atol=1e-12)
        zero = detect.refresh_observation(model, np.zeros((4, 4), dtype=complex))
        assert np.all(detect.matched_filter_estimate(zero) == 0)


class TestImSoftDecode:
    def test_orthogonal_noiseless_recovers_frame(self):
        rng = np.random.default_rng(84)
        s = random_qpsk_frame(rng, 4, 4)
        a = modem.build_doppler_matrix(1.0, 4)
        b = modem.build_delay_matrix(1.0, 4)
        model = detect.build_effective_model(a, b, a @ s @ b.conj().T)
        w = detect.im_soft_decode(model, 1.0, 10)
        assert np.array_equal(detect.hard_demap(w), s)

    def test_beats_matched_filter_on_noisy_batch(self):
        # seeded Monte-Carlo comparison against the one-shot baseline
        rng = np.random.default_rng(85)
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
            err_soft += int(np.sum(detect.hard_demap(w) != s))
            err_matched += int(np.sum(detect.hard_demap(x0) != s))
            bits += n * m
        assert err_soft < err_matched

    @pytest.mark.parametrize("omega", [0.5, np.zeros((0, 1, 1))], ids=["scalar", "per_frame"])
    def test_empty_stack_gives_an_empty_result(self, omega):
        models = detect.refresh_observation(make_model(4, 3, 0.8, 0.85),
                                            np.zeros((0, 4, 3), dtype=complex))
        got = detect.im_soft_decode(models, omega, 20)
        assert got.shape == (0, 4, 3) and got.dtype == complex


class TestImSoftFixedPoint:
    """The early exit returns exactly the iterate of the full loop."""

    @staticmethod
    def stack(n, frames, sigma, seed):
        rng = np.random.default_rng(seed)
        a = modem.build_doppler_matrix(0.8, n)
        b = modem.build_delay_matrix(0.8, n)
        s = modem.POINTS[rng.integers(0, 4, size=(frames, n, n))]
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
        want = im_soft_decode_every_step(models, omega, iterations, modem.AXIS_MAGNITUDE)
        assert np.array_equal(detect.im_soft_decode(models, omega, iterations), want)
        # one relaxation factor per frame
        omegas = np.linspace(0.25, 1.2, frames)[:, None, None]
        want = im_soft_decode_every_step(models, omegas, iterations, modem.AXIS_MAGNITUDE)
        assert np.array_equal(detect.im_soft_decode(models, omegas, iterations), want)

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
            want = im_soft_decode_every_step(models, omega, iterations, modem.AXIS_MAGNITUDE)
            got = detect.im_soft_decode(models, omega, iterations)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.isfinite(got[8:]).all()

    @staticmethod
    def clip_edge_stack():
        """An identity model (``G = H = I``) stacking one 1x1 frame per pairing
        of axis values at and around the clip level 0.5, and per pairing of
        subnormals."""
        edge = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]
        for v in (0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, math.inf)):
            edge += [v, -v]
        tiny = np.array([5e-324, 1e-310, np.nextafter(2.0**-1022, 0.0)])
        values = []
        for axis in (np.array(edge), np.concatenate([tiny, -tiny])):
            grid = np.empty((len(axis), len(axis)), dtype=complex)
            grid.real, grid.imag = axis[:, None], axis[None, :]
            values.append(grid.ravel())
        return detect.refresh_observation(identity_model(1, 1, np.zeros((1, 1))),
                                          np.concatenate(values).reshape(-1, 1, 1))

    @pytest.mark.parametrize("omega", [0.25, 1.0, 1.25])
    def test_clip_at_half_matches_bitwise_on_edge_values(self, omega, monkeypatch):
        # axis magnitude 1 and two steps, so step 1 clips the observation at d = 0.5
        monkeypatch.setattr(modem, "AXIS_MAGNITUDE", 1.0)
        models = self.clip_edge_stack()
        with np.errstate(invalid="ignore"):
            want = im_soft_decode_every_step(models, omega, 2, 1.0)
            got = detect.im_soft_decode(models, omega, 2)
        assert same_bits(got, want)

    def test_first_step_clips_edge_values_as_soft_clip_does(self, monkeypatch):
        # the observation itself is the start, infinities included, where the
        # complex products of the matched filter would turn them into NaNs
        models = self.clip_edge_stack()
        monkeypatch.setattr(modem, "AXIS_MAGNITUDE", 1.0)
        monkeypatch.setattr(detect, "matched_filter_estimate", lambda model: model.y_t.copy())
        steps = self.counted_steps(monkeypatch)
        with np.errstate(invalid="ignore"):
            detect.im_soft_decode(models, 0.5, 2)
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
        monkeypatch.setattr(modem, "AXIS_MAGNITUDE", 1.0)
        monkeypatch.setattr(detect, "matched_filter_estimate", lambda model: model.y_t.copy())
        steps = self.counted_steps(monkeypatch)
        with np.errstate(invalid="ignore"):
            got = detect.im_soft_decode(models, omegas, 1)
            want = im_soft_decode_every_step(models, omegas, 1, 1.0)
        # a NaN stays the same NaN, where soft_clip maps it to +1
        p = models.y_t.view(float)
        clip = np.where(np.isnan(p), p, soft_clip(models.y_t, 0.0).view(float))
        assert same_bits(steps[0], clip.view(complex))
        # a NaN axis follows the NaN rule checked above, so compare the rest
        no_nan = ~np.isnan(values.real) & ~np.isnan(values.imag)
        assert same_bits(got[no_nan], want[no_nan])

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
        assert im_soft_settling_step(models, 0.5, 75, modem.AXIS_MAGNITUDE) == settle
        steps = self.counted_steps(monkeypatch)
        got = detect.im_soft_decode(models, 0.5, 75)
        assert len(steps) == settle
        assert same_bits(got, im_soft_decode_every_step(models, 0.5, 75, modem.AXIS_MAGNITUDE))

    # a cap of 4 frames cuts 5 into 2 chunks of 3, the last padded with a
    # copy of the last frame, which settles with it
    @pytest.mark.parametrize("frames,serial_mnk", [(6, None), (5, 257)],
                             ids=["one_chunk", "padded_chunks"])
    def test_stack_stops_when_its_last_frame_settles(self, frames, serial_mnk, monkeypatch):
        if serial_mnk is not None:
            monkeypatch.setattr(detect, "SERIAL_GEMM_MNK", serial_mnk)
        models = self.stack(4, 6, 0.3, seed=95)
        models = detect.refresh_observation(models, models.y_t[:frames])
        want = im_soft_decode_every_step(models, 0.5, 75, modem.AXIS_MAGNITUDE)
        steps = self.counted_steps(monkeypatch)
        alone = []
        for y in models.y_t:
            model = detect.refresh_observation(models, y)
            detect.im_soft_decode(model, 0.5, 75)
            assert len(steps) == im_soft_settling_step(model, 0.5, 75, modem.AXIS_MAGNITUDE)
            alone.append(len(steps))
            steps.clear()
        assert np.array_equal(detect.im_soft_decode(models, 0.5, 75), want)
        settle = im_soft_settling_step(models, 0.5, 75, modem.AXIS_MAGNITUDE)
        assert len(steps) == max(alone) == settle
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
        s = modem.POINTS[rng.integers(0, 4, size=(frames, n, m))]
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
        keeps=st.booleans(),
        data=st.data(),
        iterations=st.integers(1, 20),
        sigma=st.sampled_from([0.0, 0.3, 1.0]),
        specials=st.lists(st.tuples(st.integers(0, 511), st.integers(0, 7)), max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_equals_frames_decoded_alone(
        self, shape, keeps, data, iterations, sigma, specials, seed
    ):
        n, m = shape
        bound = modem.STACK_ENTRIES // (n * m)
        frames = data.draw(st.one_of(st.just(bound), st.integers(1, bound)), label="frames")
        models = self.stack(n, m, frames, sigma, seed, specials)
        omegas = np.random.default_rng(seed).uniform(0.2, 1.3, size=(frames, 1, 1))
        layout = self.layout(frames, self.cap(n, m))
        if layout[1] > 1 and not keeps:
            layout = (frames, 1)
        recording, paths = self.recorded_paths()
        with self.forced_chunks(keeps), np.errstate(invalid="ignore", over="ignore"):
            with recording:
                stacked = detect.im_soft_decode(models, omegas, iterations)
            assert paths == [(frames, layout)]
            want = im_soft_decode_every_step(models, omegas, iterations, modem.AXIS_MAGNITUDE)
            assert same_bits(stacked, want)
            for y, omega, w in zip(models.y_t, omegas, stacked):
                model = detect.refresh_observation(models, y)
                assert same_bits(detect.im_soft_decode(model, omega, iterations), w)

    # on this machine's BLAS: the 16-row preset shapes, and shapes with N < 2
    # or M % 4 != 0, whose widths above 1 differ on OpenBLAS 0.3.31's Haswell
    # kernel, all but 1x1 and 1x4, which run wide
    @pytest.mark.parametrize("n,m", [(16, 16), (16, 8), (1, 4), (1, 16), (3, 5), (4, 3),
                                     (1, 1), (2, 2)])
    # None stands for a model of one (N, M) frame; 40 frames are cut into
    # chunks at 16 rows, the last one padded with copies of frame 39
    @pytest.mark.parametrize("frames", [1, 3, 40, None], ids=["1", "3", "40", "one_frame"])
    def test_the_width_check_alone_picks_the_layout(self, n, m, frames, monkeypatch):
        keeps, checked = detect._width_keeps_bits, []
        monkeypatch.setattr(detect, "_width_keeps_bits",
                            lambda n, m, width: checked.append(width) or keeps(n, m, width))
        b = frames or 1
        # every third frame noiseless (+inf dB), and a NaN in frame 39
        sigma = np.where(np.arange(b) % 3, 0.3, 0.0)[:, None, None]
        models = self.stack(n, m, b, sigma, seed=97, specials=[(39, 6)] if b == 40 else ())
        if frames is None:
            models = detect.refresh_observation(models, models.y_t[0])
        omegas = np.linspace(0.25, 1.2, b).reshape(models.y_t.shape[:-2] + (1, 1))
        layout = self.layout(b, self.cap(n, m))
        width = layout[1]
        if width > 1 and not keeps(n, m, width):
            layout = (b, 1)
        recording, paths = self.recorded_paths()
        with recording, np.errstate(invalid="ignore"):
            got = detect.im_soft_decode(models, omegas, 75)
            want = im_soft_decode_every_step(models, omegas, 75, modem.AXIS_MAGNITUDE)
        assert paths == [(b, layout)]
        assert same_bits(got, want)
        got = got.reshape(-1, n, m)
        for y, omega, w in zip(models.y_t.reshape(-1, n, m), omegas.reshape(-1, 1, 1), got):
            model = detect.refresh_observation(models, y)
            with np.errstate(invalid="ignore"):
                assert same_bits(detect.im_soft_decode(model, omega, 75), w)
        assert np.isnan(got[39:]).all() and np.isfinite(got[:39]).all()
        # the stack's width was checked if above 1, and nothing else
        assert checked == [width] * (width > 1)

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
        # the fewest chunks of each width that hold WIDTH_CHECK_ENTRIES entries
        chunks = [-(-detect.WIDTH_CHECK_ENTRIES // (width * n * m)) for width in widths]
        assert sizes == [(c, c * width * n * m) for c, width in zip(chunks, widths)]

    @pytest.mark.parametrize("width", [2, 3])
    def test_check_refuses_the_2x1_widths_one_chunk_accepted(self, width):
        # on this machine's BLAS a 2x1 chunk sums in another order than one
        # frame; one chunk of the check's random frames gave the same bits
        assert not detect._width_keeps_bits(2, 1, width)

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
                    detect.im_soft_decode(models, 0.5, 3)
                    ran.append((n, m, self.layout(frames, self.cap(n, m))[1]))
        # each stack ran at the width of its cap, or as chunks of one frame
        # where its width failed the check
        for (n, m, _), (frames, layout) in zip(ran, paths, strict=True):
            assert layout in [self.layout(frames, self.cap(n, m)), (frames, 1)]
        # the widths above 1 that ran, each checked once, and no width 1
        assert sorted(checked) == sorted({key for key in ran if key[2] > 1})

    @pytest.mark.parametrize("frames,layout", [(37, (37, 1)), (36, (1, 36))])
    def test_a_width_that_fails_its_check_runs_as_chunks_of_one(
        self, frames, layout, monkeypatch
    ):
        # a BLAS kernel that sums a chunk of 37 frames in another order
        original = detect._chunked_operator

        def skewed(gtg, hth, chunks, width):
            op = original(gtg, hth, chunks, width)

            def skew(x, out):
                return np.multiply(op(x, out), 1 + 2**-52, out=out)

            return skew if width == 37 else op

        monkeypatch.setattr(detect, "_chunked_operator", skewed)
        recording, paths = self.recorded_paths()
        models = self.stack(4, 4, frames, 0.3, seed=101)
        omegas = np.linspace(0.25, 1.2, frames)[:, None, None]
        with recording:
            got = detect.im_soft_decode(models, omegas, 75)
        assert same_bits(got, im_soft_decode_every_step(models, omegas, 75, modem.AXIS_MAGNITUDE))
        assert paths == [(frames, layout)]

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
                    detect.im_soft_decode(model, np.full(shape, 0.5), 20)
        assert paths == []
        # one factor per frame gives each frame the bits of a scalar omega
        with self.forced_chunks(chunked), recording:
            for model, shape in [(models, (6, 1, 1)), (one, (1, 1))]:
                got = detect.im_soft_decode(model, np.full(shape, 0.5), 20)
                assert same_bits(got, detect.im_soft_decode(model, 0.5, 20))
        six = (1, 6) if chunked else (6, 1)
        assert paths == [(6, six), (6, six), (1, (1, 1)), (1, (1, 1))]


class TestHardDemap:
    def test_nearest_point_and_tie(self):
        rng = np.random.default_rng(87)
        s = random_qpsk_frame(rng, 4, 4)
        delta = 0.3 * np.exp(2j * np.pi * rng.uniform(size=(4, 4)))  # below half min distance
        for w in (s, s + delta):
            assert np.array_equal(detect.hard_demap(w), s)
        # a tie goes to the lowest index
        assert np.all(detect.hard_demap(np.zeros((2, 2), dtype=complex)) == modem.POINTS[0])

    def test_agrees_with_bit_demap(self):
        # both demappers decide by the one sign rule, ties included
        rng = np.random.default_rng(88)
        frames = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(20)]
        frames += [np.zeros((2, 2), dtype=complex), np.array([[1.0, 1j, -1.0, -1j, 0.5]])]
        for w in frames:
            assert np.array_equal(
                modem.demap_symbols(detect.hard_demap(w)), modem.demap_symbols(w)
            )
