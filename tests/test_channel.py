"""Tests for AWGN bookkeeping and the seeded substreams."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmod import channel, modem


def normals(master_seed, stream, index, length):
    """The ``(2, length)`` noise draws of one substream."""
    return channel.substream(master_seed, stream, index).standard_normal((2, length))


class TestNoiseVariance:
    @pytest.mark.parametrize("ebn0_db,want", [(0.0, 1.0), (10.0, 0.1)])
    def test_db_scale(self, ebn0_db, want):
        assert channel.noise_variance(ebn0_db, 1.0) == pytest.approx(want)

    def test_energy_accounting_oracle(self):
        # sigma^2 consistent with measured frame energy per bit
        params = modem.ModemParams(m=4, n=4, alpha=0.8, beta=0.8)
        q = modem.qpsk()
        seed = 99
        eb = channel.measure_eb(params, q, seed)
        rng = channel.substream(seed, channel.CALIBRATION_STREAM)
        energy = 0.0
        bits_total = 0
        for _ in range(200):
            bits = rng.integers(0, 2, size=32)
            s = modem.map_bits(bits, q, 4, 4)
            energy += float(np.sum(np.abs(modem.modulate(s, params)) ** 2))
            bits_total += 32
        oracle = (energy / bits_total) / 10 ** (6.0 / 10.0)
        assert channel.noise_variance(6.0, eb) == pytest.approx(oracle, rel=1e-12)

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            channel.noise_variance(0.0, 0.0)


class TestSubstream:
    @staticmethod
    def draws(rng):
        return rng.integers(0, 2, size=33), rng.standard_normal((2, 7)), rng.random(3)

    @pytest.mark.parametrize("key", [(5, 1, 2), (0, 0, 0), (2**64 + 3, -1, 2**70)])
    def test_reset_generator_draws_what_a_fresh_one_draws(self, key):
        rng = channel.substream(9, 8, 7)
        # leave it mid-stream, with half a 64-bit word buffered
        rng.integers(0, 2, size=33)
        rng.standard_normal(5)
        while not rng.bit_generator.state["has_uint32"]:
            rng.integers(0, 2**32, dtype=np.uint32)
        reset = channel.substream(*key, rng)
        assert reset is rng
        fresh = channel.substream(*key)
        assert str(reset.bit_generator.state) == str(fresh.bit_generator.state)
        for got, want in zip(self.draws(reset), self.draws(fresh)):
            assert np.array_equal(got, want) and got.dtype == want.dtype

    def test_noise_draws_equal_two_separate_draws(self):
        a, b = channel.substream(3, 4, 5), channel.substream(3, 4, 5)
        both = a.standard_normal((2, 16))
        assert np.array_equal(both[0], b.standard_normal(16))
        assert np.array_equal(both[1], b.standard_normal(16))


class TestRawBits:
    """The bits of raw Philox words equal numpy's own ``integers(0, 2)``."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(
        master_seed=st.integers(0, 2**64 - 1),
        key=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
        shape=st.one_of(
            st.tuples(st.integers(1, 67)), st.tuples(st.integers(1, 9), st.integers(1, 9))
        ),
    )
    def test_bits_and_the_normals_after_them_equal_numpys(self, master_seed, key, shape):
        want_rng = channel.substream(master_seed, *key)
        want = want_rng.integers(0, 2, size=shape)
        rng = channel.substream(master_seed, *key)
        got = channel.raw_bits(rng.bit_generator.random_raw(-(-math.prod(shape) // 2)), shape)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(rng.standard_normal((2, 5)), want_rng.standard_normal((2, 5)))

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        master_seed=st.integers(0, 2**64 - 1),
        keys=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 2**64 - 1)),
                      min_size=1, max_size=6),
        count=st.integers(1, 67),
    )
    def test_one_row_of_words_per_frame_gives_each_frames_bits(self, master_seed, keys, count):
        words = np.array([
            channel.substream(master_seed, *key).bit_generator.random_raw(-(-count // 2))
            for key in keys
        ])
        want = np.array([channel.substream(master_seed, *key).integers(0, 2, size=count)
                         for key in keys])
        got = channel.raw_bits(words, (len(keys), count))
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestAwgn:
    def test_distinct_streams_differ(self):
        x = np.zeros(64, dtype=complex)
        a = channel.awgn(x, 1.0, normals(5, 1, 2, 64))
        b = channel.awgn(x, 1.0, normals(5, 1, 3, 64))
        assert not np.array_equal(a, b)

    def test_empirical_variance(self):
        x = np.zeros(100_000, dtype=complex)
        sigma_sq = 0.37
        out = channel.awgn(x, sigma_sq, normals(7, 0, 0, 100_000))
        measured = float(np.mean(np.abs(out) ** 2))
        assert measured == pytest.approx(sigma_sq, rel=0.02)
        # circular symmetry: equal per-axis split
        assert float(np.mean(out.real**2)) == pytest.approx(sigma_sq / 2, rel=0.03)

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            channel.awgn(np.zeros(4), -1.0, normals(0, 0, 0, 4))

    def test_stack_equals_each_waveform_alone(self):
        rng = np.random.default_rng(60)
        x = rng.normal(size=(5, 12)) + 1j * rng.normal(size=(5, 12))
        x[3, ::2] = -0.0  # kept exactly where the variance is zero
        x[3, 1::2] = complex(-0.0, -0.0)
        sigma_sq = np.array([0.5, 1.0, 2.0, 0.0, 1e-300])
        noise = rng.standard_normal((5, 2, 12))
        out = channel.awgn(x, sigma_sq, noise)
        for i in range(5):
            # the per-waveform formula with its two separate draws
            want = x[i] + np.sqrt(sigma_sq[i] / 2.0) * (noise[i, 0] + 1j * noise[i, 1])
            if sigma_sq[i] == 0:
                want = x[i]
            assert np.array_equal(out[i].view(np.uint64), want.view(np.uint64))
            assert np.array_equal(channel.awgn(x[i], sigma_sq[i], noise[i]), out[i])

    def test_rejects_mismatched_noise(self):
        with pytest.raises(ValueError, match="noise shape"):
            channel.awgn(np.zeros((3, 4)), 1.0, np.zeros((2, 4)))


class TestNoiseWhiteness:
    def test_preserved_through_receive_transform(self):
        # empirical covariance of the transformed noise stays diagonal
        params = modem.ModemParams(m=4, n=4)
        sigma_sq = 1.0
        trials = 10_000
        rng = channel.substream(11, 0)
        frames = np.empty((trials, 16), dtype=complex)
        for t in range(trials):
            draws = rng.standard_normal((2, 16))
            noise = channel.awgn(np.zeros(16, dtype=complex), sigma_sq, draws)
            frames[t] = modem.wigner_rect(noise, params).reshape(-1)
        cov = frames.conj().T @ frames / trials
        off = cov - np.diag(np.diag(cov))
        bound = 3 * sigma_sq / math.sqrt(trials)
        assert np.max(np.abs(off)) < bound
        assert np.allclose(np.diag(cov).real, sigma_sq, rtol=0.07)


class TestMeasureEb:
    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (0.9, 0.9), (0.675, 0.675)])
    def test_close_to_nominal_for_unit_energy_symbols(self, alpha, beta):
        params = modem.ModemParams(m=8, n=8, alpha=alpha, beta=beta)
        eb = channel.measure_eb(params, modem.qpsk(), master_seed=3)
        assert eb == pytest.approx(0.5, rel=0.05)
