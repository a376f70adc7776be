"""Tests for the Monte-Carlo sweep runner, persistence, and presets."""

import csv
import contextlib
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from ddmod import channel, detect, harness, modem
from oracles import distortion_operator, same_bits, soft_clip


def tiny_config(**overrides):
    base = dict(
        m=2, n=2, alpha=0.9, beta=0.9, decoder="matched",
        ebn0_db_points=(4.0,), omega_values=(0.5,), master_seed=5,
        min_bit_errors=20, max_frames=60,
    )
    base.update(overrides)
    return harness.SweepConfig(**base)


def qfunc(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


class TestSweepConfig:
    def test_json_roundtrip(self):
        cfg = tiny_config(decoder="sd2d_im_init", k_list=8)
        again = harness.SweepConfig.from_json_dict(cfg.to_json_dict())
        assert again == cfg

    def test_unknown_keys_rejected(self):
        data = tiny_config().to_json_dict()
        data["turbo"] = True
        with pytest.raises(ValueError, match="unknown config keys"):
            harness.SweepConfig.from_json_dict(data)

    def test_missing_keys_named(self):
        data = tiny_config().to_json_dict()
        del data["M"], data["beta"]
        with pytest.raises(ValueError, match=re.escape("missing config keys: ['M', 'beta']")):
            harness.SweepConfig.from_json_dict(data)

    @pytest.mark.parametrize("data", [[1, 2], [], "M", 4, None])
    def test_top_level_must_be_an_object(self, data):
        kind = type(data).__name__
        with pytest.raises(ValueError, match=f"config must be a JSON object, got {kind}"):
            harness.SweepConfig.from_json_dict(data)

    def test_numpy_integers_stored_as_ints(self):
        cfg = tiny_config(m=np.int64(3), k_list=np.uint8(4), master_seed=np.int32(2))
        assert [type(v) for v in (cfg.m, cfg.k_list, cfg.master_seed)] == [int] * 3
        assert harness.config_hash(cfg) == harness.config_hash(
            tiny_config(m=3, k_list=4, master_seed=2)
        )

    def test_invalid_decoder(self):
        with pytest.raises(ValueError):
            tiny_config(decoder="genie")

    def test_requires_points(self):
        with pytest.raises(ValueError):
            tiny_config(ebn0_db_points=())

    BAD_CONFIGS = [  # (override, what the message must name)
        ({"alpha": 1.5}, "compression factors"),
        ({"M": "4"}, "m must be an integer"),
        ({"iterations": 0}, "iterations"),
        ({"K_list": 0}, "k_list"),
        ({"constellation": "16qam"}, "constellation"),
        ({"decoder": "im_soft", "omega_values": []}, "omega_values"),
        ({"ebn0_db_points": [float("nan")]}, "ebn0_db_points"),
        ({"ebn0_db_points": [-math.inf]}, "ebn0_db_points"),
        ({"omega_values": [math.inf]}, "omega_values"),
        ({"alpha": "0.8"}, "alpha"),
        ({"beta": None}, "beta"),
        ({"alpha": True}, "alpha"),
        ({"ebn0_db_points": "12"}, "ebn0_db_points"),
        ({"ebn0_db_points": [True]}, "ebn0_db_points"),
        ({"ebn0_db_points": 4.0}, "ebn0_db_points"),
        ({"ebn0_db_points": None}, "ebn0_db_points"),
        ({"ebn0_db_points": ["x"]}, "ebn0_db_points"),
        ({"omega_values": [False]}, "omega_values"),
        ({"constellation": ["qpsk"]}, "constellation must be a string"),
        ({"decoder": None}, "decoder must be a string"),
        ({"radius_policy": {}}, "radius_policy must be a string"),
        ({"ebn0_db_points": [4.0, 4000.0]}, "ebn0_db_points"),
        ({"ebn0_db_points": [1e308]}, "ebn0_db_points"),
        ({"ebn0_db_points": [-4000.0]}, "ebn0_db_points"),
        ({"master_seed": -1}, "master_seed"),
        ({"master_seed": 2**64}, "master_seed"),
        ({"alpha": 10**400}, "alpha holds a number too large for a float"),
        ({"beta": -(10**400)}, "beta holds a number too large for a float"),
        ({"ebn0_db_points": [0, 10**400]}, "ebn0_db_points holds a number too large"),
        ({"omega_values": [0.5, 10**400]}, "omega_values holds a number too large"),
        ({"alpha": 1e-200, "beta": 1e-200}, "compression factors .* multiply to 0.0"),
    ]

    @pytest.mark.parametrize("override, match", [
        pytest.param(override, match, id=f"override{i}")
        for i, (override, match) in enumerate(BAD_CONFIGS)
    ])
    def test_bad_config_rejected_at_load(self, override, match):
        data = tiny_config().to_json_dict()
        data.update(override)
        with pytest.raises(ValueError, match=match):
            harness.SweepConfig.from_json_dict(data)

    def test_compression_factors_named_and_stored_as_float(self):
        with pytest.raises(ValueError, match="beta"):
            tiny_config(beta="0.8")
        cfg = tiny_config(alpha=1, beta=np.float32(0.5))
        assert type(cfg.alpha) is float and type(cfg.beta) is float
        assert (cfg.alpha, cfg.beta) == (1.0, 0.5)

    def test_cell_enumeration_with_and_without_omega(self):
        cfg = tiny_config(decoder="im_soft", ebn0_db_points=(0.0, 2.0),
                          omega_values=(0.25, 0.5))
        assert [c[0] for c in cfg.cells()] == [0, 1, 2, 3]
        assert cfg.cells()[1][1:] == (0.0, 0.5)
        cfg2 = tiny_config(decoder="matched", ebn0_db_points=(0.0, 2.0))
        assert [(i, e, w) for i, e, w in cfg2.cells()] == [(0, 0.0, None), (1, 2.0, None)]

    def test_cell_index_stays_below_the_calibration_stream(self):
        # cell i, frame j draws substream (seed, i, j) and the Eb calibration
        # draws (seed, CALIBRATION_STREAM, 0), so cell 235's frame 0 would
        # draw the calibration's bits
        limit = channel.CALIBRATION_STREAM
        assert limit == 235
        assert len(tiny_config(ebn0_db_points=[0.0] * limit).cells()) == limit
        for fields in ({"ebn0_db_points": [0.0] * (limit + 1)},
                       {"decoder": "im_soft", "ebn0_db_points": [0.0] * 59,
                        "omega_values": (0.25, 0.5, 0.75, 1.0)}):
            with pytest.raises(ValueError, match=f"at most {limit} cells.*; got 236"):
                tiny_config(**fields)

    def test_eta(self):
        cfg = tiny_config(alpha=0.8, beta=0.8)
        assert cfg.eta == pytest.approx(0.5625, abs=1e-12)


finite = st.floats(allow_nan=False, allow_infinity=False)
ints = st.integers(-(2**70), 2**70) | st.integers(0, 2**31).map(np.int64)


class TestConfigRoundTrip:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        fields=st.fixed_dictionaries(
            {
                "m": st.integers(1, 64) | st.integers(-2, 2**40),
                "n": st.integers(1, 64),
                "alpha": st.floats(0, 1, exclude_min=True) | st.just(1) | finite,
                "beta": st.floats(0, 1, exclude_min=True) | st.sampled_from([1, np.float32(0.5)]),
            },
            optional={
                "constellation": st.sampled_from(["qpsk", "16qam"]),
                "ebn0_db_points": st.lists(
                    st.floats(allow_nan=False) | st.integers(-50, 50), max_size=4
                ).map(tuple) | st.lists(finite, min_size=1, max_size=3),
                "decoder": st.sampled_from(harness.DECODERS),
                "omega_values": st.lists(finite | st.integers(-3, 3), max_size=3),
                "iterations": ints,
                "k_list": ints,
                "radius_policy": st.sampled_from(harness.RADIUS_POLICIES),
                "master_seed": ints,
                "min_bit_errors": ints,
                "max_frames": ints,
            },
        )
    )
    def test_accepted_configs_survive_json(self, fields):
        try:
            cfg = harness.SweepConfig(**fields)
        except ValueError:
            reject()
        text = json.dumps(cfg.to_json_dict())
        again = harness.SweepConfig.from_json_dict(json.loads(text))
        assert again == cfg
        assert harness.config_hash(again) == harness.config_hash(cfg)
        assert json.dumps(again.to_json_dict()) == text


class TestConfigHash:
    # the config-file contract: a renamed key or value changes a hash, and a
    # reordered key changes every sidecar's bytes
    @pytest.mark.parametrize("name, chash", [
        ("fig2a", "f4e308db6e5bd782"),
        ("fig2b", "8316653985ee1d26"),
        ("fig3", "206d65363a473bb4"),
        ("fig4a", "cf217d98d9775aa5"),
        ("fig4b", "779f3811ae8b2dfc"),
    ])
    def test_preset_hashes_are_pinned(self, name, chash):
        assert harness.config_hash(harness.PRESETS[name]) == chash

    def test_config_file_key_order_is_pinned(self):
        assert list(tiny_config().to_json_dict()) == [
            "M", "N", "alpha", "beta", "constellation", "ebn0_db_points", "decoder",
            "omega_values", "iterations", "K_list", "radius_policy", "master_seed",
            "min_bit_errors", "max_frames",
        ]

    def test_identical_configs_share_hash(self):
        assert harness.config_hash(tiny_config()) == harness.config_hash(tiny_config())

    def test_integer_and_float_alpha_share_hash(self):
        assert harness.config_hash(tiny_config(alpha=1)) == harness.config_hash(
            tiny_config(alpha=1.0)
        )

    def test_different_configs_differ(self):
        assert harness.config_hash(tiny_config()) != harness.config_hash(
            tiny_config(master_seed=6)
        )


class TestWilsonInterval:
    def test_brackets_point_estimate(self):
        lo, hi = harness.wilson_interval(10, 1000)
        assert lo < 10 / 1000 < hi

    def test_degenerate_cases(self):
        assert harness.wilson_interval(0, 0) == (0.0, 1.0)
        lo, hi = harness.wilson_interval(0, 100)
        assert lo == 0.0 and hi < 0.1

    def test_covers_known_rate_on_synthetic_injection(self):
        # calibrated Bernoulli error injection: the interval should cover the
        # true rate in roughly 95 of 100 seeded trials
        p_true = 0.03
        trials, n = 200, 5000
        rng = np.random.default_rng(123)
        covered = 0
        for _ in range(trials):
            errors = int(np.sum(rng.uniform(size=n) < p_true))
            lo, hi = harness.wilson_interval(errors, n)
            covered += lo <= p_true <= hi
        assert covered / trials > 0.90


def run_one_cell(cfg):
    (cell,) = harness.run_sweep(cfg, workers=1).cells
    return cell


class TestRunBerPoint:
    def test_noiseless_chain_has_zero_errors(self):
        # noise disabled through an infinite operating point
        cfg = tiny_config(ebn0_db_points=(math.inf,), max_frames=10, min_bit_errors=1)
        cell = run_one_cell(cfg)
        assert cell.bit_errors == 0
        assert cell.frames == 10
        assert cell.ber == 0.0

    def test_deterministic_across_runs(self):
        cfg = tiny_config()
        a = run_one_cell(cfg)
        b = run_one_cell(cfg)
        assert (a.bit_errors, a.bits_sent, a.frames) == (b.bit_errors, b.bits_sent, b.frames)
        assert a.ber == b.ber

    def test_matched_qpsk_anchor_matches_qfunction(self):
        # orthogonal limit against the closed-form QPSK reference at 4 dB
        cfg = harness.SweepConfig(
            m=8, n=8, alpha=1.0, beta=1.0, decoder="matched",
            ebn0_db_points=(4.0,), master_seed=11,
            min_bit_errors=150, max_frames=500,
        )
        cell = run_one_cell(cfg)
        ref = qfunc(math.sqrt(2 * 10 ** (4.0 / 10)))
        se = math.sqrt(ref * (1 - ref) / cell.bits_sent)
        assert abs(cell.ber - ref) <= 3 * se

    def test_all_decoders_run(self):
        for decoder in harness.DECODERS:
            cfg = tiny_config(decoder=decoder, ebn0_db_points=(6.0,), k_list=4,
                              iterations=5, max_frames=8, min_bit_errors=1000)
            cell = run_one_cell(cfg)
            assert cell.error is None
            assert cell.frames == 8
            if decoder.startswith("sd2d"):
                assert cell.mean_decoder_ops > 0


@contextlib.contextmanager
def deadline(seconds):
    """Raise ``TimeoutError`` in the block if it runs past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# a child runs the class's run_group only if it forks from this process
needs_fork = pytest.mark.skipif(
    not hasattr(signal, "SIGALRM") or multiprocessing.get_start_method() != "fork",
    reason="patches run_group in the children, so needs fork and SIGALRM",
)


def patch_groups(monkeypatch, in_children, in_caller=None):
    """Make every group but the caller's (the one holding cell 0) call
    ``in_children(cell indices)`` in place of running, and the caller's
    ``in_caller``, if given."""
    original = harness._SweepRunner.run_group

    def run_group(self, group, links=()):
        action = in_caller if group[0][0] == 0 else in_children
        if action is None:
            return original(self, group, links)
        return action([i for i, _, _ in group])

    monkeypatch.setattr(harness._SweepRunner, "run_group", run_group)


class Odd(Exception):
    """An exception that pickles but does not unpickle: pickle rebuilds it
    from its ``args``, one message, but its ``__init__`` takes two."""

    def __init__(self, a, b):
        super().__init__(f"odd {a} and {b}")


class TestRunSweep:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_grid_and_determinism_across_worker_counts(self, workers):
        cfg = tiny_config(decoder="im_soft", ebn0_db_points=(2.0, 4.0),
                          omega_values=(0.5, 1.0), iterations=5, max_frames=20,
                          min_bit_errors=10)
        seq = harness.run_sweep(cfg, workers=1)
        par = harness.run_sweep(cfg, workers=workers)
        assert not multiprocessing.active_children()
        assert len(seq.cells) == 4
        for a, b in zip(seq.cells, par.cells):
            assert (a.cell_index, a.ebn0_db, a.omega) == (b.cell_index, b.ebn0_db, b.omega)
            assert (a.bits_sent, a.bit_errors, a.ber) == (b.bits_sent, b.bit_errors, b.ber)

    @needs_fork
    def test_an_exception_in_a_child_is_raised_again(self, monkeypatch):
        def fail(cells):
            raise ValueError(f"synthetic failure in cells {cells}")

        patch_groups(monkeypatch, fail)
        # the caller reads a child's message while its own group runs, so
        # either child's may come first
        message = r"^synthetic failure in cells \[[12]\]$"
        with deadline(60), pytest.raises(ValueError, match=message) as raised:
            harness.run_sweep(tiny_config(ebn0_db_points=(0.0, 2.0, 4.0)), workers=3)
        assert not multiprocessing.active_children()
        # the child's traceback comes with it
        assert ", in fail\n" in str(raised.value.__cause__)

    @needs_fork
    def test_a_child_that_exits_without_sending_is_named(self, monkeypatch):
        patch_groups(monkeypatch, lambda cells: os._exit(1))
        message = "the child process running cells [1, 3] exited with code 1"
        with deadline(60), pytest.raises(RuntimeError, match=re.escape(message)):
            harness.run_sweep(tiny_config(ebn0_db_points=(0.0, 2.0, 4.0, 6.0)), workers=2)
        assert not multiprocessing.active_children()

    @needs_fork
    def test_an_exception_that_does_not_unpickle_keeps_its_message(self, monkeypatch):
        def fail(cells):
            raise Odd("one", cells)

        patch_groups(monkeypatch, fail)
        with deadline(60), pytest.raises(RuntimeError, match=r"^Odd: odd one and \[1\]$") as raised:
            harness.run_sweep(tiny_config(ebn0_db_points=(0.0, 2.0)), workers=2)
        assert not multiprocessing.active_children()
        assert ", in fail\n" in str(raised.value.__cause__)

    @needs_fork
    def test_an_exception_in_the_caller_stops_the_children(self, monkeypatch):
        def fail(cells):
            raise ValueError("synthetic failure in the caller")

        # the children would sleep past the deadline if they were joined unstopped
        patch_groups(monkeypatch, lambda cells: time.sleep(300), in_caller=fail)
        with deadline(60), pytest.raises(ValueError, match="synthetic failure in the caller"):
            harness.run_sweep(tiny_config(ebn0_db_points=(0.0, 2.0)), workers=2)
        assert not multiprocessing.active_children()

    def test_failed_cell_does_not_abort(self, monkeypatch):
        cfg = tiny_config(ebn0_db_points=(0.0, 4.0), max_frames=5, min_bit_errors=1)
        original = harness._SweepRunner.run_group

        def sabotage(self, group, links=()):
            # cell 0 fails before its first frame; the rest of its group runs
            failed = [harness.BerCell(i, e, w, error="synthetic failure")
                      for i, e, w in group if i == 0]
            return failed + original(self, [spec for spec in group if spec[0] != 0], links)

        monkeypatch.setattr(harness._SweepRunner, "run_group", sabotage)
        result = harness.run_sweep(cfg, workers=1)
        assert not result.completed
        assert result.cells[0].error == "synthetic failure"
        assert result.cells[1].error is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_singular_model_fails_every_cell(self, workers):
        cfg = tiny_config(m=16, n=16, alpha=0.1, beta=0.1, decoder="im_soft",
                          ebn0_db_points=(2.0, 4.0), omega_values=(0.5, 1.0))
        result = harness.run_sweep(cfg, workers=workers)
        assert not result.completed
        assert len(result.cells) == 4
        assert all("G is effectively singular" in c.error for c in result.cells)

    def test_noiseless_zero_objective_initial_completes(self):
        # a 1x1 orthogonal frame's initial estimate has objective exactly 0,
        # so the sphere decoder runs with a zero radius
        cfg = tiny_config(m=1, n=1, alpha=1.0, beta=1.0, decoder="sd2d_im_init",
                          ebn0_db_points=(math.inf,), max_frames=10, min_bit_errors=1)
        result = harness.run_sweep(cfg, workers=1)
        assert result.completed
        assert (result.cells[0].frames, result.cells[0].bit_errors) == (10, 0)

    def test_min_bit_errors_beyond_the_float_range_runs_to_max_frames(self):
        cfg = tiny_config(ebn0_db_points=(0.0, 4.0), max_frames=20)
        huge = harness.run_sweep(replace(cfg, min_bit_errors=10**400), workers=1)
        big = harness.run_sweep(replace(cfg, min_bit_errors=10**18), workers=1)
        assert results(huge.cells) == results(big.cells)
        assert [c.frames for c in huge.cells] == [20, 20]

    def test_k_list_beyond_the_survivors_costs_nothing(self):
        # a 2x2 QPSK frame has at most 4**4 = 256 survivors
        cfg = tiny_config(decoder="sd2d", ebn0_db_points=(0.0, 6.0), max_frames=8)
        exhaustive = harness.run_sweep(replace(cfg, k_list=256), workers=1)
        tracemalloc.start()
        try:
            huge = harness.run_sweep(replace(cfg, k_list=10**9), workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert results(huge.cells) == results(exhaustive.cells)
        assert peak < 4 * 2**20

    def test_default_workers_count_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert harness.default_workers() == 1


def record_work(monkeypatch, log_dir):
    """Make each process of a sweep log, in a file of its own under
    ``log_dir``, the cells of its own group and the ``(cell_index,
    frame_index)`` keys it computes.  Returns a reader of the logs:
    ``[(own cells, computed keys)]``, one entry a process."""
    run_group, compute = harness._SweepRunner.run_group, harness._SweepRunner.compute

    def log(entry):
        with open(log_dir / f"{os.getpid()}.log", "a") as fh:
            fh.write(json.dumps(entry) + "\n")

    def logged_run_group(self, group, links=()):
        log({"own": [i for i, _, _ in group]})
        return run_group(self, group, links)

    def logged_compute(self, frames, sigma_sq, omega):
        log({"computed": [list(key) for key in frames]})
        return compute(self, frames, sigma_sq, omega)

    monkeypatch.setattr(harness._SweepRunner, "run_group", logged_run_group)
    monkeypatch.setattr(harness._SweepRunner, "compute", logged_compute)

    def read():
        work = []
        for path in log_dir.glob("*.log"):
            entries = [json.loads(line) for line in path.read_text().splitlines()]
            (own,) = [e["own"] for e in entries if "own" in e]
            work.append((set(own), [tuple(k) for e in entries for k in e.get("computed", [])]))
        return work

    return read


def long_and_short(monkeypatch, long_cell):
    """A sweep of a noiseless cell, which runs to ``max_frames`` in 16-frame
    rounds, and a 0 dB cell, which ends in its first round; the long cell is
    cell ``long_cell``: 0, in the caller's group, or 1, in the child's.  The
    long cell's owner waits before each round until the other process has
    ended its own group, so each of its rounds is shared, whichever process
    starts first."""
    monkeypatch.setattr(modem, "STACK_ENTRIES", 16 * 16)
    original = harness._SweepRunner.compute_shared

    def compute_shared(self, links, frames, sigma_sq, omega):
        while frames[0][0] == long_cell and not all(link.idle() for link in links):
            time.sleep(0.001)
        return original(self, links, frames, sigma_sq, omega)

    monkeypatch.setattr(harness._SweepRunner, "compute_shared", compute_shared)
    points = (math.inf, 0.0) if long_cell == 0 else (0.0, math.inf)
    return tiny_config(m=4, n=4, ebn0_db_points=points, max_frames=400)


def owner_of(frames, workers):
    """The group, 0 for the caller's, that owns the cell of a round's frames."""
    return frames[0][0] % workers


@needs_fork
class TestHelp:
    """A process whose own group has ended computes a share of each round of
    a group still running."""

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("points", [(6.0, 0.0, 2.0, 4.0), (0.0, 6.0, 2.0, 4.0)],
                             ids=["long_cell_in_caller", "long_cell_in_child"])
    def test_help_leaves_every_result_as_in_one_process(
        self, points, workers, monkeypatch, tmp_path
    ):
        # fig4a with its 6 dB cell, which takes most of the sweep's frames,
        # moved to cell 0 (the caller's group) or cell 1 (a child's)
        cfg = replace(harness.PRESETS["fig4a"], ebn0_db_points=points)
        alone = harness.run_sweep(cfg, workers=1)
        work = record_work(monkeypatch, tmp_path)
        with deadline(60):
            helped = harness.run_sweep(cfg, workers=workers)
        assert not multiprocessing.active_children()
        assert results(helped.cells) == results(alone.cells)
        assert all(c.mean_decoder_ops > 0 for c in helped.cells)
        processes = work()
        assert len(processes) == workers
        # some frames were computed by a process that does not own their cell
        assert any(cell not in own for own, keys in processes for cell, _ in keys)
        # and each frame a round holds was computed once
        keys = [key for _, keys in processes for key in keys]
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("long_cell", [0, 1], ids=["in_the_child", "in_the_caller"])
    def test_an_exception_in_a_shared_job_is_raised_again(self, long_cell, monkeypatch):
        # the share is computed in the process that does not own the long cell
        caller, original = os.getpid(), harness._SweepRunner.compute

        def failing_compute(self, frames, sigma_sq, omega):
            helping = owner_of(frames, 2) != (0 if os.getpid() == caller else 1)
            if helping:
                raise ValueError("synthetic failure in a shared job")
            return original(self, frames, sigma_sq, omega)

        cfg = long_and_short(monkeypatch, long_cell)
        monkeypatch.setattr(harness._SweepRunner, "compute", failing_compute)
        with deadline(60), pytest.raises(ValueError, match="synthetic failure") as raised:
            harness.run_sweep(cfg, workers=2)
        assert not multiprocessing.active_children()
        if long_cell == 0:
            # raised in the child, whose traceback comes with it
            assert ", in failing_compute\n" in str(raised.value.__cause__)
        else:
            assert "failing_compute" in [entry.name for entry in raised.traceback]

    @pytest.mark.parametrize("long_cell", [0, 1], ids=["while_it_helps", "while_it_is_helped"])
    def test_a_child_that_dies_is_named(self, long_cell, monkeypatch):
        cfg = long_and_short(monkeypatch, long_cell)
        caller = os.getpid()
        compute, compute_shared = (harness._SweepRunner.compute,
                                   harness._SweepRunner.compute_shared)

        def dying_compute(self, frames, sigma_sq, omega):
            # the child computes a share of the caller's long cell
            if os.getpid() != caller and owner_of(frames, 2) == 0:
                os._exit(3)
            return compute(self, frames, sigma_sq, omega)

        def dying_compute_shared(self, links, *round_):
            result = compute_shared(self, links, *round_)
            # the child's round was shared with the caller
            if os.getpid() != caller and any(link.ended for link in links):
                os._exit(3)
            return result

        if long_cell == 0:
            monkeypatch.setattr(harness._SweepRunner, "compute", dying_compute)
        else:
            monkeypatch.setattr(harness._SweepRunner, "compute_shared", dying_compute_shared)
        message = "the child process running cells [1] exited with code 3"
        with deadline(60), pytest.raises(RuntimeError, match=re.escape(message)):
            harness.run_sweep(cfg, workers=2)
        assert not multiprocessing.active_children()

    def test_a_child_that_dies_with_a_message_unread_is_named(self, monkeypatch):
        # on Linux the caller then reads a reset pipe, not its end
        def run_group(self, group, links=()):
            if group[0][0] == 0:
                return original(self, group, links)
            links[0].conn.poll(60)  # the caller's end has come, unread
            os._exit(3)

        original = harness._SweepRunner.run_group
        monkeypatch.setattr(harness._SweepRunner, "run_group", run_group)
        message = "the child process running cells [1] exited with code 3"
        with deadline(60), pytest.raises(RuntimeError, match=re.escape(message)):
            harness.run_sweep(tiny_config(ebn0_db_points=(0.0, 2.0)), workers=2)
        assert not multiprocessing.active_children()

    def test_children_exit_when_the_caller_is_killed(self):
        # the caller's group waits until both children have ended their own
        # groups, and so wait to help it, then sleeps; killed, it leaves them
        # its closed pipes, and the second child holds a copy of the first
        # one's, so the first exits only after the second
        script = """if True:
            import time
            from ddmod import harness

            def run_group(self, group, links=()):
                if group[0][0] != 0:
                    return original(self, group, links)
                while not all(link.idle() for link in links):
                    time.sleep(0.01)
                print(*[link.child.pid for link in links], flush=True)
                time.sleep(300)

            original, harness._SweepRunner.run_group = harness._SweepRunner.run_group, run_group
            cfg = harness.SweepConfig(m=2, n=2, alpha=0.9, beta=0.9, decoder="matched",
                                      ebn0_db_points=(0.0, 2.0, 4.0), min_bit_errors=20)
            harness.run_sweep(cfg, workers=3)
        """
        src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                                text=True, env=dict(os.environ, PYTHONPATH=path))
        pids = []
        try:
            with deadline(60):
                pids = [int(pid) for pid in proc.stdout.readline().split()]
                assert len(pids) == 2
                proc.kill()
                proc.wait()
                while any(map(running, pids)):
                    time.sleep(0.05)
        finally:
            proc.kill()
            proc.stdout.close()
            for pid in filter(running, pids):
                os.kill(pid, signal.SIGKILL)


def running(pid):
    """Whether the process ``pid`` runs: it exists and is no zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


def frame_alone(runner, cell_index, frame_index, sigma_sq):
    """One frame through the 2-D calls of the chain: (bits, model).

    The frame gets a generator of its own and its noise from two separate
    draws, so it pins the stacked chain to the frame-by-frame one.
    """
    cfg = runner.cfg
    rng = channel.substream(cfg.master_seed, cell_index, frame_index)
    bits = rng.integers(0, 2, size=runner.bits_per_frame)
    s = modem.map_bits(bits, runner.constellation, cfg.n, cfg.m)
    rx = modem.modulate(s, runner.params)
    if sigma_sq > 0:
        noise = rng.standard_normal(rx.shape) + 1j * rng.standard_normal(rx.shape)
        rx = rx + np.sqrt(sigma_sq / 2.0) * noise
    y_tf = modem.wigner_rect(rx, runner.params)
    return bits, detect.refresh_observation(runner.base_model, y_tf)


def results(cells):
    """Cell fields that a sweep must reproduce (all but the wall time)."""
    return [{k: v for k, v in asdict(c).items() if k != "wall_time"} for c in cells]


class TestBatchedChain:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        n=st.integers(1, 4),
        m=st.integers(1, 4),
        iterations=st.integers(1, 12),
        k_list=st.integers(1, 8),
        master_seed=st.integers(0, 2**32 - 1),
        frames=st.lists(
            st.tuples(
                st.integers(0, 5),  # cell index
                st.integers(0, 99),  # frame index
                st.sampled_from([0.0, 3.0, 6.0, 10.0, 30.0, math.inf]),  # Eb/N0
                st.sampled_from([0.25, 0.5, 0.9, 1.2]),  # omega
            ),
            min_size=1, max_size=6,
        ),
    )
    def test_stacked_frames_equal_frames_run_alone(
        self, n, m, iterations, k_list, master_seed, frames
    ):
        runner = harness._SweepRunner(tiny_config(
            m=m, n=n, alpha=0.8, beta=0.85, decoder="sd2d_im_init", iterations=iterations,
            k_list=k_list, master_seed=master_seed,
        ))
        q = runner.constellation
        sigma_sq = [channel.noise_variance(e, runner.eb) for _, _, e, _ in frames]
        bits, models = runner.transmit([(c, f) for c, f, _, _ in frames], sigma_sq)
        omega = np.array([w for _, _, _, w in frames])[:, None, None]
        ws = detect.im_soft_decode(models, omega, iterations, q)
        initial = detect.hard_demap(ws, q)
        sd_hat, sd_loss, sd_ops = detect.sd2d_decode(models, q, k_list, initial=initial)
        for i, (cell_index, frame_index, _, w) in enumerate(frames):
            bits_1, model_1 = frame_alone(runner, cell_index, frame_index, sigma_sq[i])
            assert np.array_equal(bits[i], bits_1)
            assert same_bits(models.y_t[i], model_1.y_t)
            assert same_bits(models.u[i], model_1.u)
            w_1 = detect.im_soft_decode(model_1, w, iterations, q)
            assert np.array_equal(ws[i], w_1)
            sd_1 = detect.sd2d_decode(model_1, q, k_list, initial=detect.hard_demap(w_1, q))
            assert np.array_equal(sd_hat[i], sd_1[0]) and sd_loss[i] == sd_1[1]
            assert sd_ops.mults[i] == sd_1[2].mults[0]
            assert sd_ops.adds[i] == sd_1[2].adds[0]


    def test_noiseless_frames_are_exact_copies_in_a_mixed_stack(self):
        runner = harness._SweepRunner(tiny_config(m=3, n=2, alpha=0.8, beta=0.85))
        frames = [(0, 0), (1, 0), (0, 1), (2, 5)]
        noisy, noiseless = (channel.noise_variance(e, runner.eb) for e in (2.0, math.inf))
        assert noiseless == 0.0
        sigma_sq = [noiseless, noisy, noiseless, noiseless]
        bits, models = runner.transmit(frames, sigma_sq)
        cfg = runner.cfg
        clean = modem.wigner_rect(modem.modulate(
            modem.map_bits(bits, runner.constellation, cfg.n, cfg.m), runner.params
        ), runner.params)
        for i in (0, 2, 3):
            assert same_bits(models.y_t[i], clean[i])
        assert not np.array_equal(models.y_t[1], clean[1])


class TestDecode:
    DETECTORS = ("matched_filter_estimate", "im_soft_decode", "hard_demap", "sd2d_decode")
    CALLS = {
        "matched": ["matched_filter_estimate"],
        "im_soft": ["im_soft_decode"],
        "sd2d": ["sd2d_decode"],
        "sd2d_im_init": ["im_soft_decode", "hard_demap", "sd2d_decode"],
    }

    @classmethod
    def record_harness_calls(cls, monkeypatch):
        """(name, args, kwargs, result) of each detector call made by the harness."""
        calls = []
        for name in cls.DETECTORS:
            def recorded(*args, _name=name, _original=getattr(detect, name), **kwargs):
                result = _original(*args, **kwargs)
                if sys._getframe(1).f_globals["__name__"] == harness.__name__:
                    calls.append((_name, args, kwargs, result))
                return result

            monkeypatch.setattr(detect, name, recorded)
        return calls

    @pytest.mark.parametrize("policy", harness.RADIUS_POLICIES)
    @pytest.mark.parametrize("decoder", harness.DECODERS)
    def test_one_decode_serves_every_decoder(self, decoder, policy, monkeypatch):
        runner = harness._SweepRunner(tiny_config(
            m=3, n=2, decoder=decoder, iterations=4, k_list=3, radius_policy=policy
        ))
        cfg, q, frames = runner.cfg, runner.constellation, 5
        _, model = runner.transmit([(0, j) for j in range(frames)], [0.3] * frames)
        omega = np.linspace(0.4, 0.9, frames)[:, None, None] if cfg.uses_omega else None
        calls = self.record_harness_calls(monkeypatch)
        est, ops = runner.decode(model, omega)
        assert [name for name, *_ in calls] == self.CALLS[decoder]
        assert est.shape == (frames, 2, 3)
        assert ops.shape == (frames,) and ops.dtype.kind == "i"
        (_, args, kwargs, first), *rest = calls
        assert args[0] is model and args[0].y_t.shape == (frames, 2, 3)
        if cfg.uses_omega:
            # iterations in third place, as a probe of the benchmark reads it
            assert len(args) == 4 and args[1] is omega and args[2] == cfg.iterations
            assert args[3] is q and kwargs == {}
        if decoder == "sd2d_im_init":
            (_, demap_args, _, initial), (_, args, kwargs, _) = rest
            assert demap_args[0] is first and demap_args[1] is q
        if decoder.startswith("sd2d"):
            # the initial estimate as a keyword, as a probe of the benchmark reads it
            s_hat, _, counter = calls[-1][3]
            assert len(args) == 3 and args[1] is q and args[2] == cfg.k_list
            assert kwargs["initial"] is (initial if cfg.uses_omega else None)
            infinite = cfg.uses_omega and policy == "infinite"
            assert kwargs["radius_sq"] == (np.inf if infinite else None)
            assert est is s_hat
            assert np.array_equal(ops, counter.mults + counter.adds) and ops.all()
        else:
            assert est is first
            assert not ops.any()


class TestLockstepRounds:
    @staticmethod
    def count_harness_substreams(monkeypatch):
        calls = []
        original = channel.substream

        def counted(*args):
            if sys._getframe(1).f_globals["__name__"] == harness.__name__:
                calls.append(args)
            return original(*args)

        monkeypatch.setattr(channel, "substream", counted)
        return calls

    @pytest.mark.parametrize("cfg, drops", [
        (replace(harness.PRESETS["fig3"], ebn0_db_points=(0.0, 4.0, 8.0), max_frames=120), True),
        (tiny_config(m=3, n=2, decoder="sd2d_im_init", ebn0_db_points=(0.0, 6.0),
                     omega_values=(0.5, 0.9), iterations=8, k_list=4, min_bit_errors=15,
                     max_frames=30), False),
    ], ids=["fig3_cut", "tiny_sd2d_im_init"])
    def test_counted_frames_drawn_once_dropped_frames_after_them(self, cfg, drops, monkeypatch):
        calls = self.count_harness_substreams(monkeypatch)
        result = harness.run_sweep(cfg, workers=1)
        drawn = [args[1:3] for args in calls]  # (cell_index, frame_index)
        assert len(set(drawn)) == len(drawn)
        counted = {(c.cell_index, j) for c in result.cells for j in range(c.frames)}
        assert counted <= set(drawn)
        frames = {c.cell_index: c.frames for c in result.cells}
        dropped = set(drawn) - counted
        assert all(index >= frames[cell] for cell, index in dropped)
        if drops:
            assert dropped
        # some cells stop on min_bit_errors, some on max_frames
        assert {c.bit_errors >= cfg.min_bit_errors for c in result.cells} == {True, False}

    @pytest.mark.parametrize("workers", [2, 3])
    def test_dropped_frames_leave_cells_independent_of_workers(self, workers, monkeypatch):
        cfg = replace(harness.PRESETS["fig3"], ebn0_db_points=(0.0, 4.0, 8.0), max_frames=120)
        calls = self.count_harness_substreams(monkeypatch)
        alone = harness.run_sweep(cfg, workers=1)
        assert len(calls) > sum(c.frames for c in alone.cells)
        # every field but the wall time, so a new BerCell field that depends
        # on how the cells are grouped fails here too
        pooled = harness.run_sweep(cfg, workers=workers)
        assert results(pooled.cells) == results(alone.cells)

    @pytest.mark.parametrize("cfg, drops", [
        (tiny_config(m=3, n=2, decoder="sd2d_im_init", ebn0_db_points=(0.0, 6.0),
                     omega_values=(0.5, 0.9), iterations=8, k_list=4, min_bit_errors=15,
                     max_frames=30), False),
        # one frame often carries the last few errors a cell needs, so a round
        # that ran past the stop rule would count extra frames here
        (tiny_config(ebn0_db_points=(0.0, 2.0, 4.0), min_bit_errors=5, max_frames=40), False),
        # the sphere decoder's operations of a dropped frame would change
        # mean_decoder_ops here
        (replace(harness.PRESETS["fig4a"], ebn0_db_points=(0.0, 2.0), max_frames=120,
                 master_seed=1), True),
    ], ids=["tiny_sd2d_im_init", "tiny_matched", "fig4a_cut"])
    def test_round_budget_does_not_change_results(self, cfg, drops, monkeypatch):
        calls = self.count_harness_substreams(monkeypatch)
        full = harness.run_sweep(cfg, workers=1)
        if drops:
            assert len(calls) > sum(c.frames for c in full.cells)
        # with a budget of one frame every round runs one frame, so the stop
        # rule is applied after each frame
        monkeypatch.setattr(modem, "STACK_ENTRIES", cfg.m * cfg.n)
        one_frame = harness.run_sweep(cfg, workers=1)
        assert results(one_frame.cells) == results(full.cells)

    @staticmethod
    def recorded_rounds(monkeypatch):
        """A patch of the runner's ``transmit`` that hands back each round's
        ``(cell_index, frame_index)`` keys, in stack order."""
        rounds = []
        original = harness._SweepRunner.transmit

        def recorded(self, frames, sigma_sq):
            rounds.append(list(frames))
            return original(self, frames, sigma_sq)

        monkeypatch.setattr(harness._SweepRunner, "transmit", recorded)
        return rounds

    def test_a_round_keeps_its_arrays_until_the_next_round_has_allocated(self, monkeypatch):
        # freed first, a 32-frame 16x16 round's 128 KiB arrays let glibc trim
        # the heap, and each round faulted its pages in again: 9.5 minor
        # faults a frame against 0.8, and cut fig2a ran 5-9 % slower
        kept, last = [], []
        original = harness._SweepRunner.transmit

        def recorded(self, frames, sigma_sq):
            bits, model = original(self, frames, sigma_sq)
            kept.append(all(ref() is not None for ref in last))
            last[:] = [weakref.ref(bits), weakref.ref(model)]
            return bits, model

        monkeypatch.setattr(harness._SweepRunner, "transmit", recorded)
        cfg = replace(harness.PRESETS["fig2a"], ebn0_db_points=(2.0,), omega_values=(0.5,),
                      iterations=5, min_bit_errors=10**9, max_frames=100)
        harness.run_sweep(cfg, workers=1)
        assert len(kept) == 4 and all(kept)

    def test_a_cell_that_wants_few_frames_leaves_the_rest_to_the_others(self, monkeypatch):
        # a budget of 16 frames; the noiseless cell sees no error, so after
        # its first round its bound asks for 19 frames, past an even share
        monkeypatch.setattr(modem, "STACK_ENTRIES", 2 * 2 * 16)
        rounds = self.recorded_rounds(monkeypatch)
        cfg = tiny_config(ebn0_db_points=(-20.0, math.inf), master_seed=2, min_bit_errors=32,
                          max_frames=40)
        result = harness.run_sweep(cfg, workers=1)
        assert [(c.frames, c.bit_errors) for c in result.cells] == [(9, 33), (40, 0)]
        # the noisy cell wants 4 frames in the second round, and the rest of
        # the budget goes to the noiseless one; each cell's frames stay
        # contiguous, in cell order
        assert rounds[1] == [(0, 4 + j) for j in range(4)] + [(1, 4 + j) for j in range(12)]
        assert [len(keys) for keys in rounds] == [8, 16, 16, 9]

    def test_fuller_rounds_on_a_cut_fig3_sweep(self, monkeypatch):
        # an even share of the budget ran this sweep in 11 rounds that
        # computed 1395 frames; the max-min share fills rounds with the
        # frames the cells with the largest wants ask for
        rounds = self.recorded_rounds(monkeypatch)
        cfg = replace(harness.PRESETS["fig3"], ebn0_db_points=(0.0, 4.0, 8.0), max_frames=400,
                      master_seed=4)
        result = harness.run_sweep(cfg, workers=1)
        computed = sum(map(len, rounds))
        assert (len(rounds), computed, sum(c.frames for c in result.cells)) == (9, 1401, 1390)
        assert len(rounds) < 11 and computed <= 1.01 * 1395

    def test_rounds_never_stack_more_than_the_budget(self, monkeypatch):
        cfg = replace(harness.PRESETS["fig2a"], ebn0_db_points=(10.0,),
                      omega_values=(0.25, 0.5, 0.75), min_bit_errors=10**9, max_frames=100)
        budget = modem.STACK_ENTRIES // (cfg.m * cfg.n)
        stacked = []
        original = detect.refresh_observation

        def recorded(model, y_tf):
            stacked.append(y_tf.shape[0])
            return original(model, y_tf)

        monkeypatch.setattr(detect, "refresh_observation", recorded)
        result = harness.run_sweep(cfg, workers=1)
        assert [c.frames for c in result.cells] == [100] * 3
        assert sum(stacked) == 300
        assert max(stacked) == budget


class TestShare:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(wants=st.lists(st.integers(0, 1200), max_size=24), budget=st.integers(1, 1100))
    def test_grants_share_the_budget_max_min_fairly(self, wants, budget):
        grants = harness._share(wants, budget)
        assert len(grants) == len(wants)
        assert all(0 <= grant <= want for grant, want in zip(grants, wants))
        assert sum(grants) == min(sum(wants), budget)
        for grant, want in zip(grants, wants):
            # a larger want never gets a smaller grant, and a cell short of
            # its want is short of no other grant by more than the rounding
            assert all(want <= other for g, other in zip(grants, wants) if grant < g)
            if grant < want:
                assert grant >= max(grants) - 1
        assert harness._share(list(wants), budget) == grants

    def test_a_small_want_leaves_the_rest_to_a_larger_one(self):
        assert harness._share([4, 600], 512) == [4, 508]
        assert harness._share([600, 4, 700], 512) == [254, 4, 254]
        # the rounding goes to the later cells of a tie
        assert harness._share([9, 9, 9], 10) == [3, 3, 4]
        assert harness._share([], 512) == []


class TestEmitResults:
    def test_empty_sweep_writes_header_only(self, tmp_path):
        result = harness.BerResult(config=tiny_config(), cells=[])
        csv_path, json_path = harness.emit_results(result, tmp_path)
        rows = list(csv.reader(open(csv_path)))
        assert len(rows) == 1
        assert rows[0][0] == "config_hash"
        sidecar = json.load(open(json_path))
        assert sidecar["config"]["M"] == 2

    def test_single_cell_roundtrips(self, tmp_path):
        cfg = tiny_config(max_frames=5, min_bit_errors=1)
        result = harness.run_sweep(cfg, workers=1)
        csv_path, _ = harness.emit_results(result, tmp_path)
        rows = list(csv.DictReader(open(csv_path)))
        assert len(rows) == 1
        row = rows[0]
        assert int(row["bits"]) == result.cells[0].bits_sent
        assert float(row["ber"]) == result.cells[0].ber
        assert float(row["eta"]) == pytest.approx(cfg.eta, abs=1e-12)
        assert int(row["seed"]) == cfg.master_seed
        assert row["decoder"] == "matched"

    def test_same_config_same_hash_in_both_files(self, tmp_path):
        cfg = tiny_config(max_frames=3, min_bit_errors=1)
        r1 = harness.run_sweep(cfg, workers=1)
        c1, j1 = harness.emit_results(r1, tmp_path / "one")
        c2, j2 = harness.emit_results(r1, tmp_path / "two")
        h1 = list(csv.DictReader(open(c1)))[0]["config_hash"]
        h2 = list(csv.DictReader(open(c2)))[0]["config_hash"]
        assert h1 == h2 == json.load(open(j1))["config_hash"] == json.load(open(j2))["config_hash"]

    def test_failed_write_keeps_previous_results(self, tmp_path):
        class DiskFull:
            def __str__(self):
                raise OSError("no space left on device")

        result = harness.run_sweep(tiny_config(ebn0_db_points=(4.0, 6.0), max_frames=3), workers=1)
        csv_path, _ = harness.emit_results(result, tmp_path)
        before = sorted(p.name for p in tmp_path.iterdir())
        old_bytes = open(csv_path, "rb").read()
        # the second row fails after the header and first row are written
        cells = [result.cells[0], replace(result.cells[1], bit_errors=DiskFull())]
        with pytest.raises(OSError, match="no space left"):
            harness.emit_results(replace(result, cells=cells), tmp_path)
        assert open(csv_path, "rb").read() == old_bytes
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_a_sidecar_name_too_long_leaves_no_temporary_file(self, tmp_path):
        # the CSV's temporary name fits the directory's name limit, the
        # sidecar's is 8 characters longer and does not
        name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
        stem = "s" * (name_max - len(f".csv.{os.getpid()}.tmp"))
        result = harness.BerResult(config=tiny_config(), cells=[])
        with pytest.raises(OSError, match="failed writing results under"):
            harness.emit_results(result, tmp_path, stem=stem)
        assert list(tmp_path.iterdir()) == []

    def test_blocked_sidecar_keeps_previous_csv(self, tmp_path):
        result = harness.run_sweep(tiny_config(max_frames=3), workers=1)
        csv_path, json_path = harness.emit_results(result, tmp_path)
        old_bytes = open(csv_path, "rb").read()
        os.remove(json_path)
        os.mkdir(json_path)
        # a header-only CSV would differ from the one on disk
        with pytest.raises(OSError, match="failed writing results under"):
            harness.emit_results(replace(result, cells=[]), tmp_path)
        assert open(csv_path, "rb").read() == old_bytes
        assert sorted(p.name for p in tmp_path.iterdir()) == ["results.config.json",
                                                               "results.csv"]

    @pytest.mark.parametrize("sub", [(), ("sub",)], ids=["file", "under_file"])
    def test_out_dir_blocked_by_a_file_names_it(self, tmp_path, sub):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out_dir = blocker.joinpath(*sub)
        result = harness.BerResult(config=tiny_config(), cells=[])
        with pytest.raises(OSError, match=re.escape(f"failed writing results under {out_dir}")):
            harness.emit_results(result, out_dir)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]

    def test_eta_column_matches_formula(self, tmp_path):
        cfg = tiny_config(alpha=0.775, beta=0.775, max_frames=3, min_bit_errors=1)
        result = harness.run_sweep(cfg, workers=1)
        csv_path, _ = harness.emit_results(result, tmp_path)
        row = list(csv.DictReader(open(csv_path)))[0]
        assert float(row["eta"]) == pytest.approx(1 / (0.775 * 0.775) - 1, abs=1e-12)


class TestPresets:
    def test_all_presets_valid(self):
        for name in ("fig2a", "fig2b", "fig3", "fig4a", "fig4b"):
            cfg = harness.PRESETS[name]
            assert isinstance(cfg, harness.SweepConfig)


class TestDecoderOrdering:
    def test_objective_ordering_on_seeded_batch(self):
        # final objective: sphere decoder with iterative init <= iterative
        # soft decoder's demapped frame, frame by frame (radius policy);
        # the iterative decoder is compared with the matched start on the
        # correlation residual
        runner = harness._SweepRunner(tiny_config(m=4, n=4, alpha=0.775, beta=0.775,
                                                  master_seed=17))
        q = runner.constellation
        sigma_sq = channel.noise_variance(6.0, runner.eb)
        op = distortion_operator(runner.base_model)
        _, models = runner.transmit([(0, f) for f in range(40)], [sigma_sq] * 40)
        ws = detect.im_soft_decode(models, 0.5, 20, q)
        im_frames = detect.hard_demap(ws, q)
        _, sd_loss, _ = detect.sd2d_decode(models, q, k_list=16, initial=im_frames)
        assert np.all(sd_loss <= detect.total_objective(models, im_frames) * (1 + 1e-9))
        for frame_index in range(40):
            model, w = detect.refresh_observation(models, models.y_t[frame_index]), ws[frame_index]
            x0 = detect.matched_filter_estimate(model)
            resid_im = np.linalg.norm(x0 - op(soft_clip(w / q.axis_magnitude, 0.0)
                                              * q.axis_magnitude))
            resid_mf = np.linalg.norm(x0 - op(detect.hard_demap(x0, q)))
            assert resid_im <= resid_mf * (1 + 1e-9)
