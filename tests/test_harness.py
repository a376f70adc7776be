"""Tests for the Monte-Carlo sweep runner, persistence, and presets."""

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from ddmod import channel, detect, harness, modem


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

    def test_invalid_decoder(self):
        with pytest.raises(ValueError):
            tiny_config(decoder="genie")

    def test_requires_points(self):
        with pytest.raises(ValueError):
            tiny_config(ebn0_db_points=())

    @pytest.mark.parametrize("override", [
        {"alpha": 1.5},
        {"M": "4"},
        {"iterations": 0},
        {"K_list": 0},
        {"constellation": "16qam"},
        {"decoder": "im_soft", "omega_values": []},
        {"ebn0_db_points": [float("nan")]},
        {"ebn0_db_points": [-math.inf]},
        {"omega_values": [math.inf]},
    ])
    def test_bad_config_rejected_at_load(self, override):
        data = tiny_config().to_json_dict()
        data.update(override)
        with pytest.raises(ValueError):
            harness.SweepConfig.from_json_dict(data)

    def test_cell_enumeration_with_and_without_omega(self):
        cfg = tiny_config(decoder="im_soft", ebn0_db_points=(0.0, 2.0),
                          omega_values=(0.25, 0.5))
        assert [c[0] for c in cfg.cells()] == [0, 1, 2, 3]
        assert cfg.cells()[1][1:] == (0.0, 0.5)
        cfg2 = tiny_config(decoder="matched", ebn0_db_points=(0.0, 2.0))
        assert [(i, e, w) for i, e, w in cfg2.cells()] == [(0, 0.0, None), (1, 2.0, None)]

    def test_eta(self):
        cfg = tiny_config(alpha=0.8, beta=0.8)
        assert cfg.eta == pytest.approx(0.5625, abs=1e-12)


class TestConfigHash:
    def test_identical_configs_share_hash(self):
        assert harness.config_hash(tiny_config()) == harness.config_hash(tiny_config())

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


class TestRunBerPoint:
    def test_noiseless_chain_has_zero_errors(self):
        # noise disabled through an infinite operating point
        cfg = tiny_config(ebn0_db_points=(math.inf,), max_frames=10, min_bit_errors=1)
        cell = harness.run_ber_point(cfg, math.inf, None, 0)
        assert cell.bit_errors == 0
        assert cell.frames == 10
        assert cell.ber == 0.0

    def test_deterministic_across_runs(self):
        cfg = tiny_config()
        a = harness.run_ber_point(cfg, 4.0, None, 0)
        b = harness.run_ber_point(cfg, 4.0, None, 0)
        assert (a.bit_errors, a.bits_sent, a.frames) == (b.bit_errors, b.bits_sent, b.frames)
        assert a.ber == b.ber

    def test_matched_qpsk_anchor_matches_qfunction(self):
        # orthogonal limit against the closed-form QPSK reference at 4 dB
        cfg = harness.SweepConfig(
            m=8, n=8, alpha=1.0, beta=1.0, decoder="matched",
            ebn0_db_points=(4.0,), master_seed=11,
            min_bit_errors=150, max_frames=500,
        )
        cell = harness.run_ber_point(cfg, 4.0, None, 0)
        ref = qfunc(math.sqrt(2 * 10 ** (4.0 / 10)))
        se = math.sqrt(ref * (1 - ref) / cell.bits_sent)
        assert abs(cell.ber - ref) <= 3 * se

    def test_all_decoders_run(self):
        for decoder in harness.DECODERS:
            cfg = tiny_config(decoder=decoder, ebn0_db_points=(6.0,), k_list=4,
                              iterations=5, max_frames=8, min_bit_errors=1000)
            omega = 0.5 if cfg.uses_omega else None
            cell = harness.run_ber_point(cfg, 6.0, omega, 0)
            assert cell.error is None
            assert cell.frames == 8
            if decoder.startswith("sd2d"):
                assert cell.mean_decoder_ops > 0


class TestRunSweep:
    def test_grid_and_determinism_across_worker_counts(self):
        cfg = tiny_config(decoder="im_soft", ebn0_db_points=(2.0, 4.0),
                          omega_values=(0.5, 1.0), iterations=5, max_frames=20,
                          min_bit_errors=10)
        seq = harness.run_sweep(cfg, workers=1)
        par = harness.run_sweep(cfg, workers=2)
        assert len(seq.cells) == 4
        for a, b in zip(seq.cells, par.cells):
            assert (a.cell_index, a.ebn0_db, a.omega) == (b.cell_index, b.ebn0_db, b.omega)
            assert (a.bits_sent, a.bit_errors, a.ber) == (b.bits_sent, b.bit_errors, b.ber)

    def test_failed_cell_does_not_abort(self, monkeypatch):
        cfg = tiny_config(ebn0_db_points=(0.0, 4.0), max_frames=5, min_bit_errors=1)
        original = harness._CellRunner.run_cell

        def sabotage(self, cell_index, ebn0_db, omega):
            if cell_index == 0:
                cell = harness.BerCell(cell_index=cell_index, ebn0_db=ebn0_db, omega=omega)
                cell.error = "synthetic failure"
                return cell
            return original(self, cell_index, ebn0_db, omega)

        monkeypatch.setattr(harness._CellRunner, "run_cell", sabotage)
        result = harness.run_sweep(cfg, workers=1)
        assert not result.completed
        assert result.cells[0].error == "synthetic failure"
        assert result.cells[1].error is None

    def test_lookup_by_point(self):
        cfg = tiny_config(ebn0_db_points=(2.0, 4.0), max_frames=5, min_bit_errors=1)
        result = harness.run_sweep(cfg, workers=1)
        assert result.cell(4.0).ebn0_db == 4.0
        with pytest.raises(KeyError):
            result.cell(99.0)

    def test_worker_count_env_var(self, monkeypatch):
        monkeypatch.setenv(harness.WORKERS_ENV, "3")
        assert harness.default_workers() == 3
        monkeypatch.delenv(harness.WORKERS_ENV)
        assert harness.default_workers() >= 1

    def test_worker_count_env_var_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv(harness.WORKERS_ENV, "abc")
        with pytest.raises(ValueError, match=f"{harness.WORKERS_ENV}.*'abc'"):
            harness.default_workers()


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

    def test_eta_column_matches_formula(self, tmp_path):
        cfg = tiny_config(alpha=0.775, beta=0.775, max_frames=3, min_bit_errors=1)
        result = harness.run_sweep(cfg, workers=1)
        csv_path, _ = harness.emit_results(result, tmp_path)
        row = list(csv.DictReader(open(csv_path)))[0]
        assert float(row["eta"]) == pytest.approx(1 / (0.775 * 0.775) - 1, abs=1e-12)


class TestPresets:
    def test_all_presets_valid(self):
        for name in ("fig2a", "fig2b", "fig3", "fig4a", "fig4b"):
            cfg = harness.preset(name)
            assert isinstance(cfg, harness.SweepConfig)

    def test_caption_cross_reference(self):
        # computed eta agrees with the recorded caption value once rounded to
        # the caption's printed precision (captions round, the CSV reports
        # the computed value)
        decimals = {"fig2a": 1, "fig2b": 0, "fig3": 1, "fig4a": 0, "fig4b": 1}
        for name, caption in harness.CAPTION_ETA.items():
            eta_pct = 100 * harness.preset(name).eta
            assert round(eta_pct, decimals[name]) == pytest.approx(100 * caption, abs=1e-9)

    def test_seed_override(self):
        assert harness.preset("fig3", master_seed=99).master_seed == 99

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            harness.preset("fig9")


class TestDecoderOrdering:
    def test_objective_ordering_on_seeded_batch(self):
        # final objective: sphere decoder with iterative init <= iterative
        # soft decoder's demapped frame, frame by frame (radius policy);
        # the iterative decoder is compared with the matched start on the
        # correlation residual
        q = modem.qpsk()
        n = m = 4
        alpha = beta = 0.775
        a = modem.build_doppler_matrix(alpha, n)
        b = modem.build_delay_matrix(beta, m)
        base = detect.build_effective_model(a, b, np.zeros((n, m), dtype=complex))
        params = modem.ModemParams(m=m, n=n, alpha=alpha, beta=beta)
        eb = channel.measure_eb(params, q, 17)
        sigma_sq = channel.noise_variance(6.0, eb)
        op = detect.distortion_operator(base)
        for frame_index in range(40):
            rng = channel.substream(17, 0, frame_index)
            bits = rng.integers(0, 2, size=n * m * 2)
            s = modem.map_bits(bits, q, n, m)
            rx = channel.awgn(modem.modulate(s, params), sigma_sq, rng)
            model = detect.refresh_observation(base, modem.wigner_rect(rx, params))
            w = detect.im_soft_decode(model, 0.5, 20)
            im_frame = detect.hard_demap(w, q)
            sd_frame, sd_loss, _ = detect.sd2d_decode(model, q, k_list=16, initial=im_frame)
            assert sd_loss <= detect.total_objective(model, im_frame) * (1 + 1e-9)
            x0 = detect.matched_filter_estimate(model)
            resid_im = np.linalg.norm(x0 - op(detect.soft_clip(w / q.axis_magnitude, 0.0)
                                              * q.axis_magnitude))
            resid_mf = np.linalg.norm(x0 - op(detect.hard_demap(x0, q)))
            assert resid_im <= resid_mf * (1 + 1e-9)
