"""Tests for the command-line interface."""

import csv
import json

import pytest

from ddmod import cli


def test_complexity_prints_budget(capsys):
    assert cli.main(["complexity", "--M", "4", "--N", "4"]) == 0
    out = capsys.readouterr().out
    assert "56 complex multiplies" in out
    assert "40 complex adds" in out
    assert "136" in out  # 1-D reference


def test_simulate_from_config_file(tmp_path, capsys):
    config = {
        "M": 2, "N": 2, "alpha": 0.9, "beta": 0.9,
        "constellation": "qpsk",
        "ebn0_db_points": [4.0], "decoder": "matched",
        "omega_values": [0.5], "iterations": 5, "K_list": 4,
        "radius_policy": "im_init", "master_seed": 3,
        "min_bit_errors": 5, "max_frames": 20,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    rc = cli.main(["simulate", "--config", str(cfg_path), "--out", str(out_dir),
                   "--workers", "1"])
    assert rc == 0
    rows = list(csv.DictReader(open(out_dir / "results.csv")))
    assert len(rows) == 1
    assert rows[0]["decoder"] == "matched"
    sidecar = json.load(open(out_dir / "results.config.json"))
    assert sidecar["config"]["master_seed"] == 3


def test_simulate_singular_model_exits_1_with_header_only_csv(tmp_path):
    config = {"M": 16, "N": 16, "alpha": 0.1, "beta": 0.1, "decoder": "matched",
              "ebn0_db_points": [2.0, 4.0], "max_frames": 2}
    cfg_path = tmp_path / "singular.json"
    cfg_path.write_text(json.dumps(config))
    rc = cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path),
                   "--workers", "1"])
    assert rc == 1
    rows = list(csv.reader(open(tmp_path / "results.csv")))
    assert len(rows) == 1 and rows[0][0] == "config_hash"


def test_simulate_rejects_unknown_config_keys(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"M": 2, "N": 2, "alpha": 1, "beta": 1, "bogus": 1}))
    with pytest.raises(ValueError, match="unknown config keys"):
        cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)])


def test_simulate_preset_resolves_and_runs(tmp_path, capsys, monkeypatch):
    # stub the sweep so the preset path is exercised without the full run
    from ddmod import harness

    captured = {}

    def fake_run_sweep(cfg, workers=None):
        captured["cfg"] = cfg
        return harness.BerResult(config=cfg, cells=[])

    monkeypatch.setattr(harness, "run_sweep", fake_run_sweep)
    rc = cli.main(["simulate", "--preset", "fig4b", "--seed", "7",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert captured["cfg"].master_seed == 7
    assert captured["cfg"].alpha == 0.775
    assert (tmp_path / "results.csv").exists()


def test_verify_properties(capsys):
    assert cli.main(["verify-properties"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
