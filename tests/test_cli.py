"""Tests for the command-line interface."""

import csv
import json
import os
import subprocess
import sys

import pytest

import ddmod
from ddmod import cli


COMPLEXITY_OUT = {  # (M, N) -> the whole stdout, pinned byte for byte
    (4, 4): "frame 4 x 4\n"
            "  2-D decoder: 56 complex multiplies, 40 complex adds; QR 4x4 and 4x4\n"
            "  1-D reference: 136 multiplies, 136 adds; QR 16x16\n",
    (16, 16): "frame 16 x 16\n"
              "  2-D decoder: 2432 complex multiplies, 2176 complex adds; QR 16x16 and 16x16\n"
              "  1-D reference: 32896 multiplies, 32896 adds; QR 256x256\n",
    (8, 16): "frame 8 x 16\n"
             "  2-D decoder: 704 complex multiplies, 576 complex adds; QR 8x8 and 16x16\n"
             "  1-D reference: 8256 multiplies, 8256 adds; QR 128x128\n",
    (1, 1): "frame 1 x 1\n"
            "  2-D decoder: 2 complex multiplies, 1 complex adds; QR 1x1 and 1x1\n"
            "  1-D reference: 1 multiplies, 1 adds; QR 1x1\n",
    (3, 5): "frame 3 x 5\n"
            "  2-D decoder: 45 complex multiplies, 30 complex adds; QR 3x3 and 5x5\n"
            "  1-D reference: 120 multiplies, 120 adds; QR 15x15\n",
}


@pytest.mark.parametrize("m, n", COMPLEXITY_OUT)
def test_complexity_prints_budget(capsys, m, n):
    assert cli.main(["complexity", "--M", str(m), "--N", str(n)]) == 0
    assert capsys.readouterr().out == COMPLEXITY_OUT[m, n]


@pytest.mark.parametrize("argv, message", [
    (["--M", "0", "--N", "4"], "argument --M: must be at least 1, got 0"),
    (["--M", "4", "--N", "-2"], "argument --N: must be at least 1, got -2"),
    (["--M", "x", "--N", "4"], "argument --M: must be an integer, got 'x'"),
], ids=["M_zero", "N_negative", "M_text"])
def test_complexity_rejects_bad_dimensions_in_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(["complexity", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"ddmod complexity: error: {message}"
    assert "Traceback" not in err


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


@pytest.mark.parametrize("workers,message", [
    ("0", "must be at least 1, got 0"),
    ("-3", "must be at least 1, got -3"),
    ("two", "must be an integer, got 'two'"),
])
def test_simulate_rejects_bad_worker_counts(tmp_path, capsys, workers, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--preset", "fig4a", "--out", str(tmp_path),
                  "--workers", workers])
    assert exc.value.code == 2
    assert f"argument --workers: {message}" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


def test_simulate_refuses_an_unknown_preset_in_one_line(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--preset", "fig9", "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert [line for line in lines if "error:" in line] == lines[-1:]
    assert lines[-1].startswith("ddmod simulate: error: argument --preset: invalid choice: 'fig9'")
    assert "Traceback" not in err
    assert not (tmp_path / "results.csv").exists()


def test_simulate_rejects_unknown_config_keys(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"M": 2, "N": 2, "alpha": 1, "beta": 1, "bogus": 1}))
    rc = cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == "ddmod: error: unknown config keys: ['bogus']\n"
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("text,message", [
    ('{"N": 2, "alpha": 1, "beta": 1}', "missing config keys: ['M']"),
    ("[1, 2]", "config must be a JSON object, got list"),
    ('{"M": 2, "N": 2, "alpha": 1.5, "beta": 1}', "compression factors must lie in (0, 1]"),
    ('{"M": 2, "N": 2, "alpha": 1, "beta": 1, "decoder": "matched", "ebn0_db_points": [4000]}',
     "ebn0_db_points must be in [-3000, 3000] dB"),
    ('{"M": 2, "N": 2,', "Expecting property name enclosed in double quotes"),
    (None, "No such file or directory"),
    ('{"M": 2, "N": 2, "alpha": 1%s, "beta": 1}' % ("0" * 400),
     "alpha holds a number too large for a float"),
    ('{"M": 2, "N": 2, "alpha": 1, "beta": 1, "decoder": "im_soft", "omega_values": [1%s]}'
     % ("0" * 400), "omega_values holds a number too large for a float"),
    ('{"M": 2, "N": 2, "alpha": 1e-200, "beta": 1e-200}',
     "compression factors 1e-200 and 1e-200 multiply to 0.0"),
    ('{"M": 2, "N": 2, "alpha": 1, "beta": 1, "decoder": "matched", "ebn0_db_points": [%s]}'
     % ", ".join(["0"] * 236), "a sweep has at most 235 cells"),
], ids=["missing_key", "list", "bad_value", "far_ebn0", "bad_json", "no_file", "huge_alpha",
        "huge_omega", "alpha_beta_underflow", "too_many_cells"])
def test_simulate_reports_a_bad_config_in_one_line(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "sweep.json"
    if text is not None:
        cfg_path.write_text(text)
    rc = cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ddmod: error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed,message", [
    ("-1", "must be an integer of at least 0, got -1"),
    (str(2**64), f"must lie in [0, 2**64), got {2**64}"),
], ids=["-1", str(2**64)])
def test_simulate_rejects_an_out_of_range_seed_in_one_line(tmp_path, capsys, seed, message):
    rc = cli.main(["simulate", "--preset", "fig4a", "--seed", seed,
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ddmod: error: master_seed {message}\n"
    assert not (tmp_path / "out").exists()


def test_simulate_bad_config_exits_2_without_traceback(tmp_path):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text('{"N": 2, "alpha": 1, "beta": 1}')
    src = os.path.dirname(os.path.dirname(os.path.abspath(ddmod.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "ddmod.cli", "simulate", "--config", str(cfg_path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == "ddmod: error: missing config keys: ['M']\n"


def test_simulate_writes_its_results_when_stdout_closes(tmp_path):
    # ddmod simulate ... | head -1, with each line flushed as it is printed
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"M": 2, "N": 2, "alpha": 0.9, "beta": 0.9,
                                    "decoder": "matched", "min_bit_errors": 10**6,
                                    "ebn0_db_points": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                                    "max_frames": 1000}))
    src = os.path.dirname(os.path.dirname(os.path.abspath(ddmod.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out_dir = tmp_path / "out"
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "ddmod.cli", "simulate", "--config", str(cfg_path),
         "--out", str(out_dir), "--workers", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    try:
        assert proc.stdout.readline().startswith("sweep: matched on (2x2)")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert err == ""
    assert proc.returncode == 0
    assert len(list(csv.DictReader(open(out_dir / "results.csv")))) == 6
    assert json.load(open(out_dir / "results.config.json"))["config"]["max_frames"] == 1000


def test_simulate_preset_resolves_and_runs(tmp_path, capsys, monkeypatch):
    # stub the sweep so the preset path is exercised without the full run
    from ddmod import harness

    captured = {}

    def fake_run_sweep(cfg, workers=None):
        captured["cfg"], captured["workers"] = cfg, workers
        return harness.BerResult(config=cfg, cells=[])

    monkeypatch.setattr(harness, "run_sweep", fake_run_sweep)
    rc = cli.main(["simulate", "--preset", "fig4b", "--seed", "7",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert captured["cfg"].master_seed == 7
    assert captured["cfg"].alpha == 0.775
    # the sweep, not the CLI, resolves an absent --workers
    assert captured["workers"] is None
    assert (tmp_path / "results.csv").exists()
    rc = cli.main(["simulate", "--preset", "fig4b", "--out", str(tmp_path), "--workers", "2"])
    assert rc == 0 and captured["workers"] == 2


@pytest.mark.parametrize("sub", [(), ("sub",)], ids=["file", "under_file"])
def test_simulate_reports_an_unusable_out_dir_before_the_sweep(tmp_path, capsys, monkeypatch,
                                                                sub):
    from ddmod import harness

    def no_sweep(cfg, workers=None):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(harness, "run_sweep", no_sweep)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    rc = cli.main(["simulate", "--preset", "fig4b", "--out", str(blocker.joinpath(*sub))])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ddmod: error: ") and captured.err.count("\n") == 1
    assert str(blocker) in captured.err


def test_simulate_reports_a_failed_write_after_the_sweep_in_one_line(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"M": 2, "N": 2, "alpha": 0.9, "beta": 0.9,
                                    "decoder": "matched", "ebn0_db_points": [2.0, 4.0],
                                    "max_frames": 2}))
    out_dir = tmp_path / "out"
    (out_dir / "results.csv").mkdir(parents=True)
    rc = cli.main(["simulate", "--config", str(cfg_path), "--out", str(out_dir),
                   "--workers", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    # every cell is reported before the write fails
    assert captured.out.count("  ebn0=") == 2 and "wrote" not in captured.out
    assert captured.err.startswith("ddmod: error: ") and captured.err.count("\n") == 1
    assert str(out_dir) in captured.err


def test_verify_properties(capsys):
    assert cli.main(["verify-properties"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("stem", ["", ".", "..", "a/b", os.sep + "abs"],
                         ids=["empty", "dot", "dotdot", "nested", "absolute"])
def test_simulate_refuses_a_stem_that_is_not_a_file_name_before_the_sweep(
    tmp_path, capsys, monkeypatch, stem
):
    from ddmod import harness

    def no_sweep(cfg, workers=None):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(harness, "run_sweep", no_sweep)
    rc = cli.main(["simulate", "--preset", "fig4b", "--out", str(tmp_path / "out"),
                   "--stem", stem])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"ddmod: error: --stem must be a file name with no directory, got {stem!r}\n"
    )
    assert not (tmp_path / "out").exists()


def test_simulate_writes_under_a_plain_stem(tmp_path):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"M": 2, "N": 2, "alpha": 0.9, "beta": 0.9,
                                    "decoder": "matched", "max_frames": 2}))
    rc = cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                   "--stem", "..fig"])
    assert rc == 0
    assert sorted(os.listdir(tmp_path / "out")) == ["..fig.config.json", "..fig.csv"]


def test_simulate_runs_a_min_bit_errors_beyond_the_float_range(tmp_path):
    config = {"M": 2, "N": 2, "alpha": 0.9, "beta": 0.9, "decoder": "matched",
              "ebn0_db_points": [4.0], "min_bit_errors": 10**400, "max_frames": 20}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    rc = cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                   "--workers", "1"])
    assert rc == 0
    (row,) = csv.DictReader(open(tmp_path / "out" / "results.csv"))
    assert row["bits"] == str(20 * 2 * 2 * 2)
