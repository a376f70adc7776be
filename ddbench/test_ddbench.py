"""Tests of the benchmark itself, mostly on a tiny sweep.

    python3 -m pytest ddbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import ModuleType

import gate
import run
import spans

DD = run.import_ddmod()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_config(**overrides):
    base = dict(
        m=2, n=2, alpha=0.9, beta=0.9, ebn0_db_points=(2.0, 6.0),
        decoder="sd2d_im_init", omega_values=(0.5,), iterations=3, k_list=4,
        master_seed=3, min_bit_errors=5, max_frames=8,
    )
    base.update(overrides)
    return DD.harness.SweepConfig(**base)


def reference_for(cfg):
    result = DD.harness.run_sweep(cfg, workers=1)
    assert result.completed
    return [gate.cell_triple(c) for c in result.cells]


def traced_sweep(cfg):
    tracer, targets = run.make_tracer(DD)
    with tracer.patched(targets):
        start = time.perf_counter_ns()
        result = DD.harness.run_sweep(cfg, workers=1)
        total = time.perf_counter_ns() - start
    return tracer, result, total


def test_self_time_is_duration_minus_child_spans():
    # label, start, end, parent, frame, probe
    recorded = [
        ["root", 0, 100, -1, None, None],
        ["child", 10, 40, 0, None, None],
        ["grandchild", 20, 30, 1, None, None],
        ["child", 50, 60, 0, None, None],
        ["root", 120, 125, -1, None, None],
    ]
    assert spans.self_times(recorded) == [60, 20, 10, 10, 5]


def make_module(name, source, **env):
    module = ModuleType(name)
    module.__dict__.update(env)
    exec(source, module.__dict__)
    return module


def test_tracer_records_cross_module_calls_with_parents_frames_and_probes():
    low = make_module("low", "def leaf(x):\n    return x + 1\n")
    high = make_module(
        "high",
        "def open(seed, stream, index):\n    return index\n"
        "def helper(x):\n    return low.leaf(x)\n"
        "def outer(x):\n    return helper(x) * 2\n",
        low=low,
    )
    originals = (low.leaf, high.open, high.helper, high.outer)
    tracer = spans.Tracer(opener="high.open", frame_key=lambda a, k: (a[1], a[2]),
                          probes={"high.outer": lambda a, k, r: r})
    targets = [(low, "leaf", "low.leaf")] + [
        (high, name, f"high.{name}") for name in ("open", "helper", "outer")
    ]
    with tracer.patched(targets):
        high.outer(1)
        high.open(0, 7, 2)
        assert high.outer(3) == 8
    assert (low.leaf, high.open, high.helper, high.outer) == originals
    # high.outer -> high.helper stays inside one module and is not recorded
    got = [(s[0], s[3], s[4], s[5]) for s in tracer.spans]
    assert got == [
        ("high.outer", -1, None, 4), ("low.leaf", 0, None, None),
        ("high.open", -1, (7, 2), None),
        ("high.outer", -1, (7, 2), 8), ("low.leaf", 3, (7, 2), None),
    ]


def test_layer_self_times_sum_to_the_traced_sweep():
    cfg = tiny_config()
    tracer, result, total = traced_sweep(cfg)
    by_label = {"harness": total}
    for span, own in zip(tracer.spans, spans.self_times(tracer.spans)):
        by_label[span[0]] = by_label.get(span[0], 0) + own
        if span[3] < 0:
            by_label["harness"] -= span[2] - span[1]
    # children nest inside their parents, so self times never go negative
    assert all(ns >= 0 for ns in by_label.values())
    assert sum(by_label.values()) == total
    openers = [s for s in tracer.spans if s[0] == "channel.substream" and s[3] < 0]
    assert len(openers) == sum(c.frames for c in result.cells)
    assert {"modem.modulate", "detect.sd2d_decode", "numerics.qr_decompose"} <= set(by_label)


def test_sd2d_probe_counts_match_the_decoder_ops():
    cfg = tiny_config()
    tracer, result, total = traced_sweep(cfg)
    metrics = run.layer_metrics(tracer, [(result, total)], cfg)
    frames = sum(c.frames for c in result.cells)
    ops = sum(c.mean_decoder_ops * c.frames for c in result.cells)
    assert abs(metrics["detect.sd2d_decode.ops_per_frame"][0] * frames - ops) < 1e-6 * ops


def measure(cfg, expected, workers=1, trace=False):
    """One sweep (plus one traced sweep with ``trace``) of a fixed config."""
    return run.measure(DD, lambda j: cfg, workers, lambda c: expected, 0.0, trace)


def test_reference_passes_and_one_bit_error_trips_the_gate():
    cfg = tiny_config()
    expected = reference_for(cfg)
    _, attempted, problems, _ = measure(cfg, expected)
    assert problems == [] and attempted == len(expected)

    altered = [list(t) for t in expected]
    altered[1][1] += 1
    _, attempted, problems, _ = measure(cfg, altered)
    assert len(problems) == 1 and "cell 1" in problems[0]

    _, _, problems, _ = measure(cfg, None)
    assert len(problems) == len(expected)


def test_traced_result_must_equal_the_untraced_one():
    cells = DD.harness.run_sweep(tiny_config(), workers=1).cells
    other = DD.harness.run_sweep(tiny_config(), workers=1).cells
    assert gate.same_cells(cells, other) == []
    other[0].bit_errors += 1
    other[1].wall_time += 1.0
    assert len(gate.same_cells(cells, other)) == 1


def test_metric_names_match_benchmark_json():
    cfg = tiny_config()
    expected = reference_for(cfg)
    e2e, _, problems, _ = measure(cfg, expected)
    assert problems == []
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        name: unit for name, (_, unit) in e2e.items()
    }
    # a pool sweep checked against the single-process reference, and a traced
    # sweep that must reproduce it
    layers, attempted, problems, _ = measure(cfg, expected, workers=2, trace=True)
    assert problems == [] and attempted == 2 * len(expected)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: unit for name, (_, unit) in layers.items()
    }
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)


def test_sweeps_step_through_master_seeds_with_references():
    reference = gate.load_reference()
    for name in run.WORKLOADS:
        configs, _, key = run.workload(DD.harness, name, gate.REFERENCE_SEEDS - 1)
        assert [configs(j).master_seed for j in range(3)] == [gate.REFERENCE_SEEDS - 1, 0, 1]
        for j in range(3):
            triples = gate.expected_triples(reference, key, configs(j))
            assert triples is not None and len(triples) == len(configs(j).cells())


def test_command_prints_a_correct_result_line():
    proc = subprocess.run(
        [sys.executable, "ddbench/run.py", "--workload", "im16x16", "--seed", "40",
         "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 8
    assert "cell_fail_ratio 0.0 ratio" in proc.stdout


def test_command_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "ddbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "ddbench/run.py", "--workload", "im4x4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
