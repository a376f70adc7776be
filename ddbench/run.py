"""BER-sweep benchmark for ddmod.

    python3 ddbench/run.py --workload im4x4 --seed 3 --seconds 25 --trace 0

Run from the root of a ddmod checkout: the benchmark imports the checkout's
own ``src/ddmod`` and fails (exit 1, no result line) when it is absent.

One run calls ``harness.run_sweep`` on the workload's config back to back,
untraced, until the next sweep would overrun ``--seconds``; sweep ``j`` uses
master seed ``(seed + j) % 32``.  Every sweep is checked cell by cell
against the reference stored for its master seed (see ``gate.py``).
``--trace 0`` also times the set-up on its own and reports the end-to-end
metrics, scaled for host speed (see ``CAL_REF_S``); ``--trace 1`` follows
each sweep with a traced single-process sweep that must reproduce it, and
reports the per-layer metrics.

Output: an environment block, one ``name value unit`` line per metric plus
``cell_fail_ratio``, and as the last line a JSON object with the keys
``correct``, ``attempted`` and ``failed`` (counted in cells) and ``metrics``.
The exit code is 0 only when every cell of every sweep is correct.
"""

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path
from statistics import median
from types import SimpleNamespace

# One BLAS thread per process, set before numpy loads: OpenBLAS otherwise
# starts a thread per core in the benchmark and in every pool child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import gate  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# name: (preset, overrides, workers, reference key).  Why each was chosen is
# recorded in BENCHMARK.json; im16x16 cuts fig2a to the {2, 8} dB cells and
# 150 frames so that one sweep takes about two seconds.
WORKLOADS = {
    "im4x4": ("fig3", {}, 1, "im4x4"),
    "sd4x4": ("fig4a", {}, 1, "sd4x4"),
    "im16x16": ("fig2a", {"ebn0_db_points": (2.0, 8.0), "max_frames": 150}, 1, "im16x16"),
    "sd4x4_pool2": ("fig4a", {}, 2, "sd4x4"),
}

SETUP_BLOCKS = 6
SETUP_REPS = 5
EMIT_REPS = 21

# The speed of a shared host drifts, by up to 2x for seconds to minutes at a
# time on a 2-core KVM guest, and each CPU drifts on its own; a run cannot
# outlast that drift.  So every end-to-end time is measured on known CPUs and
# scaled by CAL_REF_S / (the time of a fixed calibration kernel on those CPUs
# just before and after it).  Single-process work is pinned to one CPU; pool
# sweeps run unpinned and are calibrated on every CPU, at most CAL_CPUS.  The
# kernel does not use ddmod, so a change to ddmod cannot move it.  CAL_REF_S
# is the kernel's time when that host is quiet, so scaled figures read like
# raw ones there.
CAL_REF_S = 0.011
CAL_SAMPLES = 5
CAL_CPUS = 4
_CAL_MATRIX = np.exp(1j * np.arange(16.0)).reshape(4, 4) / 2

# labels whose self time is reported per counted frame
PER_FRAME = (
    "detect.im_soft_decode", "detect.sd2d_decode", "detect.hard_demap",
    "detect.refresh_observation", "modem.modulate", "modem.map_bits",
    "modem.wigner_rect", "modem.demap_symbols", "channel.substream", "channel.awgn",
)


def import_ddmod():
    """The checkout's own ddmod modules, never an installed copy."""
    src = ROOT / "src"
    if not (src / "ddmod" / "__init__.py").is_file():
        sys.exit(f"run.py: no ddmod sources under {src}")
    sys.path.insert(0, str(src))
    import ddmod
    from ddmod import channel, detect, harness, modem, numerics

    if Path(ddmod.__file__).resolve().parent != (src / "ddmod").resolve():
        sys.exit(f"run.py: imported ddmod from {ddmod.__file__}, not from {src}")
    return SimpleNamespace(
        channel=channel, detect=detect, harness=harness, modem=modem, numerics=numerics
    )


def workload(harness, name, seed):
    """``(configs, workers, reference key)`` of a named workload at a seed.

    ``configs(j)`` is the config of the run's sweep ``j``: sweeps step through
    consecutive master seeds, so one run averages over several seeds' mixes
    of short and long cells.
    """
    preset, overrides, workers, key = WORKLOADS[name]
    base = replace(harness.PRESETS[preset], **overrides)

    def configs(j):
        return replace(base, master_seed=gate.master_seed(seed + j))

    return configs, workers, key


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _frame_key(args, kwargs):
    return _arg(args, kwargs, 1, "stream"), _arg(args, kwargs, 2, "index")


def _im_cmults(args, kwargs, result):
    """Complex multiplies of one im_soft_decode call, in closed form."""
    n, m = _arg(args, kwargs, 0, "model").shape
    iterations = _arg(args, kwargs, 2, "iterations")
    return (iterations + 1) * (n * n * m + n * m * m) + n**3 + m**3


def _sd2d_outcome(args, kwargs, result):
    """(operation count, whether the output differs from the initial estimate)."""
    initial = kwargs.get("initial")
    changed = initial is not None and not np.array_equal(result[0], initial)
    return result[2].total, changed


def make_tracer(dd):
    """A tracer over the calls that cross module boundaries on the sweep path:
    harness to modem, channel and detect; channel to modem; detect to numerics.
    """
    calls = (
        (dd.modem, ("build_doppler_matrix", "build_delay_matrix", "map_bits",
                    "modulate", "wigner_rect", "demap_symbols")),
        (dd.channel, ("measure_eb", "noise_variance", "substream", "awgn")),
        (dd.detect, ("build_effective_model", "refresh_observation", "im_soft_decode",
                     "hard_demap", "sd2d_decode")),
        (dd.numerics, ("qr_decompose",)),
    )
    targets = [
        (module, attr, f"{module.__name__.rsplit('.', 1)[-1]}.{attr}")
        for module, attrs in calls
        for attr in attrs
    ]
    tracer = spans.Tracer(
        opener="channel.substream",
        frame_key=_frame_key,
        probes={"detect.im_soft_decode": _im_cmults, "detect.sd2d_decode": _sd2d_outcome},
    )
    return tracer, targets


def _kernel_s():
    times = []
    for _ in range(CAL_SAMPLES):
        start = time.perf_counter()
        x = _CAL_MATRIX
        for _ in range(3000):
            x = _CAL_MATRIX @ x
            x = x / np.abs(x).max()
        times.append(time.perf_counter() - start)
    return median(times)


@contextmanager
def pinned(cpus):
    """Run the block with this process's affinity set to ``cpus``."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def calibration_s(cpus):
    """Calibration kernel time on ``cpus`` (see ``CAL_REF_S``): the median of
    ``CAL_SAMPLES`` runs on each CPU, averaged over the CPUs.
    """
    per_cpu = []
    for cpu in cpus:
        with pinned({cpu}):
            per_cpu.append(_kernel_s())
    return sum(per_cpu) / len(per_cpu)


def calibrated(cpus, work):
    """``(work(), wall seconds, mean calibration before and after)``."""
    before = calibration_s(cpus)
    start = time.perf_counter()
    out = work()
    wall = time.perf_counter() - start
    return out, wall, (before + calibration_s(cpus)) / 2


def setup_once(dd, cfg):
    """Seconds of the set-up a sweep pays before its first frame."""
    start = time.perf_counter()
    params = dd.modem.ModemParams(m=cfg.m, n=cfg.n, alpha=cfg.alpha, beta=cfg.beta)
    constellation = dd.modem.get_constellation(cfg.constellation)
    a = dd.modem.build_doppler_matrix(cfg.alpha, cfg.n)
    b = dd.modem.build_delay_matrix(cfg.beta, cfg.m)
    dd.channel.measure_eb(params, constellation, cfg.master_seed)
    dd.detect.build_effective_model(a, b, np.zeros((cfg.n, cfg.m), dtype=complex))
    return time.perf_counter() - start


def setup_seconds(dd, cfg, cpu):
    """Median scaled set-up time, pinned to ``cpu``, in calibrated blocks."""
    scaled = []
    with pinned({cpu}):
        for _ in range(SETUP_BLOCKS):
            times, _, cal = calibrated(
                [cpu], lambda: [setup_once(dd, cfg) for _ in range(SETUP_REPS)]
            )
            scaled += [t * CAL_REF_S / cal for t in times]
    return median(scaled)


def peak_rss_mib():
    """Peak RSS of this process plus that of its largest child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def emit_seconds(dd, result):
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".ddbench-emit-") as out:
        times = []
        for _ in range(EMIT_REPS):
            start = time.perf_counter()
            dd.harness.emit_results(result, out)
            times.append(time.perf_counter() - start)
    return median(times)


def layer_metrics(tracer, traced, cfg):
    """Per-layer metrics of the traced sweeps ``[(result, wall_ns)]``.

    Per-frame figures divide by the frames the sweeps counted; set-up
    figures (spans before a sweep's first frame) are per sweep.
    """
    sweeps = len(traced)
    cells = [c for result, _ in traced for c in result.cells]
    frames = sum(c.frames for c in cells)
    per_frame, busy, setup, probes = {}, {}, {}, {}
    for span, own in zip(tracer.spans, spans.self_times(tracer.spans)):
        label, start, end, _, frame, probe = span
        if frame is None:
            setup[label] = setup.get(label, 0) + (end - start)
            continue
        per_frame[label] = per_frame.get(label, 0) + own
        busy[label] = busy.get(label, 0) + (end - start)
        if probe is not None:
            probes.setdefault(label, []).append(probe)
    roots = sum(end - start for _, start, end, parent, _, _ in tracer.spans if parent < 0)

    def us_per_frame(ns):
        return ns / 1e3 / frames

    def setup_s(*labels):
        return sum(setup.get(label, 0) for label in labels) / 1e9 / sweeps

    out = {
        f"{label}.us_per_frame": (us_per_frame(per_frame.get(label, 0)), "us")
        for label in PER_FRAME
    }
    im = "detect.im_soft_decode"
    out[f"{im}.cmult_per_s"] = (
        sum(probes.get(im, [])) / (busy[im] / 1e9) if busy.get(im) else 0.0, "cmult/s"
    )
    sd = probes.get("detect.sd2d_decode", [])
    out["detect.sd2d_decode.ops_per_frame"] = (sum(ops for ops, _ in sd) / frames, "count")
    out["detect.sd2d_decode.changed_ratio"] = (sum(ch for _, ch in sd) / frames, "ratio")
    out["channel.measure_eb.s"] = (setup_s("channel.measure_eb"), "s")
    out["modem.build_matrices.s"] = (
        setup_s("modem.build_doppler_matrix", "modem.build_delay_matrix"), "s"
    )
    out["numerics.qr_decompose.s"] = (setup_s("numerics.qr_decompose"), "s")
    traced_ns = sum(ns for _, ns in traced)
    out["harness.self_us_per_frame"] = (us_per_frame(traced_ns - roots), "us")
    stopped = sum(c.bit_errors >= cfg.min_bit_errors for c in cells)
    out["harness.early_stop_cell_share"] = (stopped / len(cells), "ratio")
    return out


def measure(dd, configs, workers, expected, seconds, trace):
    """Run and check one workload; returns ``(metrics, attempted, problems, notes)``.

    Sweeps run back to back, sweep ``j`` on ``configs(j)``, until the next
    would overrun ``seconds``; ``expected(cfg)`` gives the reference triples
    of a config.  With ``trace`` each sweep is followed by a traced
    single-process sweep that must reproduce it.  ``metrics`` maps a name to
    ``(value, unit)``; ``problems`` holds one message per failed cell, out of
    ``attempted`` cells; ``notes`` are unscaled figures for the log.
    """
    cfg = configs(0)
    bits_per_frame = (
        cfg.m * cfg.n * dd.modem.get_constellation(cfg.constellation).bits_per_symbol
    )
    cpus = sorted(os.sched_getaffinity(0))[:CAL_CPUS]
    setup = None if trace else setup_seconds(dd, cfg, cpus[0])
    tracer, targets = make_tracer(dd)
    reps, cals, traced, problems = [], [], [], []
    start = time.perf_counter()
    while True:
        j = len(reps)
        cfg = configs(j)
        # pool children inherit the affinity, so pool sweeps stay unpinned
        on = cpus if workers > 1 else [cpus[j % len(cpus)]]
        with nullcontext() if workers > 1 else pinned(set(on)):
            result, wall, cal = calibrated(
                on, lambda: dd.harness.run_sweep(cfg, workers=workers)
            )
        reps.append((result, wall))
        cals.append(cal)
        problems += gate.check_cells(result.cells, expected(cfg), bits_per_frame)
        if trace:
            tracer.frame = None
            with tracer.patched(targets):
                t0 = time.perf_counter_ns()
                traced_result = dd.harness.run_sweep(cfg, workers=1)
                traced.append((traced_result, time.perf_counter_ns() - t0))
            problems += gate.same_cells(result.cells, traced_result.cells)
            wall += traced[-1][1] / 1e9
        if time.perf_counter() - start + wall > seconds:
            break
    attempted = sum(len(r.cells) for r, _ in reps + traced)
    raw_fps = [sum(c.frames for c in r.cells) / w for r, w in reps]
    notes = [
        f"sweeps={len(reps)} raw_frames_per_s={median(raw_fps)!r} "
        f"calibration_s={median(cals)!r} (reference {CAL_REF_S})"
    ]
    if not trace:
        metrics = {
            "frames_per_s": (
                median(f * c / CAL_REF_S for f, c in zip(raw_fps, cals)), "frames/s"
            ),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (peak_rss_mib(), "MiB"),
        }
        return metrics, attempted, problems, notes

    pool = workers if workers > 1 and len(cfg.cells()) > 1 else 1
    metrics = layer_metrics(tracer, traced, cfg)
    metrics["harness.emit_results.s"] = (emit_seconds(dd, reps[0][0]), "s")
    metrics["harness.pool.utilization"] = (
        median(sum(c.wall_time for c in r.cells) / (pool * w) for r, w in reps), "ratio"
    )
    metrics["harness.pool.critical_cell_s"] = (
        median(max(c.wall_time for c in r.cells) for r, _ in reps), "s"
    )
    metrics["trace.overhead_ratio"] = (
        median(ns / 1e9 for _, ns in traced) / median(w for _, w in reps), "ratio"
    )
    return metrics, attempted, problems, notes


def blas_library():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError, ValueError):
        return "unknown"


def git_sha():
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    dd = import_ddmod()
    configs, workers, key = workload(dd.harness, args.workload, args.seed)
    reference = gate.load_reference()
    print(
        f"# env nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={np.__version__} blas=\"{blas_library()}\" "
        f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']} git={git_sha()}"
    )
    print(
        f"# run workload={args.workload} seed={args.seed} "
        f"first_master_seed={configs(0).master_seed} workers={workers} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    metrics, attempted, problems, notes = measure(
        dd, configs, workers, lambda cfg: gate.expected_triples(reference, key, cfg),
        args.seconds, bool(args.trace),
    )
    for note in notes:
        print(f"# {note}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    failed = len(problems)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"cell_fail_ratio {failed / attempted!r} ratio ({failed} of {attempted} cells)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
