"""Acceptance suite: one test per release criterion, each printing a verdict.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; the suite is deterministic for the
seeds baked in below.
"""

import math
import tempfile
import time
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from ddmod import channel, detect, harness, modem, properties, zak


def report(tag, ok, detail=""):
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def qfunc(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def test_criterion_1_overloading_factors():
    """Preset overloading factors equal the captions at caption precision."""
    start = time.perf_counter()
    captions = {  # preset: (caption %, caption decimals)
        "fig2a": (23.5, 1),
        "fig2b": (30.7, 1),  # caption prints 31; computed value asserted
        "fig3": (119.5, 1),
        "fig4a": (56.0, 0),  # caption prints 56; computed 56.25
        "fig4b": (66.5, 1),
    }
    for name, (caption, decimals) in captions.items():
        eta_pct = 100 * harness.preset(name).eta
        assert round(eta_pct, decimals) == caption, (name, eta_pct)
    elapsed = time.perf_counter() - start
    report("1 overloading factors", elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_2_operation_counts():
    """Instrumented single-candidate sweep counts equal the closed forms."""
    start = time.perf_counter()
    ref_seen = []
    for m, n in [(2, 2), (4, 4), (4, 8), (16, 16)]:
        assert properties.check_counter_conformance(n, m, 0.9, 0.9) == 0.0, (m, n)
        want = detect.predicted_complexity(m, n)
        assert want.mults == m * n * (min(m, n) + 3) // 2
        assert want.adds == m * n * (min(m, n) + 1) // 2
        assert want.ref_1d_mults == want.ref_1d_adds == m * n * (1 + m * n) // 2
        ref_seen.append((m, n, want.mults, want.adds, want.ref_1d_mults))
    elapsed = time.perf_counter() - start
    detail = "; ".join(f"({m},{n}): 2-D {mu}x/{ad}+ vs 1-D {r}" for m, n, mu, ad, r in ref_seen)
    report("2 operation counts", elapsed < 10.0, f"{elapsed:.2f}s; {detail}")


def test_criterion_3_ml_equivalence():
    """(2,2) QPSK at alpha=beta=0.775: K=256 decode matches exhaustive search."""
    start = time.perf_counter()
    runner = harness._CellRunner(
        harness.SweepConfig(m=2, n=2, alpha=0.775, beta=0.775, decoder="sd2d", master_seed=33)
    )
    q = runner.constellation
    hypotheses = np.array([np.array(p).reshape(2, 2) for p in product(q.points, repeat=4)])
    sigma_sq = channel.noise_variance(4.0, runner.eb)
    for frame_index in range(200):
        _, model = runner.frame(0, frame_index, sigma_sq)
        s_hat, loss, _ = detect.sd2d_decode(model, q, k_list=256)
        objs = np.array(
            [float(np.sum(np.abs(model.y_t - model.g @ f @ model.h.conj().T) ** 2))
             for f in hypotheses]
        )
        best = hypotheses[int(np.argmin(objs))]
        assert np.array_equal(s_hat, best), f"frame {frame_index} disagrees with brute force"
        assert loss == pytest.approx(objs.min(), rel=1e-10)
    elapsed = time.perf_counter() - start
    report("3 ML equivalence", elapsed < 30.0, f"200 frames, {elapsed:.1f}s")


def test_criterion_4_objective_decomposition():
    """Sum of partial metrics equals the total objective, 1e-10 relative."""
    start = time.perf_counter()
    rng = np.random.default_rng(44)
    for trial in range(100):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        alpha = float(rng.uniform(0.6, 1.0))
        beta = float(rng.uniform(0.6, 1.0))
        err = properties.check_objective_decomposition(n, m, alpha, beta, rng)
        assert err <= 1e-10, (n, m, trial)
    elapsed = time.perf_counter() - start
    report("4 objective decomposition", elapsed < 5.0, f"100 instances, {elapsed:.1f}s")


def test_criterion_5_transform_property_suite():
    """Transform identities at 1e-8 relative over 50 random frame signals each."""
    start = time.perf_counter()
    tol = 1e-8
    checks = (
        properties.check_quasi_periodicity,
        properties.check_nu_periodicity,
        properties.check_shift_invariance,
        properties.check_multiplication,
        properties.check_convolution,
        properties.check_zak_roundtrip,
        properties.check_fourier_inversion,
    )
    worst = 0.0
    for lam, mu in [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0)]:
        p = zak.ZakParams(lam=lam, mu=mu, T=1.0, samples_per_T=6, periods=5)
        rng = np.random.default_rng(55)
        for _ in range(50):
            worst = max(worst, *(check(p, rng) for check in checks))
    elapsed = time.perf_counter() - start
    assert worst <= tol, f"worst relative error {worst:.3e}"
    report("5 transform property suite", elapsed < 30.0,
           f"worst rel err {worst:.1e}, {elapsed:.1f}s")


def test_criterion_6_orthogonal_anchor():
    """OTFS/QPSK over AWGN matches the closed-form reference within 3 SE."""
    start = time.perf_counter()
    cfg = harness.SweepConfig(
        m=16, n=16, alpha=1.0, beta=1.0, decoder="matched",
        ebn0_db_points=(0.0, 2.0, 4.0, 6.0, 8.0),
        master_seed=606, min_bit_errors=100, max_frames=5000,
    )
    result = harness.run_sweep(cfg, workers=2)
    details = []
    for cell in result.cells:
        assert cell.error is None
        assert cell.bit_errors >= 100, f"{cell.ebn0_db} dB: only {cell.bit_errors} errors"
        ref = qfunc(math.sqrt(2.0 * 10 ** (cell.ebn0_db / 10)))
        se = math.sqrt(ref * (1 - ref) / cell.bits_sent)
        assert abs(cell.ber - ref) <= 3 * se, (
            f"{cell.ebn0_db} dB: ber {cell.ber:.3e} vs ref {ref:.3e} (3se {3 * se:.1e})"
        )
        details.append(f"{cell.ebn0_db:g}dB {cell.ber:.2e}~{ref:.2e}")
    elapsed = time.perf_counter() - start
    report("6 orthogonal-limit anchor", elapsed < 120.0,
           f"{'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_7a_more_iterations_do_not_hurt():
    """Iteration scaling on the severe-overloading preset (eta = 119.5%)."""
    start = time.perf_counter()
    base = replace(harness.preset("fig3"), omega_values=(1.0,),
                   min_bit_errors=150, max_frames=3000)
    r75 = harness.run_sweep(replace(base, iterations=75), workers=2)
    r100 = harness.run_sweep(replace(base, iterations=100), workers=2)
    for c75, c100 in zip(r75.cells, r100.cells):
        se = math.sqrt(
            c75.ber * (1 - c75.ber) / c75.bits_sent
            + c100.ber * (1 - c100.ber) / c100.bits_sent
        )
        assert c100.ber <= c75.ber + 2 * se, (
            f"{c75.ebn0_db} dB: 100-iter {c100.ber:.3e} vs 75-iter {c75.ber:.3e}"
        )
    elapsed = time.perf_counter() - start
    report("7a iteration scaling", elapsed < 600.0, f"{elapsed:.1f}s")


def test_criterion_7b_sphere_decoder_improves_on_iterative_init():
    """Sphere decoding with iterative init: objective never worse per frame,
    BER never worse per point (within 2 SE), on both fig4 presets."""
    start = time.perf_counter()
    for preset_name in ("fig4a", "fig4b"):
        runner = harness._CellRunner(harness.preset(preset_name))
        cfg, q, bits_per_frame = runner.cfg, runner.constellation, runner.bits_per_frame
        omega = cfg.omega_values[0]
        for cell_index, ebn0 in enumerate(cfg.ebn0_db_points):
            sigma_sq = channel.noise_variance(ebn0, runner.eb)
            err_sd = err_im = bits = 0
            for frame_index in range(800):
                tx_bits, model = runner.frame(cell_index, frame_index, sigma_sq)
                im_frame = detect.hard_demap(runner.im_soft(model, omega), q)
                sd_frame, sd_loss, _ = detect.sd2d_decode(
                    model, q, k_list=cfg.k_list, initial=im_frame
                )
                im_loss = detect.total_objective(model, im_frame)
                assert sd_loss <= im_loss * (1 + 1e-9), (
                    f"{preset_name} {ebn0} dB frame {frame_index}: "
                    f"SD loss {sd_loss} > IM loss {im_loss}"
                )
                err_im += int(np.sum(modem.demap_symbols(im_frame, q) != tx_bits))
                err_sd += int(np.sum(modem.demap_symbols(sd_frame, q) != tx_bits))
                bits += bits_per_frame
            ber_im, ber_sd = err_im / bits, err_sd / bits
            se = math.sqrt(ber_im * (1 - ber_im) / bits + ber_sd * (1 - ber_sd) / bits)
            assert ber_sd <= ber_im + 2 * se, (
                f"{preset_name} {ebn0} dB: SD {ber_sd:.3e} vs IM {ber_im:.3e}"
            )
    elapsed = time.perf_counter() - start
    report("7b sphere-decoder dominance", elapsed < 900.0, f"{elapsed:.1f}s")


def test_criterion_7c_low_ber_under_moderate_overloading():
    """(16,16) at 23.5% overloading: some omega reaches BER <= 1e-3 at the
    top operating point with at least 1e6 bits simulated."""
    start = time.perf_counter()
    cfg = replace(
        harness.preset("fig2a"),
        ebn0_db_points=(10.0,),
        omega_values=(0.25, 0.5, 0.75),
        min_bit_errors=10**9,  # run the full frame budget
        max_frames=2000,       # 2000 frames x 512 bits > 1e6 bits
    )
    result = harness.run_sweep(cfg, workers=3)
    best = min(result.cells, key=lambda c: c.ber)
    for cell in result.cells:
        assert cell.error is None
        assert cell.bits_sent >= 10**6
    assert best.ber <= 1e-3, f"best omega={best.omega}: ber {best.ber:.3e}"
    elapsed = time.perf_counter() - start
    report("7c low-BER claim region", elapsed < 600.0,
           f"best ber {best.ber:.1e} at omega={best.omega}, "
           f"{best.bits_sent} bits; {elapsed:.1f}s")


def test_criterion_8_determinism_across_workers():
    """Rerunning a sweep with different worker counts yields identical rows."""
    start = time.perf_counter()
    cfg = replace(
        harness.preset("fig4b"),
        ebn0_db_points=(0.0, 4.0),
        omega_values=(0.5,),
        min_bit_errors=15,
        max_frames=40,
    )
    rows = []
    for tag, workers in (("one", 1), ("many", 3)):
        result = harness.run_sweep(cfg, workers=workers)
        with tempfile.TemporaryDirectory() as tmp:
            csv_path, _ = harness.emit_results(result, tmp, stem=tag)
            with open(csv_path) as fh:
                rows.append(fh.read())
    assert rows[0] == rows[1], "CSV rows differ across worker counts"
    elapsed = time.perf_counter() - start
    report("8 determinism", elapsed < 60.0, f"{elapsed:.1f}s")
