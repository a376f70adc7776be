"""Reproducible Monte-Carlo BER experiments.

A sweep maps a decoder over an (Eb/N0 x omega) grid of cells.  Every random
draw inside a cell comes from a Philox substream keyed on
``(master_seed, cell_index, frame_index)``, so results are bit-identical
regardless of worker count or execution order.  A cell whose effective
model is singular (:class:`detect.SingularModelError`) is recorded as failed,
with the message in ``BerCell.error``, and the other cells still run; any
other exception aborts the sweep.  Configurations are validated when a
:class:`SweepConfig` is built, so a bad value fails before any cell runs.

Output contract: one CSV row per cell (see :func:`emit_results`) plus a JSON
sidecar holding the fully resolved configuration and its hash.
"""

import csv
import hashlib
import json
import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import channel, detect, modem


def _matched(runner, model, omega):
    return detect.matched_filter_estimate(model), None


def _im_soft(runner, model, omega):
    return runner.im_soft(model, omega), None


def _sd2d(runner, model, omega):
    est, _, counter = detect.sd2d_decode(model, runner.constellation, runner.cfg.k_list)
    return est, counter


def _sd2d_im_init(runner, model, omega):
    initial = detect.hard_demap(runner.im_soft(model, omega), runner.constellation)
    radius = None if runner.cfg.radius_policy == "im_init" else np.inf
    est, _, counter = detect.sd2d_decode(
        model, runner.constellation, runner.cfg.k_list, radius_sq=radius, initial=initial
    )
    return est, counter


# decoder name -> (decode step, whether the decoder takes omega).  A step maps
# (runner, model, omega) to (estimate, OpCounter or None) and looks the detect
# functions up when called, so wrappers installed on the module see the calls.
_DECODER_TABLE = {
    "matched": (_matched, False),
    "im_soft": (_im_soft, True),
    "sd2d": (_sd2d, False),
    "sd2d_im_init": (_sd2d_im_init, True),
}
DECODERS = tuple(_DECODER_TABLE)
RADIUS_POLICIES = ("im_init", "infinite")
WORKERS_ENV = "DDMOD_WORKERS"

# JSON key <-> dataclass field (keys follow the config-file contract)
_JSON_KEYS = {
    "M": "m",
    "N": "n",
    "alpha": "alpha",
    "beta": "beta",
    "constellation": "constellation",
    "ebn0_db_points": "ebn0_db_points",
    "decoder": "decoder",
    "omega_values": "omega_values",
    "iterations": "iterations",
    "K_list": "k_list",
    "radius_policy": "radius_policy",
    "master_seed": "master_seed",
    "min_bit_errors": "min_bit_errors",
    "max_frames": "max_frames",
}

_INT_FIELDS = ("m", "n", "iterations", "k_list", "master_seed", "min_bit_errors", "max_frames")


@dataclass(frozen=True)
class SweepConfig:
    """Complete description of one BER experiment."""

    m: int
    n: int
    alpha: float
    beta: float
    constellation: str = "qpsk"
    ebn0_db_points: tuple = (0.0, 2.0, 4.0, 6.0, 8.0)
    decoder: str = "im_soft"
    omega_values: tuple = (0.25, 0.5, 0.75, 1.0)
    iterations: int = 75
    k_list: int = 16
    radius_policy: str = "im_init"
    master_seed: int = 1
    min_bit_errors: int = 100
    max_frames: int = 1000

    def __post_init__(self):
        if self.decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}, got {self.decoder!r}")
        if self.radius_policy not in RADIUS_POLICIES:
            raise ValueError(f"radius_policy must be one of {RADIUS_POLICIES}")
        for field in _INT_FIELDS:
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{field} must be an integer, got {value!r}")
        modem.ModemParams(m=self.m, n=self.n, alpha=self.alpha, beta=self.beta)
        modem.get_constellation(self.constellation)
        if self.iterations < 1 or self.k_list < 1:
            raise ValueError("iterations and k_list must be at least 1")
        if self.min_bit_errors < 1 or self.max_frames < 1:
            raise ValueError("min_bit_errors and max_frames must be at least 1")
        object.__setattr__(self, "ebn0_db_points", tuple(float(x) for x in self.ebn0_db_points))
        object.__setattr__(self, "omega_values", tuple(float(x) for x in self.omega_values))
        if len(self.ebn0_db_points) < 1:
            raise ValueError("at least one Eb/N0 point is required")
        # +inf is the noiseless operating point
        if any(math.isnan(e) or e == -math.inf for e in self.ebn0_db_points):
            raise ValueError(f"Eb/N0 points must be numbers or +inf, got {self.ebn0_db_points}")
        if self.uses_omega and len(self.omega_values) < 1:
            raise ValueError(f"decoder {self.decoder!r} needs at least one omega value")
        if not all(math.isfinite(w) for w in self.omega_values):
            raise ValueError(f"omega values must be finite, got {self.omega_values}")

    @property
    def uses_omega(self):
        return _DECODER_TABLE[self.decoder][1]

    @property
    def eta(self):
        return modem.overloading_factor(self.alpha, self.beta)

    def cells(self):
        """Stable enumeration of (cell_index, ebn0_db, omega)."""
        omegas = self.omega_values if self.uses_omega else (None,)
        out = []
        idx = 0
        for e in self.ebn0_db_points:
            for w in omegas:
                out.append((idx, e, w))
                idx += 1
        return out

    def to_json_dict(self):
        d = asdict(self)
        return {key: _to_plain(d[field]) for key, field in _JSON_KEYS.items()}

    @classmethod
    def from_json_dict(cls, data):
        unknown = set(data) - set(_JSON_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {field: data[key] for key, field in _JSON_KEYS.items() if key in data}
        for tup in ("ebn0_db_points", "omega_values"):
            if tup in kwargs:
                kwargs[tup] = tuple(kwargs[tup])
        return cls(**kwargs)


def _to_plain(value):
    if isinstance(value, tuple):
        return list(value)
    return value


def config_hash(cfg):
    """Stable short hash of the fully resolved configuration."""
    canon = json.dumps(cfg.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass
class BerCell:
    """Outcome of one (Eb/N0, omega) cell."""

    cell_index: int
    ebn0_db: float
    omega: float | None
    bits_sent: int = 0
    bit_errors: int = 0
    frames: int = 0
    ber: float = 0.0
    ci_low: float = 0.0
    ci_high: float = 1.0
    mean_decoder_ops: float = 0.0
    wall_time: float = 0.0
    error: str | None = None


@dataclass
class BerResult:
    """Sweep outcome: configuration plus one cell per grid point."""

    config: SweepConfig
    cells: list

    @property
    def completed(self):
        return all(c.error is None for c in self.cells)

    def cell(self, ebn0_db, omega=None):
        for c in self.cells:
            same_omega = (c.omega is None and omega is None) or (
                c.omega is not None and omega is not None and math.isclose(c.omega, omega)
            )
            if math.isclose(c.ebn0_db, ebn0_db) and same_omega:
                return c
        raise KeyError(f"no cell at ebn0={ebn0_db}, omega={omega}")


def wilson_interval(errors, trials, z=1.96):
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return 0.0, 1.0
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


class _CellRunner:
    """Per-cell decode pipeline with the heavy factors prepared once."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.params = modem.ModemParams(m=cfg.m, n=cfg.n, alpha=cfg.alpha, beta=cfg.beta)
        self.constellation = modem.get_constellation(cfg.constellation)
        self.a = modem.build_doppler_matrix(cfg.alpha, cfg.n)
        self.b = modem.build_delay_matrix(cfg.beta, cfg.m)
        self.eb = channel.measure_eb(self.params, self.constellation, cfg.master_seed)
        zero_obs = np.zeros((cfg.n, cfg.m), dtype=complex)
        self.base_model = detect.build_effective_model(self.a, self.b, zero_obs)
        self.bits_per_frame = self.params.frame_symbols * self.constellation.bits_per_symbol
        self.decode_step = _DECODER_TABLE[cfg.decoder][0]

    def im_soft(self, model, omega):
        return detect.im_soft_decode(
            model, omega, self.cfg.iterations, clip_scale=self.constellation.axis_magnitude
        )

    def run_cell(self, cell_index, ebn0_db, omega):
        cfg = self.cfg
        cell = BerCell(cell_index=cell_index, ebn0_db=ebn0_db, omega=omega)
        start = time.perf_counter()
        try:
            sigma_sq = channel.noise_variance(ebn0_db, self.eb)
            ops = 0
            for frame_index in range(cfg.max_frames):
                rng = channel.substream(cfg.master_seed, cell_index, frame_index)
                bits = rng.integers(0, 2, size=self.bits_per_frame)
                s = modem.map_bits(bits, self.constellation, cfg.n, cfg.m)
                tx = modem.modulate(s, self.params)
                rx = channel.awgn(tx, sigma_sq, rng)
                y_tf = modem.wigner_rect(rx, self.params)
                model = detect.refresh_observation(self.base_model, y_tf)
                est, counter = self.decode_step(self, model, omega)
                bits_hat = modem.demap_symbols(est, self.constellation)
                cell.bit_errors += int(np.sum(bits_hat != bits))
                cell.bits_sent += self.bits_per_frame
                cell.frames += 1
                if counter is not None:
                    ops += counter.total
                if cell.bit_errors >= cfg.min_bit_errors:
                    break
            cell.ber = cell.bit_errors / cell.bits_sent if cell.bits_sent else 0.0
            cell.ci_low, cell.ci_high = wilson_interval(cell.bit_errors, cell.bits_sent)
            cell.mean_decoder_ops = ops / cell.frames if cell.frames else 0.0
        except detect.SingularModelError as exc:
            cell.error = str(exc)
        cell.wall_time = time.perf_counter() - start
        return cell


def _failed_cell(cell_index, ebn0_db, omega, message):
    cell = BerCell(cell_index=cell_index, ebn0_db=ebn0_db, omega=omega)
    cell.error = message
    return cell


def run_ber_point(cfg, ebn0_db, omega=None, cell_index=0):
    """Run a single cell of the sweep grid (see :class:`SweepConfig`)."""
    try:
        runner = _CellRunner(cfg)
    except detect.SingularModelError as exc:
        return _failed_cell(cell_index, ebn0_db, omega, str(exc))
    return runner.run_cell(cell_index, ebn0_db, omega)


def _cell_task(args):
    cfg_dict, cell_index, ebn0_db, omega = args
    cfg = SweepConfig.from_json_dict(cfg_dict)
    return run_ber_point(cfg, ebn0_db, omega=omega, cell_index=cell_index)


def default_workers():
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def run_sweep(cfg, workers=None):
    """Map the decoder over the (Eb/N0 x omega) grid and aggregate.

    ``workers`` defaults to the ``DDMOD_WORKERS`` environment variable or one
    worker per core.  Results are independent of the worker count.
    """
    if workers is None:
        workers = default_workers()
    cells_spec = cfg.cells()
    if workers <= 1 or len(cells_spec) <= 1:
        try:
            runner = _CellRunner(cfg)
        except detect.SingularModelError as exc:
            return BerResult(
                config=cfg,
                cells=[_failed_cell(i, e, w, str(exc)) for (i, e, w) in cells_spec],
            )
        cells = [runner.run_cell(i, e, w) for (i, e, w) in cells_spec]
    else:
        tasks = [(cfg.to_json_dict(), i, e, w) for (i, e, w) in cells_spec]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_cell_task, tasks))
        cells.sort(key=lambda c: c.cell_index)
    return BerResult(config=cfg, cells=cells)


def emit_results(result, out_dir, stem="results"):
    """Write the sweep as ``<stem>.csv`` plus a ``<stem>.config.json`` sidecar.

    CSV columns: config_hash, M, N, alpha, beta, eta, ebn0_db, omega,
    decoder, bits, errors, ber, ci_low, ci_high, mean_ops, seed.  Failed
    cells are skipped in the CSV (their diagnostics live on the result
    object); floats are written with full precision so reruns are
    byte-comparable.
    """
    os.makedirs(out_dir, exist_ok=True)
    cfg = result.config
    chash = config_hash(cfg)
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    json_path = os.path.join(out_dir, f"{stem}.config.json")
    header = [
        "config_hash", "M", "N", "alpha", "beta", "eta", "ebn0_db", "omega",
        "decoder", "bits", "errors", "ber", "ci_low", "ci_high", "mean_ops", "seed",
    ]
    try:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for cell in result.cells:
                if cell.error is not None:
                    continue
                writer.writerow(
                    [
                        chash, cfg.m, cfg.n, repr(cfg.alpha), repr(cfg.beta),
                        repr(cfg.eta), repr(cell.ebn0_db),
                        "" if cell.omega is None else repr(cell.omega),
                        cfg.decoder, cell.bits_sent, cell.bit_errors, repr(cell.ber),
                        repr(cell.ci_low), repr(cell.ci_high),
                        repr(cell.mean_decoder_ops), cfg.master_seed,
                    ]
                )
        with open(json_path, "w") as fh:
            json.dump({"config_hash": chash, "config": cfg.to_json_dict()}, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"failed writing results under {out_dir}: {exc}") from exc
    return csv_path, json_path


# experiment presets; caption_eta records the rounded values printed in the
# source experiment captions for cross-reference (the CSV always carries the
# computed eta)
PRESETS = {
    "fig2a": SweepConfig(
        m=16, n=16, alpha=0.9, beta=0.9,
        ebn0_db_points=(0.0, 2.0, 4.0, 6.0, 8.0, 10.0),
        decoder="im_soft", omega_values=(0.25, 0.5, 0.75, 1.0),
        iterations=75, master_seed=20240, max_frames=2000,
    ),
    "fig2b": SweepConfig(
        m=8, n=16, alpha=0.85, beta=0.9,
        ebn0_db_points=(0.0, 2.0, 4.0, 6.0, 8.0, 10.0),
        decoder="im_soft", omega_values=(0.25, 0.5, 0.75, 1.0),
        iterations=75, master_seed=20240, max_frames=2000,
    ),
    "fig3": SweepConfig(
        m=4, n=4, alpha=0.675, beta=0.675,
        ebn0_db_points=(0.0, 2.0, 4.0, 6.0, 8.0),
        decoder="im_soft", omega_values=(0.25, 0.5, 0.75, 1.0),
        iterations=75, master_seed=20240, max_frames=4000,
    ),
    "fig4a": SweepConfig(
        m=4, n=4, alpha=0.8, beta=0.8,
        ebn0_db_points=(0.0, 2.0, 4.0, 6.0),
        decoder="sd2d_im_init", omega_values=(0.5,),
        iterations=30, k_list=16, master_seed=20240, max_frames=3000,
    ),
    "fig4b": SweepConfig(
        m=4, n=4, alpha=0.775, beta=0.775,
        ebn0_db_points=(0.0, 2.0, 4.0, 6.0),
        decoder="sd2d_im_init", omega_values=(0.5,),
        iterations=20, k_list=16, master_seed=20240, max_frames=3000,
    ),
}

CAPTION_ETA = {"fig2a": 0.235, "fig2b": 0.31, "fig3": 1.195, "fig4a": 0.56, "fig4b": 0.665}


def preset(name, master_seed=None):
    try:
        cfg = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
    if master_seed is not None:
        cfg = replace(cfg, master_seed=master_seed)
    return cfg
