"""Reproducible Monte-Carlo BER experiments.

A sweep maps a decoder over an (Eb/N0 x omega) grid of cells.  Every random
draw inside a cell comes from a Philox substream keyed on
``(master_seed, cell_index, frame_index)``, so results are bit-identical
regardless of worker count, execution order or how frames are stacked.  A
runner keeps one generator and resets it to each frame's substream.

The set-up (Eb calibration, QR factors) is built once per sweep, in the
calling process.  The cells are dealt round-robin into one group per worker,
and the pool receives the set-up with each group.  A group runs its cells in
lockstep rounds: each round, every live cell adds its next frames to one
``(B, N, M)`` stack, which goes through modulate, AWGN, receive and decode
together, one call per layer and round.  A cell sizes its share of a round
from its running BER, so a round may compute frames past a cell's stop
rule, but the cell counts its frames only up to the first at which a
frame-by-frame loop would stop: frames past the stop rule may be computed,
and are never counted.  ``modem.STACK_ENTRIES`` caps the symbols stacked in
one round.

A singular effective model (:class:`detect.SingularModelError`) fails the whole
sweep: every cell is recorded as failed, with the message in
``BerCell.error``.  Any other exception aborts the sweep.  Configurations are
validated when a :class:`SweepConfig` is built, so a bad value fails before
any cell runs.

Output contract: one CSV row per cell (see :func:`emit_results`) plus a JSON
sidecar holding the fully resolved configuration and its hash.
"""

import contextlib
import csv
import hashlib
import json
import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, replace

import numpy as np

from . import channel, detect, modem


def _matched(runner, model, omega):
    return detect.matched_filter_estimate(model), None


def _im_soft(runner, model, omega):
    return runner.im_soft(model, omega), None


def _sd2d(runner, model, omega, radius_sq=None, initial=None):
    est, _, counter = detect.sd2d_decode(
        model, runner.constellation, runner.cfg.k_list, radius_sq=radius_sq, initial=initial
    )
    return est, counter.frame_totals


def _sd2d_im_init(runner, model, omega):
    initial = detect.hard_demap(runner.im_soft(model, omega), runner.constellation)
    radius = None if runner.cfg.radius_policy == "im_init" else np.inf
    return _sd2d(runner, model, omega, radius_sq=radius, initial=initial)


# decoder name -> (decode step, whether the decoder takes omega).  A step maps
# (runner, stacked model, (B, 1, 1) omega or None) to (estimates, per-frame
# operation counts or None) and looks the detect functions up when called, so
# wrappers installed on the module see the calls.
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
        for field in ("constellation", "decoder", "radius_policy"):
            value = getattr(self, field)
            if not isinstance(value, str):
                raise ValueError(f"{field} must be a string, got {value!r}")
        if self.decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}, got {self.decoder!r}")
        if self.radius_policy not in RADIUS_POLICIES:
            raise ValueError(f"radius_policy must be one of {RADIUS_POLICIES}")
        for field in _INT_FIELDS:
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{field} must be an integer, got {value!r}")
            object.__setattr__(self, field, int(value))
        for field in ("alpha", "beta"):
            value = getattr(self, field)
            if not _is_real(value):
                raise ValueError(f"{field} must be a real number, got {value!r}")
            object.__setattr__(self, field, float(value))
        for field in ("ebn0_db_points", "omega_values"):
            values = getattr(self, field)
            if not isinstance(values, (list, tuple)) or not all(map(_is_real, values)):
                raise ValueError(f"{field} must be a list of real numbers, got {values!r}")
            object.__setattr__(self, field, tuple(float(x) for x in values))
        modem.ModemParams(m=self.m, n=self.n, alpha=self.alpha, beta=self.beta)
        modem.get_constellation(self.constellation)
        if self.iterations < 1 or self.k_list < 1:
            raise ValueError("iterations and k_list must be at least 1")
        if self.min_bit_errors < 1 or self.max_frames < 1:
            raise ValueError("min_bit_errors and max_frames must be at least 1")
        if len(self.ebn0_db_points) < 1:
            raise ValueError("ebn0_db_points needs at least one Eb/N0 point")
        # +inf is the noiseless operating point
        if any(math.isnan(e) or e == -math.inf for e in self.ebn0_db_points):
            raise ValueError(f"ebn0_db_points must be numbers or +inf, got {self.ebn0_db_points}")
        if self.uses_omega and len(self.omega_values) < 1:
            raise ValueError(f"decoder {self.decoder!r} needs a non-empty omega_values")
        if not all(math.isfinite(w) for w in self.omega_values):
            raise ValueError(f"omega_values must be finite, got {self.omega_values}")

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
        """The config of a parsed JSON object; ``ValueError`` names any bad key."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - set(_JSON_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = [key for key in _REQUIRED_KEYS if key not in data]
        if missing:
            raise ValueError(f"missing config keys: {missing}")
        return cls(**{field: data[key] for key, field in _JSON_KEYS.items() if key in data})


# keys of the fields without a default, in file order
_REQUIRED_KEYS = [
    key for key, field in _JSON_KEYS.items()
    if SweepConfig.__dataclass_fields__[field].default is MISSING
]


def _is_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
    # the cell's share of its group's rounds, split by frames
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


class _SweepRunner:
    """Per-sweep decode pipeline with the heavy factors prepared once."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.params = modem.ModemParams(m=cfg.m, n=cfg.n, alpha=cfg.alpha, beta=cfg.beta)
        self.constellation = modem.get_constellation(cfg.constellation)
        self.eb = channel.measure_eb(self.params, self.constellation, cfg.master_seed)
        self.base_model = detect.build_effective_model(
            self.params.doppler_matrix,
            modem.build_delay_matrix(cfg.beta, cfg.m),
            np.zeros((cfg.n, cfg.m), dtype=complex),
        )
        self.bits_per_frame = self.params.frame_symbols * self.constellation.bits_per_symbol
        self.decode_step = _DECODER_TABLE[cfg.decoder][0]
        # built by the first frame's substream, then reset for every frame
        self.rng = None

    def im_soft(self, model, omega):
        return detect.im_soft_decode(
            model, omega, self.cfg.iterations, clip_scale=self.constellation.axis_magnitude
        )

    def transmit(self, frames, sigma_sq):
        """Sent bits ``(B, bits)`` and the stacked receiver model of ``B`` frames.

        ``frames`` holds ``(cell_index, frame_index)`` keys and ``sigma_sq``
        each frame's noise variance.  Each frame resets the runner's one
        generator to its own substream and draws its bits, then its
        ``(2, N*M)`` standard normals, so it comes out as it would alone;
        one :func:`channel.awgn` call then adds the noise on the stack.
        """
        cfg, rng = self.cfg, self.rng
        noise = np.empty((len(frames), 2, self.params.frame_symbols))
        bits = []
        for (cell, index), z in zip(frames, noise):
            rng = channel.substream(cfg.master_seed, cell, index, rng)
            bits.append(rng.integers(0, 2, size=self.bits_per_frame))
            rng.standard_normal(out=z)
        self.rng = rng
        bits = np.array(bits)
        x = modem.modulate(modem.map_bits(bits, self.constellation, cfg.n, cfg.m), self.params)
        y_tf = modem.wigner_rect(channel.awgn(x, sigma_sq, noise), self.params)
        return bits, detect.refresh_observation(self.base_model, y_tf)

    def run_group(self, group):
        """Run the cells ``[(cell_index, ebn0_db, omega)]`` in lockstep rounds.

        Each round every live cell adds its next frames to one stack, at
        most ``modem.STACK_ENTRIES`` symbols in all.  A cell adds as many as
        its missing errors take at the three-sigma Wilson upper bound of its
        BER (inverse binomial sampling; the bound is 1.0 before its first
        frame), at least as many as ``min_bit_errors`` could need, at most an
        even share of the budget above that, and never more than it may
        still send.  After the decode a cell counts its frames in order up
        to the first at which its running error count reaches
        ``min_bit_errors``; the frames after it were computed but are
        dropped: neither their errors nor their operations are counted.  So a
        cell stops at exactly the frame where a frame-by-frame loop would
        stop.  A cell's frames are contiguous in the stack, so its frames,
        errors and operations are booked once per round.  A cell's
        ``wall_time`` is its share of the rounds, split by the frames
        computed.
        """
        cfg, bpf = self.cfg, self.bits_per_frame
        cells = [BerCell(cell_index=i, ebn0_db=e, omega=w) for i, e, w in group]
        sigma_sq = {i: channel.noise_variance(e, self.eb) for i, e, _ in group}
        ops = dict.fromkeys(sigma_sq, 0)
        budget = max(1, modem.STACK_ENTRIES // self.params.frame_symbols)
        live = cells
        clock = time.perf_counter()
        while live:
            takes, size = [], 0  # (cell, frames it adds), frames in the round
            for cell in live:
                left = cfg.min_bit_errors - cell.bit_errors
                need = -(-left // bpf)
                # three sigma rather than 1.96 computes fewer frames past the
                # stop rule, in about as many rounds
                high = wilson_interval(cell.bit_errors, cell.frames * bpf, z=3.0)[1]
                guess = min(math.ceil(left / (bpf * high)), budget // len(live))
                take = min(cfg.max_frames - cell.frames, max(need, guess), budget - size)
                takes.append((cell, take))
                size += take
                if size == budget:
                    break
            counts = [take for _, take in takes]
            bits, model = self.transmit(
                [(cell.cell_index, cell.frames + j) for cell, take in takes for j in range(take)],
                np.repeat([sigma_sq[cell.cell_index] for cell, _ in takes], counts),
            )
            omega = None
            if cfg.uses_omega:
                omega = np.repeat([cell.omega for cell, _ in takes], counts)[:, None, None]
            est, frame_ops = self.decode_step(self, model, omega)
            errors = np.sum(modem.demap_symbols(est, self.constellation) != bits, axis=1)
            now = time.perf_counter()
            share, clock = (now - clock) / size, now
            start = 0
            for cell, take in takes:
                # the cell ends at the first frame whose running count
                # reaches min_bit_errors; the frames after it are dropped
                running = np.cumsum(errors[start:start + take])
                left = cfg.min_bit_errors - cell.bit_errors
                used = min(take, int(running.searchsorted(left)) + 1)
                cell.frames += used
                cell.bit_errors += int(running[used - 1])
                cell.wall_time += share * take
                if frame_ops is not None:
                    ops[cell.cell_index] += sum(frame_ops[start:start + used])
                start += take
            live = [
                cell for cell in live
                if cell.frames < cfg.max_frames and cell.bit_errors < cfg.min_bit_errors
            ]
        for cell in cells:
            # max_frames >= 1, so every cell ran a frame
            cell.bits_sent = cell.frames * bpf
            cell.ber = cell.bit_errors / cell.bits_sent
            cell.ci_low, cell.ci_high = wilson_interval(cell.bit_errors, cell.bits_sent)
            cell.mean_decoder_ops = ops[cell.cell_index] / cell.frames
        return cells


def default_workers():
    env = os.environ.get(WORKERS_ENV)
    if not env:
        return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be at least 1, got {env!r}")
    return workers


def run_sweep(cfg, workers=None):
    """Map the decoder over the (Eb/N0 x omega) grid and aggregate.

    The cells are dealt into ``min(workers, cells)`` groups, and each group
    runs in lockstep (:meth:`_SweepRunner.run_group`), one group per pool
    process.  ``workers`` defaults to the ``DDMOD_WORKERS`` environment
    variable or one worker per core.  Results are independent of the worker
    count.
    """
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cells_spec = cfg.cells()
    try:
        runner = _SweepRunner(cfg)
    except detect.SingularModelError as exc:
        cells = [BerCell(i, e, w, error=str(exc)) for i, e, w in cells_spec]
        return BerResult(config=cfg, cells=cells)
    # cells are dealt round-robin, so each group mixes low and high Eb/N0
    n_groups = min(workers, len(cells_spec))
    groups = [cells_spec[g::n_groups] for g in range(n_groups)]
    if n_groups == 1:
        done = map(runner.run_group, groups)
    else:
        with ProcessPoolExecutor(max_workers=n_groups) as pool:
            done = list(pool.map(runner.run_group, groups))
    cells = sorted((c for group in done for c in group), key=lambda c: c.cell_index)
    return BerResult(config=cfg, cells=cells)


def emit_results(result, out_dir, stem="results"):
    """Write the sweep as ``<stem>.csv`` plus a ``<stem>.config.json`` sidecar.

    CSV columns: config_hash, M, N, alpha, beta, eta, ebn0_db, omega,
    decoder, bits, errors, ber, ci_low, ci_high, mean_ops, seed.  Failed
    cells are skipped in the CSV (their diagnostics live on the result
    object); floats are written with full precision so reruns are
    byte-comparable.  Each file is written to a temporary name in ``out_dir``
    and moved into place with ``os.replace``.
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
    # both files go to temporary names first, so a failed write leaves any
    # previous results in place and no partial file behind
    tmp = {path: f"{path}.{os.getpid()}.tmp" for path in (csv_path, json_path)}
    try:
        with open(tmp[csv_path], "w", newline="") as fh:
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
        with open(tmp[json_path], "w") as fh:
            json.dump({"config_hash": chash, "config": cfg.to_json_dict()}, fh, indent=2)
            fh.write("\n")
        for path, tmp_path in tmp.items():
            os.replace(tmp_path, path)
    except OSError as exc:
        raise OSError(f"failed writing results under {out_dir}: {exc}") from exc
    finally:
        for tmp_path in tmp.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp_path)
    return csv_path, json_path


# experiment presets; acceptance criterion 1 checks their overloading factors
# against the rounded values printed in the source experiment captions
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


def preset(name, master_seed=None):
    try:
        cfg = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
    if master_seed is not None:
        cfg = replace(cfg, master_seed=master_seed)
    return cfg
