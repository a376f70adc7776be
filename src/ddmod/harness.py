"""Reproducible Monte-Carlo BER experiments.

A sweep maps a decoder over an (Eb/N0 x omega) grid of cells.  Every random
draw inside a cell comes from a Philox substream keyed on
``(master_seed, cell_index, frame_index)``, so results are bit-identical
regardless of worker count, execution order or how frames are stacked.  A
runner keeps one generator and resets it to each frame's substream.

The set-up (Eb calibration, QR factors) is built once per sweep, in the
calling process.  The cells are dealt round-robin into one group per worker.
The calling process runs the first group itself and each other group in a
child process of its own, started from the platform's default context and
joined to the caller by a duplex pipe; a child that forks inherits the
set-up, and one that spawns receives it pickled.  A group runs its cells in
lockstep rounds: each round, every live cell adds its next frames to one
``(B, N, M)`` stack, which goes through modulate, AWGN, receive and decode
together, one call per layer and round (:meth:`_SweepRunner.compute`).  One
decode (:meth:`_SweepRunner.decode`) serves every decoder: it returns the
round's estimates and a ``(B,)`` integer array of each frame's multiplies
plus adds, zeros for the decoders that count none.

A process whose own group has ended helps a group still running: a child
helps the caller's group, and the caller, once its own group has ended,
helps each child's group in turn.  The owner of a group plans every round
itself, hands an even share of the round's frames to each process that
helps it, computes the first share, and joins the bit errors and operation
counts in stack order before it plans the next round.  A frame comes out
the same in any stack, so the rounds, the frames computed and every result
do not depend on who computes them.  A shared round's wall time is booked
to the owner's cells.

A cell asks for the frames its
missing errors take at the upper confidence bound of its running BER, and
the cells share each round's budget max-min fairly, so a round may compute
frames past a cell's stop rule, but the cell counts its frames only up to
the first at which a frame-by-frame loop would stop: frames past the stop
rule may be computed, and are never counted.
``modem.STACK_ENTRIES`` caps the symbols stacked in one round.

A singular effective model (:class:`detect.SingularModelError`) fails the whole
sweep: every cell is recorded as failed, with the message in
``BerCell.error``.  Any other exception aborts the sweep, and so does a
child that exits before the sweep ends; no child outlives the sweep.
Configurations are validated when a :class:`SweepConfig` is built, so a bad
value fails before any cell runs.

Output contract: one CSV row per cell (see :func:`emit_results`) plus a JSON
sidecar holding the fully resolved configuration and its hash.
"""

import contextlib
import csv
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import pickle
import time
import traceback
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import channel, detect, modem, numerics


DECODERS = ("matched", "im_soft", "sd2d", "sd2d_im_init")
_OMEGA_DECODERS = ("im_soft", "sd2d_im_init")
RADIUS_POLICIES = ("im_init", "infinite")

# the config-file keys that differ from their field's name; the SweepConfig
# fields give every key, its order in the file and whether it is required
_JSON_KEYS = {"m": "M", "n": "N", "k_list": "K_list"}


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
        # each field is checked and stored as the type it is declared with
        for field in fields(self):
            name, kind, value = field.name, field.type, getattr(self, field.name)
            if kind is str and not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")
            if kind is int:
                least = 0 if name == "master_seed" else 1
                object.__setattr__(self, name, numerics.as_count(name, value, least))
            if kind is float:
                if not numerics.is_real(value):
                    raise ValueError(f"{name} must be a real number, got {value!r}")
                object.__setattr__(self, name, _to_float(name, value))
            if kind is tuple:
                if not isinstance(value, (list, tuple)) or not all(map(numerics.is_real, value)):
                    raise ValueError(f"{name} must be a list of real numbers, got {value!r}")
                object.__setattr__(self, name, tuple(_to_float(name, x) for x in value))
        if self.decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}, got {self.decoder!r}")
        if self.radius_policy not in RADIUS_POLICIES:
            raise ValueError(
                f"radius_policy must be one of {RADIUS_POLICIES}, got {self.radius_policy!r}"
            )
        modem.ModemParams(m=self.m, n=self.n, alpha=self.alpha, beta=self.beta)
        self.eta  # refuses an alpha * beta that underflows to 0
        modem.get_constellation(self.constellation)
        # the substreams key Philox on 64 bits, so a wider seed would alias
        if self.master_seed >= 2**64:
            raise ValueError(f"master_seed must lie in [0, 2**64), got {self.master_seed}")
        if len(self.ebn0_db_points) < 1:
            raise ValueError("ebn0_db_points needs at least one Eb/N0 point")
        # +inf is the noiseless point; past 3000 dB either way, 10**(e/10) or the
        # noise variance of a calibrated Eb is no longer a finite non-zero float
        if not all(abs(e) <= 3000 or e == math.inf for e in self.ebn0_db_points):
            raise ValueError(
                f"ebn0_db_points must be in [-3000, 3000] dB or +inf, got {self.ebn0_db_points}"
            )
        if self.uses_omega and len(self.omega_values) < 1:
            raise ValueError(f"decoder {self.decoder!r} needs a non-empty omega_values")
        if not all(math.isfinite(w) for w in self.omega_values):
            raise ValueError(f"omega_values must be finite, got {self.omega_values}")
        # cell i draws substream i, so no cell may reach the calibration's own
        if len(self.cells()) > channel.CALIBRATION_STREAM:
            raise ValueError(f"a sweep has at most {channel.CALIBRATION_STREAM} cells, so that "
                             f"none draws the Eb calibration's substream; got {len(self.cells())}")

    @property
    def uses_omega(self):
        return self.decoder in _OMEGA_DECODERS

    @property
    def eta(self):
        return modem.overloading_factor(self.alpha, self.beta)

    def cells(self):
        """Stable enumeration of (cell_index, ebn0_db, omega)."""
        omegas = self.omega_values if self.uses_omega else (None,)
        grid = itertools.product(self.ebn0_db_points, omegas)
        return [(i, e, w) for i, (e, w) in enumerate(grid)]

    def to_json_dict(self):
        return {key: _to_plain(getattr(self, field.name)) for key, field in _FIELDS.items()}

    @classmethod
    def from_json_dict(cls, data):
        """The config of a parsed JSON object; ``ValueError`` names any bad key."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - set(_FIELDS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = [
            key for key, field in _FIELDS.items() if field.default is MISSING and key not in data
        ]
        if missing:
            raise ValueError(f"missing config keys: {missing}")
        return cls(**{field.name: data[key] for key, field in _FIELDS.items() if key in data})


# config-file key -> SweepConfig field, in field order
_FIELDS = {_JSON_KEYS.get(field.name, field.name): field for field in fields(SweepConfig)}


def _to_float(name, value):
    """``float(value)``, refusing a number past the float range by ``name``."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} holds a number too large for a float") from None


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
    # the cell's share of its group's rounds, split by frames; a round that
    # other processes helped to compute is booked here in full
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
        self.eb = channel.measure_eb(self.params, None, cfg.master_seed)
        self.base_model = detect.build_effective_model(
            self.params.doppler_matrix,
            modem.build_delay_matrix(cfg.beta, cfg.m),
            np.zeros((cfg.n, cfg.m), dtype=complex),
        )
        self.bits_per_frame = self.params.frame_symbols * modem.BITS_PER_SYMBOL
        # built by the first frame's substream, then reset for every frame
        self.rng = None
        self.sent = self.decoded = None  # the last round's, see compute

    def decode(self, model, omega):
        """Estimates of a stacked model's ``B`` frames and a ``(B,)`` integer
        array of each frame's multiplies plus adds, zeros for ``matched`` and
        ``im_soft``.  ``omega`` is ``(B, 1, 1)``, or ``None`` for a decoder
        that takes none.  The ``detect`` functions are looked up when called,
        so wrappers installed on the module see the calls.
        """
        cfg = self.cfg
        ops = np.zeros(len(model.y_t), dtype=int)
        if cfg.decoder == "matched":
            return detect.matched_filter_estimate(model), ops
        radius = initial = None
        if cfg.uses_omega:
            est = detect.im_soft_decode(model, omega, cfg.iterations)
            if cfg.decoder == "im_soft":
                return est, ops
            initial = detect.hard_demap(est)
            radius = None if cfg.radius_policy == "im_init" else np.inf
        est, _, counter = detect.sd2d_decode(model, cfg.k_list, radius_sq=radius, initial=initial)
        return est, counter.mults + counter.adds

    def transmit(self, frames, sigma_sq):
        """Sent bits ``(B, bits)`` and the stacked receiver model of ``B`` frames.

        ``frames`` holds ``(cell_index, frame_index)`` keys and ``sigma_sq``
        each frame's noise variance.  Each frame resets the runner's one
        generator to its own substream and draws its bits' raw words, then its
        ``(2, N*M)`` standard normals, so it comes out as it would alone; the
        words give the bits ``integers(0, 2)`` draws (:func:`channel.raw_bits`).
        """
        cfg, rng = self.cfg, self.rng
        words = np.empty((len(frames), -(-self.bits_per_frame // 2)), np.uint64)
        noise = np.empty((len(frames), 2, self.params.frame_symbols))
        for (cell, index), row, z in zip(frames, words, noise):
            rng = channel.substream(cfg.master_seed, cell, index, rng)
            row[:] = rng.bit_generator.random_raw(row.size)
            rng.standard_normal(out=z)
        self.rng = rng
        bits = channel.raw_bits(words, (len(frames), self.bits_per_frame))
        x = modem.modulate(modem.map_bits(bits, cfg.n, cfg.m), self.params)
        y_tf = modem.wigner_rect(channel.awgn(x, sigma_sq, noise), self.params)
        return bits, detect.refresh_observation(self.base_model, y_tf)

    def compute(self, frames, sigma_sq, omega):
        """Bit errors and decoder operations of the frames keyed
        ``(cell_index, frame_index)`` in ``frames``, as two ``(B,)`` integer
        arrays: the round's one step, in the owner of a round and in each
        process that computes a share of it.  ``sigma_sq`` holds each frame's
        noise variance and ``omega`` is ``(B, 1, 1)`` or ``None``.
        """
        # the runner holds a round's bits and model until the next transmit
        # returns, and its estimates until the next decode returns; freed
        # first, they let glibc trim the heap, and each round faulted its
        # pages in again (9.5 against 0.8 minor faults a frame on cut fig2a
        # in one process)
        self.sent = bits, model = self.transmit(frames, sigma_sq)
        self.decoded = est, ops = self.decode(model, omega)
        return np.sum(modem.demap_symbols(est) != bits, axis=1), ops

    def compute_shared(self, links, frames, sigma_sq, omega):
        """:meth:`compute` of a round, with an even share of its frames
        computed by each process on ``links`` whose own group has ended, as
        many as the frames allow.  The shares are contiguous, this process
        computes the first, and the results are joined in stack order."""
        helpers = [link for link in links if link.idle()][:len(frames) - 1]
        cuts = [len(frames) * k // (len(helpers) + 1) for k in range(len(helpers) + 2)]
        shares = [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        jobs = [(frames[s], sigma_sq[s], None if omega is None else omega[s]) for s in shares]
        for link, job in zip(helpers, jobs[1:]):
            link.send("job", job)
        parts = [self.compute(*jobs[0])] + [link.recv()[1] for link in helpers]
        return tuple(np.concatenate(part) for part in zip(*parts))

    def run_group(self, group, links=()):
        """Run the cells ``[(cell_index, ebn0_db, omega)]`` in lockstep rounds.

        Each round every live cell adds its next frames to one stack, at
        most ``modem.STACK_ENTRIES`` symbols in all.  A cell wants as many
        as its missing errors take at the three-sigma Wilson upper bound of
        its BER (inverse binomial sampling; the bound is 1.0 before its first
        frame), and never more than it may still send.  The bound is at most
        1, so the want already covers the frames the missing errors need at
        one error a bit, or the whole budget when they need more.  The
        budget is shared max-min fairly (:func:`_share`): a cell that wants
        less than an even share leaves the rest to the others, so a round
        fills its budget whenever the cells want that much.  The round is
        computed with the help of each process on ``links`` whose own group
        has ended (:meth:`compute_shared`).  After the
        decode a cell counts its frames in order up to the first at which
        its running error count reaches ``min_bit_errors``; the frames after
        it were computed but are dropped: neither their errors nor their
        operations are counted.  So a cell stops at exactly the frame where
        a frame-by-frame loop would stop.  A cell's frames are contiguous in
        the stack, in ``live`` order, so its frames, errors and operations
        are booked once per round.  A cell's ``wall_time`` is its share of
        the rounds, split by the frames computed.
        """
        cfg, bpf = self.cfg, self.bits_per_frame
        cells = [BerCell(cell_index=i, ebn0_db=e, omega=w) for i, e, w in group]
        sigma_sq = {i: channel.noise_variance(e, self.eb) for i, e, _ in group}
        ops = dict.fromkeys(sigma_sq, 0)
        budget = max(1, modem.STACK_ENTRIES // self.params.frame_symbols)
        live = cells
        clock = time.perf_counter()
        while live:
            wants = []
            for cell in live:
                left = cfg.min_bit_errors - cell.bit_errors
                # three sigma rather than 1.96 computes fewer frames past the
                # stop rule, in about as many rounds
                high = wilson_interval(cell.bit_errors, cell.frames * bpf, z=3.0)[1]
                # a left past the round's bits asks for the whole budget
                # anyway; clamped, a huge min_bit_errors divides as a float
                guess = math.ceil(min(left, bpf * budget) / (bpf * high))
                wants.append(min(cfg.max_frames - cell.frames, guess))
            # (cell, frames it adds), in live order, so its frames are contiguous
            takes = [(cell, take) for cell, take in zip(live, _share(wants, budget)) if take]
            counts = [take for _, take in takes]
            size = sum(counts)
            omega = None
            if cfg.uses_omega:
                omega = np.repeat([cell.omega for cell, _ in takes], counts)[:, None, None]
            errors, frame_ops = self.compute_shared(
                links,
                [(cell.cell_index, cell.frames + j) for cell, take in takes for j in range(take)],
                np.repeat([sigma_sq[cell.cell_index] for cell, _ in takes], counts),
                omega,
            )
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
                ops[cell.cell_index] += int(frame_ops[start:start + used].sum())
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


def _share(wants, budget):
    """Max-min fair grants of ``budget`` frames to cells wanting ``wants``.

    The cells are served in ascending order of want, ties in list order, and
    each gets ``min(want, rest // cells_left)``.  So the grants add up to
    ``min(sum(wants), budget)``, a cell short of its want gets at least every
    other grant less one, and a larger want never gets a smaller grant.
    """
    grants, rest = [0] * len(wants), budget
    for served, i in enumerate(sorted(range(len(wants)), key=wants.__getitem__)):
        grants[i] = min(wants[i], rest // (len(wants) - served))
        rest -= grants[i]
    return grants


def default_workers():
    """The CPUs this process may run on, where the platform tells."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Link:
    """One end of the duplex pipe between the calling process and a child.

    Each side sends ``("end", cells)`` once its own group has ended (a child
    its ``BerCell`` list, the caller ``None``), and from then on it only
    computes the shares of rounds that the other side sends it as
    ``("job", (frames, sigma_sq, omega))``, answering each with
    ``("ops", (errors, ops))``.  A child that raises sends
    ``("raise", (exception, traceback text))`` and stops.  On the caller's
    end, ``child`` is the child's process and ``group`` its cells.
    """

    def __init__(self, conn, child=None, group=()):
        self.conn, self.child, self.group = conn, child, group
        self.ended = False  # whether the other side's own group has ended
        self.cells = None  # what the other side sent with its end

    def recv(self):
        """The other side's next ``(tag, body)``.  An exception a child sent
        is raised here, with its traceback text as the cause, and so is a
        ``RuntimeError`` when the other side closed the pipe."""
        try:
            tag, body = self.conn.recv()
        # a side that exits with a message unread resets the pipe
        except (EOFError, ConnectionResetError):
            if self.child is None:
                raise RuntimeError("the calling process closed its pipe") from None
            self.child.join()
            raise RuntimeError(
                f"the child process running cells {[i for i, _, _ in self.group]} exited "
                f"with code {self.child.exitcode} before the sweep ended"
            ) from None
        if tag == "raise":
            exc, text = body
            raise exc from RuntimeError(f"raised in a child process:\n{text}")
        if tag == "end":
            self.ended, self.cells = True, body
        return tag, body

    def send(self, tag, body):
        try:
            self.conn.send((tag, body))
        except OSError:
            # the other side has closed its end: raise what it sent last,
            # or that it closed the pipe
            while True:
                self.recv()

    def idle(self):
        """Whether the other side's own group has ended, so that it helps
        this side; reads its end message when one has come, without waiting."""
        if not self.ended and self.conn.poll():
            self.recv()
        return self.ended

    def serve(self, runner):
        """Compute each share of a round the other side sends, until its own
        group ends."""
        while not self.ended:
            tag, body = self.recv()
            if tag == "job":
                self.send("ops", runner.compute(*body))


def _portable(exc):
    """``exc``, or a ``RuntimeError`` naming its type and message if it does
    not come back from pickling (an ``__init__`` that takes other arguments
    than its ``args``, say)."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__qualname__}: {exc}")
    return exc


def _serve_group(conn, caller_end, runner, group):
    """A child's target: run ``group`` with the caller's help once the
    caller's own group has ended, send the cells through ``conn``, then help
    the caller's group until it ends.  An exception is sent in place of the
    next message, with the text of its traceback."""
    # a forked child inherits the caller's end; closed, the caller's exit
    # ends the pipe for this child
    caller_end.close()
    link = _Link(conn)
    try:
        link.send("end", runner.run_group(group, [link]))
        link.serve(runner)
    except Exception as exc:
        # a closed pipe leaves no one to tell
        with contextlib.suppress(OSError):
            conn.send(("raise", (_portable(exc), traceback.format_exc())))
    finally:
        conn.close()


def run_sweep(cfg, workers=None):
    """Map the decoder over the (Eb/N0 x omega) grid and aggregate.

    The cells are dealt into ``min(workers, cells)`` groups, each run in
    lockstep (:meth:`_SweepRunner.run_group`).  The calling process runs the
    first group itself and starts a child for each other group, joined to it
    by a duplex pipe (:class:`_Link`).  A child whose group has ended helps
    the caller's group, and the caller, once its own has ended, helps each
    child's group in turn.  The pipes join each child to the caller only,
    so at three or more workers a child whose group has ended sits idle
    while another child's group runs.  The owner of a group plans each round
    and hands every helper an even share of its frames, so the rounds, the
    frames computed and the results do not depend on who computes them, and
    a shared round's wall time is booked to the owner's cells.  A child's
    exception, in its own group or in a share, is raised again here with the
    child's traceback as its cause; a child that exits before the sweep ends
    raises a ``RuntimeError`` that names its cells.  Every child is joined,
    and terminated first on an error.  ``workers`` is an integer of at least
    1, by default the CPUs in the process's affinity mask; at one worker no
    process or pipe is made.  Results are independent of the worker count.
    """
    if workers is None:
        workers = default_workers()
    workers = numerics.as_count("workers", workers)
    cells_spec = cfg.cells()
    try:
        runner = _SweepRunner(cfg)
    except detect.SingularModelError as exc:
        cells = [BerCell(i, e, w, error=str(exc)) for i, e, w in cells_spec]
        return BerResult(config=cfg, cells=cells)
    # cells are dealt round-robin, so each group mixes low and high Eb/N0
    n_groups = min(workers, len(cells_spec))
    groups = [cells_spec[g::n_groups] for g in range(n_groups)]
    context = multiprocessing.get_context()
    links = []
    try:
        for group in groups[1:]:
            mine, theirs = context.Pipe()
            child = context.Process(target=_serve_group, args=(theirs, mine, runner, group))
            child.start()
            # the child now holds the only other end, so its exit ends the pipe
            theirs.close()
            links.append(_Link(mine, child, group))
        done = [runner.run_group(groups[0], links)]
        # then help each child's group that is still running, in turn
        for link in links:
            link.send("end", None)
            link.serve(runner)
            done.append(link.cells)
    except BaseException:
        for link in links:
            link.child.terminate()
        raise
    finally:
        for link in links:
            link.child.join()
            link.conn.close()
    cells = sorted((c for group in done for c in group), key=lambda c: c.cell_index)
    return BerResult(config=cfg, cells=cells)


def emit_results(result, out_dir, stem="results"):
    """Write the sweep as ``<stem>.csv`` plus a ``<stem>.config.json`` sidecar.

    CSV columns: config_hash, M, N, alpha, beta, eta, ebn0_db, omega,
    decoder, bits, errors, ber, ci_low, ci_high, mean_ops, seed.  Failed
    cells are skipped in the CSV (their diagnostics live on the result
    object); floats are written with full precision so reruns are
    byte-comparable.  ``out_dir`` is created if missing.  Each file is
    written to a temporary name in ``out_dir`` and moved into place with
    ``os.replace``, the sidecar first and the CSV last, so a failed write
    always leaves the previous CSV in place; the sidecar may already be the
    new one, and the CSV's ``config_hash`` column tells them apart.  Any
    ``OSError`` on the way, ``out_dir``'s creation included, is raised as
    one that names ``out_dir``.
    """
    cfg = result.config
    chash = config_hash(cfg)
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    json_path = os.path.join(out_dir, f"{stem}.config.json")
    header = [
        "config_hash", "M", "N", "alpha", "beta", "eta", "ebn0_db", "omega",
        "decoder", "bits", "errors", "ber", "ci_low", "ci_high", "mean_ops", "seed",
    ]
    # both files go to temporary names first, so a failed write leaves no
    # partial file behind; the dict's order moves the CSV into place last
    tmp = {path: f"{path}.{os.getpid()}.tmp" for path in (json_path, csv_path)}
    try:
        os.makedirs(out_dir, exist_ok=True)
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
            with contextlib.suppress(OSError):
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
