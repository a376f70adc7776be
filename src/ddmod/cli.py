"""Command-line interface: simulate sweeps, verify invariants, print budgets."""

import argparse
import json
import os
import sys
from dataclasses import replace

from . import detect, harness, properties


def _positive_int(text):
    """An argument type for ``--workers``, ``--M`` and ``--N``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_simulate(sub):
    p = sub.add_parser("simulate", help="run a Monte-Carlo BER sweep")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="path to a JSON sweep configuration")
    src.add_argument("--preset", choices=sorted(harness.PRESETS), help="built-in experiment")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--out", default="results", help="output directory (default: results/)")
    p.add_argument("--stem", default="results", help="output file stem")
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="worker processes (default: one per CPU this process may use)")
    p.set_defaults(handler=_cmd_simulate)


def _add_verify(sub):
    p = sub.add_parser("verify-properties", help="run the transform/decoder invariant suite")
    p.set_defaults(handler=_cmd_verify)


def _add_complexity(sub):
    p = sub.add_parser("complexity", help="print decoder operation budgets")
    p.add_argument("--M", type=_positive_int, required=True, dest="m")
    p.add_argument("--N", type=_positive_int, required=True, dest="n")
    p.set_defaults(handler=_cmd_complexity)


def _say(line):
    """Print and flush ``line``; once stdout's reader has gone (``| head -1``),
    send the rest to the null device, so the sweep still writes its files."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _load_config(args):
    """The sweep config the ``simulate`` arguments name, ``--seed`` applied."""
    if args.preset:
        cfg = harness.PRESETS[args.preset]
    else:
        with open(args.config) as fh:
            cfg = harness.SweepConfig.from_json_dict(json.load(fh))
    return cfg if args.seed is None else replace(cfg, master_seed=args.seed)


def _cmd_simulate(args):
    try:
        if args.stem in ("", ".", "..") or {os.sep, os.altsep} & set(args.stem):
            raise ValueError(f"--stem must be a file name with no directory, got {args.stem!r}")
        cfg = _load_config(args)
        os.makedirs(args.out, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"ddmod: error: {exc}", file=sys.stderr)
        return 2
    _say(f"sweep: {cfg.decoder} on ({cfg.m}x{cfg.n}) alpha={cfg.alpha} beta={cfg.beta} "
         f"eta={100 * cfg.eta:.1f}% seed={cfg.master_seed}")
    result = harness.run_sweep(cfg, workers=args.workers)
    for cell in result.cells:
        tag = f"omega={cell.omega}" if cell.omega is not None else "        "
        outcome = f"FAILED: {cell.error}" if cell.error is not None else (
            f"ber={cell.ber:.3e} ({cell.bit_errors}/{cell.bits_sent} bits, {cell.frames} frames)")
        _say(f"  ebn0={cell.ebn0_db:5.1f} {tag}  {outcome}")
    try:
        csv_path, json_path = harness.emit_results(result, args.out, stem=args.stem)
    except OSError as exc:
        print(f"ddmod: error: {exc}", file=sys.stderr)
        return 2
    _say(f"wrote {csv_path} and {json_path}")
    return 0 if result.completed else 1


def _cmd_verify(_args):
    results = properties.run_all()
    width = max(len(name) for name, _, _ in results)
    ok_all = True
    for name, ok, worst in results:
        status = "PASS" if ok else "FAIL"
        ok_all &= ok
        print(f"{name:<{width}}  {status}  (worst rel err {worst:.2e})")
    return 0 if ok_all else 1


def _cmd_complexity(args):
    budget = detect.predicted_complexity(args.m, args.n)
    print(f"frame {args.m} x {args.n}")
    print(f"  2-D decoder: {budget.mults} complex multiplies, {budget.adds} complex adds; "
          f"QR {args.m}x{args.m} and {args.n}x{args.n}")
    print(f"  1-D reference: {budget.ref_1d_mults} multiplies, {budget.ref_1d_adds} adds; "
          f"QR {args.m * args.n}x{args.m * args.n}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="ddmod", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_simulate(sub)
    _add_verify(sub)
    _add_complexity(sub)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
