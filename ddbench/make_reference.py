"""Regenerate ``reference.json``, the per-seed results the benchmark checks.

    python3 ddbench/make_reference.py

Runs every reference key's sweep single-process at master seeds
``0 .. gate.REFERENCE_SEEDS - 1`` (about five minutes on two cores).  Only
regenerate when a change is meant to alter the results, and say why in the
change.
"""

import json

import gate
import run


def main():
    dd = run.import_ddmod()
    reference = {}
    for name, (_, _, _, key) in run.WORKLOADS.items():
        if key in reference:
            continue
        entry = {"config": None, "cells": {}}
        for seed in range(gate.REFERENCE_SEEDS):
            cfg = run.workload(dd.harness, name, seed)[0](0)
            entry["config"] = gate.seedless_config(cfg)
            result = dd.harness.run_sweep(cfg, workers=1)
            if not result.completed:
                raise SystemExit(f"{name} seed {seed}: a cell failed; no reference written")
            entry["cells"][str(seed)] = [gate.cell_triple(c) for c in result.cells]
            print(f"{key} seed {seed}: {sum(c.frames for c in result.cells)} frames", flush=True)
        reference[key] = entry
    with open(gate.REFERENCE_PATH, "w") as fh:
        fh.write(dumps(reference))


def dumps(reference):
    """JSON with one line per config and per seed's cells."""
    keys = []
    for key, entry in reference.items():
        seeds = ",\n".join(
            f"   {json.dumps(seed)}: {json.dumps(cells)}" for seed, cells in entry["cells"].items()
        )
        keys.append(
            f" {json.dumps(key)}: {{\n  \"config\": {json.dumps(entry['config'])},\n"
            f"  \"cells\": {{\n{seeds}\n  }}\n }}"
        )
    return "{\n" + ",\n".join(keys) + "\n}\n"


if __name__ == "__main__":
    main()
