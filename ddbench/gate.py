"""Correctness gate: sweep results against references stored per seed.

``reference.json`` holds, for each reference key, the resolved sweep
configuration (without its master seed) and, for every master seed in
``range(REFERENCE_SEEDS)``, one ``[frames, bit_errors, mean_decoder_ops]``
triple per cell, in cell order.  A sweep is correct when every cell completed
and its triple equals the stored one exactly, which is the fixed-seed
reproducibility contract of the harness.
"""

import json
from dataclasses import asdict
from itertools import zip_longest
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEEDS = 32


def master_seed(seed):
    """Master seed of the sweep a benchmark seed selects (one with a reference)."""
    return seed % REFERENCE_SEEDS


def load_reference(path=REFERENCE_PATH):
    with open(path) as fh:
        return json.load(fh)


def seedless_config(cfg):
    data = cfg.to_json_dict()
    del data["master_seed"]
    return data


def cell_triple(cell):
    return [cell.frames, cell.bit_errors, cell.mean_decoder_ops]


def expected_triples(reference, key, cfg):
    """Stored triples for ``cfg``; ``None`` when no reference covers it."""
    entry = reference.get(key)
    if entry is None or entry["config"] != seedless_config(cfg):
        return None
    return entry["cells"].get(str(cfg.master_seed))


def check_cells(cells, expected, bits_per_frame):
    """One message per grid cell that failed or differs from ``expected``.

    A missing reference fails every cell, so a run is never reported correct
    without one.
    """
    if expected is None:
        expected = [None] * len(cells)
    problems = []
    for cell, want in zip_longest(cells, expected):
        if cell is None:
            problems.append(f"reference cell {want} missing from the result")
        elif want is None:
            problems.append(f"cell {cell.cell_index}: no stored reference")
        elif cell.error is not None:
            problems.append(f"cell {cell.cell_index}: error {cell.error}")
        elif cell_triple(cell) != want:
            problems.append(
                f"cell {cell.cell_index}: (frames, errors, ops) {cell_triple(cell)} != {want}"
            )
        elif cell.bits_sent != cell.frames * bits_per_frame:
            problems.append(f"cell {cell.cell_index}: {cell.bits_sent} bits in {cell.frames} frames")
    return problems


def same_cells(cells, other):
    """Messages for cells of ``other`` that differ from ``cells`` (wall time aside)."""

    def fields(cell):
        out = asdict(cell)
        del out["wall_time"]
        return out

    if len(cells) != len(other):
        return [f"{len(other)} cells, expected {len(cells)}"]
    return [
        f"cell {b.cell_index}: {fields(b)} != {fields(a)}"
        for a, b in zip(cells, other)
        if fields(a) != fields(b)
    ]
