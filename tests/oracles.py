"""Closed-form oracles shared by the transform and helper tests."""

import numpy as np


def dirichlet_sq(x, k):
    """Squared periodic Dirichlet kernel ``sin^2(pi k x) / sin^2(pi x)``.

    Total function of a real argument: the removable singularity at integer
    ``x`` evaluates to ``k**2``.  Even in ``x`` and periodic with period 1.
    """
    if k < 1:
        raise ValueError("k must be a positive count")
    x = np.asarray(x, dtype=float)
    frac = x - np.round(x)
    near_int = np.abs(frac) < 1e-12
    safe = np.where(near_int, 0.5, x)  # dummy value away from the singularity
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sin(np.pi * k * safe) ** 2 / np.sin(np.pi * safe) ** 2
    out = np.where(near_int, float(k) ** 2, ratio)
    if out.ndim == 0:
        return float(out)
    return out
