"""Closed-form and reference oracles shared by the tests."""

import numpy as np

from ddmod import detect


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


def im_soft_decode_every_step(model, omega, iterations, clip_scale=2**-0.5):
    """The iterative soft decoder run for all ``iterations`` steps, no exit.

    Each step clips ``w / clip_scale`` as a complex array, the way the
    decoder did before it learned to stop at an exact fixed point.
    """
    op = detect.distortion_operator(model)
    w0 = detect.matched_filter_estimate(model)
    w = w0
    for r in range(1, iterations + 1):
        d = max(0.0, 1.0 - r / iterations)
        s = clip_scale * detect.soft_clip(w / clip_scale, d)
        w = omega * (w0 - op(s)) + s
    return w
