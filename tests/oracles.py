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


def same_bits(a, b):
    """Equal shapes and equal bits, so signed zeros and NaN payloads count."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


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


def im_soft_settling_step(model, omega, iterations, clip_scale=2**-0.5):
    """The step at which the iterative soft decoder may stop, by its rule.

    The first step whose clipped frame repeats the previous step's, with
    every axis of both clipped to the constellation's; ``iterations`` when
    no step does.  A stacked model settles when all its frames do at once.
    """
    op = detect.distortion_operator(model)
    w0 = detect.matched_filter_estimate(model)
    w, s_prev = w0, None
    for r in range(1, iterations + 1):
        d = max(0.0, 1.0 - r / iterations)
        s = clip_scale * detect.soft_clip(w / clip_scale, d)
        # below one, d keeps no axis at the clip level, so these were clipped
        clipped = np.all(np.abs(s.view(float)) == clip_scale)
        if clipped and s_prev is not None and np.array_equal(s, s_prev):
            return r
        s_prev = s if clipped else None
        w = omega * (w0 - op(s)) + s
    return iterations
