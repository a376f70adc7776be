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


def soft_clip(w, d):
    """Per-axis saturating clipper, the reference for the clip of
    :func:`detect.im_soft_decode`.

    Each real axis maps ``p -> p`` when ``|p| < d`` and to ``sign(p)``
    otherwise, with ``sign(0) = +1`` and ``sign(NaN) = +1``.  A kept entry,
    signed zero included, passes through unchanged.  For ``d <= 1`` the
    output lies in the closed unit square and the map is idempotent.  The
    input is not modified.
    """
    if d < 0:
        raise ValueError("threshold must be non-negative")
    w = np.array(w, dtype=complex, order="C")
    p = w.reshape(-1).view(float)
    # not copysign, which differs at -0.0, and not abs(p) >= d, which keeps NaN
    np.copyto(p, np.where(p < 0, -1.0, 1.0), where=~(np.abs(p) < d))
    return w


def distortion_operator(model):
    """The composite correlation operator ``S -> (G+G) @ S @ (H+H)``, the
    reference for the chunked operator of :func:`detect.im_soft_decode`.

    It forms both Gram matrices itself, so it stays independent of the
    decoder's own.
    """
    gtg, hth = model.g.conj().T @ model.g, model.h.conj().T @ model.h
    return lambda s: gtg @ s @ hth


def _im_soft_steps(model, omega, iterations, clip_scale):
    """The iterative soft decoder run for all ``iterations`` steps, no exit:
    its ``H``-step iterate, and the first step at which it may stop by its
    rule (``iterations`` when no step may).

    Each step clips ``w / clip_scale`` with :func:`soft_clip`, the way
    the decoder did before it learned to stop at an exact fixed point.  It may
    stop at the first step whose clipped frame repeats the previous step's,
    with every axis of both clipped to the constellation's.  A stacked model
    settles when all its frames do at once.  ``clip_scale`` and ``omega``
    scale each float axis on its own, as in the decoder, so an infinity stays
    on its axis where a complex product would put ``0 * inf`` on the other.
    """
    op = distortion_operator(model)
    w0 = detect.matched_filter_estimate(model)
    w, s_prev, settle = w0, None, None
    for r in range(1, iterations + 1):
        d = max(0.0, 1.0 - r / iterations)
        unit = soft_clip((_axes(w) / clip_scale).view(complex), d)
        s = (_axes(unit) * clip_scale).view(complex)
        # below one, d keeps no axis at the clip level, so these were clipped
        clipped = np.all(np.abs(s.view(float)) == clip_scale)
        if settle is None and clipped and s_prev is not None and np.array_equal(s, s_prev):
            settle = r
        s_prev = s if clipped else None
        w = (_axes(w0 - op(s)) * omega).view(complex) + s
    return w, iterations if settle is None else settle


def _axes(z):
    """The float view of complex ``z``: real and imaginary parts interleaved."""
    return np.ascontiguousarray(z).view(float)


def im_soft_decode_every_step(model, omega, iterations, clip_scale):
    """The ``H``-step iterate of :func:`_im_soft_steps`."""
    return _im_soft_steps(model, omega, iterations, clip_scale)[0]


def im_soft_settling_step(model, omega, iterations, clip_scale):
    """The step at which the iterative soft decoder may stop, by its rule;
    see :func:`_im_soft_steps`."""
    return _im_soft_steps(model, omega, iterations, clip_scale)[1]
