"""Dense complex linear algebra helpers shared by the transform and decoder code,
and the two rules every count and real argument of the package is checked by.

Everything here is pure, and the matrix helpers take plain numpy arrays.  Frame
sizes in this package are small (at most 16 x 16), so dense storage is used throughout.
"""

import numbers

import numpy as np


def as_count(name, value, least=1):
    """``int(value)``, refused by ``name`` unless an integer (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


def is_real(value):
    """Whether ``value`` is a real number other than a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def as_matrix(a):
    """Validate and return ``a`` as a finite complex 2-d array."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a non-empty 2-d matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def qr_decompose(a):
    """QR factorization of a square matrix with a unique sign convention.

    Returns ``(q, r)`` with ``a = q @ r``, ``q`` unitary and ``r`` upper
    triangular with a real non-negative diagonal.  The diagonal convention
    makes the factors unique for full-rank input, so repeated runs on the
    same matrix are bit-identical (the underlying Householder factorization
    is deterministic).  Rank is not checked; callers that cannot tolerate
    rank loss check the diagonal themselves.
    """
    a = as_matrix(a)
    n, m = a.shape
    if n != m:
        raise ValueError(f"qr_decompose expects a square matrix, got {n}x{m}")
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r)
    phase = np.where(np.abs(diag) > 0.0, np.exp(-1j * np.angle(diag)), 1.0 + 0j)
    q = q * np.conj(phase)[None, :]
    r = phase[:, None] * r
    # the diagonal is now real non-negative up to rounding; pin it exactly
    idx = np.arange(n)
    r[idx, idx] = np.abs(diag)
    return q, r
