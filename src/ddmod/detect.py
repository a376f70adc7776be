"""Receiver algorithms for the separable frame model.

Detection is posed on the time-frequency observation ``Y_T`` as

    minimize  J(S) = || Y_T - G @ S @ H.conj().T ||_F^2   over S in A^(N x M)

where for the AWGN case ``G = A`` and ``H = B`` are the modem transform
factors (so the noiseless observation satisfies ``Y_T = G S H+`` exactly),
and an explicit separable channel folds in as ``G = H1 @ A``, ``H = H2 @ B``.

With QR factors ``G = Q_G R`` and ``H = Q_H R_H`` (``L = R_H.conj().T``
lower triangular, ``U = Q_G+ Y_T Q_H``) the objective decomposes into
per-cell terms

    J_{r,c} = | U[r,c] - R[r, r:] @ S[r:, c:] @ L[c:, c] |^2

each depending only on the lower-right quadrant of ``S``.  The 2-D sphere
decoder walks cells from the bottom-right corner toward the origin along
L-shaped shells (so every quadrant is decided before it is read).  Its
survivors are plain arrays: a ``(k, N, M)`` stack of partial frames, zero in
the cells not yet decided, and their accumulated losses.  Each cell extends
every survivor by every constellation point and keeps the ``k <= k_list``
lowest-loss children inside a squared radius, indexing the stack by parent.

Operation counting: the counter attributes to each cell evaluation the
update recursion along the shorter frame axis: one inner product of the
remaining min-axis extent plus one cross-axis scaling multiply, i.e.
``ext + 1`` multiplies and ``ext`` additions (the inner product's ``ext - 1``
additions plus the subtraction from ``U``).  Summed over a full
single-candidate sweep this gives ``M*N*(min(M,N)+3)/2`` multiplies and
``M*N*(min(M,N)+1)/2`` additions.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import numerics

RADIUS_SLACK = 1e-6


class SingularModelError(ValueError):
    """G or H is effectively rank deficient; decoding is refused."""


@dataclass(frozen=True)
class EffectiveModel:
    """Matrices and QR factors driving both decoders.

    ``g`` is N x N, ``h`` is M x M, ``y_t`` and ``u`` are N x M, ``r`` is
    upper triangular with real non-negative diagonal, ``l`` lower triangular.
    """

    g: np.ndarray
    h: np.ndarray
    y_t: np.ndarray
    q_g: np.ndarray
    r: np.ndarray
    q_h: np.ndarray
    l: np.ndarray
    u: np.ndarray

    @property
    def shape(self):
        return self.y_t.shape


def _check_full_rank(r, source, name):
    diag = np.abs(np.diagonal(r))
    if diag.min() <= numerics.RANK_EPS * np.linalg.norm(source):
        raise SingularModelError(f"{name} is effectively singular; decode refused")


def build_effective_model(a, b, y_tf, h1=None, h2=None):
    """Assemble the detection model from modem factors and an observation.

    ``y_tf`` is the received frame after the unitary receive pulse transform.
    ``h1``/``h2`` are optional separable channel factors (identity when
    omitted); they fold into ``G`` and ``H`` so the objective keeps the true
    frame as its noiseless minimizer.
    """
    a = numerics.as_matrix(a)
    b = numerics.as_matrix(b)
    y_tf = np.asarray(y_tf, dtype=complex)
    g = a if h1 is None else numerics.as_matrix(h1) @ a
    h = b if h2 is None else numerics.as_matrix(h2) @ b
    if y_tf.shape != (g.shape[0], h.shape[0]):
        raise ValueError(
            f"observation shape {y_tf.shape} does not match ({g.shape[0]}, {h.shape[0]})"
        )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", numerics.RankLossWarning)
        q_g, r = numerics.qr_decompose(g)
        q_h, r_h = numerics.qr_decompose(h)
    _check_full_rank(r, g, "G")
    _check_full_rank(r_h, h, "H")
    l = r_h.conj().T
    u = q_g.conj().T @ y_tf @ q_h
    return EffectiveModel(g=g, h=h, y_t=y_tf, q_g=q_g, r=r, q_h=q_h, l=l, u=u)


def refresh_observation(model, y_tf):
    """New model for a fresh observation, reusing the factored matrices."""
    y_tf = np.asarray(y_tf, dtype=complex)
    if y_tf.shape != model.shape:
        raise ValueError(f"observation shape {y_tf.shape} does not match {model.shape}")
    u = model.q_g.conj().T @ y_tf @ model.q_h
    return replace(model, y_t=y_tf, u=u)


def total_objective(model, s):
    """Exact Frobenius objective ``|| Y_T - G S H+ ||_F^2``."""
    s = np.asarray(s, dtype=complex)
    if s.shape != model.shape:
        raise ValueError(f"frame shape {s.shape} does not match {model.shape}")
    resid = model.y_t - model.g @ s @ model.h.conj().T
    return float(np.sum(np.abs(resid) ** 2))


@dataclass
class OpCounter:
    """Tally of complex multiplies/adds attributed to partial-metric work."""

    complex_mults: int = 0
    complex_adds: int = 0

    def add(self, mults, adds):
        self.complex_mults += int(mults)
        self.complex_adds += int(adds)

    @property
    def total(self):
        return self.complex_mults + self.complex_adds


def _min_axis_extent(model, row, col):
    n, m = model.shape
    return m - col if m <= n else n - row


def partial_metric(model, s, row, col, counter=None):
    """Per-cell squared residual ``J_{row,col}``.

    Reads only the lower-right quadrant ``s[row:, col:]``; the triangularity
    of ``r`` and ``l`` makes that sufficient, so entries outside it may hold
    anything.
    """
    s = np.asarray(s, dtype=complex)
    if s.shape != model.shape:
        raise ValueError(f"frame shape {s.shape} does not match {model.shape}")
    val = model.r[row, row:] @ s[row:, col:] @ model.l[col:, col]
    if counter is not None:
        ext = _min_axis_extent(model, row, col)
        counter.add(ext + 1, ext)
    return float(np.abs(model.u[row, col] - val) ** 2)


def wavefront_schedule(n_rows, m_cols):
    """Visit order of the frame grid for the 2-D sphere decoder.

    Starts at the bottom-right corner and expands in L-shaped shells toward
    (0, 0), followed by full row/column strips when the frame is not square.
    Every position appears exactly once and, when it is visited, its whole
    lower-right quadrant has already been decided.
    """
    if n_rows < 1 or m_cols < 1:
        raise ValueError("grid dimensions must be at least 1")
    order = [(n_rows - 1, m_cols - 1)]
    for i in range(1, min(n_rows, m_cols)):
        for k in range(i):
            order.append((n_rows - 1 - k, m_cols - 1 - i))
            order.append((n_rows - 1 - i, m_cols - 1 - k))
        order.append((n_rows - 1 - i, m_cols - 1 - i))
    if n_rows > m_cols:
        for i in range(m_cols, n_rows):
            for k in range(m_cols):
                order.append((n_rows - 1 - i, m_cols - 1 - k))
    elif m_cols > n_rows:
        for i in range(n_rows, m_cols):
            for k in range(n_rows):
                order.append((n_rows - 1 - k, m_cols - 1 - i))
    return order


def sd2d_decode(model, constellation, k_list, radius_sq=None, initial=None):
    """2-D K-best sphere decode; returns ``(s_hat, final_loss, counter)``.

    The survivors are ``frames``, ``k <= k_list`` partial frames that are zero
    where undecided, and their accumulated ``losses``.  At each cell of
    :func:`wavefront_schedule` every survivor is extended by every
    constellation point; the children are sorted ascending (stable, so ties
    keep parent-then-point order) and the best ``k_list`` inside the radius
    survive.  If the radius prunes every child, the single best child is kept
    so a decode always completes.

    ``radius_sq`` defaults to infinity, or to ``(1 + 1e-6) * J(initial)``
    when an initial estimate is supplied, which (together with a final
    fallback comparison) guarantees the decode never returns a frame worse
    than its initializer.  ``final_loss`` equals the exact objective of the
    returned frame.
    """
    n_rows, m_cols = model.shape
    if k_list < 1:
        raise ValueError("k_list must be at least 1")
    if radius_sq is None:
        radius_sq = np.inf
        if initial is not None:
            radius_sq = (1.0 + RADIUS_SLACK) * total_objective(model, initial)
    if not radius_sq > 0:
        raise ValueError("radius_sq must be positive or infinite")
    points = constellation.points
    counter = OpCounter()
    # every survivor lies inside the radius, except a lone best child kept
    # when the radius pruned them all; a cell term never lowers a loss, so its
    # descendants stay outside and the survivors need no radius filter
    frames = np.zeros((1, n_rows, m_cols), dtype=complex)
    losses = np.zeros(1)
    for row, col in wavefront_schedule(n_rows, m_cols):
        # cell (row, col) is still 0, so it enters only via the scale term
        base = np.einsum(
            "j,pjk,k->p", model.r[row, row:], frames[:, row:, col:], model.l[col:, col]
        )
        scale = model.r[row, row] * model.l[col, col]
        children = losses[:, None] + np.abs(
            model.u[row, col] - (base[:, None] + scale * points[None, :])
        ) ** 2
        ext = _min_axis_extent(model, row, col)
        counter.add(len(frames) * (ext + 1), len(frames) * ext)

        flat = children.reshape(-1)
        order = np.argsort(flat, kind="stable")
        keep = order[flat[order] <= radius_sq][:k_list]
        if keep.size == 0:
            keep = order[:1]
        frames = frames[keep // points.size]
        frames[:, row, col] = points[keep % points.size]
        losses = flat[keep]
    s_hat, loss = frames[0], float(losses[0])
    if initial is not None:
        init_loss = total_objective(model, initial)
        if init_loss < loss:
            s_hat, loss = np.asarray(initial, dtype=complex).copy(), init_loss
    return s_hat, loss, counter


@dataclass(frozen=True)
class PredictedComplexity:
    """Closed-form operation counts for one single-candidate sweep."""

    mults: int
    adds: int
    qr_shapes: tuple
    ref_1d_mults: int
    ref_1d_adds: int
    ref_1d_qr_shape: tuple


def predicted_complexity(m, n):
    """Operation budget of the 2-D decoder next to the 1-D equivalent.

    2-D: ``M*N*(min(M,N)+3)/2`` multiplies, ``M*N*(min(M,N)+1)/2`` additions,
    QR factorizations of M x M and N x N.  The 1-D formulation of the same
    detection problem needs ``M*N*(1+M*N)/2`` of each and an MN x MN QR.
    """
    if m < 1 or n < 1:
        raise ValueError("dimensions must be at least 1")
    mn = m * n
    mini = min(m, n)
    return PredictedComplexity(
        mults=mn * (mini + 3) // 2,
        adds=mn * (mini + 1) // 2,
        qr_shapes=((m, m), (n, n)),
        ref_1d_mults=mn * (1 + mn) // 2,
        ref_1d_adds=mn * (1 + mn) // 2,
        ref_1d_qr_shape=(mn, mn),
    )


def matched_filter_estimate(model):
    """Adjoint application ``G+ @ Y_T @ H``, the iterative decoder's start."""
    return model.g.conj().T @ model.y_t @ model.h


def distortion_operator(model):
    """The composite correlation operator ``S -> (G+G) @ S @ (H+H)``.

    Its fixed-point inverse is the zero-forcing solution; both matrices have
    unit diagonal for the modem factors, so the matched-filter output is
    symbol plus interference at the symbol's own scale.
    """
    gtg = model.g.conj().T @ model.g
    hth = model.h.conj().T @ model.h
    return lambda s: gtg @ s @ hth


def im_decode(model, omega, iterations):
    """Relaxed fixed-point recursion inverting the correlation operator.

    ``x_k = omega * (x_0 - C(x_{k-1})) + x_{k-1}`` starting from the matched
    filter output ``x_0``; converges to the zero-forcing solution when
    ``omega < 2 / rho(C)``.  Divergence is observable through the residual,
    never an error.
    """
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    op = distortion_operator(model)
    x0 = matched_filter_estimate(model)
    x = x0.copy()
    for _ in range(iterations):
        x = omega * (x0 - op(x)) + x
    return x


def soft_clip(w, d):
    """Per-axis saturating clipper.

    Each real axis maps ``p -> p`` when ``|p| < d`` and to ``sign(p)``
    otherwise, with ``sign(0) = +1``.  For ``d <= 1`` the output lies in the
    closed unit square and the map is idempotent.
    """
    if d < 0:
        raise ValueError("threshold must be non-negative")
    w = np.asarray(w, dtype=complex)

    def axis(p):
        return np.where(np.abs(p) < d, p, np.where(p < 0, -1.0, 1.0))

    return axis(w.real) + 1j * axis(w.imag)


def im_soft_decode(model, omega, iterations, clip_scale=2**-0.5):
    """Iterative decoding with a shrinking soft clipper.

    Iterates ``r = 1..H`` with threshold ``d_r = max(0, 1 - r/H)``, where
    ``H = iterations``.  Each step forms the clipped tentative frame
    ``s = clip(w, d_r)`` in units of ``clip_scale`` (the constellation's
    per-axis magnitude) and applies the relaxed update anchored on the
    clipped iterate, ``w <- omega * (w_0 - C(s)) + s``, whose fixed point is
    the interference-cancelled observation, stable under noise.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    op = distortion_operator(model)
    w0 = matched_filter_estimate(model)
    w = w0
    for r in range(1, iterations + 1):
        d = max(0.0, 1.0 - r / iterations)
        s = clip_scale * soft_clip(w / clip_scale, d)
        w = omega * (w0 - op(s)) + s
    return w


def hard_demap(w, constellation):
    """Entrywise nearest constellation point; ties break to the lowest index."""
    return constellation.points[constellation.nearest(w)]
