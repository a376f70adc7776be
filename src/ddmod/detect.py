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
L-shaped shells (so every quadrant is decided before it is read).  It
decodes a ``(B, N, M)`` stack of frames in chunks of frames whose survivors
hold at most ``modem.STACK_ENTRIES`` entries.  Its survivors are plain
arrays: a ``(B, S, N, M)`` stack of partial frames, zero in the cells not yet
decided, and their accumulated ``(B, S)`` losses, NaN in the slots a frame
does not fill.  Each cell extends every survivor by every constellation point
and keeps each frame's ``k <= k_list`` lowest-loss children inside its
squared radius, indexing the stack by parent.

Operation counting: the counter attributes to each cell evaluation the
update recursion along the shorter frame axis: one inner product of the
remaining min-axis extent plus one cross-axis scaling multiply, i.e.
``ext + 1`` multiplies and ``ext`` additions (the inner product's ``ext - 1``
additions plus the subtraction from ``U``).  Summed over a full
single-candidate sweep this gives ``M*N*(min(M,N)+3)/2`` multiplies and
``M*N*(min(M,N)+1)/2`` additions.  Each frame of a stack is counted on its
own, for its own live survivors.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import modem, numerics

RADIUS_SLACK = 1e-6
# OpenBLAS (0.3.31) runs a complex GEMM with M*N*K >= 2^16 on several
# threads.  The iterative decoder keeps each of its products below that:
# threads cost more than they save on products this small, and a pool of
# one worker per core would run more threads than there are cores.
SERIAL_GEMM_MNK = 1 << 16
# Smallest |R_ii| relative to ||A||_F at or below which a QR factor is
# considered effectively rank deficient.
RANK_EPS = 1e-12


class SingularModelError(ValueError):
    """G or H is effectively rank deficient; decoding is refused."""


@dataclass(frozen=True)
class EffectiveModel:
    """Matrices and QR factors driving both decoders.

    ``g`` is N x N, ``h`` is M x M, ``y_t`` and ``u`` are N x M, ``r`` is
    upper triangular with real non-negative diagonal, ``l`` lower triangular.
    A stacked model holds ``(B, N, M)`` observations ``y_t`` and ``u`` of
    ``B`` frames that share the factors; ``shape`` is still the frame shape.
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
        return self.y_t.shape[-2:]


def _check_full_rank(r, source, name):
    diag = np.abs(np.diagonal(r))
    if diag.min() <= RANK_EPS * np.linalg.norm(source):
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
    q_g, r = numerics.qr_decompose(g)
    q_h, r_h = numerics.qr_decompose(h)
    _check_full_rank(r, g, "G")
    _check_full_rank(r_h, h, "H")
    l = r_h.conj().T
    u = q_g.conj().T @ y_tf @ q_h
    return EffectiveModel(g=g, h=h, y_t=y_tf, q_g=q_g, r=r, q_h=q_h, l=l, u=u)


def refresh_observation(model, y_tf):
    """New model for a fresh observation, reusing the factored matrices.

    ``y_tf`` is one ``(N, M)`` frame or a ``(B, N, M)`` stack of frames.
    """
    y_tf = np.asarray(y_tf, dtype=complex)
    if y_tf.ndim not in (2, 3) or y_tf.shape[-2:] != model.shape:
        raise ValueError(f"observation shape {y_tf.shape} does not match {model.shape}")
    u = model.q_g.conj().T @ y_tf @ model.q_h
    return replace(model, y_t=y_tf, u=u)


def total_objective(model, s):
    """Exact Frobenius objective ``|| Y_T - G S H+ ||_F^2``.

    A float for one frame; a ``(B,)`` array for the ``(B, N, M)`` frames
    ``s`` of a stacked model.
    """
    s = np.asarray(s, dtype=complex)
    if s.shape != model.y_t.shape:
        raise ValueError(f"frame shape {s.shape} does not match {model.y_t.shape}")
    resid = model.y_t - model.g @ s @ model.h.conj().T
    loss = np.sum(np.abs(resid) ** 2, axis=(-2, -1))
    return float(loss) if loss.ndim == 0 else loss


@dataclass
class OpCounter:
    """Tally of complex multiplies/adds attributed to partial-metric work.

    ``frame_mults`` and ``frame_adds`` hold one Python int per frame: one
    entry for a single frame, ``B`` for a stacked sphere decode.  The
    ``complex_mults``, ``complex_adds`` and ``total`` properties sum them
    over the frames.
    """

    frame_mults: list
    frame_adds: list

    @property
    def complex_mults(self):
        return sum(self.frame_mults)

    @property
    def complex_adds(self):
        return sum(self.frame_adds)

    @property
    def total(self):
        return self.complex_mults + self.complex_adds

    @property
    def frame_totals(self):
        """Each frame's ``mults + adds``."""
        return [x + y for x, y in zip(self.frame_mults, self.frame_adds)]


def partial_metric(model, s, row, col):
    """Per-cell squared residual ``J_{row,col}``.

    Reads only the lower-right quadrant ``s[row:, col:]``; the triangularity
    of ``r`` and ``l`` makes that sufficient, so entries outside it may hold
    anything.
    """
    s = np.asarray(s, dtype=complex)
    if s.shape != model.shape:
        raise ValueError(f"frame shape {s.shape} does not match {model.shape}")
    val = model.r[row, row:] @ s[row:, col:] @ model.l[col:, col]
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


@functools.lru_cache(maxsize=None)
def _schedule_arrays(n_rows, m_cols):
    """The wavefront schedule with its rows, columns and min-axis extents."""
    schedule = tuple(wavefront_schedule(n_rows, m_cols))
    rows, cols = np.array(schedule).T
    exts = m_cols - cols if m_cols <= n_rows else n_rows - rows
    for a in (rows, cols, exts):
        a.setflags(write=False)
    return schedule, rows, cols, exts


def _kbest(model, u, points, k_list, radius_sq):
    """Each frame's best survivor for the ``(B, N, M)`` observations ``u``.

    Returns the ``(B, N, M)`` frames and ``(B,)`` losses of the best
    survivors, and each frame's ``(B,)`` multiplies and adds; ``radius_sq``
    is ``(B, 1)``.
    """
    n_rows, m_cols = model.shape
    schedule, rows, cols, exts = _schedule_arrays(n_rows, m_cols)
    # scale * point is a child's own term: its cell is still 0, so it enters
    # the cell's residual only through the diagonals of R and L
    scaled = (model.r[rows, rows] * model.l[cols, cols])[:, None] * points
    batch = np.arange(len(u))[:, None]
    frames = np.zeros((len(u), 1, n_rows, m_cols), dtype=complex)
    losses = np.zeros((len(u), 1))
    # survivors after the first of each cell, NaN where not live
    tails = [losses[:, 1:]]
    for cell, (row, col) in enumerate(schedule):
        # this product order gives each frame the same bits at any B
        base = (frames[:, :, row:, col:] @ model.l[col:, col]) @ model.r[row, row:]
        children = losses[:, :, None] + np.abs(
            u[:, row, col, None, None] - (base[:, :, None] + scaled[cell])
        ) ** 2
        flat = children.reshape(len(u), -1)
        keep = flat.argsort(axis=1, kind="stable")[:, :k_list]
        losses = flat[batch, keep]
        # every live survivor lies inside its frame's radius, except the
        # best child, kept alone when the radius prunes them all; a cell
        # term never lowers a loss, so a pruned survivor's descendants would
        # stay outside too
        tail = losses[:, 1:]
        np.copyto(tail, np.nan, where=tail > radius_sq)
        tails.append(tail)
        # child j of the flattened (survivor, point) grid has parent
        # j // |A| and point j % |A|
        frames = frames[batch, keep // points.size]
        frames[:, :, row, col] = points[keep % points.size]
    # a cell costs ext + 1 multiplies and ext adds per live survivor
    live = ~np.isnan(np.concatenate(tails[:-1], axis=1))
    weights = np.repeat(exts, [tail.shape[1] for tail in tails[:-1]])
    adds = exts.sum() + live @ weights
    return frames[:, 0], losses[:, 0], adds + len(exts) + live.sum(axis=1), adds


def sd2d_decode(model, constellation, k_list, radius_sq=None, initial=None):
    """2-D K-best sphere decode; returns ``(s_hat, final_loss, counter)``.

    The survivors are ``frames``, a ``(B, S, N, M)`` stack of partial frames
    that are zero where undecided, and their accumulated ``(B, S)``
    ``losses``.  At each cell of :func:`wavefront_schedule` every survivor is
    extended by every constellation point; each frame's children are sorted
    ascending (stable, so ties keep parent-then-point order) and its best
    ``k_list`` inside the radius survive.  If the radius prunes every child
    of a frame, that frame keeps its single best child, so a decode always
    completes.

    ``S = min(k_list, |A|**cells_decided)`` depends only on the cell, so the
    products run on the same shapes at any ``B`` and each frame decodes bit
    for bit as it would alone.  A frame with fewer live survivors pads its
    losses with NaN, which sorts after every child and never passes a
    radius, so each frame keeps its own radius, fallback and live count.
    The stack is decoded in chunks of
    ``max(1, modem.STACK_ENTRIES // (min(k_list, |A|**(N*M)) * N * M))``
    frames, so one chunk's survivors hold at most ``STACK_ENTRIES`` entries
    (a chunk of one frame may hold more), and the returned arrays hold no
    survivors.

    ``radius_sq`` is a scalar or one value per frame.  It defaults to
    infinity, or to ``(1 + 1e-6) * J(initial)`` for each frame when an
    initial estimate is supplied, which (together with a final fallback
    comparison) guarantees the decode never returns a frame worse than its
    initializer.  ``final_loss`` equals the exact objective of the returned
    frame.

    A model of one ``(N, M)`` frame returns an ``(N, M)`` frame and a float
    loss; a stacked model returns ``(B, N, M)`` frames and ``(B,)`` losses.
    ``counter`` tallies each frame's operations (see :class:`OpCounter`).
    """
    n_rows, m_cols = model.shape
    if k_list < 1:
        raise ValueError("k_list must be at least 1")
    single = model.u.ndim == 2
    u = model.u[None] if single else model.u
    if initial is not None:
        init_loss = np.reshape(total_objective(model, initial), len(u))
        initial = np.asarray(initial, dtype=complex).reshape(u.shape)
    if radius_sq is None:
        radius_sq = np.inf if initial is None else (1.0 + RADIUS_SLACK) * init_loss
    radius_sq = np.broadcast_to(np.reshape(radius_sq, (-1, 1)), (len(u), 1))
    if not (radius_sq >= 0).all():
        raise ValueError("radius_sq must be non-negative or infinite")
    points = constellation.points
    survivors = min(k_list, points.size ** (n_rows * m_cols))
    chunk = max(1, modem.STACK_ENTRIES // (survivors * n_rows * m_cols))
    s_hat, loss = np.empty(u.shape, dtype=complex), np.empty(len(u))
    mults, adds = np.empty(len(u), dtype=int), np.empty(len(u), dtype=int)
    for start in range(0, len(u), chunk):
        part = slice(start, start + chunk)
        s_hat[part], loss[part], mults[part], adds[part] = _kbest(
            model, u[part], points, k_list, radius_sq[part]
        )
    if initial is not None:
        better = init_loss < loss
        s_hat[better], loss[better] = initial[better], init_loss[better]
    counter = OpCounter(frame_mults=mults.tolist(), frame_adds=adds.tolist())
    if single:
        return s_hat[0], float(loss[0]), counter
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


def _gram_matrices(model):
    """``G+G`` and ``H+H``, the two sides of the correlation operator."""
    return model.g.conj().T @ model.g, model.h.conj().T @ model.h


def distortion_operator(model):
    """The composite correlation operator ``S -> (G+G) @ S @ (H+H)``.

    Its fixed-point inverse is the zero-forcing solution; both matrices have
    unit diagonal for the modem factors, so the matched-filter output is
    symbol plus interference at the symbol's own scale.
    """
    gtg, hth = _gram_matrices(model)
    return lambda s: gtg @ s @ hth


def _wide_operator(gtg, hth):
    """The correlation operator on an ``(N, B, M)`` stack, one GEMM per side."""
    n_rows, m_cols = len(gtg), len(hth)

    def op(x):
        left = gtg @ x.reshape(n_rows, -1)
        return (left.reshape(-1, m_cols) @ hth).reshape(x.shape)

    return op


@functools.lru_cache(maxsize=None)
def _wide_frames(n_rows, m_cols, entries):
    """Most frames the wide operator may take at this frame shape; 0 for none.

    The wide products keep each frame's bits only where the BLAS kernel
    sums every output entry in the same order as the per-frame products.
    That depends on the shape and on the kernel chosen for this CPU, so it
    is checked here, on the machine that decodes: on random operands, at
    every stack of 1..9 frames and at the largest wide stack.  That is the
    largest stack a harness round holds, ``entries // (N * M)`` frames, or
    fewer where a product would reach ``SERIAL_GEMM_MNK``.  Shapes with
    ``N < 2`` or ``M % 4 != 0`` are refused unchecked: of those with
    ``N, M <= 16`` all but 1x1 and 1x4 differ on OpenBLAS's Haswell kernels.
    """
    largest = min(
        entries // (n_rows * m_cols),
        (SERIAL_GEMM_MNK - 1) // (n_rows * m_cols * max(n_rows, m_cols)),
    )
    if n_rows < 2 or m_cols % 4 or largest < 1:
        return 0
    rng = np.random.default_rng(0)
    gtg = rng.normal(size=(n_rows, 2 * n_rows)).view(complex)
    hth = rng.normal(size=(m_cols, 2 * m_cols)).view(complex)
    op = _wide_operator(gtg, hth)
    for frames in sorted({*range(1, min(9, largest) + 1), largest}):
        s = rng.normal(size=(frames, n_rows, 2 * m_cols)).view(complex)
        want = (gtg @ s @ hth).transpose(1, 0, 2)
        got = op(np.ascontiguousarray(s.transpose(1, 0, 2)))
        if not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
            return 0
    return largest


def _stack_operator(model, frames):
    """The operator of :func:`im_soft_decode` and whether it runs wide.

    The wide operator takes the iterate as ``(N, B, M)``, the batched one as
    ``(B, N, M)`` (or ``(N, M)`` for one frame); both give every frame the
    bits of :func:`distortion_operator`.
    """
    n_rows, m_cols = model.shape
    if frames <= _wide_frames(n_rows, m_cols, modem.STACK_ENTRIES):
        return _wide_operator(*_gram_matrices(model)), True
    return distortion_operator(model), False


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
    otherwise, with ``sign(0) = +1`` and ``sign(NaN) = +1``.  A kept entry,
    signed zero included, passes through unchanged.  For ``d <= 1`` the
    output lies in the closed unit square and the map is idempotent.  The
    input is not modified.
    """
    if d < 0:
        raise ValueError("threshold must be non-negative")
    w = np.array(w, dtype=complex, order="C")
    _clip_axes(w.reshape(-1).view(float), d)
    return w


def _clip_axes(p, d):
    """Clip the float array ``p`` in place; returns whether no entry was kept."""
    # not copysign, which differs at -0.0, and not abs(p) >= d, which keeps NaN
    kept = np.abs(p) < d
    np.copyto(p, np.where(p < 0, -1.0, 1.0), where=~kept)
    return not np.count_nonzero(kept)


def im_soft_decode(model, omega, iterations, clip_scale=2**-0.5):
    """Iterative decoding with a shrinking soft clipper.

    Iterates ``r = 1..H`` with threshold ``d_r = max(0, 1 - r/H)``, where
    ``H = iterations``.  Each step forms the clipped tentative frame
    ``s = clip(w, d_r)`` in units of ``clip_scale`` (the constellation's
    per-axis magnitude) and applies the relaxed update anchored on the
    clipped iterate, ``w <- omega * (w_0 - C(s)) + s``, whose fixed point is
    the interference-cancelled observation, stable under noise.

    The loop stops early at an exact fixed point: once two consecutive steps
    clip every entry with the same sign pattern, ``s`` and then ``w`` repeat,
    and since ``d_r`` only shrinks every later step clips ``w`` to the same
    ``s`` again.  So the result is the ``H``-step iterate.

    Each step with ``d_r > 0`` clips in place with no mask: it keeps
    ``|p|`` where ``|p| < d_r`` and ``1`` elsewhere, then copies the sign of
    ``p`` back onto it.  The last step (``d_r = 0``) uses the rule of
    :func:`soft_clip`.  The two agree on every finite or infinite entry,
    signed zeros included.  A NaN stays the same NaN here where
    :func:`soft_clip` maps it to +1, which cannot change the result: a
    non-finite observation makes the frame's whole ``w_0`` NaN, and with it
    every iterate.

    A stacked model decodes all its frames at once, and stops when the whole
    stack has settled; ``omega`` is then a scalar or a ``(B, 1, 1)`` array
    with one relaxation factor per frame.  Where a set-up check has found
    the wide products bitwise equal to the per-frame ones on this machine
    (``N >= 2``, ``M % 4 == 0`` and at most ``modem.STACK_ENTRIES // (N*M)``
    frames, fewer where a product would reach ``SERIAL_GEMM_MNK``), the
    iterate is held as an ``(N, B, M)`` stack, so each side of ``C`` is one
    2-D GEMM over all frames; otherwise it stays ``(B, N, M)`` and ``C``
    runs frame by frame.  Either way each frame comes out with the bits it
    has alone.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    w0 = matched_filter_estimate(model)
    shape = w0.shape
    op, wide = _stack_operator(model, 1 if w0.ndim == 2 else len(w0))
    if wide:
        w0 = np.ascontiguousarray(w0.reshape(-1, *model.shape).transpose(1, 0, 2))
        omega = np.reshape(omega, (-1, 1))
    w = w0.copy()
    if np.ndim(omega):
        # a full operand multiplies faster than one broadcast on short rows
        omega = np.broadcast_to(omega, w.view(float).shape).copy()
    p_prev = None
    for r in range(1, iterations + 1):
        d = max(0.0, 1.0 - r / iterations)
        # w is this step's own array, so it becomes s; scaling the float
        # view by 1/clip_scale gives the values of a complex division
        s, p = w, w.view(float)
        p *= 1.0 / clip_scale
        if d > 0:
            # the rule of _clip_axes with no mask: with d > 0 a signed zero
            # is kept, and copysign restores it, as it restores p's NaNs
            a = np.abs(p)
            clipped = a >= d
            np.copysign(np.where(clipped, 1.0, a), p, out=p)
            all_clipped = np.count_nonzero(clipped) == p.size
        else:
            all_clipped = _clip_axes(p, d)
        p *= clip_scale
        # the float views compare as the complex entries do, in less time
        settled = p_prev is not None and all_clipped and np.array_equal(p, p_prev)
        w = op(s)
        np.subtract(w0, w, out=w)
        p = w.view(float)
        p *= omega
        w += s
        if settled:
            break
        # only a fully clipped s can start a fixed point
        p_prev = s.view(float) if all_clipped else None
    if wide:
        w = np.ascontiguousarray(w.transpose(1, 0, 2)).reshape(shape)
    return w


def hard_demap(w, constellation):
    """Entrywise nearest constellation point; ties break to the lowest index."""
    return constellation.points[constellation.nearest(w)]
