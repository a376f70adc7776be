"""Receiver algorithms for the separable frame model.

Detection is posed on the time-frequency observation ``Y_T`` as

    minimize  J(S) = || Y_T - G @ S @ H.conj().T ||_F^2   over S in A^(N x M)

where ``G = A`` and ``H = B`` are the modem transform factors, so the
noiseless observation over AWGN satisfies ``Y_T = G S H+`` exactly.  The
iterative decoder runs its correlation operator on balanced chunks of a
stack of frames, one single-threaded GEMM per side and chunk.

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
own, for its own live survivors, and :class:`OpCounter` holds the counts as
one ``(B,)`` integer array each for multiplies and additions.
"""

import functools
import itertools
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

    ``g`` is N x N, ``h`` is M x M, ``y_t`` is N x M, ``r`` is upper
    triangular with real non-negative diagonal, ``l`` lower triangular.  A
    stacked model holds the ``(B, N, M)`` observations ``y_t`` of ``B``
    frames that share the factors; ``shape`` is still the frame shape.
    """

    g: np.ndarray
    h: np.ndarray
    y_t: np.ndarray
    q_g: np.ndarray
    r: np.ndarray
    q_h: np.ndarray
    l: np.ndarray

    @property
    def shape(self):
        return self.y_t.shape[-2:]

    @functools.cached_property
    def u(self):
        """The rotated observation ``Q_G+ Y_T Q_H``, shaped like ``y_t``.

        Computed on first use; a new observation is a new model (see
        :func:`refresh_observation`), so it never outlives its ``y_t``.
        """
        return self.q_g.conj().T @ self.y_t @ self.q_h


def _check_full_rank(r, source, name):
    diag = np.abs(np.diagonal(r))
    if diag.min() <= RANK_EPS * np.linalg.norm(source):
        raise SingularModelError(f"{name} is effectively singular; decode refused")


def build_effective_model(a, b, y_tf):
    """Assemble the detection model from modem factors and an observation.

    ``y_tf`` is the received frame after the unitary receive pulse transform;
    ``G = a`` and ``H = b``.
    """
    g = numerics.as_matrix(a)
    h = numerics.as_matrix(b)
    y_tf = np.asarray(y_tf, dtype=complex)
    if y_tf.shape != (g.shape[0], h.shape[0]):
        raise ValueError(
            f"observation shape {y_tf.shape} does not match ({g.shape[0]}, {h.shape[0]})"
        )
    q_g, r = numerics.qr_decompose(g)
    q_h, r_h = numerics.qr_decompose(h)
    _check_full_rank(r, g, "G")
    _check_full_rank(r_h, h, "H")
    return EffectiveModel(g=g, h=h, y_t=y_tf, q_g=q_g, r=r, q_h=q_h, l=r_h.conj().T)


def refresh_observation(model, y_tf):
    """New model for a fresh observation, reusing the factored matrices.

    ``y_tf`` is one ``(N, M)`` frame or a ``(B, N, M)`` stack of frames.
    """
    y_tf = np.asarray(y_tf, dtype=complex)
    if y_tf.ndim not in (2, 3) or y_tf.shape[-2:] != model.shape:
        raise ValueError(f"observation shape {y_tf.shape} does not match {model.shape}")
    return replace(model, y_t=y_tf)


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


@dataclass(frozen=True)
class OpCounter:
    """Complex multiplies and adds attributed to partial-metric work, as
    ``(B,)`` integer arrays with one count per frame, ``(1,)`` for one frame."""

    mults: np.ndarray
    adds: np.ndarray

    @property
    def total(self):
        """All frames' multiplies and adds, as one int."""
        return int(self.mults.sum() + self.adds.sum())


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

    With ``up, left = n_rows-1-row, m_cols-1-col`` a cell's offsets from the
    bottom-right corner, cells go in order of ``max(up, left)``: L-shaped
    shells toward (0, 0), then full row or column strips when the frame is
    not square.  Within a shell they go in order of ``min(up, left)``, the
    column arm's cell before the row arm's.  Every position appears exactly
    once and, when it is visited, its whole lower-right quadrant has already
    been decided.
    """
    n_rows, m_cols = numerics.as_count("n_rows", n_rows), numerics.as_count("m_cols", m_cols)

    def key(cell):
        up, left = n_rows - 1 - cell[0], m_cols - 1 - cell[1]
        return max(up, left), min(up, left), up >= left

    return sorted(itertools.product(range(n_rows), range(m_cols)), key=key)


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

    One ``(N, M)`` frame decodes as a stack of one and returns an ``(N, M)``
    frame and a float loss; a stacked model returns ``(B, N, M)`` frames and
    ``(B,)`` losses.  ``counter`` holds each frame's multiplies and adds as
    ``(B,)`` arrays, ``(1,)`` for one frame (see :class:`OpCounter`).
    """
    n_rows, m_cols = model.shape
    k_list = numerics.as_count("k_list", k_list)
    u = model.u.reshape(-1, n_rows, m_cols)
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
    shape = model.u.shape
    return s_hat.reshape(shape), loss.reshape(shape[:-2])[()], OpCounter(mults, adds)


@dataclass(frozen=True)
class PredictedComplexity:
    """Closed-form operation counts for one single-candidate sweep."""

    mults: int
    adds: int
    ref_1d_mults: int
    ref_1d_adds: int


def predicted_complexity(m, n):
    """Operation budget of the 2-D decoder next to the 1-D equivalent.

    2-D: ``M*N*(min(M,N)+3)/2`` multiplies, ``M*N*(min(M,N)+1)/2`` additions,
    QR factorizations of M x M and N x N.  The 1-D formulation of the same
    detection problem needs ``M*N*(1+M*N)/2`` of each and an MN x MN QR.
    """
    m, n = numerics.as_count("m", m), numerics.as_count("n", n)
    mn = m * n
    mini = min(m, n)
    return PredictedComplexity(
        mults=mn * (mini + 3) // 2,
        adds=mn * (mini + 1) // 2,
        ref_1d_mults=mn * (1 + mn) // 2,
        ref_1d_adds=mn * (1 + mn) // 2,
    )


def matched_filter_estimate(model):
    """Adjoint application ``G+ @ Y_T @ H``, the iterative decoder's start."""
    return model.g.conj().T @ model.y_t @ model.h


def _gram_matrices(model):
    """``G+G`` and ``H+H``, the two sides of the correlation operator
    ``S -> (G+G) @ S @ (H+H)``, whose fixed-point inverse is the zero-forcing
    solution.  Both have unit diagonal for the modem factors, so the
    matched-filter output is symbol plus interference at the symbol's own
    scale."""
    return model.g.conj().T @ model.g, model.h.conj().T @ model.h


def _chunked_operator(gtg, hth, chunks, width):
    """The correlation operator on a ``(chunks, N, width, M)`` stack, as
    ``op(x, out)``: it writes ``C(x)`` into ``out`` and returns it, one GEMM
    per side and chunk, through one half-product buffer."""
    n_rows, m_cols = len(gtg), len(hth)
    cols, rows = (chunks, n_rows, width * m_cols), (chunks, n_rows * width, m_cols)
    half = np.empty(cols, dtype=complex)
    half_rows = half.reshape(rows)

    def op(x, out):
        np.matmul(gtg, x.reshape(cols), out=half)
        np.matmul(half_rows, hth, out=out.reshape(rows))
        return out

    return op


def _chunk_cap(n_rows, m_cols):
    """Most frames one chunk of the chunked operator may take: the most whose
    products stay below ``SERIAL_GEMM_MNK``, and at least 1."""
    return max(1, (SERIAL_GEMM_MNK - 1) // (n_rows * m_cols * max(n_rows, m_cols)))


@functools.lru_cache(maxsize=None)
def _width_keeps_bits(n_rows, m_cols, width):
    """Whether one chunk of ``width`` frames forms each frame's products
    bitwise: only where the BLAS kernel sums each entry in the per-frame
    order, which depends on the shape, the width and the CPU.  Checked on
    the machine that decodes, the first time a process runs the width.  On
    OpenBLAS 0.3.31's Haswell kernels, of the 256 shapes with ``N, M <= 16``
    the 194 that fail at some width are those with ``N < 2`` or
    ``M % 4 != 0``, all but 1x1 and 1x4."""
    rng = np.random.default_rng(0)
    gtg = rng.normal(size=(n_rows, 2 * n_rows)).view(complex)
    hth = rng.normal(size=(m_cols, 2 * m_cols)).view(complex)
    s = rng.normal(size=(width, n_rows, 2 * m_cols)).view(complex)
    want = (gtg @ s @ hth).transpose(1, 0, 2)
    x = np.ascontiguousarray(s.transpose(1, 0, 2))
    got = _chunked_operator(gtg, hth, 1, width)(x, np.empty_like(x))
    return np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _stack_operator(model, frames):
    """The operator of :func:`im_soft_decode` and the ``(chunks, width)``
    of its ``(chunks, N, width, M)`` iterate: the fewest chunks within the
    cap, as even as they can be.  A width that fails its check runs as
    ``frames`` chunks of one frame, whose products are the frame's own."""
    chunks = max(1, -(-frames // _chunk_cap(*model.shape)))
    width = -(-frames // chunks)
    if width > 1 and not _width_keeps_bits(*model.shape, width):
        chunks, width = frames, 1
    return _chunked_operator(*_gram_matrices(model), chunks, width), (chunks, width)


def im_soft_decode(model, omega, iterations, constellation):
    """Iterative decoding with a shrinking soft clipper.

    Iterates ``r = 1..H`` with threshold ``d_r = max(0, 1 - r/H)``, where
    ``H = iterations``.  Each step forms the clipped tentative frame
    ``s = clip(w, d_r)`` in units of ``constellation.axis_magnitude``, the
    points' per-axis magnitude, and applies the relaxed update anchored on
    the clipped iterate, ``w <- omega * (w_0 - C(s)) + s``, whose fixed
    point is the interference-cancelled observation, stable under noise.

    The loop stops early at an exact fixed point: once two consecutive steps
    clip every entry with the same sign pattern, ``s`` and then ``w`` repeat,
    and since ``d_r`` only shrinks every later step clips ``w`` to the same
    ``s`` again.  So the result is the ``H``-step iterate.

    The iterate lives in two buffers allocated once per call: each step
    clips one in place and has the operator write the next iterate into the
    other, so no step allocates.  Every step clips with no mask or branch:
    it keeps ``|p| < d_r < 1`` and takes the rest to ``1`` (a min, then a
    max), then copies the sign of ``p`` back onto it.  So each axis ``p``
    is kept when ``|p| < d_r`` and goes to ``+1`` or ``-1``, the sign of
    ``p``, otherwise.  The last step (``d_r = 0``) keeps nothing, and first
    adds ``+0.0`` so that a ``-0.0`` goes to ``+1``.  A NaN stays the same
    NaN, which cannot change the result: a non-finite observation makes the
    frame's whole ``w_0`` NaN, and with it every iterate.

    ``omega`` is a scalar, or one relaxation factor per frame shaped like
    the observation with unit frame axes: ``(1, 1)`` for one frame and
    ``(B, 1, 1)`` for a stack; any other shape raises ``ValueError``.
    Either way it becomes one factor per float of the iterate.

    A stacked model decodes all its frames at once, and stops when the whole
    stack has settled.  The ``B`` frames are held as ``(chunks, N, b, M)``,
    ``chunks = ceil(B / cap)`` and ``b = ceil(B / chunks)``, so each side of
    ``C`` is one GEMM per chunk.  ``cap`` is the most frames whose products
    stay below ``SERIAL_GEMM_MNK``.  Each width ``b > 1`` is checked against
    the per-frame products the first time a process runs it, and one that
    differs runs as ``B`` chunks of one frame.  Either way each frame comes
    out with the bits it has alone.  An empty stack gives an empty result.
    """
    iterations = numerics.as_count("iterations", iterations)
    per_frame = model.y_t.shape[:-2] + (1, 1)
    if np.ndim(omega) and np.shape(omega) != per_frame:
        raise ValueError(f"omega must be a scalar or shaped {per_frame}, got {np.shape(omega)}")
    w0 = matched_filter_estimate(model)
    shape, clip_scale = w0.shape, constellation.axis_magnitude
    frames = w0.reshape(-1, *model.shape)
    op, (chunks, width) = _stack_operator(model, len(frames))
    # copies of the last frame and its omega fill the last chunk: a copy
    # settles with its frame, so the stack stops as it would
    fill = np.minimum(np.arange(chunks * width), len(frames) - 1)
    w0 = np.ascontiguousarray(frames[fill].reshape(chunks, width, *model.shape).swapaxes(1, 2))
    # two iterates with their float views: each step clips one in place into
    # s and writes the next w into the other, so s is intact until compared
    w, s = w0.copy(), np.empty_like(w0)
    (w, q), (s, p) = (w, w.view(float)), (s, s.view(float))
    a, clipped = np.empty(p.shape), np.empty(p.shape, bool)  # the clip's |p| and mask
    # a full operand multiplies faster than one broadcast on short rows
    omega = np.broadcast_to(omega, per_frame).reshape(-1)[fill].reshape(chunks, 1, width, 1)
    omega = np.broadcast_to(omega, a.shape).copy()
    p_prev = None
    for r in range(1, iterations + 1):
        d = max(0.0, 1.0 - r / iterations)
        (s, p), (w, q) = (w, q), (s, p)
        # scaling the float view by 1/clip_scale gives the values of a
        # complex division
        p *= 1.0 / clip_scale
        if d == 0:
            p += 0.0  # so -0.0 clips to +1
        np.abs(p, out=a)
        np.greater_equal(a, d, out=clipped)
        np.minimum(a, 1.0, out=a)
        np.maximum(a, clipped, out=a)
        np.copysign(a, p, out=p)
        all_clipped = np.count_nonzero(clipped) == p.size
        p *= clip_scale
        # the float views compare as the complex entries do, in less time
        settled = p_prev is not None and all_clipped and np.array_equal(p, p_prev)
        op(s, w)
        np.subtract(w0, w, out=w)
        q *= omega
        w += s
        if settled:
            break
        # only a fully clipped s can start a fixed point
        p_prev = p if all_clipped else None
    w = np.ascontiguousarray(w.swapaxes(1, 2)).reshape(-1, *model.shape)[: len(frames)]
    return w.reshape(shape)


def hard_demap(w, constellation):
    """Entrywise nearest constellation point; ties break to the lowest index."""
    return constellation.points[constellation.nearest(w)]
