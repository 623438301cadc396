"""Vectorized Monte-Carlo kernels (internal).

These kernels replicate the scalar classification and statistic code paths
across many draws at once.  Randomness comes from counter-based Philox
substreams keyed by ``(seed, stream index)``, so a computation split into
fixed-size chunks gives identical results regardless of how many workers
process the chunks.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .exceptions import SolverError

DEFAULT_CHUNK = 16384

# Active-set steps allowed per draw: max(ITER_CAP_PER_DIM * p, ITER_CAP_MIN).
ITER_CAP_PER_DIM = 10
ITER_CAP_MIN = 30
# Pending draws per batched active-set solve; bounds the (block, p, p) systems.
ACTIVE_SET_BLOCK = 4096
# Sign conditions count a value within this fraction of |y| as zero.
ACTIVE_SET_RTOL = 1e-10
# Block pivots a draw may take without lowering its fewest violation count.
BLOCK_CHANCES = 3


def substream(seed, key):
    """Independent generator for one stream of a seeded family.

    ``key`` is an int or tuple of ints; distinct keys give independent
    counter-based streams for the same seed.
    """
    if isinstance(key, (int, np.integer)):
        key = (int(key),)
    else:
        key = tuple(int(k) for k in key)
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))


def chunk_sizes(total, chunk):
    """Fixed partition of ``total`` draws into chunks (worker independent)."""
    out = [chunk] * (total // chunk)
    if total % chunk:
        out.append(total % chunk)
    return out


def run_chunks(worker, n_chunks, workers=1):
    """Evaluate ``worker(i)`` for each chunk index, preserving chunk order."""
    if workers <= 1 or n_chunks <= 1:
        return [worker(i) for i in range(n_chunks)]
    with ThreadPoolExecutor(max_workers=int(workers)) as pool:
        return list(pool.map(worker, range(n_chunks)))


def keyed_chunk(seed, key, chunk, task):
    """``task(rng)`` on the substream ``key + (chunk,)`` of ``seed``.

    A :class:`SolverError` raised by ``task`` leaves with its replay key:
    ``details`` gains ``seed``, ``stream_key`` and ``chunk`` beside the
    solver's ``draw`` index within the chunk, and the message names them.
    """
    try:
        return task(substream(seed, key + (chunk,)))
    except SolverError as err:
        err.details.update(seed=int(seed), stream_key=list(key), chunk=int(chunk))
        err.args = (f"{err.args[0]} (seed {seed}, stream key {list(key)}, chunk {chunk})",)
        raise


def _count_cells(seed, cells, total, chunk, workers, count):
    """Summed per-chunk counts of each Monte-Carlo cell, in the order of ``cells``.

    ``cells`` holds ``(key, draw)`` pairs.  A cell's ``total`` draws are
    split into fixed chunks of ``chunk``; chunk ``j`` calls ``draw(rng,
    reps)`` on the substream ``key + (j,)`` of ``seed`` and passes the tuple
    it returns to ``count``, which returns an integer or an array of integers.
    Every (cell, chunk) task goes to one :func:`run_chunks` call, so the
    cells share one pool; the sums do not depend on ``workers``.  A cell of
    no draws has no chunks and counts 0.  A :class:`SolverError` names its
    replay key (:func:`keyed_chunk`).  Private, so wrappers installed on
    this module's public functions (as by ``bench/tracer.py``) see that call
    as made from the caller's layer.
    """
    sizes = chunk_sizes(total, chunk)
    tasks = [(key, draw, j) for key, draw in cells for j in range(len(sizes))]

    def worker(t):
        key, draw, j = tasks[t]
        return keyed_chunk(seed, key, j, lambda rng: count(*draw(rng, sizes[j])))

    counts = run_chunks(worker, len(tasks), workers)
    per_cell = len(sizes)
    return [np.sum(counts[i * per_cell:(i + 1) * per_cell], axis=0) for i in range(len(cells))]


def _bartlett(rng, dfs, reps):
    """(reps, p, p) stack of lower-triangular Bartlett factors.

    Each ``A`` has ``sqrt(chi2_{dfs[i]})`` in diagonal entry ``i`` and
    independent N(0, 1) entries below the diagonal.  With ``dfs = df -
    arange(p)``, ``A A' ~ Wishart(I, df)`` (Smith & Hocking 1972, AS 53).
    """
    p = len(dfs)
    bart = np.zeros((reps, p, p))
    # Row-major below the diagonal: row i takes normals i(i-1)/2 to i(i+1)/2.
    normals = rng.standard_normal((reps, p * (p - 1) // 2))
    for i in range(p):
        bart[:, i, :i] = normals[:, i * (i - 1) // 2:i * (i + 1) // 2]
        bart[:, i, i] = np.sqrt(rng.chisquare(dfs[i], size=reps))
    return bart


def sample_mean_chol(rng, theta, chol_sigma, n, reps):
    """Means and scatter factors of ``reps`` normal samples of size ``n``.

    The pair is drawn from its sampling law, not from data: ``xbar ~
    N(theta, Sigma / n)`` independent of ``(n-1) S ~ Wishart(Sigma, n-1)``
    (Anderson 2003, Thm 3.3.2), with ``(n-1) S = c c'`` for ``c = L A`` and
    a Bartlett factor ``A``.  The cost per draw is O(p^3) whatever ``n`` is.

    ``chol_sigma`` is a factor ``L`` with ``L L' = Sigma``: a single (p, p)
    matrix or a (reps, p, p) stack of per-draw factors.  Returns ``(means,
    c)`` of shapes (reps, p) and (reps, p, p); ``c`` is lower-triangular
    whenever ``chol_sigma`` is.
    """
    p = chol_sigma.shape[-1]
    z = rng.standard_normal((reps, p))
    if chol_sigma.ndim == 2:
        means = z @ chol_sigma.T / np.sqrt(n)  # one gemm, not a stack of (p, 1) products
    else:
        means = (chol_sigma @ z[..., None])[..., 0] / np.sqrt(n)
    if theta is not None:
        means = means + theta
    return means, chol_sigma @ _bartlett(rng, n - 1 - np.arange(p), reps)


def factor_cov(c, n):
    """Unbiased covariance ``S = c c' / (n - 1)`` of one factor or a stack.

    The transpose is copied to a contiguous array first: matmul on the
    strided view is several times slower and serializes across threads.
    """
    return c @ np.ascontiguousarray(np.swapaxes(c, -1, -2)) / (n - 1)


def factor_variances(c, n):
    """Diagonal of ``S = c c' / (n - 1)``: the squared row norms of ``c`` over ``n - 1``."""
    return np.einsum("...ij,...ij->...i", c, c) / (n - 1)


def sample_mean_cov(rng, theta, chol_sigma, n, reps):
    """:func:`sample_mean_chol` with the factors multiplied out into ``S``."""
    means, c = sample_mean_chol(rng, theta, chol_sigma, n, reps)
    return means, factor_cov(c, n)


def forward_solve(c, x):
    """``c^{-1} x`` for a lower-triangular ``c``, by forward substitution.

    ``c`` is one (p, p) factor or a (reps, p, p) stack, and may be any
    strided view; ``x`` is a (p, k) or (reps, p, k) block of right-hand
    sides.  Row ``i`` of the solution is one vectorized step over the rows
    before it (none at row 0), with no LAPACK call, so it scales across
    threads.  A lower-triangular ``x`` gives exact zeros above the diagonal.
    """
    w = np.empty(np.broadcast_shapes(c.shape[:-2], x.shape[:-2]) + x.shape[-2:])
    for i in range(x.shape[-2]):
        dot = np.einsum("...j,...jk->...k", c[..., i, :i], w[..., :i, :])
        w[..., i, :] = (x[..., i, :] - dot) / c[..., i, i, None]
    return w


def forward_sq_norm(x, c):
    """``||c^{-1} x||^2`` per row of ``x`` for a lower-triangular ``c``.

    The one-column case of :func:`forward_solve`.  With ``(n-1) S = c c'``,
    the T2 statistic ``n xbar' S^{-1} xbar`` is ``n (n-1) forward_sq_norm(xbar, c)``.
    """
    w = forward_solve(c, x[..., None])[..., 0]
    return np.einsum("ri,ri->r", w, w)


def batch_t2(means, covs, n):
    """``n xbar' S^{-1} xbar`` per draw, through the Cholesky factor of ``S``."""
    return n * forward_sq_norm(means, np.linalg.cholesky(covs))


def orthant_active_set(y, metric):
    """Active-set solve of the orthant projection of each row of ``y``.

    ``y`` has shape (reps, p) and ``metric`` is one (p, p) positive definite
    matrix or a (reps, p, p) stack.  Each draw starts from its sign pattern
    ``y > 0``, solved on entry if all positive.  Each step solves ``B z = y``
    for every pending draw at once, where ``B`` has the metric's columns on
    the complement ``c`` and the identity's on the free set ``a``: then
    ``z_c = M_cc^{-1} y_c`` and ``z_a = y_a - M_ac z_c``, the adjusted mean.
    A free index with ``z <= 0`` or a complement index with ``z > 0``
    violates its sign condition.

    Pivots follow block principal pivoting (Judice & Pires 1994; Kim & Park
    2011).  Each draw keeps the fewest violations it has seen.  A step that
    lowers that count switches every violating index at once and restores
    ``BLOCK_CHANCES`` chances; any other step spends a chance to do the
    same.  With none left, only the lowest violating index switches, which
    is Murty's least-index rule (Murty 1974), until the count falls again.
    Murty's rule terminates for every P-matrix, so for every positive
    definite metric, and the fewest count can fall at most ``p`` times, so
    no draw cycles.  As the backup may take exponentially many steps
    (Fathi 1979), a step cap stays.

    In floating point a degenerate index, whose adjusted mean and
    multiplier are both zero, would flip on rounding noise forever.  So the
    conditions compare ``z``, with complement entries times ``M_jj`` to put
    them in units of ``y``, against ``ACTIVE_SET_RTOL * |y|`` instead of 0,
    and such an index stays in the complement.  Pending draws go through in
    blocks of ``ACTIVE_SET_BLOCK`` to bound the stacked systems.

    Returns ``(free, q_res)``: the free-index mask, on which the adjusted
    mean exceeds that tolerance while the complement multipliers do not,
    and the squared residual norm ``y_c' M_cc^{-1} y_c``.  Raises
    :class:`SolverError` naming the first draw still unresolved after
    ``max(ITER_CAP_PER_DIM * p, ITER_CAP_MIN)`` steps, or the first draw of
    a block whose system is singular, with the ``LinAlgError`` as its cause.
    """
    reps, p = y.shape
    metric = np.broadcast_to(np.asarray(metric, dtype=float), (reps, p, p))
    eye, ones = np.eye(p), np.ones(p)
    free = y > 0.0
    q_res = np.zeros(reps)
    tol = ACTIVE_SET_RTOL * np.sqrt(np.einsum("ri,ri->r", y, y))[:, None]
    cap = max(ITER_CAP_PER_DIM * p, ITER_CAP_MIN)
    pending = np.flatnonzero(~free.all(axis=1))
    for start in range(0, pending.size, ACTIVE_SET_BLOCK):
        todo = pending[start:start + ACTIVE_SET_BLOCK]
        fewest = np.full(todo.size, p + 1.0)
        chances = np.full(todo.size, BLOCK_CHANCES)
        for _ in range(cap):
            if not todo.size:
                break
            mask, y_t = free[todo], y[todo]
            mats = metric[todo]
            np.copyto(mats, eye, where=mask[:, None, :])
            try:
                z = np.linalg.solve(mats, y_t[..., None])[..., 0]
            except np.linalg.LinAlgError as err:
                # slogdet's sign is 0 where the LU that solve shares has a zero pivot.
                bad = todo[np.flatnonzero(np.linalg.slogdet(mats)[0] == 0.0)[0]]
                raise _draw_error("singular active-set system", y, bad) from err
            # The diagonal is 1 on the free set and M_jj on the complement.
            zs = z * np.diagonal(mats, axis1=1, axis2=2)
            viol = (zs > tol[todo]) != mask
            count = viol @ ones  # a sum over the short axis is several times slower
            ok = count == 0
            q_res[todo[ok]] = np.einsum("ri,ri->r", np.where(mask, 0.0, y_t)[ok], z[ok])
            keep = ~ok
            todo, mask, viol, count = todo[keep], mask[keep], viol[keep], count[keep]
            chances = np.where(count < fewest[keep], BLOCK_CHANCES, chances[keep] - 1)
            fewest = np.minimum(fewest[keep], count)
            # Draws out of chances flip only their lowest violating index.
            single = np.flatnonzero(chances < 0)
            lowest = np.argmax(viol[single], axis=1)
            viol[single] = False
            viol[single, lowest] = True
            free[todo] = mask ^ viol
        if todo.size:
            raise _draw_error(f"active-set iteration cap {cap} exceeded", y, todo[0])
    return free, q_res


def _draw_error(message, y, draw):
    """:class:`SolverError` naming ``draw`` and its row of ``y``."""
    draw = int(draw)
    return SolverError(f"{message} at draw {draw}", details={"draw": draw, "y": y[draw].tolist()})


def halfspace_residual(y, variances):
    """Squared residual norm of each row of ``y`` off the halfspace ``x_p >= 0``.

    ``variances`` is the metric's diagonal: (p,) or (reps, p).
    """
    return np.where(y[:, -1] > 0.0, 0.0, y[:, -1] ** 2 / variances[..., -1])


def projection_norm(t2, q_res):
    """Squared projection norm ``t2 - q_res`` of the metric split, clipped at 0."""
    return np.maximum(t2 - q_res, 0.0)


def batch_orthant(means, covs, n):
    """Orthant projection decomposition per draw.

    Returns ``(sizes, q_proj, q_res)`` where ``sizes`` is the active-subset
    cardinality, ``q_proj`` the squared projection norm of ``sqrt(n) xbar``
    and ``q_res`` the squared residual norm.  ``covs`` is one (p, p) matrix
    or a (reps, p, p) stack.
    """
    free, q_res = orthant_active_set(np.sqrt(n) * means, covs)
    return free.sum(axis=1), projection_norm(batch_t2(means, covs, n), q_res), q_res


def batch_halfspace(means, covs, n):
    """Halfspace projection decomposition per draw: ``(q_proj, q_res)``."""
    q_res = halfspace_residual(np.sqrt(n) * means, np.diagonal(covs, axis1=-2, axis2=-1))
    return projection_norm(batch_t2(means, covs, n), q_res), q_res


def batch_fuit_max_t(means, variances, n):
    """Largest coordinatewise one-sided t statistic per draw.

    ``variances`` is the diagonal of ``S``: (p,) or (reps, p).
    """
    return row_max(np.sqrt(n) * means / np.sqrt(variances))


def row_max(a):
    """Largest entry of each row of a (reps, p) array.

    Reduces a transposed copy over its long axis: ``a.max(axis=1)`` is many
    times slower on rows of a few entries.
    """
    return np.ascontiguousarray(a.T).max(axis=0)


def sample_invwishart_chol(rng, scale, df, reps):
    """Lower-triangular factors ``G`` of inverse-Wishart draws ``G G'``.

    With ``P`` the index reversal and a Bartlett factor ``A``, ``A A' ~
    Wishart(I, df)``, the factor ``Q = P A' P`` is lower-triangular and
    ``Q' Q = P A A' P`` is ``Wishart(I, df)`` too.  So ``G = chol(scale)
    Q^{-1}`` gives ``G G' ~ InvWishart(scale, df)``, proper for ``df > p -
    1``.  ``Q`` is a negative-stride view, and ``Q^{-1}`` comes from
    :func:`forward_solve` on the identity: no inverse is formed, and the
    zeros above the diagonal are exact.  Returns the (reps, p, p) stack of
    ``G``.
    """
    p = scale.shape[0]
    q = np.swapaxes(_bartlett(rng, df - np.arange(p), reps), 1, 2)[:, ::-1, ::-1]
    return np.linalg.cholesky(scale) @ forward_solve(q, np.eye(p))


def sample_compound_null(rng, scale, df, n, reps):
    """Means and scatter factors of the compound null of the Bayes calibration.

    Draws ``G`` by :func:`sample_invwishart_chol`, then ``(means, c)`` by
    :func:`sample_mean_chol` with ``chol_sigma = G``, on the same stream.
    Returns arrays of shapes (reps, p) and (reps, p, p).
    """
    return sample_mean_chol(rng, None, sample_invwishart_chol(rng, scale, df, reps), n, reps)
