"""Vectorized Monte-Carlo kernels (internal).

These kernels replicate the scalar classification and statistic code paths
across many draws at once.  Randomness comes from SFC64 substreams, each
seeded by ``SeedSequence(seed, spawn_key=key)`` (:func:`substream`), so a
computation split into fixed-size chunks gives identical results
regardless of how many workers process the chunks.

The power lab's sampler (``standard_draw``, then ``scaled_draw`` by one
covariance factor or by per-draw factors such as the prior draws of
``sample_invwishart_chol``) and statistic kernels hold draws
component-major: means as (p, reps) and scatter factors as (p, p, reps),
so each coordinate is one contiguous vector over the draws and a kernel
is a few elementwise ufuncs over p rows.  The orthant classifier,
``sample_mean_cov``, ``sample_invwishart_chol`` and the ``batch_*``
wrappers are row-major: (reps, p) and (reps, p, p).
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .exceptions import SolverError

# Draws per Monte-Carlo chunk; the chunking fixes the random streams.  Work
# is parallel over chunks, so a run of at most CHUNK draws uses one worker.
CHUNK = 10000
# Chunks handed to one run_chunks call; memory is O(ROUND) whatever the count.
ROUND = 64

# Stream key of each Monte-Carlo consumer.  Chunk j of a cell draws on its
# key + (j,); the last draws on one substream.
POWER_KEY = (2,)  # the power grid: simulate_power, domination_experiment
CONVEXITY_KEY = (3,)  # the midpoint cell of convexity_probe, every region
SIMILARITY_KEY = (4,)  # similarity_probe
WEIGHTS_KEY = (10,)  # Monte-Carlo chi-bar and Bayes weights
CORRELATIONS_KEY = (12, 0)  # random_correlation sigma sources

# Active-set steps allowed per draw: max(ITER_CAP_PER_DIM * p, ITER_CAP_MIN).
ITER_CAP_PER_DIM = 10
ITER_CAP_MIN = 30
# Bytes of (rows, p, p) step systems per block of pending draws: a block
# takes max(1, ACTIVE_SET_BYTES // (8 p^2)) rows, at least 4096 up to p = 12.
ACTIVE_SET_BYTES = 4096 * 8 * 12**2
# Rows per distinct step system from which a residual-free step on a shared
# metric inverts each distinct system once instead of solving every row.
GROUP_MIN_ROWS = 4
# Sign conditions count a value within this fraction of |y| as zero.
ACTIVE_SET_RTOL = 1e-10
# Steps of a block that flip every violating index; later steps flip the lowest.
BLOCK_STEPS = 3
# Projected Gauss-Seidel sweeps that pick a draw's start on a shared metric.
WARM_SWEEPS = 4


def substream(seed, key):
    """Independent generator for one stream of a seeded family.

    ``key`` is an int or tuple of ints; distinct keys seed distinct SFC64
    states, whose 64-bit counter keeps them apart for 2**64 outputs.
    """
    if isinstance(key, (int, np.integer)):
        key = (int(key),)
    else:
        key = tuple(int(k) for k in key)
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.SFC64(seq))


def run_chunks(worker, n_chunks, workers=1):
    """Evaluate ``worker(i)`` for each chunk index, preserving chunk order."""
    if workers <= 1 or n_chunks <= 1:
        return [worker(i) for i in range(n_chunks)]
    with ThreadPoolExecutor(max_workers=int(workers)) as pool:
        return list(pool.map(worker, range(n_chunks)))


def _count_cells(seed, key, count, total, workers):
    """Summed per-chunk counts of the Monte-Carlo cell on stream key ``key``.

    The cell's ``total`` draws are split into fixed chunks of ``CHUNK``;
    chunk ``j`` calls ``count(rng, reps)`` on the substream ``key + (j,)``
    of ``seed``, which draws and returns an integer or an array of
    integers.  The chunks go to :func:`run_chunks` in rounds of ``ROUND``,
    in chunk order, so memory does not grow with ``total`` and the sum
    does not depend on ``workers``.  A cell of no draws has no chunks and
    counts 0.  A :class:`SolverError` leaves with its replay key
    (:func:`_run_chunk`).  Private, so wrappers installed on this module's
    public functions (as by ``bench/tracer.py``) see that call as made from
    the caller's layer.
    """
    n_chunks = -(-total // CHUNK)

    def worker(j):
        return _run_chunk(seed, key, j, count, min(CHUNK, total - j * CHUNK))

    counts = 0
    for start in range(0, n_chunks, ROUND):
        chunks = run_chunks(lambda i: worker(start + i), min(ROUND, n_chunks - start), workers)
        counts = counts + np.sum(chunks, axis=0)
    return counts


def _run_chunk(seed, key, j, count, reps):
    """``count(rng, reps)`` on the substream ``key + (j,)`` of ``seed``.

    A :class:`SolverError` leaves with its replay key: ``details`` gains
    ``seed``, ``stream_key`` and ``chunk`` beside the solver's ``draw``
    index within the chunk, and the message names them.
    """
    try:
        return count(substream(seed, key + (j,)), reps)
    except SolverError as err:
        err.add_context(seed=int(seed), stream_key=list(key), chunk=j)
        raise


def _bartlett(rng, dfs, reps):
    """(reps, p(p+1)/2) row-major lower entries of Bartlett factors ``A``.

    Each ``A`` has ``sqrt(chi2_{dfs[i]})`` in diagonal entry ``i`` and
    independent N(0, 1) entries below the diagonal.  With ``dfs = df -
    arange(p)``, ``A A' ~ Wishart(I, df)`` (Smith & Hocking 1972, AS 53).
    Row ``i`` of ``A`` is entries ``i(i+1)/2`` to ``(i+1)(i+2)/2``, the order
    of ``np.tril_indices``; :func:`tril_stack` lays them out as a stack.
    """
    p = len(dfs)
    # Filled entry-major and returned transposed, so that the gemm operand
    # entries.T of scaled_draw is contiguous.
    entries = np.empty((p * (p + 1) // 2, reps))
    # Row-major below the diagonal: row i takes normals i(i-1)/2 to i(i+1)/2.
    normals = rng.standard_normal((reps, p * (p - 1) // 2))
    for i in range(p):
        start = i * (i + 1) // 2
        entries[start:start + i] = normals[:, start - i:start].T
        entries[start + i] = np.sqrt(rng.chisquare(dfs[i], size=reps))
    return entries.T


def tril_stack(entries, p):
    """(reps, p, p) lower-triangular stack of row-major lower ``entries``."""
    rows, cols = np.tril_indices(p)
    stack = np.zeros((len(entries), p, p))
    stack[:, rows, cols] = entries
    return stack


def factor_map(chol):
    """(p(p+1)/2, p*p) map of Bartlett entries to the flat factor ``chol @ A``.

    Entry ``k`` of ``A`` sits at ``(r, j)`` of ``np.tril_indices``, and
    ``(chol A)_ij`` sums ``chol_ir A_rj``, so row ``k`` holds column ``r`` of
    ``chol`` at the flat positions ``(i, j)``.  A lower-triangular ``chol``
    leaves every column above the diagonal zero, so ``map.T @ entries.T``
    has exact zeros there, and one gemm replaces a stack of (p, p) products.
    """
    p = chol.shape[0]
    rows, cols = np.tril_indices(p)
    fmap = np.zeros((len(rows), p, p))
    fmap[np.arange(len(rows)), :, cols] = chol[:, rows].T
    return fmap.reshape(len(rows), p * p)


def standard_draw(rng, p, n, reps):
    """Standard normals ``z`` (reps, p) and the Bartlett entries of ``Wishart(I, n-1)``.

    ``z`` is drawn first, then :func:`_bartlett`, on the one stream ``rng``.
    """
    return rng.standard_normal((reps, p)), _bartlett(rng, n - 1 - np.arange(p), reps)


def scaled_draw(z, a, chol_sigma, n):
    """Component-major means ``L z / sqrt(n)`` and scatter factors ``c = L A`` of a standard draw.

    Returns means of shape (p, reps) and ``c`` of shape (p, p, reps), so
    each coordinate is one contiguous vector over the draws.  ``chol_sigma``
    is ``L``: one (p, p) factor, which takes one gemm for the means and one
    for ``c`` (:func:`factor_map`), or a (reps, p, p) stack of per-draw
    factors, whose stacked products are transposed.
    """
    p = chol_sigma.shape[-1]
    if chol_sigma.ndim == 2:
        means = chol_sigma @ z.T
        c = (factor_map(chol_sigma).T @ a.T).reshape(p, p, -1)
    else:
        means = np.ascontiguousarray((chol_sigma @ z[..., None])[..., 0].T)
        c = np.ascontiguousarray(np.moveaxis(chol_sigma @ tril_stack(a, p), 0, -1))
    return means / np.sqrt(n), c


def sample_mean_chol(rng, theta, chol_sigma, n, reps):
    """Component-major means and scatter factors of ``reps`` normal samples of size ``n``.

    The pair is drawn from its sampling law, not from data: ``xbar ~
    N(theta, Sigma / n)`` independent of ``(n-1) S ~ Wishart(Sigma, n-1)``
    (Anderson 2003, Thm 3.3.2), with ``(n-1) S = c c'`` for ``c = L A`` and
    a Bartlett factor ``A``.  The cost per draw is O(p^3) whatever ``n`` is.

    ``chol_sigma`` is a factor ``L`` with ``L L' = Sigma``: a single (p, p)
    matrix or a (reps, p, p) stack of per-draw factors.  Returns ``(means,
    c)`` of shapes (p, reps) and (p, p, reps); ``c`` is lower-triangular
    whenever ``chol_sigma`` is.  :func:`standard_draw` then
    :func:`scaled_draw`, so one standard draw can serve several ``L``.
    """
    z, a = standard_draw(rng, chol_sigma.shape[-1], n, reps)
    means, c = scaled_draw(z, a, chol_sigma, n)
    if theta is not None:
        means = means + np.asarray(theta)[:, None]
    return means, c


def factor_major(mats):
    """(p, p, reps) view of a (reps, p, p) stack; a (p, p) matrix becomes (p, p, 1)."""
    return mats[..., None] if mats.ndim == 2 else np.moveaxis(mats, 0, -1)


def factor_cov(c, n):
    """Unbiased covariance ``S = c c' / (n - 1)`` of one factor or a row-major stack.

    The transpose is copied to a contiguous array first: matmul on the
    strided view is several times slower and serializes across threads.
    """
    return c @ np.ascontiguousarray(np.swapaxes(c, -1, -2)) / (n - 1)


def factor_variances(c, n):
    """Diagonal of ``S = c c' / (n - 1)``, (p, reps), for component-major factors ``c``.

    ``c`` has shape (p, p, reps), or (p, p, 1) for one factor shared by
    every draw; the variances are its squared row norms over ``n - 1``.
    """
    return np.square(c).sum(axis=1) / (n - 1)


def sample_mean_cov(rng, theta, chol_sigma, n, reps):
    """Row-major :func:`sample_mean_chol`, the factors multiplied out into ``S``.

    Returns means of shape (reps, p) and covariances of shape (reps, p, p).
    """
    means, c = sample_mean_chol(rng, theta, chol_sigma, n, reps)
    return np.ascontiguousarray(means.T), factor_cov(np.ascontiguousarray(np.moveaxis(c, -1, 0)), n)


def forward_solve(c, x):
    """``c^{-1} x`` for component-major lower-triangular factors ``c``, by forward substitution.

    ``c`` has shape (p, p, ...) with entry ``(i, j)`` of every factor in
    ``c[i, j]``, and may be any strided view; ``x`` has shape (p, ...).
    Their trailing axes broadcast, so a (p, p, 1) factor serves every
    right-hand side.  Row ``i`` of the solution is ``(x_i - sum_{j<i} c_ij
    w_j) / c_ii``: elementwise ufuncs over the trailing axes, with no LAPACK
    call.  Zeros in ``x`` above the diagonal of a lower-triangular right
    side stay exact zeros.
    """
    w = np.empty(x.shape[:1] + np.broadcast_shapes(c.shape[2:], x.shape[1:]))
    for i in range(x.shape[0]):
        dot = 0.0
        for j in range(i):
            dot = dot + c[i, j] * w[j]
        w[i] = (x[i] - dot) / c[i, i]
    return w


def forward_sq_norm(x, c):
    """``||c^{-1} x||^2`` per draw of component-major ``x`` (p, reps) and ``c`` (p, p, reps).

    The one-column case of :func:`forward_solve`.  With ``(n-1) S = c c'``,
    the T2 statistic ``n xbar' S^{-1} xbar`` is ``n (n-1) forward_sq_norm(xbar, c)``.
    """
    return np.square(forward_solve(c, x)).sum(axis=0)


def batch_t2(means, covs, n):
    """``n xbar' S^{-1} xbar`` per draw of row-major ``means`` (reps, p) and ``covs``.

    ``covs`` is one (p, p) matrix or a (reps, p, p) stack; T2 comes
    through the Cholesky factor of ``S``.
    """
    return n * forward_sq_norm(means.T, factor_major(np.linalg.cholesky(covs)))


def orthant_active_set(y, metric, residual=False):
    """Active-set solve of the orthant projection of each row of ``y``.

    ``y`` has shape (reps, p) and ``metric`` is one (p, p) positive definite
    matrix or a (reps, p, p) stack.  A draw with ``y > 0`` is solved on
    entry.  Under a stack any other draw starts from its sign pattern, and
    so does a lone pending draw; under one shared metric two or more start
    from the pattern that :func:`_warm_start`'s projected Gauss-Seidel
    sweeps reach (Cryer 1971).  Each step solves ``B z = y`` for every
    pending draw at once, where ``B`` has the metric's columns on the
    complement ``c`` and the identity's on the free set ``a``: then ``z_c =
    M_cc^{-1} y_c`` and ``z_a = y_a - M_ac z_c``, the adjusted mean.
    A free index with ``z <= 0`` or a complement index with ``z > 0``
    violates its sign condition.  A step builds every draw's ``B`` in one
    ``np.where`` over the draws' patterns and the shared metric, or under a
    stack the pending draws' own metrics, and solves them in one stacked
    ``np.linalg.solve``.

    Residuals are computed only when asked for (``residual=True``).  A call
    that asks for none on a shared metric may instead group a step's rows
    by pattern (:func:`_step_groups`): when the rows number at least
    ``GROUP_MIN_ROWS`` per distinct pattern, it inverts each distinct ``B``
    once in one stacked ``np.linalg.inv`` and applies the gathered inverses
    in one ``einsum``.  At p = 6 and correlation 0.5, 8589 pending rows of
    10 000 draws are one block and take 63 inverted systems and 150 solved
    rows.  Most rows at p >= 16 have patterns of their own, so the rule
    keeps their steps per row.  ``z`` from an inverse differs from the
    solved one in its last bits, so ``free`` may differ from a residual
    call's only in the tie class below: a sign condition within rounding of
    the tolerance.  A stack, or a call that asks for residuals, always solves
    per row, so every ``q_res`` is that of the per-row solve.

    Pivots follow block principal pivoting (Judice & Pires 1994; Kim & Park
    2011) on a fixed schedule: the first ``BLOCK_STEPS`` steps of a block
    switch every violating index at once, and later steps switch only the
    lowest, which is Murty's least-index rule (Murty 1974).  Murty's rule
    terminates from any pattern for every P-matrix, so for every positive
    definite metric.  As it may take exponentially many steps (Fathi 1979),
    a step cap stays.

    In floating point a degenerate index, whose adjusted mean and
    multiplier are both zero, would flip on rounding noise forever.  So the
    conditions compare ``z``, with complement entries times ``M_jj`` to put
    them in units of ``y``, against ``ACTIVE_SET_RTOL * |y|`` instead of 0,
    and such an index stays in the complement.  Pending draws go through in
    blocks whose (rows, p, p) systems fit ``ACTIVE_SET_BYTES`` (4.7 MB): at
    least 4096 rows up to p = 12, 36 at p = 128.  No output depends on the
    block, as a row's pivots depend on the step alone.

    The start only picks the first pattern tried: whatever its start, a
    draw is accepted by the same solve and sign test, and its ``q_res``
    comes from that solve.  So the outputs are those of the sign start,
    unless two patterns both pass the test, which takes a condition within
    the tolerance of zero (probability about 1e-10 per coordinate); the two
    starts may then end on different ones.  On a shared metric the sweeps
    find the final pattern of most draws for a fraction of one solve: at
    p = 6 and 12 with correlation 0.5, 1.02 and 1.05 solves per pending
    draw against 2.0 and 2.5 from the sign start.  Sweeping one draw costs
    about what the step it may save costs, so a lone pending draw, as in a
    single projection, is not swept.  Under a stack each draw would sweep
    its own metric; the power lab's stacks, a few hundred p = 3 rows that
    take about 1.5 solves each from the sign start, gained no time.

    Returns the free-index mask ``free``, on which the adjusted mean
    exceeds that tolerance while the complement multipliers do not; with
    ``residual=True``, ``(free, q_res)`` with the squared residual norm
    ``y_c' M_cc^{-1} y_c``.  Raises :class:`SolverError` naming the first
    draw still unresolved after ``max(ITER_CAP_PER_DIM * p, ITER_CAP_MIN)``
    steps, or the first draw of a block whose system is singular (under
    grouping, the first draw with a singular pattern: the same draw), with
    the ``LinAlgError`` as its cause.
    """
    reps, p = y.shape
    metric = np.asarray(metric, dtype=float)
    eye, ones = np.eye(p), np.ones(p)
    block = max(1, ACTIVE_SET_BYTES // max(8 * p * p, 1))  # p = 0 has no pending rows
    grouped = metric.ndim == 2 and not residual
    free = y > 0.0
    pending = np.flatnonzero(free @ ones < p)
    if metric.ndim == 2 and pending.size > 1:
        free[pending] = _warm_start(y[pending], metric)
    q_res = np.zeros(reps)
    tol = ACTIVE_SET_RTOL * np.sqrt(np.einsum("ri,ri->r", y, y))[:, None]
    cap = max(ITER_CAP_PER_DIM * p, ITER_CAP_MIN)
    for start in range(0, pending.size, block):
        todo = pending[start:start + block]
        for step in range(cap):
            if not todo.size:
                break
            mask, y_t = free[todo], y[todo]
            groups = _step_groups(mask) if grouped else None
            firsts, rows = groups or (slice(None), slice(None))  # None: each row its own
            mats = np.where(mask[firsts][:, None, :], eye, metric if metric.ndim == 2 else metric[todo])
            try:
                if groups is None:
                    z = np.linalg.solve(mats, y_t[..., None])[..., 0]
                else:
                    z = np.einsum("rij,rj->ri", np.linalg.inv(mats)[rows], y_t)
            except np.linalg.LinAlgError as err:
                # slogdet's sign is 0 where the LU that solve and inv factor has a zero pivot.
                bad = todo[np.flatnonzero((np.linalg.slogdet(mats)[0] == 0.0)[rows])[0]]
                raise _draw_error("singular active-set system", y, bad) from err
            # The diagonal is 1 on the free set and M_jj on the complement.
            zs = z * np.diagonal(mats, axis1=1, axis2=2)[rows]
            viol = (zs > tol[todo]) != mask
            ok = viol @ ones == 0  # a sum over the short axis is several times slower
            if residual:
                q_res[todo[ok]] = np.einsum("ri,ri->r", np.where(mask, 0.0, y_t), z)[ok]
            keep = ~ok
            todo, mask, viol = todo[keep], mask[keep], viol[keep]
            if step >= BLOCK_STEPS:  # Murty's rule: the lowest violating index alone
                viol = np.arange(p) == np.argmax(viol, axis=1)[:, None]
            free[todo] = mask ^ viol
        if todo.size:
            raise _draw_error(f"active-set iteration cap {cap} exceeded", y, todo[0])
    return (free, q_res) if residual else free


def _step_groups(mask):
    """``(firsts, rows)`` grouping the rows of a step's ``mask`` by pattern.

    ``firsts`` indexes one row of each distinct pattern, in ``np.lexsort``
    order of the mask's columns packed eight to a byte, and ``rows[i]`` is
    the place of row ``i``'s pattern in ``firsts``.  ``None``, every row
    its own system, unless the rows number at least ``GROUP_MIN_ROWS`` per
    distinct pattern.
    """
    n = len(mask)
    if n < GROUP_MIN_ROWS:
        return None
    packed = np.packbits(mask, axis=1)  # an eighth of the sort keys
    order = np.lexsort(packed.T)
    ordered = packed[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    if np.count_nonzero(first) * GROUP_MIN_ROWS > n:
        return None
    rows = np.empty(n, dtype=np.intp)
    rows[order] = np.cumsum(first) - 1
    return order[first], rows


def _warm_start(y, metric):
    """Start pattern of each row of ``y`` after ``WARM_SWEEPS`` projected Gauss-Seidel sweeps.

    The orthant projection of ``y`` in the metric ``M`` solves the linear
    complementarity problem ``w = y + M mu >= 0``, ``mu >= 0``, ``w' mu =
    0``: ``w`` is the projection and ``mu`` the multipliers.  Starting from
    ``mu = 0``, each sweep sets ``mu_j <- max(mu_j - w_j / M_jj, 0)`` for
    ``j = 0, ..., p - 1`` with ``w_j`` at the current ``mu`` (Cryer 1971),
    for every draw at once: ``mu`` is component-major, (p, reps).  The
    sweeps run on ``nu = -mu`` with the rows of ``M`` over their diagonal,
    ``nu_j <- min(y_j / M_jj + (e_j - M_j / M_jj) nu, 0)``: one product, one
    sum and one clip per index.  Returns ``(mu == 0) & (w > 0)``, (reps,
    p); with no sweeps that is ``y > 0``.  At correlation 0.5 the kernel
    then takes 1.02 solves per pending draw at p = 6 and 1.05 at p = 12
    after the four sweeps of ``WARM_SWEEPS``, against 1.18 and 1.36 after two.
    """
    y = np.ascontiguousarray(y.T)
    diag = np.diagonal(metric)[:, None]
    scaled, step = y / diag, np.eye(len(y)) - metric / diag
    nu = np.zeros_like(y)
    for _ in range(WARM_SWEEPS):
        for j in range(len(y)):
            np.minimum(scaled[j] + step[j] @ nu, 0.0, out=nu[j])
    return ((nu == 0.0) & (y - metric @ nu > 0.0)).T


def _draw_error(message, y, draw):
    """:class:`SolverError` naming ``draw`` and its row of ``y``."""
    draw = int(draw)
    return SolverError(f"{message} at draw {draw}", details={"draw": draw, "y": y[draw].tolist()})


def halfspace_residual(y, variances):
    """Squared residual norm of each draw of ``y`` off the halfspace ``x_p >= 0``.

    Component-major: ``y`` has shape (p, reps) and ``variances``, the
    metric's diagonal, (p, reps) or (p, 1).
    """
    return np.where(y[-1] > 0.0, 0.0, y[-1] ** 2 / variances[-1])


def projection_norm(t2, q_res):
    """Squared projection norm ``t2 - q_res`` of the metric split, clipped at 0."""
    return np.maximum(t2 - q_res, 0.0)


def batch_orthant(means, covs, n):
    """Orthant projection decomposition per draw.

    Returns ``(sizes, q_proj, q_res)`` where ``sizes`` is the active-subset
    cardinality, ``q_proj`` the squared projection norm of ``sqrt(n) xbar``
    and ``q_res`` the squared residual norm.  ``means`` is row-major (reps,
    p), and ``covs`` one (p, p) matrix or a (reps, p, p) stack.
    """
    free, q_res = orthant_active_set(np.sqrt(n) * means, covs, residual=True)
    return free.sum(axis=1), projection_norm(batch_t2(means, covs, n), q_res), q_res


def batch_halfspace(means, covs, n):
    """Halfspace projection decomposition per draw of row-major ``means``: ``(q_proj, q_res)``."""
    variances = np.diagonal(covs, axis1=-2, axis2=-1).T
    q_res = halfspace_residual(np.sqrt(n) * means.T, variances)
    return projection_norm(batch_t2(means, covs, n), q_res), q_res


def sample_invwishart_chol(rng, scale, df, reps):
    """Lower-triangular factors ``G`` of inverse-Wishart draws ``G G'``.

    With ``P`` the index reversal and a Bartlett factor ``A``, ``A A' ~
    Wishart(I, df)``, the factor ``Q = P A' P`` is lower-triangular and
    ``Q' Q = P A A' P`` is ``Wishart(I, df)`` too.  So ``G = chol(scale)
    Q^{-1}`` gives ``G G' ~ InvWishart(scale, df)``, proper for ``df > p -
    1``.  ``Q`` is a negative-stride view, and ``Q^{-1}`` comes from
    :func:`forward_solve` on the identity, through the component-major
    view of ``Q``: no inverse is formed, and the zeros above the diagonal
    are exact.  Returns the row-major (reps, p, p) stack of ``G``.
    """
    p = scale.shape[0]
    q = np.swapaxes(tril_stack(_bartlett(rng, df - np.arange(p), reps), p), 1, 2)[:, ::-1, ::-1]
    q_inv = forward_solve(factor_major(q), np.eye(p)[..., None])
    return np.linalg.cholesky(scale) @ np.ascontiguousarray(np.moveaxis(q_inv, -1, 0))
