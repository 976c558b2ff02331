"""Relational and kernelized SOM: prototypes as convex combinations of observations.

Each prototype is a row alpha_k of a K x N coefficient matrix with
sum_i alpha_k,i = 1. Point-to-prototype dissimilarities never touch explicit
coordinates:

  relational (matrix D):  (D alpha_k)_i - 1/2 alpha_k^T D alpha_k
  kernelized (matrix K):  K_ii - 2 (K alpha_k)_i + alpha_k^T K alpha_k

For D_ij = K_ii + K_jj - 2 K_ij and unit row sums the two coincide; the test
suite exploits this as a cross-check, so the two distance routines are kept
as genuinely separate code paths.

Relational distances may be negative when D is non-Euclidean (the implicit
embedding is pseudo-Euclidean); they still participate in argmin and a count
of negative evaluations is carried in the result.

Neither engine forms A M (M = D or K), an O(K N^2) product, at every step.
After a batch update every coefficient row is a_k = h[k, c] / n_k with
n_k = sum_l h_kl |C_l|, so A M = (h S) / n with the per-unit row sums
S[l] = sum_{i in C_l} M_i (unit_row_sums), and the quadratic terms
a_k^T M a_k = sum_i a_ki (A M)_ki follow in O(N K): one pass over M plus
O(N K^2) per iteration, O(N^2 + N K^2) instead of O(N^2 K) (Conan-Guez,
Rossi & El Golli, "Fast algorithm and implementation of dissimilarity
self-organizing maps", Neural Networks 19, 2006); see _train_batch. Few
points change unit late in a run, so BlockSums carries S from one
iteration to the next: when m points moved it adds and subtracts their m
rows, and the iteration costs O(m N + N K^2) instead.

An online update blends each coefficient row with a one-hot vector, so that
engine keeps the quadratic terms up to date in O(K) per presentation and
reads the cross terms (M a_k)_i of the presented point as one mat-vec
A M[i], O(K N); it carries no G = A M through the epoch, only the landmark
view carries U = A F, and both are recomputed exactly at each epoch end
(see _train_online). The naive engine that recomputes A M at every
presentation is kept as _train_online_reference: the tests compare against
it, and the complexity benchmark times it. relational_distances and
kernel_distances keep the dense product.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .lattice import Lattice, Schedule
from .vectorsom import EMPTY_UNIT_WEIGHT, map_energy

COEFF_SUM_TOL = 1e-12


@dataclass
class CoefficientSOMResult:
    coefficients: np.ndarray  # K x N, rows on the probability simplex
    assignments: np.ndarray  # N, best unit per point under final coefficients
    assignment_trace: np.ndarray  # T x N
    energy_trace: np.ndarray  # T
    lattice: Lattice
    final_sigma: float  # neighborhood radius of the last recorded iteration or epoch
    stopped_early: bool = False
    negative_distances: int = 0  # distance evaluations < 0 over the whole run
    empty_unit_events: int = 0  # batch updates skipped for lack of neighborhood mass
    phase_ns: dict = field(default_factory=dict)  # wall time per phase
    # online trainers: largest epoch-end relative gap between the incremental
    # and the exact state, max|X_incr - X_exact| / max|X_exact| over X = q on
    # a dense matrix (no G is carried) and X = U, q on landmarks
    # batch trainers on a dense matrix: the same gap between the carried block
    # sums and the fresh pass that gives the final distances (see BlockSums)
    resync_drift_max: float | None = None
    # N x K distances under the final coefficients, as the trainer computed them
    distances: np.ndarray | None = None
    # batch trainers on a dense matrix: {"fresh": passes over M, "delta": carried updates}
    block_sum_passes: dict | None = None


def _check_coefficients(alpha: np.ndarray) -> None:
    s = float(np.sum(alpha))
    if abs(s - 1.0) > COEFF_SUM_TOL:
        raise ValueError(f"coefficient sum violation: sum(alpha) = {s!r}, expected 1")


def relational_distances(d_values: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """N x K matrix (D alpha_k)_i - 1/2 alpha_k^T D alpha_k. One N^2 K product.

    Computed as (alpha D) rather than (D alpha^T): same values for a
    symmetric D, but the wide product keeps every operand stride-1 and runs
    about twice as fast as the transposed form for K << N.
    """
    g = coefficients @ d_values
    quad = np.einsum("kn,kn->k", coefficients, g)
    return np.ascontiguousarray((g - 0.5 * quad[:, None]).T)


def kernel_distances(k_values: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """N x K matrix K_ii - 2 (K alpha_k)_i + alpha_k^T K alpha_k."""
    g = coefficients @ k_values
    quad = np.einsum("kn,kn->k", coefficients, g)
    out = quad[:, None] - 2.0 * g + np.diag(k_values)[None, :]
    return np.ascontiguousarray(out.T)


def relational_distance(d_values: np.ndarray, alpha: np.ndarray, i: int) -> float:
    """Scalar single-point form, kept independent of the vectorized path."""
    _check_coefficients(alpha)
    return float(d_values[i] @ alpha - 0.5 * (alpha @ d_values @ alpha))


def kernel_distance(k_values: np.ndarray, alpha: np.ndarray, i: int) -> float:
    """Scalar single-point form of the kernelized distance."""
    _check_coefficients(alpha)
    return float(k_values[i, i] - 2.0 * (k_values[i] @ alpha) + alpha @ k_values @ alpha)


def _drift(incr: np.ndarray, exact: np.ndarray) -> float:
    """max|incr - exact| / max|exact|, 0 where exact is all zero."""
    scale = float(np.max(np.abs(exact), initial=0.0))
    return float(np.max(np.abs(incr - exact))) / scale if scale > 0.0 else 0.0


UNIT_SUM_ROWS = 32  # rows unit_row_sums gathers at a time


def unit_row_sums(m_values: np.ndarray, assignments: np.ndarray, n_units: int) -> np.ndarray:
    """n_units x w matrix S whose row l sums the rows of m_values assigned to l.

    One pass over m_values. Rows are gathered unit by unit, at most
    UNIT_SUM_ROWS at a time, so the pass streams even when m_values is far
    larger than cache and never copies it whole; each unit's rows are added
    in index order. A unit with no rows gets a zero row.
    """
    s = np.zeros((n_units, m_values.shape[1]))
    for unit in np.flatnonzero(np.bincount(assignments, minlength=n_units)):
        rows = np.flatnonzero(assignments == unit)
        for start in range(0, rows.size, UNIT_SUM_ROWS):
            block = m_values[rows[start:start + UNIT_SUM_ROWS]]
            if start:
                block[0] += s[unit]
            s[unit] = block.sum(axis=0)
    return s


CARRY_MOVED_SHARE = 0.25  # BlockSums carries its sums while fewer than this share of points moved


class BlockSums:
    """unit_row_sums(m_values, c, n_groups) for the successive assignments c
    of a batch run, carried from one call to the next.

    A call on which fewer than CARRY_MOVED_SHARE of the points changed group,
    and the number of groups did not change, adds each moved row to its new
    group's sum and subtracts it from its old group's: O(m w) for m moved
    rows, whatever the number of groups, against O(N w) for a fresh pass
    over all N rows; with w = N and the O(N K^2) that follows, a batch
    iteration costs O(N^2 + N K^2) on a fresh pass and O(m N + N K^2) on a
    carried one. Every other call, and every call with fresh=True, makes a
    fresh pass. Each column of the sums sees the same sequence of
    operations, so identical columns of m_values keep bitwise-equal sums
    either way; a group that loses its last row gets an exact zero row.

    passes counts the calls of each kind. drift is the largest relative gap
    max|carried - fresh| / max|fresh| seen at a call with fresh=True (0 when
    the sums would have been fresh anyway), or None before such a call.
    """

    def __init__(self, m_values: np.ndarray):
        self.m_values = m_values
        self.c: np.ndarray | None = None
        self.s: np.ndarray | None = None
        self.passes = {"fresh": 0, "delta": 0}
        self.drift: float | None = None

    def __call__(self, c: np.ndarray, n_groups: int, fresh: bool = False) -> np.ndarray:
        """The n_groups x w sums for assignments c; callers must not write to them."""
        carried = self._carry(c, n_groups)
        if fresh or not carried:
            s = unit_row_sums(self.m_values, c, n_groups)
            if fresh:
                gap = _drift(self.s, s) if carried else 0.0
                self.drift = gap if self.drift is None else max(self.drift, gap)
            self.s = s
        self.passes["delta" if carried and not fresh else "fresh"] += 1
        self.c = c.copy()
        return self.s

    def _carry(self, c: np.ndarray, n_groups: int) -> bool:
        """Move self.s to the sums for c by the moved rows, if few moved."""
        if self.c is None or self.s.shape[0] != n_groups:
            return False
        moved = np.flatnonzero(c != self.c)
        if moved.size >= CARRY_MOVED_SHARE * c.size:
            return False
        old, new = self.c[moved], c[moved]
        # one row at a time: cheaper than gathering the moved rows by group
        for i, to, fro in zip(moved.tolist(), new.tolist(), old.tolist()):
            row = self.m_values[i]
            self.s[to] += row
            self.s[fro] -= row
        left = np.flatnonzero(np.bincount(old, minlength=n_groups))
        self.s[left[np.bincount(c, minlength=n_groups)[left] == 0]] = 0.0
        return True


def _init_coefficients(
    n: int, n_units: int, rng: np.random.Generator, init_mode: str
) -> np.ndarray:
    if init_mode == "uniform":
        return np.full((n_units, n), 1.0 / n)
    if init_mode != "indicator":
        raise ValueError(f"unknown init mode {init_mode!r}")
    # one-hot rows on randomly drawn points: same draw as the vector trainer,
    # and the implied prototype is exactly that data point
    if n_units > n:
        raise ValueError(f"cannot seed {n_units} units from {n} points without replacement")
    idx = rng.choice(n, size=n_units, replace=False)
    a = np.zeros((n_units, n))
    a[np.arange(n_units), idx] = 1.0
    return a


@dataclass
class _BatchRun:
    """What _batch_loop recorded; state is the last value update returned."""

    state: object
    assignments: np.ndarray  # N, under the final state
    trace: np.ndarray  # T x N
    energies: np.ndarray  # T
    stopped: bool
    final_sigma: float
    events: int  # sum of the counts update returned
    negative: int  # distance entries < 0, the final evaluation included
    phase_ns: dict
    distances: np.ndarray  # N x K, under the final state


def _batch_loop(
    lattice: Lattice,
    schedule: Schedule,
    stop_on_stable_assignment: bool,
    init,
    distances,
    update,
) -> _BatchRun:
    """Batch engine of the coefficient and median trainers.

    Each iteration assigns every point to its nearest unit under
    distances(state, False) (N x K), records the assignments and the map
    energy, stops if the assignments repeat, and otherwise moves to the state
    of update(state, assignments, h) -> (state, count of events). The state
    starts as init(rng), called with the schedule's seeded generator after
    its sigmas are validated. The evaluation after the loop, which gives the
    final assignments and distances, is distances(state, True).
    """
    sigmas = schedule.sigmas(lattice)
    state = init(np.random.default_rng(schedule.seed))

    trace: list[np.ndarray] = []
    energies: list[float] = []
    events = 0
    negative = 0
    assign_ns = 0
    update_ns = 0
    stopped = False
    for t in range(schedule.steps):
        h = lattice.neighborhood(sigmas[t])
        t0 = time.perf_counter_ns()
        dist = distances(state, False)
        c = np.argmin(dist, axis=1)
        assign_ns += time.perf_counter_ns() - t0
        negative += int(np.count_nonzero(dist < 0.0))
        trace.append(c)
        energies.append(map_energy(dist, c, h))
        if stop_on_stable_assignment and t > 0 and np.array_equal(c, trace[-2]):
            stopped = True
            break
        t0 = time.perf_counter_ns()
        state, count = update(state, c, h)
        update_ns += time.perf_counter_ns() - t0
        events += count

    t0 = time.perf_counter_ns()
    dist = distances(state, True)
    final = np.argmin(dist, axis=1)
    assign_ns += time.perf_counter_ns() - t0
    negative += int(np.count_nonzero(dist < 0.0))
    return _BatchRun(
        state, final, np.asarray(trace), np.asarray(energies), stopped, float(sigmas[t]),
        events, negative, {"assignment": assign_ns, "update": update_ns}, dist,
    )


def _coefficient_update(a: np.ndarray, c: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, int]:
    """Neighborhood-weighted indicator means -> (coefficients, units skipped)."""
    w = h[:, c]
    denom = w.sum(axis=1)
    alive = denom > EMPTY_UNIT_WEIGHT
    new_a = a.copy()
    new_a[alive] = w[alive] / denom[alive, None]
    return new_a, int(np.count_nonzero(~alive))


@dataclass
class _Coefficients:
    """State of the batch coefficient trainers: the coefficient rows, kept as
    the update that formed them.

    A unit outside kept has the row _coefficient_update(., c, h) gives it; a
    unit in kept has rows[k], its initial row or the row it had when an update
    skipped it as empty. Before the first update c and h are None and every
    unit is kept.
    """

    rows: np.ndarray  # K x N, read where kept
    kept: np.ndarray  # K bools
    c: np.ndarray | None = None
    h: np.ndarray | None = None

    def form(self) -> np.ndarray:
        """The K x N coefficient matrix after the first update, in O(K N)."""
        return _coefficient_update(self.rows, self.c, self.h)[0]


def _train_batch(
    matrix,
    lattice: Lattice,
    schedule: Schedule,
    stop_on_stable_assignment: bool,
) -> CoefficientSOMResult:
    """Batch engine on coefficients, for a matrix view as _train_online takes.

    Iteration t costs one pass over matrix.rows plus O(N K^2): the products
    G = A R and the quadratic terms come from matrix.block on the per-unit
    row sums of R, and the coefficients are formed once, at the end. A dense
    view carries those sums across iterations (BlockSums), so an iteration
    in which few points moved reads only their rows; the final distances
    come from a fresh pass. Every unit starts on a data point (indicator
    init), so the first iteration reads R at the seeds. The dense
    matrix.dense serves only the rows of units that an update skipped as
    empty.
    """
    n, k = matrix.rows.shape[0], lattice.n_units

    def init(rng):
        return _Coefficients(_init_coefficients(n, k, rng, "indicator"), np.ones(k, dtype=bool))

    def block_distances(c, weights, points=slice(None), fresh=False):
        g, q = matrix.block(c, weights, points, fresh)
        return _distances(matrix, matrix.cross_all(g), q[:, None], matrix.diag[None, :]).T

    def distances(st: _Coefficients, last: bool) -> np.ndarray:
        if st.c is None:
            return block_distances(np.arange(k), np.eye(k), st.rows.argmax(axis=1))
        dist = np.empty((n, k))
        formed = ~st.kept
        if formed.any():
            h = st.h[formed]
            dist[:, formed] = block_distances(
                st.c, h / (h @ np.bincount(st.c, minlength=k))[:, None], fresh=last)
        if st.kept.any():
            dist[:, st.kept] = matrix.dense(st.rows[st.kept])
        return dist

    def update(st: _Coefficients, c: np.ndarray, h: np.ndarray):
        # the units _coefficient_update skips: a unit with points has weight >= h_kk = 1
        empty = np.bincount(c, minlength=k) == 0
        skipped = np.zeros(k, dtype=bool)
        skipped[empty] = h[empty][:, c].sum(axis=1) <= EMPTY_UNIT_WEIGHT
        newly = skipped & ~st.kept
        if newly.any():
            st.rows[newly] = st.form()[newly]
        return _Coefficients(st.rows, skipped, c, h), int(np.count_nonzero(skipped))

    run = _batch_loop(lattice, schedule, stop_on_stable_assignment, init, distances, update)
    sums = matrix.sums
    return CoefficientSOMResult(
        run.state.form(), run.assignments, run.trace, run.energies, lattice, run.final_sigma,
        run.stopped, run.negative, run.events, run.phase_ns, distances=run.distances,
        resync_drift_max=None if sums is None else sums.drift,
        block_sum_passes=None if sums is None else dict(sums.passes),
    )


def train_batch_relational(
    dismatrix,
    lattice: Lattice,
    schedule: Schedule,
    stop_on_stable_assignment: bool = True,
) -> CoefficientSOMResult:
    """Batch SOM on a dissimilarity matrix.

    Stops once the assignment repeats (pass stop_on_stable_assignment=False
    to force the full schedule.steps iterations, e.g. for step-by-step
    comparison against the vector trainer, which never stops early).
    """
    return _train_batch(_DenseState(dismatrix.values, kernel_form=False), lattice, schedule,
                        stop_on_stable_assignment)


def train_batch_kernel(
    kernel,
    lattice: Lattice,
    schedule: Schedule,
    stop_on_stable_assignment: bool = True,
) -> CoefficientSOMResult:
    """Batch SOM on a kernel matrix (distances via the kernel trick)."""
    return _train_batch(_DenseState(kernel.values, kernel_form=True), lattice, schedule,
                        stop_on_stable_assignment)


def _distances(matrix, x, q, m_ii):
    """Point-to-unit distances from the cross terms x = (M a_k)_i, the
    quadratic terms q and the diagonal entries m_ii of a matrix view."""
    return m_ii - 2.0 * x + q if matrix.kernel_form else x - 0.5 * q


class _DenseState:
    """Engine view of a dense N x N matrix M (D or K), for _train_online and
    _train_batch.

    G = A M holds one row per unit, and column i of G is the cross term
    (M a_k)_i. A batch state builds G from per-unit sums of the rows, which
    sums carries across the calls for all points. An online epoch carries no
    G: a presentation of point i reads its cross terms as A M[i], one
    read-only mat-vec, where blending M[i] into a carried G would take two
    read-write sweeps over K x N numbers.
    """

    def __init__(self, m_values: np.ndarray, kernel_form: bool):
        self.rows = m_values
        self.diag = np.diag(m_values)
        self.kernel_form = kernel_form
        self.sums = BlockSums(m_values)

    def exact(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G = A M and the quadratic terms q_k = a_k^T M a_k."""
        g = a @ self.rows
        return g, np.einsum("kn,kn->k", a, g)

    def block(self, c: np.ndarray, weights: np.ndarray, points=slice(None), fresh=False):
        """exact() for the rows a_k with a_k[points[j]] = weights[k, c[j]] and zero
        elsewhere, from the per-group row sums of M: O(N^2 + N K L) for L groups.

        points is an index array or slice(None), all points, whose sums come
        from self.sums: O(m N + N K L) when m points moved since the last
        call. fresh=True makes that a fresh pass."""
        n_groups = weights.shape[1]
        if isinstance(points, slice):
            s = self.sums(c, n_groups, fresh)
        else:
            s = unit_row_sums(self.rows[points], c, n_groups)
        g = weights @ s
        return g, np.einsum("kn,kn->k", weights[:, c], g[:, points])

    def dense(self, a: np.ndarray) -> np.ndarray:
        """N x K distances by the dense product."""
        return (kernel_distances if self.kernel_form else relational_distances)(self.rows, a)

    def resync(self, carried, g: np.ndarray) -> tuple[None, float]:
        """What an online epoch carries, from the exact G, and its drift:
        nothing, since cross reads the coefficients."""
        return None, 0.0

    def cross(self, carried, a: np.ndarray, i: int) -> np.ndarray:
        """The cross terms (M a_k)_i of point i: one mat-vec, O(K N)."""
        return a @ self.rows[i]

    def blend(self, carried, keep: np.ndarray, pull: np.ndarray, i: int) -> None:
        """Nothing carried, nothing to blend."""

    def cross_all(self, g: np.ndarray) -> np.ndarray:
        return g


def _train_online(
    state,
    lattice: Lattice,
    schedule: Schedule,
    init_mode: str = "indicator",
) -> CoefficientSOMResult:
    """Incremental stochastic engine: O(K N) per presentation.

    The update a_k <- (1 - p_k) a_k + p_k e_i is a convex blend with a one-hot
    vector, so the quadratic terms q follow it exactly:

        q_k <- (1 - p_k)^2 q_k + 2 p_k (1 - p_k) x_k + p_k^2 M_ii

    with the cross terms x_k = (M a_k)_i read before the update (Olteanu &
    Villa-Vialaneix, Neurocomputing 147, 2015). The view serves x from the
    state it carries through the epoch, which it blends after each update:
    a dense view carries nothing and reads x as one mat-vec A M[i], a
    landmark view carries U = A F and blends F[i] into it. The distance of
    point i to unit k is x_k - q_k / 2 (relational form) or, with
    state.kernel_form, M_ii - 2 x_k + q_k. Every epoch end recomputes q and
    the carried state exactly from the coefficients, which clears the
    rounding drift of the blends; the largest relative drift seen is
    returned as resync_drift_max. The coefficient arithmetic is that of
    _train_online_reference, so the coefficients are bit-identical to its
    whenever the BMUs agree. Each epoch draws N presentations, one pass in
    expectation.
    """
    n = state.rows.shape[0]
    sigmas = schedule.sigmas(lattice)
    epsilons = schedule.epsilons()
    rng = np.random.default_rng(schedule.seed)
    a = _init_coefficients(n, lattice.n_units, rng, init_mode)

    trace = np.empty((schedule.steps, n), dtype=np.int64)
    energies = np.empty(schedule.steps)
    negative = 0
    assign_ns = 0
    update_ns = 0
    g, q = state.exact(a)
    carried, drift = state.resync(None, g)
    cross, blend, diag = state.cross, state.blend, state.diag
    clock = time.perf_counter_ns
    for e in range(schedule.steps):
        h = lattice.neighborhood(sigmas[e])
        # row c of each is the product that a presentation won by unit c
        # forms from pull = eps * h[:, c], bit for bit
        pull = epsilons[e] * h.T
        keep = 1.0 - pull
        winners = list(zip(pull, keep, keep * keep, 2.0 * pull * keep, pull * pull))
        for i in rng.integers(0, n, size=n).tolist():
            t0 = clock()
            x = cross(carried, a, i)
            m_ii = diag[i]
            d = _distances(state, x, q, m_ii)
            c = int(d.argmin())
            t1 = clock()
            pull_c, keep_c, keep2, pull_keep2, pull2 = winners[c]
            a *= keep_c[:, None]
            a[:, i] += pull_c
            q = keep2 * q + pull_keep2 * x + pull2 * m_ii
            blend(carried, keep_c, pull_c, i)
            update_ns += clock() - t1
            assign_ns += t1 - t0
            if not d[c] >= 0.0:  # argmin gives the smallest entry or the first NaN
                negative += int(np.count_nonzero(d < 0.0))
        g, q_exact = state.exact(a)
        carried, gap = state.resync(carried, g)
        drift = max(drift, gap, _drift(q, q_exact))
        q = q_exact
        dists = _distances(state, state.cross_all(g), q[:, None], state.diag[None, :]).T
        negative += int(np.count_nonzero(dists < 0.0))
        trace[e] = np.argmin(dists, axis=1)
        energies[e] = map_energy(dists, trace[e], h)

    return CoefficientSOMResult(
        a, trace[-1].copy(), trace, energies, lattice, float(sigmas[-1]), False, negative, 0,
        {"assignment": assign_ns, "update": update_ns}, drift, dists,
    )


def _train_online_reference(
    n: int,
    row_dist,
    matrix_dist,
    lattice: Lattice,
    schedule: Schedule,
    init_mode: str = "indicator",
    presentations_per_epoch: int | None = None,
) -> CoefficientSOMResult:
    """Naive stochastic engine; row_dist(alphas, i) -> K distances for point i.

    row_dist carries the paper's per-presentation cost: every quadratic
    term is recomputed in full after each coefficient change, so one epoch
    costs about N batch iterations. Acceptance criterion 9 measures this
    cost through bench._slice_fn, and the tests hold the incremental engine
    to its BMUs and coefficients.
    """
    draws = n if presentations_per_epoch is None else int(presentations_per_epoch)
    if draws < 1:
        raise ValueError("presentations_per_epoch must be >= 1")
    sigmas = schedule.sigmas(lattice)
    epsilons = schedule.epsilons()
    rng = np.random.default_rng(schedule.seed)
    a = _init_coefficients(n, lattice.n_units, rng, init_mode)

    trace = np.empty((schedule.steps, n), dtype=np.int64)
    energies = np.empty(schedule.steps)
    negative = 0
    assign_ns = 0
    update_ns = 0
    for e in range(schedule.steps):
        h = lattice.neighborhood(sigmas[e])
        eps = epsilons[e]
        order = rng.integers(0, n, size=draws)
        for i in order:
            t0 = time.perf_counter_ns()
            d = row_dist(a, i)
            c = int(np.argmin(d))
            t1 = time.perf_counter_ns()
            pull = eps * h[:, c]
            a *= (1.0 - pull)[:, None]
            a[:, i] += pull
            update_ns += time.perf_counter_ns() - t1
            assign_ns += t1 - t0
            negative += int(np.count_nonzero(d < 0.0))
        dist = matrix_dist(a)
        negative += int(np.count_nonzero(dist < 0.0))
        trace[e] = np.argmin(dist, axis=1)
        energies[e] = map_energy(dist, trace[e], h)

    final = np.argmin(matrix_dist(a), axis=1)
    return CoefficientSOMResult(
        a, final, trace, energies, lattice, float(sigmas[-1]), False, negative, 0,
        {"assignment": assign_ns, "update": update_ns},
    )


def _relational_row_dist(d_values: np.ndarray):
    def row(a: np.ndarray, i: int) -> np.ndarray:
        g = a @ d_values
        quad = np.einsum("kn,kn->k", a, g)
        return g[:, i] - 0.5 * quad

    return row


def train_online_relational(
    dismatrix,
    lattice: Lattice,
    schedule: Schedule,
    init_mode: str = "indicator",
) -> CoefficientSOMResult:
    """Stochastic SOM on a dissimilarity matrix; always runs schedule.steps
    epochs of N presentations each.

    The update alpha_k += eps h(k, c) (e_i - alpha_k) is a convex blend with a
    one-hot vector (eps <= 1 is enforced by the schedule), so unit row sums
    and the [0, 1] entry range survive any number of presentations.
    """
    return _train_online(_DenseState(dismatrix.values, kernel_form=False), lattice, schedule,
                         init_mode)


def train_online_kernel(
    kernel,
    lattice: Lattice,
    schedule: Schedule,
    init_mode: str = "indicator",
) -> CoefficientSOMResult:
    """Stochastic SOM on a kernel matrix."""
    return _train_online(_DenseState(kernel.values, kernel_form=True), lattice, schedule,
                         init_mode)
