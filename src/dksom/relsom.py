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

The batch trainers recompute A M (M = D or K), an O(K N^2) product, once per
iteration. The online trainers do not: an online update blends each
coefficient row with a one-hot vector, so the engine keeps G = A M and the
quadratic terms up to date in O(K N) per presentation and recomputes them
exactly at each epoch end (see _train_online). The naive engine that
recomputes A M at every presentation is kept as _train_online_reference:
the tests compare against it, and the complexity benchmark times it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .dismat import kernel_to_dissimilarity
from .lattice import DEFAULT_SIGMA_END, DecaySchedule, Lattice, default_sigma_start
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
    # and the exact state, max|X_incr - X_exact| / max|X_exact| over X = G, q
    resync_drift_max: float | None = None


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


def bmu_relational(d_values: np.ndarray, coefficients: np.ndarray, i: int) -> int:
    """Best unit for point i; quadratic terms computed once for all units."""
    g = coefficients @ d_values  # (K, N); row k holds (D alpha_k)^T
    quad = np.einsum("kn,kn->k", g, coefficients)
    return int(np.argmin(g[:, i] - 0.5 * quad))


def verify_equivalence(kernel, alpha: np.ndarray, i: int, tol: float = 1e-9) -> bool:
    """Check the kernelized distance against the relational distance on the
    induced dissimilarity, evaluating both sides independently."""
    lhs = relational_distance(kernel_to_dissimilarity(kernel).values, alpha, i)
    rhs = kernel_distance(kernel.values, alpha, i)
    return abs(lhs - rhs) <= tol


def prototype_pairwise_dissimilarity(
    d_values: np.ndarray, alpha_a: np.ndarray, alpha_b: np.ndarray
) -> float:
    """Squared distance between two implied prototypes: -1/2 (a-b)^T D (a-b).

    For indicator rows a, b on a zero-diagonal D this reduces to D_ab. May be
    negative on indefinite D.
    """
    _check_coefficients(alpha_a)
    _check_coefficients(alpha_b)
    diff = alpha_a - alpha_b
    return float(-0.5 * (diff @ d_values @ diff))


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


def _batch_loop(
    lattice: Lattice,
    n_iter: int,
    sigma_start: float | None,
    sigma_end: float,
    sigma_mode: str,
    stop_on_stable_assignment: bool,
    init,
    distances,
    update,
) -> _BatchRun:
    """Batch engine of the coefficient and median trainers.

    Each iteration assigns every point to its nearest unit under
    distances(state) (N x K), records the assignments and the map energy,
    stops if the assignments repeat, and otherwise moves to the state of
    update(state, assignments, h) -> (state, count of events). The state
    starts as init(), called after the schedule is validated.
    """
    if sigma_start is None:
        sigma_start = default_sigma_start(lattice)
    sigmas = DecaySchedule(sigma_start, sigma_end, n_iter, sigma_mode).values()
    state = init()

    trace: list[np.ndarray] = []
    energies: list[float] = []
    events = 0
    negative = 0
    assign_ns = 0
    update_ns = 0
    stopped = False
    for t in range(n_iter):
        h = lattice.neighborhood(sigmas[t])
        t0 = time.perf_counter_ns()
        dist = distances(state)
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
    dist = distances(state)
    final = np.argmin(dist, axis=1)
    assign_ns += time.perf_counter_ns() - t0
    negative += int(np.count_nonzero(dist < 0.0))
    return _BatchRun(
        state, final, np.asarray(trace), np.asarray(energies), stopped, float(sigmas[t]),
        events, negative, {"assignment": assign_ns, "update": update_ns},
    )


def _coefficient_update(a: np.ndarray, c: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, int]:
    """Neighborhood-weighted indicator means -> (coefficients, units skipped)."""
    w = h[:, c]
    denom = w.sum(axis=1)
    alive = denom > EMPTY_UNIT_WEIGHT
    new_a = a.copy()
    new_a[alive] = w[alive] / denom[alive, None]
    return new_a, int(np.count_nonzero(~alive))


def _train_batch(
    n: int,
    matrix_dist,
    lattice: Lattice,
    n_iter: int,
    sigma_start: float | None,
    sigma_end: float,
    sigma_mode: str,
    seed: int,
    stop_on_stable_assignment: bool,
    init_mode: str,
) -> CoefficientSOMResult:
    """Batch engine on coefficients; matrix_dist(alphas) -> N x K distances."""
    run = _batch_loop(
        lattice, n_iter, sigma_start, sigma_end, sigma_mode, stop_on_stable_assignment,
        lambda: _init_coefficients(n, lattice.n_units, np.random.default_rng(seed), init_mode),
        matrix_dist, _coefficient_update,
    )
    return CoefficientSOMResult(
        run.state, run.assignments, run.trace, run.energies, lattice, run.final_sigma,
        run.stopped, run.negative, run.events, run.phase_ns,
    )


def train_batch_relational(
    dismatrix,
    lattice: Lattice,
    n_iter: int = 50,
    sigma_start: float | None = None,
    sigma_end: float = DEFAULT_SIGMA_END,
    sigma_mode: str = "exponential_decay",
    seed: int = 0,
    stop_on_stable_assignment: bool = True,
    init_mode: str = "indicator",
) -> CoefficientSOMResult:
    """Batch SOM on a dissimilarity matrix.

    Stops once the assignment repeats (pass stop_on_stable_assignment=False
    to force the full n_iter iterations, e.g. for step-by-step comparison
    against the vector trainer, which never stops early).
    """
    d = dismatrix.values
    return _train_batch(
        d.shape[0], lambda a: relational_distances(d, a), lattice, n_iter,
        sigma_start, sigma_end, sigma_mode, seed, stop_on_stable_assignment, init_mode,
    )


def train_batch_kernel(
    kernel,
    lattice: Lattice,
    n_iter: int = 50,
    sigma_start: float | None = None,
    sigma_end: float = DEFAULT_SIGMA_END,
    sigma_mode: str = "exponential_decay",
    seed: int = 0,
    stop_on_stable_assignment: bool = True,
    init_mode: str = "indicator",
) -> CoefficientSOMResult:
    """Batch SOM on a kernel matrix (distances via the kernel trick)."""
    k = kernel.values
    return _train_batch(
        k.shape[0], lambda a: kernel_distances(k, a), lattice, n_iter,
        sigma_start, sigma_end, sigma_mode, seed, stop_on_stable_assignment, init_mode,
    )


class _DenseState:
    """Incremental-engine view of a dense N x N matrix M (D or K).

    The state G = A M holds one row per unit; row i of M is what a
    presentation of point i blends into it, and column i of G is the cross
    term (M a_k)_i.
    """

    def __init__(self, m_values: np.ndarray, kernel_form: bool):
        self.rows = m_values
        self.diag = np.diag(m_values)
        self.kernel_form = kernel_form

    def exact(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G = A M and the quadratic terms q_k = a_k^T M a_k."""
        g = a @ self.rows
        return g, np.einsum("kn,kn->k", a, g)

    def cross(self, g: np.ndarray, i: int) -> np.ndarray:
        return g[:, i]

    def cross_all(self, g: np.ndarray) -> np.ndarray:
        return g


def _train_online(
    state,
    lattice: Lattice,
    n_epochs: int,
    sigma_start: float | None = None,
    sigma_end: float = DEFAULT_SIGMA_END,
    sigma_mode: str = "exponential_decay",
    eps_start: float = 0.5,
    eps_end: float = 0.01,
    seed: int = 0,
    init_mode: str = "indicator",
    presentations_per_epoch: int | None = None,
) -> CoefficientSOMResult:
    """Incremental stochastic engine: O(K w) per presentation, w = state.rows width.

    The update a_k <- (1 - p_k) a_k + p_k e_i is a convex blend with a one-hot
    vector, so the state G = A R and the quadratic terms q follow it exactly:

        g_k <- (1 - p_k) g_k + p_k R[i, :]
        q_k <- (1 - p_k)^2 q_k + 2 p_k (1 - p_k) x_k + p_k^2 M_ii

    with x_k = state.cross(G, i) read before the update (Olteanu &
    Villa-Vialaneix, Neurocomputing 147, 2015). The distance of point i to
    unit k is x_k - q_k / 2 (relational form) or, with state.kernel_form,
    M_ii - 2 x_k + q_k. Every epoch end recomputes G and q exactly from the
    coefficients, which clears the rounding drift of the blends; the largest
    relative drift of G or q seen is returned as resync_drift_max. The
    coefficient arithmetic is that of _train_online_reference, so the
    coefficients are bit-identical to its whenever the BMUs agree.

    presentations_per_epoch decouples the stochastic budget from the dataset
    size (default: N draws per epoch, one pass in expectation).
    """
    n = state.rows.shape[0]
    if sigma_start is None:
        sigma_start = default_sigma_start(lattice)
    draws = n if presentations_per_epoch is None else int(presentations_per_epoch)
    if draws < 1:
        raise ValueError("presentations_per_epoch must be >= 1")
    sigmas = DecaySchedule(sigma_start, sigma_end, n_epochs, sigma_mode).values()
    epsilons = DecaySchedule(eps_start, eps_end, n_epochs).values()
    rng = np.random.default_rng(seed)
    a = _init_coefficients(n, lattice.n_units, rng, init_mode)

    def dist(x, q, m_ii):
        return m_ii - 2.0 * x + q if state.kernel_form else x - 0.5 * q

    trace = np.empty((n_epochs, n), dtype=np.int64)
    energies = np.empty(n_epochs)
    negative = 0
    assign_ns = 0
    update_ns = 0
    drift = 0.0
    g, q = state.exact(a)
    for e in range(n_epochs):
        h = lattice.neighborhood(sigmas[e])
        eps = epsilons[e]
        order = rng.integers(0, n, size=draws)
        for i in order:
            t0 = time.perf_counter_ns()
            x = state.cross(g, i)
            m_ii = state.diag[i]
            d = dist(x, q, m_ii)
            c = int(np.argmin(d))
            t1 = time.perf_counter_ns()
            pull = eps * h[:, c]
            keep = 1.0 - pull
            a *= keep[:, None]
            a[:, i] += pull
            q = keep * keep * q + 2.0 * pull * keep * x + pull * pull * m_ii
            g *= keep[:, None]
            g += pull[:, None] * state.rows[i]
            update_ns += time.perf_counter_ns() - t1
            assign_ns += t1 - t0
            negative += int(np.count_nonzero(d < 0.0))
        g_exact, q_exact = state.exact(a)
        for incr, exact in ((g, g_exact), (q, q_exact)):
            scale = float(np.max(np.abs(exact)))
            if scale > 0.0:
                drift = max(drift, float(np.max(np.abs(incr - exact))) / scale)
        g, q = g_exact, q_exact
        dists = dist(state.cross_all(g), q[:, None], state.diag[None, :]).T
        negative += int(np.count_nonzero(dists < 0.0))
        trace[e] = np.argmin(dists, axis=1)
        energies[e] = map_energy(dists, trace[e], h)

    return CoefficientSOMResult(
        a, trace[-1].copy(), trace, energies, lattice, float(sigmas[-1]), False, negative, 0,
        {"assignment": assign_ns, "update": update_ns}, drift,
    )


def _train_online_reference(
    n: int,
    row_dist,
    matrix_dist,
    lattice: Lattice,
    n_epochs: int,
    sigma_start: float | None = None,
    sigma_end: float = DEFAULT_SIGMA_END,
    sigma_mode: str = "exponential_decay",
    eps_start: float = 0.5,
    eps_end: float = 0.01,
    seed: int = 0,
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
    if sigma_start is None:
        sigma_start = default_sigma_start(lattice)
    draws = n if presentations_per_epoch is None else int(presentations_per_epoch)
    if draws < 1:
        raise ValueError("presentations_per_epoch must be >= 1")
    sigmas = DecaySchedule(sigma_start, sigma_end, n_epochs, sigma_mode).values()
    epsilons = DecaySchedule(eps_start, eps_end, n_epochs).values()
    rng = np.random.default_rng(seed)
    a = _init_coefficients(n, lattice.n_units, rng, init_mode)

    trace = np.empty((n_epochs, n), dtype=np.int64)
    energies = np.empty(n_epochs)
    negative = 0
    assign_ns = 0
    update_ns = 0
    for e in range(n_epochs):
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
    n_epochs: int = 20,
    sigma_start: float | None = None,
    sigma_end: float = DEFAULT_SIGMA_END,
    sigma_mode: str = "exponential_decay",
    eps_start: float = 0.5,
    eps_end: float = 0.01,
    seed: int = 0,
    init_mode: str = "indicator",
) -> CoefficientSOMResult:
    """Stochastic SOM on a dissimilarity matrix; always runs n_epochs epochs
    of N presentations each.

    The update alpha_k += eps h(k, c) (e_i - alpha_k) is a convex blend with a
    one-hot vector, so unit row sums and the [0, 1] entry range survive any
    number of presentations.
    """
    d = dismatrix.values
    return _train_online(
        _DenseState(d, kernel_form=False), lattice, n_epochs, sigma_start, sigma_end,
        sigma_mode, eps_start, eps_end, seed, init_mode,
    )


def train_online_kernel(
    kernel,
    lattice: Lattice,
    n_epochs: int = 20,
    sigma_start: float | None = None,
    sigma_end: float = DEFAULT_SIGMA_END,
    sigma_mode: str = "exponential_decay",
    eps_start: float = 0.5,
    eps_end: float = 0.01,
    seed: int = 0,
    init_mode: str = "indicator",
) -> CoefficientSOMResult:
    """Stochastic SOM on a kernel matrix."""
    k = kernel.values
    return _train_online(
        _DenseState(k, kernel_form=True), lattice, n_epochs, sigma_start, sigma_end,
        sigma_mode, eps_start, eps_end, seed, init_mode,
    )
