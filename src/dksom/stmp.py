"""Deterministic-annealing topographic mapping on dissimilarity data.

Instead of alternating crisp assignment and prototype steps, the solver
tracks soft memberships gamma (N x K, row-stochastic) through a mean-field
fixed point at increasing inverse temperature beta. The neighborhood h is
fixed for the whole run. One outer step at inverse temperature beta iterates

    gamma  = softmax(-beta * e)            row-wise
    b      = column-normalized gamma @ h   (N x K mixing coefficients)
    e_ik   = sum_s h_ks * r(i, b_.s)       r = relational point-to-coefficient distance

until e stabilizes, then beta grows geometrically. The uniform solution is
stable until beta reaches the neighborhood-aware critical scale
symmetry_breaking_beta (Graepel & Obermayer, Neural Computation 11, 1999),
where the map's first structure forms; annealing past it breaks the symmetry.
critical_beta = 1/lambda_max(D) lies well below it and only sets the scale
of the default beta range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .lattice import Lattice
from .relsom import relational_distances

TRACE_COLUMNS = ("beta", "inner_iterations", "max_delta_e", "entropy")

_INIT_NOISE = 1e-3  # amplitude of the seeded mean-field initialization
_POWER_SEED = 0x5EED  # fixed: critical_beta must be deterministic
_START_TOL = 1e-6  # symmetry_breaking_beta places the start; a few digits suffice
# the step extrapolation fires on a ratio in (_RATIO_FLOOR, 1) that agrees with
# the previous ratio within _RATIO_AGREEMENT, relative; looser gates changed
# the annealing branch on the benchmark inputs
_RATIO_FLOOR, _RATIO_AGREEMENT = 0.5, 0.02


class PowerIterationError(RuntimeError, ValueError):
    """Dominant-eigenvalue estimate failed to converge. It is a ValueError
    too: the input matrix is what the estimate fails on."""


@dataclass(frozen=True)
class AnnealingSchedule:
    beta0: float | None = None  # with beta_max None: resolved on the matrix in train_stmp
    beta_factor: float = 1.1
    beta_max: float | None = None
    inner_tol: float = 1e-6
    inner_max_iters: int = 500

    def __post_init__(self):
        if (self.beta0 is None) != (self.beta_max is None):
            raise ValueError("beta0 and beta_max must be set together")
        if self.beta0 is not None and self.beta0 <= 0.0:
            raise ValueError(f"beta0 must be positive, got {self.beta0}")
        if self.beta_factor <= 1.0:
            raise ValueError(f"beta_factor must exceed 1, got {self.beta_factor}")
        if self.beta0 is not None and self.beta0 >= self.beta_max:
            raise ValueError(f"need beta0 < beta_max, got {self.beta0} >= {self.beta_max}")
        if self.inner_tol <= 0.0:
            raise ValueError("inner_tol must be positive")
        if self.inner_max_iters < 1:
            raise ValueError(f"inner_max_iters must be at least 1, got {self.inner_max_iters}")
        for name in ("beta0", "beta_factor", "beta_max", "inner_tol"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")


@dataclass
class STMPResult:
    gamma: np.ndarray  # N x K soft memberships
    mean_field: np.ndarray  # N x K assignment-cost estimates
    mixing: np.ndarray  # N x K column-stochastic b consistent with gamma
    assignments: np.ndarray  # N crisp argmax memberships
    trace: np.ndarray  # one row per outer step, columns TRACE_COLUMNS
    lattice: Lattice
    final_sigma: float  # the fixed neighborhood radius


def power_iteration(values: np.ndarray, tol: float = 1e-8, max_iters: int = 10_000,
                    centred: bool = False) -> float:
    """Dominant eigenvalue magnitude of a symmetric matrix, or with centred=True
    of its double centring -1/2 J D J (J = I - 11^T/n), applied as
    -1/2 J (D (J x)) without forming it.

    Subspace iteration on two vectors with a Rayleigh-Ritz step on the 2 x 2
    projection: a +lambda/-lambda pair (common for zero-diagonal
    dissimilarities, nearly exact on two tight clusters) converges at the
    rate |lambda_3 / lambda_1| instead of stalling. Powers of two scale the
    block into each product, so that D X stays finite, and D X before any
    norm; they are exact, so the result scales exactly with the matrix.
    Stops on the residual test ||D u - theta u|| <= tol * |theta| for the
    Ritz pair of largest |theta|, which for symmetric matrices certifies an
    eigenvalue within tol * |theta| of theta.
    """
    n = values.shape[0]
    shrink = -n.bit_length() - 2  # centring can double |x| and then |D x|
    x = np.linalg.qr(np.random.default_rng(_POWER_SEED).standard_normal((n, 2)))[0]
    for _ in range(max_iters):
        x_in = np.ldexp(x, shrink)
        if centred:
            x_in -= x_in.mean(axis=0)
        y = values @ x_in
        if centred:
            y = -0.5 * (y - y.mean(axis=0))
        top = float(np.max(np.abs(y)))
        if top == 0.0:
            return 0.0  # the operator annihilates a random block: the zero matrix
        exp = math.frexp(top)[1]
        y = np.ldexp(y, -exp)
        theta, v = np.linalg.eigh(x.T @ y)
        k = int(np.argmax(np.abs(theta)))
        if np.linalg.norm(y @ v[:, k] - theta[k] * (x @ v[:, k])) <= tol * abs(theta[k]):
            return float(np.ldexp(abs(theta[k]), exp - shrink))
        x = np.linalg.qr(y)[0]
    raise PowerIterationError(f"no convergence after {max_iters} iterations (tol={tol:g})")


def critical_beta(dismatrix) -> float:
    """1 / lambda_max(D): the inverse-temperature scale where the uniform
    soft solution first destabilizes."""
    lam = power_iteration(dismatrix.values)
    if lam == 0.0:
        raise ValueError("dissimilarity matrix is numerically zero; no critical scale")
    return 1.0 / lam


def symmetry_breaking_beta(d_values: np.ndarray, h: np.ndarray) -> float:
    """N rho_h / (2 lambda_1 lambda_h^2): where the uniform mean-field solution
    turns linearly unstable, or inf where nothing breaks it (N = 1, K = 1).

    Linearized at gamma = 1/K, one mean-field step maps a perturbation of e
    through the double-centred D, lambda_1 = lambda_max(-1/2 J D J), and
    twice through the unit-centred neighborhood, lambda_h = lambda_max(J h J);
    rho_h is the mean row sum of h. Where -1/2 J D J has a larger negative
    eigenvalue (non-Euclidean D), its magnitude stands in for lambda_1, which
    only moves the estimate earlier.
    """
    k = h.shape[0]
    centred_h = h - h.mean(axis=0)
    centred_h -= centred_h.mean(axis=1, keepdims=True)
    lam_h = float(np.max(np.abs(np.linalg.eigvalsh(centred_h))))
    gain = 2.0 * lam_h * lam_h / (d_values.shape[0] * h.sum() / k)  # per unit of lambda_1
    if gain == 0.0:
        return math.inf
    slope = gain * power_iteration(d_values, tol=_START_TOL, centred=True)
    return 1.0 / slope if slope > 0.0 else math.inf


def soft_update(e: np.ndarray, beta: float) -> np.ndarray:
    """Row-stochastic memberships gamma = softmax(-beta * e), max-shifted."""
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    z = -beta * e
    z -= z.max(axis=1, keepdims=True)
    g = np.exp(z)
    g /= g.sum(axis=1, keepdims=True)
    return g


def mixing_coefficients(gamma: np.ndarray, h: np.ndarray) -> np.ndarray:
    """N x K column-stochastic b with b_js = sum_k gamma_jk h_ks, normalized."""
    b = gamma @ h
    colsum = b.sum(axis=0)
    if np.any(colsum <= 1e-300):
        raise ValueError(
            "mixing-coefficient column sums to zero; neighborhood matrix is degenerate"
        )
    return b / colsum[None, :]


def mean_field(d_values: np.ndarray, b: np.ndarray, h: np.ndarray) -> np.ndarray:
    """N x K costs e_ik = sum_s h_ks * (relational distance of i to column b_.s).

    The inner N x K relational-distance matrix is formed once and mixed with
    h afterwards, keeping the full update at one N^2 K product.
    """
    colsum = b.sum(axis=0)
    if np.max(np.abs(colsum - 1.0)) > 1e-9:
        raise ValueError("mixing coefficients must be column-stochastic")
    r = relational_distances(d_values, b.T)
    return r @ h.T


def _entropy(gamma: np.ndarray) -> float:
    # np.where evaluates both branches; the zeros it discards would warn
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(-np.sum(np.where(gamma > 0.0, gamma * np.log(gamma), 0.0)))


def settle(d_values: np.ndarray, h: np.ndarray, e: np.ndarray, beta: float, tol: float,
           max_iters: int) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Iterate the mean field F at one beta from e until max|F(e) - e| < tol or
    max_iters products; returns (e, gamma, products, last max|F(e) - e|).

    Near a phase transition the fixed-point iteration contracts by 0.9 or
    more per product, almost all of it along one slow mode. While two
    successive steps r_{k-1}, r_k shrink by a steady ratio rho (the projected
    ratio <r_k, r_{k-1}> / ||r_{k-1}||^2 agrees with the previous one), the
    rest of the geometric series, r_k rho / (1 - rho), is added in one jump.
    Only a real product decides convergence, and the last product is never
    followed by a jump, so e always ends as F of the previous iterate.
    """
    gamma, delta, iters = None, math.inf, 0
    step = ratio = None
    for iters in range(1, max_iters + 1):
        gamma = soft_update(e, beta)
        e_new = mean_field(d_values, mixing_coefficients(gamma, h), h)
        prev_step, step = step, e_new - e
        e = e_new
        prev_delta, delta = delta, float(np.max(np.abs(step)))
        if delta < tol:
            break
        if prev_step is None:
            continue
        # one power of two brings both steps to at most 1, so the dot products
        # cannot overflow; it is exact, so the ratio is that of the steps
        shift = -math.frexp(max(delta, prev_delta))[1]
        r, r_prev = np.ldexp(step, shift), np.ldexp(prev_step, shift)
        last_ratio, ratio = ratio, float(np.vdot(r, r_prev) / np.vdot(r_prev, r_prev))
        if (iters < max_iters and last_ratio is not None and _RATIO_FLOOR < ratio < 1.0
                and abs(ratio - last_ratio) <= _RATIO_AGREEMENT * last_ratio):
            e = e + step * (ratio / (1.0 - ratio))
            step = ratio = None  # the jump ends this geometric run
    return e, gamma, iters, delta


def train_stmp(
    dismatrix,
    lattice: Lattice,
    sigma: float = 1.0,
    annealing: AnnealingSchedule = AnnealingSchedule(),
    seed: int = 0,
) -> STMPResult:
    """Anneal the mean-field fixed point from beta0 up to beta_max.

    Without a beta range the grid is 0.5 * critical_beta(D) * beta_factor^j up
    to 1e4 * critical_beta(D), and annealing starts at its last point at or
    below half of symmetry_breaking_beta: the steps before it would only
    settle the uniform solution. Where that scale is not finite, positive and
    below the range's end, annealing starts at the grid's first point.

    The mean field starts as seeded uniform noise in [0, 1e-3); the noise is
    what lets symmetry break deterministically once beta passes the critical
    scale. Crisp assignments are the per-row argmax of the final memberships
    (ties to the smallest unit index).
    """
    d = dismatrix.values
    n, k = d.shape[0], lattice.n_units
    h = lattice.neighborhood(sigma)
    if annealing.beta0 is None:
        bc = critical_beta(dismatrix)
        beta0, beta_max = 0.5 * bc, 1e4 * bc
        start = 0.5 * symmetry_breaking_beta(d, h)
        if 0.0 < start < 0.5 * beta_max:
            while beta0 * annealing.beta_factor <= start:
                beta0 *= annealing.beta_factor  # walk the grid, so its points keep their bits
        annealing = replace(annealing, beta0=beta0, beta_max=beta_max)
    rng = np.random.default_rng(seed)
    e = rng.uniform(0.0, _INIT_NOISE, size=(n, k))

    trace: list[tuple[float, int, float, float]] = []
    beta = annealing.beta0
    last_beta = beta
    while beta <= annealing.beta_max * (1.0 + 1e-12):
        e, gamma, iters, delta = settle(d, h, e, beta, annealing.inner_tol,
                                        annealing.inner_max_iters)
        trace.append((beta, iters, delta, _entropy(gamma)))
        last_beta = beta
        beta *= annealing.beta_factor

    gamma = soft_update(e, last_beta)  # memberships consistent with the final field
    assignments = np.argmax(gamma, axis=1)
    return STMPResult(
        gamma, e, mixing_coefficients(gamma, h), assignments, np.asarray(trace), lattice, sigma
    )
