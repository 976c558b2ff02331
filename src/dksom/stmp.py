"""Deterministic-annealing topographic mapping on dissimilarity data.

Instead of alternating crisp assignment and prototype steps, the solver
tracks soft memberships gamma (N x K, row-stochastic) through a mean-field
fixed point at increasing inverse temperature beta. The neighborhood h is
fixed for the whole run. One outer step at inverse temperature beta iterates

    gamma  = softmax(-beta * e)            row-wise
    b      = column-normalized gamma @ h   (N x K mixing coefficients)
    e_ik   = sum_s h_ks * r(i, b_.s)       r = relational point-to-coefficient distance

until e stabilizes, then beta grows geometrically. Below the critical
inverse temperature 1/lambda_max(D) the uniform solution is stable and no
structure emerges; annealing past it breaks the symmetry.
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


class PowerIterationError(RuntimeError, ValueError):
    """Dominant-eigenvalue estimate failed to converge. It is a ValueError
    too: the input matrix is what the estimate fails on."""


@dataclass(frozen=True)
class AnnealingSchedule:
    beta0: float | None = None  # with beta_max None: 0.5 to 1e4 critical_beta(D), in train_stmp
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


def power_iteration(values: np.ndarray, tol: float = 1e-8, max_iters: int = 10_000) -> float:
    """Dominant eigenvalue magnitude of a symmetric matrix.

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
    shrink = -n.bit_length()
    x = np.linalg.qr(np.random.default_rng(_POWER_SEED).standard_normal((n, 2)))[0]
    for _ in range(max_iters):
        y = values @ np.ldexp(x, shrink)
        top = float(np.max(np.abs(y)))
        if top == 0.0:
            return 0.0  # D annihilates a random block: the zero matrix
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


def train_stmp(
    dismatrix,
    lattice: Lattice,
    sigma: float = 1.0,
    annealing: AnnealingSchedule = AnnealingSchedule(),
    seed: int = 0,
) -> STMPResult:
    """Anneal the mean-field fixed point from beta0 up to beta_max.

    The mean field starts as seeded uniform noise in [0, 1e-3); the noise is
    what lets symmetry break deterministically once beta passes the critical
    scale. Crisp assignments are the per-row argmax of the final memberships
    (ties to the smallest unit index).
    """
    if annealing.beta0 is None:
        bc = critical_beta(dismatrix)
        annealing = replace(annealing, beta0=0.5 * bc, beta_max=1e4 * bc)
    d = dismatrix.values
    n, k = d.shape[0], lattice.n_units
    h = lattice.neighborhood(sigma)
    rng = np.random.default_rng(seed)
    e = rng.uniform(0.0, _INIT_NOISE, size=(n, k))

    trace: list[tuple[float, int, float, float]] = []
    beta = annealing.beta0
    last_beta = beta
    while beta <= annealing.beta_max * (1.0 + 1e-12):
        gamma = None
        delta = np.inf
        iters = 0
        for iters in range(1, annealing.inner_max_iters + 1):
            gamma = soft_update(e, beta)
            b = mixing_coefficients(gamma, h)
            e_new = mean_field(d, b, h)
            delta = float(np.max(np.abs(e_new - e)))
            e = e_new
            if delta < annealing.inner_tol:
                break
        trace.append((beta, iters, delta, _entropy(gamma)))
        last_beta = beta
        beta *= annealing.beta_factor

    gamma = soft_update(e, last_beta)  # memberships consistent with the final field
    assignments = np.argmax(gamma, axis=1)
    return STMPResult(
        gamma, e, mixing_coefficients(gamma, h), assignments, np.asarray(trace), lattice, sigma
    )
