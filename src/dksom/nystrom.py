"""Low-rank landmark approximation to speed up coefficient-based SOM training.

A similarity matrix is approximated from m sampled columns as
K~ = C W+ C^T (C the landmark columns, W+ the eigen-pseudo-inverse of the
landmark block). Dissimilarity matrices are routed through double centering
S = -1/2 J D J, which is PSD exactly when D is squared-Euclidean; negative
eigenvalues of the landmark block (non-Euclidean part) are truncated.

With P = C W+ precomputed, one point-to-prototype relational distance costs
O(N m) instead of O(N^2):

    dist(alpha, i) = g_i - 2 P_i . u + u^T W+ u,   u = C^T alpha, g = diag(K~).

Online training keeps u and u^T W+ u up to date per unit, so a presentation
costs O(m) per unit for its distances (see _LandmarkState). Batch training
builds u from the per-unit row sums of C in O(N m + K^2 m); its distances
still cost O(N m K) per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, Schedule
from .relsom import (
    CoefficientSOMResult,
    _check_coefficients,
    _train_batch,
    _train_online,
    unit_row_sums,
)

DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True)
class NystromFactor:
    """Immutable landmark factorization of a similarity (or centered) matrix."""

    kind: str  # "kernel" | "dissimilarity"
    landmarks: np.ndarray  # m distinct data indices
    c_block: np.ndarray  # N x m sampled columns
    w_pinv: np.ndarray  # m x m pseudo-inverse of the landmark block
    rank_tol: float
    rank: int  # eigenvalues kept
    p_block: np.ndarray  # N x m cache C @ W+
    g: np.ndarray  # N diagonal of the approximated similarity

    @property
    def n(self) -> int:
        return self.c_block.shape[0]

    @property
    def m(self) -> int:
        return self.c_block.shape[1]


def _fit(values: np.ndarray, m: int, seed: int, rank_tol: float, kind: str) -> NystromFactor:
    n = values.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"landmark count must be in [1, {n}], got {m}")
    rng = np.random.default_rng(seed)
    landmarks = np.sort(rng.choice(n, size=m, replace=False))
    c = values[:, landmarks]
    w = values[np.ix_(landmarks, landmarks)]
    lam, vec = np.linalg.eigh(w)
    lam_max = float(lam[-1])
    keep = lam > rank_tol * lam_max if lam_max > 0.0 else np.zeros_like(lam, dtype=bool)
    vk = vec[:, keep]
    w_pinv = (vk / lam[keep]) @ vk.T
    p = c @ w_pinv
    g = np.einsum("im,im->i", p, c)
    return NystromFactor(
        kind, landmarks, c, w_pinv, rank_tol, int(np.count_nonzero(keep)), p, g
    )


def nystrom_fit(kernel, m: int, seed: int = 0, rank_tol: float = DEFAULT_RANK_TOL) -> NystromFactor:
    """Factor a kernel matrix from m uniformly sampled landmark columns."""
    return _fit(kernel.values, m, seed, rank_tol, "kernel")


def double_center(d_values: np.ndarray) -> np.ndarray:
    """S = -1/2 J D J with J = I - 11^T/N; Gram matrix of any Euclidean embedding of D."""
    row = d_values.mean(axis=1)
    total = row.mean()
    return -0.5 * (d_values - row[:, None] - row[None, :] + total)


def nystrom_fit_dissimilarity(
    dismatrix, m: int, seed: int = 0, rank_tol: float = DEFAULT_RANK_TOL
) -> NystromFactor:
    """Factor a dissimilarity matrix via its double-centered Gram form.

    The implied reconstruction is D~_ij = g_i + g_j - 2 S~_ij, which has an
    exactly zero diagonal; for non-Euclidean D the indefinite part is
    truncated by rank_tol and reconstruction error is a diagnostic, not a
    bounded quantity.
    """
    return _fit(double_center(dismatrix.values), m, seed, rank_tol, "dissimilarity")


def reconstruct_similarity(factor: NystromFactor) -> np.ndarray:
    """Dense N x N approximated similarity (kernel K~ or centered S~)."""
    return factor.p_block @ factor.c_block.T


def reconstruct_dissimilarity(factor: NystromFactor) -> np.ndarray:
    """Dense N x N induced dissimilarity g_i + g_j - 2 K~_ij (exactly zero diagonal)."""
    s = reconstruct_similarity(factor)
    d = factor.g[:, None] + factor.g[None, :] - 2.0 * s
    np.fill_diagonal(d, 0.0)
    return d


def approx_relational_distance(factor: NystromFactor, alpha: np.ndarray, i: int) -> float:
    """Relational distance of point i to coefficient vector alpha on the
    reconstructed dissimilarity, in O(N m) without forming it."""
    _check_coefficients(alpha)
    u = factor.c_block.T @ alpha
    return float(factor.g[i] - 2.0 * (factor.p_block[i] @ u) + u @ factor.w_pinv @ u)


def approx_relational_distances(factor: NystromFactor, coefficients: np.ndarray) -> np.ndarray:
    """N x K distance matrix on the reconstruction, O(N m K) total."""
    u = factor.c_block.T @ coefficients.T  # m x K
    quad = np.einsum("mk,mk->k", u, factor.w_pinv @ u)
    return factor.g[:, None] - 2.0 * (factor.p_block @ u) + quad[None, :]


def sample_reconstruction_error(
    factor: NystromFactor, original: np.ndarray, n_samples: int = 1000, seed: int = 0
) -> dict:
    """Mean/max absolute entrywise error on randomly sampled (i, j) pairs.

    `original` is the matrix the factor was fit to approximate: the kernel
    for kind=kernel, the dissimilarity for kind=dissimilarity.
    """
    rng = np.random.default_rng(seed)
    i = rng.integers(0, factor.n, size=n_samples)
    j = rng.integers(0, factor.n, size=n_samples)
    cross = np.einsum("sm,sm->s", factor.p_block[i], factor.c_block[j])
    if factor.kind == "dissimilarity":
        approx = factor.g[i] + factor.g[j] - 2.0 * cross
        approx[i == j] = 0.0
    else:
        approx = cross
    err = np.abs(original[i, j] - approx)
    return {"samples": n_samples, "mean_abs_error": float(err.mean()), "max_abs_error": float(err.max())}


class _LandmarkState:
    """Engine view of the reconstruction K~ = C W+ C^T, for _train_online and
    _train_batch.

    The state is U = A C (K x m): a presentation of point i blends C[i] into
    it, the cross term (K~ a_k)_i is U[k] . P[i] and the diagonal is g, so
    one presentation reads m numbers per unit instead of N. A batch state
    builds U from per-unit sums of the rows of C.
    """

    kernel_form = True  # distances g_i - 2 (K~ a_k)_i + a_k^T K~ a_k

    def __init__(self, factor: NystromFactor):
        self.factor = factor
        self.rows = factor.c_block
        self.diag = factor.g

    def exact(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """U = A C and q_k = u_k^T W+ u_k, formed as approx_relational_distances does."""
        u = self.rows.T @ a.T  # m x K
        return u.T, np.einsum("mk,mk->k", u, self.factor.w_pinv @ u)

    def block(self, c: np.ndarray, weights: np.ndarray, points=slice(None)):
        """exact() for the rows a_k with a_k[points[j]] = weights[k, c[j]] and zero
        elsewhere: U = A C from the per-group row sums of C, O(N m + K L m)."""
        u = (weights @ unit_row_sums(self.rows[points], c, weights.shape[1])).T  # m x K
        return u.T, np.einsum("mk,mk->k", u, self.factor.w_pinv @ u)

    def dense(self, a: np.ndarray) -> np.ndarray:
        return approx_relational_distances(self.factor, a)

    def cross(self, u: np.ndarray, i: int) -> np.ndarray:
        return u @ self.factor.p_block[i]

    def cross_all(self, u: np.ndarray) -> np.ndarray:
        return (self.factor.p_block @ u.T).T


def train_batch_approx(
    factor: NystromFactor,
    lattice: Lattice,
    schedule: Schedule,
    stop_on_stable_assignment: bool = True,
    init_mode: str = "indicator",
) -> CoefficientSOMResult:
    """Batch relational SOM with all distances served by the factor."""
    return _train_batch(_LandmarkState(factor), lattice, schedule, stop_on_stable_assignment,
                        init_mode)


def train_online_approx(
    factor: NystromFactor,
    lattice: Lattice,
    schedule: Schedule,
    init_mode: str = "indicator",
) -> CoefficientSOMResult:
    """Stochastic relational SOM whose distances cost O(K m) per presentation."""
    return _train_online(_LandmarkState(factor), lattice, schedule, init_mode)
