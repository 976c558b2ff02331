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

from .dismat import _row_blocks
from .lattice import Lattice, Schedule
from .relsom import (
    CoefficientSOMResult,
    _check_coefficients,
    _drift,
    _train_batch,
    _train_online,
    unit_row_sums,
)

DEFAULT_RANK_TOL = 1e-10  # landmark-block eigenvalues below this share of the largest are cut
RECONSTRUCTION_SAMPLES = 1000  # (i, j) pairs sample_reconstruction_error draws


@dataclass(frozen=True)
class NystromFactor:
    """Immutable landmark factorization of a similarity (or centered) matrix."""

    kind: str  # "kernel" | "dissimilarity"
    landmarks: np.ndarray  # m distinct data indices
    c_block: np.ndarray  # N x m sampled columns
    w_pinv: np.ndarray  # m x m pseudo-inverse of the landmark block
    rank: int  # eigenvalues kept
    p_block: np.ndarray  # N x m cache C @ W+
    g: np.ndarray  # N diagonal of the approximated similarity

    @property
    def n(self) -> int:
        return self.c_block.shape[0]

    @property
    def m(self) -> int:
        return self.c_block.shape[1]


def _landmarks(n: int, m: int, seed: int) -> np.ndarray:
    if not 1 <= m <= n:
        raise ValueError(f"landmark count must be in [1, {n}], got {m}")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=m, replace=False))


def _factor(c: np.ndarray, landmarks: np.ndarray, kind: str) -> NystromFactor:
    """Factor from the sampled columns c (N x m) of the landmark indices."""
    w = c[landmarks]
    lam, vec = np.linalg.eigh(w)
    lam_max = float(lam[-1])
    keep = lam > DEFAULT_RANK_TOL * lam_max if lam_max > 0.0 else np.zeros_like(lam, dtype=bool)
    vk = vec[:, keep]
    w_pinv = (vk / lam[keep]) @ vk.T
    p = c @ w_pinv
    g = np.einsum("im,im->i", p, c)
    return NystromFactor(kind, landmarks, c, w_pinv, int(np.count_nonzero(keep)), p, g)


def _fit(values: np.ndarray, m: int, seed: int, kind: str) -> NystromFactor:
    landmarks = _landmarks(values.shape[0], m, seed)
    return _factor(values[:, landmarks], landmarks, kind)


def nystrom_fit(kernel, m: int, seed: int = 0) -> NystromFactor:
    """Factor a kernel matrix from m uniformly sampled landmark columns."""
    return _fit(kernel.values, m, seed, "kernel")


def double_center(d_values: np.ndarray) -> np.ndarray:
    """S = -1/2 J D J with J = I - 11^T/N; Gram matrix of any Euclidean embedding of D.

    Written in row blocks, so S is the only N x N array made; each entry is
    -1/2 (((D_ij - r_i) - r_j) + t), r the row means and t their mean, as the
    dense formula rounds it.
    """
    row = d_values.mean(axis=1)
    total = row.mean()
    s = np.empty_like(d_values)
    for rows in _row_blocks(row.shape[0]):
        block = s[rows]
        np.subtract(d_values[rows], row[rows, None], out=block)
        block -= row[None, :]
        block += total
        block *= -0.5
    return s


def _centered_columns(d_values: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """double_center(d_values)[:, cols], bit for bit, without the N x N S:
    the same elementwise expression, evaluated on the m columns only."""
    row = d_values.mean(axis=1)
    c = d_values[:, cols]
    c -= row[:, None]
    c -= row[None, cols]
    c += row.mean()
    c *= -0.5
    return c


def nystrom_fit_dissimilarity(dismatrix, m: int, seed: int = 0) -> NystromFactor:
    """Factor a dissimilarity matrix via its double-centered Gram form.

    The implied reconstruction is D~_ij = g_i + g_j - 2 S~_ij, which has an
    exactly zero diagonal; for non-Euclidean D the indefinite part is
    truncated by DEFAULT_RANK_TOL and reconstruction error is a diagnostic, not a
    bounded quantity. Only the m landmark columns of S are formed: O(N^2)
    reads for the row means, O(N m) memory.
    """
    d = dismatrix.values
    landmarks = _landmarks(d.shape[0], m, seed)
    return _factor(_centered_columns(d, landmarks), landmarks, "dissimilarity")


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


def sample_reconstruction_error(factor: NystromFactor, original: np.ndarray, seed: int = 0) -> dict:
    """Mean/max absolute entrywise error on RECONSTRUCTION_SAMPLES random (i, j) pairs.

    `original` is the matrix the factor was fit to approximate: the kernel
    for kind=kernel, the dissimilarity for kind=dissimilarity.
    """
    rng = np.random.default_rng(seed)
    i = rng.integers(0, factor.n, size=RECONSTRUCTION_SAMPLES)
    j = rng.integers(0, factor.n, size=RECONSTRUCTION_SAMPLES)
    cross = np.einsum("sm,sm->s", factor.p_block[i], factor.c_block[j])
    if factor.kind == "dissimilarity":
        approx = factor.g[i] + factor.g[j] - 2.0 * cross
        approx[i == j] = 0.0
    else:
        approx = cross
    err = np.abs(original[i, j] - approx)
    return {"samples": RECONSTRUCTION_SAMPLES, "mean_abs_error": float(err.mean()),
            "max_abs_error": float(err.max())}


class _LandmarkState:
    """Engine view of the reconstruction K~ = C W+ C^T, for _train_online and
    _train_batch.

    The state is U = A C (K x m): a presentation of point i blends C[i] into
    it, the cross term (K~ a_k)_i is U[k] . P[i] and the diagonal is g, so
    one presentation reads m numbers per unit instead of N. A batch state
    builds U from per-unit sums of the rows of C.
    """

    kernel_form = True  # distances g_i - 2 (K~ a_k)_i + a_k^T K~ a_k
    sums = None  # C is only N x m: block makes a fresh pass every time

    def __init__(self, factor: NystromFactor):
        self.factor = factor
        self.rows = factor.c_block
        self.diag = factor.g

    def exact(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """U = A C and q_k = u_k^T W+ u_k, formed as approx_relational_distances does."""
        u = self.rows.T @ a.T  # m x K
        return u.T, np.einsum("mk,mk->k", u, self.factor.w_pinv @ u)

    def block(self, c: np.ndarray, weights: np.ndarray, points=slice(None), fresh=False):
        """exact() for the rows a_k with a_k[points[j]] = weights[k, c[j]] and zero
        elsewhere: U = A C from the per-group row sums of C, O(N m + K L m).
        Every pass is fresh, whatever fresh says."""
        u = (weights @ unit_row_sums(self.rows[points], c, weights.shape[1])).T  # m x K
        return u.T, np.einsum("mk,mk->k", u, self.factor.w_pinv @ u)

    def dense(self, a: np.ndarray) -> np.ndarray:
        return approx_relational_distances(self.factor, a)

    def resync(self, carried, u: np.ndarray) -> tuple[np.ndarray, float]:
        """An online epoch carries U: the exact U and the drift of the
        carried one from it (0 at the start, when nothing is carried yet)."""
        return u, 0.0 if carried is None else _drift(carried, u)

    def cross(self, u: np.ndarray, a: np.ndarray, i: int) -> np.ndarray:
        return u @ self.factor.p_block[i]

    def blend(self, u: np.ndarray, keep: np.ndarray, pull: np.ndarray, i: int) -> None:
        """Blend C[i] into U as the update blends e_i into A, O(K m)."""
        u *= keep[:, None]
        u += pull[:, None] * self.rows[i]

    def cross_all(self, u: np.ndarray) -> np.ndarray:
        return (self.factor.p_block @ u.T).T


def train_batch_approx(
    factor: NystromFactor,
    lattice: Lattice,
    schedule: Schedule,
    stop_on_stable_assignment: bool = True,
) -> CoefficientSOMResult:
    """Batch relational SOM with all distances served by the factor."""
    return _train_batch(_LandmarkState(factor), lattice, schedule, stop_on_stable_assignment)


def train_online_approx(
    factor: NystromFactor,
    lattice: Lattice,
    schedule: Schedule,
    init_mode: str = "indicator",
) -> CoefficientSOMResult:
    """Stochastic relational SOM whose distances cost O(K m) per presentation."""
    return _train_online(_LandmarkState(factor), lattice, schedule, init_mode)
