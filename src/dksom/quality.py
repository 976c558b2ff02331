"""Quantization/clustering criteria, identity checks, and U-matrix export.

The two costs coincide on squared-Euclidean data (weighted Konig-Huygens
identity) and the clustering cost is bounded by twice the quantization cost
whenever D obeys the triangle inequality. The dissimilarity algorithms lean
on both: verify_koenig_huygens checks the first, triangle_bound_sides gives
the two sides of the second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice
from .relsom import unit_row_sums
from .vectorsom import map_energy

NEIGHBOR_SQDIST = 1.0 + 1e-9  # lattice 4-neighborhood (6 on hexagonal grids)
KH_REL_TOL = 1e-9  # relative gap verify_koenig_huygens accepts between its two sides


@dataclass(frozen=True)
class CriterionReport:
    quantization_cost: float
    clustering_cost: float
    per_unit_sizes: np.ndarray  # sum_i h(k, c_i) per unit


def quantization_cost(d_values: np.ndarray, protos, assignments: np.ndarray, h: np.ndarray) -> float:
    """sum_k sum_i h(k, c_i) d(x_i, m_k) for median (index) or coefficient prototypes.

    d_values must be symmetric: median distances are read from its rows.
    """
    protos = np.asarray(protos)
    if protos.ndim == 1:
        dist = np.ascontiguousarray(d_values[protos.astype(np.int64)].T)
    else:
        from .relsom import relational_distances

        dist = relational_distances(d_values, protos)
    return map_energy(dist, assignments, h)


def clustering_cost(d_values: np.ndarray, assignments: np.ndarray, h: np.ndarray) -> float:
    """1/2 sum_k (sum_i h_{k c_i})^-1 sum_{i,j} h_{k c_i} h_{k c_j} D_ij.

    Computed as 1/2 sum_k (h Q h^T)_kk / n_k from the block sums
    Q_lm = sum_{i in C_l, j in C_m} D_ij and n_k = sum_l h_kl |C_l|: one pass
    over D (unit_row_sums) plus O(N K + K^3). Units with zero total weight
    are skipped (contribute 0); per_unit sizes in criterion_report expose them.
    """
    k = h.shape[0]
    blocks_t = unit_row_sums(unit_row_sums(d_values, assignments, k).T, assignments, k)  # Q^T
    sizes = h @ np.bincount(assignments, minlength=k)
    quad = np.einsum("kl,ml,km->k", h, blocks_t, h)
    alive = sizes > 0.0
    return float(0.5 * np.sum(quad[alive] / sizes[alive]))


def vector_clustering_cost(points: np.ndarray, assignments: np.ndarray, h: np.ndarray) -> float:
    """clustering_cost on the squared Euclidean D of points, read from the points.

    By the weighted Konig-Huygens identity, unit k's term is the scatter of
    its weighted points about their barycenter b_k, which splits over the
    clusters C_l as sum_l h_kl (S_l + |C_l| |mu_l - b_k|^2), S_l the scatter
    of C_l about its mean mu_l: O(N p + K^2 p) and no N x N matrix. Every
    term squares a difference of points or means, never takes a difference
    of squares, so data far from the origin keeps its digits. Units with
    zero total weight contribute 0.
    """
    k = h.shape[0]
    counts = np.bincount(assignments, minlength=k).astype(float)
    means = unit_row_sums(points, assignments, k) / np.maximum(counts, 1.0)[:, None]
    resid = points - means[assignments]
    scatter = np.bincount(assignments, weights=np.einsum("ip,ip->i", resid, resid), minlength=k)
    sizes = h @ counts
    total = 0.0
    for unit in np.flatnonzero(sizes > 0.0):
        weights = h[unit] * counts
        gap = means - weights @ means / sizes[unit]
        total += h[unit] @ scatter + weights @ np.einsum("lp,lp->l", gap, gap)
    return float(total)


def criterion_report(d_values: np.ndarray, protos, assignments: np.ndarray, h: np.ndarray,
                     distances: np.ndarray | None = None) -> CriterionReport:
    """Both costs and the unit sizes; distances, when given, are the N x K
    relational distances to protos, and the quantization cost reads them
    instead of computing its own."""
    return CriterionReport(
        quantization_cost=(quantization_cost(d_values, protos, assignments, h)
                           if distances is None else map_energy(distances, assignments, h)),
        clustering_cost=clustering_cost(d_values, assignments, h),
        per_unit_sizes=h[:, assignments].sum(axis=1),
    )


def verify_koenig_huygens(dataset, weights) -> bool:
    """Weighted variance about the barycenter vs normalized pairwise double sum.

    Both sides are evaluated independently; returns |lhs - rhs| <= KH_REL_TOL*(1+|rhs|).
    """
    x = dataset.points
    beta = np.asarray(weights, dtype=float)
    if beta.ndim != 1 or beta.shape[0] != x.shape[0]:
        raise ValueError("weights must be one value per point")
    if np.any(beta <= 0.0):
        raise ValueError("weights must be positive")
    total = beta.sum()
    bary = (beta @ x) / total
    diff = x - bary
    lhs = float(beta @ np.einsum("ij,ij->i", diff, diff))
    sq = np.einsum("ij,ij->i", x, x)
    pair = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    rhs = float(beta @ pair @ beta / (2.0 * total))
    return abs(lhs - rhs) <= KH_REL_TOL * (1.0 + abs(rhs))


def triangle_bound_sides(d_values: np.ndarray, weights) -> tuple[float, float]:
    """(normalized pairwise cost, best single-point cost) for weight vector beta.

    The first is 1/2 (sum beta)^-1 sum_ij beta_i beta_j D_ij; the second is
    min over candidate points m of sum_j beta_j D_jm. For metric D the first
    never exceeds the second; non-metric D can flip the order.
    """
    beta = np.asarray(weights, dtype=float)
    if np.any(beta < 0.0) or beta.sum() <= 0.0:
        raise ValueError("weights must be nonnegative with positive sum")
    lhs = float(beta @ d_values @ beta / (2.0 * beta.sum()))
    rhs = float(np.min(beta @ d_values))
    return lhs, rhs


def prototype_distance_matrix(d_values: np.ndarray, protos) -> np.ndarray:
    """K x K pairwise prototype dissimilarities.

    Median prototypes (index vector): plain submatrix of D. Coefficient
    prototypes: -1/2 (a_k - a_l)^T D (a_k - a_l), which may be negative on
    indefinite D.
    """
    protos = np.asarray(protos)
    if protos.ndim == 1:
        idx = protos.astype(np.int64)
        return d_values[np.ix_(idx, idx)]
    g = protos @ d_values @ protos.T
    diag = np.diag(g)
    return g - 0.5 * diag[:, None] - 0.5 * diag[None, :]


def umatrix_from_pairwise(pairwise: np.ndarray, lattice: Lattice) -> np.ndarray:
    """rows x cols grid: mean prototype dissimilarity to adjacent lattice units."""
    adj = lattice.squared_distances <= NEIGHBOR_SQDIST
    np.fill_diagonal(adj, False)
    counts = adj.sum(axis=1)
    vals = np.where(counts > 0, (pairwise * adj).sum(axis=1) / np.maximum(counts, 1), 0.0)
    return vals.reshape(lattice.rows, lattice.cols)


def umatrix(protos, d_values: np.ndarray, lattice: Lattice) -> np.ndarray:
    return umatrix_from_pairwise(prototype_distance_matrix(d_values, protos), lattice)


def save_umatrix_csv(grid: np.ndarray, path) -> None:
    from .dismat import save_matrix

    save_matrix(grid, path)


def save_umatrix_pgm(grid: np.ndarray, path) -> None:
    """8-bit ASCII PGM, min-max normalized; a flat grid maps to all-zero."""
    lo = float(grid.min())
    hi = float(grid.max())
    if hi > lo:
        pixels = np.rint((grid - lo) / (hi - lo) * 255.0).astype(int)
    else:
        pixels = np.zeros_like(grid, dtype=int)
    rows, cols = grid.shape
    with open(path, "w") as fh:
        fh.write(f"P2\n{cols} {rows}\n255\n")
        for r in range(rows):
            fh.write(" ".join(str(int(v)) for v in pixels[r]))
            fh.write("\n")
