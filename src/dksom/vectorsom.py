"""Classic self-organizing map on vector data.

This is the reference implementation the dissimilarity-based variants are
checked against: on squared Euclidean distances the relational trainers must
reproduce these prototypes and assignment sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import DEFAULT_SIGMA_END, DecaySchedule, Lattice, default_sigma_start

# below this total neighborhood weight a unit's update is skipped
EMPTY_UNIT_WEIGHT = 1e-300


@dataclass
class VectorSOMResult:
    prototypes: np.ndarray  # K x p
    assignments: np.ndarray  # N, best unit per point under final prototypes
    assignment_trace: np.ndarray  # T x N, assignments used at each step (batch) or per epoch (online)
    energy_trace: np.ndarray  # T
    lattice: Lattice
    final_sigma: float  # neighborhood radius of the last iteration or epoch


def squared_distances_to_prototypes(points: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    """N x K matrix of squared Euclidean distances."""
    sq_x = np.einsum("ij,ij->i", points, points)
    sq_m = np.einsum("kj,kj->k", prototypes, prototypes)
    return sq_x[:, None] + sq_m[None, :] - 2.0 * (points @ prototypes.T)


def bmu_vector(x: np.ndarray, prototypes: np.ndarray) -> int:
    """Index of the unit nearest to x; ties go to the smallest index."""
    diff = prototypes - x
    return int(np.argmin(np.einsum("kj,kj->k", diff, diff)))


def map_energy(dist: np.ndarray, assignments: np.ndarray, h: np.ndarray) -> float:
    """Neighborhood-weighted quantization energy sum_i sum_k h[c_i, k] dist[i, k]."""
    return float(np.sum(h[assignments] * dist))


def _init_prototypes(points: np.ndarray, n_units: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    if n_units > n:
        raise ValueError(f"cannot seed {n_units} units from {n} points without replacement")
    idx = rng.choice(n, size=n_units, replace=False)
    return points[idx].copy()


def train_batch(
    dataset,
    lattice: Lattice,
    n_iter: int = 50,
    sigma_start: float | None = None,
    sigma_end: float = DEFAULT_SIGMA_END,
    sigma_mode: str = "exponential_decay",
    seed: int = 0,
) -> VectorSOMResult:
    """Batch SOM: alternate best-unit assignment and neighborhood-weighted means.

    Prototypes are seeded from a without-replacement draw of data points.
    Iteration t records the assignments and energy computed *before* the
    prototype update, so trace entry t describes the map entering step t.
    Always runs the full n_iter iterations.
    """
    x = dataset.points
    k = lattice.n_units
    if sigma_start is None:
        sigma_start = default_sigma_start(lattice)
    sigmas = DecaySchedule(sigma_start, sigma_end, n_iter, sigma_mode).values()
    rng = np.random.default_rng(seed)
    m = _init_prototypes(x, k, rng)

    trace = np.empty((n_iter, x.shape[0]), dtype=np.int64)
    energies = np.empty(n_iter)
    for t in range(n_iter):
        h = lattice.neighborhood(sigmas[t])
        dist = squared_distances_to_prototypes(x, m)
        c = np.argmin(dist, axis=1)
        trace[t] = c
        energies[t] = map_energy(dist, c, h)
        w = h[:, c]  # w[k, i] = h(k, c_i)
        denom = w.sum(axis=1)
        alive = denom > EMPTY_UNIT_WEIGHT
        m[alive] = (w[alive] @ x) / denom[alive, None]

    final = np.argmin(squared_distances_to_prototypes(x, m), axis=1)
    return VectorSOMResult(m, final, trace, energies, lattice, float(sigmas[-1]))


def train_online(
    dataset,
    lattice: Lattice,
    n_epochs: int = 20,
    sigma_start: float | None = None,
    sigma_end: float = DEFAULT_SIGMA_END,
    sigma_mode: str = "exponential_decay",
    eps_start: float = 0.5,
    eps_end: float = 0.01,
    seed: int = 0,
) -> VectorSOMResult:
    """Stochastic SOM: one random point per step, all prototypes pulled toward it.

    sigma and the learning rate are held fixed within an epoch (N random
    presentations, drawn with replacement) and decay geometrically across
    epochs. Energy is evaluated once per epoch after its updates.
    """
    x = dataset.points
    n, k = x.shape[0], lattice.n_units
    if sigma_start is None:
        sigma_start = default_sigma_start(lattice)
    sigmas = DecaySchedule(sigma_start, sigma_end, n_epochs, sigma_mode).values()
    epsilons = DecaySchedule(eps_start, eps_end, n_epochs).values()
    rng = np.random.default_rng(seed)
    m = _init_prototypes(x, k, rng)

    trace = np.empty((n_epochs, n), dtype=np.int64)
    energies = np.empty(n_epochs)
    for e in range(n_epochs):
        h = lattice.neighborhood(sigmas[e])
        eps = epsilons[e]
        order = rng.integers(0, n, size=n)
        for i in order:
            c = bmu_vector(x[i], m)
            m += (eps * h[:, c])[:, None] * (x[i] - m)
        dist = squared_distances_to_prototypes(x, m)
        trace[e] = np.argmin(dist, axis=1)
        energies[e] = map_energy(dist, trace[e], h)

    final = np.argmin(squared_distances_to_prototypes(x, m), axis=1)
    return VectorSOMResult(m, final, trace, energies, lattice, float(sigmas[-1]))
