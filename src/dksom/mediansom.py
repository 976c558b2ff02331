"""Median SOM: every prototype is one of the observations.

The batch update picks, for unit k, the data index minimizing
sum_i h(k, c_i) D[i, j] over candidates j (a neighborhood-weighted
generalized median). Because several units can elect the same observation,
an explicit collision-resolution pass keeps prototype indices distinct
whenever K <= N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, Schedule
from .relsom import BlockSums, _batch_loop, unit_row_sums


@dataclass
class MedianSOMResult:
    prototype_indices: np.ndarray  # K, data indices
    assignments: np.ndarray  # N
    assignment_trace: np.ndarray  # T x N
    energy_trace: np.ndarray  # T
    lattice: Lattice
    final_sigma: float  # neighborhood radius of the last recorded iteration
    collisions_detected: int = 0  # units whose unconstrained choice collided, summed over iterations
    collisions_unresolved: int = 0  # duplicate prototypes left at the end (only when K > N)
    stopped_early: bool = False
    block_sum_passes: dict | None = None  # {"fresh": passes over D, "delta": carried updates}


def median_costs(d_values: np.ndarray, assignments: np.ndarray, h: np.ndarray,
                 sums: BlockSums | None = None) -> np.ndarray:
    """K x N election costs  cost[k, j] = sum_i h(k, c_i) D[i, j].

    Naively this is a K x N x N contraction. Grouping rows of D by their
    assigned unit first (S = unit_row_sums, the sums the batch coefficient
    trainers use too) costs one pass over D (N^2 adds), and the contraction
    collapses to h @ S at N K^2 multiplies. sums, a BlockSums over d_values,
    carries S from the previous call instead: O(m N) when m points moved.
    """
    k = h.shape[0]
    return h @ (unit_row_sums(d_values, assignments, k) if sums is None else sums(assignments, k))


def resolve_collisions(costs: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Elect one data index per unit, keeping indices distinct while possible.

    Units are processed by decreasing regret (gap between their two cheapest
    candidates, unit index breaking ties) and each takes its cheapest
    still-unused index: a unit that would pay dearly for switching picks
    before one that is nearly indifferent. Once every index is taken
    (K > N), leftover units fall back to their unconstrained optimum and are
    counted as unresolved.

    Returns (indices, n_detected, n_unresolved).
    """
    k, n = costs.shape
    raw = np.argmin(costs, axis=1)
    detected = k - np.count_nonzero(np.bincount(raw, minlength=n))
    if detected == 0:
        return raw, 0, 0
    if n >= 2:
        two = np.partition(costs, 1, axis=1)
        regret = two[:, 1] - two[:, 0]
    else:
        regret = np.full(k, np.inf)
    order = np.lexsort((np.arange(k), -regret))
    result = np.empty(k, dtype=np.int64)
    used = np.zeros(n, dtype=bool)
    taken = 0
    for unit in order:
        if taken == n:
            result[unit] = raw[unit]
            continue
        masked = np.where(used, np.inf, costs[unit])
        choice = int(np.argmin(masked))
        result[unit] = choice
        used[choice] = True
        taken += 1
    unresolved = k - np.count_nonzero(np.bincount(result, minlength=n))
    return result, detected, unresolved


def median_update(
    d_values: np.ndarray, assignments: np.ndarray, h: np.ndarray,
    sums: BlockSums | None = None,
) -> tuple[np.ndarray, int, int]:
    """One full prototype election: costs, argmin, collision resolution."""
    return resolve_collisions(median_costs(d_values, assignments, h, sums))


def train_batch_median(
    dismatrix,
    lattice: Lattice,
    schedule: Schedule,
    stop_on_stable_assignment: bool = True,
) -> MedianSOMResult:
    """Batch median SOM on a dissimilarity matrix.

    Runs until the assignment repeats or schedule.steps is reached.
    Prototypes are seeded from a without-replacement draw when K <= N and
    with replacement otherwise (the run then necessarily carries duplicate
    prototypes, reported via collisions_unresolved). The election costs
    carry their block sums across iterations (BlockSums). D is symmetric, so
    the distances to the prototypes are read from its rows, which are
    contiguous, rather than from its columns.
    """
    d = dismatrix.values
    n, k = d.shape[0], lattice.n_units
    sums = BlockSums(d)
    run = _batch_loop(
        lattice, schedule, stop_on_stable_assignment,
        lambda rng: rng.choice(n, size=k, replace=k > n),
        lambda protos, last: np.ascontiguousarray(d[protos].T),
        lambda protos, c, h: median_update(d, c, h, sums)[:2],
    )
    return MedianSOMResult(
        run.state, run.assignments, run.trace, run.energies, lattice, run.final_sigma,
        run.events, k - np.count_nonzero(np.bincount(run.state, minlength=n)), run.stopped,
        dict(sums.passes),
    )
