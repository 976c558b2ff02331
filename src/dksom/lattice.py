"""Map lattice geometry, Gaussian neighborhood weights, and the training
schedule every SOM trainer shares (Schedule)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def grid_coordinates(rows: int, cols: int, topology: str = "rectangular") -> np.ndarray:
    """Planar (x, y) positions of the K = rows*cols units, row-major order.

    Rectangular lattices sit on integer coordinates. Hexagonal lattices shift
    odd rows by half a cell horizontally and compress row spacing to sqrt(3)/2
    so each interior unit has six equidistant neighbours.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"grid must be at least 1x1, got {rows}x{cols}")
    r, c = np.divmod(np.arange(rows * cols), cols)
    x = c.astype(float)
    y = r.astype(float)
    if topology == "hexagonal":
        x = x + 0.5 * (r % 2)
        y = y * (np.sqrt(3.0) / 2.0)
    elif topology != "rectangular":
        raise ValueError(f"unknown topology {topology!r}")
    return np.column_stack([x, y])


@dataclass(frozen=True)
class Lattice:
    """A fixed map grid with precomputed squared inter-unit distances."""

    rows: int
    cols: int
    topology: str = "rectangular"

    def __post_init__(self):
        coords = grid_coordinates(self.rows, self.cols, self.topology)
        coords.setflags(write=False)
        diff = coords[:, None, :] - coords[None, :, :]
        sq = np.einsum("klx,klx->kl", diff, diff)
        sq.setflags(write=False)
        object.__setattr__(self, "positions", coords)
        object.__setattr__(self, "_sqdist", sq)

    @property
    def n_units(self) -> int:
        return self.rows * self.cols

    @property
    def squared_distances(self) -> np.ndarray:
        return self._sqdist

    def neighborhood(self, sigma: float) -> np.ndarray:
        """K x K matrix h_kl = exp(-||r_k - r_l||^2 / (2 sigma^2)).

        Weights below the smallest normal double are flushed to 0: subnormal
        weights would carry into the coefficients, where every product that
        reads them runs far slower. N of them sum to N * 2.2e-308, below
        vectorsom.EMPTY_UNIT_WEIGHT (1e-300) for any N under 4e7, so no
        trainer's decision to skip a unit as empty changes. The diagonal is
        1 even where 2 sigma^2 rounds to 0 and the formula reads 0/0 there.
        """
        if sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        if not np.isfinite(sigma):
            raise ValueError(f"sigma must be finite, got {sigma}")
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            h = np.exp(self._sqdist / (-2.0 * sigma * sigma))
        np.fill_diagonal(h, 1.0)
        h[h < np.finfo(float).tiny] = 0.0
        return h


def default_sigma_start(lattice: Lattice) -> float:
    """Half the lattice diameter, so early neighborhoods span the whole map."""
    diameter = float(np.sqrt(lattice.squared_distances.max()))
    return diameter / 2.0 if diameter > 0.0 else 1.0


DEFAULT_SIGMA_END = 0.3


def _decay(start: float, final: float, steps: int, mode: str = "exponential_decay") -> np.ndarray:
    """Per-step radius or learning-rate values for Schedule: exponential_decay
    interpolates geometrically from start to final; fixed repeats start."""
    if start <= 0.0 or final <= 0.0:
        raise ValueError(f"schedule endpoints must be positive, got {start} -> {final}")
    if final > start:
        raise ValueError(f"schedule must be non-increasing, got {start} -> {final}")
    if not (np.isfinite(start) and np.isfinite(final)):
        raise ValueError(f"schedule endpoints must be finite, got {start} -> {final}")
    if mode not in ("exponential_decay", "fixed"):
        raise ValueError(f"unknown schedule mode {mode!r}")
    if mode == "fixed" or steps == 1:
        return np.array([start] * steps)
    return np.array([float(start * (final / start) ** (t / (steps - 1))) for t in range(steps)])


@dataclass(frozen=True)
class Schedule:
    """What every trainer shares: its step count, sigma(t), eps(t) and seed.

    steps counts batch iterations or online epochs and must be at least 1,
    which construction checks, so that every family rejects a run without
    steps alike. sigma_start=None means default_sigma_start(lattice). The
    values are checked when a trainer asks for them: sigmas() and epsilons()
    validate, and only the online trainers ask for epsilons.
    """

    steps: int
    sigma_start: float | None = None
    sigma_end: float = DEFAULT_SIGMA_END
    sigma_mode: str = "exponential_decay"
    eps_start: float = 0.5
    eps_end: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"schedule needs at least one step, got steps={self.steps}")

    def sigmas(self, lattice: Lattice) -> np.ndarray:
        start = default_sigma_start(lattice) if self.sigma_start is None else self.sigma_start
        return _decay(start, self.sigma_end, self.steps, self.sigma_mode)

    def epsilons(self) -> np.ndarray:
        """Exponential decay whatever sigma_mode is. eps_start must not exceed 1,
        so that an online update stays a convex blend; the decay checks come
        first, so an input they reject keeps its message."""
        values = _decay(self.eps_start, self.eps_end, self.steps)
        if self.eps_start > 1.0:
            raise ValueError(f"learning rate must not exceed 1, got eps_start={self.eps_start}")
        return values
