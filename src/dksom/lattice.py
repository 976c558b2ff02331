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
        """K x K matrix h_kl = exp(-||r_k - r_l||^2 / (2 sigma^2))."""
        if sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        if not np.isfinite(sigma):
            raise ValueError(f"sigma must be finite, got {sigma}")
        return np.exp(self._sqdist / (-2.0 * sigma * sigma))


def default_sigma_start(lattice: Lattice) -> float:
    """Half the lattice diameter, so early neighborhoods span the whole map."""
    diameter = float(np.sqrt(lattice.squared_distances.max()))
    return diameter / 2.0 if diameter > 0.0 else 1.0


DEFAULT_SIGMA_END = 0.3


@dataclass(frozen=True)
class DecaySchedule:
    """Per-step radius or learning-rate values.

    exponential_decay interpolates geometrically from start to final;
    fixed repeats start. Used for sigma(t) and epsilon(t) alike.
    """

    start: float
    final: float
    t_max: int
    mode: str = "exponential_decay"

    def __post_init__(self):
        if self.t_max < 1:
            raise ValueError(f"schedule needs at least one step, got t_max={self.t_max}")
        if self.start <= 0.0 or self.final <= 0.0:
            raise ValueError(f"schedule endpoints must be positive, got {self.start} -> {self.final}")
        if self.final > self.start:
            raise ValueError(f"schedule must be non-increasing, got {self.start} -> {self.final}")
        if not (np.isfinite(self.start) and np.isfinite(self.final)):
            raise ValueError(f"schedule endpoints must be finite, got {self.start} -> {self.final}")
        if self.mode not in ("exponential_decay", "fixed"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")

    def value_at(self, t: int) -> float:
        if not 0 <= t < self.t_max:
            raise ValueError(f"step {t} outside schedule range [0, {self.t_max})")
        if self.mode == "fixed" or self.t_max == 1:
            return self.start
        return float(self.start * (self.final / self.start) ** (t / (self.t_max - 1)))

    def values(self) -> np.ndarray:
        return np.array([self.value_at(t) for t in range(self.t_max)])


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
        return DecaySchedule(start, self.sigma_end, self.steps, self.sigma_mode).values()

    def epsilons(self) -> np.ndarray:
        """Exponential decay whatever sigma_mode is. eps_start must not exceed 1,
        so that an online update stays a convex blend; DecaySchedule's own
        checks come first, so an input it rejects keeps its message."""
        values = DecaySchedule(self.eps_start, self.eps_end, self.steps).values()
        if self.eps_start > 1.0:
            raise ValueError(f"learning rate must not exceed 1, got eps_start={self.eps_start}")
        return values
