"""Output checks for one finished job, in plain NumPy.

Each check returns a list of failure reasons; an empty list means the job's
outputs are correct. Distances are recomputed here from the generated
input arrays, independently of the package's distance routines.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

ROW_SUM_TOL = 1e-12
TIE_REL_TOL = 1e-9


def _load(path: Path, dtype=float) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", dtype=dtype, ndmin=2)


def _coefficient_rows(coef: np.ndarray, k: int, n: int) -> list[str]:
    if coef.shape != (k, n):
        return [f"coefficients have shape {coef.shape}, expected {(k, n)}"]
    errors = []
    row_err = float(np.max(np.abs(coef.sum(axis=1) - 1.0)))
    if row_err > ROW_SUM_TOL:
        errors.append(f"coefficient row sum off by {row_err:.3e}")
    if coef.min() < 0.0 or coef.max() > 1.0:
        errors.append(f"coefficients outside [0, 1]: [{coef.min()!r}, {coef.max()!r}]")
    return errors


def _argmin_with_ties(dist: np.ndarray, assigned: np.ndarray) -> list[str]:
    """Each assigned unit is a nearest one, up to a relative 1e-9 tie."""
    picked = dist[np.arange(dist.shape[0]), assigned]
    gap = picked - dist.min(axis=1)
    bad = np.flatnonzero(gap > TIE_REL_TOL * np.abs(dist).max(axis=1))
    if bad.size:
        i = int(bad[0])
        return [f"{bad.size} assignments are not the argmin; point {i} took unit "
                f"{int(assigned[i])} at {picked[i]!r}, best {dist[i].min()!r}"]
    return []


def relational_distances(d: np.ndarray, coef: np.ndarray) -> np.ndarray:
    g = d @ coef.T  # N x K, (D a_k)_i
    return g - 0.5 * np.einsum("nk,nk->k", coef.T, g)[None, :]


def kernel_distances(kmat: np.ndarray, coef: np.ndarray) -> np.ndarray:
    g = kmat @ coef.T
    return np.diag(kmat)[:, None] - 2.0 * g + np.einsum("nk,nk->k", coef.T, g)[None, :]


def check_job(check: str, outdir: Path, arrays: dict, n: int, k: int) -> list[str]:
    """check names the job's output contract; arrays holds the inputs used."""
    try:
        assigned = _load(outdir / "assignment.txt", np.int64).ravel()
        json.loads((outdir / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    if assigned.shape != (n,):
        return [f"assignment.txt has {assigned.size} entries, expected {n}"]
    if assigned.min() < 0 or assigned.max() >= k:
        return [f"assignments outside [0, {k})"]

    if check in ("relational", "kernel", "landmark", "stmp"):
        coef = _load(outdir / "coefficients.csv")
        errors = _coefficient_rows(coef, k, n)
        if errors:
            return errors
        if check == "relational":
            return _argmin_with_ties(relational_distances(arrays["d"], coef), assigned)
        if check == "kernel":
            return _argmin_with_ties(kernel_distances(arrays["k"], coef), assigned)
        if check == "stmp":
            gamma = _load(outdir / "gamma.csv")
            if not np.array_equal(assigned, np.argmax(gamma, axis=1)):
                return ["STMP assignments differ from the argmax of gamma.csv"]
        return []
    if check == "median":
        protos = _load(outdir / "prototype_indices.txt", np.int64).ravel()
        if np.unique(protos).size != k:
            return [f"median prototypes are not distinct: {np.unique(protos).size} of {k}"]
        own = assigned[protos]
        alive = np.isin(np.arange(k), assigned)
        if np.any(own[alive] != np.arange(k)[alive]):
            return ["a non-empty median unit does not contain its own prototype"]
        return _argmin_with_ties(arrays["d"][:, protos], assigned)
    if check == "classic":
        protos = _load(outdir / "prototypes.csv")
        x = arrays["x"]
        dist = ((x[:, None, :] - protos[None, :, :]) ** 2).sum(axis=2)
        return _argmin_with_ties(dist, assigned)
    raise ValueError(f"unknown check {check!r}")
