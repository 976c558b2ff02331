"""Seeded input files for the benchmark, written with plain NumPy.

The package's own writer is deliberately not used, so a later change to
``dksom.dismat.save_matrix`` cannot change what the benchmark feeds in.
Every matrix is built entry by entry from coordinate differences, which
makes it exactly symmetric with an exact diagonal; ``%.17g`` round-trips
every double, so the arrays kept in memory are bit-identical to what the
program parses and the output checks can use them as the reference.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

N_BLOBS = 5
CENTER_RANGE = 10.0
# The blob centres are the same for every seed; the seed draws the points.
# With seeded centres the amount of work moved with the seed (STMP's
# mean-field calls by 60% across five seeds), on top of the host's noise.
CENTER_SEED = 0x5011
RBF_WIDTH = 5.0  # ~intra-blob distance; cross-blob kernel entries ~1e-3


def blobs(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n points from N_BLOBS unit-variance Gaussian blobs in R^dim."""
    centers = np.random.default_rng(CENTER_SEED).uniform(
        -CENTER_RANGE, CENTER_RANGE, size=(N_BLOBS, dim))
    labels = rng.integers(0, N_BLOBS, size=n)
    return centers[labels] + rng.standard_normal((n, dim))


def _coordinate_sum(x: np.ndarray, term) -> np.ndarray:
    out = np.zeros((x.shape[0], x.shape[0]))
    for j in range(x.shape[1]):
        out += term(x[:, None, j] - x[None, :, j])
    return out


def l1_dissimilarity(x: np.ndarray) -> np.ndarray:
    """Manhattan distances: a metric, but not squared-Euclidean (non-Euclidean D)."""
    return _coordinate_sum(x, np.abs)


def squared_distances(x: np.ndarray) -> np.ndarray:
    return _coordinate_sum(x, np.square)


def rbf_kernel(x: np.ndarray, width: float = RBF_WIDTH) -> np.ndarray:
    return np.exp(squared_distances(x) / (-2.0 * width * width))


def write_csv(values: np.ndarray, path: Path) -> dict:
    """Write values as CSV and describe the file: N, bytes and SHA-256."""
    np.savetxt(path, values, fmt="%.17g", delimiter=",")
    data = path.read_bytes()
    return {
        "file": path.name,
        "n": int(values.shape[0]),
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def make_inputs(seed: int, files: dict, outdir: Path) -> tuple[dict, list]:
    """Generate the requested files; returns (arrays by name, file records).

    ``files`` maps a file name to (kind, n, dim) with kind one of
    "l1", "rbf" (both from the same points when n and dim agree) and
    "vectors". The vectors' squared distances are kept under "<name>:d".
    """
    rng = np.random.default_rng(seed)
    points: dict[tuple[int, int], np.ndarray] = {}
    arrays: dict[str, np.ndarray] = {}
    records = []
    for name in sorted(files):
        kind, n, dim = files[name]
        if (n, dim) not in points:
            points[(n, dim)] = blobs(rng, n, dim)
        x = points[(n, dim)]
        if kind == "l1":
            values = l1_dissimilarity(x)
        elif kind == "rbf":
            values = rbf_kernel(x)
        elif kind == "vectors":
            values = x
            arrays[name + ":d"] = squared_distances(x)
        else:
            raise ValueError(f"unknown input kind {kind!r}")
        arrays[name] = values
        records.append(write_csv(values, outdir / name))
    return arrays, records
