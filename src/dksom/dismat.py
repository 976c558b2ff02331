"""Data model, validation and file I/O for dissimilarity/kernel matrices and vector data.

All downstream algorithms consume either an N x N dissimilarity matrix D
(symmetric, nonnegative), an N x N kernel matrix K (symmetric, positive
semidefinite), or a raw N x p vector dataset. This module owns loading,
validation, symmetrization and the conversions between the three.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ASYMMETRY_TOL = 1e-9
ZERO_DIAG_TOL = 1e-12
PSD_REL_TOL = 1e-8
NEGATIVE_CONVERSION_TOL = 1e-9

# triple-sampling budget for the triangle-inequality report
MAX_METRIC_TRIPLES = 100_000
_METRIC_SAMPLE_SEED = 0x0D15  # fixed: validation reports must be deterministic


class MatrixFormatError(ValueError):
    """Structural problem with an input file: shape, missing cells, bad tokens."""


class MatrixValidationError(ValueError):
    """Numeric contract violation: asymmetry, negativity, non-PSD input."""


@dataclass(frozen=True)
class ValidationReport:
    """Diagnostic summary of a loaded matrix, never a hard gate by itself."""

    symmetric: bool
    max_asymmetry: float
    min_entry: float
    zero_diag: bool
    metric_violations: int
    ordering_violations: int
    psd_margin: float | None = None

    def as_dict(self) -> dict:
        return {
            "symmetric": self.symmetric,
            "max_asymmetry": self.max_asymmetry,
            "min_entry": self.min_entry,
            "zero_diag": self.zero_diag,
            "metric_violations": self.metric_violations,
            "ordering_violations": self.ordering_violations,
            "psd_margin": self.psd_margin,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


def _as_square(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise MatrixFormatError(f"{what} must be a square 2-D array, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise MatrixFormatError(f"{what} is empty")
    if not np.all(np.isfinite(arr)):
        raise MatrixValidationError(f"{what} contains non-finite entries")
    return arr


def _symmetrize(arr: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    asym = float(np.max(np.abs(arr - arr.T))) if arr.size else 0.0
    if asym > ASYMMETRY_TOL:
        raise MatrixValidationError(
            f"{what} asymmetry {asym:.3e} exceeds tolerance {ASYMMETRY_TOL:.0e}"
        )
    sym = 0.5 * (arr + arr.T)
    sym.setflags(write=False)
    return sym, asym


@dataclass(frozen=True)
class DissimilarityMatrix:
    """Symmetric nonnegative N x N matrix of pairwise dissimilarities.

    Immutable after construction; `zero_diag` records whether the diagonal
    vanishes (some guarantees, e.g. non-empty median units, rely on it).
    """

    values: np.ndarray
    zero_diag: bool
    max_asymmetry: float = 0.0

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @classmethod
    def from_array(cls, values) -> "DissimilarityMatrix":
        arr = _as_square(values, "dissimilarity matrix")
        if arr.min() < 0.0:
            i, j = np.unravel_index(int(np.argmin(arr)), arr.shape)
            raise MatrixValidationError(
                f"negative dissimilarity entry {arr[i, j]!r} at ({i}, {j})"
            )
        sym, asym = _symmetrize(arr, "dissimilarity matrix")
        zero_diag = bool(np.max(np.abs(np.diag(sym))) < ZERO_DIAG_TOL)
        return cls(values=sym, zero_diag=zero_diag, max_asymmetry=asym)


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric N x N similarity matrix; PSD is checked on demand, not at load."""

    values: np.ndarray
    max_asymmetry: float = 0.0

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @classmethod
    def from_array(cls, values) -> "KernelMatrix":
        arr = _as_square(values, "kernel matrix")
        sym, asym = _symmetrize(arr, "kernel matrix")
        return cls(values=sym, max_asymmetry=asym)

    def psd_margin(self) -> float:
        """Smallest eigenvalue (full symmetric eigendecomposition)."""
        return float(np.linalg.eigvalsh(self.values)[0])

    def check_psd(self) -> None:
        eigs = np.linalg.eigvalsh(self.values)
        scale = float(np.max(np.abs(eigs))) if eigs.size else 0.0
        if eigs[0] < -PSD_REL_TOL * scale:
            raise MatrixValidationError(
                f"kernel matrix is not positive semidefinite: "
                f"smallest eigenvalue {eigs[0]:.3e} (largest magnitude {scale:.3e})"
            )


@dataclass(frozen=True)
class VectorDataset:
    """N points in R^p, the classic-SOM input and the squared-Euclidean oracle source."""

    points: np.ndarray

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def p(self) -> int:
        return self.points.shape[1]

    @classmethod
    def from_array(cls, points) -> "VectorDataset":
        arr = np.asarray(points, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise MatrixFormatError(f"vector dataset must be a non-empty N x p array, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise MatrixValidationError("vector dataset contains non-finite entries")
        arr = arr.copy()
        arr.setflags(write=False)
        return cls(points=arr)


def _parse_csv_rows(path) -> list[list[float]]:
    rows: list[list[float]] = []
    width = None
    with open(path, newline="") as fh:
        for ln, raw in enumerate(csv.reader(fh), start=1):
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue  # blank line
            if ln == 1 and raw[0].lstrip().startswith("#"):
                continue  # single optional header line
            parsed = []
            for col, tok in enumerate(raw, start=1):
                try:
                    parsed.append(float(tok))
                except ValueError:
                    raise MatrixFormatError(
                        f"{path}: non-numeric value {tok.strip()!r} at line {ln}, column {col}"
                    ) from None
            if width is None:
                width = len(parsed)
            elif len(parsed) != width:
                raise MatrixFormatError(
                    f"{path}: line {ln} has {len(parsed)} columns, expected {width}"
                )
            rows.append(parsed)
    if not rows:
        raise MatrixFormatError(f"{path}: no data rows")
    return rows


def load_matrix(path, kind: str) -> DissimilarityMatrix | KernelMatrix:
    """Load a square matrix CSV and validate it as the requested kind.

    The file holds N rows x N columns of comma-separated reals, optionally
    preceded by one '#'-prefixed header line.
    """
    rows = _parse_csv_rows(path)
    arr = np.asarray(rows, dtype=float)
    if arr.shape[0] != arr.shape[1]:
        raise MatrixFormatError(
            f"{path}: non-square matrix ({arr.shape[0]} rows x {arr.shape[1]} columns)"
        )
    if kind == "dissimilarity":
        return DissimilarityMatrix.from_array(arr)
    if kind == "kernel":
        return KernelMatrix.from_array(arr)
    raise ValueError(f"unknown matrix kind {kind!r}")


def load_vectors(path) -> VectorDataset:
    """Load an N x p vector dataset CSV (no header)."""
    return VectorDataset.from_array(np.asarray(_parse_csv_rows(path), dtype=float))


def load_array(path) -> np.ndarray:
    """Load any rectangular numeric CSV (prototype files, weights, ...)."""
    return np.asarray(_parse_csv_rows(path), dtype=float)


def save_matrix(values: np.ndarray, path, header: str | None = None) -> None:
    """Write a matrix as CSV with shortest round-trip float formatting,
    after an optional '# header' line.

    load -> save -> load reproduces values bit for bit.
    """
    arr = np.asarray(values, dtype=float)
    with open(path, "w") as fh:
        if header is not None:
            fh.write(f"# {header}\n")
        for row in np.atleast_2d(arr):
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def save_vector(values, path) -> None:
    """One value per line (assignments, prototype indices)."""
    with open(path, "w") as fh:
        for v in np.asarray(values).ravel():
            if float(v).is_integer():
                fh.write(f"{int(v)}\n")
            else:
                fh.write(f"{repr(float(v))}\n")


def kernel_to_dissimilarity(kernel: KernelMatrix) -> DissimilarityMatrix:
    """Induced squared distance D_ij = K_ii + K_jj - 2 K_ij.

    The diagonal is exactly zero by construction. Entries below
    -NEGATIVE_CONVERSION_TOL signal a non-PSD kernel and raise; tiny negative
    round-off above that threshold is clamped to zero.
    """
    k = kernel.values
    diag = np.diag(k)
    d = diag[:, None] + diag[None, :] - 2.0 * k
    lowest = float(d.min())
    if lowest < -NEGATIVE_CONVERSION_TOL:
        raise MatrixValidationError(
            f"kernel-induced dissimilarity has negative entry {lowest:.3e}; "
            "input kernel is not positive semidefinite"
        )
    np.clip(d, 0.0, None, out=d)
    np.fill_diagonal(d, 0.0)
    d = 0.5 * (d + d.T)
    return DissimilarityMatrix.from_array(d)


def squared_euclidean(dataset: VectorDataset) -> DissimilarityMatrix:
    """Pairwise squared Euclidean distances, zero diagonal."""
    x = dataset.points
    sq = np.einsum("ij,ij->i", x, x)
    d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.clip(d, 0.0, None, out=d)
    np.fill_diagonal(d, 0.0)
    d = 0.5 * (d + d.T)  # gram products are not exactly symmetric
    return DissimilarityMatrix.from_array(d)


def _count_metric_violations(d: np.ndarray) -> int:
    """Sampled (or exhaustive, when cheap) count of D_ij > D_il + D_lj triples."""
    n = d.shape[0]
    slack = 1e-12 * (1.0 + np.abs(d))
    if n**3 <= MAX_METRIC_TRIPLES:
        total = 0
        for mid in range(n):
            bound = d[:, mid][:, None] + d[mid, :][None, :]
            total += int(np.count_nonzero(d > bound + slack))
        return total
    rng = np.random.default_rng(_METRIC_SAMPLE_SEED)
    i = rng.integers(0, n, MAX_METRIC_TRIPLES)
    j = rng.integers(0, n, MAX_METRIC_TRIPLES)
    mid = rng.integers(0, n, MAX_METRIC_TRIPLES)
    lhs = d[i, j]
    return int(np.count_nonzero(lhs > d[i, mid] + d[mid, j] + 1e-12 * (1.0 + np.abs(lhs))))


def _count_ordering_violations(d: np.ndarray) -> int:
    """Pairs where D_ii > D_ij: reported only, never enforced."""
    diag = np.diag(d)
    return int(np.count_nonzero(diag[:, None] > d + 1e-12 * (1.0 + np.abs(d))))


def validate(matrix: DissimilarityMatrix | KernelMatrix) -> ValidationReport:
    """Build the diagnostic report for an already-loaded matrix.

    For kernels the triangle/ordering statistics are computed on the induced
    dissimilarity (the object the checks are meaningful for), while symmetry,
    min entry, zero_diag and psd_margin describe the kernel itself.
    """
    v = matrix.values
    if isinstance(matrix, KernelMatrix):
        eigs = np.linalg.eigvalsh(v)
        induced = np.diag(v)[:, None] + np.diag(v)[None, :] - 2.0 * v
        np.fill_diagonal(induced, 0.0)
        metric = _count_metric_violations(induced)
        ordering = _count_ordering_violations(induced)
        psd_margin = float(eigs[0])
    else:
        metric = _count_metric_violations(v)
        ordering = _count_ordering_violations(v)
        psd_margin = None
    return ValidationReport(
        symmetric=True,  # symmetrized at construction
        max_asymmetry=matrix.max_asymmetry,
        min_entry=float(v.min()),
        zero_diag=bool(np.max(np.abs(np.diag(v))) < ZERO_DIAG_TOL),
        metric_violations=metric,
        ordering_violations=ordering,
        psd_margin=psd_margin,
    )
