"""Data model, validation and file I/O for dissimilarity/kernel matrices and vector data.

All downstream algorithms consume either an N x N dissimilarity matrix D
(symmetric, nonnegative), an N x N kernel matrix K (symmetric, positive
semidefinite), or a raw N x p vector dataset. This module owns loading,
validation, symmetrization and the conversions between the three.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

ASYMMETRY_TOL = 1e-9
ZERO_DIAG_TOL = 1e-12
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
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


BLOCK_ROWS = 256  # N x N work runs on blocks of this many rows, so its temporaries stay small


def _row_blocks(n: int):
    for start in range(0, n, BLOCK_ROWS):
        yield slice(start, min(start + BLOCK_ROWS, n))


def _square_copy(values, what: str) -> np.ndarray:
    """A float copy of values, checked to be square and non-empty; the copy
    is what gets frozen, so the caller's array is never frozen or aliased."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise MatrixFormatError(f"{what} must be a square 2-D array, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise MatrixFormatError(f"{what} is empty")
    return arr


def _own(arr: np.ndarray, what: str, nonnegative: bool) -> tuple[np.ndarray, float]:
    """Validate a square float array that nothing else holds, make it exactly
    symmetric in place and freeze it; returns it with its largest asymmetry.

    Runs in row blocks and block pairs, so it makes no N x N temporary.
    Exactly symmetric input comes back unchanged. Other input within
    ASYMMETRY_TOL is averaged as 0.5 a + 0.5 a^T: in the normal range that is
    0.5 (a + a^T) bit for bit, and near the largest double it cannot overflow.
    """
    blocks = list(_row_blocks(arr.shape[0]))
    lows = []
    for rows in blocks:
        low, high = arr[rows].min(), arr[rows].max()  # a NaN makes both NaN
        if not (np.isfinite(low) and np.isfinite(high)):
            raise MatrixValidationError(f"{what} contains non-finite entries")
        lows.append(low)
    if nonnegative and min(lows) < 0.0:
        i, j = np.unravel_index(int(np.argmin(arr)), arr.shape)
        raise MatrixValidationError(f"negative dissimilarity entry {float(arr[i, j])!r} at ({i}, {j})")

    uneven = [(rows, cols) for b, rows in enumerate(blocks) for cols in blocks[b:]
              if not np.array_equal(arr[rows, cols].view(np.int64),  # -0.0 is not 0.0
                                    arr[cols, rows].T.view(np.int64))]
    asym = max((float(np.max(np.abs(arr[rows, cols] - arr[cols, rows].T)))
                for rows, cols in uneven), default=0.0)
    if asym > ASYMMETRY_TOL:
        raise MatrixValidationError(
            f"{what} asymmetry {asym:.3e} exceeds tolerance {ASYMMETRY_TOL:.0e}"
        )
    for rows, cols in uneven:
        mean = 0.5 * arr[rows, cols] + 0.5 * arr[cols, rows].T
        arr[rows, cols] = mean
        arr[cols, rows] = mean.T
    arr.setflags(write=False)
    return arr, asym


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
        """Validate a copy of values; values itself is left as it is."""
        return cls._owning(_square_copy(values, "dissimilarity matrix"))

    @classmethod
    def _owning(cls, arr: np.ndarray) -> "DissimilarityMatrix":
        """Validate, symmetrize and freeze arr in place; nothing else may hold arr."""
        sym, asym = _own(arr, "dissimilarity matrix", nonnegative=True)
        zero_diag = bool(np.max(np.abs(np.diag(sym))) < ZERO_DIAG_TOL)
        return cls(values=sym, zero_diag=zero_diag, max_asymmetry=asym)


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric N x N similarity matrix. PSD is not checked at load: validate
    reports the smallest eigenvalue as psd_margin."""

    values: np.ndarray
    max_asymmetry: float = 0.0

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @classmethod
    def from_array(cls, values) -> "KernelMatrix":
        """Validate a copy of values; values itself is left as it is."""
        return cls._owning(_square_copy(values, "kernel matrix"))

    @classmethod
    def _owning(cls, arr: np.ndarray) -> "KernelMatrix":
        """Validate, symmetrize and freeze arr in place; nothing else may hold arr."""
        sym, asym = _own(arr, "kernel matrix", nonnegative=False)
        return cls(values=sym, max_asymmetry=asym)


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
                        f"{path}: non-numeric value {tok!r} at line {ln}, column {col}"
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


def _read_npy(path) -> np.ndarray:
    with open(path, "rb") as fh:
        try:
            arr = np.load(fh, allow_pickle=False)
        except (EOFError, ValueError, MemoryError) as exc:  # empty, truncated, pickled, oversized
            raise MatrixFormatError(f"{path}: not a readable .npy array: {exc}") from None
    if not isinstance(arr, np.ndarray):  # an .npz archive
        raise MatrixFormatError(f"{path}: not a .npy array")
    if arr.dtype.kind not in "iuf" or arr.ndim not in (1, 2) or arr.size == 0:
        raise MatrixFormatError(f"{path}: expected a non-empty 1-D or 2-D array of real numbers,"
                                f" got {arr.dtype} of shape {arr.shape}")
    return np.ascontiguousarray(arr.reshape(arr.shape[0], -1), dtype=float)


# where np.loadtxt and _parse_csv_rows can read a line differently: csv
# unquotes (a quoted header field may span lines), and np.loadtxt strips
# \x1c-\x1f around a number where float() refuses them
_CSV_ONLY = '"\x1c\x1d\x1e\x1f'


def _numeric_lines(fh):
    """The lines of fh after the optional header line, as _parse_csv_rows
    reads them; raises ValueError on a line holding a character of _CSV_ONLY."""
    for ln, line in enumerate(fh, start=1):
        if any(c in line for c in _CSV_ONLY):
            raise ValueError(f"line {ln} needs the csv reader")
        if ln == 1 and line.lstrip().startswith("#"):
            continue
        yield line


def _read_csv(path) -> np.ndarray | None:
    """The CSV parsed by NumPy's C reader, or None where _parse_csv_rows must decide.

    np.loadtxt refuses what _parse_csv_rows refuses, and also some text that
    float() accepts: quoted fields, whitespace-only lines, '1_0', non-ASCII
    digits. Where it accepts, it rounds as float() does, so the array is the
    same bit for bit.
    """
    with open(path, newline="") as fh:  # opened as _parse_csv_rows opens it
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty file warns and gives size 0
                arr = np.loadtxt(_numeric_lines(fh), delimiter=",", comments=None, ndmin=2)
        except ValueError:  # a UnicodeDecodeError too
            return None
    return arr if arr.size else None


def load_matrix(path, kind: str) -> DissimilarityMatrix | KernelMatrix:
    """Load a square matrix and validate it as the requested kind.

    A `.npy` file holds a 2-D array of integers or reals. Any other file is
    CSV: N rows x N columns of comma-separated reals, optionally preceded by
    one '#'-prefixed header line.
    """
    arr = load_array(path)
    if arr.shape[0] != arr.shape[1]:
        raise MatrixFormatError(
            f"{path}: non-square matrix ({arr.shape[0]} rows x {arr.shape[1]} columns)"
        )
    if kind == "dissimilarity":
        return DissimilarityMatrix._owning(arr)
    if kind == "kernel":
        return KernelMatrix._owning(arr)
    raise ValueError(f"unknown matrix kind {kind!r}")


def load_vectors(path) -> VectorDataset:
    """Load an N x p vector dataset: a `.npy` array, or CSV with an optional
    '#' header line."""
    return VectorDataset.from_array(load_array(path))


def load_array(path) -> np.ndarray:
    """Load any rectangular numeric file (inputs, prototype files, ...) as an
    owned, C-contiguous 2-D float array.

    A `.npy` suffix means a NumPy array file of integers or reals; a 1-D
    array is read as one column, as a one-value-per-line CSV would be. Any
    other file is CSV.
    """
    if Path(path).suffix == ".npy":
        return _read_npy(path)
    arr = _read_csv(path)
    if arr is None:  # reparse to raise the error with its line and column, or to accept
        try:
            arr = np.asarray(_parse_csv_rows(path), dtype=float)
        except csv.Error as exc:  # a field longer than csv.field_size_limit()
            raise MatrixFormatError(f"{path}: {exc}") from None
    return arr


def save_matrix(values: np.ndarray, path, header: str | None = None) -> None:
    """Write a matrix as CSV with shortest round-trip float formatting
    (repr), after an optional '# header' line.

    load -> save -> load reproduces values bit for bit. Each block of
    BLOCK_ROWS rows formats every distinct bit pattern once: coefficient
    rows h[k, c] / n_k hold at most K distinct values. Deduplicating on the
    bits, not the float values, keeps 0.0 apart from -0.0 and every NaN
    apart, so the text is that of repr on each entry.
    """
    arr = np.atleast_2d(np.asarray(values, dtype=float))
    with open(path, "w") as fh:
        if header is not None:
            fh.write(f"# {header}\n")
        for rows in _row_blocks(arr.shape[0]):
            block = np.ascontiguousarray(arr[rows])
            bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
            text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
            cells = text[inverse.reshape(block.shape)]
            fh.writelines(",".join(row) + "\n" for row in cells.tolist())


def save_vector(values, path) -> None:
    """One value per line (assignments, prototype indices)."""
    with open(path, "w") as fh:
        for v in np.asarray(values).ravel():
            if float(v).is_integer():
                fh.write(f"{int(v)}\n")
            else:
                fh.write(f"{repr(float(v))}\n")


def _squared_distances(gram: np.ndarray, diag: np.ndarray, out: np.ndarray) -> float:
    """out_ij = (diag_i + diag_j) - 2 gram_ij, clipped at zero, zero diagonal.

    Works in row blocks, so out may be gram itself and the only temporaries
    are BLOCK_ROWS x N. The values are those of the dense formula bit for
    bit: s - 2g is s + (-2g). Returns the smallest entry before clipping,
    NaN if some entry is NaN.
    """
    lowest = np.inf
    for rows in _row_blocks(diag.shape[0]):
        block = out[rows]
        np.multiply(gram[rows], -2.0, out=block)
        block += diag[rows, None] + diag[None, :]
        lowest = np.minimum(lowest, block.min())
        np.clip(block, 0.0, None, out=block)
        np.fill_diagonal(block[:, rows], 0.0)
    return float(lowest)


def kernel_to_dissimilarity(kernel: KernelMatrix) -> DissimilarityMatrix:
    """Induced squared distance D_ij = K_ii + K_jj - 2 K_ij.

    The diagonal is exactly zero by construction. Entries below
    -NEGATIVE_CONVERSION_TOL signal a non-PSD kernel and raise; tiny negative
    round-off above that threshold is clamped to zero.
    """
    k = kernel.values
    d = np.empty_like(k)
    lowest = _squared_distances(k, np.diag(k), out=d)
    if lowest < -NEGATIVE_CONVERSION_TOL:
        raise MatrixValidationError(
            f"kernel-induced dissimilarity has negative entry {lowest:.3e}; "
            "input kernel is not positive semidefinite"
        )
    return DissimilarityMatrix._owning(d)


def check_squared_range(dataset: VectorDataset) -> None:
    """Reject coordinates whose squared distances would overflow, from the
    bound |x - y|^2 <= 4 p max|x|^2, before any product is formed."""
    largest = float(np.max(np.abs(dataset.points)))
    if not np.isfinite(4.0 * dataset.p * largest * largest):
        raise MatrixValidationError(
            f"vector coordinates up to {largest:.3e} overflow squared distances")


def squared_euclidean(dataset: VectorDataset) -> DissimilarityMatrix:
    """Pairwise squared Euclidean distances, zero diagonal.

    D overwrites the Gram matrix x x^T, so D is the only N x N array made.
    NumPy forms x x^T as one triangle mirrored (a symmetric rank-k update),
    so D comes out exactly symmetric; _owning checks that, as for any input.
    """
    check_squared_range(dataset)
    x = dataset.points
    sq = np.einsum("ij,ij->i", x, x)
    d = x @ x.T
    _squared_distances(d, sq, out=d)
    return DissimilarityMatrix._owning(d)


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
