"""Self-organizing maps for dissimilarity and kernel data.

Trainers for the classic vector SOM (batch and online), the median SOM,
relational and kernel SOMs (batch and online), and a soft topographic
mapping with deterministic annealing, plus a landmark-based low-rank
accelerator, map-quality reports, and randomized verification suites.
"""

from .bench import format_bench, run_bench
from .dismat import (
    DissimilarityMatrix,
    KernelMatrix,
    MatrixFormatError,
    MatrixValidationError,
    ValidationReport,
    VectorDataset,
    kernel_to_dissimilarity,
    load_matrix,
    load_vectors,
    save_matrix,
    save_vector,
    squared_euclidean,
    validate,
)
from .lattice import Lattice, Schedule, default_sigma_start, grid_coordinates
from .mediansom import MedianSOMResult, median_update, resolve_collisions, train_batch_median
from .nystrom import (
    NystromFactor,
    nystrom_fit,
    nystrom_fit_dissimilarity,
    reconstruct_dissimilarity,
    reconstruct_similarity,
    sample_reconstruction_error,
    train_batch_approx,
    train_online_approx,
)
from .quality import (
    CriterionReport,
    clustering_cost,
    criterion_report,
    quantization_cost,
    umatrix,
    verify_koenig_huygens,
)
from .relsom import (
    CoefficientSOMResult,
    kernel_distance,
    kernel_distances,
    relational_distance,
    relational_distances,
    train_batch_kernel,
    train_batch_relational,
    train_online_kernel,
    train_online_relational,
)
from .stmp import (
    AnnealingSchedule,
    PowerIterationError,
    STMPResult,
    critical_beta,
    mean_field,
    mixing_coefficients,
    power_iteration,
    soft_update,
    train_stmp,
)
from .vectorsom import VectorSOMResult, train_batch, train_online

__version__ = "0.1.0"

__all__ = [
    "AnnealingSchedule",
    "CoefficientSOMResult",
    "CriterionReport",
    "DissimilarityMatrix",
    "KernelMatrix",
    "Lattice",
    "MatrixFormatError",
    "MatrixValidationError",
    "MedianSOMResult",
    "NystromFactor",
    "PowerIterationError",
    "STMPResult",
    "Schedule",
    "ValidationReport",
    "VectorDataset",
    "VectorSOMResult",
    "clustering_cost",
    "criterion_report",
    "critical_beta",
    "default_sigma_start",
    "format_bench",
    "grid_coordinates",
    "kernel_distance",
    "kernel_distances",
    "kernel_to_dissimilarity",
    "load_matrix",
    "load_vectors",
    "mean_field",
    "median_update",
    "mixing_coefficients",
    "nystrom_fit",
    "nystrom_fit_dissimilarity",
    "power_iteration",
    "quantization_cost",
    "reconstruct_dissimilarity",
    "reconstruct_similarity",
    "relational_distance",
    "relational_distances",
    "resolve_collisions",
    "run_bench",
    "sample_reconstruction_error",
    "save_matrix",
    "save_vector",
    "soft_update",
    "squared_euclidean",
    "train_batch",
    "train_batch_approx",
    "train_batch_kernel",
    "train_batch_median",
    "train_batch_relational",
    "train_online",
    "train_online_approx",
    "train_online_kernel",
    "train_online_relational",
    "train_stmp",
    "umatrix",
    "validate",
    "verify_koenig_huygens",
]
