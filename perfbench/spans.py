"""Span recorder for traced jobs, and the per-layer table built from its spans.

In the child, ``Recorder.install`` rebinds public functions of the dksom
modules to wrappers before ``dksom.cli.main`` runs; the package itself is
not edited. A span is [name, start_ns, end_ns, parent index, gflop]. Spans
stay in memory and are written once, when the job ends; the job id is the
trace id. In the parent, ``layer_seconds`` turns spans into per-layer self
time: a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import time


def now_ns() -> int:
    """CLOCK_MONOTONIC is system-wide, so parent and child stamps compare."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _distance_gflop(d_values, coefficients, *args, **kwargs) -> float:
    k, n = coefficients.shape
    return 2.0 * k * n * n / 1e9


# (module, function names, layer); the span is named "<module>.<function>".
# Calls reach the wrapper because each caller looks the name up in that
# module at call time: cli imported the dismat functions into its own
# namespace, stmp imported relational_distances into its own.
WRAPPED = (
    ("cli", ("load_matrix", "load_vectors"), "dismat.load_s"),
    ("cli", ("squared_euclidean", "kernel_to_dissimilarity"), "dismat.convert_s"),
    ("cli", ("save_matrix", "save_vector"), "cli.write_s"),
    ("quality", ("save_umatrix_csv", "save_umatrix_pgm"), "cli.write_s"),
    ("relsom", ("train_batch_relational", "train_batch_kernel"), "relsom.batch_s"),
    ("relsom", ("train_online_relational", "train_online_kernel"), "relsom.online_s"),
    ("relsom", ("relational_distances", "kernel_distances"), "relsom.distance_s"),
    ("stmp", ("relational_distances",), "relsom.distance_s"),
    ("stmp", ("train_stmp",), "stmp.train_s"),
    ("stmp", ("mean_field",), "stmp.mean_field_s"),
    ("stmp", ("critical_beta",), "stmp.critical_beta_s"),
    ("mediansom", ("train_batch_median",), "mediansom.train_s"),
    ("mediansom", ("median_update",), "mediansom.update_s"),
    ("nystrom", ("nystrom_fit", "nystrom_fit_dissimilarity", "double_center"), "nystrom.fit_s"),
    ("nystrom", ("train_batch_approx", "train_online_approx", "approx_relational_distances",
                 "reconstruct_similarity", "reconstruct_dissimilarity"), "nystrom.train_s"),
    ("nystrom", ("sample_reconstruction_error",), "nystrom.error_s"),
    ("vectorsom", ("train_batch", "train_online"), "vectorsom.train_s"),
    ("quality", ("criterion_report",), "quality.criterion_s"),
    ("quality", ("umatrix",), "quality.umatrix_s"),
)
LAYER_OF = {f"{mod}.{fn}": layer for mod, fns, layer in WRAPPED for fn in fns}
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in WRAPPED))
FLOP_COUNTED = {"relsom.relational_distances", "relsom.kernel_distances",
                "stmp.relational_distances"}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        flops = _distance_gflop if name in FLOP_COUNTED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, now_ns(), None, self._stack[-1] if self._stack else None,
                    flops(*args, **kwargs) if flops else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = now_ns()
                self._stack.pop()

        return wrapper

    def install(self, package) -> None:
        """Rebind every WRAPPED function of the imported dksom package."""
        import importlib

        for mod_name, fns, _ in WRAPPED:
            module = importlib.import_module(f"{package.__name__}.{mod_name}")
            for fn in fns:
                setattr(module, fn, self.wrap(f"{mod_name}.{fn}", getattr(module, fn)))


def layer_seconds(spans: list) -> dict:
    """Self time per layer in seconds, plus distance-call count and gflop."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    out = dict.fromkeys(LAYERS, 0.0)
    calls = 0
    gflop = 0.0
    for idx, (name, start, end, parent, flop) in enumerate(spans):
        out[LAYER_OF[name]] += (end - start - child_ns[idx]) / 1e9
        if flop is not None:
            calls += 1
            gflop += flop
    out["relsom.distance_calls"] = calls
    out["relsom.distance_gflop"] = gflop
    return out
