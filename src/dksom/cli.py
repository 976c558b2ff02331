"""Command-line interface: validate, train, bench, verify, umatrix.

Runs are configured by a flat ``key = value`` file plus flags; flags win.
Exit codes: 0 success, 1 validation/configuration error, 2 property-suite
failure, 3 unexpected runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import mediansom, nystrom, quality, relsom, stmp, vectorsom
from .dismat import (
    MatrixFormatError,
    MatrixValidationError,
    kernel_to_dissimilarity,
    load_array,
    load_matrix,
    load_vectors,
    save_matrix,
    save_vector,
    squared_euclidean,
    validate,
)
from .lattice import Lattice, Schedule
from .verify import run_suite

ALGORITHMS = (
    "classic-batch", "classic-online", "median",
    "relational-batch", "relational-online",
    "kernel-batch", "kernel-online", "stmp",
)
INPUT_KINDS = ("dissimilarity", "kernel", "vectors")
TOPOLOGIES = ("rectangular", "hexagonal")

# (config key, attribute, type, default, choices); each attribute is also
# the train flag "--" + attribute with "_" -> "-"
SETTINGS = (
    ("algorithm", "algorithm", str, None, ALGORITHMS),
    ("input.path", "input", str, None, None),
    ("input.kind", "input_kind", str, None, INPUT_KINDS),
    ("output.dir", "out", str, None, None),
    ("seed", "seed", int, 0, None),
    ("init.mode", "init_mode", str, "indicator", ("indicator", "uniform")),
    ("grid.rows", "rows", int, 5, None),
    ("grid.cols", "cols", int, 5, None),
    ("grid.topology", "topology", str, "rectangular", TOPOLOGIES),
    ("schedule.sigma0", "sigma0", float, None, None),
    ("schedule.sigma_final", "sigma_final", float, 0.3, None),
    ("schedule.eps0", "eps0", float, 0.5, None),
    ("schedule.eps_final", "eps_final", float, 0.01, None),
    ("schedule.t_max", "t_max", int, 50, None),
    ("schedule.mode", "schedule_mode", str, "exponential_decay", ("exponential_decay", "fixed")),
    ("stmp.beta0", "beta0", float, None, None),
    ("stmp.beta_factor", "beta_factor", float, 1.1, None),
    ("stmp.beta_max", "beta_max", float, None, None),
    ("stmp.inner_tol", "inner_tol", float, 1e-6, None),
    ("stmp.inner_max_iters", "inner_max_iters", int, 500, None),
    ("nystrom.landmarks", "nystrom_landmarks", int, None, None),
    ("nystrom.seed", "nystrom_seed", int, 0, None),
)
CONFIG_KEYS = {key: (attr, kind, choices) for key, attr, kind, _, choices in SETTINGS}
DEFAULTS = {attr: default for _, attr, _, default, _ in SETTINGS}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; 2 means suite failure here, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_config(path) -> dict:
    """Flat key = value file; '#' comments and blank lines ignored."""
    out = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{ln}: expected 'key = value', got {line!r}")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{ln}: unknown configuration key {key!r}")
            attr, kind, choices = CONFIG_KEYS[key]
            value = value.strip()
            try:
                out[attr] = kind(value)
            except ValueError:
                raise ValueError(f"{path}:{ln}: bad value {value!r} for {key}") from None
            if choices and value not in choices:
                raise ValueError(f"{path}:{ln}: bad value {value!r} for {key}"
                                 f" (choose from {', '.join(choices)})")
    return out


def _effective_config(args) -> dict:
    cfg = dict(DEFAULTS)
    if args.config:
        cfg.update(parse_config(args.config))
    for attr in DEFAULTS:
        flag = getattr(args, attr, None)
        if flag is not None:
            cfg[attr] = flag
    return cfg


def _write_json(payload: dict, path) -> None:
    with open(path, "w") as fh:
        # NumPy arrays and scalars (json takes float64 as float) become Python values
        json.dump(payload, fh, indent=2, default=lambda obj: obj.tolist())
        fh.write("\n")


def _load_input(path, kind):
    if kind == "vectors":
        return load_vectors(path)
    return load_matrix(path, kind)


def _dissimilarity_for(data, kind: str):
    """Dissimilarity view of the input for algorithms that want one."""
    if kind == "dissimilarity":
        return data
    if kind == "kernel":
        return kernel_to_dissimilarity(data)
    return squared_euclidean(data)


def cmd_validate(args) -> int:
    if args.kind == "vectors":
        data = load_vectors(args.input)
        report = {"kind": "vectors", "n": data.n, "p": data.p}
        text = json.dumps(report, indent=2)
    else:
        report_obj = validate(load_matrix(args.input, args.kind))
        text = report_obj.to_json()
    print(text)
    if args.report:
        Path(args.report).write_text(text + "\n")
    return 0


@dataclass
class _Run:
    """What one training run hands to cmd_train to write."""

    result: object  # has assignments and final_sigma
    dm: object  # dissimilarity view of the input
    protos: np.ndarray | None  # median indices or coefficient rows; None: result.prototypes
    files: dict  # artifact key -> (file name, values[, CSV header])
    fields: dict  # the family's report fields
    criterion_trace: np.ndarray  # one value per iteration, epoch or outer step
    distances: np.ndarray | None = None  # the trainer's final relational distances to protos


def _train(cfg, data, kind, lattice) -> _Run:
    """Run the configured algorithm and gather what cmd_train writes.

    This is the only place that branches on the algorithm family. Trainers
    are looked up in their modules at call time, so that a rebinding of a
    module attribute (perfbench/spans.py) reaches them.
    """
    alg = cfg["algorithm"]
    online = alg.endswith("online")
    schedule = Schedule(cfg["t_max"], cfg["sigma0"], cfg["sigma_final"], cfg["schedule_mode"],
                        cfg["eps0"], cfg["eps_final"], cfg["seed"])
    landmarks = cfg["nystrom_landmarks"]

    if alg.startswith("classic") and kind != "vectors":
        raise ValueError("vector input required for classic algorithms")
    if alg.startswith("kernel") and kind != "kernel":
        raise ValueError("kernel input required for kernel algorithms")
    if landmarks is not None and not alg.startswith(("relational", "kernel")):
        raise ValueError("landmark acceleration applies to relational/kernel algorithms only")
    dm = _dissimilarity_for(data, kind)

    if alg.startswith("classic"):
        train = vectorsom.train_online if online else vectorsom.train_batch
        result = train(data, lattice, schedule)
        return _Run(result, dm, None, {"prototypes": ("prototypes.csv", result.prototypes)},
                    {}, result.energy_trace)
    if alg == "median":
        result = mediansom.train_batch_median(dm, lattice, schedule)
        fields = {key: getattr(result, key) for key in
                  ("collisions_detected", "collisions_unresolved", "stopped_early")}
        return _Run(result, dm, result.prototype_indices,
                    {"prototypes": ("prototype_indices.txt", result.prototype_indices)},
                    fields, result.energy_trace)
    if alg == "stmp":
        if (cfg["beta0"] is None) != (cfg["beta_max"] is None):
            raise ValueError("stmp.beta0 and stmp.beta_max must be set together")
        tuning = {key: cfg[key] for key in ("beta_factor", "inner_tol", "inner_max_iters")}
        if cfg["beta0"] is None:
            annealing = replace(stmp.default_annealing(dm), **tuning)
        else:
            annealing = stmp.AnnealingSchedule(cfg["beta0"], beta_max=cfg["beta_max"], **tuning)
        sigma = cfg["sigma0"] if cfg["sigma0"] is not None else 1.0
        result = stmp.train_stmp(dm, lattice, sigma=sigma, annealing=annealing, seed=cfg["seed"])
        protos = result.mixing.T
        files = {"gamma": ("gamma.csv", result.gamma),
                 "trace": ("trace.csv", result.trace, ",".join(stmp.TRACE_COLUMNS)),
                 "prototypes": ("coefficients.csv", protos)}
        fields = {"outer_steps": result.trace.shape[0], "entropy_trace": result.trace[:, 3]}
        return _Run(result, dm, protos, files, fields, result.trace[:, 2])  # max |delta e|

    init_mode = cfg["init_mode"]
    if landmarks is None:
        if alg.startswith("kernel"):
            train = relsom.train_online_kernel if online else relsom.train_batch_kernel
            result = train(data, lattice, schedule, init_mode=init_mode)
        else:
            train = relsom.train_online_relational if online else relsom.train_batch_relational
            result = train(dm, lattice, schedule, init_mode=init_mode)
    else:
        nseed = cfg["nystrom_seed"]
        if kind == "kernel":
            source, factor = data, nystrom.nystrom_fit(data, landmarks, seed=nseed)
        else:
            source, factor = dm, nystrom.nystrom_fit_dissimilarity(dm, landmarks, seed=nseed)
        train = nystrom.train_online_approx if online else nystrom.train_batch_approx
        result = train(factor, lattice, schedule, init_mode=init_mode)
        sample = nystrom.sample_reconstruction_error(factor, source.values, seed=nseed)
    fields = {key: getattr(result, key) for key in
              ("negative_distances", "empty_unit_events", "stopped_early", "resync_drift_max")}
    fields["phase_timing_ns"] = result.phase_ns
    if landmarks is not None:
        fields["nystrom"] = {"landmarks": landmarks, "seed": nseed, "rank": factor.rank, **sample}
    # kernel and landmark distances are not the relational ones bit for bit
    relational = landmarks is None and alg.startswith("relational")
    return _Run(result, dm, result.coefficients,
                {"prototypes": ("coefficients.csv", result.coefficients)},
                fields, result.energy_trace, result.distances if relational else None)


def cmd_train(args) -> int:
    cfg = _effective_config(args)
    for required in ("algorithm", "input", "input_kind", "out"):
        if cfg[required] is None:
            raise ValueError(f"missing required setting {required!r}")

    data = _load_input(cfg["input"], cfg["input_kind"])
    lattice = Lattice(cfg["rows"], cfg["cols"], cfg["topology"])
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter_ns()
    run = _train(cfg, data, cfg["input_kind"], lattice)
    wall_ns = time.perf_counter_ns() - t0

    result = run.result
    report = {
        "config": {k: cfg[k] for k in sorted(cfg)},
        "n": data.n,
        "k_units": lattice.n_units,
        "wall_ns": wall_ns,
        **run.fields,
        "iterations_executed": len(run.criterion_trace),
    }
    artifacts = {}
    files = {"assignment": ("assignment.txt", result.assignments), **run.files}
    for key, (name, values, *header) in files.items():
        save = save_vector if np.ndim(values) == 1 else save_matrix
        save(values, outdir / name, *header)
        artifacts[key] = str(outdir / name)

    h = lattice.neighborhood(result.final_sigma)
    if run.protos is None:  # vector prototypes: quantize the vectors themselves
        vectors = result.prototypes
        dist = vectorsom.squared_distances_to_prototypes(data.points, vectors)
        report["final_quantization_cost"] = vectorsom.map_energy(dist, result.assignments, h)
        report["final_clustering_cost"] = quality.clustering_cost(run.dm.values,
                                                                  result.assignments, h)
        pairwise = vectorsom.squared_distances_to_prototypes(vectors, vectors)
        grid = quality.umatrix_from_pairwise(pairwise, lattice)
    else:
        crep = quality.criterion_report(run.dm.values, run.protos, result.assignments, h,
                                        run.distances)
        report["final_quantization_cost"] = crep.quantization_cost
        report["final_clustering_cost"] = crep.clustering_cost
        report["per_unit_sizes"] = crep.per_unit_sizes
        grid = quality.umatrix(run.protos, run.dm.values, lattice)
    report["criterion_trace"] = run.criterion_trace

    quality.save_umatrix_csv(grid, outdir / "umatrix.csv")
    quality.save_umatrix_pgm(grid, outdir / "umatrix.pgm")
    artifacts["umatrix_csv"] = str(outdir / "umatrix.csv")
    artifacts["umatrix_pgm"] = str(outdir / "umatrix.pgm")

    report["artifacts"] = artifacts
    _write_json(report, outdir / "report.json")
    print(f"wrote {outdir / 'report.json'}")
    return 0


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    result = bench_mod.run_bench(sizes=sizes, k_units=args.k, repeats=args.repeats,
                                 seed=args.seed)
    print(bench_mod.format_bench(result))
    if args.out:
        _write_json(result, args.out)
    return 0


def cmd_verify(args) -> int:
    ok, lines = run_suite(args.suite)
    for line in lines:
        print(line)
    return 0 if ok else 2


def cmd_umatrix(args) -> int:
    lattice = Lattice(args.rows, args.cols, args.topology)
    dm = _dissimilarity_for(_load_input(args.input, args.input_kind), args.input_kind)
    raw = load_array(args.prototypes)
    if args.prototype_kind == "median":
        protos = raw.ravel().astype(np.int64)
    else:
        protos = raw
    grid = quality.umatrix(protos, dm.values, lattice)
    quality.save_umatrix_csv(grid, f"{args.out}.csv")
    quality.save_umatrix_pgm(grid, f"{args.out}.pgm")
    print(f"wrote {args.out}.csv and {args.out}.pgm")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="dksom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load a matrix and print its validation report")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=INPUT_KINDS, required=True)
    p.add_argument("--report", help="also write the JSON report to this path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("train", help="train one algorithm and write artifacts")
    p.add_argument("--config", help="flat key = value configuration file")
    for _, attr, kind, _, choices in SETTINGS:
        p.add_argument("--" + attr.replace("_", "-"), dest=attr, type=kind, choices=choices)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("bench", help="empirical complexity benchmark")
    p.add_argument("--sizes", default="500,1000,2000,4000")
    p.add_argument("--k", type=int, default=25)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the benchmark table as JSON")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="run a randomized property suite")
    p.add_argument("suite", choices=("equivalence", "kh", "triangle", "stmp-limit", "nystrom"))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("umatrix", help="recompute the U-matrix for saved prototypes")
    p.add_argument("--input", required=True)
    p.add_argument("--input-kind", choices=INPUT_KINDS, dest="input_kind", required=True)
    p.add_argument("--prototypes", required=True)
    p.add_argument("--prototype-kind", choices=("median", "coefficients"),
                   dest="prototype_kind", required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--topology", choices=TOPOLOGIES, default="rectangular")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_umatrix)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MatrixFormatError, MatrixValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything unexpected
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
