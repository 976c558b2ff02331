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
from .lattice import Lattice
from .verify import run_suite

ALGORITHMS = (
    "classic-batch", "classic-online", "median",
    "relational-batch", "relational-online",
    "kernel-batch", "kernel-online", "stmp",
)
INPUT_KINDS = ("dissimilarity", "kernel", "vectors")

# config-file keys, their converters, and the matching train-flag attribute
CONFIG_KEYS = {
    "algorithm": (str, "algorithm"),
    "input.path": (str, "input"),
    "input.kind": (str, "input_kind"),
    "output.dir": (str, "out"),
    "seed": (int, "seed"),
    "init.mode": (str, "init_mode"),
    "grid.rows": (int, "rows"),
    "grid.cols": (int, "cols"),
    "grid.topology": (str, "topology"),
    "schedule.sigma0": (float, "sigma0"),
    "schedule.sigma_final": (float, "sigma_final"),
    "schedule.eps0": (float, "eps0"),
    "schedule.eps_final": (float, "eps_final"),
    "schedule.t_max": (int, "t_max"),
    "schedule.mode": (str, "schedule_mode"),
    "stmp.beta0": (float, "beta0"),
    "stmp.beta_factor": (float, "beta_factor"),
    "stmp.beta_max": (float, "beta_max"),
    "stmp.inner_tol": (float, "inner_tol"),
    "stmp.inner_max_iters": (int, "inner_max_iters"),
    "nystrom.landmarks": (int, "nystrom_landmarks"),
    "nystrom.seed": (int, "nystrom_seed"),
}

DEFAULTS = {
    "algorithm": None,
    "input": None,
    "input_kind": None,
    "out": None,
    "seed": 0,
    "init_mode": "indicator",
    "rows": 5,
    "cols": 5,
    "topology": "rectangular",
    "sigma0": None,
    "sigma_final": 0.3,
    "eps0": 0.5,
    "eps_final": 0.01,
    "t_max": 50,
    "schedule_mode": "exponential_decay",
    "beta0": None,
    "beta_factor": 1.1,
    "beta_max": None,
    "inner_tol": 1e-6,
    "inner_max_iters": 500,
    "nystrom_landmarks": None,
    "nystrom_seed": 0,
}


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
            caster, attr = CONFIG_KEYS[key]
            try:
                out[attr] = caster(value.strip())
            except ValueError:
                raise ValueError(
                    f"{path}:{ln}: bad value {value.strip()!r} for {key}"
                ) from None
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


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _write_json(payload: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2)
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


def _train_dispatch(cfg, data, kind, lattice):
    """Run the configured algorithm; returns (result, kind-specific extras)."""
    alg = cfg["algorithm"]
    common = dict(sigma_start=cfg["sigma0"], sigma_end=cfg["sigma_final"],
                  sigma_mode=cfg["schedule_mode"], seed=cfg["seed"])
    t_max = cfg["t_max"]
    eps = dict(eps_start=cfg["eps0"], eps_end=cfg["eps_final"])

    if alg.startswith("classic"):
        if kind != "vectors":
            raise ValueError("vector input required for classic algorithms")
        if alg == "classic-batch":
            return vectorsom.train_batch(data, lattice, n_iter=t_max, **common), {}
        return vectorsom.train_online(data, lattice, n_epochs=t_max, **common, **eps), {}

    if alg.startswith("kernel"):
        if kind != "kernel":
            raise ValueError("kernel input required for kernel algorithms")

    if cfg["nystrom_landmarks"] is not None:
        return _train_nystrom(cfg, data, kind, lattice, common, eps)

    if alg == "median":
        dm = _dissimilarity_for(data, kind)
        res = mediansom.train_batch_median(dm, lattice, n_iter=t_max, **common)
        return res, {"dissimilarity": dm}
    if alg == "relational-batch":
        dm = _dissimilarity_for(data, kind)
        res = relsom.train_batch_relational(dm, lattice, n_iter=t_max,
                                            init_mode=cfg["init_mode"], **common)
        return res, {"dissimilarity": dm}
    if alg == "relational-online":
        dm = _dissimilarity_for(data, kind)
        res = relsom.train_online_relational(dm, lattice, n_epochs=t_max,
                                             init_mode=cfg["init_mode"], **common, **eps)
        return res, {"dissimilarity": dm}
    if alg == "kernel-batch":
        res = relsom.train_batch_kernel(data, lattice, n_iter=t_max,
                                        init_mode=cfg["init_mode"], **common)
        return res, {"dissimilarity": kernel_to_dissimilarity(data)}
    if alg == "kernel-online":
        res = relsom.train_online_kernel(data, lattice, n_epochs=t_max,
                                         init_mode=cfg["init_mode"], **common, **eps)
        return res, {"dissimilarity": kernel_to_dissimilarity(data)}
    if alg == "stmp":
        dm = _dissimilarity_for(data, kind)
        sigma = cfg["sigma0"] if cfg["sigma0"] is not None else 1.0
        if cfg["beta0"] is not None or cfg["beta_max"] is not None:
            if cfg["beta0"] is None or cfg["beta_max"] is None:
                raise ValueError("stmp.beta0 and stmp.beta_max must be set together")
            sched = stmp.AnnealingSchedule(cfg["beta0"], cfg["beta_factor"], cfg["beta_max"],
                                           cfg["inner_tol"], cfg["inner_max_iters"])
        else:
            sched = None
        res = stmp.train_stmp(dm, lattice, sigma=sigma, annealing=sched, seed=cfg["seed"])
        return res, {"dissimilarity": dm, "sigma": sigma}
    raise ValueError(f"unknown algorithm {cfg['algorithm']!r}")


def _train_nystrom(cfg, data, kind, lattice, common, eps):
    alg = cfg["algorithm"]
    if alg not in ("relational-batch", "relational-online", "kernel-batch", "kernel-online"):
        raise ValueError("landmark acceleration applies to relational/kernel algorithms only")
    m = cfg["nystrom_landmarks"]
    nseed = cfg["nystrom_seed"]
    if kind == "kernel":
        factor = nystrom.nystrom_fit(data, m, seed=nseed)
        dm = kernel_to_dissimilarity(data)
    else:
        dm = _dissimilarity_for(data, kind)
        factor = nystrom.nystrom_fit_dissimilarity(dm, m, seed=nseed)
    t_max = cfg["t_max"]
    if alg.endswith("batch"):
        res = nystrom.train_batch_approx(factor, lattice, n_iter=t_max,
                                         init_mode=cfg["init_mode"], **common)
    else:
        res = nystrom.train_online_approx(factor, lattice, n_epochs=t_max,
                                          init_mode=cfg["init_mode"], **common, **eps)
    original = data.values if kind == "kernel" else dm.values
    sample = nystrom.sample_reconstruction_error(factor, original, seed=nseed)
    extras = {"dissimilarity": dm,
              "nystrom": {"landmarks": m, "seed": nseed, "rank": factor.rank, **sample}}
    return res, extras


def _final_h(cfg, lattice, executed, extras):
    from .lattice import DecaySchedule, default_sigma_start

    if "sigma" in extras:  # stmp: fixed neighborhood
        return lattice.neighborhood(extras["sigma"])
    start = cfg["sigma0"] if cfg["sigma0"] is not None else default_sigma_start(lattice)
    sched = DecaySchedule(start, cfg["sigma_final"], cfg["t_max"], cfg["schedule_mode"])
    return lattice.neighborhood(sched.value_at(max(0, min(executed, cfg["t_max"]) - 1)))


def cmd_train(args) -> int:
    cfg = _effective_config(args)
    for required in ("algorithm", "input", "input_kind", "out"):
        if cfg[required] is None:
            raise ValueError(f"missing required setting {required!r}")
    if cfg["algorithm"] not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {cfg['algorithm']!r}")
    if cfg["input_kind"] not in INPUT_KINDS:
        raise ValueError(f"unknown input kind {cfg['input_kind']!r}")

    data = _load_input(cfg["input"], cfg["input_kind"])
    lattice = Lattice(cfg["rows"], cfg["cols"], cfg["topology"])
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter_ns()
    result, extras = _train_dispatch(cfg, data, cfg["input_kind"], lattice)
    wall_ns = time.perf_counter_ns() - t0

    alg = cfg["algorithm"]
    artifacts = {}
    report = {
        "config": {k: cfg[k] for k in sorted(cfg)},
        "n": data.n,
        "k_units": lattice.n_units,
        "wall_ns": wall_ns,
    }

    assignments = result.assignments
    save_vector(assignments, outdir / "assignment.txt")
    artifacts["assignment"] = str(outdir / "assignment.txt")

    if alg == "stmp":
        executed = result.trace.shape[0]
        save_matrix(result.gamma, outdir / "gamma.csv")
        artifacts["gamma"] = str(outdir / "gamma.csv")
        with open(outdir / "trace.csv", "w") as fh:
            fh.write("# " + ",".join(stmp.TRACE_COLUMNS) + "\n")
            for row in result.trace:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        artifacts["trace"] = str(outdir / "trace.csv")
        protos = result.mixing.T
        save_matrix(protos, outdir / "coefficients.csv")
        artifacts["prototypes"] = str(outdir / "coefficients.csv")
        report["outer_steps"] = executed
    elif alg == "median":
        executed = result.energy_trace.shape[0]
        save_vector(result.prototype_indices, outdir / "prototype_indices.txt")
        artifacts["prototypes"] = str(outdir / "prototype_indices.txt")
        protos = result.prototype_indices
        report["collisions_detected"] = result.collisions_detected
        report["collisions_unresolved"] = result.collisions_unresolved
        report["stopped_early"] = result.stopped_early
    elif alg.startswith("classic"):
        executed = result.energy_trace.shape[0]
        save_matrix(result.prototypes, outdir / "prototypes.csv")
        artifacts["prototypes"] = str(outdir / "prototypes.csv")
        protos = None
    else:
        executed = result.energy_trace.shape[0]
        save_matrix(result.coefficients, outdir / "coefficients.csv")
        artifacts["prototypes"] = str(outdir / "coefficients.csv")
        protos = result.coefficients
        report["negative_distances"] = result.negative_distances
        report["empty_unit_events"] = result.empty_unit_events
        report["stopped_early"] = result.stopped_early
        report["phase_timing_ns"] = result.phase_ns
        report["resync_drift_max"] = result.resync_drift_max

    report["iterations_executed"] = executed
    h = _final_h(cfg, lattice, executed, extras)

    if alg.startswith("classic"):
        dm = squared_euclidean(data)
        dist = vectorsom.squared_distances_to_prototypes(data.points, result.prototypes)
        report["final_quantization_cost"] = vectorsom.map_energy(dist, assignments, h)
        report["final_clustering_cost"] = quality.clustering_cost(dm.values, assignments, h)
        pairwise = vectorsom.squared_distances_to_prototypes(result.prototypes, result.prototypes)
        grid = quality.umatrix_from_pairwise(pairwise, lattice)
        report["criterion_trace"] = result.energy_trace.tolist()
    else:
        d_values = extras["dissimilarity"].values
        crep = quality.criterion_report(d_values, protos, assignments, h)
        report["final_quantization_cost"] = crep.quantization_cost
        report["final_clustering_cost"] = crep.clustering_cost
        report["per_unit_sizes"] = crep.per_unit_sizes.tolist()
        grid = quality.umatrix(protos, d_values, lattice)
        if alg == "stmp":
            report["criterion_trace"] = result.trace[:, 2].tolist()  # max |delta e| per outer step
            report["entropy_trace"] = result.trace[:, 3].tolist()
        else:
            report["criterion_trace"] = result.energy_trace.tolist()

    quality.save_umatrix_csv(grid, outdir / "umatrix.csv")
    quality.save_umatrix_pgm(grid, outdir / "umatrix.pgm")
    artifacts["umatrix_csv"] = str(outdir / "umatrix.csv")
    artifacts["umatrix_pgm"] = str(outdir / "umatrix.pgm")
    if "nystrom" in extras:
        report["nystrom"] = extras["nystrom"]

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
    data = _load_input(args.input, args.input_kind)
    if args.input_kind == "vectors":
        d_values = squared_euclidean(data).values
    elif args.input_kind == "kernel":
        d_values = kernel_to_dissimilarity(data).values
    else:
        d_values = data.values
    raw = load_array(args.prototypes)
    if args.prototype_kind == "median":
        protos = raw.ravel().astype(np.int64)
    else:
        protos = raw
    grid = quality.umatrix(protos, d_values, lattice)
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
    p.add_argument("--algorithm", choices=ALGORITHMS)
    p.add_argument("--input")
    p.add_argument("--input-kind", choices=INPUT_KINDS, dest="input_kind")
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.add_argument("--init-mode", choices=("indicator", "uniform"), dest="init_mode")
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--topology", choices=("rectangular", "hexagonal"))
    p.add_argument("--sigma0", type=float)
    p.add_argument("--sigma-final", type=float, dest="sigma_final")
    p.add_argument("--eps0", type=float)
    p.add_argument("--eps-final", type=float, dest="eps_final")
    p.add_argument("--t-max", type=int, dest="t_max")
    p.add_argument("--schedule-mode", choices=("exponential_decay", "fixed"),
                   dest="schedule_mode")
    p.add_argument("--beta0", type=float)
    p.add_argument("--beta-factor", type=float, dest="beta_factor")
    p.add_argument("--beta-max", type=float, dest="beta_max")
    p.add_argument("--inner-tol", type=float, dest="inner_tol")
    p.add_argument("--inner-max-iters", type=int, dest="inner_max_iters")
    p.add_argument("--nystrom-landmarks", type=int, dest="nystrom_landmarks")
    p.add_argument("--nystrom-seed", type=int, dest="nystrom_seed")
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
    p.add_argument("--topology", choices=("rectangular", "hexagonal"), default="rectangular")
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
