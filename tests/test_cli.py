import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dksom
from dksom import dismat, quality, relsom
from dksom.cli import ALGORITHMS, DEFAULTS, INPUT_KINDS, _train, main, parse_config
from dksom.dismat import (
    VectorDataset,
    load_array,
    load_matrix,
    load_vectors,
    save_matrix,
    squared_euclidean,
)
from dksom.lattice import Lattice, Schedule
from dksom.nystrom import double_center
from dksom.verify import suite_nystrom


@pytest.fixture()
def fixtures(tmp_path):
    rng = np.random.default_rng(99)
    x = np.vstack([rng.normal(size=(20, 2)), rng.normal(size=(20, 2)) + 5.0])
    vec = tmp_path / "x.csv"
    with open(vec, "w") as fh:
        for row in x:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    d = squared_euclidean(VectorDataset.from_array(x))
    dis = tmp_path / "d.csv"
    save_matrix(d.values, dis)
    ker = tmp_path / "k.csv"
    save_matrix(x @ x.T, ker)
    cfg = tmp_path / "som.cfg"
    cfg.write_text(
        "# small map\n"
        "grid.rows = 2\n"
        "grid.cols = 2\n"
        "schedule.t_max = 8\n"
        "seed = 5\n"
    )
    return {"tmp": tmp_path, "vec": vec, "dis": dis, "ker": ker, "cfg": cfg}


def test_parse_config_values_and_comments(fixtures):
    cfg = parse_config(fixtures["cfg"])
    assert cfg == {"rows": 2, "cols": 2, "t_max": 8, "seed": 5}


def test_parse_config_unknown_key_reports_line(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("grid.rows = 2\nnot.a.key = 1\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:2"):
        parse_config(bad)


def test_parse_config_bad_value(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("grid.rows = two\n")
    with pytest.raises(ValueError, match="bad value"):
        parse_config(bad)


@pytest.mark.parametrize("key, flags", [
    ("algorithm", ["--input-kind", "dissimilarity"]),
    ("input.kind", ["--algorithm", "median"]),
    ("init.mode", ["--algorithm", "median", "--input-kind", "dissimilarity"]),
    ("grid.topology", ["--algorithm", "median", "--input-kind", "dissimilarity"]),
    ("schedule.mode", ["--algorithm", "stmp", "--input-kind", "dissimilarity"]),
])
def test_config_values_obey_flag_choices(fixtures, capsys, key, flags):
    # median ignores init.mode and stmp ignores schedule.mode, so only the
    # parser can reject them
    cfg = fixtures["tmp"] / "choice.cfg"
    cfg.write_text(f"grid.rows = 2\n{key} = bogus\n")
    rc = main(["train", "--config", str(cfg), "--input", str(fixtures["dis"]),
               "--out", str(fixtures["tmp"] / "no"), *flags])
    assert rc == 1
    assert f"choice.cfg:2: bad value 'bogus' for {key}" in capsys.readouterr().err


def test_validate_prints_report(fixtures, capsys):
    rc = main(["validate", "--input", str(fixtures["dis"]), "--kind", "dissimilarity"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["symmetric"] is True
    assert report["zero_diag"] is True


def test_validate_missing_file_exits_1(tmp_path):
    assert main(["validate", "--input", str(tmp_path / "nope.csv"), "--kind", "kernel"]) == 1


def test_train_median_writes_artifacts(fixtures):
    out = fixtures["tmp"] / "run"
    rc = main(["train", "--config", str(fixtures["cfg"]), "--algorithm", "median",
               "--input", str(fixtures["dis"]), "--input-kind", "dissimilarity",
               "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    for field in ("config", "iterations_executed", "final_quantization_cost",
                  "final_clustering_cost", "collisions_detected",
                  "collisions_unresolved", "artifacts"):
        assert field in report
    protos = [int(v) for v in (out / "prototype_indices.txt").read_text().split()]
    assert len(protos) == 4
    assignments = [int(v) for v in (out / "assignment.txt").read_text().split()]
    assert len(assignments) == 40
    assert (out / "umatrix.csv").exists() and (out / "umatrix.pgm").exists()


def test_train_flag_overrides_config(fixtures):
    out = fixtures["tmp"] / "run-override"
    rc = main(["train", "--config", str(fixtures["cfg"]), "--algorithm", "relational-batch",
               "--input", str(fixtures["dis"]), "--input-kind", "dissimilarity",
               "--out", str(out), "--t-max", "3"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["t_max"] == 3
    assert report["iterations_executed"] <= 3


def test_train_relational_report_counters(fixtures):
    out = fixtures["tmp"] / "run-rel"
    rc = main(["train", "--config", str(fixtures["cfg"]), "--algorithm", "relational-batch",
               "--input", str(fixtures["dis"]), "--input-kind", "dissimilarity",
               "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["negative_distances"] == 0
    assert "assignment" in report["phase_timing_ns"]
    coeffs = np.array([[float(v) for v in line.split(",")]
                       for line in (out / "coefficients.csv").read_text().splitlines()])
    assert coeffs.shape == (4, 40)
    assert np.max(np.abs(coeffs.sum(axis=1) - 1.0)) < 1e-12


@pytest.mark.parametrize("algorithm, kind, drift", [
    ("relational-batch", "dis", True), ("kernel-batch", "ker", True), ("median", "dis", False),
])
def test_report_counts_fresh_and_carried_block_sum_passes(fixtures, algorithm, kind, drift):
    out = fixtures["tmp"] / f"run-passes-{algorithm}"
    assert main(["train", "--algorithm", algorithm, "--input", str(fixtures[kind]),
                 "--input-kind", "kernel" if kind == "ker" else "dissimilarity",
                 "--out", str(out), "--rows", "3", "--cols", "3", "--seed", "2"]) == 0
    report = json.loads((out / "report.json").read_text())
    passes = report["block_sum_passes"]
    assert set(passes) == {"fresh", "delta"}
    assert isinstance(passes["delta"], int) and passes["fresh"] >= 1  # the first pass is fresh
    assert passes["fresh"] + passes["delta"] <= report["iterations_executed"]
    if drift:
        assert 0.0 <= report["resync_drift_max"] < 1e-12
    else:
        assert "resync_drift_max" not in report


@pytest.mark.parametrize("algorithm, flags", [
    ("relational-batch", ("--nystrom-landmarks", "5")), ("relational-online", ()),
    ("stmp", ()), ("classic-batch", ()),
])
def test_report_counts_block_sum_passes_only_where_they_are_carried(fixtures, algorithm, flags):
    out = fixtures["tmp"] / f"run-nopasses-{algorithm}"
    source = "vec" if algorithm.startswith("classic") else "dis"
    assert main(["train", "--config", str(fixtures["cfg"]), "--algorithm", algorithm,
                 "--input", str(fixtures[source]),
                 "--input-kind", "vectors" if source == "vec" else "dissimilarity",
                 "--out", str(out), *flags]) == 0
    assert "block_sum_passes" not in json.loads((out / "report.json").read_text())


@pytest.mark.parametrize("algorithm, kind, landmarks, reused", [
    ("relational-batch", "dissimilarity", None, True),
    ("relational-online", "vectors", None, True),
    ("relational-batch", "dissimilarity", 5, False),
    ("kernel-batch", "kernel", None, False),
    ("kernel-online", "kernel", None, False),
])
def test_final_relational_distances_are_reused_for_the_quantization_cost(
        fixtures, algorithm, kind, landmarks, reused):
    """Dense relational runs hand their final distances to the quantization
    cost; the cost matches a fresh quality.quantization_cost."""
    cfg = dict(DEFAULTS, algorithm=algorithm, rows=2, cols=3, t_max=6, seed=5,
               nystrom_landmarks=landmarks)
    data = load_vectors(fixtures["vec"]) if kind == "vectors" else load_matrix(
        fixtures["dis" if kind == "dissimilarity" else "ker"], kind)
    lattice = Lattice(2, 3, "rectangular")
    run = _train(cfg, data, kind, lattice)
    assert (run.distances is not None) == reused
    if not reused:
        return
    result = run.result
    h = lattice.neighborhood(result.final_sigma)
    fresh = quality.quantization_cost(run.dm.values, run.protos, result.assignments, h)
    reuse = quality.criterion_report(run.dm.values, run.protos, result.assignments, h,
                                     run.distances).quantization_cost
    assert reuse == pytest.approx(fresh, rel=1e-12)


def test_train_runs_deterministically(fixtures):
    out1 = fixtures["tmp"] / "det1"
    out2 = fixtures["tmp"] / "det2"
    for out in (out1, out2):
        assert main(["train", "--config", str(fixtures["cfg"]),
                     "--algorithm", "relational-batch",
                     "--input", str(fixtures["dis"]), "--input-kind", "dissimilarity",
                     "--out", str(out)]) == 0
    assert (out1 / "coefficients.csv").read_bytes() == (out2 / "coefficients.csv").read_bytes()


def test_train_stmp_writes_gamma_and_trace(fixtures):
    out = fixtures["tmp"] / "run-stmp"
    rc = main(["train", "--algorithm", "stmp", "--input", str(fixtures["dis"]),
               "--input-kind", "dissimilarity", "--out", str(out),
               "--rows", "1", "--cols", "2", "--sigma0", "0.5", "--seed", "3"])
    assert rc == 0
    assert (out / "gamma.csv").exists()
    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[0].startswith("# beta,")
    gamma = np.array([[float(v) for v in line.split(",")]
                      for line in (out / "gamma.csv").read_text().splitlines()])
    assert np.max(np.abs(gamma.sum(axis=1) - 1.0)) < 1e-12


@pytest.mark.parametrize("cap", ["3", "500"])
def test_stmp_report_counts_products_and_cap_hits_from_the_trace(fixtures, cap):
    out = fixtures["tmp"] / f"run-stmp-{cap}"
    assert main(["train", "--algorithm", "stmp", "--input", str(fixtures["dis"]),
                 "--input-kind", "dissimilarity", "--out", str(out), "--rows", "2",
                 "--cols", "2", "--inner-max-iters", cap]) == 0
    report = json.loads((out / "report.json").read_text())
    trace = np.loadtxt(out / "trace.csv", delimiter=",", ndmin=2)
    inner, delta = trace[:, 1], trace[:, 2]  # inner_iterations, max_delta_e
    assert report["mean_field_products"] == int(inner.sum())
    unconverged = np.count_nonzero(delta >= report["config"]["inner_tol"])
    assert report["inner_cap_hits"] == unconverged
    assert np.all(inner[delta >= report["config"]["inner_tol"]] == int(cap))
    assert (report["inner_cap_hits"] > 0) == (cap == "3")


def test_train_classic_batch_on_vectors(fixtures):
    out = fixtures["tmp"] / "run-classic"
    rc = main(["train", "--config", str(fixtures["cfg"]), "--algorithm", "classic-batch",
               "--input", str(fixtures["vec"]), "--input-kind", "vectors",
               "--out", str(out)])
    assert rc == 0
    assert (out / "prototypes.csv").exists()


@pytest.mark.parametrize("landmarks", [(), ("--nystrom-landmarks", "3")], ids=["dense", "landmarks"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_vectors_whose_squared_distances_overflow_exit_1(tmp_path, capsys, algorithm, landmarks):
    """Two blobs of points scaled by 1e300: every algorithm refuses them
    before any product, with one message and no numeric warning."""
    rng = np.random.default_rng(3)
    x = rng.normal(scale=0.5, size=(12, 2))
    x[6:, 0] += 6.0
    vec = tmp_path / "huge.npy"
    np.save(vec, 1e300 * x)
    rc = main(["train", "--algorithm", algorithm, "--input", str(vec), "--input-kind", "vectors",
               "--rows", "2", "--cols", "2", "--out", str(tmp_path / "o"), *landmarks])
    err = capsys.readouterr().err
    assert rc == 1, err
    takes_vectors = not algorithm.startswith("kernel") and not (
        landmarks and algorithm in ("classic-batch", "classic-online", "median", "stmp"))
    assert ("overflow squared distances" in err) == takes_vectors, err


def test_median_on_entries_near_the_largest_double(tmp_path):
    dis = tmp_path / "big.csv"
    dis.write_text("0,1.7e308\n1.7e308,0\n")
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["train", "--algorithm", "median", "--input", str(dis),
                   "--input-kind", "dissimilarity", "--rows", "1", "--cols", "2", "--out", str(out)])
    assert rc == 0
    assert sorted((out / "prototype_indices.txt").read_text().split()) == ["0", "1"]
    assert json.loads((out / "report.json").read_text())["collisions_unresolved"] == 0


# each family's ignored settings among: --init-mode uniform --sigma-final 0.2
# --eps0 0.4 --t-max 6 --schedule-mode fixed --beta-factor 1.2 --nystrom-seed 3
BATCH_IGNORES = ["schedule.eps0", "stmp.beta_factor", "nystrom.seed"]
ONLINE_IGNORES = ["stmp.beta_factor", "nystrom.seed"]


@pytest.mark.parametrize("algorithm, kind, ignored", [
    ("classic-batch", "vec", ["init.mode"] + BATCH_IGNORES),
    ("classic-online", "vec", ["init.mode"] + ONLINE_IGNORES),
    ("median", "dis", ["init.mode"] + BATCH_IGNORES),
    ("relational-batch", "dis", ["init.mode"] + BATCH_IGNORES),
    ("relational-online", "dis", ONLINE_IGNORES),
    ("kernel-batch", "ker", ["init.mode"] + BATCH_IGNORES),
    ("kernel-online", "ker", ONLINE_IGNORES),
    ("stmp", "dis", ["init.mode", "schedule.sigma_final", "schedule.eps0", "schedule.t_max",
                     "schedule.mode", "nystrom.seed"]),
])
def test_report_lists_the_settings_a_family_ignores(fixtures, algorithm, kind, ignored):
    kinds = {"vec": "vectors", "dis": "dissimilarity", "ker": "kernel"}
    common = ["train", "--algorithm", algorithm, "--input", str(fixtures[kind]),
              "--input-kind", kinds[kind], "--rows", "2", "--cols", "2"]
    out = fixtures["tmp"] / "plain"
    assert main([*common, "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["ignored_settings"] == []
    out = fixtures["tmp"] / "set"
    assert main([*common, "--out", str(out), "--init-mode", "uniform", "--sigma-final", "0.2",
                 "--eps0", "0.4", "--t-max", "6", "--schedule-mode", "fixed",
                 "--beta-factor", "1.2", "--nystrom-seed", "3"]) == 0
    assert json.loads((out / "report.json").read_text())["ignored_settings"] == ignored


def test_nystrom_seed_is_read_with_landmarks(fixtures):
    out = fixtures["tmp"] / "run"
    assert main(["train", "--algorithm", "relational-batch", "--input", str(fixtures["dis"]),
                 "--input-kind", "dissimilarity", "--rows", "2", "--cols", "2", "--out", str(out),
                 "--nystrom-landmarks", "5", "--nystrom-seed", "3"]) == 0
    assert json.loads((out / "report.json").read_text())["ignored_settings"] == []


def test_kernel_algorithm_requires_kernel_input(fixtures, capsys):
    rc = main(["train", "--config", str(fixtures["cfg"]), "--algorithm", "kernel-batch",
               "--input", str(fixtures["dis"]), "--input-kind", "dissimilarity",
               "--out", str(fixtures["tmp"] / "no")])
    assert rc == 1
    assert "kernel input required" in capsys.readouterr().err


def test_classic_algorithm_requires_vectors(fixtures):
    rc = main(["train", "--config", str(fixtures["cfg"]), "--algorithm", "classic-online",
               "--input", str(fixtures["ker"]), "--input-kind", "kernel",
               "--out", str(fixtures["tmp"] / "no")])
    assert rc == 1


def test_median_accepts_vector_input_via_conversion(fixtures):
    out = fixtures["tmp"] / "run-med-vec"
    rc = main(["train", "--config", str(fixtures["cfg"]), "--algorithm", "median",
               "--input", str(fixtures["vec"]), "--input-kind", "vectors",
               "--out", str(out)])
    assert rc == 0


def test_missing_required_setting_exits_1(fixtures, capsys):
    rc = main(["train", "--algorithm", "median",
               "--input", str(fixtures["dis"]), "--input-kind", "dissimilarity"])
    assert rc == 1
    assert "out" in capsys.readouterr().err


def test_argparse_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--algorithm", "not-an-algorithm", "--input", "x",
              "--input-kind", "vectors", "--out", "y"])
    assert exc.value.code == 1


def test_nystrom_acceleration_reports_error_sample(fixtures):
    out = fixtures["tmp"] / "run-nys"
    rc = main(["train", "--config", str(fixtures["cfg"]), "--algorithm", "kernel-batch",
               "--input", str(fixtures["ker"]), "--input-kind", "kernel",
               "--out", str(out), "--nystrom-landmarks", "10"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["nystrom"]["landmarks"] == 10
    assert report["nystrom"]["samples"] == 1000
    assert report["nystrom"]["max_abs_error"] < 1e-6  # rank-2 data, 10 landmarks


@pytest.mark.parametrize("landmarks", [(), ("--nystrom-landmarks", "10")])
@pytest.mark.parametrize("algorithm, source, kind", [
    ("relational-online", "dis", "dissimilarity"),
    ("relational-online", "ker", "kernel"),
    ("kernel-online", "ker", "kernel"),
])
def test_train_online_writes_stochastic_coefficients(fixtures, algorithm, source, kind, landmarks):
    out = fixtures["tmp"] / f"run-{algorithm}-{kind}-{len(landmarks)}"
    rc = main(["train", "--config", str(fixtures["cfg"]), "--algorithm", algorithm,
               "--input", str(fixtures[source]), "--input-kind", kind,
               "--out", str(out), *landmarks])
    assert rc == 0
    coeffs = np.loadtxt(out / "coefficients.csv", delimiter=",", ndmin=2)
    assert coeffs.shape == (4, 40)
    assert np.max(np.abs(coeffs.sum(axis=1) - 1.0)) < 1e-12
    assert coeffs.min() >= 0.0 and coeffs.max() <= 1.0
    report = json.loads((out / "report.json").read_text())
    assert 0.0 <= report["resync_drift_max"] < 1e-12


def test_train_leaves_numpy_ma_unimported(fixtures):
    """Plain np.unique imports numpy.ma, 12-18 ms in a fresh process: no
    trainer's path reaches it. The runs share one fresh interpreter."""
    runs = [
        ("classic-batch", "vec", "vectors", ()),
        ("median", "dis", "dissimilarity", ()),
        ("relational-batch", "dis", "dissimilarity", ()),
        ("relational-online", "dis", "dissimilarity", ()),
        ("kernel-online", "ker", "kernel", ()),
        ("stmp", "dis", "dissimilarity", ()),
        ("relational-online", "dis", "dissimilarity", ("--nystrom-landmarks", "3")),
    ]
    argvs = [["train", "--config", str(fixtures["cfg"]), "--algorithm", algorithm,
              "--input", str(fixtures[source]), "--input-kind", kind,
              "--out", str(fixtures["tmp"] / f"run-{j}"), *flags]
             for j, (algorithm, source, kind, flags) in enumerate(runs)]
    script = ("import json, sys\n"
              "from dksom.cli import main\n"
              "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
              "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(dksom.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, check=True)
    codes, imported = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(runs)
    assert not imported


@pytest.mark.parametrize("algorithm, source", [
    ("classic-batch", "vec"), ("classic-online", "vec"), ("median", "dis"),
    ("relational-batch", "dis"), ("relational-online", "dis"),
    ("kernel-batch", "ker"), ("kernel-online", "ker"), ("stmp", "dis"),
])
def test_train_at_a_sigma_whose_square_underflows(fixtures, algorithm, source):
    """At sigma = 1e-200, 2 sigma^2 rounds to 0 and the neighborhood is the
    identity: the costs are finite and the coefficients row-stochastic."""
    kinds = {"vec": "vectors", "dis": "dissimilarity", "ker": "kernel"}
    out = fixtures["tmp"] / f"run-tiny-{algorithm}"
    assert main(["train", "--config", str(fixtures["cfg"]), "--algorithm", algorithm,
                 "--input", str(fixtures[source]), "--input-kind", kinds[source],
                 "--out", str(out), "--sigma0", "1e-200", "--sigma-final", "1e-200"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert np.isfinite(report["final_quantization_cost"])
    assert np.isfinite(report["final_clustering_cost"])
    if (out / "coefficients.csv").exists():
        coeffs = np.loadtxt(out / "coefficients.csv", delimiter=",", ndmin=2)
        assert np.all(np.isfinite(coeffs)) and coeffs.min() >= 0.0
        assert np.max(np.abs(coeffs.sum(axis=1) - 1.0)) < 1e-12


def test_nystrom_rejected_for_median(fixtures, capsys):
    rc = main(["train", "--config", str(fixtures["cfg"]), "--algorithm", "median",
               "--input", str(fixtures["dis"]), "--input-kind", "dissimilarity",
               "--out", str(fixtures["tmp"] / "no"), "--nystrom-landmarks", "10"])
    assert rc == 1
    assert "relational/kernel" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm", ["classic-batch", "classic-online", "stmp"])
def test_nystrom_rejected_outside_relational_and_kernel(fixtures, capsys, algorithm):
    rc = main(["train", "--config", str(fixtures["cfg"]), "--algorithm", algorithm,
               "--input", str(fixtures["vec"]), "--input-kind", "vectors",
               "--out", str(fixtures["tmp"] / "no"), "--nystrom-landmarks", "10"])
    assert rc == 1
    assert "relational/kernel" in capsys.readouterr().err


def test_stmp_annealing_settings_take_effect_without_beta_range(fixtures, capsys):
    base = ["train", "--algorithm", "stmp", "--input", str(fixtures["dis"]),
            "--input-kind", "dissimilarity", "--rows", "2", "--cols", "2"]

    def trace(name, *flags):
        out = fixtures["tmp"] / name
        assert main([*base, "--out", str(out), *flags]) == 0
        return np.loadtxt(out / "trace.csv", delimiter=",", ndmin=2)

    assert len(trace("factor", "--beta-factor", "1.5")) < len(trace("default"))
    assert np.all(trace("capped", "--inner-max-iters", "1")[:, 1] == 1)  # inner_iterations
    for flags in (["--beta-factor", "1"], ["--inner-max-iters", "0"]):
        assert main([*base, "--out", str(fixtures["tmp"] / "no"), *flags]) == 1
    err = capsys.readouterr().err
    assert "beta_factor must exceed 1" in err
    assert "inner_max_iters must be at least 1" in err


_NON_FINITE_OR_EPS_ABOVE_ONE = [
    ("relational-batch", ["--sigma0", "nan"], "schedule endpoints must be finite"),
    ("median", ["--sigma0", "inf"], "schedule endpoints must be finite"),
    ("median", ["--sigma-final", "nan"], "schedule endpoints must be finite"),
    ("relational-online", ["--eps0", "nan"], "schedule endpoints must be finite"),
    ("relational-online", ["--eps0", "2"], "learning rate must not exceed 1"),
    ("stmp", ["--sigma0", "nan"], "sigma must be finite"),
    ("stmp", ["--beta0", "nan", "--beta-max", "1"], "beta0 must be finite"),
    ("stmp", ["--beta-factor", "nan"], "beta_factor must be finite"),
    ("stmp", ["--inner-tol", "nan"], "inner_tol must be finite"),
    ("stmp", ["--t-max", "0"], "schedule needs at least one step"),
    ("median", ["--t-max", "0"], "schedule needs at least one step"),
]


@pytest.mark.parametrize("algorithm, flags, message", _NON_FINITE_OR_EPS_ABOVE_ONE,
                         ids=[" ".join([alg, *flags]) for alg, flags, _ in
                              _NON_FINITE_OR_EPS_ABOVE_ONE])
def test_train_rejects_non_finite_schedule_and_eps_above_one(fixtures, capsys, algorithm, flags,
                                                             message):
    rc = main(["train", "--config", str(fixtures["cfg"]), "--algorithm", algorithm,
               "--input", str(fixtures["dis"]), "--input-kind", "dissimilarity",
               "--out", str(fixtures["tmp"] / "no"), *flags])
    assert rc == 1
    assert message in capsys.readouterr().err


def test_eps_is_checked_by_online_algorithms_only(fixtures, capsys):
    def train(algorithm):
        return main(["train", "--config", str(fixtures["cfg"]), "--algorithm", algorithm,
                     "--input", str(fixtures["dis"]), "--input-kind", "dissimilarity",
                     "--out", str(fixtures["tmp"] / algorithm),
                     "--eps0", "0.001", "--eps-final", "0.01"])

    assert train("relational-batch") == 0
    assert train("relational-online") == 1
    assert "schedule must be non-increasing, got 0.001 -> 0.01" in capsys.readouterr().err


def test_verify_fast_suites_exit_0(capsys):
    for suite in ("kh", "triangle", "equivalence", "stmp-limit"):
        assert main(["verify", suite]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_nystrom_untimed_checks_pass():
    # the fourth check times an N=4000 product against its landmark form
    checks = list(itertools.islice(suite_nystrom(), 3))
    assert [name for name, _, _ in checks] == ["full-landmark exactness", "rank-1 single landmark",
                                               "factored distance matches dense reconstruction"]
    assert all(ok for _, ok, _ in checks), checks


def test_umatrix_subcommand_round_trip(fixtures):
    out = fixtures["tmp"] / "run-u"
    assert main(["train", "--config", str(fixtures["cfg"]), "--algorithm", "median",
                 "--input", str(fixtures["dis"]), "--input-kind", "dissimilarity",
                 "--out", str(out)]) == 0
    prefix = fixtures["tmp"] / "redo"
    rc = main(["umatrix", "--input", str(fixtures["dis"]), "--input-kind", "dissimilarity",
               "--prototypes", str(out / "prototype_indices.txt"), "--prototype-kind", "median",
               "--rows", "2", "--cols", "2", "--out", str(prefix)])
    assert rc == 0
    redo = (prefix.parent / (prefix.name + ".csv")).read_text()
    original = (out / "umatrix.csv").read_text()
    assert redo == original


@pytest.mark.parametrize("rows, cols, seed", [(2, 3, 0), (3, 3, 1)])
def test_umatrix_subcommand_reproduces_the_stmp_grid(fixtures, rows, cols, seed):
    """STMP's coefficients are the transpose of its mixing matrix; the grid is
    computed from them in the layout the umatrix subcommand loads them in."""
    out = fixtures["tmp"] / "run-stmp-u"
    assert main(["train", "--algorithm", "stmp", "--input", str(fixtures["dis"]),
                 "--input-kind", "dissimilarity", "--out", str(out), "--rows", str(rows),
                 "--cols", str(cols), "--seed", str(seed)]) == 0
    prefix = fixtures["tmp"] / "redo"
    assert main(["umatrix", "--input", str(fixtures["dis"]), "--input-kind", "dissimilarity",
                 "--prototypes", str(out / "coefficients.csv"),
                 "--prototype-kind", "coefficients", "--rows", str(rows), "--cols", str(cols),
                 "--out", str(prefix)]) == 0
    assert (fixtures["tmp"] / "redo.csv").read_bytes() == (out / "umatrix.csv").read_bytes()


@pytest.mark.parametrize("kind, text, message", [
    ("median", "0\n5\n40\n7\n", "40 is not an integer"),
    ("median", "0\nnan\n3\n7\n", "nan is not an integer"),
    ("median", "0\n-1\n3\n7\n", "-1 is not an integer"),
    ("median", "0\n1.7\n3\n7\n", "1.7 is not an integer"),
    ("median", "0\n5\n3\n", "3 prototype indices for 4 units"),
    ("coefficients", "2 rows", "of unit 0 sum to 2.0"),
    ("coefficients", "negative", "non-negative"),
    ("coefficients", "3 units", "are 3 x 40, expected 4 x 40"),
], ids=["index-n", "nan", "minus-one", "fraction", "too-few", "sum-2", "negative", "shape"])
def test_umatrix_rejects_bad_prototype_files(fixtures, capsys, kind, text, message):
    path = fixtures["tmp"] / "protos.csv"
    if kind == "median":
        path.write_text(text)
    else:
        coeffs = np.full((4, 40), 1.0 / 40)
        if text == "2 rows":
            coeffs = 2.0 * coeffs
        elif text == "negative":
            coeffs[1, :2] = [-1.0 / 40, 3.0 / 40]
        save_matrix(coeffs[:3] if text == "3 units" else coeffs, path)
    rc = main(["umatrix", "--input", str(fixtures["dis"]), "--input-kind", "dissimilarity",
               "--prototypes", str(path), "--prototype-kind", kind,
               "--rows", "2", "--cols", "2", "--out", str(fixtures["tmp"] / "u")])
    assert rc == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("algorithm, kind", [
    ("classic-batch", "vec"), ("classic-online", "vec"), ("median", "dis"),
    ("relational-batch", "dis"), ("relational-online", "dis"), ("kernel-batch", "ker"),
    ("kernel-online", "ker"), ("stmp", "dis"),
])
def test_report_carries_write_time(fixtures, algorithm, kind):
    out = fixtures["tmp"] / f"run-{algorithm}"
    rc = main(["train", "--config", str(fixtures["cfg"]), "--algorithm", algorithm,
               "--input", str(fixtures[kind]),
               "--input-kind", {"vec": "vectors", "dis": "dissimilarity", "ker": "kernel"}[kind],
               "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    for key in ("load_ns", "write_ns"):
        assert isinstance(report[key], int) and report[key] >= 0


def test_cli_coefficients_file_is_bitwise_the_trainer_output(fixtures):
    out = fixtures["tmp"] / "run-bits"
    assert main(["train", "--config", str(fixtures["cfg"]), "--algorithm", "relational-batch",
                 "--input", str(fixtures["dis"]), "--input-kind", "dissimilarity",
                 "--out", str(out)]) == 0
    result = relsom.train_batch_relational(load_matrix(fixtures["dis"], "dissimilarity"),
                                           Lattice(2, 2), Schedule(8, seed=5))
    assert load_array(out / "coefficients.csv").tobytes() == result.coefficients.tobytes()


# (name, file bytes or None for a directory, exit codes of median, kernel-batch and
# classic-batch, median's stderr after "error: " with {p} for the path, None where it
# depends on the locale's encoding); the codes and messages are those of the csv-module
# reader that parsed every CSV before NumPy's C reader took over
_HOSTILE_CSV = [
    ("empty", b"", (1, 1, 1), "{p}: no data rows"),
    ("header-only", b"# a,b\n", (1, 1, 1), "{p}: no data rows"),
    ("blank-lines", b"\n\n\n", (1, 1, 1), "{p}: no data rows"),
    ("zeros", b"0,0\n0,0\n", (0, 0, 0), ""),
    ("overflow", b"0,1e400\n1e400,0\n", (1, 1, 1),
     "dissimilarity matrix contains non-finite entries"),
    ("underflow", b"0,1e-400\n1e-400,0\n", (0, 0, 0), ""),
    ("non-square", b"0,1,2\n1,0,3\n", (1, 1, 0), "{p}: non-square matrix (2 rows x 3 columns)"),
    ("ragged", b"0,1\n1\n", (1, 1, 1), "{p}: line 2 has 1 columns, expected 2"),
    ("latin1", b"0,1\n1,0\xe9\n", (1, 1, 1), None),
    ("negative", b"0,-1\n-1,0\n", (1, 0, 0), "negative dissimilarity entry -1.0 at (0, 1)"),
    ("asymmetric", b"0,1\n2,0\n", (1, 1, 0),
     "dissimilarity matrix asymmetry 1.000e+00 exceeds tolerance 1e-09"),
    ("nan", b"0,nan\nnan,0\n", (1, 1, 1), "dissimilarity matrix contains non-finite entries"),
    ("bom", b"\xef\xbb\xbf0,1\n1,0\n", (1, 1, 1),
     "{p}: non-numeric value '\\ufeff0' at line 1, column 1"),
    ("bom-header", b"\xef\xbb\xbf# h\n0,1\n1,0\n", (1, 1, 1),
     "{p}: non-numeric value '\\ufeff# h' at line 1, column 1"),
    ("crlf", b"0,1\r\n1,0\r\n", (0, 1, 0), ""),
    ("cr", b"0,1\r1,0\r", (0, 1, 0), ""),
    ("semicolon", b"0;1\n1;0\n", (1, 1, 1), "{p}: non-numeric value '0;1' at line 1, column 1"),
    ("hash-inline", b"1,2#x\n2,1\n", (1, 1, 1), "{p}: non-numeric value '2#x' at line 1, column 2"),
    ("underscore", b"0,1_0\n1_0,0\n", (0, 1, 0), ""),
    ("quoted", b'"0","1"\n"1","0"\n', (0, 1, 0), ""),
    ("ws-line", b"0,1\n   \n1,0\n", (0, 1, 0), ""),
    ("fullwidth", b"\xef\xbc\x90,\xef\xbc\x91\n\xef\xbc\x91,\xef\xbc\x90\n", (0, 1, 0), ""),
    ("header-ws", b"   # h\n0,1\n1,0\n", (0, 1, 0), ""),
    ("header-line2", b"\n# h\n0,1\n1,0\n", (1, 1, 1),
     "{p}: non-numeric value '# h' at line 2, column 1"),
    ("trailing-comma", b"0,1,\n1,0,\n", (1, 1, 1), "{p}: non-numeric value '' at line 1, column 3"),
    ("empty-field", b"0,,1\n1,0,1\n1,1,0\n", (1, 1, 1),
     "{p}: non-numeric value '' at line 1, column 2"),
    ("comma-line", b"0,1\n,\n1,0\n", (1, 1, 1), "{p}: non-numeric value '' at line 2, column 1"),
    ("spaces", b" 0 , 1 \n 1 ,\t0\n", (0, 1, 0), ""),
    ("inner-space", b"0,1 2\n1 2,0\n", (1, 1, 1),
     "{p}: non-numeric value '1 2' at line 1, column 2"),
    ("tab-sep", b"0\t1\n1\t0\n", (1, 1, 1), "{p}: non-numeric value '0\\t1' at line 1, column 1"),
    ("hex", b"0,0x1\n0x1,0\n", (1, 1, 1), "{p}: non-numeric value '0x1' at line 1, column 2"),
    ("inf", b"0,inf\ninf,0\n", (1, 1, 1), "dissimilarity matrix contains non-finite entries"),
    ("plus", b"+0,+1\n+1,+0\n", (0, 1, 0), ""),
    ("one", b"0\n", (0, 1, 1), ""),
    ("one-row", b"0,1\n", (1, 1, 1), "{p}: non-square matrix (1 rows x 2 columns)"),
    ("column", b"0\n1\n", (1, 1, 0), "{p}: non-square matrix (2 rows x 1 columns)"),
    ("nul", b"0,1\x00\n1,0\n", (1, 1, 1), "{p}: non-numeric value '1\\x00' at line 1, column 2"),
    ("vt", b"0,\x0b1\n1,0\n", (0, 1, 0), ""),
    ("fs", b"0,\x1c1\n1,0\n", (1, 1, 1), "{p}: non-numeric value '\\x1c1' at line 1, column 2"),
    ("nbsp", b"0,\xc2\xa01\n1,0\n", (0, 1, 0), ""),
    ("no-final-newline", b"0,1\n1,0", (0, 1, 0), ""),
    ("header-then-blank", b"# h\n\n0,1\n1,0\n", (0, 1, 0), ""),
    ("hash-line3", b"0,1\n1,0\n# end\n", (1, 1, 1),
     "{p}: non-numeric value '# end' at line 3, column 1"),
    ("d-exponent", b"0,1d0\n1d0,0\n", (1, 1, 1),
     "{p}: non-numeric value '1d0' at line 1, column 2"),
    ("dot", b"0,.\n.,0\n", (1, 1, 1), "{p}: non-numeric value '.' at line 1, column 2"),
    ("infinity", b"0,Infinity\nInfinity,0\n", (1, 1, 1),
     "dissimilarity matrix contains non-finite entries"),
    ("nan-paren", b"0,nan(1)\nnan(1),0\n", (1, 1, 1),
     "{p}: non-numeric value 'nan(1)' at line 1, column 2"),
    ("complex", b"0,1j\n1j,0\n", (1, 1, 1), "{p}: non-numeric value '1j' at line 1, column 2"),
    ("header-open-quote", b'#h,"a\n0,1\n1,0\n', (1, 1, 1), "{p}: no data rows"),
    ("directory", None, (1, 1, 1), "[Errno 21] Is a directory: '{p}'"),
]
_RUN_DETAILS = ("config", "artifacts", "load_ns", "wall_ns", "write_ns", "phase_timing_ns")


def _outputs(out):
    """Every file a run wrote, report.json without paths and timings."""
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    report = json.loads(files.pop("report.json"))
    return files, {key: value for key, value in report.items() if key not in _RUN_DETAILS}


def _train_tiny(path, algorithm, kind, out):
    return main(["train", "--algorithm", algorithm, "--input", str(path), "--input-kind", kind,
                 "--out", str(out), "--rows", "1", "--cols", "2", "--t-max", "2"])


@pytest.mark.parametrize("algorithm, kind, column", [
    ("median", "dissimilarity", 0), ("kernel-batch", "kernel", 1), ("classic-batch", "vectors", 2),
])
@pytest.mark.parametrize("name, content, codes, message", _HOSTILE_CSV,
                         ids=[case[0] for case in _HOSTILE_CSV])
def test_hostile_csv_exits_as_the_csv_module_reader(tmp_path, capsys, monkeypatch, algorithm,
                                                    kind, column, name, content, codes, message):
    path = tmp_path / f"{name}.csv"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code = _train_tiny(path, algorithm, kind, tmp_path / "numpy")
    err = capsys.readouterr().err
    assert code == codes[column]
    if algorithm == "median" and message is not None:
        assert err == ("error: " + message.format(p=path) + "\n" if message else "")
    monkeypatch.setattr(dismat, "load_array",
                        lambda p: np.asarray(dismat._parse_csv_rows(p), dtype=float))
    assert _train_tiny(path, algorithm, kind, tmp_path / "csv-module") == code
    assert capsys.readouterr().err == err
    if code == 0:
        assert _outputs(tmp_path / "numpy") == _outputs(tmp_path / "csv-module")


def _npy_inputs(tmp_path, layout):
    """kind -> (CSV file from save_matrix, .npy file in the given layout) of the
    same points, their L1 dissimilarity and their linear kernel."""
    x = np.random.default_rng(31).integers(-9, 10, size=(24, 3))
    values = {"vectors": x, "dissimilarity": np.abs(x[:, None, :] - x[None, :, :]).sum(axis=2),
              "kernel": x @ x.T}
    files = {}
    for kind, v in values.items():
        if layout == ">f8":
            v = (v / 7.0).astype(">f8")
        elif layout == "fortran":
            v = np.asfortranarray(v / 7.0)
        save_matrix(v, tmp_path / f"{kind}.csv")
        np.save(tmp_path / f"{kind}.npy", v)
        files[kind] = (tmp_path / f"{kind}.csv", tmp_path / f"{kind}.npy")
    return files


@pytest.mark.parametrize("layout", ["int64", ">f8", "fortran"])
@pytest.mark.parametrize("algorithm, kind", [
    ("median", "dissimilarity"), ("relational-batch", "dissimilarity"), ("stmp", "dissimilarity"),
    ("kernel-online", "kernel"), ("classic-batch", "vectors"),
])
def test_npy_input_trains_as_its_csv(tmp_path, capsys, layout, algorithm, kind):
    paths = _npy_inputs(tmp_path, layout)[kind]
    stored = np.load(paths[1])
    assert stored.dtype == {"int64": np.int64, ">f8": ">f8", "fortran": float}[layout]
    assert stored.flags.c_contiguous == (layout != "fortran")
    outputs, reports = [], []
    for path in paths:
        out = tmp_path / path.suffix[1:]
        assert main(["train", "--algorithm", algorithm, "--input", str(path), "--input-kind", kind,
                     "--out", str(out), "--rows", "2", "--cols", "3", "--t-max", "5"]) == 0
        outputs.append(_outputs(out))
        assert main(["validate", "--input", str(path), "--kind", kind]) == 0
        reports.append(capsys.readouterr().out.split("\n", 1)[1])  # after the "wrote" line
    assert outputs[0] == outputs[1]
    assert reports[0] == reports[1]


def test_one_dimensional_npy_vectors_are_one_column(tmp_path):
    x = np.random.default_rng(32).normal(size=9)
    np.save(tmp_path / "x.npy", x)
    save_matrix(x[:, None], tmp_path / "x.csv")
    npy, csv = load_vectors(tmp_path / "x.npy").points, load_vectors(tmp_path / "x.csv").points
    assert npy.shape == csv.shape == (9, 1) and npy.tobytes() == csv.tobytes() == x.tobytes()


def _bad_npy_files(tmp_path):
    """name -> a .npy path that no loader may accept."""
    def saved(name, values, **kwargs):
        np.save(tmp_path / f"{name}.npy", values, **kwargs)
        return tmp_path / f"{name}.npy"

    whole = saved("whole", np.eye(4)).read_bytes()
    oversized = saved("oversized", np.zeros(1))
    with open(oversized, "r+b") as fh:  # a header that claims 10**14 doubles
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "<f8", "fortran_order": False, "shape": (10**7, 10**7)})
    files = {
        "object": saved("object", np.array([[None, 1]], dtype=object), allow_pickle=True),
        "complex": saved("complex", np.eye(2) + 1j),
        "3-d": saved("3-d", np.zeros((2, 2, 2))),
        "0-d": saved("0-d", np.array(1.0)),
        "bool": saved("bool", np.eye(2, dtype=bool)),
        "string": saved("string", np.array([["0", "1"], ["1", "0"]])),
        "no-values": saved("no-values", np.zeros((0, 0))),
        "oversized": oversized,
    }
    for name, data in (("empty", b""), ("truncated", whole[:-5]), ("header-only", whole[:40]),
                       ("csv-text", b"0,1\n1,0\n")):
        (tmp_path / f"{name}.npy").write_bytes(data)
        files[name] = tmp_path / f"{name}.npy"
    np.savez(tmp_path / "archive.npz", np.eye(2))
    files["npz"] = (tmp_path / "archive.npz").rename(tmp_path / "npz.npy")
    return files


@pytest.mark.parametrize("name", ["empty", "truncated", "header-only", "csv-text", "object",
                                  "complex", "3-d", "0-d", "bool", "string", "no-values",
                                  "oversized", "npz"])
@pytest.mark.parametrize("command", ["train", "validate"])
def test_unreadable_npy_input_exits_1(tmp_path, capsys, command, name):
    path = _bad_npy_files(tmp_path)[name]
    if command == "train":
        code = _train_tiny(path, "median", "dissimilarity", tmp_path / "out")
    else:
        code = main(["validate", "--input", str(path), "--kind", "vectors"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")

def _write_inputs(directory, x):
    """Vector, squared-distance and linear-kernel files for points x."""
    directory.mkdir()
    with open(directory / "x.csv", "w") as fh:
        for row in x:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    save_matrix(squared_euclidean(VectorDataset.from_array(x)).values, directory / "d.csv")
    save_matrix(x @ x.T, directory / "k.csv")
    return {"vectors": directory / "x.csv", "dissimilarity": directory / "d.csv",
            "kernel": directory / "k.csv"}


@pytest.mark.parametrize("init_mode", ["indicator", "uniform"])
@pytest.mark.parametrize("landmarks", [(), ("--nystrom-landmarks", "3")])
@pytest.mark.parametrize("kind", INPUT_KINDS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_train_combination_runs_or_fails_cleanly(fixtures, capsys, algorithm, kind, landmarks,
                                                  init_mode):
    """On the 2x2 map (K=4): 40 points, N=1, K > N (3 points), 4 points each
    repeated 3 times, 6 identical points (D all zero), and the 40 points
    scaled by 1e-3 (D by 1e-6) and by 1e+6 (D by 1e+12)."""
    tmp = fixtures["tmp"]
    cases = {
        "fixture": {"vectors": fixtures["vec"], "dissimilarity": fixtures["dis"],
                    "kernel": fixtures["ker"]},
        "n1": _write_inputs(tmp / "n1", np.array([[0.5, -1.0]])),
        "k-gt-n": _write_inputs(tmp / "k-gt-n", np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])),
        "ties": _write_inputs(tmp / "ties", np.repeat(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 3.0]]), 3, axis=0)),
        "scaled": _write_inputs(tmp / "scaled",
                                1e-3 * np.loadtxt(fixtures["vec"], delimiter=",")),
        "zero-d": _write_inputs(tmp / "zero-d", np.tile([[0.5, -1.0]], (6, 1))),
        "scaled-up": _write_inputs(tmp / "scaled-up",
                                   1e+6 * np.loadtxt(fixtures["vec"], delimiter=",")),
    }
    for case, paths in cases.items():
        out = tmp / f"run-{case}"
        rc = main(["train", "--config", str(fixtures["cfg"]), "--algorithm", algorithm,
                   "--input", str(paths[kind]), "--input-kind", kind, "--out", str(out),
                   "--init-mode", init_mode, *landmarks])
        assert rc in (0, 1), (case, capsys.readouterr().err)
        if rc != 0:
            continue
        n = len((out / "assignment.txt").read_text().split())
        if (out / "coefficients.csv").exists():
            coeffs = np.loadtxt(out / "coefficients.csv", delimiter=",", ndmin=2)
            assert coeffs.shape == (4, n)
            assert np.max(np.abs(coeffs.sum(axis=1) - 1.0)) < 1e-12, case
            assert coeffs.min() >= 0.0, case
        if algorithm == "median" and n >= 4:
            protos = (out / "prototype_indices.txt").read_text().split()
            assert len(set(protos)) == 4, case


@pytest.mark.parametrize("init_mode", ["indicator", "uniform"])
@pytest.mark.parametrize("flags", [(), ("--sigma0", "0.001", "--sigma-final", "0.0001"),
                                   ("--nystrom-landmarks", "3")],
                         ids=["plain", "tiny-sigma", "landmarks"])
@pytest.mark.parametrize("algorithm", ["median", "relational-batch", "relational-online", "stmp"])
def test_train_on_constant_and_non_euclidean_dissimilarity(fixtures, capsys, algorithm, flags,
                                                           init_mode):
    """Every algorithm that takes dissimilarity input, on a constant off-diagonal D
    and on a uniform random D that no point configuration embeds: it runs and
    keeps its invariants, or fails cleanly."""
    n = 12
    upper = np.triu(np.random.default_rng(7).uniform(size=(n, n)), 1)
    matrices = {"constant": 1.0 - np.eye(n), "non-euclidean": upper + upper.T}
    assert np.linalg.eigvalsh(double_center(matrices["non-euclidean"])).min() < -1e-9
    for name, d in matrices.items():
        path = fixtures["tmp"] / f"{name}.csv"
        save_matrix(d, path)
        out = fixtures["tmp"] / f"run-{name}"
        rc = main(["train", "--config", str(fixtures["cfg"]), "--algorithm", algorithm,
                   "--input", str(path), "--input-kind", "dissimilarity",
                   "--out", str(out), "--init-mode", init_mode, *flags])
        assert rc in (0, 1), (name, capsys.readouterr().err)
        if rc != 0:
            continue
        if algorithm == "median":
            protos = (out / "prototype_indices.txt").read_text().split()
            assert len(set(protos)) == 4, name
        else:
            coeffs = np.loadtxt(out / "coefficients.csv", delimiter=",", ndmin=2)
            assert coeffs.shape == (4, n), name
            assert coeffs.min() >= 0.0, name
            assert np.max(np.abs(coeffs.sum(axis=1) - 1.0)) <= 1e-12, name
