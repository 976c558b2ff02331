import json

import numpy as np
import pytest

from dksom import quality
from dksom.cli import ALGORITHMS, DEFAULTS, INPUT_KINDS, _train, main, parse_config
from dksom.dismat import VectorDataset, load_matrix, load_vectors, save_matrix, squared_euclidean
from dksom.lattice import Lattice
from dksom.nystrom import double_center


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


def test_train_classic_batch_on_vectors(fixtures):
    out = fixtures["tmp"] / "run-classic"
    rc = main(["train", "--config", str(fixtures["cfg"]), "--algorithm", "classic-batch",
               "--input", str(fixtures["vec"]), "--input-kind", "vectors",
               "--out", str(out)])
    assert rc == 0
    assert (out / "prototypes.csv").exists()


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
    assert main(["verify", "kh"]) == 0
    assert main(["verify", "triangle"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


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
