import warnings

import numpy as np
import pytest

from dksom.bench import blob_dataset
from dksom.cli import main
from dksom.dismat import DissimilarityMatrix, VectorDataset, save_matrix, squared_euclidean
from dksom.lattice import Lattice
from dksom.nystrom import double_center
from dksom.stmp import (
    AnnealingSchedule,
    PowerIterationError,
    _entropy,
    critical_beta,
    mean_field,
    mixing_coefficients,
    power_iteration,
    settle,
    soft_update,
    symmetry_breaking_beta,
    train_stmp,
)
from dksom.verify import plain_fixed_point, two_blob_dissimilarity

D3 = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 4.0], [9.0, 4.0, 0.0]])


def test_soft_update_two_unit_example():
    gamma = soft_update(np.array([[0.0, np.log(2.0)]]), beta=1.0)
    np.testing.assert_allclose(gamma, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)


def test_soft_update_shift_invariant_and_rejects_bad_beta():
    e = np.array([[5.0, 7.0], [1.0, 0.0]])
    np.testing.assert_allclose(soft_update(e, 2.0), soft_update(e + 100.0, 2.0), atol=1e-12)
    with pytest.raises(ValueError):
        soft_update(e, 0.0)


def test_soft_update_sharpens_with_beta():
    e = np.array([[0.0, 1.0]])
    g1 = soft_update(e, 1.0)[0, 0]
    g2 = soft_update(e, 10.0)[0, 0]
    assert g2 > g1 > 0.5


def test_mixing_coefficients_crisp_identity_example():
    gamma = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    b = mixing_coefficients(gamma, np.eye(2))
    np.testing.assert_allclose(b[:, 0], [0.5, 0.5, 0.0], atol=1e-15)
    np.testing.assert_allclose(b[:, 1], [0.0, 0.0, 1.0], atol=1e-15)


def test_mixing_coefficients_columns_stochastic():
    rng = np.random.default_rng(4)
    gamma = rng.dirichlet(np.ones(6), size=40)
    h = Lattice(2, 3, "rectangular").neighborhood(0.9)
    b = mixing_coefficients(gamma, h)
    np.testing.assert_allclose(b.sum(axis=0), 1.0, atol=1e-12)


def test_mean_field_single_unit_uniform():
    b = np.full((3, 1), 1.0 / 3.0)
    e = mean_field(D3, b, np.ones((1, 1)))
    np.testing.assert_allclose(e[:, 0], [16.0 / 9.0, 1.0 / 9.0, 25.0 / 9.0], atol=1e-12)


def test_mean_field_rejects_non_stochastic_columns():
    with pytest.raises(ValueError):
        mean_field(D3, np.full((3, 1), 0.5), np.ones((1, 1)))


def test_power_iteration_matches_dense_solver():
    rng = np.random.default_rng(15)
    for _ in range(5):
        a = rng.normal(size=(30, 30))
        a = np.abs(a + a.T)
        np.fill_diagonal(a, 0.0)
        lam = power_iteration(a)
        ref = float(np.max(np.abs(np.linalg.eigvalsh(a))))
        assert abs(lam - ref) <= 1e-6 * ref


def test_power_iteration_handles_plus_minus_pair():
    # eigenvalues +2 and -2: classic failure mode for naive power iteration
    assert power_iteration(np.array([[0.0, 2.0], [2.0, 0.0]])) == pytest.approx(2.0, rel=1e-8)


def test_power_iteration_zero_matrix():
    assert power_iteration(np.zeros((4, 4))) == 0.0


def test_power_iteration_raises_when_budget_exhausted():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    with pytest.raises(PowerIterationError):
        power_iteration(d, tol=1e-16, max_iters=2)


def test_critical_beta_frozen_values():
    assert critical_beta(DissimilarityMatrix.from_array([[0.0, 2.0], [2.0, 0.0]])) == pytest.approx(0.5)
    assert critical_beta(DissimilarityMatrix.from_array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        critical_beta(DissimilarityMatrix.from_array(np.zeros((3, 3))))


def _two_clusters(n: int, sd: float, seed: int = 0) -> DissimilarityMatrix:
    """Squared distances of two clusters of spread sd, centres 10 apart: D has
    two eigenvalues close to +lambda and -lambda."""
    x = np.random.default_rng(seed).normal(0.0, sd, size=(n, 2))
    x[n // 2:, 0] += 10.0
    return squared_euclidean(VectorDataset.from_array(x))


@pytest.mark.parametrize("sd", [0.01, 0.001])
@pytest.mark.parametrize("n", [20, 60, 200])
def test_critical_beta_on_two_tight_clusters(n, sd):
    d = _two_clusters(n, sd)
    lam = float(np.max(np.abs(np.linalg.eigvalsh(d.values))))
    assert critical_beta(d) == pytest.approx(1.0 / lam, rel=1e-9)


@pytest.mark.parametrize("scale", [1e100, 1e-100, 2.0**600, 2.0**-600])
def test_critical_beta_scales_inversely_with_the_matrix(scale):
    d = _two_clusters(20, 0.5)
    scaled = DissimilarityMatrix.from_array(d.values * scale)
    assert critical_beta(scaled) == pytest.approx(critical_beta(d) / scale, rel=1e-12)


@pytest.mark.parametrize("sd, scale", [(0.01, 1.0), (0.5, 1e140)])
def test_cli_trains_stmp_on_two_clusters_and_on_scaled_d(tmp_path, sd, scale):
    path = tmp_path / "d.csv"
    save_matrix(_two_clusters(20, sd).values * scale, path)
    assert main(["train", "--algorithm", "stmp", "--input", str(path),
                 "--input-kind", "dissimilarity", "--out", str(tmp_path / "out"),
                 "--rows", "1", "--cols", "2", "--sigma0", "0.5"]) == 0


def test_power_iteration_error_exits_1(tmp_path, monkeypatch, capsys):
    # a failed estimate is about the input, so the CLI treats it as bad input
    def fail(values):
        raise PowerIterationError("no convergence")

    monkeypatch.setattr("dksom.stmp.power_iteration", fail)
    path = tmp_path / "d.csv"
    save_matrix(D3, path)
    assert main(["train", "--algorithm", "stmp", "--input", str(path),
                 "--input-kind", "dissimilarity", "--out", str(tmp_path / "out"),
                 "--rows", "1", "--cols", "2"]) == 1
    assert "no convergence" in capsys.readouterr().err


def test_annealing_schedule_validation():
    AnnealingSchedule(0.1, 1.5, 10.0)  # fine
    with pytest.raises(ValueError):
        AnnealingSchedule(10.0, 1.5, 0.1)
    with pytest.raises(ValueError):
        AnnealingSchedule(0.1, 1.0, 10.0)
    with pytest.raises(ValueError):
        AnnealingSchedule(-0.1, 1.5, 10.0)
    for half in ({"beta0": 0.1}, {"beta_max": 10.0}):
        with pytest.raises(ValueError, match="must be set together"):
            AnnealingSchedule(**half)


def test_annealing_schedule_rejects_infinite_beta_max():
    # an infinite beta_max would make the geometric sweep endless
    with pytest.raises(ValueError, match="beta_max must be finite"):
        AnnealingSchedule(1e-9, 1.1, np.inf)


def test_default_annealing_brackets_critical_beta():
    # the default range starts on the grid 0.5 * critical_beta * 1.1^j, at its
    # last point at or below half the symmetry-breaking scale, and ends as before
    d, _ = two_blob_dissimilarity()
    lattice = Lattice(1, 2, "rectangular")
    betas = train_stmp(d, lattice, sigma=0.5).trace[:, 0]
    bc = critical_beta(d)
    grid = [0.5 * bc]
    while grid[-1] * 1.1 <= 1e4 * bc * (1.0 + 1e-12):
        grid.append(grid[-1] * 1.1)
    assert np.array_equal(betas, grid[len(grid) - len(betas):])
    start = 0.5 * symmetry_breaking_beta(d.values, lattice.neighborhood(0.5))
    assert betas[0] <= start < betas[0] * 1.1
    assert bc < betas[0] < 2.0 * start < betas[-1]


def _l1_blobs(n: int) -> DissimilarityMatrix:
    x = blob_dataset(n, seed=3).points
    return DissimilarityMatrix.from_array(np.abs(x[:, None, :] - x[None, :, :]).sum(axis=2))


@pytest.mark.parametrize("case", ["two-blob", "l1-blobs"])
def test_first_default_step_is_in_the_symmetric_phase(case):
    if case == "two-blob":
        d, lattice, sigma = two_blob_dissimilarity()[0], Lattice(1, 2), 0.5
    else:
        d, lattice, sigma = _l1_blobs(200), Lattice(5, 5), 1.0
    trace = train_stmp(d, lattice, sigma=sigma, seed=1).trace
    n_ln_k = d.values.shape[0] * np.log(lattice.n_units)
    assert trace[0, 3] >= 0.99 * n_ln_k
    assert trace[-1, 3] < 0.5 * n_ln_k  # the map still orders after the later start


def test_symmetry_breaking_beta_matches_dense_eigenvalues():
    d = _l1_blobs(80)
    h = Lattice(3, 4, "hexagonal").neighborhood(0.8)
    lam = np.linalg.eigvalsh(double_center(d.values))[-1]
    j = np.eye(12) - 1.0 / 12
    lam_h = np.max(np.abs(np.linalg.eigvalsh(j @ h @ j)))
    expected = 80 * h.sum(axis=1).mean() / (2.0 * lam * lam_h**2)
    assert symmetry_breaking_beta(d.values, h) == pytest.approx(expected, rel=1e-5)


@pytest.mark.parametrize("k", [-40, 40])
def test_symmetry_breaking_beta_scales_inversely_with_the_matrix(k):
    d, _ = two_blob_dissimilarity()
    h = Lattice(2, 2).neighborhood(0.7)
    scaled = symmetry_breaking_beta(np.ldexp(d.values, k), h)
    assert scaled == np.ldexp(symmetry_breaking_beta(d.values, h), -k)


def test_symmetry_breaking_beta_is_infinite_where_nothing_breaks():
    d, _ = two_blob_dissimilarity()
    assert symmetry_breaking_beta(d.values, Lattice(1, 1).neighborhood(1.0)) == np.inf
    assert symmetry_breaking_beta(np.zeros((1, 1)), Lattice(2, 2).neighborhood(1.0)) == np.inf


@pytest.mark.parametrize("lattice, sigma", [(Lattice(1, 2), 0.5), (Lattice(1, 3), 0.6)])
def test_extrapolated_loop_ends_at_the_plain_fixed_point(lattice, sigma):
    d, _ = two_blob_dissimilarity()
    h = lattice.neighborhood(sigma)
    beta = 1.2 * symmetry_breaking_beta(d.values, h)  # past the transition
    e0 = np.random.default_rng(5).uniform(0.0, 1e-3, (60, lattice.n_units))
    tol = 1e-6
    fast, _, fast_products, delta = settle(d.values, h, e0, beta, tol, 500)
    plain, plain_products = plain_fixed_point(d.values, h, e0, beta, tol, 500)
    assert delta < tol
    assert np.max(np.abs(fast - plain)) < 10.0 * tol
    assert fast_products < plain_products


def test_settle_never_ends_on_an_extrapolated_field():
    # capped runs end on F of the previous iterate, however many products they get
    d, _ = two_blob_dissimilarity()
    h = Lattice(1, 3).neighborhood(0.6)
    beta = 1.2 * symmetry_breaking_beta(d.values, h)
    e0 = np.random.default_rng(5).uniform(0.0, 1e-3, (60, 3))
    for cap in range(1, 60):  # uncapped, the loop jumps after products 7, 51 and 55
        e, gamma, products, _ = settle(d.values, h, e0, beta, 1e-12, cap)
        assert products == cap
        np.testing.assert_array_equal(e, mean_field(d.values, mixing_coefficients(gamma, h), h))


@pytest.mark.parametrize("case", ["k1", "n1", "constant", "scaled-up", "scaled-down"])
def test_cli_stmp_on_degenerate_input_exits_0_or_1(tmp_path, capsys, case):
    d = two_blob_dissimilarity()[0].values
    grid = ["--rows", "1", "--cols", "1"] if case == "k1" else ["--rows", "2", "--cols", "2"]
    values = {"k1": d, "n1": np.zeros((1, 1)), "constant": 1.0 - np.eye(12),
              "scaled-up": np.ldexp(d, 40), "scaled-down": np.ldexp(d, -40)}[case]
    path = tmp_path / "d.csv"
    save_matrix(values, path)
    rc = main(["train", "--algorithm", "stmp", "--input", str(path), "--input-kind",
               "dissimilarity", "--out", str(tmp_path / "out"), *grid])
    assert rc in (0, 1), capsys.readouterr().err


@pytest.mark.parametrize("k", [900, -900])
def test_cli_stmp_on_dissimilarities_near_the_range_ends_exits_0(tmp_path, capsys, k):
    """At 2^900 the mean-field steps pass 1e154, where their squared norms
    would overflow in the extrapolation gate; at 2^-900 they underflow."""
    path = tmp_path / "d.csv"
    save_matrix(np.ldexp(two_blob_dissimilarity(40)[0].values, k), path)
    rc = main(["train", "--algorithm", "stmp", "--input", str(path), "--input-kind",
               "dissimilarity", "--out", str(tmp_path / "out"), "--rows", "2", "--cols", "3"])
    assert rc == 0, capsys.readouterr().err


def test_train_stmp_stochasticity_and_trace():
    d, _ = two_blob_dissimilarity(n=40)
    res = train_stmp(d, Lattice(2, 2, "rectangular"), sigma=0.7, seed=1)
    assert np.max(np.abs(res.gamma.sum(axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(res.mixing.sum(axis=0) - 1.0)) < 1e-12
    assert res.trace.shape[1] == 4
    betas = res.trace[:, 0]
    assert np.all(np.diff(betas) > 0)  # annealing only heats up beta
    assert res.trace[-1, 3] < res.trace[0, 3]  # entropy collapses as beta grows
    assert np.array_equal(res.assignments, np.argmax(res.gamma, axis=1))


def test_train_stmp_separates_two_blobs():
    d, labels = two_blob_dissimilarity()
    res = train_stmp(d, Lattice(1, 2, "rectangular"), sigma=0.5, seed=0)
    a = res.assignments
    assert np.array_equal(a, labels) or np.array_equal(1 - a, labels)


def test_train_stmp_deterministic():
    d, _ = two_blob_dissimilarity(n=30)
    lat = Lattice(1, 3, "rectangular")
    r1 = train_stmp(d, lat, sigma=0.6, seed=13)
    r2 = train_stmp(d, lat, sigma=0.6, seed=13)
    assert np.array_equal(r1.gamma, r2.gamma)
    assert np.array_equal(r1.trace, r2.trace)


def test_entropy_of_underflowed_memberships_is_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _entropy(np.array([[1.0, 0.0]])) == 0.0
