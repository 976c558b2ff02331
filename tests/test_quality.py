import numpy as np
import pytest

from dksom.dismat import DissimilarityMatrix, VectorDataset, squared_euclidean
from dksom.lattice import Lattice
from dksom.quality import (
    clustering_cost,
    criterion_report,
    prototype_distance_matrix,
    quantization_cost,
    save_umatrix_csv,
    save_umatrix_pgm,
    triangle_bound_sides,
    umatrix,
    verify_koenig_huygens,
    verify_triangle_bound,
)

D3 = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 4.0], [9.0, 4.0, 0.0]])
PATH3 = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])


def test_quantization_cost_single_unit_medoid():
    h = np.ones((1, 1))
    c = np.zeros(3, dtype=np.int64)
    assert quantization_cost(D3, np.array([1]), c, h) == pytest.approx(5.0)


def test_quantization_cost_single_unit_uniform_coefficients():
    h = np.ones((1, 1))
    c = np.zeros(3, dtype=np.int64)
    alpha = np.full((1, 3), 1.0 / 3.0)
    assert quantization_cost(D3, alpha, c, h) == pytest.approx(14.0 / 3.0, abs=1e-12)


def test_clustering_cost_single_unit():
    assert clustering_cost(D3, np.zeros(3, dtype=np.int64), np.ones((1, 1))) == pytest.approx(
        14.0 / 3.0, abs=1e-12
    )


@pytest.mark.parametrize("topology", ["rectangular", "hexagonal"])
def test_clustering_cost_block_sums_match_dense_form(topology):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(50, 2))
    d = squared_euclidean(VectorDataset.from_array(x)).values
    d = d + np.abs(x[:, :1] - x[:, :1].T)  # not squared-Euclidean any more
    lat = Lattice(2, 3, topology)
    c = rng.integers(0, 5, 50)  # unit 5 holds no point
    for sigma in (1.5, 0.02):  # at 0.02 unit 5 has no neighborhood weight either
        h = lat.neighborhood(sigma)
        w = h[:, c]
        size = w.sum(axis=1)
        alive = size > 0.0
        assert alive[:5].all() and alive[5] == (sigma > 1.0)
        dense = 0.5 * np.sum(np.diag(w @ d @ w.T)[alive] / size[alive])
        assert clustering_cost(d, c, h) == pytest.approx(dense, rel=1e-12)


def test_criterion_report_reads_given_distances():
    rng = np.random.default_rng(4)
    d = squared_euclidean(VectorDataset.from_array(rng.normal(size=(30, 2)))).values
    alpha = rng.dirichlet(np.ones(30), size=4)
    c = rng.integers(0, 4, 30)
    h = Lattice(2, 2, "rectangular").neighborhood(0.7)
    given = np.full((30, 4), 2.0)
    rep = criterion_report(d, alpha, c, h, given)
    assert rep.quantization_cost == pytest.approx(2.0 * h[c].sum())
    assert rep.clustering_cost == criterion_report(d, alpha, c, h).clustering_cost


def test_costs_coincide_for_barycentric_coefficients():
    # on squared-Euclidean data with h-weighted barycentric prototypes the two
    # criteria agree (the variance identity, unit by unit)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 3))
    d = squared_euclidean(VectorDataset.from_array(x)).values
    c = rng.integers(0, 4, 40)
    h = Lattice(2, 2, "rectangular").neighborhood(0.8)
    w = h[:, c]
    alpha = w / w.sum(axis=1, keepdims=True)
    q = quantization_cost(d, alpha, c, h)
    cl = clustering_cost(d, c, h)
    assert q == pytest.approx(cl, rel=1e-10)


def test_criterion_report_sizes():
    rep = criterion_report(D3, np.array([1]), np.zeros(3, dtype=np.int64), np.ones((1, 1)))
    np.testing.assert_array_equal(rep.per_unit_sizes, [3.0])
    assert rep.quantization_cost == pytest.approx(5.0)


def test_koenig_huygens_line_dataset():
    ds = VectorDataset.from_array([0.0, 1.0, 3.0])
    assert verify_koenig_huygens(ds, np.ones(3))
    # weighted: identity must hold for any positive weights
    assert verify_koenig_huygens(ds, np.array([0.2, 1.7, 3.1]))


def test_koenig_huygens_rejects_bad_weights():
    ds = VectorDataset.from_array([0.0, 1.0, 3.0])
    with pytest.raises(ValueError):
        verify_koenig_huygens(ds, np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        verify_koenig_huygens(ds, np.ones(5))


def test_triangle_bound_sides_path_graph():
    lhs, rhs = triangle_bound_sides(PATH3, np.ones(3))
    assert lhs == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert rhs == pytest.approx(2.0)
    assert verify_triangle_bound(DissimilarityMatrix.from_array(PATH3), np.ones(3))


def test_triangle_bound_flips_on_non_metric_input():
    w = np.array([[0.0, 10.0, 1.0], [10.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    lhs, rhs = triangle_bound_sides(w, np.ones(3))
    assert lhs > rhs  # pairwise cost 4 exceeds best single-point cost 2
    with pytest.raises(ValueError, match="metric"):
        verify_triangle_bound(DissimilarityMatrix.from_array(w), np.ones(3))


def test_prototype_distance_matrix_indicator_rows_recover_d():
    np.testing.assert_allclose(prototype_distance_matrix(D3, np.eye(3)), D3, atol=1e-12)
    np.testing.assert_array_equal(
        prototype_distance_matrix(D3, np.array([0, 2])), [[0.0, 9.0], [9.0, 0.0]]
    )


def test_umatrix_two_unit_grid():
    lat = Lattice(2, 1, "rectangular")
    grid = umatrix(np.array([0, 2]), D3, lat)
    np.testing.assert_array_equal(grid, [[9.0], [9.0]])
    # indicator coefficient prototypes give the same picture
    alpha = np.vstack([np.eye(3)[0], np.eye(3)[2]])
    np.testing.assert_allclose(umatrix(alpha, D3, lat), [[9.0], [9.0]], atol=1e-12)


def test_umatrix_averages_over_grid_neighbors():
    lat = Lattice(1, 3, "rectangular")
    grid = umatrix(np.array([0, 1, 2]), PATH3, lat)
    # middle unit borders both ends (distance 1 each); ends see only the middle
    np.testing.assert_allclose(grid, [[1.0, 1.0, 1.0]])


def test_umatrix_csv_and_pgm(tmp_path):
    grid = np.array([[0.0, 1.0], [2.0, 4.0]])
    save_umatrix_csv(grid, tmp_path / "u.csv")
    assert (tmp_path / "u.csv").read_text() == "0.0,1.0\n2.0,4.0\n"
    save_umatrix_pgm(grid, tmp_path / "u.pgm")
    lines = (tmp_path / "u.pgm").read_text().splitlines()
    assert lines[:3] == ["P2", "2 2", "255"]
    assert lines[3].split() == ["0", "64"]
    assert lines[4].split() == ["128", "255"]


def test_umatrix_pgm_flat_grid_all_zero(tmp_path):
    save_umatrix_pgm(np.full((2, 2), 3.3), tmp_path / "flat.pgm")
    body = (tmp_path / "flat.pgm").read_text().splitlines()[3:]
    assert all(v == "0" for line in body for v in line.split())
