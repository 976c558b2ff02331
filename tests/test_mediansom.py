import numpy as np
import pytest

from dksom.dismat import DissimilarityMatrix, VectorDataset, squared_euclidean
from dksom.lattice import Lattice, Schedule
from dksom.mediansom import median_costs, median_update, resolve_collisions, train_batch_median

D3 = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 4.0], [9.0, 4.0, 0.0]])


def test_single_unit_median_is_medoid():
    # h = [[1]], all points in unit 0: costs are the row sums (10, 5, 13)
    costs = median_costs(D3, np.zeros(3, dtype=np.int64), np.ones((1, 1)))
    np.testing.assert_allclose(costs[0], [10.0, 5.0, 13.0])
    protos, detected, unresolved = resolve_collisions(costs)
    assert protos.tolist() == [1]
    assert detected == 0 and unresolved == 0


def test_median_costs_weighted_by_neighborhood():
    h = np.array([[1.0, 0.5], [0.5, 1.0]])
    assignments = np.array([0, 0, 1], dtype=np.int64)
    costs = median_costs(D3, assignments, h)
    # unit 0: 1.0 * (cols of points 0,1 summed) + 0.5 * (col of point 2)
    brute = np.empty((2, 3))
    for k in range(2):
        for j in range(3):
            brute[k, j] = sum(h[k, assignments[i]] * D3[i, j] for i in range(3))
    np.testing.assert_allclose(costs, brute)


def test_collision_resolution_prefers_larger_regret():
    # both units want index 0; unit 1 loses more by switching, so it keeps 0
    costs = np.array([[1.0, 2.0, 9.0], [1.0, 6.0, 9.0]])
    protos, detected, unresolved = resolve_collisions(costs)
    assert protos.tolist() == [1, 0]
    assert detected == 1 and unresolved == 0


def test_collision_resolution_regret_tie_unit_order():
    costs = np.array([[1.0, 3.0], [1.0, 3.0]])
    protos, _, _ = resolve_collisions(costs)
    assert protos.tolist() == [0, 1]  # equal regret: lower unit index wins first pick


def test_more_units_than_points_leaves_unresolved():
    costs = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 2.0]])
    protos, detected, unresolved = resolve_collisions(costs)
    assert unresolved == 1
    assert len(set(protos.tolist())) == 2  # one duplicate is unavoidable


def test_median_update_wrapper():
    protos, detected, unresolved = median_update(
        D3, np.zeros(3, dtype=np.int64), np.ones((1, 1))
    )
    assert protos.tolist() == [1]


def _three_blob_matrix(n_per=12, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    pts = np.vstack([rng.normal(size=(n_per, 2)) * 0.3 + c for c in centers])
    return squared_euclidean(VectorDataset.from_array(pts)), pts


def test_training_yields_distinct_prototypes():
    d, _ = _three_blob_matrix()
    lat = Lattice(2, 2, "rectangular")
    res = train_batch_median(d, lat, Schedule(25, seed=1))
    assert len(set(res.prototype_indices.tolist())) == lat.n_units
    assert res.collisions_unresolved == 0
    # each prototype must sit in its own unit (diagonal of D is zero)
    for k, j in enumerate(res.prototype_indices):
        assert res.assignments[j] == k


def test_unresolved_collisions_when_k_exceeds_n():
    d = DissimilarityMatrix.from_array([[0.0, 1.0], [1.0, 0.0]])
    res = train_batch_median(d, Lattice(1, 3, "rectangular"), Schedule(5, seed=0))
    assert res.collisions_unresolved == 1


def test_stable_assignment_stops_early():
    d, _ = _three_blob_matrix(seed=4)
    res = train_batch_median(d, Lattice(1, 3, "rectangular"), Schedule(100, seed=2))
    assert res.stopped_early
    assert res.energy_trace.shape[0] < 100


def test_deterministic_given_seed():
    d, _ = _three_blob_matrix(seed=7)
    lat = Lattice(2, 2, "rectangular")
    a = train_batch_median(d, lat, Schedule(15, seed=5))
    b = train_batch_median(d, lat, Schedule(15, seed=5))
    assert np.array_equal(a.prototype_indices, b.prototype_indices)
    assert np.array_equal(a.assignments, b.assignments)


def test_medoid_cost_sandwiched_by_clustering_cost_on_metric_data():
    # metric data: per cluster, half the mean pairwise spread lower-bounds the
    # best medoid cost, and the full mean pairwise spread upper-bounds it
    from dksom.quality import clustering_cost
    from dksom.verify import tree_metric

    rng = np.random.default_rng(12)
    d = tree_metric(40, rng)
    dm = DissimilarityMatrix.from_array(d)
    res = train_batch_median(dm, Lattice(2, 2, "rectangular"), Schedule(30, seed=3))
    h = np.eye(4)
    c = clustering_cost(d, res.assignments, h)
    q_opt = 0.0
    for k in range(4):
        members = np.flatnonzero(res.assignments == k)
        if members.size:
            q_opt += float(d[members].sum(axis=0).min())
    assert c - 1e-9 <= q_opt <= 2.0 * c + 1e-9
