import numpy as np

from dksom.dismat import VectorDataset
from dksom.lattice import Lattice, Schedule
from dksom.vectorsom import (
    bmu_vector,
    map_energy,
    squared_distances_to_prototypes,
    train_batch,
    train_online,
)


def _blobs(n=90, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    pts = rng.normal(size=(n, 2)) * 0.4 + centers[rng.integers(0, 3, n)]
    return VectorDataset.from_array(pts)


def test_distances_and_bmu():
    pts = np.array([[0.0], [1.0], [3.0]])
    protos = np.array([[0.5], [2.9]])
    d = squared_distances_to_prototypes(pts, protos)
    np.testing.assert_allclose(d, [[0.25, 2.9 ** 2], [0.25, 1.9 ** 2], [6.25, 0.01]])
    assert bmu_vector(pts[2], protos) == 1
    assert bmu_vector(np.array([1.7]), np.array([[1.0], [2.4]])) == 0  # tie -> smallest index


def test_map_energy_weights_by_neighborhood():
    dist = np.array([[1.0, 4.0], [2.0, 3.0]])
    h = np.array([[1.0, 0.5], [0.5, 1.0]])
    # assignments (0, 1): 1*1 + 0.5*4 + 0.5*2 + 1*3 = 7
    assert map_energy(dist, np.array([0, 1]), h) == 7.0


def test_batch_runs_all_iterations_and_traces():
    ds = _blobs()
    lat = Lattice(3, 3, "rectangular")
    res = train_batch(ds, lat, Schedule(12, seed=4))
    assert res.assignment_trace.shape == (12, ds.n)
    assert res.energy_trace.shape == (12,)
    assert res.prototypes.shape == (lat.n_units, ds.p)
    assert np.all((res.assignments >= 0) & (res.assignments < lat.n_units))


def test_batch_energy_settles():
    ds = _blobs(seed=3)
    res = train_batch(ds, Lattice(3, 3, "rectangular"), Schedule(40, seed=1))
    # the criterion at the final (smallest) radius should beat the first iterations
    assert res.energy_trace[-1] < res.energy_trace[0]


def test_batch_deterministic_given_seed():
    ds = _blobs(seed=8)
    lat = Lattice(2, 4, "rectangular")
    a = train_batch(ds, lat, Schedule(10, seed=42))
    b = train_batch(ds, lat, Schedule(10, seed=42))
    assert np.array_equal(a.prototypes, b.prototypes)
    assert np.array_equal(a.assignments, b.assignments)
    c = train_batch(ds, lat, Schedule(10, seed=43))
    assert not np.array_equal(a.prototypes, c.prototypes)


def test_online_runs_and_improves():
    ds = _blobs(seed=5)
    lat = Lattice(3, 3, "rectangular")
    res = train_online(ds, lat, Schedule(15, seed=2))
    assert res.assignment_trace.shape == (15, ds.n)
    assert res.energy_trace[-1] < res.energy_trace[0]


def test_online_epoch_order_uses_replacement():
    # with replacement some points may repeat within an epoch, but the map
    # must still place every point somewhere valid
    ds = _blobs(n=25, seed=11)
    res = train_online(ds, Lattice(2, 2, "rectangular"), Schedule(5, seed=11))
    assert set(np.unique(res.assignments)) <= set(range(4))


def test_fixed_sigma_mode():
    ds = _blobs(seed=9)
    res = train_batch(ds, Lattice(2, 2, "rectangular"), Schedule(6, 0.7, 0.7, "fixed", seed=0))
    assert res.energy_trace.shape == (6,)
