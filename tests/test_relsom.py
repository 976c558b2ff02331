import numpy as np
import pytest

from dksom.dismat import (
    DissimilarityMatrix,
    KernelMatrix,
    VectorDataset,
    kernel_to_dissimilarity,
    squared_euclidean,
)
from dksom.lattice import Lattice, Schedule
from dksom.relsom import (
    _coefficient_update,
    _DenseState,
    _init_coefficients,
    _relational_row_dist,
    _train_online,
    _train_online_reference,
    bmu_relational,
    kernel_distance,
    kernel_distances,
    prototype_pairwise_dissimilarity,
    relational_distance,
    relational_distances,
    train_batch_kernel,
    train_batch_relational,
    train_online_kernel,
    train_online_relational,
    unit_row_sums,
    verify_equivalence,
)
from dksom.vectorsom import map_energy

D3 = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 4.0], [9.0, 4.0, 0.0]])  # points 0, 1, 3
K2 = np.array([[1.0, 0.5], [0.5, 1.0]])


def test_relational_distance_frozen_values():
    alpha = np.array([0.5, 0.5, 0.0])
    # prototype = midpoint 0.5; squared distances 0.25 and 6.25
    assert relational_distance(D3, alpha, 0) == pytest.approx(0.25, abs=1e-12)
    assert relational_distance(D3, alpha, 2) == pytest.approx(6.25, abs=1e-12)


def test_kernel_distance_frozen_values():
    assert kernel_distance(K2, np.array([1.0, 0.0]), 1) == pytest.approx(1.0, abs=1e-12)
    assert kernel_distance(K2, np.array([0.5, 0.5]), 0) == pytest.approx(0.25, abs=1e-12)


def test_coefficient_sum_violation_raises():
    with pytest.raises(ValueError, match="coefficient sum"):
        relational_distance(D3, np.array([0.5, 0.4, 0.0]), 0)
    with pytest.raises(ValueError, match="coefficient sum"):
        kernel_distance(K2, np.array([0.7, 0.7]), 0)


def test_matrix_form_matches_scalar_form():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(25, 3))
    d = squared_euclidean(VectorDataset.from_array(x)).values
    a = rng.dirichlet(np.ones(25), size=6)
    dist = relational_distances(d, a)
    for k in range(6):
        for i in range(25):
            assert dist[i, k] == pytest.approx(relational_distance(d, a[k], i), abs=1e-10)


def test_relational_distance_can_go_negative_off_euclidean():
    # strongly non-metric: the midpoint "prototype" has negative self-scatter
    w = np.array([[0.0, 10.0, 1.0], [10.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    alpha = np.array([0.5, 0.5, 0.0])
    assert relational_distance(w, alpha, 2) == pytest.approx(-1.5, abs=1e-12)


def test_kernel_equals_relational_through_conversion():
    rng = np.random.default_rng(5)
    b = rng.normal(size=(20, 30))
    k = KernelMatrix.from_array(b @ b.T / 30)
    d = kernel_to_dissimilarity(k).values
    a = rng.dirichlet(np.ones(20), size=4)
    gap = kernel_distances(k.values, a) - relational_distances(d, a)
    assert np.max(np.abs(gap)) < 1e-10
    for i in (0, 7, 19):
        assert verify_equivalence(k, a[1], i)


def test_bmu_relational_smallest_index_tie():
    a = np.vstack([np.eye(3)[0], np.eye(3)[0]])  # two identical prototypes
    assert bmu_relational(D3, a, 2) == 0


def test_prototype_pairwise_dissimilarity_recovers_entries():
    e = np.eye(3)
    for i in range(3):
        for j in range(3):
            assert prototype_pairwise_dissimilarity(D3, e[i], e[j]) == pytest.approx(
                D3[i, j], abs=1e-12
            )


def test_batch_matches_vector_som():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(50, 2))
    ds = VectorDataset.from_array(x)
    d = squared_euclidean(ds)
    lat = Lattice(2, 3, "rectangular")
    from dksom.vectorsom import train_batch

    for seed in (0, 1, 2):
        rv = train_batch(ds, lat, Schedule(15, seed=seed))
        rr = train_batch_relational(d, lat, Schedule(15, seed=seed),
                                    stop_on_stable_assignment=False)
        assert np.array_equal(rv.assignment_trace, rr.assignment_trace)
        assert np.max(np.abs(rr.coefficients @ x - rv.prototypes)) < 1e-9


def test_online_matches_vector_som():
    rng = np.random.default_rng(33)
    x = rng.normal(size=(40, 3))
    ds = VectorDataset.from_array(x)
    d = squared_euclidean(ds)
    lat = Lattice(2, 2, "rectangular")
    from dksom.vectorsom import train_online

    for seed in (3, 4):
        rv = train_online(ds, lat, Schedule(6, seed=seed))
        rr = train_online_relational(d, lat, Schedule(6, seed=seed))
        assert np.array_equal(rv.assignments, rr.assignments)
        assert np.max(np.abs(rr.coefficients @ x - rv.prototypes)) < 1e-9


def test_online_preserves_row_stochasticity():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(35, 2))
    d = squared_euclidean(VectorDataset.from_array(x))
    res = train_online_relational(d, Lattice(3, 3, "rectangular"), Schedule(12, seed=9))
    sums = res.coefficients.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-12
    assert res.coefficients.min() >= 0.0
    assert res.coefficients.max() <= 1.0


def test_batch_coefficients_row_stochastic():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(45, 2))
    d = squared_euclidean(VectorDataset.from_array(x))
    for init_mode in ("indicator", "uniform"):
        res = train_batch_relational(d, Lattice(2, 3, "rectangular"), Schedule(20, seed=3),
                                     init_mode=init_mode)
        assert np.max(np.abs(res.coefficients.sum(axis=1) - 1.0)) < 1e-12


def test_stable_assignment_stops_early():
    rng = np.random.default_rng(2)
    centers = np.repeat(np.array([[0.0], [50.0]]), 15, axis=0)
    x = centers + rng.normal(size=(30, 1)) * 0.01
    d = squared_euclidean(VectorDataset.from_array(x))
    res = train_batch_relational(d, Lattice(1, 2, "rectangular"), Schedule(80, seed=0))
    assert res.stopped_early
    assert res.energy_trace.shape[0] < 80
    assert res.phase_ns["assignment"] > 0 and res.phase_ns["update"] > 0


def _hostile_dissimilarity() -> DissimilarityMatrix:
    # random hollow symmetric matrix with heavy off-diagonal contrast; not of
    # negative type, so weighted prototypes produce negative "distances"
    rng = np.random.default_rng(18)
    w = rng.choice([1.0, 25.0], size=(16, 16))
    w = np.triu(w, 1)
    return DissimilarityMatrix.from_array(w + w.T)


def test_negative_distance_counter_on_hostile_matrix():
    dm = _hostile_dissimilarity()
    res = train_batch_relational(dm, Lattice(2, 2, "rectangular"), Schedule(10, seed=1),
                                 stop_on_stable_assignment=False)
    assert res.negative_distances > 0


def test_kernel_trainers_run_and_agree_with_relational():
    rng = np.random.default_rng(88)
    b = rng.normal(size=(30, 40))
    k = KernelMatrix.from_array(b @ b.T / 40)
    d = kernel_to_dissimilarity(k)
    lat = Lattice(2, 2, "rectangular")
    rk = train_batch_kernel(k, lat, Schedule(12, seed=7), stop_on_stable_assignment=False)
    rr = train_batch_relational(d, lat, Schedule(12, seed=7), stop_on_stable_assignment=False)
    assert np.array_equal(rk.assignments, rr.assignments)
    assert np.max(np.abs(rk.coefficients - rr.coefficients)) < 1e-12

    ok = train_online_kernel(k, lat, Schedule(4, seed=7))
    orr = train_online_relational(d, lat, Schedule(4, seed=7))
    assert np.array_equal(ok.assignments, orr.assignments)
    assert np.max(np.abs(ok.coefficients - orr.coefficients)) < 1e-12


def _kernel_row_dist(k_values):
    """Kernel distances of point i with A K recomputed in full: the naive path."""
    diag = np.diag(k_values)

    def row(a, i):
        g = a @ k_values
        quad = np.einsum("kn,kn->k", a, g)
        return diag[i] - 2.0 * g[:, i] + quad

    return row


def _online_case(kind):
    """(incremental engine state, matrix, naive row distances, naive matrix distances)."""
    if kind == "kernel":
        b = np.random.default_rng(41).normal(size=(30, 40))
        k = KernelMatrix.from_array(b @ b.T / 40)
        return (_DenseState(k.values, kernel_form=True), k, _kernel_row_dist(k.values),
                lambda a: kernel_distances(k.values, a))
    if kind == "squared-euclidean":
        x = np.random.default_rng(40).normal(size=(30, 2))
        dm = squared_euclidean(VectorDataset.from_array(x))
    else:
        dm = _hostile_dissimilarity()
    return (_DenseState(dm.values, kernel_form=False), dm, _relational_row_dist(dm.values),
            lambda a: relational_distances(dm.values, a))


@pytest.mark.parametrize("presentations", [None, 23])
@pytest.mark.parametrize("init_mode", ["indicator", "uniform"])
@pytest.mark.parametrize("kind", ["squared-euclidean", "non-euclidean", "kernel"])
def test_incremental_online_engine_matches_naive_reference(kind, init_mode, presentations):
    state, matrix, row_dist, matrix_dist = _online_case(kind)
    lat = Lattice(2, 3, "rectangular")
    schedule = Schedule(5, seed=4)
    kw = dict(init_mode=init_mode, presentations_per_epoch=presentations)
    inc = _train_online(state, lat, schedule, **kw)
    ref = _train_online_reference(matrix.n, row_dist, matrix_dist, lat, schedule, **kw)
    # both engines run the same coefficient arithmetic, so bitwise-equal
    # coefficients (stricter than the 1e-12 gate) mean the same BMU at every
    # presentation
    assert np.array_equal(inc.coefficients, ref.coefficients)
    assert np.array_equal(inc.assignment_trace, ref.assignment_trace)
    assert np.array_equal(inc.assignments, ref.assignments)
    assert inc.negative_distances == ref.negative_distances
    if kind == "non-euclidean":
        assert ref.negative_distances > 0
    np.testing.assert_allclose(inc.energy_trace, ref.energy_trace, rtol=1e-12)
    assert 0.0 <= inc.resync_drift_max < 1e-12
    assert ref.resync_drift_max is None


def _dense_batch_reference(n, matrix_dist, lattice, schedule, init_mode):
    """The batch loop on explicit coefficients and dense distances: every
    iteration forms A with _coefficient_update and evaluates matrix_dist(A),
    an N^2 K product. Runs all schedule.steps iterations."""
    sigmas = schedule.sigmas(lattice)
    a = _init_coefficients(n, lattice.n_units, np.random.default_rng(schedule.seed), init_mode)
    trace, energies, skipped = [], [], 0
    for sigma in sigmas:
        h = lattice.neighborhood(sigma)
        dist = matrix_dist(a)
        c = np.argmin(dist, axis=1)
        trace.append(c)
        energies.append(map_energy(dist, c, h))
        a, count = _coefficient_update(a, c, h)
        skipped += count
    return a, np.array(trace), np.array(energies), skipped, np.argmin(matrix_dist(a), axis=1)


def _batch_case(kind, n, seed):
    """(trainer, matrix, dense N x K distances) for one input kind on n points."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    if kind == "duplicates":  # every point three times: rows of D repeat and distances tie
        x = np.repeat(x[: max(1, n // 3)], 3, axis=0)
    if kind == "clusters":  # three tight clusters, fewer than the units
        x = np.repeat(4.0 * x[:3], n // 3, axis=0) + 0.01 * rng.normal(size=(3 * (n // 3), 3))
    if kind == "l1":
        dm = DissimilarityMatrix.from_array(np.abs(x[:, None, :] - x[None, :, :]).sum(axis=2))
    elif kind == "rbf":
        k = KernelMatrix.from_array(np.exp(-0.5 * ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)))
        return train_batch_kernel, k, lambda a: kernel_distances(k.values, a)
    else:
        dm = squared_euclidean(VectorDataset.from_array(x))
    return train_batch_relational, dm, lambda a: relational_distances(dm.values, a)


_ENGINE_CASES = [
    # kind, N, lattice (rows, cols, topology), schedule, init mode
    ("squared-euclidean", 40, (3, 3, "rectangular"), Schedule(15, seed=1), "indicator"),
    ("squared-euclidean", 40, (3, 3, "hexagonal"), Schedule(15, seed=2), "indicator"),
    ("squared-euclidean", 40, (1, 5, "rectangular"), Schedule(15, seed=3), "uniform"),
    ("l1", 35, (2, 4, "hexagonal"), Schedule(12, seed=4), "indicator"),
    ("l1", 35, (1, 6, "hexagonal"), Schedule(12, seed=5), "uniform"),
    ("rbf", 30, (3, 2, "rectangular"), Schedule(12, seed=6), "indicator"),
    ("rbf", 30, (1, 4, "rectangular"), Schedule(12, seed=7), "uniform"),
    ("squared-euclidean", 1, (1, 1, "rectangular"), Schedule(5, seed=8), "indicator"),
    ("squared-euclidean", 1, (2, 3, "hexagonal"), Schedule(5, seed=9), "uniform"),
    ("l1", 3, (1, 5, "rectangular"), Schedule(8, seed=10), "uniform"),
    ("duplicates", 36, (2, 3, "rectangular"), Schedule(12, seed=11), "indicator"),
    ("duplicates", 36, (2, 3, "hexagonal"), Schedule(12, 0.02, 0.02, "fixed", seed=12),
     "indicator"),
    ("clusters", 30, (3, 3, "hexagonal"), Schedule(12, 1.0, 0.005, seed=13), "indicator"),
]
_SKIPPING_CASES = _ENGINE_CASES[-2:]


@pytest.mark.parametrize("kind, n, grid, schedule, init_mode", _ENGINE_CASES,
                         ids=[f"{c[0]}-N{c[1]}-{c[2][0]}x{c[2][1]}-{c[2][2]}-{c[4]}"
                              for c in _ENGINE_CASES])
def test_block_sum_batch_engine_matches_dense_reference(kind, n, grid, schedule, init_mode):
    """The engine on per-unit row sums takes every argmin the dense product
    takes, so its coefficients are the reference's bit for bit. Exact ties
    between distinct units are the exception: units whose prototypes
    coincide mathematically (all of them right after a uniform init, or
    units symmetric about two populated units on a 2-D lattice) are told
    apart by rounding alone, and the two sums round differently. The
    uniform-init cases therefore run on chains, where at most the
    one-populated-unit state ties, and the engine takes that state dense."""
    trainer, matrix, matrix_dist = _batch_case(kind, n, seed=n + schedule.seed)
    lattice = Lattice(*grid)
    res = trainer(matrix, lattice, schedule, stop_on_stable_assignment=False,
                  init_mode=init_mode)
    a, trace, energies, skipped, final = _dense_batch_reference(
        matrix.n, matrix_dist, lattice, schedule, init_mode)
    assert np.array_equal(res.assignment_trace, trace)
    assert np.array_equal(res.assignments, final)
    assert np.array_equal(res.coefficients, a)
    assert res.empty_unit_events == skipped
    np.testing.assert_allclose(res.energy_trace, energies, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(energies)))
    np.testing.assert_allclose(res.distances, matrix_dist(a), rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(res.distances)))


@pytest.mark.parametrize("kind, n, grid, schedule, init_mode", _SKIPPING_CASES,
                         ids=["initial-row-kept", "formed-row-kept"])
def test_block_sum_engine_cases_skip_empty_units(kind, n, grid, schedule, init_mode):
    """Two engine cases skip units as empty: at tiny sigma a unit whose seed
    duplicates another's wins no point at the first update and keeps its
    initial row; with sigma decaying below the lattice spacing, units that
    lose their points keep rows an earlier update formed."""
    trainer, matrix, _ = _batch_case(kind, n, seed=n + schedule.seed)
    res = trainer(matrix, Lattice(*grid), schedule, stop_on_stable_assignment=False,
                  init_mode=init_mode)
    assert res.empty_unit_events > 0


@pytest.mark.parametrize("n_units", [1, 4, 9])
def test_unit_row_sums_equals_one_hot_product(n_units, monkeypatch):
    rng = np.random.default_rng(n_units)
    m = rng.normal(size=(70, 11))
    c = rng.integers(0, n_units, 70)
    c[c == n_units - 1] = 0  # one unit (the last, if there are two or more) gets no row
    e = np.eye(n_units)[c]  # N x K one-hot
    monkeypatch.setattr("dksom.relsom.UNIT_SUM_ROWS", 4)  # several gathers per unit
    s = unit_row_sums(m, c, n_units)
    np.testing.assert_allclose(s, e.T @ m, rtol=1e-12, atol=1e-12)
    if n_units > 1:
        assert not s[-1].any()
    monkeypatch.undo()
    assert np.array_equal(unit_row_sums(m, c, n_units), s)  # sums in index order either way
