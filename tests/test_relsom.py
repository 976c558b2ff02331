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
from dksom.mediansom import train_batch_median
from dksom.nystrom import _LandmarkState, approx_relational_distances, nystrom_fit_dissimilarity
from dksom.relsom import (
    BlockSums,
    _coefficient_update,
    _DenseState,
    _init_coefficients,
    _relational_row_dist,
    _train_online,
    _train_online_reference,
    kernel_distance,
    kernel_distances,
    relational_distance,
    relational_distances,
    train_batch_kernel,
    train_batch_relational,
    train_online_kernel,
    train_online_relational,
    unit_row_sums,
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
    for i in (0, 7, 19):  # the scalar forms, evaluated independently
        assert abs(relational_distance(d, a[1], i) - kernel_distance(k.values, a[1], i)) <= 1e-9


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
    res = train_batch_relational(d, Lattice(2, 3, "rectangular"), Schedule(20, seed=3))
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


@pytest.mark.parametrize("init_mode", ["indicator", "uniform"])
@pytest.mark.parametrize("kind", ["squared-euclidean", "non-euclidean", "kernel"])
def test_incremental_online_engine_matches_naive_reference(kind, init_mode):
    state, matrix, row_dist, matrix_dist = _online_case(kind)
    lat = Lattice(2, 3, "rectangular")
    schedule = Schedule(5, seed=4)
    inc = _train_online(state, lat, schedule, init_mode=init_mode)
    ref = _train_online_reference(matrix.n, row_dist, matrix_dist, lat, schedule,
                                  init_mode=init_mode)
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


def _blob_points(n: int) -> np.ndarray:
    """n points from five unit-variance Gaussian blobs in R^5, as the online
    benchmark draws them."""
    rng = np.random.default_rng(57)
    centers = rng.uniform(-10.0, 10.0, size=(5, 5))
    return centers[rng.integers(0, 5, size=n)] + rng.standard_normal((n, 5))


def _benchmark_case(kind):
    """(engine view, N, naive row distances, naive matrix distances) on N=150
    blob points: an L1 dissimilarity (non-Euclidean) or an RBF kernel."""
    x = _blob_points(150)
    diff = x[:, None, :] - x[None, :, :]
    if kind == "kernel":
        k = KernelMatrix.from_array(np.exp(np.sum(diff * diff, axis=2) / -50.0)).values
        return (_DenseState(k, kernel_form=True), 150, _kernel_row_dist(k),
                lambda a: kernel_distances(k, a))
    d = DissimilarityMatrix.from_array(np.sum(np.abs(diff), axis=2)).values
    return (_DenseState(d, kernel_form=False), 150, _relational_row_dist(d),
            lambda a: relational_distances(d, a))


@pytest.mark.parametrize("init_mode", ["indicator", "uniform"])
@pytest.mark.parametrize("kind", ["l1", "kernel"])
def test_online_engine_matches_naive_reference_at_benchmark_shape(kind, init_mode):
    """The online benchmark's shape, scaled down: blob data, a 5x5 map, every
    presentation's cross terms read as a mat-vec over the coefficients."""
    state, n, row_dist, matrix_dist = _benchmark_case(kind)
    lat = Lattice(5, 5, "rectangular")
    schedule = Schedule(2, seed=7)
    inc = _train_online(state, lat, schedule, init_mode=init_mode)
    ref = _train_online_reference(n, row_dist, matrix_dist, lat, schedule, init_mode=init_mode)
    assert np.array_equal(inc.coefficients, ref.coefficients)
    assert np.array_equal(inc.assignment_trace, ref.assignment_trace)
    assert inc.negative_distances == ref.negative_distances
    assert 0.0 <= inc.resync_drift_max < 1e-12


@pytest.mark.parametrize("init_mode", ["indicator", "uniform"])
def test_landmark_online_engine_carries_its_state_at_benchmark_shape(init_mode):
    """A landmark view blends F[i] into U = A F at every presentation, and each
    epoch end measures the carried U against the exact one."""
    x = _blob_points(150)
    d = DissimilarityMatrix.from_array(np.sum(np.abs(x[:, None, :] - x[None, :, :]), axis=2))
    factor = nystrom_fit_dissimilarity(d, 20, seed=7)

    class Spy(_LandmarkState):
        def __init__(self, factor):
            super().__init__(factor)
            self.blends, self.gaps = 0, []

        def blend(self, u, keep, pull, i):
            self.blends += 1
            super().blend(u, keep, pull, i)

        def resync(self, carried, u):
            out = super().resync(carried, u)
            if carried is not None:
                self.gaps.append(out[1])
            return out

    lat = Lattice(5, 5, "rectangular")
    schedule = Schedule(2, seed=7)
    spy = Spy(factor)
    inc = _train_online(spy, lat, schedule, init_mode=init_mode)
    ref = _train_online_reference(
        150, lambda a, i: approx_relational_distances(factor, a)[i],
        lambda a: approx_relational_distances(factor, a), lat, schedule, init_mode=init_mode)
    assert np.array_equal(inc.coefficients, ref.coefficients)
    assert np.array_equal(inc.assignment_trace, ref.assignment_trace)
    assert spy.blends == 2 * 150
    assert len(spy.gaps) == 2
    assert max(spy.gaps) <= inc.resync_drift_max < 1e-12


def _dense_batch_reference(n, matrix_dist, lattice, schedule):
    """The batch loop on explicit coefficients and dense distances: every
    iteration forms A with _coefficient_update and evaluates matrix_dist(A),
    an N^2 K product. Runs all schedule.steps iterations."""
    sigmas = schedule.sigmas(lattice)
    a = _init_coefficients(n, lattice.n_units, np.random.default_rng(schedule.seed), "indicator")
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
    # kind, N, lattice (rows, cols, topology), schedule
    ("squared-euclidean", 40, (3, 3, "rectangular"), Schedule(15, seed=1)),
    ("squared-euclidean", 40, (3, 3, "hexagonal"), Schedule(15, seed=2)),
    ("l1", 35, (2, 4, "hexagonal"), Schedule(12, seed=4)),
    ("rbf", 30, (3, 2, "rectangular"), Schedule(12, seed=6)),
    ("squared-euclidean", 1, (1, 1, "rectangular"), Schedule(5, seed=8)),
    ("duplicates", 36, (2, 3, "rectangular"), Schedule(12, seed=11)),
    ("duplicates", 36, (2, 3, "hexagonal"), Schedule(12, 0.02, 0.02, "fixed", seed=12)),
    ("clusters", 30, (3, 3, "hexagonal"), Schedule(12, 1.0, 0.005, seed=13)),
]
_SKIPPING_CASES = _ENGINE_CASES[-2:]


@pytest.mark.parametrize("kind, n, grid, schedule", _ENGINE_CASES,
                         ids=[f"{c[0]}-N{c[1]}-{c[2][0]}x{c[2][1]}-{c[2][2]}-indicator"
                              for c in _ENGINE_CASES])
def test_block_sum_batch_engine_matches_dense_reference(kind, n, grid, schedule):
    """The engine on per-unit row sums takes every argmin the dense product
    takes, so its coefficients are the reference's bit for bit. Exact ties
    between distinct units are the exception: units whose prototypes
    coincide mathematically (units symmetric about two populated units on a
    2-D lattice, or every unit while one holds all points) are told apart by
    rounding alone, and the two sums round differently."""
    trainer, matrix, matrix_dist = _batch_case(kind, n, seed=n + schedule.seed)
    lattice = Lattice(*grid)
    res = trainer(matrix, lattice, schedule, stop_on_stable_assignment=False)
    a, trace, energies, skipped, final = _dense_batch_reference(
        matrix.n, matrix_dist, lattice, schedule)
    assert np.array_equal(res.assignment_trace, trace)
    assert np.array_equal(res.assignments, final)
    assert np.array_equal(res.coefficients, a)
    assert res.empty_unit_events == skipped
    np.testing.assert_allclose(res.energy_trace, energies, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(energies)))
    np.testing.assert_allclose(res.distances, matrix_dist(a), rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(res.distances)))


@pytest.mark.parametrize("kind, n, grid, schedule", _SKIPPING_CASES,
                         ids=["initial-row-kept", "formed-row-kept"])
def test_block_sum_engine_cases_skip_empty_units(kind, n, grid, schedule):
    """Two engine cases skip units as empty: at tiny sigma a unit whose seed
    duplicates another's wins no point at the first update and keeps its
    initial row; with sigma decaying below the lattice spacing, units that
    lose their points keep rows an earlier update formed."""
    trainer, matrix, _ = _batch_case(kind, n, seed=n + schedule.seed)
    res = trainer(matrix, Lattice(*grid), schedule, stop_on_stable_assignment=False)
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


def _moves(rng, c, n_groups, share):
    """c with a random share of its points sent to random groups."""
    c = c.copy()
    moved = rng.choice(c.size, size=int(round(share * c.size)), replace=False)
    c[moved] = rng.integers(0, n_groups, moved.size)
    return c


def _assert_follows_fresh(m, steps):
    """Feed (c, n_groups) steps to one BlockSums; each result is the fresh
    unit_row_sums within 1e-12 relative. Returns the BlockSums."""
    sums = BlockSums(m)
    for c, n_groups in steps:
        got = sums(c, n_groups)
        want = unit_row_sums(m, c, n_groups)
        scale = max(float(np.max(np.abs(want), initial=0.0)), np.finfo(float).tiny)
        assert got.shape == want.shape
        assert float(np.max(np.abs(got - want), initial=0.0)) <= 1e-12 * scale
    return sums


def _sequence(rng, n, n_groups, shares):
    c = rng.integers(0, n_groups, n)
    steps = [(c, n_groups)]
    for share in shares:
        c = _moves(rng, c, n_groups, share)
        steps.append((c, n_groups))
    return steps


_SHARES = [0.02, 0.1, 0.24, 0.6, 0.05, 1.0, 0.01, 0.0, 0.2]


@pytest.mark.parametrize("kind", ["squared-euclidean", "l1", "indefinite"])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_block_sums_follow_fresh_sums_through_small_and_large_moves(kind, scale):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(80, 3))
    if kind == "squared-euclidean":
        m = squared_euclidean(VectorDataset.from_array(x)).values
    elif kind == "l1":
        m = np.abs(x[:, None, :] - x[None, :, :]).sum(axis=2)
    else:  # symmetric with both signs: no embedding at all
        m = rng.normal(size=(80, 80))
        m = m + m.T
    sums = _assert_follows_fresh(scale * m, _sequence(rng, 80, 9, _SHARES))
    assert sums.passes["delta"] >= 6 and sums.passes["fresh"] >= 3


def test_block_sums_zero_emptied_groups_and_refill_them():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(40, 40)) * 1e3
    c = np.zeros(40, dtype=np.int64)
    c[:8] = 1  # group 1: eight points, group 2: none
    steps = [(c, 3)]
    for i in range(8):  # empty group 1 one point at a time, then refill it and group 2
        c = c.copy()
        c[i] = 0
        steps.append((c, 3))
    for i in range(8):
        c = c.copy()
        c[i] = 1 + i % 2
        steps.append((c, 3))
    sums = BlockSums(m)
    for c, n_groups in steps:
        got = sums(c, n_groups)
        for group in range(n_groups):
            if not np.any(c == group):
                assert not got[group].any()  # an exact zero row, not rounding residue
        np.testing.assert_allclose(got, unit_row_sums(m, c, n_groups), rtol=0, atol=1e-12 * 4e4)
    assert sums.passes == {"fresh": 1, "delta": 16}


def test_block_sums_pass_fresh_when_the_number_of_groups_changes():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(30, 30))
    one = np.zeros(30, dtype=np.int64)  # a single group
    c = rng.integers(0, 6, 30)
    sums = _assert_follows_fresh(m, [(one, 1), (c, 6), (c, 6), (_moves(rng, c, 6, 0.1), 6)])
    assert sums.passes == {"fresh": 2, "delta": 2}


@pytest.mark.parametrize("n, n_groups", [(1, 1), (1, 4), (5, 12)], ids=["N1", "N1-K4", "K-over-N"])
def test_block_sums_on_tiny_inputs(n, n_groups):
    rng = np.random.default_rng(n + n_groups)
    m = rng.normal(size=(n, n))
    m = m + m.T
    _assert_follows_fresh(m, _sequence(rng, n, n_groups, _SHARES))


def test_block_sums_keep_duplicate_columns_bitwise_equal():
    """Duplicate points have identical columns of D; carried or fresh, their
    sums take the same operations, so their distances tie exactly."""
    rng = np.random.default_rng(11)
    x = rng.normal(size=(30, 2))
    x = np.vstack([x, x[:10]])  # points 30..39 repeat points 0..9
    m = squared_euclidean(VectorDataset.from_array(x)).values
    sums = BlockSums(m)
    for c, n_groups in _sequence(rng, 40, 5, [0.05, 0.1, 0.2, 0.15, 0.05]):
        got = sums(c, n_groups)
        assert np.array_equal(got[:, :10], got[:, 30:])
    assert sums.passes["delta"] == 5


def test_block_sums_measure_drift_at_a_forced_fresh_pass():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(50, 50))
    sums = BlockSums(m)
    steps = _sequence(rng, 50, 4, [0.1, 0.1, 0.1])
    for c, n_groups in steps:
        sums(c, n_groups)
    assert sums.drift is None
    final = _moves(rng, steps[-1][0], 4, 0.1)
    got = sums(final, 4, fresh=True)
    assert np.array_equal(got, unit_row_sums(m, final, 4))
    assert 0.0 < sums.drift < 1e-14
    assert sums.passes == {"fresh": 2, "delta": 3}


def _blobs(n, seed):
    rng = np.random.default_rng(seed)
    centers = 6.0 * rng.normal(size=(4, 2))
    return centers[rng.integers(0, 4, n)] + rng.normal(size=(n, 2))


def _carry_case(family):
    x = _blobs(240, 21)
    lattice, schedule = Lattice(4, 4), Schedule(30, seed=4)
    if family == "median":
        dm = squared_euclidean(VectorDataset.from_array(x))
        return lambda: train_batch_median(dm, lattice, schedule)
    if family == "kernel":
        sq = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        k = KernelMatrix.from_array(np.exp(-sq / 18.0))
        return lambda: train_batch_kernel(k, lattice, schedule)
    dm = squared_euclidean(VectorDataset.from_array(x))
    return lambda: train_batch_relational(dm, lattice, schedule)


@pytest.mark.parametrize("family", ["relational", "kernel", "median"],
                         ids=["relational-indicator", "kernel-indicator", "median"])
def test_carried_block_sums_train_as_fresh_passes_do(family, monkeypatch):
    """Forcing a fresh pass at every call (no share of moved points is small
    enough) changes nothing but the rounding of the carried sums."""
    train = _carry_case(family)
    carried = train()
    monkeypatch.setattr("dksom.relsom.CARRY_MOVED_SHARE", 0.0)
    fresh = train()
    assert carried.block_sum_passes["delta"] > 0 and fresh.block_sum_passes["delta"] == 0
    assert np.array_equal(carried.assignment_trace, fresh.assignment_trace)
    assert np.array_equal(carried.assignments, fresh.assignments)
    np.testing.assert_allclose(carried.energy_trace, fresh.energy_trace, rtol=1e-12)
    if family == "median":
        assert np.array_equal(carried.prototype_indices, fresh.prototype_indices)
        return
    assert np.array_equal(carried.distances, fresh.distances)  # both from a fresh pass
    assert np.array_equal(carried.coefficients, fresh.coefficients)
    assert 0.0 <= carried.resync_drift_max < 1e-12
    assert fresh.resync_drift_max == 0.0


@pytest.mark.parametrize("family", ["relational", "kernel", "median"])
def test_late_iterations_update_the_block_sums_by_their_moved_rows(family):
    res = _carry_case(family)()
    iterations = len(res.energy_trace)
    passes = res.block_sum_passes
    assert passes["fresh"] < iterations
    # the median SOM sums at each update, the coefficient trainers at each
    # evaluation but the first, which reads the seeds, and at the final one
    calls = iterations - res.stopped_early if family == "median" else iterations
    assert passes["fresh"] + passes["delta"] == calls
