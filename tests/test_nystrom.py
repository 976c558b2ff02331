import numpy as np
import pytest

from dksom.dismat import (
    DissimilarityMatrix,
    KernelMatrix,
    VectorDataset,
    kernel_to_dissimilarity,
    squared_euclidean,
)
from dksom.lattice import Lattice
from dksom.nystrom import (
    approx_relational_distances,
    double_center,
    nystrom_fit,
    nystrom_fit_dissimilarity,
    reconstruct_dissimilarity,
    reconstruct_similarity,
    sample_reconstruction_error,
    train_batch_approx,
    train_online_approx,
)
from dksom.relsom import _train_online_reference, relational_distances, train_batch_relational
from dksom.verify import random_psd_kernel


def test_full_landmark_fit_is_exact():
    rng = np.random.default_rng(1)
    k = random_psd_kernel(40, rng)
    f = nystrom_fit(k, 40, seed=0)
    assert np.max(np.abs(reconstruct_similarity(f) - k.values)) < 1e-10


def test_rank_one_kernel_single_landmark():
    v = np.array([1.0, -2.0, 0.5, 3.0])
    k = KernelMatrix.from_array(np.outer(v, v))
    f = nystrom_fit(k, 1, seed=3)
    assert np.max(np.abs(reconstruct_similarity(f) - k.values)) < 1e-10


def test_low_rank_kernel_recovered_at_matching_landmark_count():
    rng = np.random.default_rng(9)
    b = rng.normal(size=(60, 3))  # rank-3 Gram matrix
    k = KernelMatrix.from_array(b @ b.T)
    f = nystrom_fit(k, 8, seed=2)
    assert f.rank <= 3
    assert np.max(np.abs(reconstruct_similarity(f) - k.values)) < 1e-8


def test_double_center_matches_gram_identity():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(25, 4))
    xc = x - x.mean(axis=0)
    d = squared_euclidean(VectorDataset.from_array(x)).values
    np.testing.assert_allclose(double_center(d), xc @ xc.T, atol=1e-9)


def test_dissimilarity_fit_reconstructs_with_zero_diagonal():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(50, 3))
    d = squared_euclidean(VectorDataset.from_array(x))
    f = nystrom_fit_dissimilarity(d, 50, seed=0)
    rec = reconstruct_dissimilarity(f)
    assert np.all(np.diag(rec) == 0.0)
    assert np.max(np.abs(rec - d.values)) < 1e-8


def test_approx_distances_match_reconstruction():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(45, 3))
    d = squared_euclidean(VectorDataset.from_array(x))
    f = nystrom_fit_dissimilarity(d, 12, seed=1)
    a = rng.dirichlet(np.ones(45), size=5)
    fast = approx_relational_distances(f, a)
    dense = relational_distances(reconstruct_dissimilarity(f), a)
    assert np.max(np.abs(fast - dense)) < 1e-9


def test_sample_reconstruction_error_exact_case():
    rng = np.random.default_rng(13)
    k = random_psd_kernel(30, rng)
    f = nystrom_fit(k, 30, seed=0)
    rep = sample_reconstruction_error(f, k.values, seed=5)
    assert rep["samples"] == 1000
    assert rep["max_abs_error"] < 1e-10
    assert rep["mean_abs_error"] <= rep["max_abs_error"]


def test_error_shrinks_with_more_landmarks():
    rng = np.random.default_rng(21)
    b = rng.normal(size=(80, 40))
    k = KernelMatrix.from_array(b @ b.T / 40)
    errs = []
    for m in (5, 20, 60):
        per_seed = []
        for seed in range(8):
            f = nystrom_fit(k, m, seed=seed)
            per_seed.append(np.linalg.norm(reconstruct_similarity(f) - k.values))
        errs.append(np.mean(per_seed))
    assert errs[0] > errs[1] > errs[2]


def test_approx_trainer_matches_exact_on_full_rank_fit():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(60, 2))
    d = squared_euclidean(VectorDataset.from_array(x))
    f = nystrom_fit_dissimilarity(d, 60, seed=0)
    lat = Lattice(2, 3, "rectangular")
    exact = train_batch_relational(d, lat, n_iter=12, seed=6, stop_on_stable_assignment=False)
    approx = train_batch_approx(f, lat, n_iter=12, seed=6, stop_on_stable_assignment=False)
    assert np.array_equal(exact.assignments, approx.assignments)
    assert np.max(np.abs(exact.coefficients - approx.coefficients)) < 1e-8


def test_landmark_count_validation():
    rng = np.random.default_rng(2)
    k = random_psd_kernel(10, rng)
    with pytest.raises(ValueError):
        nystrom_fit(k, 0)
    with pytest.raises(ValueError):
        nystrom_fit(k, 11)


@pytest.mark.parametrize("init_mode", ["indicator", "uniform"])
@pytest.mark.parametrize("kind", ["kernel", "dissimilarity"])
def test_online_landmark_engine_matches_factored_distances(kind, init_mode):
    rng = np.random.default_rng(12)
    x = rng.normal(size=(40, 3))
    if kind == "kernel":
        factor = nystrom_fit(KernelMatrix.from_array(x @ x.T), 8, seed=1)
    else:
        dm = squared_euclidean(VectorDataset.from_array(x))
        factor = nystrom_fit_dissimilarity(dm, 8, seed=1)
    lat = Lattice(2, 2, "rectangular")
    kw = dict(n_epochs=4, seed=3, init_mode=init_mode)
    inc = train_online_approx(factor, lat, **kw)
    # naive reference: approx_relational_distances evaluated at every presentation
    ref = _train_online_reference(
        factor.n, lambda a, i: approx_relational_distances(factor, a)[i],
        lambda a: approx_relational_distances(factor, a), lat, **kw,
    )
    # shared coefficient arithmetic: bitwise-equal coefficients mean equal BMUs
    assert np.array_equal(inc.coefficients, ref.coefficients)
    assert np.array_equal(inc.assignment_trace, ref.assignment_trace)
    np.testing.assert_allclose(inc.energy_trace, ref.energy_trace, rtol=1e-12)
    assert 0.0 <= inc.resync_drift_max < 1e-12
