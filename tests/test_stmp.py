import warnings

import numpy as np
import pytest

from dksom.dismat import DissimilarityMatrix
from dksom.lattice import Lattice
from dksom.stmp import (
    AnnealingSchedule,
    PowerIterationError,
    _entropy,
    critical_beta,
    default_annealing,
    mean_field,
    mixing_coefficients,
    power_iteration,
    soft_update,
    train_stmp,
)
from dksom.verify import two_blob_dissimilarity

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


def test_annealing_schedule_validation():
    AnnealingSchedule(0.1, 1.5, 10.0)  # fine
    with pytest.raises(ValueError):
        AnnealingSchedule(10.0, 1.5, 0.1)
    with pytest.raises(ValueError):
        AnnealingSchedule(0.1, 1.0, 10.0)
    with pytest.raises(ValueError):
        AnnealingSchedule(-0.1, 1.5, 10.0)


def test_default_annealing_brackets_critical_beta():
    d, _ = two_blob_dissimilarity()
    sched = default_annealing(d)
    bc = critical_beta(d)
    assert sched.beta0 < bc < sched.beta_max


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
