"""End-to-end acceptance gate: ten checks, one line of verdict each.

Each test exercises one guaranteed behavior of the library at its stated
tolerance and wall-clock budget, reports a single pass/fail line through the
criterion_report fixture, and fails loudly if the guarantee does not hold.
"""

import time

import numpy as np

from dksom.bench import run_bench
from dksom.dismat import (
    KernelMatrix,
    VectorDataset,
    kernel_to_dissimilarity,
    squared_euclidean,
)
from dksom.lattice import Lattice, Schedule
from dksom.mediansom import median_update, train_batch_median
from dksom.nystrom import (
    approx_relational_distances,
    nystrom_fit,
    nystrom_fit_dissimilarity,
    reconstruct_dissimilarity,
    reconstruct_similarity,
)
from dksom.quality import triangle_bound_sides, verify_koenig_huygens
from dksom.relsom import (
    kernel_distance,
    relational_distance,
    relational_distances,
    train_batch_kernel,
    train_batch_relational,
    train_online_relational,
)
from dksom.stmp import AnnealingSchedule, critical_beta, mean_field, power_iteration, train_stmp
from dksom.vectorsom import train_batch
from dksom.verify import NON_METRIC_WITNESS, tree_metric, two_blob_dissimilarity


def test_criterion_01_batch_relational_matches_vector_oracle(criterion_report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    x = rng.normal(size=(200, 2))
    ds = VectorDataset.from_array(x)
    d = squared_euclidean(ds)
    lat = Lattice(5, 5)
    rv = train_batch(ds, lat, Schedule(50, seed=11))
    rr = train_batch_relational(d, lat, Schedule(50, seed=11), stop_on_stable_assignment=False)
    trace_equal = np.array_equal(rv.assignment_trace, rr.assignment_trace)
    gap = float(np.max(np.abs(rr.coefficients @ x - rv.prototypes)))
    dt = time.perf_counter() - t0
    criterion_report(
        1,
        trace_equal and gap <= 1e-9 and dt < 10.0,
        f"batch relational vs vector SOM, N=200 p=2 5x5 50 iters: "
        f"BMU traces identical={trace_equal}, implied-prototype gap {gap:.2e} "
        f"(tol 1e-9), {dt:.1f}s (limit 10s)",
    )


def test_criterion_02_kernel_som_equals_relational_som(criterion_report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    lat = Lattice(3, 3)
    kernels = []
    dissims = []
    divergent = 0
    coeff_gap = 0.0
    for _ in range(50):
        b = rng.standard_normal((100, 110))
        k = KernelMatrix.from_array(b @ b.T / 110.0)
        d = kernel_to_dissimilarity(k)
        kernels.append(k)
        dissims.append(d)
        seed = int(rng.integers(0, 2**31))
        rk = train_batch_kernel(k, lat, Schedule(10, seed=seed), stop_on_stable_assignment=False)
        rr = train_batch_relational(d, lat, Schedule(10, seed=seed), stop_on_stable_assignment=False)
        if not np.array_equal(rk.assignment_trace, rr.assignment_trace):
            divergent += 1
        coeff_gap = max(coeff_gap, float(np.max(np.abs(rk.coefficients - rr.coefficients))))
    triple_gap = 0.0
    for _ in range(10_000):
        j = int(rng.integers(0, 50))
        alpha = rng.dirichlet(np.ones(100))
        i = int(rng.integers(0, 100))
        triple_gap = max(
            triple_gap,
            abs(kernel_distance(kernels[j].values, alpha, i)
                - relational_distance(dissims[j].values, alpha, i)),
        )
    dt = time.perf_counter() - t0
    criterion_report(
        2,
        divergent == 0 and coeff_gap <= 1e-12 and triple_gap < 1e-9 and dt < 30.0,
        f"kernel vs relational training on 50 PSD kernels (N=100): divergent runs "
        f"{divergent}, coefficient gap {coeff_gap:.2e} (tol 1e-12); distance identity "
        f"over 10000 triples: max gap {triple_gap:.2e} (tol 1e-9); {dt:.1f}s (limit 30s)",
    )


def test_criterion_03_variance_identity(criterion_report):
    rng = np.random.default_rng(303)
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        p = int(rng.integers(1, 11))
        x = rng.normal(size=(n, p)) * rng.uniform(0.5, 3.0)
        w = rng.uniform(0.1, 5.0, size=n)
        if not verify_koenig_huygens(VectorDataset.from_array(x), w):
            failures += 1
    criterion_report(
        3,
        failures == 0,
        f"weighted variance identity on 1000 random configurations "
        f"(N<=200, p<=10): {failures} failures at rel tol 1e-9",
    )


def test_criterion_04_pairwise_vs_medoid_bound(criterion_report):
    rng = np.random.default_rng(404)
    min_slack = np.inf
    for _ in range(20):
        d = tree_metric(30, rng)
        for _ in range(50):
            beta = rng.uniform(0.0, 1.0, 30)
            beta[rng.random(30) < 0.3] = 0.0
            if beta.sum() == 0.0:
                beta[0] = 1.0
            lhs, rhs = triangle_bound_sides(d, beta)
            min_slack = min(min_slack, rhs - lhs)
    w_lhs, w_rhs = triangle_bound_sides(np.asarray(NON_METRIC_WITNESS, float), np.ones(3))
    criterion_report(
        4,
        min_slack >= -1e-9 and w_lhs > w_rhs,
        f"pairwise-cost <= best-medoid-cost over 1000 weightings of tree metrics "
        f"(N=30): min slack {min_slack:.2e} (tol -1e-9); non-metric witness violates: "
        f"{w_lhs:.3g} > {w_rhs:.3g}",
    )


def test_criterion_05_median_prototypes(criterion_report):
    rng = np.random.default_rng(505)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(5, 201))
        w = rng.uniform(0.1, 10.0, (n, n))
        w = np.triu(w, 1)
        d = w + w.T
        protos, _, _ = median_update(d, np.zeros(n, dtype=np.int64), np.ones((1, 1)))
        if protos[0] != int(np.argmin(d.sum(axis=0))):
            mismatches += 1
    centers = np.array([[0.0, 0.0], [7.0, 0.0], [0.0, 7.0], [7.0, 7.0]])
    not_distinct = 0
    not_self = 0
    for seed in range(5):
        r2 = np.random.default_rng(seed + 1000)
        pts = r2.normal(size=(60, 2)) * 0.5 + centers[r2.integers(0, 4, 60)]
        dm = squared_euclidean(VectorDataset.from_array(pts))
        res = train_batch_median(dm, Lattice(2, 3), Schedule(30, seed=seed))
        if len(set(res.prototype_indices.tolist())) != 6:
            not_distinct += 1
        sizes = np.bincount(res.assignments, minlength=6)
        if any(sizes[k] > 0 and res.assignments[j] != k
               for k, j in enumerate(res.prototype_indices)):
            not_self += 1
    criterion_report(
        5,
        mismatches == 0 and not_distinct == 0 and not_self == 0,
        f"single-unit median = brute-force medoid on 100 random matrices "
        f"({mismatches} mismatches); trained maps (5 seeds, K=6<=N=60): "
        f"non-distinct prototype sets {not_distinct}, units not containing their "
        f"own prototype {not_self}",
    )


def test_criterion_06_annealed_soft_assignments(criterion_report):
    t0 = time.perf_counter()
    d, labels = two_blob_dissimilarity()  # N=60, two tight clusters

    res = train_stmp(d, Lattice(1, 2), sigma=0.5, seed=0)
    a = res.assignments
    separated = bool(np.array_equal(a, labels) or np.array_equal(1 - a, labels))

    rng = np.random.default_rng(606)
    b = rng.uniform(0.1, 1.0, (60, 4))
    b /= b.sum(axis=0)
    h4 = Lattice(2, 2).neighborhood(0.8)
    e = mean_field(d.values, b, h4)
    mf_gap = 0.0
    for i in range(60):
        for k in range(4):
            ref = sum(h4[k, l] * relational_distance(d.values, b[:, l], i) for l in range(4))
            mf_gap = max(mf_gap, abs(e[i, k] - ref))

    bc = critical_beta(d)
    one_step = AnnealingSchedule(0.1 * bc, 1.1, 0.1 * bc * 1.0000001)
    res_u = train_stmp(d, Lattice(1, 2), sigma=0.5, annealing=one_step, seed=3)
    uniform_gap = float(np.max(np.abs(res_u.gamma - 0.5)))
    row_err = max(
        float(np.max(np.abs(r.gamma.sum(axis=1) - 1.0))) for r in (res, res_u)
    )

    dt = time.perf_counter() - t0
    criterion_report(
        6,
        row_err <= 1e-12 and mf_gap < 1e-10 and uniform_gap < 1e-3 and separated
        and dt < 60.0,
        f"annealed soft assignments: row-sum error {row_err:.2e} (tol 1e-12); "
        f"mean-field vs scalar distances max gap {mf_gap:.2e} (tol 1e-10); below "
        f"critical beta max |gamma - 1/K| = {uniform_gap:.2e} (tol 1e-3); two-blob "
        f"separation={separated}; {dt:.1f}s (limit 60s)",
    )


def test_criterion_07_dominant_eigenvalue(criterion_report):
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(20):
        a = rng.standard_normal((50, 50))
        a = np.abs(a + a.T)
        np.fill_diagonal(a, 0.0)
        lam = power_iteration(a)
        ref = float(np.max(np.abs(np.linalg.eigvalsh(a))))
        worst = max(worst, abs(lam - ref) / ref)
    criterion_report(
        7,
        worst <= 1e-6,
        f"power iteration vs dense eigensolver on 20 random 50x50 matrices: "
        f"max relative error {worst:.2e} (tol 1e-6)",
    )


def test_criterion_08_landmark_approximation(criterion_report):
    rng = np.random.default_rng(808)

    b = rng.standard_normal((80, 160))
    k80 = KernelMatrix.from_array(b @ b.T / 160.0)
    full_err = float(np.max(np.abs(reconstruct_similarity(nystrom_fit(k80, 80, seed=0))
                                   - k80.values)))

    v = rng.uniform(0.5, 2.0, 80)
    k1 = KernelMatrix.from_array(np.outer(v, v))
    rank1_err = float(np.max(np.abs(reconstruct_similarity(nystrom_fit(k1, 1, seed=0))
                                    - k1.values)))

    m_grid = (5, 10, 20, 40)
    sums = {m: 0.0 for m in m_grid}
    for seed in range(20):
        r2 = np.random.default_rng(seed + 2000)
        bb = r2.standard_normal((100, 200))
        kk = KernelMatrix.from_array(bb @ bb.T / 200.0)
        for m in m_grid:
            f = nystrom_fit(kk, m, seed=seed)
            sums[m] += float(np.linalg.norm(reconstruct_similarity(f) - kk.values))
    means = [sums[m] / 20.0 for m in m_grid]
    monotone = all(means[i + 1] <= means[i] * (1.0 + 1e-9) for i in range(3))

    pts = rng.normal(size=(100, 3))
    dm = squared_euclidean(VectorDataset.from_array(pts))
    fac = nystrom_fit_dissimilarity(dm, 25, seed=1)
    dtil = reconstruct_dissimilarity(fac)
    alphas = rng.dirichlet(np.ones(100), size=8)
    dist_gap = float(np.max(np.abs(approx_relational_distances(fac, alphas)
                                   - relational_distances(dtil, alphas))))

    criterion_report(
        8,
        full_err < 1e-8 and rank1_err < 1e-8 and monotone and dist_gap < 1e-9,
        f"landmark approximation: m=N error {full_err:.2e} (tol 1e-8); rank-1 m=1 "
        f"error {rank1_err:.2e}; mean Frobenius error over 20 seeds non-increasing "
        f"for m=5,10,20,40: {monotone} ({', '.join(f'{e:.3g}' for e in means)}); "
        f"factored vs reconstructed distances max gap {dist_gap:.2e} (tol 1e-9)",
    )


def test_criterion_09_empirical_complexity(criterion_report):
    # one retry: a sustained contention phase on a shared host can corrupt a
    # whole run's timings, and a second run lands in a fresh machine phase
    t0 = time.perf_counter()
    retried = False
    for attempt in range(2):
        res = run_bench()
        s_assign = res["slopes"]["relational-batch/assignment"]
        s_median = res["slopes"]["median/update"]
        s_ratio = res["slopes"]["online-epoch-to-batch-iteration-ratio"]
        ok = (1.7 <= s_assign <= 2.3 and 1.7 <= s_median <= 2.3
              and 0.8 <= s_ratio <= 1.2)
        if ok:
            break
        if attempt == 0:
            retried = True
    dt = time.perf_counter() - t0
    criterion_report(
        9,
        ok and dt < 900.0,
        f"empirical complexity over N=500..4000, K=25: relational assignment slope "
        f"{s_assign:.2f} (window 1.7-2.3), median update slope {s_median:.2f} "
        f"(window 1.7-2.3), epoch/iteration ratio slope {s_ratio:.2f} "
        f"(window 0.8-1.2); {dt:.0f}s (limit 900s)"
        + ("; retried once after a contended first attempt" if retried else ""),
    )


def test_criterion_10_stochastic_updates_preserve_constraints(criterion_report):
    rng = np.random.default_rng(1010)
    x = rng.normal(size=(100, 2))
    d = squared_euclidean(VectorDataset.from_array(x))
    res = train_online_relational(d, Lattice(5, 5), Schedule(1000, seed=17))
    row_err = float(np.max(np.abs(res.coefficients.sum(axis=1) - 1.0)))
    in_range = bool(res.coefficients.min() >= 0.0 and res.coefficients.max() <= 1.0)
    criterion_report(
        10,
        row_err <= 1e-12 and in_range,
        f"100000 stochastic coefficient updates (N=100, 1000 epochs): max "
        f"|row sum - 1| = {row_err:.2e} (tol 1e-12), entries within [0,1]={in_range}",
    )
