"""Seeded randomized self-check suites, runnable via the CLI.

Each suite returns (check-name, passed, detail) tuples; the CLI prints one
PASS/FAIL line per check and exits nonzero if any fails. The suites
cross-validate independent code paths (kernel vs relational distances,
factored vs dense products, soft vs crisp assignments) rather than comparing
an implementation with itself.
"""

from __future__ import annotations

import time

import numpy as np

from .bench import blob_dataset
from .dismat import (
    DissimilarityMatrix,
    KernelMatrix,
    VectorDataset,
    kernel_to_dissimilarity,
    squared_euclidean,
)
from .lattice import Lattice, Schedule
from .nystrom import (
    approx_relational_distance,
    approx_relational_distances,
    nystrom_fit,
    nystrom_fit_dissimilarity,
    reconstruct_dissimilarity,
    reconstruct_similarity,
)
from .quality import triangle_bound_sides, verify_koenig_huygens
from .relsom import (
    kernel_distance,
    relational_distance,
    relational_distances,
    train_batch_kernel,
    train_batch_relational,
)
from .stmp import (
    AnnealingSchedule,
    critical_beta,
    mean_field,
    mixing_coefficients,
    settle,
    soft_update,
    symmetry_breaking_beta,
    train_stmp,
)

# a dissimilarity that is symmetric, nonnegative, zero-diagonal, but breaks
# the triangle inequality badly enough to flip the pairwise/medoid bound:
# D_01 = 10 > D_02 + D_21 = 2
NON_METRIC_WITNESS = np.array([[0.0, 10.0, 1.0], [10.0, 0.0, 1.0], [1.0, 1.0, 0.0]])

SEEDS = {"equivalence": 901, "kh": 902, "triangle": 903, "stmp-limit": 904, "nystrom": 905}
# kernels trained both ways, points per kernel, and draws of the pointwise identity
EQUIVALENCE_KERNELS, EQUIVALENCE_POINTS, DISTANCE_TRIPLES = 50, 100, 10_000
KH_CONFIGS = 1000  # weighted point sets of the variance identity
TRIANGLE_WEIGHTS, TRIANGLE_POINTS = 1000, 30  # weight vectors on one tree metric of this size
PSD_OVERSAMPLE = 10  # random_psd_kernel draws n + PSD_OVERSAMPLE features per point
BLOB_SEPARATION, BLOB_SEED = 6.0, 7  # two_blob_dissimilarity's cluster offset and draw
SYMMETRIC_ENTROPY = 0.99  # share of N ln K the first default STMP step keeps
PAST_TRANSITION = 1.2  # fixed beta of the extrapolation check, in symmetry_breaking_beta


def tree_metric(n: int, rng: np.random.Generator) -> np.ndarray:
    """Shortest-path distances on a random weighted tree (an exact metric)."""
    d = np.zeros((n, n))
    for i in range(1, n):
        p = int(rng.integers(0, i))
        w = float(rng.uniform(0.5, 2.0))
        d[i, :i] = d[p, :i] + w
        d[:i, i] = d[i, :i]
    return d


def random_psd_kernel(n: int, rng: np.random.Generator) -> KernelMatrix:
    b = rng.standard_normal((n, n + PSD_OVERSAMPLE))
    return KernelMatrix.from_array(b @ b.T / (n + PSD_OVERSAMPLE))


def two_blob_dissimilarity(n: int = 60) -> tuple[DissimilarityMatrix, np.ndarray]:
    """Two tight, well-separated 2-D clusters; returns (D, blob labels)."""
    rng = np.random.default_rng(BLOB_SEED)
    half = n // 2
    labels = np.repeat([0, 1], [half, n - half])
    points = rng.standard_normal((n, 2)) * 0.5
    points[labels == 1, 0] += BLOB_SEPARATION
    return squared_euclidean(VectorDataset.from_array(points)), labels


def plain_fixed_point(d_values, h, e, beta, tol, max_iters):
    """The mean-field fixed point by plain iteration, without settle's
    extrapolation: (e, products)."""
    for products in range(1, max_iters + 1):
        e_new = mean_field(d_values, mixing_coefficients(soft_update(e, beta), h), h)
        done = float(np.max(np.abs(e_new - e))) < tol
        e = e_new
        if done:
            break
    return e, products


def suite_equivalence():
    rng = np.random.default_rng(SEEDS["equivalence"])
    lattice = Lattice(3, 3)
    bad_runs = 0
    worst_coeff = 0.0
    for _ in range(EQUIVALENCE_KERNELS):
        kern = random_psd_kernel(EQUIVALENCE_POINTS, rng)
        run_seed = int(rng.integers(0, 2**31))
        schedule = Schedule(10, seed=run_seed)
        rk = train_batch_kernel(kern, lattice, schedule, stop_on_stable_assignment=False)
        rr = train_batch_relational(kernel_to_dissimilarity(kern), lattice, schedule,
                                    stop_on_stable_assignment=False)
        same = (np.array_equal(rk.assignment_trace, rr.assignment_trace)
                and np.array_equal(rk.assignments, rr.assignments))
        bad_runs += 0 if same else 1
        worst_coeff = max(worst_coeff, float(np.max(np.abs(rk.coefficients - rr.coefficients))))
    yield ("kernel-vs-relational training", bad_runs == 0 and worst_coeff <= 1e-12,
           f"{EQUIVALENCE_KERNELS} kernels, {bad_runs} divergent runs, "
           f"max coefficient gap {worst_coeff:.2e}")

    worst = 0.0
    for _ in range(DISTANCE_TRIPLES):
        m = int(rng.integers(5, 40))
        kern = random_psd_kernel(m, rng)
        alpha = rng.uniform(0.0, 1.0, m)
        alpha /= alpha.sum()
        i = int(rng.integers(0, m))
        lhs = relational_distance(kernel_to_dissimilarity(kern).values, alpha, i)
        rhs = kernel_distance(kern.values, alpha, i)
        worst = max(worst, abs(lhs - rhs))
    yield ("pointwise distance identity", worst < 1e-9,
           f"{DISTANCE_TRIPLES} triples, max |lhs-rhs| = {worst:.2e}")


def suite_kh():
    rng = np.random.default_rng(SEEDS["kh"])
    failures = 0
    for _ in range(KH_CONFIGS):
        n = int(rng.integers(2, 201))
        p = int(rng.integers(1, 11))
        pts = VectorDataset.from_array(rng.standard_normal((n, p)) * rng.uniform(0.1, 10.0))
        weights = rng.uniform(0.1, 5.0, n)
        if not verify_koenig_huygens(pts, weights):
            failures += 1
    yield ("variance identity", failures == 0, f"{KH_CONFIGS} configurations, {failures} failures")


def suite_triangle():
    rng = np.random.default_rng(SEEDS["triangle"])
    d = tree_metric(TRIANGLE_POINTS, rng)
    worst_slack = np.inf
    for _ in range(TRIANGLE_WEIGHTS):
        beta = rng.uniform(0.0, 1.0, TRIANGLE_POINTS)
        beta[int(rng.integers(0, TRIANGLE_POINTS))] += 0.5  # keep the sum safely positive
        lhs, rhs = triangle_bound_sides(d, beta)
        worst_slack = min(worst_slack, rhs - lhs)
    yield ("bound on tree metrics", worst_slack >= -1e-9,
           f"{TRIANGLE_WEIGHTS} weight vectors, worst slack {worst_slack:.3e}")

    lhs, rhs = triangle_bound_sides(NON_METRIC_WITNESS, np.ones(3))
    yield ("non-metric witness violates", lhs > rhs,
           f"pairwise cost {lhs:g} > best medoid cost {rhs:g}")


def suite_stmp_limit():
    dm, _ = two_blob_dissimilarity()
    lattice = Lattice(1, 2)
    bc = critical_beta(dm)
    beta = 0.1 * bc
    res = train_stmp(dm, lattice, sigma=0.5,
                     annealing=AnnealingSchedule(beta, 1.1, beta * 1.05), seed=SEEDS["stmp-limit"])
    dev = float(np.max(np.abs(res.gamma - 0.5)))
    yield ("no symmetry breaking below critical beta", dev < 1e-3,
           f"beta = 0.1/lambda_max, max |gamma - 1/K| = {dev:.2e}")

    n = dm.values.shape[0]
    first = train_stmp(dm, lattice, sigma=0.5, seed=SEEDS["stmp-limit"]).trace[0]
    share = first[3] / (n * np.log(lattice.n_units))
    yield ("default annealing starts in the symmetric phase", share >= SYMMETRIC_ENTROPY,
           f"first beta = {first[0] / bc:.1f}/lambda_max, entropy {share:.5f} of N ln K")

    h = lattice.neighborhood(0.5)
    beta = PAST_TRANSITION * symmetry_breaking_beta(dm.values, h)
    e0 = np.random.default_rng(SEEDS["stmp-limit"]).uniform(0.0, 1e-3, (n, lattice.n_units))
    tol, cap = AnnealingSchedule.inner_tol, AnnealingSchedule.inner_max_iters
    fast, _, fast_products, _ = settle(dm.values, h, e0, beta, tol, cap)
    plain, plain_products = plain_fixed_point(dm.values, h, e0, beta, tol, cap)
    gap = float(np.max(np.abs(fast - plain)))
    yield ("extrapolated mean field ends at the plain fixed point",
           gap < 10.0 * tol and fast_products <= plain_products,
           f"beta = {PAST_TRANSITION} x symmetry-breaking scale, max gap {gap:.2e} "
           f"(tol {10.0 * tol:g}), {fast_products} vs {plain_products} products")

    rng = np.random.default_rng(SEEDS["stmp-limit"])
    n, k = 80, 9
    d = rng.uniform(0.5, 4.0, (n, n))
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    b = rng.uniform(0.1, 1.0, (n, k))
    b /= b.sum(axis=0)
    e = mean_field(d, b, np.eye(k))
    crisp = np.argmax(soft_update(e, 1e6), axis=1)
    direct = np.argmin(relational_distances(d, b.T), axis=1)
    agree = float(np.mean(crisp == direct))
    yield ("zero-temperature limit matches crisp assignment", agree >= 0.99,
           f"agreement {agree:.3f} over {n} points")


def suite_nystrom():
    seed = SEEDS["nystrom"]
    rng = np.random.default_rng(seed)
    n = 80
    b = rng.standard_normal((n, 3 * n))
    kern = KernelMatrix.from_array(b @ b.T / (3 * n))
    full = nystrom_fit(kern, n, seed=seed)
    err = float(np.max(np.abs(reconstruct_similarity(full) - kern.values)))
    yield ("full-landmark exactness", err < 1e-8, f"m=N={n}, max abs error {err:.2e}")

    v = rng.uniform(0.5, 2.0, n)
    rank1 = KernelMatrix.from_array(np.outer(v, v))
    f1 = nystrom_fit(rank1, 1, seed=seed)
    err1 = float(np.max(np.abs(reconstruct_similarity(f1) - rank1.values)))
    yield ("rank-1 single landmark", err1 < 1e-8, f"m=1, max abs error {err1:.2e}")

    dm = squared_euclidean(blob_dataset(120, seed))
    factor = nystrom_fit_dissimilarity(dm, 30, seed=seed)
    dtil = reconstruct_dissimilarity(factor)
    worst = 0.0
    for _ in range(200):
        alpha = rng.uniform(0.0, 1.0, 120)
        alpha /= alpha.sum()
        i = int(rng.integers(0, 120))
        worst = max(worst, abs(approx_relational_distance(factor, alpha, i)
                               - relational_distance(dtil, alpha, i)))
    yield ("factored distance matches dense reconstruction", worst < 1e-9,
           f"200 queries, max gap {worst:.2e}")

    big = squared_euclidean(blob_dataset(4000, seed))
    h_assign = np.random.default_rng(seed).integers(0, 25, 4000)
    w = Lattice(5, 5).neighborhood(1.5)[:, h_assign]
    a = w / w.sum(axis=1, keepdims=True)
    fac = nystrom_fit_dissimilarity(big, 100, seed=seed)
    relational_distances(big.values, a)  # warm up caches before timing
    approx_relational_distances(fac, a)
    # five interleaved rounds, best-of each: robust against a shared CPU
    # stalling during any single round
    exact_times, approx_times = [], []
    for _ in range(5):
        t0 = time.process_time()
        relational_distances(big.values, a)
        exact_times.append(time.process_time() - t0)
        t0 = time.process_time()
        approx_relational_distances(fac, a)
        approx_times.append(time.process_time() - t0)
    speedup = float(min(exact_times) / min(approx_times))
    yield ("landmark speedup on N=4000, m=100, K=25", speedup >= 5.0,
           f"exact {min(exact_times) * 1e3:.1f} ms vs approx "
           f"{min(approx_times) * 1e3:.1f} ms ({speedup:.0f}x)")


SUITES = {
    "equivalence": suite_equivalence,
    "kh": suite_kh,
    "triangle": suite_triangle,
    "stmp-limit": suite_stmp_limit,
    "nystrom": suite_nystrom,
}


def run_suite(name: str) -> tuple[bool, list[str]]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    lines = []
    ok_all = True
    for check, ok, detail in SUITES[name]():
        ok_all &= ok
        lines.append(f"{'PASS' if ok else 'FAIL'}  {check}: {detail}")
    return ok_all, lines
