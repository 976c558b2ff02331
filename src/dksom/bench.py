"""Empirical complexity benchmark for the dissimilarity SOM variants.

Times, per data size N on identical synthetic fixtures, the batch relational
assignment/update phases, the median-SOM phases, and the naive online
relational epoch, then fits log-log slopes against N. The expected picture:
batch relational assignment and the median update scale ~N^2 (K fixed), and
one naive online epoch costs ~N times one batch iteration, so the
epoch/iteration ratio grows linearly in N.

The methodology is built for shared, throttled hardware whose speed drifts
by large factors on second-to-minute scales -- and drifts harder for the
large sizes, whose working set spills out of cache and competes for memory
bandwidth, than for the small cache-resident ones, so naive medians bend
the fitted slopes themselves:

Every reported number is an uncontended estimate: the fastest observation
across rounds spread over the whole run. Averaging estimators (means or
medians) were tried and bend the slopes, because contention flips on
sub-second scales and hits differently sized work differently, so no two
statistics agree on the "typical" machine state; minima of repeated
samples agree with clean-window timings to a few percent.

- clocks are process CPU time, so scheduler wall-clock noise drops out;
- each cheap-phase sample spends a CPU budget (scaled to the phase's
  pilot cost, so expensive phases still get several attempts per round)
  calling the phase repeatedly and keeps the fastest single call; the
  per-phase slopes are fitted through the fastest call observed for each
  size across all rounds;
- the online epoch is never run in full: each round times two adjacent
  epochs through the naive reference trainer (relsom's
  _train_online_reference, which recomputes A D at every presentation;
  the shipped trainers use the incremental O(K N) engine), one of a
  single presentation and one of M presentations, and the
  per-presentation cost is (min over rounds of the long burst minus min
  over rounds of the short burst) / (M - 1).
  The differencing cancels per-call setup and end-of-epoch bookkeeping
  at their uncontended values; M is sized so the signal dwarfs their
  residual jitter while the long burst stays short enough to catch a
  clean scheduling window at every size;
- the epoch/iteration ratio divides that epoch estimate (per-presentation
  cost times N) by the fastest observed assignment + update calls, so
  numerator and denominator are the same kind of estimate of the same
  kind of kernel and the ratio is consistent across sizes.
"""

from __future__ import annotations

import time

import numpy as np

from .dismat import VectorDataset, squared_euclidean
from .lattice import Lattice, Schedule
from .mediansom import median_update
from .relsom import _relational_row_dist, _train_online_reference, relational_distances

DEFAULT_SIZES = (500, 1000, 2000, 4000)
DEFAULT_K = 25
PHASES = (
    "relational-batch/assignment",
    "relational-batch/update",
    "median/assignment",
    "median/update",
    "relational-online/epoch",
)
_CHEAP_PHASES = PHASES[:4]
_TARGET_SAMPLE_S = 0.2  # baseline CPU budget per timed sample
_BUDGET_CALLS = 3.5  # budget at least this many pilot-cost calls per sample
_BUDGET_MAX_S = 2.0
_MIN_ROUNDS = 7
_ONLINE_SIGNAL_S = 0.1  # target CPU cost of the long burst's extra M-1 presentations
_ONLINE_PAIRS = 40
_MIN_PRESENTATIONS = 2  # smallest legal long burst (short burst is always 1)
_PILOT_PRESENTATIONS = 8
_SIGMA = 1.5  # neighborhood radius of every timed phase
N_BLOBS = 5  # Gaussian blobs in blob_dataset


def blob_dataset(n: int, seed: int = 0) -> VectorDataset:
    """Seeded 2-D Gaussian blobs, the shared fixture for all benchmark phases."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-10.0, 10.0, size=(N_BLOBS, 2))
    labels = rng.integers(0, N_BLOBS, size=n)
    points = centers[labels] + rng.standard_normal((n, 2))
    return VectorDataset.from_array(points)


def _cpu_seconds(fn) -> float:
    t0 = time.process_time_ns()
    fn()
    return (time.process_time_ns() - t0) / 1e9


def _best_call_seconds(fn, budget_s: float) -> float:
    """Fastest single call of fn observed while spending the CPU budget."""
    spent = 0.0
    best = np.inf
    while spent < budget_s:
        t = _cpu_seconds(fn)
        spent += t
        if t < best:
            best = t
    return best


def _square_lattice(k_units: int) -> Lattice:
    rows = int(round(np.sqrt(k_units)))
    if rows * rows != k_units:
        raise ValueError(f"benchmark lattice must be square, got K={k_units}")
    return Lattice(rows, rows)


def loglog_slope(sizes, seconds) -> float:
    return float(np.polyfit(np.log(np.asarray(sizes, float)), np.log(np.asarray(seconds, float)), 1)[0])


def _make_fixture(n: int, k_units: int, h: np.ndarray, seed: int) -> dict:
    d = squared_euclidean(blob_dataset(n, seed)).values
    rng = np.random.default_rng(seed + 1)
    # realistic dense coefficient rows: one batch update from a random assignment
    c0 = rng.integers(0, k_units, size=n)
    w = h[:, c0]
    a = w / w.sum(axis=1, keepdims=True)
    protos = rng.choice(n, size=k_units, replace=False)
    c_med = np.argmin(d[:, protos], axis=1)
    return {"d": d, "a": a, "c0": c0, "protos": protos, "c_med": c_med}


def _cheap_fns(fx: dict, h: np.ndarray) -> dict:
    d, a, c0 = fx["d"], fx["a"], fx["c0"]
    protos, c_med = fx["protos"], fx["c_med"]

    def rel_update():
        w = h[:, c0]
        return w / w.sum(axis=1, keepdims=True)

    return {
        "relational-batch/assignment": lambda: np.argmin(relational_distances(d, a), axis=1),
        "relational-batch/update": rel_update,
        "median/assignment": lambda: np.argmin(d[:, protos], axis=1),
        "median/update": lambda: median_update(d, c_med, h),
    }


def _slice_fn(fx: dict, lattice: Lattice, seed: int, m: int):
    """One epoch of m presentations of the naive reference trainer.

    The trainers ship the incremental O(K N) engine; the paper's cost claim
    (one online epoch ~ N batch iterations) is about the naive one, which
    recomputes A D at every presentation, so that is the code timed here.
    """
    d = fx["d"]
    schedule = Schedule(1, _SIGMA, _SIGMA, "fixed", seed=seed)

    def run():
        _train_online_reference(
            d.shape[0], _relational_row_dist(d), lambda a: relational_distances(d, a),
            lattice, schedule, presentations_per_epoch=m,
        )

    return run


def run_bench(
    sizes=DEFAULT_SIZES,
    k_units: int = DEFAULT_K,
    repeats: int = 7,
    seed: int = 0,
) -> dict:
    """Measure all phases over `sizes` and fit the slopes.

    `repeats` sets the number of sampling rounds (never fewer than
    _MIN_ROUNDS); each slope is fitted through the fastest observation
    per size across all rounds.
    """
    sizes = [int(s) for s in sizes]
    if sorted(sizes) != sizes or len(set(sizes)) != len(sizes):
        raise ValueError("sizes must be strictly ascending")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if len(sizes) < 2:
        raise ValueError("need at least two sizes to fit a slope")
    lattice = _square_lattice(k_units)
    h = lattice.neighborhood(_SIGMA)

    fixtures: dict[int, dict] = {}
    truncated = False
    for n in sizes:
        try:
            fixtures[n] = _make_fixture(n, k_units, h, seed)
        except MemoryError:
            truncated = True
            break
    sizes = [n for n in sizes if n in fixtures]
    if len(sizes) < 2:
        raise MemoryError("fewer than two sizes fit in memory; cannot fit a slope")
    cheap = {n: _cheap_fns(fixtures[n], h) for n in sizes}

    # pilot pass: warm every code path and size each phase's sampling budget
    # to its own cost (expensive phases get >1 attempt per round); min-of-2
    # so one contended call cannot shrink a budget
    budget: dict[tuple[str, int], float] = {}
    for n in sizes:
        for p in _CHEAP_PHASES:
            cheap[n][p]()
            t = min(_cpu_seconds(cheap[n][p]), _cpu_seconds(cheap[n][p]))
            budget[p, n] = min(_BUDGET_MAX_S, max(_TARGET_SAMPLE_S, _BUDGET_CALLS * t))
        _slice_fn(fixtures[n], lattice, seed, _PILOT_PRESENTATIONS)()

    n_rounds = max(_MIN_ROUNDS, repeats)
    n_passes = max(n_rounds, _ONLINE_PAIRS + 1)
    # (passes, sizes) tables: fastest single call per cheap phase (first
    # n_rounds passes), raw burst times for the online pairs (passes >= 1:
    # M is sized from the pass-0 assignment minima -- see below)
    best_round = {p: np.empty((n_rounds, len(sizes))) for p in _CHEAP_PHASES}
    short_round = np.full((n_passes, len(sizes)), np.inf)
    long_round = np.full((n_passes, len(sizes)), np.inf)
    slice_m: dict[int, int] = {}
    order_rng = np.random.default_rng(seed + 0x51AB)
    for rnd in range(n_passes):
        # visit sizes in a fresh order each pass so periodic interference
        # cannot keep hitting the same size
        for j in order_rng.permutation(len(sizes)):
            n = sizes[j]
            if rnd < n_rounds:
                for p in _CHEAP_PHASES:
                    best_round[p][rnd, j] = _best_call_seconds(cheap[n][p], budget[p, n])
            if rnd == 0:
                continue
            short = _slice_fn(fixtures[n], lattice, seed, 1)
            long = _slice_fn(fixtures[n], lattice, seed, slice_m[n])
            # alternate the pair order across passes so linear drift cancels
            if rnd % 2 == 0:
                short_round[rnd, j] = _cpu_seconds(short)
                long_round[rnd, j] = _cpu_seconds(long)
            else:
                long_round[rnd, j] = _cpu_seconds(long)
                short_round[rnd, j] = _cpu_seconds(short)
        if rnd == 0:
            # size the long burst so its extra M-1 presentations cost
            # ~_ONLINE_SIGNAL_S at every size: short, equal exposures keep
            # the fastest-burst estimates equally likely to catch a clean
            # window at every size (long bursts rarely run fully
            # uncontended, tilting the fitted ratio slope). One presentation
            # costs about one batch-assignment call (the same N^2 K matrix
            # product), and pass 0's best-of-many assignment call is a far
            # sturdier yardstick than a short pilot, which under a burst
            # shrank M 5x and drowned the difference signal in bookkeeping
            # noise. Contention often hits one size selectively, so each
            # size also considers the other sizes' measurements scaled by
            # N^2 and trusts the fastest estimate.
            p0 = best_round["relational-batch/assignment"][0]
            n_arr = np.asarray(sizes, dtype=float)
            for j, n in enumerate(sizes):
                per_pres = float(np.min(p0 * (n / n_arr) ** 2))
                slice_m[n] = max(
                    _MIN_PRESENTATIONS,
                    1 + int(round(_ONLINE_SIGNAL_S / max(per_pres, 1e-9))),
                )

    # fastest burst of each length across all passes, then the difference:
    # setup and end-of-epoch bookkeeping cancel at their uncontended values,
    # leaving M-1 presentations' worth of uncontended per-presentation cost
    m_arr = np.array([slice_m[n] for n in sizes], dtype=float)
    per_pres = (np.min(long_round, axis=0) - np.min(short_round, axis=0)) / (m_arr - 1.0)
    if np.any(per_pres <= 0.0):
        raise RuntimeError("no usable online measurement at some size (clock too coarse?)")
    epoch_seconds = per_pres * np.asarray(sizes, dtype=float)

    phase_seconds = {p: np.min(best_round[p], axis=0).tolist() for p in _CHEAP_PHASES}
    phase_seconds["relational-online/epoch"] = epoch_seconds.tolist()

    # numerator and denominator are both fastest-observed estimates of the
    # same dgemm-style kernels, so the ratio is consistent across sizes
    iteration_seconds = np.asarray(
        phase_seconds["relational-batch/assignment"]
    ) + np.asarray(phase_seconds["relational-batch/update"])
    ratios = epoch_seconds / iteration_seconds

    measurements = [
        {"algorithm": p.split("/")[0], "phase": p.split("/")[1], "n": n,
         "seconds": phase_seconds[p][j], "samples": n_rounds}
        for j, n in enumerate(sizes)
        for p in PHASES
    ]

    slopes = {
        "relational-batch/assignment": loglog_slope(sizes, phase_seconds["relational-batch/assignment"]),
        "median/update": loglog_slope(sizes, phase_seconds["median/update"]),
        "online-epoch-to-batch-iteration-ratio": loglog_slope(sizes, ratios),
    }
    return {
        "sizes": sizes,
        "k_units": k_units,
        "repeats": repeats,
        "seed": seed,
        "clock": "process_cpu_time",
        "truncated": truncated,
        "online_presentations_per_sample": {n: slice_m[n] for n in sizes},
        "measurements": measurements,
        "epoch_to_iteration_ratio": ratios.tolist(),
        "slopes": slopes,
    }


def format_bench(result: dict) -> str:
    lines = [f"benchmark: K={result['k_units']}, sizes={result['sizes']}"]
    if result.get("truncated"):
        lines.append("  (sizes truncated: largest fixtures did not fit in memory)")
    width = max(len(m["algorithm"] + "/" + m["phase"]) for m in result["measurements"])
    for m in result["measurements"]:
        name = f"{m['algorithm']}/{m['phase']}"
        lines.append(f"  {name:<{width}}  N={m['n']:<6d}  {m['seconds'] * 1e3:12.3f} ms")
    lines.append("ratios (online epoch / batch iteration): "
                 + ", ".join(f"{r:.1f}" for r in result["epoch_to_iteration_ratio"]))
    for name, slope in result["slopes"].items():
        lines.append(f"slope {name}: {slope:.3f}")
    return "\n".join(lines)
