#!/usr/bin/env python3
"""End-to-end benchmark of ``dksom train``, from input CSV to report.json.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {batch,online-anneal} \\
        --seed N --seconds S --trace {0,1}

A job is one ``dksom train`` call in a fresh child process (job.py); a pass
runs a workload's jobs one at a time; a run repeats passes while the next
one is predicted to end within S seconds (at least one pass). Inputs come
from --seed and are written before any timing starts. Every job's outputs
are checked (checks.py). With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it alternates plain and traced passes and reports
the per-layer metrics, medians over the traced passes, plus the tracing
overhead. The last line of standard output is the JSON result.

Per job, wall and CPU time are the fastest pass and set-up time and peak
RSS the median pass; the metrics sum them (peak RSS: max) over the jobs.
The fastest reading is kept, as the package's own bench.py does, because
noise on a shared host only ever slows a job down: on a 2-vCPU VM the same
job's time moved by 20% between minutes, CPU time with it.

Clocks: wall time is CLOCK_MONOTONIC from spawn to exit, CPU time is the
child's user + system time from os.wait4, peak RSS the child's ru_maxrss.
Byte counts are computed from array shapes and file sizes, not measured.
"""

from __future__ import annotations

import os

# Fixed before NumPy loads, here and in every job. With OpenBLAS's default
# of one thread per core, fresh processes often ran their first products
# about 30x slower; with one thread every process ran them steadily.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import check_job  # noqa: E402
from inputs import make_inputs  # noqa: E402
from spans import layer_seconds, now_ns  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
RUN_LIMIT_S = 170.0  # the whole run, generation and checks included, ends by then

SIZES = {
    "vectors": 3000,  # batch points
    "landmarks": 100,
    "online": 600,  # online-anneal matrices
    "online_epochs": 6,
    "probe": 200,  # landmark-online probe
    "probe_landmarks": 20,
}


@dataclass(frozen=True)
class Job:
    id: str
    algorithm: str
    input: str  # generated file name
    kind: str  # --input-kind
    grid: int  # square lattice side
    check: str  # output contract, see checks.check_job
    refs: tuple  # (array role, generated array name) pairs for the checks
    args: tuple = ()


def workload(name: str, s: dict) -> tuple[dict, list[Job]]:
    """(files to generate: name -> (kind, n, dim), jobs) of one workload."""
    if name == "batch":
        files = {"vectors.csv": ("vectors", s["vectors"], 2)}
        d = (("d", "vectors.csv:d"),)
        return files, [
            Job("relational-batch", "relational-batch", "vectors.csv", "vectors", 10, "relational", d),
            Job("median", "median", "vectors.csv", "vectors", 10, "median", d),
            Job("classic-batch", "classic-batch", "vectors.csv", "vectors", 10, "classic",
                (("x", "vectors.csv"),)),
            Job("relational-batch-landmarks", "relational-batch", "vectors.csv", "vectors", 10,
                "landmark", (), ("--nystrom-landmarks", str(s["landmarks"]))),
        ]
    if name == "online-anneal":
        files = {"l1.csv": ("l1", s["online"], 5), "rbf.csv": ("rbf", s["online"], 5),
                 "probe.csv": ("l1", s["probe"], 5)}
        epochs = ("--t-max", str(s["online_epochs"]))
        return files, [
            Job("relational-online", "relational-online", "l1.csv", "dissimilarity", 5,
                "relational", (("d", "l1.csv"),), epochs),
            Job("kernel-online", "kernel-online", "rbf.csv", "kernel", 5, "kernel",
                (("k", "rbf.csv"),), epochs),
            Job("stmp", "stmp", "l1.csv", "dissimilarity", 5, "stmp", ()),
            # exits 3 until train_online_approx passes presentations_per_epoch
            # through; kept small so that fixing it barely moves wall_s
            Job("relational-online-landmarks", "relational-online", "probe.csv", "dissimilarity", 5,
                "landmark", (), ("--t-max", "1", "--nystrom-landmarks", str(s["probe_landmarks"]))),
        ]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("batch", "online-anneal")


def environment(files: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    llc = None
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if llc is None or level > llc[0]:
            llc = (level, size)
    largest_n = max(n for _, n, _ in files.values())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREAD_ENV,
        "last_level_cache": f"L{llc[0]} {llc[1]}" if llc else "unknown",
        "largest_d_bytes_computed": 8 * largest_n * largest_n,
    }


def _reason(log: Path) -> str:
    lines = [ln for ln in log.read_text(errors="replace").splitlines() if ln.strip()]
    return lines[-1] if lines else "no output"


def run_job(job: Job, workdir: Path, seed: int, trace: bool, deadline_ns: int) -> dict:
    """Spawn one job and wait for it; returns its raw measurements."""
    outdir = workdir / job.id
    shutil.rmtree(outdir, ignore_errors=True)
    stamps = workdir / f"{job.id}.stamps.json"
    stamps.unlink(missing_ok=True)
    log = workdir / f"{job.id}.log"
    argv = [sys.executable, str(HERE / "job.py"), str(SRC), str(stamps),
            "trace" if trace else "plain", "--",
            "--algorithm", job.algorithm, "--input", str(workdir / job.input),
            "--input-kind", job.kind, "--out", str(outdir), "--seed", str(seed),
            "--rows", str(job.grid), "--cols", str(job.grid), *job.args]
    lock = threading.Lock()
    exited = False

    def kill():
        with lock:
            if not exited:
                proc.kill()

    with open(log, "w") as fh:
        start = now_ns()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        timer = threading.Timer(max(0.0, (deadline_ns - start) / 1e9), kill)
        timer.start()
        end = None
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)  # exited, not yet reaped
            end = now_ns()
        finally:
            timer.cancel()
            with lock:
                if end is None:  # interrupted: stop the child before reaping it
                    proc.kill()
                exited = True
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    out = {
        "exit": proc.returncode,
        "wall_s": (end - start) / 1e9,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "input_bytes": (workdir / job.input).stat().st_size,
    }
    try:
        marks = json.loads(stamps.read_text())
    except (OSError, ValueError):
        marks = {}
    out["setup_s"] = (marks.get("loaded_ns", end) - start) / 1e9
    if trace and marks:
        out["import_s"] = (marks["imported_ns"] - start) / 1e9
        out["load_rss_mb"] = marks.get("load_rss_kb", 0) / 1024.0
        out["layers"] = layer_seconds(marks["spans"])
        out["counts"] = report_counts(job, outdir) if proc.returncode == 0 else {}
    if proc.returncode != 0:
        killed = " (killed at the run's time limit)" if proc.returncode == -9 else ""
        out["errors"] = [f"exit {proc.returncode}{killed}: {_reason(log)}"]
    return out


def report_counts(job: Job, outdir: Path) -> dict:
    """Work counts the trainers record in report.json and trace.csv."""
    report = json.loads((outdir / "report.json").read_text())
    dense = "--nystrom-landmarks" not in job.args
    counts = {}
    if dense and job.algorithm in ("relational-batch", "kernel-batch"):
        counts["relsom.batch_iterations"] = report["iterations_executed"]
        counts["relsom.assign_s"] = report["phase_timing_ns"]["assignment"] / 1e9
        counts["relsom.update_s"] = report["phase_timing_ns"]["update"] / 1e9
    if dense and job.algorithm in ("relational-online", "kernel-online"):
        counts["relsom.presentations"] = report["iterations_executed"] * report["n"]
    if job.algorithm == "median":
        counts["mediansom.collisions"] = report["collisions_detected"]
    if job.algorithm == "stmp":
        inner = np.loadtxt(outdir / "trace.csv", delimiter=",", ndmin=2)[:, 1]
        counts["stmp.outer_steps"] = report["outer_steps"]
        counts["stmp.mean_field_calls"] = int(inner.sum())
        counts["stmp.cap_hits"] = int(np.count_nonzero(inner >= report["config"]["inner_max_iters"]))
    return counts


PER_LAYER = (
    ("cli.import_s", "s", "lower"), ("cli.write_s", "s", "lower"),
    ("dismat.load_s", "s", "lower"), ("dismat.load_rss_mb", "MiB", "lower"),
    ("dismat.input_mb", "MiB", "lower"), ("dismat.convert_s", "s", "lower"),
    ("relsom.batch_s", "s", "lower"), ("relsom.batch_iterations", "count", "lower"),
    ("relsom.assign_s", "s", "lower"), ("relsom.update_s", "s", "lower"),
    ("relsom.distance_s", "s", "lower"), ("relsom.distance_calls", "count", "lower"),
    ("relsom.distance_gflop", "GFLOP", "lower"), ("relsom.distance_gflops", "GFLOP/s", "higher"),
    ("relsom.online_s", "s", "lower"), ("relsom.presentations", "count", "lower"),
    ("relsom.present_us", "us", "lower"),
    ("mediansom.train_s", "s", "lower"), ("mediansom.update_s", "s", "lower"),
    ("mediansom.collisions", "count", "lower"),
    ("stmp.train_s", "s", "lower"), ("stmp.critical_beta_s", "s", "lower"),
    ("stmp.mean_field_s", "s", "lower"), ("stmp.mean_field_calls", "count", "lower"),
    ("stmp.outer_steps", "count", "lower"), ("stmp.cap_hit_ratio", "ratio", "lower"),
    ("nystrom.fit_s", "s", "lower"), ("nystrom.train_s", "s", "lower"),
    ("nystrom.error_s", "s", "lower"),
    ("vectorsom.train_s", "s", "lower"),
    ("quality.criterion_s", "s", "lower"), ("quality.umatrix_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"), ("fail_ratio", "ratio", "lower"),
)
END_TO_END = (
    ("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
)


def pass_layers(results: list[dict]) -> dict:
    """Per-layer values of one traced pass: sums over its jobs, then ratios."""
    totals = dict.fromkeys([key for key, _, _ in PER_LAYER] + ["stmp.cap_hits"], 0)
    for r in results:
        totals["dismat.input_mb"] += r["input_bytes"] / 2**20
        if "layers" not in r:
            continue
        for key, value in (*r["layers"].items(), *r["counts"].items()):
            totals[key] += value
        totals["cli.import_s"] += r["import_s"]
        totals["dismat.load_rss_mb"] = max(totals["dismat.load_rss_mb"], r["load_rss_mb"])
    dist_s = totals["relsom.distance_s"]
    totals["relsom.distance_gflops"] = totals["relsom.distance_gflop"] / dist_s if dist_s else 0.0
    shown = totals["relsom.presentations"]
    totals["relsom.present_us"] = 1e6 * totals["relsom.online_s"] / shown if shown else 0.0
    steps = totals["stmp.outer_steps"]
    totals["stmp.cap_hit_ratio"] = totals.pop("stmp.cap_hits") / steps if steps else 0.0
    return totals


def per_job(passes: list[list[dict]], key: str, stat) -> list[float]:
    """For each job of the list, stat (min or median) of key over the passes."""
    return [stat([p[j][key] for p in passes]) for j in range(len(passes[0]))]


def measure(name: str, seed: int, seconds: float, trace: bool, sizes: dict = SIZES) -> dict:
    files, jobs = workload(name, sizes)
    run_start = now_ns()
    deadline = run_start + int(RUN_LIMIT_S * 1e9)
    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        arrays, records = make_inputs(seed, files, workdir)
        env = environment(files)
        # fill the page cache and the bytecode cache before any timing
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                        "import dksom.cli", str(SRC)], check=True)
        modes = (False, True) if trace else (False,)
        passes = {m: [] for m in modes}
        failures = []
        check_failures = 0
        timed_start = now_ns()
        while True:
            pass_start = now_ns()
            for mode in modes:
                results = []
                for job in jobs:
                    r = run_job(job, workdir, seed, mode, deadline)
                    if "errors" not in r:
                        refs = {role: arrays[src] for role, src in job.refs}
                        k = job.grid * job.grid
                        r["errors"] = check_job(job.check, workdir / job.id, refs,
                                                files[job.input][1], k)
                        check_failures += bool(r["errors"])
                    if r["errors"]:
                        failures.append((job.id, r["errors"]))
                    results.append(r)
                passes[mode].append(results)
            # stop before a pass that would end past the measuring time
            now = now_ns()
            if 2 * now - pass_start - timed_start > seconds * 1e9 or now + (now - pass_start) > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p) for ps in passes.values() for p in ps)
    failed = sum(bool(r["errors"]) for ps in passes.values() for p in ps for r in p)
    plain = passes[False]
    jobs_stat = {"wall_s": per_job(plain, "wall_s", min), "cpu_s": per_job(plain, "cpu_s", min),
                 "setup_s": per_job(plain, "setup_s", statistics.median),
                 "rss_mb": per_job(plain, "rss_mb", statistics.median)}
    values = {
        "wall_s": sum(jobs_stat["wall_s"]),
        "cpu_s": sum(jobs_stat["cpu_s"]),
        "setup_s": sum(jobs_stat["setup_s"]),
        "peak_rss_mb": max(jobs_stat["rss_mb"]),
    }
    if trace:
        traced = [pass_layers(p) for p in passes[True]]
        layers = {key: statistics.median(t[key] for t in traced) for key in traced[0]}
        layers["trace.overhead_s"] = sum(per_job(passes[True], "wall_s", min)) - values["wall_s"]
        layers["fail_ratio"] = failed / attempted
        metrics = {key: {"value": layers[key], "unit": unit} for key, unit, _ in PER_LAYER}
    else:
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
    return {
        "workload": name, "seed": seed, "jobs": [j.id for j in jobs],
        "passes": len(plain), "inputs": records, "environment": env,
        "failures": failures, "per_job": list(zip(*jobs_stat.values())),
        "end_to_end": values,
        "result": {"correct": check_failures == 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
    }


def print_report(out: dict, trace: bool) -> None:
    kinds = "plain and as many traced " if trace else ""
    print(f"workload {out['workload']}, seed {out['seed']}: {out['passes']} {kinds}pass(es) of "
          f"{len(out['jobs'])} jobs ({', '.join(out['jobs'])}), one job at a time")
    print("environment: " + json.dumps(out["environment"]))
    for rec in out["inputs"]:
        print("input: " + json.dumps(rec))
    for job_id, errors in out["failures"]:
        print(f"FAILED {job_id}: {'; '.join(errors)}")
    res = out["result"]
    print(f"checks: {res['attempted']} jobs attempted, {res['failed']} failed "
          f"(fail_ratio {res['failed'] / res['attempted']:.4f}), "
          f"outputs of finished jobs correct: {res['correct']}")
    print("per job (plain passes; fastest wall_s and cpu_s, median setup_s and peak_rss_mb):")
    for job_id, row in zip(out["jobs"], out["per_job"]):
        print(f"  {job_id:<28} " + " ".join(f"{v:10.4f}" for v in row))
    print("end to end (plain passes; per-job values summed, peak RSS maxed over jobs):")
    for key, unit in END_TO_END:
        print(f"  {key:<26} {out['end_to_end'][key]:>14.6f} {unit}")
    if trace:
        print("per layer (traced passes; self time, median over passes):")
        for key, unit, _ in PER_LAYER:
            print(f"  {key:<26} {out['result']['metrics'][key]['value']:>14.6f} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dksom" / "cli.py").is_file():
        print(f"error: no dksom sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(out, bool(args.trace))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
