"""evops benchmark: the time to one seed's Pareto front, on three synthetic workloads.

Run from the root of an evops checkout:

    python3 perfbench/run.py --workload tiny-cohort --seed 1 --seconds 35 --trace 0

``--workload all`` runs every workload in turn, each printing its own block.

The workload's cohorts are generated from ``--seed`` with ``evops.synthgen``
and written under ``perfbench/_work/``. Then, closed loop (one run at a
time, from this one process), seed_run.py runs one seed end to end in a
fresh interpreter, in rounds of one run per cohort, until ``--seconds``
have passed and at least the workload's ``min_rounds`` rounds are done.
BLAS and OpenMP threads are pinned to nproc - workers (at least 1), so the
run never asks for more compute threads than there are cores.

``--trace 0`` reports the end-to-end metrics: for each cohort the median
over its runs, then the mean over the cohorts. ``--trace 1`` alternates
untraced and traced runs on the first cohort and reports the per-layer
metrics of the traced ones (medians), plus the tracing overhead between the
two.

Every run is checked after its timed region (coverage, non-dominance, the
straight-line oracle), and every run of the same cohort must write the same
pareto_front.csv and trace.csv, here and in any earlier benchmark run of the
same code (recorded in perfbench/_work/outcomes.json). The last line of
standard output is one JSON object; the exit code is 1 if any check failed,
2 if the checkout has no evops sources.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
import tracing

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150  # one run; the whole benchmark must end within 180 s
SETUP_SAMPLES = 9  # set-ups timed per benchmark run, topped up by set-up-only runs

END_TO_END_UNITS = {
    "setup_s": "s",
    "search_s": "s",
    "gen_ms_p50": "ms",
    "gen_ms_tail": "ms",
    "evals_per_s": "1/s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
    "final_hypervolume": "area",
}
# Printed with the end-to-end metrics but not in the JSON, because no bound
# the JSON allows would hold them across seeds: report_s grows with the
# front's size and is a few milliseconds of file writes on tiny-cohort, and
# best_val_test_f1 rests on 6 test slides there. failed_runs is normally 0;
# the JSON carries it as failed/attempted.
REPORTED_ONLY_UNITS = {"report_s": "s", "best_val_test_f1": "score", "failed_runs": "share"}

LAYER_UNITS = {
    "dataset.load_s": "s",
    "dataset.bytes_read": "B",
    "dataset.mb_per_s": "MB/s",
    "evolution.variation.self_s": "s",
    "evolution.variation.calls": "count",
    "evolution.variation.ms_per_gen": "ms",
    "evolution.ranking.self_s": "s",
    "evolution.ranking.calls": "count",
    "evolution.ranking.ms_per_gen": "ms",
    "fitness.scored": "count",
    "fitness.computed": "count",
    "fitness.cache_hit_ratio": "ratio",
    "fitness.aggregation.self_s": "s",
    "fitness.aggregation.calls": "count",
    "fitness.aggregation.rows_gathered": "count",
    "fitness.aggregation.bytes_moved": "B",
    "fitness.aggregation.gb_per_s": "GB/s",
    "fitness.knn.self_s": "s",
    "fitness.knn.queries": "count",
    "fitness.knn.us_per_query": "us",
    "fitness.knn.flops": "flop",
    "fitness.scoring.self_s": "s",
    "fitness.scoring.calls": "count",
    "pareto_report.evaluate_front_s": "s",
    "pareto_report.baseline_s": "s",
    "pareto_report.export_s": "s",
    "pareto_report.bytes_written": "B",
    "trace.overhead_pct": "%",
}
COMPUTED = ("fitness.aggregation.bytes_moved", "fitness.aggregation.gb_per_s",
            "fitness.knn.flops")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads(workers: int) -> int:
    """BLAS/OpenMP threads such that they and the workers fit in nproc."""
    return max(1, nproc() - workers)


def git_revision(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, workers: int, shapes: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(workers),
        "workers": workers,
        "nproc": nproc(),
        "git_revision": git_revision(root),
        "cohorts": shapes,
    }


class Runner:
    """Starts seed_run.py for one workload and cohort, one process at a time."""

    def __init__(self, root: Path, work: Path, workload, seed: int, dataset: Path,
                 threads: int):
        self.root = root
        self.work = work
        self.workload = workload
        self.seed = seed
        self.dataset = dataset
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            OPENBLAS_NUM_THREADS=str(threads),
            OMP_NUM_THREADS=str(threads),
            MKL_NUM_THREADS=str(threads),
        )
        self.count = 0

    def run(self, trace=False, setup_only=False) -> dict:
        """One run; returns its result, with 'failures' listing what went wrong."""
        self.count += 1
        out = self.work / f"run_{self.count:03d}"
        result_path = self.work / f"run_{self.count:03d}.json"
        cmd = [
            sys.executable, str(HERE / "seed_run.py"),
            "--workload", self.workload.name, "--seed", str(self.seed),
            "--dataset", str(self.dataset), "--out", str(out),
            "--result", str(result_path),
        ]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + ["--spawned-at", repr(spawned_at)], cwd=self.root, env=self.env,
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            failure = f"run {self.count} took over {CHILD_TIMEOUT_S} s"
        else:
            if proc.returncode == 0 and result_path.is_file():
                result = json.loads(result_path.read_text(encoding="utf-8"))
                result.setdefault("failures", [])
                return dict(result, traced=trace, setup_only=setup_only, cohort=self.seed)
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            failure = f"run {self.count} exited {proc.returncode}: {tail[0]}"
        return {"failures": [failure], "traced": trace, "setup_only": setup_only,
                "cohort": self.seed}


def closed_loop(seconds, min_rounds, round_fn) -> list[dict]:
    """Repeat ``round_fn`` until ``seconds`` pass and ``min_rounds`` are done.

    A round is not started once ``min_rounds`` are done if the median round
    so far would end past ``seconds``.
    """
    results = []
    durations = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(durations) >= min_rounds and (
            elapsed + statistics.median(durations) > seconds
        ):
            break
        if elapsed > CHILD_TIMEOUT_S:
            break
        t = time.monotonic()
        results.extend(round_fn())
        durations.append(time.monotonic() - t)
    return results


def flag_outliers(runs, key, what) -> None:
    """Add a failure to each run whose ``key`` differs from the most common one."""
    keys = [key(r) for r in runs]
    usual = max(keys, key=keys.count)
    for r, k in zip(runs, keys):
        if k != usual:
            r["failures"].append(f"{what} differs from the other runs of this input")


def outcome(r) -> dict:
    """What every run of one input must reproduce exactly."""
    return {key: r[key] for key in ("digests", "hypervolume", "best_val_test_f1")}


def code_digest(root: Path) -> str:
    """sha256 over the evops and benchmark sources, naming the code behind an outcome."""
    h = hashlib.sha256()
    for path in sorted([*(root / "src" / "evops").rglob("*.py"), *HERE.glob("*.py")]):
        name = path.relative_to(path.parent.parent).as_posix()
        h.update(name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def flag_against_earlier(store: Path, key: str, runs) -> None:
    """Compare outcomes with the one an earlier benchmark run recorded for ``key``.

    ``key`` names the code, workload and cohort seed, so a difference means
    the same code gave another result for the same input.
    """
    try:
        known = json.loads(store.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        known = {}
    for r in runs:
        if known.setdefault(key, outcome(r)) != outcome(r):
            r["failures"].append("outcome differs from an earlier run of this code and input")
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def layer_counts(r):
    return tuple(r["layers"][name] for name in tracing.COUNT_METRICS)


def cohort_mean(by_cohort, value) -> float:
    """Mean over the cohorts of the median of ``value(run)`` over each one's runs."""
    return statistics.fmean(statistics.median(value(r) for r in runs) for runs in by_cohort)


def end_to_end(by_cohort, setups, workload) -> tuple[dict, dict]:
    """End-to-end metrics and the reported-only extras; ``by_cohort`` lists runs per cohort.

    gen_ms_p50 is a mean over cohorts like the rest; gen_ms_tail pools the
    generations of every cohort, so that its percentile has samples beyond it.
    """
    gens = [g for runs in by_cohort for r in runs for g in r["gen_s"]]
    pct = stats.tail_percentile(workload.min_rounds * workload.cohorts * workload.generations)
    search = cohort_mean(by_cohort, lambda r: r["search_s"])
    evaluations = workload.evolution_config(0).population_size * (workload.generations + 1)
    metrics = {
        "setup_s": statistics.median(setups),
        "search_s": search,
        "gen_ms_p50": 1000.0 * statistics.fmean(
            stats.percentile([g for r in runs for g in r["gen_s"]], 50) for runs in by_cohort
        ),
        "gen_ms_tail": 1000.0 * stats.percentile(gens, pct),
        "evals_per_s": evaluations / search,
        "run_s": cohort_mean(by_cohort, lambda r: r["setup_s"] + r["search_s"] + r["report_s"]),
        "peak_rss_mb": cohort_mean(by_cohort, lambda r: r["peak_rss_mb"]),
        "final_hypervolume": cohort_mean(by_cohort, lambda r: r["hypervolume"]),
    }
    extras = {
        "report_s": cohort_mean(by_cohort, lambda r: r["report_s"]),
        "best_val_test_f1": cohort_mean(by_cohort, lambda r: r["best_val_test_f1"]),
        "gen_ms_tail_percentile": pct,
        "generations_sampled": len(gens),
        "setups_sampled": len(setups),
    }
    return metrics, extras


def trace_metrics(by_cohort) -> dict:
    """Per-layer metrics of the traced runs, and the overhead against untraced ones.

    Each is the mean over the cohorts of the median over a cohort's traced
    runs (counts repeat exactly within a cohort).
    """
    traced = [[r for r in runs if r["traced"]] for runs in by_cohort]
    untraced = [[r for r in runs if not r["traced"]] for runs in by_cohort]
    metrics = {
        name: cohort_mean(traced, lambda r: r["layers"][name])
        for name in traced[0][0]["layers"]
    }

    def run_s(r):
        return r["setup_s"] + r["search_s"] + r["report_s"]

    base = cohort_mean(untraced, run_s)
    metrics["trace.overhead_pct"] = 100.0 * (cohort_mean(traced, run_s) - base) / base
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "evops" / "__init__.py").is_file() or not (
        root / "tests" / "oracles.py"
    ).is_file():
        print("error: run from the root of an evops checkout "
              "(src/evops/ and tests/oracles.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import evops
    import workloads

    if not Path(evops.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"error: evops imported from {evops.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [
            main(["--workload", name, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)])
            for name in workloads.WORKLOADS
        ]
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload '{args.workload}'; "
              f"choose from {', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    work = HERE / "_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    # A traced run traces the first cohort only: per-layer metrics have no
    # bound to hold, and one cohort keeps a traced run short.
    cohort_seeds = workload.cohort_seeds(args.seed)[: 1 if args.trace else None]
    runners = []
    for cohort_seed in cohort_seeds:
        cohort_dir = work / f"cohort_{cohort_seed}"
        cohort_dir.mkdir(parents=True)
        workloads.write_cohort(workload, cohort_seed, cohort_dir / "dataset")
        runners.append(Runner(root, cohort_dir, workload, cohort_seed, cohort_dir / "dataset",
                              blas_threads(workloads.WORKERS)))

    if args.trace:
        runs = closed_loop(args.seconds, 1, lambda: [
            r for runner in runners for r in (runner.run(), runner.run(trace=True))
        ])
    else:
        runs = closed_loop(args.seconds, workload.min_rounds,
                           lambda: [runner.run() for runner in runners])
    code = code_digest(root)
    completed = {}
    for runner in runners:
        mine = completed[runner.seed] = [
            r for r in runs if r["cohort"] == runner.seed and "digests" in r
        ]
        if mine:
            flag_outliers(mine, lambda r: json.dumps(outcome(r), sort_keys=True),
                          "output digest, hypervolume or test F1")
            flag_against_earlier(HERE / "_work" / "outcomes.json",
                                 f"{code} {workload.name} {runner.seed}",
                                 [r for r in mine if not r["failures"]])
        traced = [r for r in mine if r["traced"]]
        if traced:
            flag_outliers(traced, layer_counts, "a per-layer count")
    good = [r for r in runs if not r["failures"]]
    by_cohort = [[r for r in good if r["cohort"] == runner.seed] for runner in runners]

    metrics = {}
    lines = []
    if args.trace and all(
        any(r["traced"] for r in rs) and any(not r["traced"] for r in rs) for rs in by_cohort
    ):
        metrics = trace_metrics(by_cohort)
        for name, value in metrics.items():
            label = "  (computed, not measured)" if name in COMPUTED else ""
            lines.append(f"  {name:36s} {value:.6g} {LAYER_UNITS[name]}{label}")
    elif not args.trace and all(by_cohort):
        setups = [r["setup_s"] for r in good]
        spare = itertools.cycle(runners)
        while len(setups) < SETUP_SAMPLES:
            runs.append(next(spare).run(setup_only=True))
            if runs[-1]["failures"]:
                break
            setups.append(runs[-1]["setup_s"])
        metrics, extras = end_to_end(by_cohort, setups, workload)
        for name, value in metrics.items():
            note = ""
            if name == "gen_ms_tail":
                note = (f"  (p{extras['gen_ms_tail_percentile']} of "
                        f"{extras['generations_sampled']} generations)")
            elif name == "setup_s":
                note = f"  (median of {extras['setups_sampled']} set-ups)"
            lines.append(f"  {name:20s} {value:.6g} {END_TO_END_UNITS[name]}{note}")
        for name in ("report_s", "best_val_test_f1"):
            lines.append(f"  {name:20s} {extras[name]:.6g} {REPORTED_ONLY_UNITS[name]}"
                         "  (not bounded)")
    failures = [f for r in runs for f in r["failures"]]
    failed = sum(1 for r in runs if r["failures"])
    if not metrics:
        failures.append("too few runs completed to report metrics")
    lines.append(f"  {'failed_runs':20s} {failed / len(runs):.6g} "
                 f"{REPORTED_ONLY_UNITS['failed_runs']}  ({failed} of {len(runs)} runs)")

    seed_runs = sum(1 for r in runs if not r["setup_only"])
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: {len(runners)} "
          f"cohorts {[runner.seed for runner in runners]}, {seed_runs} seed runs, "
          f"{len(runs) - seed_runs} set-up runs, {failed} failed")
    for line in lines:
        print(line)
    shapes = {seed: rs[0]["shape"] for seed, rs in completed.items() if rs}
    print("env " + json.dumps(environment(root, workloads.WORKERS, shapes), sort_keys=True))
    digests = {seed: rs[0]["digests"] for seed, rs in completed.items() if rs}
    print("digests " + json.dumps(digests, sort_keys=True))
    for failure in dict.fromkeys(failures):
        print(f"FAILED ({failures.count(failure)}x): {failure}")
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": not failures,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
