"""One seed of one workload, end to end, in a fresh interpreter.

Calls the same public API that ``evops run`` calls for each seed:
``load_dataset`` -> ``run_evolution`` -> ``build_report`` -> ``export_report``.
run.py starts this script once per run and reads the JSON it writes to
``--result``. Set-up is timed from ``--spawned-at``, the parent's
``time.monotonic()`` just before it started this process (the clock is
system-wide). The correctness checks run after the timed region.

    python3 perfbench/seed_run.py --workload tiny-cohort --seed 1 \
        --dataset DIR --out DIR --result FILE --spawned-at T [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ORACLE_MEMBERS = 3  # front members re-scored by the straight-line oracle
ORACLE_TOLERANCE = 1e-9


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def check_front(front, dataset, config) -> list[str]:
    """Failures found in the final rank-0 front; empty when it is correct.

    Every genome keeps a patch in every slide, no member dominates another,
    and up to ORACLE_MEMBERS members re-scored by the straight-line oracle
    in tests/oracles.py match their search objectives within 1e-9.
    """
    from oracles import straight_line_fitness

    from evops.dataset import build_layout

    layout = build_layout(dataset.train)
    failures = []
    for i, ind in enumerate(front):
        empty = [s for s, off, n in layout.segments if not ind.genome[off : off + n].any()]
        if empty:
            failures.append(f"front member {i} selects nothing in train slide {empty[0]}")
    pairs = [ind.fitness.astuple() for ind in front]
    for i, a in enumerate(pairs):
        for j, b in enumerate(pairs):
            if a[0] <= b[0] and a[1] <= b[1] and a != b:
                failures.append(f"front member {i} {a} dominates member {j} {b}")
    picks = sorted({0, len(front) // 2, len(front) - 1})[:ORACLE_MEMBERS]
    for i in picks:
        expected = straight_line_fitness(
            front[i].genome, layout, dataset.train, dataset.validation,
            config.k_neighbors, dataset.classes,
        )
        diff = max(abs(e - g) for e, g in zip(expected, pairs[i]))
        if not diff <= ORACLE_TOLERANCE:
            failures.append(f"front member {i}: objectives {pairs[i]} != oracle {expected}")
    return failures


def main(argv=None) -> int:
    args = parse_args(argv)
    import workloads
    from evops import dataset as dataset_mod
    from evops import evolution, pareto_report

    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)

    dataset = dataset_mod.load_dataset(args.dataset)
    dataset.require_runnable()
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result) + "\n", encoding="utf-8")
        return 0

    workload = workloads.WORKLOADS[args.workload]
    config = workload.evolution_config(args.seed)
    ticks = []
    t0 = time.monotonic()
    population, traces = evolution.run_evolution(
        dataset, config, workers=workloads.WORKERS,
        on_generation=lambda trace: ticks.append(time.monotonic()),
    )
    t1 = time.monotonic()
    report = pareto_report.build_report(dataset, config, population, traces)
    pareto_report.export_report(report, args.out)
    t2 = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Everything below is outside the timed region.
    import stats

    sys.path.insert(0, str(Path.cwd() / "tests"))
    front = pareto_report.extract_front(population)
    out = Path(args.out)
    result.update(
        search_s=t1 - t0,
        report_s=t2 - t1,
        gen_s=[b - a for a, b in zip(ticks, ticks[1:])],
        peak_rss_mb=peak_rss_mb,
        hypervolume=stats.hypervolume([ind.fitness.astuple() for ind in front]),
        best_val_test_f1=report.front[report.best_val].test_f1,
        digests={name: sha256(out / name) for name in ("pareto_front.csv", "trace.csv")},
        failures=check_front(front, dataset, config),
        shape={
            "train_slides": len(dataset.train),
            "patches": report.total_patches,
            "dim": dataset.dim,
            "validation_queries": len(dataset.validation),
        },
    )
    if recorder is not None:
        manifest = Path(args.dataset) / "manifest.json"
        result["layers"] = tracing.layer_metrics(
            recorder.spans, config.generations, dataset.dim,
            os.path.getsize(manifest), dir_bytes(out),
        )
        tracing.write_spans(recorder.spans, out.parent / f"{out.name}.spans.csv")
    Path(args.result).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
