"""Final-front extraction, held-out scoring, multi-seed aggregation, export.

After the generational loop finishes, the rank-0 solutions are re-scored on
the validation and test splits, the best-by-validation and best-by-test
solutions are identified, and everything is written out as CSV/JSON for
downstream tooling (no plotting here). The baseline is the all-patches
genome's ``FrontSolution``: one scorer scores it and the front members, and
one writer writes every solution's confusion CSVs.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .dataset import GenomeLayout, SplitDataset, write_json
from .evolution import EvolutionConfig, GenerationTrace, fast_non_dominated_sort
from .fitness import ConfusionMatrix, FitnessEvaluator, segment_popcounts

CSV_FLOAT_FMT = "%.6f"


class MixedDatasetError(Exception):
    """Run reports being aggregated disagree on dataset identity."""


@dataclass
class FrontSolution:
    """A front member, or the all-patches baseline, scored on both held-out splits."""

    genome: np.ndarray
    patch_count: int
    f1_fraction: float
    validation_f1: float
    test_f1: float
    validation_confusion: ConfusionMatrix
    test_confusion: ConfusionMatrix
    per_slide_counts: dict[str, int]


@dataclass
class RunReport:
    """Everything one seeded run produced, ready for export/aggregation."""

    config: EvolutionConfig
    dataset_hash: str
    baseline: FrontSolution
    front: list[FrontSolution]
    best_val: int
    best_test: int
    traces: list[GenerationTrace]
    reduction_best_val: float
    reduction_best_test: float
    total_patches: int
    per_class_patches_per_slide: dict[str, float]
    layout: GenomeLayout
    train_slide_ids: list[str]


@dataclass
class AggregateReport:
    """Mean/std over seeded runs of the headline per-run numbers."""

    runs: int
    seeds: list[int]
    dataset_hash: str
    baseline: dict
    best_val: dict
    best_test: dict
    per_class_patches_per_slide: dict[str, float]


def extract_front(population) -> list:
    """Rank-0 individuals, deduplicated by fitness pair, by ascending fraction.

    Rank 0 is under ``evolution.dominates``: when any individual is
    feasible, it holds feasible ones only. Duplicate (f1_fraction,
    f2_error) pairs keep the lowest-index representative; the survivors
    form a strict trade-off curve.
    """
    fronts = fast_non_dominated_sort(population)
    seen: set[tuple[float, float]] = set()
    unique = []
    for i in fronts[0]:
        key = population[i].fitness.astuple()
        if key not in seen:
            seen.add(key)
            unique.append(population[i])
    unique.sort(key=lambda ind: ind.fitness.f1_fraction)
    return unique


def _score_genomes(genomes, dataset: SplitDataset, k) -> list[FrontSolution]:
    """Score each genome on the validation and test splits.

    One unconstrained evaluator per split scores the stacked genomes in one
    ``evaluate_full`` call; its F1 is 1 - f2_error. Both take the dataset's
    one layout, ``dataset.layout``, which owns the training slides and
    their matrix; the per-slide counts are keyed by its slides' ids.
    """
    dataset.require_runnable()
    layout = dataset.layout
    stacked = np.stack(genomes)
    val_scores, test_scores = [
        FitnessEvaluator(layout, split, k, classes=dataset.classes).evaluate_full(stacked)
        for split in (dataset.validation, dataset.test)
    ]
    slide_ids = [rec.slide_id for rec in layout.slides]
    counts = segment_popcounts(stacked, layout)
    return [
        FrontSolution(
            genome=genome,
            patch_count=int(row.sum()),
            f1_fraction=val_pair.f1_fraction,
            validation_f1=1.0 - val_pair.f2_error,
            test_f1=1.0 - test_pair.f2_error,
            validation_confusion=val_cm,
            test_confusion=test_cm,
            per_slide_counts=dict(zip(slide_ids, row.tolist())),
        )
        for genome, row, (val_pair, val_cm), (test_pair, test_cm)
        in zip(genomes, counts, val_scores, test_scores)
    ]


def evaluate_front(front, dataset: SplitDataset, k) -> list[FrontSolution]:
    """Score every front member on the validation and test splits."""
    if not front:
        raise ValueError("front is empty")
    return _score_genomes([np.asarray(ind.genome, dtype=bool) for ind in front], dataset, k)


def compute_baseline(dataset: SplitDataset, k) -> FrontSolution:
    """The all-ones genome (every training patch retained), scored on its own.

    It is not batched with a front, so its scores do not depend on the run.
    """
    dataset.require_runnable()  # an empty split fails with this message, not the layout's
    [baseline] = _score_genomes([np.ones(dataset.layout.total_patches, dtype=bool)], dataset, k)
    return baseline


def baseline_scores(baseline: FrontSolution) -> dict:
    """The baseline's patch count and F1s, as every summary writes them."""
    return {"patch_count": baseline.patch_count, "validation_f1": baseline.validation_f1,
            "test_f1": baseline.test_f1}


def _argbest(front, key) -> int:
    """Index maximizing key; ties prefer smaller patch_count, then lower index."""
    return max(range(len(front)), key=lambda i: (key(front[i]), -front[i].patch_count, -i))


def build_report(dataset, config, population, traces, baseline=None) -> RunReport:
    """Assemble a RunReport from a finished run's population and traces.

    ``baseline`` is ``compute_baseline(dataset, config.k_neighbors)``, which
    depends only on (dataset, k); a multi-seed run scores it once and passes
    it in. When it is ``None`` it is scored here.
    """
    layout = dataset.layout
    front = evaluate_front(extract_front(population), dataset, config.k_neighbors)
    if baseline is None:
        baseline = compute_baseline(dataset, config.k_neighbors)
    best_val = _argbest(front, lambda s: s.validation_f1)
    best_test = _argbest(front, lambda s: s.test_f1)
    total = layout.total_patches

    label_by_slide = {rec.slide_id: rec.label for rec in layout.slides}
    per_class: dict[str, list[int]] = {}
    for slide_id, count in front[best_val].per_slide_counts.items():
        per_class.setdefault(label_by_slide[slide_id], []).append(count)
    per_class_mean = {
        label: float(np.mean(counts)) for label, counts in sorted(per_class.items())
    }

    return RunReport(
        config=config,
        dataset_hash=dataset.content_hash,
        baseline=baseline,
        front=front,
        best_val=best_val,
        best_test=best_test,
        traces=list(traces),
        reduction_best_val=100.0 * (1.0 - front[best_val].patch_count / total),
        reduction_best_test=100.0 * (1.0 - front[best_test].patch_count / total),
        total_patches=total,
        per_class_patches_per_slide=per_class_mean,
        layout=layout,
        train_slide_ids=[rec.slide_id for rec in layout.slides],
    )


def _mean_std(values) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    return {"mean": float(arr.mean()), "std": float(arr.std())}


def aggregate_runs(reports) -> AggregateReport:
    """Mean/std of best-val and best-test scores and sizes across runs.

    The runs must share a dataset (MixedDatasetError otherwise) and every
    config field but ``seed`` (ValueError otherwise).
    """
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to aggregate")
    first = reports[0]
    for rep in reports[1:]:
        if rep.dataset_hash != first.dataset_hash:
            raise MixedDatasetError(
                "reports span different datasets: "
                f"{rep.dataset_hash[:12]} != {first.dataset_hash[:12]}"
            )
    for rep in reports[1:]:
        for field in fields(EvolutionConfig):
            value, expected = getattr(rep.config, field.name), getattr(first.config, field.name)
            if field.name != "seed" and value != expected:
                raise ValueError(
                    f"reports differ in config field {field.name}: {value!r} != {expected!r}"
                )

    def stats_at(index_of):
        sols = [rep.front[index_of(rep)] for rep in reports]
        total = first.total_patches
        return {
            "validation_f1": _mean_std([s.validation_f1 for s in sols]),
            "test_f1": _mean_std([s.test_f1 for s in sols]),
            "patch_count": _mean_std([s.patch_count for s in sols]),
            "reduction_percent": _mean_std(
                [100.0 * (1.0 - s.patch_count / total) for s in sols]
            ),
        }

    classes = sorted({c for rep in reports for c in rep.per_class_patches_per_slide})
    per_class = {
        label: float(
            np.mean([rep.per_class_patches_per_slide[label] for rep in reports])
        )
        for label in classes
    }
    return AggregateReport(
        runs=len(reports),
        seeds=[rep.config.seed for rep in reports],
        dataset_hash=first.dataset_hash,
        baseline=baseline_scores(first.baseline),
        best_val=stats_at(lambda rep: rep.best_val),
        best_test=stats_at(lambda rep: rep.best_test),
        per_class_patches_per_slide=per_class,
    )


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value) -> str:
    return CSV_FLOAT_FMT % value


def write_confusion_csvs(out_dir, name, solution: FrontSolution) -> None:
    """Write ``confusion_{val,test}_<name>.csv``, one row per true class."""
    for split, cm in (("val", solution.validation_confusion),
                      ("test", solution.test_confusion)):
        rows = [
            [cls] + [int(n) for n in cm.counts[i]] for i, cls in enumerate(cm.classes)
        ]
        _write_csv(Path(out_dir) / f"confusion_{split}_{name}.csv",
                   ["true_class"] + list(cm.classes), rows)


def _solution_summary(report, index) -> dict:
    sol = report.front[index]
    return {
        "index": index,
        "patch_count": sol.patch_count,
        "f1_fraction": sol.f1_fraction,
        "validation_f1": sol.validation_f1,
        "test_f1": sol.test_f1,
        "reduction_percent": 100.0 * (1.0 - sol.patch_count / report.total_patches),
    }


def report_summary(report: RunReport) -> dict:
    """JSON-ready summary of one run."""
    return {
        "config": asdict(report.config),
        "dataset_hash": report.dataset_hash,
        "total_patches": report.total_patches,
        "baseline": baseline_scores(report.baseline),
        "front_size": len(report.front),
        "best_val": _solution_summary(report, report.best_val),
        "best_test": _solution_summary(report, report.best_test),
        "per_class_patches_per_slide": report.per_class_patches_per_slide,
    }


def export_report(report: RunReport, out_dir) -> Path:
    """Write the run's tables: front CSV, selections, confusions, trace, summary."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    _write_csv(
        out_dir / "pareto_front.csv",
        ["f1_fraction", "patch_count", "validation_f1", "test_f1"],
        [
            [_fmt(s.f1_fraction), s.patch_count, _fmt(s.validation_f1), _fmt(s.test_f1)]
            for s in report.front
        ],
    )

    selections_dir = out_dir / "selections"
    selections_dir.mkdir(exist_ok=True)
    for stale in selections_dir.glob("*.json"):  # a rerun's front may be smaller
        stale.unlink()
    for idx, sol in enumerate(report.front):
        selection = {
            slide_id: np.flatnonzero(sol.genome[off : off + length]).tolist()
            for slide_id, (_, off, length) in zip(report.train_slide_ids,
                                                  report.layout.segments)
        }
        write_json(selections_dir / f"{idx}.json", selection, indent=None)

    named = {
        "baseline": report.baseline,
        "best_val": report.front[report.best_val],
        "best_test": report.front[report.best_test],
    }
    for name, solution in named.items():
        write_confusion_csvs(out_dir, name, solution)

    _write_csv(
        out_dir / "trace.csv",
        [f.name for f in fields(GenerationTrace)],
        [
            [_fmt(v) if isinstance(v, float) else v for v in astuple(t)]
            for t in report.traces
        ],
    )

    write_json(out_dir / "summary.json", report_summary(report))
    return out_dir


def export_aggregate(aggregate: AggregateReport, path) -> Path:
    """Write the cross-seed aggregate as JSON."""
    path = Path(path)
    write_json(path, asdict(aggregate))
    return path
