import csv
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from evops.dataset import SlideRecord, SplitDataset, build_layout
from evops.evolution import SEARCHES, EvolutionConfig, Individual, run_evolution
from evops.fitness import FitnessPair, evaluate_individual
from evops import pareto_report
from evops.pareto_report import (
    FrontSolution,
    MixedDatasetError,
    aggregate_runs,
    build_report,
    compute_baseline,
    evaluate_front,
    export_aggregate,
    export_report,
    extract_front,
)
from evops.synthgen import SynthConfig, generate
from oracles import brute_force_fronts

PLANTED = SynthConfig(classes=3, train_slides_per_class=4,
                      validation_slides_per_class=2, test_slides_per_class=2,
                      patches_min=8, patches_max=16, informative_fraction=0.25,
                      dim=8, class_separation=6.0, noise_sigma=1.0, seed=5)


def pop_from_pairs(pairs):
    return [
        Individual(genome=np.ones(2, dtype=bool), fitness=FitnessPair(*p))
        for p in pairs
    ]


@pytest.fixture(scope="module")
def planted_run():
    ds = generate(PLANTED)
    config = EvolutionConfig(population_size=12, generations=6, seed=2)
    population, traces = run_evolution(ds, config)
    report = build_report(ds, config, population, traces)
    return ds, config, population, traces, report


def test_extract_front_chain_is_singleton():
    pop = pop_from_pairs([(0.3, 0.3), (0.1, 0.1), (0.2, 0.2)])
    front = extract_front(pop)
    assert len(front) == 1
    assert front[0].fitness == FitnessPair(0.1, 0.1)


def test_extract_front_dedups_identical_fitness():
    pop = pop_from_pairs([(0.2, 0.4), (0.2, 0.4), (0.4, 0.2)])
    front = extract_front(pop)
    assert len(front) == 2
    assert front[0] is pop[0]  # lowest index kept


def test_extract_front_matches_dominance_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 150))
        pairs = [(float(a), float(b)) for a, b in zip(rng.random(n), rng.random(n))]
        pop = pop_from_pairs(pairs)
        got = {ind.fitness.astuple() for ind in extract_front(pop)}
        expected = {pairs[i] for i in brute_force_fronts(pairs)[0]}
        assert got == expected
        fractions = [ind.fitness.f1_fraction for ind in extract_front(pop)]
        assert fractions == sorted(fractions)


def test_argbest_ties_go_to_fewer_patches_then_the_lower_index():
    front = [FrontSolution(genome=None, patch_count=count, f1_fraction=0.0,
                           validation_f1=f1, test_f1=0.0, validation_confusion=None,
                           test_confusion=None, per_slide_counts={})
             for count, f1 in [(5, 0.8), (4, 0.9), (3, 0.9), (3, 0.9)]]
    assert pareto_report._argbest(front, lambda s: s.validation_f1) == 2


def test_front_strict_tradeoff(planted_run):
    _, _, _, _, report = planted_run
    fracs = [s.f1_fraction for s in report.front]
    errors = [1.0 - s.validation_f1 for s in report.front]
    assert all(a < b for a, b in zip(fracs, fracs[1:]))
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_all_ones_front_solution_equals_baseline(planted_run):
    ds, config, _, _, _ = planted_run
    layout = build_layout(ds.train)
    pseudo = Individual(genome=np.ones(layout.total_patches, dtype=bool),
                        fitness=FitnessPair(1.0, 0.0))
    solution = evaluate_front([pseudo], ds, config.k_neighbors)[0]
    baseline = compute_baseline(ds, config.k_neighbors)
    assert solution.test_f1 == baseline.test_f1
    assert solution.validation_f1 == baseline.validation_f1
    assert solution.patch_count == baseline.patch_count


def test_front_validation_f1_is_definitional(planted_run):
    ds, config, population, _, _ = planted_run
    front = extract_front(population)
    solutions = evaluate_front(front, ds, config.k_neighbors)
    for ind, sol in zip(front, solutions):
        assert abs(sol.validation_f1 - (1.0 - ind.fitness.f2_error)) <= 1e-12


def test_per_slide_counts_consistency(planted_run):
    _, _, _, _, report = planted_run
    for sol in report.front:
        assert sum(sol.per_slide_counts.values()) == sol.patch_count
        assert all(v >= 1 for v in sol.per_slide_counts.values())


def test_baseline_patch_count_is_total(planted_run):
    ds, config, _, _, _ = planted_run
    layout = build_layout(ds.train)
    baseline = compute_baseline(ds, config.k_neighbors)
    assert baseline.patch_count == layout.total_patches


def test_baseline_matches_straight_line_oracle(planted_run):
    ds, config, _, _, _ = planted_run
    from oracles import straight_line_fitness

    layout = build_layout(ds.train)
    ones = np.ones(layout.total_patches, dtype=bool)
    baseline = compute_baseline(ds, config.k_neighbors)
    _, val_err = straight_line_fitness(ones, layout, ds.train, ds.validation,
                                       config.k_neighbors, ds.classes)
    _, test_err = straight_line_fitness(ones, layout, ds.train, ds.test,
                                        config.k_neighbors, ds.classes)
    assert abs(baseline.validation_f1 - (1.0 - val_err)) <= 1e-9
    assert abs(baseline.test_f1 - (1.0 - test_err)) <= 1e-9


def test_one_patch_per_slide_baseline_equals_any_solution():
    cfg = SynthConfig(classes=2, train_slides_per_class=3,
                      validation_slides_per_class=2, test_slides_per_class=2,
                      patches_min=1, patches_max=1, dim=4, seed=8)
    ds = generate(cfg)
    layout = build_layout(ds.train)
    baseline = compute_baseline(ds, 3)
    pseudo = Individual(genome=np.ones(layout.total_patches, dtype=bool),
                        fitness=FitnessPair(1.0, 0.0))
    only = evaluate_front([pseudo], ds, 3)[0]
    assert only.validation_f1 == baseline.validation_f1
    assert only.test_f1 == baseline.test_f1


def test_best_indices_maximize_with_small_count_tiebreak(planted_run):
    _, _, _, _, report = planted_run
    best_val = report.front[report.best_val]
    assert best_val.validation_f1 == max(s.validation_f1 for s in report.front)
    for s in report.front:
        if s.validation_f1 == best_val.validation_f1:
            assert best_val.patch_count <= s.patch_count
    best_test = report.front[report.best_test]
    assert best_test.test_f1 == max(s.test_f1 for s in report.front)


def test_reduction_percent_recomputation(planted_run, tmp_path):
    # the summary's reduction must be recomputable from exported CSV fields
    _, _, _, _, report = planted_run
    sol = report.front[report.best_val]
    assert report.reduction_best_val == pytest.approx(
        100.0 * (1.0 - sol.patch_count / report.total_patches)
    )
    export_report(report, tmp_path)
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    with open(tmp_path / "pareto_front.csv") as fh:
        rows = list(csv.DictReader(fh))
    idx = summary["best_val"]["index"]
    recomputed = 100.0 * (
        1.0 - int(rows[idx]["patch_count"]) / summary["total_patches"]
    )
    assert summary["best_val"]["reduction_percent"] == pytest.approx(recomputed)


def test_aggregate_single_run_zero_std(planted_run):
    _, _, _, _, report = planted_run
    agg = aggregate_runs([report])
    assert agg.runs == 1
    assert agg.best_val["test_f1"]["mean"] == report.front[report.best_val].test_f1
    assert agg.best_val["test_f1"]["std"] == 0.0
    assert agg.best_val["patch_count"]["std"] == 0.0


def test_aggregate_two_runs_mean(planted_run):
    ds, config, _, _, report_a = planted_run
    from dataclasses import replace

    config_b = replace(config, seed=3)
    population, traces = run_evolution(ds, config_b)
    report_b = build_report(ds, config_b, population, traces)
    agg = aggregate_runs([report_a, report_b])
    vals = [rep.front[rep.best_test].test_f1 for rep in (report_a, report_b)]
    assert agg.best_test["test_f1"]["mean"] == pytest.approx(float(np.mean(vals)))
    assert agg.seeds == [2, 3]


def test_aggregate_rejects_mixed_datasets(planted_run):
    ds, config, population, traces, report = planted_run
    other = generate(SynthConfig(seed=77))
    config_b = EvolutionConfig(population_size=8, generations=2, seed=1)
    pop_b, traces_b = run_evolution(other, config_b)
    report_b = build_report(other, config_b, pop_b, traces_b)
    with pytest.raises(MixedDatasetError):
        aggregate_runs([report, report_b])


@pytest.mark.parametrize("name", [f.name for f in fields(EvolutionConfig) if f.name != "seed"])
def test_aggregate_rejects_mixed_configs(planted_run, name):
    _, config, _, _, report = planted_run
    value = getattr(config, name)
    other = next(s for s in SEARCHES if s != value) if name == "search" else value + 1
    config_b = replace(config, seed=config.seed + 1, **{name: other})
    report_b = replace(report, config=config_b)
    with pytest.raises(ValueError, match=f"config field {name}:"):
        aggregate_runs([report, report_b])


def test_aggregate_matches_external_recomputation(planted_run, tmp_path):
    # spreadsheet-style oracle: recompute aggregate stats from exported CSVs
    ds, config, _, _, _ = planted_run
    from dataclasses import replace

    seeds = list(range(11, 21))
    reports = []
    for seed in seeds:
        cfg = replace(config, seed=seed)
        population, traces = run_evolution(ds, cfg)
        rep = build_report(ds, cfg, population, traces)
        export_report(rep, tmp_path / f"seed_{seed}")
        reports.append(rep)
    agg = aggregate_runs(reports)

    test_f1s, patch_counts = [], []
    for seed in seeds:
        with open(tmp_path / f"seed_{seed}" / "summary.json") as fh:
            summary = json.load(fh)
        idx = summary["best_val"]["index"]
        with open(tmp_path / f"seed_{seed}" / "pareto_front.csv") as fh:
            rows = list(csv.DictReader(fh))
        test_f1s.append(float(rows[idx]["test_f1"]))
        patch_counts.append(int(rows[idx]["patch_count"]))
    n = len(seeds)
    mean_f1 = sum(test_f1s) / n
    std_f1 = math.sqrt(sum((v - mean_f1) ** 2 for v in test_f1s) / n)
    assert agg.best_val["test_f1"]["mean"] == pytest.approx(mean_f1, abs=1e-6)
    assert agg.best_val["test_f1"]["std"] == pytest.approx(std_f1, abs=1e-6)
    assert agg.best_val["patch_count"]["mean"] == pytest.approx(
        sum(patch_counts) / n
    )


def test_export_roundtrip_to_printed_precision(planted_run, tmp_path):
    _, _, _, _, report = planted_run
    export_report(report, tmp_path)
    with open(tmp_path / "pareto_front.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(report.front)
    for row, sol in zip(rows, report.front):
        assert float(row["f1_fraction"]) == pytest.approx(sol.f1_fraction, abs=1e-6)
        assert int(row["patch_count"]) == sol.patch_count
        assert float(row["validation_f1"]) == pytest.approx(sol.validation_f1, abs=1e-6)
        assert float(row["test_f1"]) == pytest.approx(sol.test_f1, abs=1e-6)


def test_export_selections_reproduce_patch_counts(planted_run, tmp_path):
    _, _, _, _, report = planted_run
    export_report(report, tmp_path)
    for idx, sol in enumerate(report.front):
        with open(tmp_path / "selections" / f"{idx}.json") as fh:
            selection = json.load(fh)
        assert sum(len(v) for v in selection.values()) == sol.patch_count
        for slide_id, indices in selection.items():
            assert len(indices) == sol.per_slide_counts[slide_id]


def test_export_removes_stale_selections(planted_run, tmp_path):
    _, _, _, _, report = planted_run
    wide = replace(report, front=[report.front[0]] * 3, best_val=0, best_test=0)
    export_report(wide, tmp_path)
    assert len(list((tmp_path / "selections").iterdir())) == 3
    export_report(replace(wide, front=wide.front[:1]), tmp_path)
    assert [p.name for p in (tmp_path / "selections").iterdir()] == ["0.json"]


def test_export_confusion_and_trace_files(planted_run, tmp_path):
    ds, _, _, traces, report = planted_run
    export_report(report, tmp_path)
    for split in ("val", "test"):
        for name in ("baseline", "best_val", "best_test"):
            path = tmp_path / f"confusion_{split}_{name}.csv"
            with open(path) as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["true_class"] + list(ds.classes)
            counts = [int(v) for row in rows[1:] for v in row[1:]]
            n_eval = len(ds.validation) if split == "val" else len(ds.test)
            assert sum(counts) == n_eval
    with open(tmp_path / "trace.csv") as fh:
        trace_rows = list(csv.DictReader(fh))
    assert len(trace_rows) == len(traces)
    assert [int(r["generation"]) for r in trace_rows] == list(range(len(traces)))


def test_summary_indices_stable_under_reserialization(planted_run, tmp_path):
    _, _, _, _, report = planted_run
    export_report(report, tmp_path / "a")
    export_report(report, tmp_path / "b")
    a = (tmp_path / "a" / "summary.json").read_bytes()
    b = (tmp_path / "b" / "summary.json").read_bytes()
    assert a == b
    parsed = json.loads(a)
    assert parsed["best_val"]["index"] == report.best_val
    assert parsed["best_test"]["index"] == report.best_test


def test_export_aggregate_file(planted_run, tmp_path):
    _, _, _, _, report = planted_run
    agg = aggregate_runs([report])
    path = export_aggregate(agg, tmp_path / "aggregate.json")
    parsed = json.loads(path.read_text())
    assert parsed["runs"] == 1
    assert parsed["dataset_hash"] == report.dataset_hash
    assert set(parsed["per_class_patches_per_slide"]) == set(
        report.per_class_patches_per_slide
    )


def test_per_class_keys_are_sorted_whatever_the_training_order(tmp_path):
    # Class order is lexicographic even when the training slides list b first.
    rng = np.random.default_rng(9)

    def split(name, labels):
        return tuple(SlideRecord(f"{name}_{i}", label, name,
                                 rng.normal(label == "a", 1.0, (4, 3)).astype(np.float32))
                     for i, label in enumerate(labels))

    ds = SplitDataset(classes=("a", "b"), train=split("train", "bbbaaa"),
                      validation=split("validation", "ba"), test=split("test", "ba"), dim=3)
    config = EvolutionConfig(population_size=4, generations=1, seed=1)
    population, traces = run_evolution(ds, config)
    export_report(build_report(ds, config, population, traces), tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert list(summary["per_class_patches_per_slide"]) == ["a", "b"]


def test_report_scores_equal_evaluate_individual():
    ds = generate(PLANTED)
    layout = build_layout(ds.train)
    rng = np.random.default_rng(4)
    front = []
    for density in (0.1, 0.3, 0.6, 0.9):
        genome = rng.random(layout.total_patches) < density
        genome[layout.offsets] = True  # a patch in every slide
        front.append(Individual(genome=genome))
    solutions = evaluate_front(front, ds, 3)
    scored = [(ind.genome, sol) for ind, sol in zip(front, solutions)]
    scored.append((np.ones(layout.total_patches, dtype=bool), compute_baseline(ds, 3)))
    assert len(solutions) == len(front)
    for genome, sol in scored:
        for split, f1, cm in ((ds.validation, sol.validation_f1, sol.validation_confusion),
                              (ds.test, sol.test_f1, sol.test_confusion)):
            pair, expected = evaluate_individual(genome, layout, split, 3,
                                                 classes=ds.classes)
            assert f1 == 1.0 - pair.f2_error
            assert cm.classes == expected.classes
            assert np.array_equal(cm.counts, expected.counts)


def test_baseline_is_the_all_patches_front_solution():
    ds = generate(PLANTED)
    baseline = compute_baseline(ds, 3)
    assert isinstance(baseline, FrontSolution)
    assert baseline.f1_fraction == 1.0
    assert baseline.per_slide_counts == {rec.slide_id: rec.rows for rec in ds.train}
    assert baseline.genome.dtype == bool and baseline.genome.all()
    assert baseline.patch_count == baseline.genome.size


def test_per_slide_counts_equal_segment_slices(planted_run):
    ds, _, _, _, report = planted_run
    layout = build_layout(ds.train)
    rng = np.random.default_rng(9)
    front = []
    for density in (0.05, 0.5, 0.95):
        genome = rng.random(layout.total_patches) < density
        genome[layout.offsets] = True
        front.append(Individual(genome=genome))
    for sol in report.front + evaluate_front(front, ds, 3):
        expected = {
            rec.slide_id: int(sol.genome[off : off + length].sum())
            for rec, (_, off, length) in zip(ds.train, layout.segments)
        }
        assert sol.per_slide_counts == expected
        assert all(type(n) is int for n in sol.per_slide_counts.values())


def test_scoring_builds_one_evaluator_per_split(monkeypatch):
    ds = generate(PLANTED)
    layout = build_layout(ds.train)
    built = []
    evaluator = pareto_report.FitnessEvaluator

    def recording(*args, **kwargs):
        built.append(args[1])
        return evaluator(*args, **kwargs)

    monkeypatch.setattr(pareto_report, "FitnessEvaluator", recording)
    front = [Individual(genome=np.ones(layout.total_patches, dtype=bool))] * 4
    assert len(evaluate_front(front, ds, 3)) == 4
    compute_baseline(ds, 3)
    assert built == [ds.validation, ds.test] * 2


def test_baseline_does_not_go_through_evaluate_front(monkeypatch):
    ds = generate(PLANTED)
    expected = compute_baseline(ds, 3)

    def traced_front(*args, **kwargs):
        raise AssertionError("compute_baseline called evaluate_front")

    monkeypatch.setattr(pareto_report, "evaluate_front", traced_front)
    baseline = compute_baseline(ds, 3)
    assert (baseline.validation_f1, baseline.test_f1) == (
        expected.validation_f1, expected.test_f1)
    assert np.array_equal(baseline.test_confusion.counts, expected.test_confusion.counts)


def test_empty_front_and_no_reports_are_rejected(planted_run):
    ds, config, _, _, _ = planted_run
    with pytest.raises(ValueError, match="front is empty"):
        evaluate_front([], ds, config.k_neighbors)
    with pytest.raises(ValueError, match="no reports"):
        aggregate_runs([])


def test_build_report_reuses_a_given_baseline(planted_run, tmp_path, monkeypatch):
    ds, config, population, traces, report = planted_run
    baseline = compute_baseline(ds, config.k_neighbors)

    def rescored(*args):
        raise AssertionError("build_report scored a baseline it was given")

    monkeypatch.setattr(pareto_report, "compute_baseline", rescored)
    given = build_report(ds, config, population, traces, baseline=baseline)
    assert given.baseline is baseline
    export_report(report, tmp_path / "scored")
    export_report(given, tmp_path / "given")
    for name in ("summary.json", "confusion_val_baseline.csv", "confusion_test_baseline.csv"):
        assert (tmp_path / "given" / name).read_bytes() == (
            tmp_path / "scored" / name).read_bytes()
