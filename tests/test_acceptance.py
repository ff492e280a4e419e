"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced. Criterion 6 runs the default ``guided`` search; the published
``paper`` search fails its accuracy clause at this cohort scale. See the
README ("Search") for the analysis.
"""

import csv
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from evops.cli import main as cli_main
from evops.dataset import GenomeLayout, build_layout
from evops.evolution import (
    EvolutionConfig,
    Individual,
    coverage_valid,
    crowding_distance,
    fast_non_dominated_sort,
    initialize_population,
    run_evolution,
    safe_bitflip_mutation,
    safe_uniform_crossover,
)
from evops.fitness import FitnessPair, evaluate_individual, weighted_f1
from evops.pareto_report import build_report, compute_baseline, extract_front
from evops.synthgen import SynthConfig, generate
from oracles import brute_force_fronts, straight_line_fitness

# Frozen efficiency-claim cohort: separation/noise chosen so the all-patches
# baseline test F1 lands mid-window (measured 0.866 on this seed).
EFFICIENCY_COHORT = SynthConfig(
    classes=3,
    train_slides_per_class=20,
    validation_slides_per_class=5,
    test_slides_per_class=5,
    patches_min=40,
    patches_max=80,
    informative_fraction=0.2,
    dim=32,
    class_separation=2.5,
    noise_sigma=1.0,
    seed=2024,
)
EFFICIENCY_SEEDS = (1, 2, 3, 4, 5)
EFFICIENCY_CONFIG = EvolutionConfig(population_size=60, generations=40)

SMALL_COHORT = SynthConfig(
    classes=3,
    train_slides_per_class=4,
    validation_slides_per_class=2,
    test_slides_per_class=2,
    patches_min=8,
    patches_max=16,
    informative_fraction=0.25,
    dim=8,
    class_separation=6.0,
    noise_sigma=1.0,
    seed=5,
)


def report_line(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")


@pytest.fixture(scope="module")
def efficiency_runs():
    dataset = generate(EFFICIENCY_COHORT)
    baseline = compute_baseline(dataset, EFFICIENCY_CONFIG.k_neighbors)
    started = time.monotonic()
    reports = []
    for seed in EFFICIENCY_SEEDS:
        config = replace(EFFICIENCY_CONFIG, seed=seed)
        population, traces = run_evolution(dataset, config)
        reports.append(build_report(dataset, config, population, traces))
    elapsed = time.monotonic() - started
    return dataset, baseline, reports, elapsed


def random_layout(rng, max_total=5000, max_slides=200):
    n_slides = int(rng.integers(1, max_slides + 1))
    lengths = rng.integers(1, max(2, max_total // n_slides) + 1, size=n_slides)
    segments, offset = [], 0
    for i, length in enumerate(lengths):
        segments.append((i, offset, int(length)))
        offset += int(length)
    return GenomeLayout(total_patches=offset, segments=tuple(segments))


def test_criterion_1_coverage_invariant_suite():
    rng = np.random.default_rng(1001)
    config = EvolutionConfig(population_size=2)
    applications = 0
    violations = 0
    started = time.monotonic()
    while applications < 10_000:
        layout = random_layout(rng)
        individuals = initialize_population(layout, config, rng)
        applications += len(individuals)
        violations += sum(
            not coverage_valid(ind.genome, layout) for ind in individuals
        )
        parent_a, parent_b = individuals[0].genome, individuals[1].genome
        for _ in range(20):
            child_a, child_b = safe_uniform_crossover(parent_a, parent_b, layout,
                                                      0.9, rng)
            applications += 2
            violations += (not coverage_valid(child_a, layout)) + (
                not coverage_valid(child_b, layout)
            )
            mutated_a = safe_bitflip_mutation(child_a, layout, 0.01, rng)
            mutated_b = safe_bitflip_mutation(child_b, layout, 0.05, rng)
            applications += 2
            violations += (not coverage_valid(mutated_a, layout)) + (
                not coverage_valid(mutated_b, layout)
            )
            parent_a, parent_b = mutated_a, mutated_b
    elapsed = time.monotonic() - started
    ok = violations == 0 and elapsed < 60.0
    report_line(1, ok, f"{applications} operator applications, "
                       f"{violations} violations, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_2_sorting_oracle():
    rng = np.random.default_rng(1002)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(2, 301))
        pairs = [(float(a), float(b)) for a, b in zip(rng.random(n), rng.random(n))]
        if rng.random() < 0.3:  # duplicated fitness pairs must be handled
            half = n // 2
            pairs[:half] = pairs[half : 2 * half]
        population = [
            Individual(genome=np.ones(1, dtype=bool), fitness=FitnessPair(*p))
            for p in pairs
        ]
        expected_fronts = brute_force_fronts(pairs)
        if fast_non_dominated_sort(population) != expected_fronts:
            mismatches += 1
            continue
        expected_front0 = []
        seen = set()
        for i in expected_fronts[0]:
            if pairs[i] not in seen:
                seen.add(pairs[i])
                expected_front0.append(pairs[i])
        expected_front0.sort()
        got = [ind.fitness.astuple() for ind in extract_front(population)]
        if got != expected_front0:
            mismatches += 1
    report_line(2, mismatches == 0, f"100 populations, {mismatches} mismatches")
    assert mismatches == 0


def test_criterion_3_fitness_oracle():
    cohort = SynthConfig(classes=3, train_slides_per_class=10,
                         validation_slides_per_class=2, test_slides_per_class=2,
                         patches_min=10, patches_max=20, informative_fraction=0.25,
                         dim=16, class_separation=3.0, noise_sigma=1.0, seed=1003)
    dataset = generate(cohort)
    layout = build_layout(dataset.train)
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(50):
        genome = rng.random(layout.total_patches) < rng.uniform(0.15, 0.9)
        for _, offset, length in layout.segments:
            if not genome[offset : offset + length].any():
                genome[offset + rng.integers(0, length)] = True
        pair, _ = evaluate_individual(genome, layout, dataset.validation, 5,
                                      classes=dataset.classes)
        frac, err = straight_line_fitness(genome, layout, dataset.train,
                                          dataset.validation, 5, dataset.classes)
        worst = max(worst, abs(pair.f1_fraction - frac), abs(pair.f2_error - err))
    ok = worst <= 1e-9
    report_line(3, ok, f"50 genomes, max |delta| = {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_4_weighted_f1_unit_oracle():
    hand = weighted_f1(["A", "A", "B", "B"], ["A", "B", "B", "B"], ["A", "B"])
    perfect = weighted_f1(["A", "B", "A"], ["A", "B", "A"], ["A", "B"])
    ok = abs(hand - 0.733333) <= 1e-6 and perfect == 1.0
    report_line(4, ok, f"hand case = {hand:.6f}, perfect = {perfect}")
    assert abs(hand - 0.733333) <= 1e-6
    assert perfect == 1.0


def test_criterion_5_crowding_oracle():
    dists = crowding_distance(
        [FitnessPair(0.0, 1.0), FitnessPair(0.5, 0.5), FitnessPair(1.0, 0.0)]
    )
    ok = dists[0] == math.inf and dists[2] == math.inf and dists[1] == 2.0
    report_line(5, ok, f"distances = {dists}")
    assert dists[1] == 2.0
    assert dists[0] == math.inf and dists[2] == math.inf


def test_criterion_6_synthetic_efficiency_claim(efficiency_runs):
    dataset, baseline, reports, elapsed = efficiency_runs
    assert 0.70 <= baseline.test_f1 <= 0.95, "cohort tuning broke the window"
    reductions = [rep.reduction_best_val for rep in reports]
    test_f1s = [rep.front[rep.best_val].test_f1 for rep in reports]
    mean_reduction = float(np.mean(reductions))
    mean_test_f1 = float(np.mean(test_f1s))
    needed = baseline.test_f1 - 0.02
    ok = mean_reduction >= 70.0 and mean_test_f1 >= needed and elapsed <= 600.0
    report_line(
        6, ok,
        f"baseline test F1 {baseline.test_f1:.4f}; mean reduction "
        f"{mean_reduction:.1f}% (need >=70), mean best-val test F1 "
        f"{mean_test_f1:.4f} (need >={needed:.4f}), {elapsed:.0f}s (need <=600)",
    )
    assert elapsed <= 600.0
    assert mean_reduction >= 70.0
    # The clause the published search fails at this cohort scale: with 15
    # validation slides the validation F1 saturates, every smaller
    # validation-perfect genome then dominates better-generalizing ones,
    # and the smaller-count tie-break selects the most overfit solution.
    # The default guided search starts from class-relevance-ranked genomes
    # and keeps only genomes whose slide-retrieval AUC on the training and
    # validation slides matches the all-patches library's.
    assert mean_test_f1 >= needed, (
        f"mean best-val test F1 {mean_test_f1:.4f} < {needed:.4f}: "
        "validation-saturation pathology at 15 validation slides; "
        "see README"
    )


def test_criterion_7_elitism_monotonicity(efficiency_runs):
    _, _, reports, _ = efficiency_runs
    worst_rise = 0.0
    checked = 0
    for rep in reports:
        best = [t.best_f2_error for t in rep.traces]
        checked += len(best)
        for a, b in zip(best, best[1:]):
            worst_rise = max(worst_rise, b - a)
    ok = worst_rise <= 0.0
    report_line(7, ok, f"{len(reports)} runs, {checked} traces, "
                       f"max per-step rise = {worst_rise:.3e}")
    assert worst_rise <= 0.0


def test_criterion_8_worker_determinism(tmp_path):
    dataset_dir = tmp_path / "ds"
    generate(SMALL_COHORT, out_dir=dataset_dir)
    outputs = {}
    for workers in (1, 8):
        out_dir = tmp_path / f"w{workers}"
        code = cli_main([
            "run", "--dataset", str(dataset_dir), "--out", str(out_dir),
            "--seeds", "3", "--pop-size", "20", "--generations", "8",
            "--workers", str(workers),
        ])
        assert code == 0
        outputs[workers] = (out_dir / "seed_3" / "pareto_front.csv").read_bytes()
        with open(out_dir / "seed_3" / "trace.csv") as fh:
            best = [float(row["best_f2_error"]) for row in csv.DictReader(fh)]
        assert all(a >= b for a, b in zip(best, best[1:]))  # criterion 7 scope
    ok = outputs[1] == outputs[8]
    report_line(8, ok, f"pareto_front.csv identical across 1/8 workers: {ok}")
    assert outputs[1] == outputs[8]


def test_criterion_9_format_roundtrip(tmp_path):
    from evops.dataset import load_dataset, write_dataset

    dataset = generate(SMALL_COHORT)
    write_dataset(dataset, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    bit_exact = all(
        a.embeddings.tobytes() == b.embeddings.tobytes()
        for a, b in zip(dataset.slides, loaded.slides)
    ) and loaded.content_hash == dataset.content_hash

    config = EvolutionConfig(population_size=12, generations=5, seed=9)
    population, traces = run_evolution(dataset, config)
    report = build_report(dataset, config, population, traces)
    from evops.pareto_report import export_report

    export_report(report, tmp_path / "run")
    import json

    masks_ok = True
    for idx, solution in enumerate(report.front):
        with open(tmp_path / "run" / "selections" / f"{idx}.json") as fh:
            selection = json.load(fh)
        genome = np.zeros(report.total_patches, dtype=bool)
        for slide_id, (_, offset, _) in zip(report.train_slide_ids,
                                            report.layout.segments):
            for row_index in selection[slide_id]:
                genome[offset + row_index] = True
        masks_ok &= int(genome.sum()) == solution.patch_count
        masks_ok &= bool(np.array_equal(genome, solution.genome))
    ok = bit_exact and masks_ok
    report_line(9, ok, f"write/load bit-exact: {bit_exact}, "
                       f"selection masks reproduce genomes: {masks_ok}")
    assert bit_exact
    assert masks_ok
