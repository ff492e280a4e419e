import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evops import evolution
from evops.dataset import GenomeLayout
from evops.evolution import (
    EvolutionConfig,
    class_relevance,
    Individual,
    coverage_valid,
    crowding_distance,
    dominates,
    fast_non_dominated_sort,
    initialize_population,
    run_evolution,
    safe_bitflip_mutation,
    safe_uniform_crossover,
    select_parents,
    select_survivors,
)
from evops.fitness import FitnessPair
from evops.synthgen import SynthConfig, generate
from oracles import (
    brute_force_fronts,
    constrained_dominates,
    lexicographic_survivors,
    loop_crowding,
    loop_ranking,
    pairwise_crossover,
    pairwise_mutation,
    straight_line_run,
    survivor_order,
)


def random_layout(rng, max_slides=20, max_len=30):
    n = int(rng.integers(1, max_slides + 1))
    lengths = rng.integers(1, max_len + 1, size=n)
    segments, offset = [], 0
    for i, length in enumerate(lengths):
        segments.append((i, offset, int(length)))
        offset += int(length)
    return GenomeLayout(total_patches=offset, segments=tuple(segments))


def random_covered_genome(rng, layout, density=0.5):
    genome = rng.random(layout.total_patches) < density
    for _, offset, length in layout.segments:
        if not genome[offset : offset + length].any():
            genome[offset + rng.integers(0, length)] = True
    return genome


def pop_from_pairs(pairs):
    return [
        Individual(genome=np.ones(1, dtype=bool), fitness=FitnessPair(*p))
        for p in pairs
    ]


def objectives(pairs):
    """The (N, 3) objective rows ``select_survivors`` takes, all feasible."""
    return np.array([(f1, f2, 0.0) for f1, f2 in pairs])


def ranking(pairs):
    """The oracle's rank and crowding of every member, as arrays."""
    ranks, crowdings = loop_ranking([FitnessPair(*p) for p in pairs])
    return np.array(ranks), np.array(crowdings)


PLANTED = SynthConfig(classes=3, train_slides_per_class=4,
                      validation_slides_per_class=2, test_slides_per_class=2,
                      patches_min=8, patches_max=16, informative_fraction=0.25,
                      dim=8, class_separation=6.0, noise_sigma=1.0, seed=5)


def test_config_validation():
    EvolutionConfig().validate()
    with pytest.raises(ValueError):
        EvolutionConfig(population_size=7).validate()
    with pytest.raises(ValueError):
        EvolutionConfig(crossover_swap_p=1.5).validate()
    with pytest.raises(ValueError):
        EvolutionConfig(mutation_flip_p=-0.1).validate()
    with pytest.raises(ValueError):
        EvolutionConfig(k_neighbors=0).validate()
    with pytest.raises(ValueError):
        EvolutionConfig(generations=-1).validate()


def test_init_coverage_by_construction():
    rng = np.random.default_rng(0)
    layout = random_layout(rng)
    config = EvolutionConfig(population_size=10)
    for ind in initialize_population(layout, config, rng):
        assert coverage_valid(ind.genome, layout)


def test_init_all_single_patch_slides_forces_all_ones():
    layout = GenomeLayout(total_patches=4,
                          segments=tuple((i, i, 1) for i in range(4)))
    rng = np.random.default_rng(1)
    for ind in initialize_population(layout, EvolutionConfig(population_size=6),
                                     rng):
        assert ind.genome.all()


def test_init_popcount_distribution():
    # counts should look like S + Uniform[0, P-S]: coarse histogram check
    rng = np.random.default_rng(2)
    lengths = [20] * 50  # P=1000, S=50
    segments = tuple((i, 20 * i, 20) for i in range(50))
    layout = GenomeLayout(total_patches=1000, segments=segments)
    config = EvolutionConfig(population_size=10000)
    counts = np.array([
        int(ind.genome.sum())
        for ind in initialize_population(layout, config, rng)
    ])
    assert counts.min() >= 50 and counts.max() <= 1000
    shifted = counts - 50  # should be ~ Uniform[0, 950]
    hist, _ = np.histogram(shifted, bins=10, range=(0, 951))
    assert (np.abs(hist - 1000) < 300).all()
    assert abs(shifted.mean() - 475) < 15


def test_crossover_identical_parents_identity():
    rng = np.random.default_rng(3)
    layout = random_layout(rng)
    genome = random_covered_genome(rng, layout)
    a, b = safe_uniform_crossover(genome, genome.copy(), layout, 0.9, rng)
    assert np.array_equal(a, genome) and np.array_equal(b, genome)


def test_crossover_zero_swap_identity():
    rng = np.random.default_rng(4)
    layout = random_layout(rng)
    pa = random_covered_genome(rng, layout)
    pb = random_covered_genome(rng, layout)
    a, b = safe_uniform_crossover(pa, pb, layout, 0.0, rng)
    assert np.array_equal(a, pa) and np.array_equal(b, pb)


def test_crossover_postconditions_randomized():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        layout = random_layout(rng)
        pa = random_covered_genome(rng, layout, density=float(rng.uniform(0.05, 0.9)))
        pb = random_covered_genome(rng, layout, density=float(rng.uniform(0.05, 0.9)))
        for child in safe_uniform_crossover(pa, pb, layout, 0.9, rng):
            assert coverage_valid(child, layout)
            from_parent = (child == pa) | (child == pb)
            assert from_parent.all()


def test_mutation_zero_rate_identity():
    rng = np.random.default_rng(6)
    layout = random_layout(rng)
    genome = random_covered_genome(rng, layout)
    assert np.array_equal(safe_bitflip_mutation(genome, layout, 0.0, rng), genome)


def test_mutation_full_flip_repairs_segment():
    layout = GenomeLayout(total_patches=2, segments=((0, 0, 2),))
    rng = np.random.default_rng(7)
    out = safe_bitflip_mutation(np.array([True, True]), layout, 1.0, rng)
    assert out.sum() == 1


def test_mutation_flip_count_binomial():
    # single large always-covered segment isolates the pre-repair flip count
    total = 5000
    layout = GenomeLayout(total_patches=total, segments=((0, 0, total),))
    genome = np.ones(total, dtype=bool)
    rng = np.random.default_rng(8)
    n_trials = 10_000
    flips = 0
    for _ in range(n_trials):
        out = safe_bitflip_mutation(genome, layout, 0.01, rng)
        flips += int((out != genome).sum())
    expected = n_trials * total * 0.01
    sigma = math.sqrt(n_trials * total * 0.01 * 0.99)
    assert abs(flips - expected) < 4 * sigma


def test_mutation_keeps_coverage_randomized():
    rng = np.random.default_rng(9)
    for _ in range(300):
        layout = random_layout(rng)
        genome = random_covered_genome(rng, layout, density=float(rng.uniform(0.05, 0.5)))
        out = safe_bitflip_mutation(genome, layout, float(rng.uniform(0, 0.3)), rng)
        assert coverage_valid(out, layout)


@st.composite
def variation_cases(draw):
    """Parents on a layout of 1-3 patch segments, rates, a seed and a window cap.

    Sparse parents and high rates repair often; dense parents and low rates
    give clean runs long enough for windows to grow, past the cap when it
    is small. Half the cases are one (P,) pair instead of an (N, P) matrix.
    """
    lengths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=8))
    offsets = np.cumsum([0] + lengths)
    layout = GenomeLayout(total_patches=int(offsets[-1]), segments=tuple(
        (i, int(offset), length) for i, (offset, length) in enumerate(zip(offsets, lengths))))
    single = draw(st.booleans())
    n = 1 if single else draw(st.integers(0, 40))
    density = draw(st.sampled_from([0.05, 0.3, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pa, pb = (np.array([random_covered_genome(rng, layout, density) for _ in range(n)],
                       dtype=bool).reshape(n, layout.total_patches) for _ in range(2))
    if single:
        pa, pb = pa[0], pb[0]
    rate = st.sampled_from([0.0, 0.01, 0.1, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0)
    return (layout, pa, pb, draw(rate), draw(rate), draw(st.integers(0, 2**64 - 1)),
            draw(st.booleans()), draw(st.sampled_from([1, 5, 40, evolution._WINDOW_DOUBLES])))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(variation_cases())
def test_batched_operators_draw_as_the_pairwise_oracle(case):
    layout, pa, pb, swap_p, flip_p, seed, buffered, cap = case
    batched, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:  # integers() leaves a 32-bit half buffered for the repairs
        batched.integers(2)
        oracle.integers(2)
    with mock.patch.object(evolution, "_WINDOW_DOUBLES", cap):
        child_a, child_b = safe_uniform_crossover(pa, pb, layout, swap_p, batched)
        children = np.stack([child_a, child_b], axis=-2).reshape(-1, layout.total_patches)
        mutated = safe_bitflip_mutation(children if pa.ndim == 2 else child_b, layout, flip_p,
                                        batched)

    pairs = [pairwise_crossover(a, b, layout, swap_p, oracle)
             for a, b in zip(np.atleast_2d(pa), np.atleast_2d(pb))]
    expected_a = np.array([a for a, _ in pairs], dtype=bool).reshape(pa.shape)
    expected_b = np.array([b for _, b in pairs], dtype=bool).reshape(pb.shape)
    to_mutate = [child for pair in pairs for child in pair] if pa.ndim == 2 else [pairs[0][1]]
    expected_mutated = np.array([pairwise_mutation(child, layout, flip_p, oracle)
                                 for child in to_mutate], dtype=bool)
    assert child_a.shape == child_b.shape == pa.shape
    assert np.array_equal(child_a, expected_a) and np.array_equal(child_b, expected_b)
    assert np.array_equal(mutated, expected_mutated.reshape(mutated.shape))
    assert batched.bit_generator.state == oracle.bit_generator.state


def test_a_generation_makes_one_crossover_and_one_mutation_call():
    ds = generate(PLANTED)
    config = EvolutionConfig(population_size=12, generations=3, seed=6)
    calls = []

    def recording(name, operator):
        def record(genomes, *args):
            calls.append((name, np.shape(genomes)))
            return operator(genomes, *args)
        return record

    with mock.patch.multiple(
        evolution,
        safe_uniform_crossover=recording("crossover", safe_uniform_crossover),
        safe_bitflip_mutation=recording("mutation", safe_bitflip_mutation),
    ):
        run_evolution(ds, config)
    P = ds.layout.total_patches
    assert calls == [("crossover", (6, P)), ("mutation", (12, P))] * config.generations


def test_dominates_cases():
    assert dominates(FitnessPair(0.1, 0.2), FitnessPair(0.2, 0.3))
    assert not dominates(FitnessPair(0.1, 0.3), FitnessPair(0.2, 0.2))
    assert not dominates(FitnessPair(0.2, 0.2), FitnessPair(0.1, 0.3))
    assert not dominates(FitnessPair(0.1, 0.1), FitnessPair(0.1, 0.1))
    assert dominates(FitnessPair(0.1, 0.2), FitnessPair(0.1, 0.3))


def test_dominates_compares_the_violation_first():
    assert dominates(FitnessPair(0.9, 0.9, 0.0), FitnessPair(0.1, 0.1, 0.2))
    assert not dominates(FitnessPair(0.1, 0.1, 0.2), FitnessPair(0.9, 0.9, 0.0))
    assert dominates(FitnessPair(0.1, 0.2, 0.3), FitnessPair(0.2, 0.3, 0.3))
    assert not dominates(FitnessPair(0.1, 0.3, 0.3), FitnessPair(0.2, 0.2, 0.3))


def test_sort_mutually_nondominated():
    pop = pop_from_pairs([(0.1, 0.9), (0.5, 0.5), (0.9, 0.1)])
    fronts = fast_non_dominated_sort(pop)
    assert fronts == [[0, 1, 2]]


def test_sort_total_order_chain():
    pop = pop_from_pairs([(3, 3), (1, 1), (2, 2)])
    fronts = fast_non_dominated_sort(pop)
    assert fronts == [[1], [2], [0]]


def test_sort_matches_brute_force_oracle():
    rng = np.random.default_rng(10)
    for _ in range(30):
        n = int(rng.integers(2, 200))
        pairs = [(float(a), float(b))
                 for a, b in zip(rng.random(n), rng.random(n))]
        if rng.random() < 0.5:  # inject duplicates
            pairs[: n // 2] = pairs[n // 2 : 2 * (n // 2)]
        pop = pop_from_pairs(pairs)
        assert fast_non_dominated_sort(pop) == brute_force_fronts(pairs)


def test_same_front_members_do_not_dominate():
    rng = np.random.default_rng(11)
    pairs = [(float(a), float(b)) for a, b in zip(rng.random(80), rng.random(80))]
    pop = pop_from_pairs(pairs)
    for front in fast_non_dominated_sort(pop):
        for i in front:
            for j in front:
                if i != j:
                    assert not dominates(pop[i].fitness, pop[j].fitness)


def test_sort_matches_constrained_oracle():
    # coarse grids give duplicate points; violations add infeasible fronts
    rng = np.random.default_rng(22)
    for _ in range(30):
        n = int(rng.integers(2, 60))
        triples = [(float(a) / 4, float(b) / 4, float(v)) for a, b, v in zip(
            rng.integers(0, 5, n), rng.integers(0, 5, n), rng.choice([0.0, 0.0, 0.1, 0.3], n))]
        pop = pop_from_pairs(triples)
        assert fast_non_dominated_sort(pop) == brute_force_fronts(triples, constrained_dominates)


def test_crowding_matches_loop_oracle_bit_for_bit():
    # coarse points repeat values and give zero ranges; fine ones give
    # every gap its own rounding
    rng = np.random.default_rng(23)
    for trial in range(60):
        n = int(rng.integers(1, 30))
        points = (rng.integers(0, 5, (n, 2)) / 4 if trial % 2 else rng.random((n, 2))).tolist()
        assert crowding_distance([FitnessPair(*p) for p in points]) == loop_crowding(points)


def test_crowding_pair_all_infinite():
    dists = crowding_distance([FitnessPair(0.1, 0.9), FitnessPair(0.9, 0.1)])
    assert dists == [math.inf, math.inf]


def test_crowding_hand_case():
    dists = crowding_distance(
        [FitnessPair(0, 1), FitnessPair(0.5, 0.5), FitnessPair(1, 0)]
    )
    assert dists[0] == math.inf and dists[2] == math.inf
    assert dists[1] == 2.0


def test_crowding_identical_points():
    dists = crowding_distance([FitnessPair(0.5, 0.5)] * 4)
    assert dists[0] == math.inf and dists[-1] == math.inf
    assert dists[1] == 0.0 and dists[2] == 0.0


def test_parent_selection_rank_dominates():
    # a rank-0 vs rank-3 tournament must always pick rank 0: with only two
    # distinct ranks in the population, the loser is only ever selected by
    # drawing it twice, so P(pick rank 0) = 3/4 exactly
    rank, crowding = ranking([(0.1, 0.1), (0.9, 0.9)])
    assert rank.tolist() == [0, 1]
    rng = np.random.default_rng(12)
    trials = 2000
    wins = sum(1 for _ in range(trials) if select_parents(rank, crowding, rng)[0] == 0)
    assert wins > trials * 0.65


def test_parent_selection_crowding_tiebreak():
    rank = np.array([0, 0])
    crowding = np.array([math.inf, 0.5])
    rng = np.random.default_rng(13)
    trials = 2000
    wins = sum(1 for _ in range(trials) if select_parents(rank, crowding, rng)[0] == 0)
    # infinite crowding wins every mixed tournament: P = 3/4
    assert wins > trials * 0.65


def test_parent_selection_frequency_monotone():
    # distinct (rank, crowding) lexicographic order => non-increasing win rate
    pairs = [(0.1, 0.2), (0.2, 0.1), (0.15, 0.25), (0.3, 0.3), (0.4, 0.4), (0.6, 0.6)]
    rank, crowding = ranking(pairs)
    order = sorted(range(len(pairs)), key=lambda i: (rank[i], -crowding[i], i))
    rng = np.random.default_rng(14)
    counts = {i: 0 for i in range(len(pairs))}
    for _ in range(20):
        for chosen in select_parents(rank, crowding, rng):
            counts[chosen] += 1
    freqs = [counts[i] for i in order]
    slack = 3 * math.sqrt(sum(counts.values()) / len(pairs))
    for a, b in zip(freqs, freqs[1:]):
        assert a >= b - slack


def test_survivors_identity_when_exact_fit():
    pairs = [(0.1, 0.9), (0.5, 0.5), (0.9, 0.1), (0.95, 0.95)]
    survivors, _, _ = select_survivors(objectives(pairs), 4)
    assert sorted(survivors.tolist()) == [0, 1, 2, 3]


def test_survivors_single_front_truncation():
    # 5 mutually non-dominated points, keep 3: boundary pair + widest interior
    pairs = [(0.0, 1.0), (0.2, 0.8), (0.5, 0.5), (0.8, 0.2), (1.0, 0.0)]
    survivors, _, _ = select_survivors(objectives(pairs), 3)
    chosen = {pairs[i] for i in survivors}
    assert (0.0, 1.0) in chosen and (1.0, 0.0) in chosen
    assert len(chosen) == 3


def test_survivors_equal_crowding_ties_prefer_lower_index():
    # evenly spaced colinear front: all interior crowding equal, so the
    # truncation must keep the lower-index interiors after the boundaries
    pairs = [(0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (0.75, 0.25), (1.0, 0.0)]
    survivors, _, _ = select_survivors(objectives(pairs), 4)
    assert sorted(survivors.tolist()) == [0, 1, 2, 4]


def test_survivors_match_lexicographic_oracle():
    rng = np.random.default_rng(15)
    for _ in range(20):
        pairs = [(float(a), float(b))
                 for a, b in zip(rng.random(200), rng.random(200))]
        ranks, crowdings = ranking(pairs)
        survivors, _, _ = select_survivors(objectives(pairs), 100)
        assert sorted(survivors.tolist()) == lexicographic_survivors(ranks, crowdings, 100)


def test_survivors_leave_fronts_after_the_cut_unranked():
    # a dominance chain: every front has one member, and three fill the survivors
    survivors, rank, crowding = select_survivors(
        objectives([(0.1 * i, 0.1 * i) for i in range(10)]), 3)
    assert survivors.tolist() == [0, 1, 2]
    assert rank.tolist() == [0, 1, 2] and crowding.tolist() == [math.inf] * 3


def test_survivor_order_matches_straight_line_oracle():
    # coarse grids give duplicate points and equal crowding; violations add
    # infeasible fronts
    rng = np.random.default_rng(19)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        pairs = [
            FitnessPair(float(a) / 4, float(b) / 4, float(v))
            for a, b, v in zip(rng.integers(0, 5, n), rng.integers(0, 5, n),
                               rng.choice([0.0, 0.0, 0.1, 0.3], n))
        ]
        ranks, crowdings = loop_ranking(pairs)
        size = int(rng.integers(1, n + 1))
        survivors, rank, crowding = select_survivors(
            np.array([(p.f1_fraction, p.f2_error, p.violation) for p in pairs]), size)
        assert survivors.tolist() == survivor_order(ranks, crowdings, size)
        assert rank.tolist() == [ranks[i] for i in survivors]
        assert crowding.tolist() == [crowdings[i] for i in survivors]


@st.composite
def loop_cases(draw):
    """A small cohort and a config for either search.

    Coarse integer embeddings give equal distances, fitness and crowding,
    so tournaments and survivor cuts meet ties.
    """
    from evops.dataset import SlideRecord, make_dataset

    classes = [f"c{i}" for i in range(draw(st.integers(2, 3)))]
    dim = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def slides(split, count, max_rows):
        return [SlideRecord(f"{split}{i}", classes[int(rng.integers(len(classes)))], split,
                            rng.integers(-2, 3, (int(rng.integers(1, max_rows + 1)), dim))
                            .astype(np.float32))
                for i in range(count)]

    dataset = make_dataset(slides("train", draw(st.integers(2, 8)), 6),
                           slides("validation", draw(st.integers(1, 4)), 3), [])
    rate = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    config = EvolutionConfig(
        population_size=2 * draw(st.integers(1, 6)), generations=draw(st.integers(0, 5)),
        crossover_swap_p=draw(rate), mutation_flip_p=draw(rate),
        k_neighbors=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**32 - 1)),
        search=draw(st.sampled_from(["guided", "paper"])),
    )
    return dataset, config


@settings(max_examples=200, deadline=None, derandomize=True)
@given(loop_cases())
def test_run_evolution_matches_the_straight_line_loop(case):
    from evops.fitness import FitnessEvaluator

    dataset, config = case
    population, traces = run_evolution(dataset, config)
    score = FitnessEvaluator(dataset.layout, dataset.validation, config.k_neighbors,
                             classes=dataset.classes, constrained=config.search == "guided")
    expected, expected_traces = straight_line_run(dataset, config, score.evaluate)
    assert traces == expected_traces
    assert [(ind.genome.tobytes(), ind.fitness) for ind in population] == [
        (np.array(genome, dtype=bool).tobytes(), fitness) for genome, fitness in expected]


def test_run_zero_generations_returns_initial():
    ds = generate(PLANTED)
    config = EvolutionConfig(population_size=8, generations=0, seed=3)
    population, traces = run_evolution(ds, config)
    assert len(population) == 8
    assert len(traces) == 1 and traces[0].generation == 0
    assert all(ind.fitness is not None for ind in population)


def test_run_deterministic_per_seed():
    ds = generate(PLANTED)
    config = EvolutionConfig(population_size=10, generations=4, seed=21)
    pop_a, traces_a = run_evolution(ds, config)
    pop_b, traces_b = run_evolution(ds, config)
    assert traces_a == traces_b
    for a, b in zip(pop_a, pop_b):
        assert np.array_equal(a.genome, b.genome)
        assert a.fitness == b.fitness


def test_run_worker_count_invariance():
    ds = generate(PLANTED)
    config = EvolutionConfig(population_size=10, generations=3, seed=4)
    pop_a, traces_a = run_evolution(ds, config, workers=1)
    pop_b, traces_b = run_evolution(ds, config, workers=8)
    assert traces_a == traces_b
    for a, b in zip(pop_a, pop_b):
        assert np.array_equal(a.genome, b.genome)


def test_run_min_error_non_increasing_and_coverage():
    from evops.dataset import build_layout

    ds = generate(PLANTED)
    layout = build_layout(ds.train)
    config = EvolutionConfig(population_size=12, generations=8, seed=6)
    population, traces = run_evolution(ds, config)
    best = [t.best_f2_error for t in traces]
    assert all(a >= b - 1e-12 for a, b in zip(best, best[1:]))
    for ind in population:
        assert coverage_valid(ind.genome, layout)


def test_run_trace_fields_and_indices():
    ds = generate(PLANTED)
    config = EvolutionConfig(population_size=8, generations=5, seed=7)
    _, traces = run_evolution(ds, config)
    assert [t.generation for t in traces] == list(range(6))
    for t in traces:
        assert 0.0 <= t.min_f1_fraction <= t.mean_f1_fraction <= 1.0
        assert 0.0 <= t.best_f2_error <= t.mean_f2_error <= 1.0
        assert 1 <= t.front0_size <= 8


def test_config_rejects_unknown_search():
    EvolutionConfig(search="paper").validate()
    with pytest.raises(ValueError, match="search"):
        EvolutionConfig(search="greedy").validate()


def test_constrained_domination():
    feasible_worse = FitnessPair(0.9, 0.9)
    infeasible_better = FitnessPair(0.1, 0.1, violation=0.2)
    assert dominates(feasible_worse, infeasible_better)
    assert not dominates(infeasible_better, feasible_worse)
    assert dominates(FitnessPair(0.9, 0.9, 0.1), FitnessPair(0.1, 0.1, 0.2))
    assert dominates(FitnessPair(0.1, 0.1, 0.2), FitnessPair(0.2, 0.1, 0.2))
    assert not dominates(FitnessPair(0.1, 0.2, 0.2), FitnessPair(0.2, 0.1, 0.2))


def test_sort_with_violations_matches_pairwise_dominance():
    rng = np.random.default_rng(18)
    for _ in range(20):
        pairs = [
            FitnessPair(float(a), float(b), float(v) if v > 0.5 else 0.0)
            for a, b, v in zip(rng.random(60), rng.random(60), rng.random(60))
        ]
        pop = [Individual(genome=np.ones(1, dtype=bool), fitness=p) for p in pairs]
        fronts = fast_non_dominated_sort(pop)
        remaining = set(range(len(pairs)))
        for front in fronts:
            expected = sorted(
                i for i in remaining
                if not any(dominates(pairs[j], pairs[i]) for j in remaining)
            )
            assert sorted(front) == expected
            remaining -= set(front)
        if any(p.violation == 0.0 for p in pairs):
            assert all(pairs[i].violation == 0.0 for i in fronts[0])


def test_class_relevance_hand_case():
    from evops.dataset import SlideRecord, build_layout

    slides = [
        SlideRecord("a", "x", "train", np.array([[2, 0], [0, 0]], dtype=np.float32)),
        SlideRecord("b", "y", "train", np.array([[0, 2], [0, 0]], dtype=np.float32)),
    ]
    # class means (1, 0) and (0, 1), centre (0.5, 0.5)
    assert class_relevance(build_layout(slides)).tolist() == [1.0, 0.0, 1.0, 0.0]


def test_guided_initial_population_ranks_by_relevance():
    from evops.dataset import build_layout

    ds = generate(PLANTED)
    layout = build_layout(ds.train)
    relevance = class_relevance(layout)
    population = initialize_population(layout, EvolutionConfig(population_size=20),
                                       np.random.default_rng(19), relevance)
    assert len(population) == 20
    assert population[0].genome.all()
    for ind in population:
        assert coverage_valid(ind.genome, layout)
        for _, offset, length in layout.segments:
            kept = relevance[offset : offset + length][ind.genome[offset : offset + length]]
            dropped = relevance[offset : offset + length][~ind.genome[offset : offset + length]]
            assert not dropped.size or kept.min() >= dropped.max()


@pytest.mark.parametrize("search", ["guided", "paper"])
def test_each_generation_scores_only_its_offspring_in_one_call(search, monkeypatch):
    from evops.fitness import FitnessEvaluator

    ds = generate(PLANTED)
    config = EvolutionConfig(population_size=12, generations=5, seed=4, search=search)
    evaluate = FitnessEvaluator.evaluate
    calls = []

    def recording(self, genome):
        calls.append(np.shape(genome))
        return evaluate(self, genome)

    monkeypatch.setattr(FitnessEvaluator, "evaluate", recording)
    run_evolution(ds, config)
    assert calls == [(12, ds.layout.total_patches)] * (config.generations + 1)


def test_guided_front_is_feasible_and_paper_search_has_no_violations():
    ds = generate(PLANTED)
    guided, _ = run_evolution(ds, EvolutionConfig(population_size=12, generations=4, seed=8))
    assert any(ind.fitness.violation == 0.0 for ind in guided)
    assert all(guided[i].fitness.violation == 0.0 for i in fast_non_dominated_sort(guided)[0])
    paper, _ = run_evolution(
        ds, EvolutionConfig(population_size=12, generations=4, seed=8, search="paper")
    )
    assert all(ind.fitness.violation == 0.0 for ind in paper)


def test_config_rejects_negative_seed():
    EvolutionConfig(seed=0).validate()
    with pytest.raises(ValueError, match="seed"):
        EvolutionConfig(seed=-1).validate()


@pytest.mark.parametrize("split", ["train", "validation"])
def test_run_evolution_rejects_an_empty_split(split):
    ds = replace(generate(SynthConfig(seed=7)), **{split: ()})
    with pytest.raises(ValueError, match=f"{split} split is empty"):
        run_evolution(ds, EvolutionConfig(population_size=4, generations=1))
