"""Independent straight-line re-implementations used as test oracles.

Everything here is deliberately written with plain Python loops and dicts,
sharing no code path with the package: masked means, full-sort k-NN,
hand confusion-matrix F1, pairwise dominance-count front peeling (plain or
constrained), crowding one objective at a time, lexicographic survivor
selection, and crossover and mutation one pair or genome at a time, in the
order they draw from the generator.

``straight_line_run`` composes these into the whole generational loop:
both initialisations, one tournament at a time, the pairwise operators,
then fronts, crowding, survivors and one trace per generation. It takes
the package's scorer and ``class_relevance``, whose bits the ranking must
share, and the ``GenerationTrace`` record, and nothing else.
"""

import math
from collections import Counter

import numpy as np

from evops.evolution import GenerationTrace, class_relevance


def masked_mean(rows, mask):
    """Mean of the rows where mask is truthy, accumulated in python floats."""
    dim = len(rows[0])
    total = [0.0] * dim
    count = 0
    for row, keep in zip(rows, mask):
        if keep:
            count += 1
            for j in range(dim):
                total[j] += float(row[j])
    return [t / count for t in total]


def full_sort_knn(query, library_rows, library_labels, k):
    """k-NN by exhaustive sort on (squared distance, row index), then vote.

    Vote ties go to the nearest neighbor whose label is among the tied
    classes; distance ties go to the lower row index.
    """
    scored = []
    for idx, row in enumerate(library_rows):
        dist = 0.0
        for a, b in zip(query, row):
            diff = float(a) - float(b)
            dist += diff * diff
        scored.append((dist, idx))
    scored.sort()
    top = [idx for _, idx in scored[: min(k, len(scored))]]
    votes = Counter(library_labels[i] for i in top)
    best = max(votes.values())
    tied = {lab for lab, n in votes.items() if n == best}
    for i in top:
        if library_labels[i] in tied:
            return library_labels[i]


def hand_weighted_f1(true_labels, predicted_labels, classes):
    """Support-weighted F1 from explicit TP/FP/FN tallies."""
    tp = {c: 0 for c in classes}
    fp = {c: 0 for c in classes}
    fn = {c: 0 for c in classes}
    for t, p in zip(true_labels, predicted_labels):
        if t == p:
            tp[t] += 1
        else:
            fp[p] += 1
            fn[t] += 1
    total = len(true_labels)
    score = 0.0
    for c in classes:
        support = tp[c] + fn[c]
        if support == 0:
            continue
        denom_p = tp[c] + fp[c]
        precision = tp[c] / denom_p if denom_p else 0.0
        recall = tp[c] / support
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        score += (support / total) * f1
    return score


def straight_line_fitness(genome, layout, train_slides, eval_slides, k, classes):
    """Recompute (f1_fraction, f2_error) from scratch; returns a plain tuple."""
    library_rows = []
    library_labels = []
    for (_, offset, length), rec in zip(layout.segments, train_slides):
        mask = [bool(genome[offset + i]) for i in range(length)]
        library_rows.append(masked_mean(rec.embeddings.tolist(), mask))
        library_labels.append(rec.label)
    true_labels = [rec.label for rec in eval_slides]
    predicted = []
    for rec in eval_slides:
        query = masked_mean(rec.embeddings.tolist(), [True] * rec.rows)
        predicted.append(full_sort_knn(query, library_rows, library_labels, k))
    fraction = sum(1 for bit in genome if bit) / layout.total_patches
    error = 1.0 - hand_weighted_f1(true_labels, predicted, classes)
    return fraction, error


def _dominates(a, b):
    return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])


def constrained_dominates(a, b):
    """Deb's constrained domination on (f1, f2, violation) triples.

    The smaller violation dominates; at equal violation, plain domination
    on (f1, f2) decides.
    """
    if a[2] != b[2]:
        return a[2] < b[2]
    return _dominates(a, b)


def brute_force_fronts(fitness_pairs, dominates=_dominates):
    """Front assignment by pairwise dominance table plus iterative peeling.

    ``dominates`` defaults to plain domination on (f1, f2) pairs; pass
    ``constrained_dominates`` for (f1, f2, violation) triples.
    """
    n = len(fitness_pairs)
    dominators = [set() for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and dominates(fitness_pairs[j], fitness_pairs[i]):
                dominators[i].add(j)
    remaining = set(range(n))
    fronts = []
    while remaining:
        front = sorted(i for i in remaining if dominators[i].isdisjoint(remaining))
        fronts.append(front)
        remaining -= set(front)
    return fronts


def loop_crowding(points):
    """Crowding distance of each (f1, f2) point of one front.

    A front of one or two points is all infinite. Otherwise, one objective
    after the other, the points are sorted by (value, index): both ends
    become infinite, and when the objective's range is positive each point
    between them adds the gap between its two neighbours over the range.
    """
    n = len(points)
    if n <= 2:
        return [math.inf] * n
    dist = [0.0] * n
    for m in range(2):
        order = sorted(range(n), key=lambda i: (points[i][m], i))
        dist[order[0]] = math.inf
        dist[order[-1]] = math.inf
        span = points[order[-1]][m] - points[order[0]][m]
        if span > 0:
            for t in range(1, n - 1):
                dist[order[t]] += (points[order[t + 1]][m] - points[order[t - 1]][m]) / span
    return dist


def lexicographic_survivors(ranks, crowdings, population_size):
    """Survivor indices by sorting (rank asc, crowding desc, index asc)."""
    order = sorted(range(len(ranks)), key=lambda i: (ranks[i], -crowdings[i], i))
    return sorted(order[:population_size])


def survivor_order(ranks, crowdings, population_size):
    """Survivor indices in selection order, from a full ranking.

    Fronts go in rank order; a front that fits goes whole, in index order,
    and the front that overflows gives its members by (crowding desc, index).
    """
    order = []
    for rank in sorted(set(ranks)):
        front = [i for i, r in enumerate(ranks) if r == rank]
        room = population_size - len(order)
        if len(front) <= room:
            order += front
        else:
            order += sorted(front, key=lambda i: (-crowdings[i], i))[:room]
            break
    return order


def straight_line_retrieval_auc(genome, layout, train_slides, eval_slides):
    """Mean retrieval AUC of a genome's library, by counting pairs one by one.

    Queries are every evaluation slide and every training slide, each the
    mean of all its patches; a training slide is ranked against the other
    training slides only. A query scores the share of its (same-class,
    other-class) library pairs whose same-class slide is strictly nearer;
    queries lacking either kind are skipped.
    """
    library = []
    for (_, offset, length), rec in zip(layout.segments, train_slides):
        mask = [bool(genome[offset + i]) for i in range(length)]
        library.append((masked_mean(rec.embeddings.tolist(), mask), rec.label))
    queries = [(rec, None) for rec in eval_slides] + list(
        (rec, i) for i, rec in enumerate(train_slides)
    )
    scores = []
    for rec, left_out in queries:
        query = masked_mean(rec.embeddings.tolist(), [True] * rec.rows)
        same, other = [], []
        for j, (row, label) in enumerate(library):
            if j == left_out:
                continue
            dist = sum((float(a) - float(b)) ** 2 for a, b in zip(query, row))
            (same if label == rec.label else other).append(dist)
        if same and other:
            won = sum(1 for s in same for o in other if s < o)
            scores.append(won / (len(same) * len(other)))
    return sum(scores) / len(scores) if scores else 0.0


def _empty_segments(genome, layout):
    return [seg for seg, (_, offset, length) in enumerate(layout.segments)
            if not any(genome[offset : offset + length])]


def pairwise_crossover(parent_a, parent_b, layout, swap_p, rng):
    """One pair's uniform crossover, drawing as the spec orders it.

    P uniforms (a gene swaps where its uniform is below ``swap_p``), then,
    for each empty segment of child_a in order and then of child_b, one
    ``rng.integers(2)`` naming the parent (0 for a, 1 for b) the segment is
    copied back from.
    """
    swap = rng.random(layout.total_patches) < swap_p
    child_a = [b if s else a for a, b, s in zip(parent_a, parent_b, swap)]
    child_b = [a if s else b for a, b, s in zip(parent_a, parent_b, swap)]
    for child in (child_a, child_b):
        for seg in _empty_segments(child, layout):
            source = parent_a if rng.integers(2) == 0 else parent_b
            _, offset, length = layout.segments[seg]
            child[offset : offset + length] = list(source[offset : offset + length])
    return child_a, child_b


def pairwise_mutation(genome, layout, flip_p, rng):
    """One genome's bit-flip mutation, drawing as the spec orders it.

    P uniforms (a bit flips where its uniform is below ``flip_p``), then,
    for each emptied segment in order, one ``rng.integers(0, length)``
    naming the position set again.
    """
    flips = rng.random(layout.total_patches) < flip_p
    mutated = [bool(g) != bool(f) for g, f in zip(genome, flips)]
    for seg in _empty_segments(mutated, layout):
        _, offset, length = layout.segments[seg]
        mutated[offset + rng.integers(0, length)] = True
    return mutated


def _initial_genomes(layout, config, rng):
    """Both initialisations, one genome and one draw at a time."""
    total, n_slides = layout.total_patches, len(layout.segments)
    genomes = []
    if config.search == "guided":
        relevance = class_relevance(layout)
        genomes.append([True] * total)
        for _ in range(config.population_size - 1):
            keep = (n_slides + int(rng.integers(0, total - n_slides + 1))) / total
            genome = [False] * total
            for _, offset, length in layout.segments:
                by_relevance = sorted(range(length), key=lambda r: (-relevance[offset + r], r))
                for r in by_relevance[: max(1, math.ceil(keep * length))]:
                    genome[offset + r] = True
            genomes.append(genome)
        return genomes
    for _ in range(config.population_size):
        genome = [False] * total
        for _, offset, length in layout.segments:
            genome[offset + int(rng.integers(0, length))] = True
        extra = int(rng.integers(0, total - n_slides + 1))
        if extra:
            unset = [i for i in range(total) if not genome[i]]
            for i in rng.permutation(unset)[:extra]:
                genome[int(i)] = True
        genomes.append(genome)
    return genomes


def loop_ranking(fitness):
    """Every FitnessPair's constrained front and its crowding within that front."""
    triples = [(f.f1_fraction, f.f2_error, f.violation) for f in fitness]
    ranks = [0] * len(fitness)
    crowdings = [0.0] * len(fitness)
    for rank, front in enumerate(brute_force_fronts(triples, constrained_dominates)):
        for i, d in zip(front, loop_crowding([triples[i] for i in front])):
            ranks[i] = rank
            crowdings[i] = d
    return ranks, crowdings


def _loop_trace(generation, fitness, ranks):
    feasible = [f for f in fitness if f.violation == 0.0] or fitness
    f2 = [f.f2_error for f in feasible]
    f1 = [f.f1_fraction for f in feasible]
    return GenerationTrace(generation, min(f2), sum(f2) / len(f2), min(f1),
                           sum(f1) / len(f1), ranks.count(0))


def straight_line_run(dataset, config, score):
    """The generational loop written out: (population, traces).

    ``score(genome)`` gives one (P,) bool genome's ``FitnessPair``. The
    population is a list of (genome as a list of bools, fitness) in its
    final order; trace 0 describes the initial population. Each generation
    holds N tournaments, one at a time: two uniform draws of a member,
    the lower rank wins, then the larger crowding, then one
    ``integers(2)`` (0 for the first draw). The pool's members 2i and
    2i + 1 are crossed pair by pair, and the children, pair i's child_a
    then child_b, are mutated one by one. The population followed by the
    children are ranked together, and ``survivor_order`` picks the next
    population, each survivor keeping its rank and crowding.
    """
    layout, size = dataset.layout, config.population_size
    rng = np.random.default_rng(config.seed)
    population = _initial_genomes(layout, config, rng)
    fitness = [score(np.array(g, dtype=bool)) for g in population]
    ranks, crowdings = loop_ranking(fitness)
    traces = [_loop_trace(0, fitness, ranks)]
    for generation in range(1, config.generations + 1):
        pool = []
        for _ in range(size):
            i = int(rng.integers(0, size))
            j = int(rng.integers(0, size))
            if ranks[i] != ranks[j]:
                winner = i if ranks[i] < ranks[j] else j
            elif crowdings[i] != crowdings[j]:
                winner = i if crowdings[i] > crowdings[j] else j
            else:
                winner = i if rng.integers(2) == 0 else j
            pool.append(population[winner])
        children = []
        for a, b in zip(pool[0::2], pool[1::2]):
            children += pairwise_crossover(a, b, layout, config.crossover_swap_p, rng)
        children = [pairwise_mutation(c, layout, config.mutation_flip_p, rng) for c in children]
        combined = population + children
        combined_fitness = fitness + [score(np.array(c, dtype=bool)) for c in children]
        all_ranks, all_crowdings = loop_ranking(combined_fitness)
        order = survivor_order(all_ranks, all_crowdings, size)
        population = [combined[i] for i in order]
        fitness = [combined_fitness[i] for i in order]
        ranks = [all_ranks[i] for i in order]
        crowdings = [all_crowdings[i] for i in order]
        traces.append(_loop_trace(generation, fitness, ranks))
    return list(zip(population, fitness)), traces
