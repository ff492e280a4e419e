"""Independent straight-line re-implementations used as test oracles.

Everything here is deliberately written with plain Python loops and dicts,
sharing no code path with the package: masked means, full-sort k-NN,
hand confusion-matrix F1, pairwise dominance-count front peeling,
lexicographic survivor selection, and crossover and mutation one pair or
genome at a time, in the order they draw from the generator.
"""

from collections import Counter


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


def brute_force_fronts(fitness_pairs):
    """Front assignment by pairwise dominance table plus iterative peeling."""
    n = len(fitness_pairs)
    dominators = [set() for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and _dominates(fitness_pairs[j], fitness_pairs[i]):
                dominators[i].add(j)
    remaining = set(range(n))
    fronts = []
    while remaining:
        front = sorted(i for i in remaining if dominators[i].isdisjoint(remaining))
        fronts.append(front)
        remaining -= set(front)
    return fronts


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
