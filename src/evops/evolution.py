"""Coverage-safe genetic operators, Pareto ranking, and the generational loop.

Genomes are boolean numpy vectors over all training patches, one contiguous
segment per training slide. Every operator preserves the coverage
constraint: each segment keeps at least one set bit, repaired in place when
random variation would empty it.

Two searches share the loop (``EvolutionConfig.search``). ``"paper"`` is
the method as published: random initial genomes, ranked on the two
objectives alone. ``"guided"``, the default, makes two changes, both read
from the training and validation slides only:

* the initial genomes keep, in every slide, the patches that lean most
  towards their slide's class (``class_relevance``), one keep-fraction per
  genome, plus the genome that keeps every patch;
* a genome whose slide-retrieval AUC on the validation and training slides
  falls below that of the all-patches library is infeasible, and ranking
  puts feasible genomes first (``dominates``).

Without the constraint, a small validation split is soon classified
perfectly by very small, overfit genomes, and the best-by-validation
solution is the smallest of them.

Randomness discipline: one root seed feeds a single sequential generator.
Draw order is fixed (initialization, then per generation: parent selection,
all crossovers pair-by-pair, all mutations offspring-by-offspring), and
fitness evaluation consumes no randomness, so a run is a deterministic
function of (dataset, config). A generation makes one crossover call for all
its pairs and one mutation call for all its children. Each call draws its
rows' uniforms a window at a time, and rewinds the generator to just after
a row that needs a repair before drawing the repair
(``_vary_in_windows``), so the stream is draw for draw that of one row at
a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import GenomeLayout, SplitDataset, check_number_fields
from .fitness import FitnessEvaluator, FitnessPair, genome_matrix, segment_popcounts

SEARCHES = ("guided", "paper")


@dataclass(eq=False)
class Individual:
    """A patch subset and, once scored, its fitness.

    Compared by identity: duplicates of a genome are distinct individuals.
    """

    genome: np.ndarray  # (P,) bool
    fitness: FitnessPair | None = None


@dataclass
class EvolutionConfig:
    population_size: int = 100
    generations: int = 50
    crossover_swap_p: float = 0.9
    mutation_flip_p: float = 0.01
    k_neighbors: int = 5
    seed: int = 0
    search: str = "guided"  # or "paper"; see the module docstring

    def validate(self) -> None:
        if self.search not in SEARCHES:
            raise ValueError(f"search must be one of {', '.join(SEARCHES)}")
        check_number_fields(self)
        if self.population_size < 2 or self.population_size % 2 != 0:
            raise ValueError("population_size must be an even integer >= 2")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        for name in ("crossover_swap_p", "mutation_flip_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class GenerationTrace:
    """Per-generation population diagnostics."""

    generation: int
    best_f2_error: float
    mean_f2_error: float
    min_f1_fraction: float
    mean_f1_fraction: float
    front0_size: int


def coverage_valid(genome: np.ndarray, layout: GenomeLayout) -> bool:
    """True iff every slide segment has at least one set bit."""
    return bool((segment_popcounts(genome, layout) > 0).all())


def class_relevance(layout) -> np.ndarray:
    """Per training patch, how far it leans towards its own slide's class.

    The projection of the patch onto m_y - m, where m_y is the mean of all
    training patches of its slide's class and m the mean of those class
    means. Each slide's rows are read from ``layout.matrix`` and its label
    from ``layout.slides``. One value per genome position, in layout order.
    """
    rows = [layout.matrix[offset : offset + length] for _, offset, length in layout.segments]
    sums: dict[str, np.ndarray] = {}
    counts: dict[str, int] = {}
    for rec, slide in zip(layout.slides, rows):
        sums[rec.label] = sums.get(rec.label, 0.0) + slide.sum(axis=0)
        counts[rec.label] = counts.get(rec.label, 0) + len(slide)
    means = {label: sums[label] / counts[label] for label in sums}
    centre = np.mean(list(means.values()), axis=0)
    return np.concatenate([
        slide @ (means[rec.label] - centre) for rec, slide in zip(layout.slides, rows)
    ])


def initialize_population(layout, config, rng, relevance=None) -> list[Individual]:
    """Seed each slide with one random patch, then add a uniform extra count.

    The extra count is drawn uniformly from [0, P - S] per individual and
    placed on distinct currently-unset positions, so total set-bit counts
    cover the whole feasible range evenly.

    Given ``relevance`` (one score per position), the first individual
    keeps every patch, and each other one draws its count the same way but
    keeps, in every slide, the ceil(count / P * rows) patches of highest
    relevance (ties to the lower row).
    """
    if relevance is not None:
        return _ranked_population(layout, config, rng, relevance)
    total = layout.total_patches
    n_slides = layout.n_slides
    population = []
    for _ in range(config.population_size):
        genome = np.zeros(total, dtype=bool)
        picks = layout.offsets + rng.integers(0, layout.lengths)
        genome[picks] = True
        extra = int(rng.integers(0, total - n_slides + 1))
        if extra:
            unset = np.flatnonzero(~genome)
            genome[rng.permutation(unset)[:extra]] = True
        population.append(Individual(genome=genome))
    return population


def _ranked_population(layout, config, rng, relevance) -> list[Individual]:
    total = layout.total_patches
    # Each patch's place in its slide's order of descending relevance.
    within = np.empty(total, dtype=np.intp)
    for _, offset, length in layout.segments:
        order = np.argsort(-relevance[offset : offset + length], kind="stable")
        within[offset + order] = np.arange(length)
    population = [Individual(genome=np.ones(total, dtype=bool))]
    for _ in range(config.population_size - 1):
        keep = (layout.n_slides + int(rng.integers(0, total - layout.n_slides + 1))) / total
        counts = np.maximum(1, np.ceil(keep * layout.lengths))
        population.append(Individual(genome=within < np.repeat(counts, layout.lengths)))
    return population


# Uniforms drawn per variation window at most (512 KiB of float64): rows
# past a window's first repair are drawn for nothing, and a wide window
# costs memory on a wide genome.
_WINDOW_DOUBLES = 1 << 16


def _vary_in_windows(n, width, rng, vary, repair):
    """Draw ``n`` rows of ``width`` uniforms in windows, as one row at a time would.

    ``vary(rows, draws)`` applies a window's (m, width) uniforms to the
    output rows ``rows`` (a slice) and returns, per row, a bool array that
    is False where the row has a segment to repair; ``repair(i, has)``
    repairs row ``i`` from its array. Row by row, a repair draws after its
    row's uniforms and before the next row's, so the first row to repair
    closes its window: the generator goes back to its state before the
    window (``bit_generator.state``, which keeps the 32-bit half that
    ``integers`` may have buffered; ``advance`` would drop it), redraws the
    rows up to that one, and the repair draws from there. A window holds
    half the clean rows drawn since the last repair, at least one (drawn
    without saving the state) and at most ``_WINDOW_DOUBLES`` uniforms, so
    it grows only after clean windows and a cohort that repairs often
    draws one row at a time.
    """
    cap = max(1, _WINDOW_DOUBLES // width)
    row = 0
    run = 0  # clean rows since the last repair
    while row < n:
        m = min(max(1, run // 2), cap, n - row)
        saved = rng.bit_generator.state if m > 1 else None
        draws = rng.random((m, width))
        has = vary(slice(row, row + m), draws)
        if has.all():
            row += m
            run += m
            continue
        first = int(has.reshape(m, -1).all(axis=1).argmin()) if m > 1 else 0
        if first < m - 1:
            rng.bit_generator.state = saved
            rng.random(out=draws[: first + 1])
        repair(row + first, has[first])
        row += first + 1
        run = 0


def safe_uniform_crossover(parent_a, parent_b, layout, swap_p, rng):
    """Gene-wise exchange with probability swap_p, then segment repair.

    Any child segment left all-zero is overwritten with the corresponding
    segment of one of the two original parents, chosen at random; both
    parents are coverage-valid so repair always succeeds.

    One (P,) pair of parents gives two (P,) children; (N, P) parents give
    two (N, P) matrices, row i the children of row i's pair. The random
    stream is that of the pairs crossed one after another: each pair draws
    P uniforms, then one parent per empty segment of child_a, then of
    child_b.
    """
    pa = genome_matrix(parent_a, layout)
    pb = genome_matrix(parent_b, layout)
    differ = pa ^ pb
    children = np.empty((len(pa), 2, layout.total_patches), dtype=bool)

    def vary(rows, draws):
        swap = draws < swap_p
        swap &= differ[rows]
        np.bitwise_xor(pa[rows], swap, out=children[rows, 0])
        np.bitwise_xor(pb[rows], swap, out=children[rows, 1])
        return np.logical_or.reduceat(children[rows], layout.offsets, axis=-1)

    def repair(i, has):
        for child, child_has in zip(children[i], has):  # child_a's segments first
            for seg in np.flatnonzero(~child_has):
                _, offset, length = layout.segments[seg]
                source = pa if rng.integers(2) == 0 else pb
                child[offset : offset + length] = source[i, offset : offset + length]

    _vary_in_windows(len(pa), layout.total_patches, rng, vary, repair)
    shape = np.shape(parent_a)
    return children[:, 0].reshape(shape), children[:, 1].reshape(shape)


def safe_bitflip_mutation(genome, layout, flip_p, rng):
    """Flip each bit independently, then re-seed any emptied segment.

    One (P,) genome gives one (P,) genome; an (N, P) matrix gives (N, P).
    The random stream is that of the rows mutated one after another: each
    row draws P uniforms, then one position per emptied segment.
    """
    genomes = genome_matrix(genome, layout)
    mutated = np.empty_like(genomes)

    def vary(rows, draws):
        mutated[rows] = genomes[rows] ^ (draws < flip_p)
        return np.logical_or.reduceat(mutated[rows], layout.offsets, axis=-1)

    def repair(i, has):
        for seg in np.flatnonzero(~has):
            _, offset, length = layout.segments[seg]
            mutated[i, offset + rng.integers(0, length)] = True

    _vary_in_windows(len(genomes), layout.total_patches, rng, vary, repair)
    return mutated.reshape(np.shape(genome))


def dominates(a: FitnessPair, b: FitnessPair) -> bool:
    """Whether ``a`` dominates ``b``: cell [0, 1] of the pair's ``_dominance``."""
    return bool(_dominance(_objectives([a, b]))[0, 1])


def _objectives(fitness) -> np.ndarray:
    """(N, 3) float64 rows of (f1_fraction, f2_error, violation), one per FitnessPair."""
    return np.array([(fp.f1_fraction, fp.f2_error, fp.violation) for fp in fitness], dtype=float)


def _dominance(objectives) -> np.ndarray:
    """(N, N) constrained domination (Deb et al. 2002) of (N, 3) objectives.

    Cell [i, j] is set when i dominates j. A smaller violation dominates
    outright (so a feasible genome dominates every infeasible one); at
    equal violation, i dominates j iff it is no worse in both objectives
    and strictly better in one. Being no worse both ways is being equal
    in both, so "strictly better in one" is "j is not no worse than i":
    one ``no_worse`` matrix and its transpose decide every pair.
    """
    f1, f2, viol = np.ascontiguousarray(objectives.T)
    no_worse = f1[:, None] <= f1
    no_worse &= f2[:, None] <= f2
    dom = no_worse & ~no_worse.T
    dom &= viol[:, None] == viol
    dom |= viol[:, None] < viol
    return dom


def _fronts(objectives):
    """Yield the index arrays of ``fast_non_dominated_sort``'s fronts of (N, 3) objectives."""
    dom = _dominance(objectives)
    counts = dom.sum(axis=0).astype(np.int64)

    current = np.flatnonzero(counts == 0)
    while current.size:
        yield current
        counts[current] = -(len(objectives) + 1)
        counts -= dom[current].sum(axis=0)
        current = np.flatnonzero(counts == 0)


def fast_non_dominated_sort(population) -> list[list[int]]:
    """Partition a list of ``Individual``s' indices into fronts under ``dominates``.

    Front 0 holds individuals dominated by none; front i holds those
    dominated only by members of earlier fronts.
    """
    return [front.tolist() for front in _fronts(_objectives(ind.fitness for ind in population))]


def _crowding(objectives, front) -> np.ndarray:
    """``crowding_distance`` of every row within its front, in one pass.

    ``objectives`` holds (n, 3) rows grouped by front, and ``front`` each
    row's front id, nondecreasing; within a front, rows come in index
    order. Each objective sorts all rows once, by (front, value, row), so
    every front keeps its place and is one run of the sorted order: its
    first and last members get +inf (so does every member of a front of
    two or fewer), and each member between them adds (next - prev) / span
    where its front's span is positive. A member's crowding is thus its
    two terms' sum, as one front's loop adds them.
    """
    n = len(objectives)
    first, last = np.ones(n, dtype=bool), np.ones(n, dtype=bool)
    np.not_equal(front[1:], front[:-1], out=first[1:])
    last[:-1] = first[1:]
    starts, stops = np.flatnonzero(first), np.flatnonzero(last)
    sizes = stops - starts + 1
    ends = first | last
    dist = np.zeros(n)
    for m in range(2):  # the violation is no objective
        order = np.lexsort((objectives[:, m], front))
        values = objectives[order, m]
        span = np.repeat(values[stops] - values[starts], sizes)
        term = np.zeros(n)
        np.divide(values[2:] - values[:-2], span[1:-1], out=term[1:-1], where=span[1:-1] > 0)
        term[ends] = math.inf
        dist[order] += term
    return dist


def crowding_distance(front_fitness) -> list[float]:
    """Per-solution density measure within one front.

    Boundary solutions of each objective's sorted order get infinity;
    interior solutions accumulate the normalized gap between neighbors.
    An objective with zero range contributes nothing.
    """
    objectives = _objectives(front_fitness)
    return _crowding(objectives, np.zeros(len(objectives), dtype=np.intp)).tolist()


def select_parents(rank, crowding, rng) -> list[int]:
    """Binary tournaments on (rank, crowding): one winner's index per member.

    A tournament draws two members; the lower rank wins, then the larger
    crowding, then a coin flip, whose 0 picks the first draw. The two
    members are two scalar draws, the stream of one ``size=2`` draw.
    """
    rank, crowding = rank.tolist(), crowding.tolist()
    winners = []
    n = len(rank)
    for _ in range(n):
        a = int(rng.integers(0, n))
        b = int(rng.integers(0, n))
        if rank[a] != rank[b]:
            winner = a if rank[a] < rank[b] else b
        elif crowding[a] != crowding[b]:
            winner = a if crowding[a] > crowding[b] else b
        else:
            winner = a if rng.integers(2) == 0 else b
        winners.append(winner)
    return winners


def select_survivors(objectives, population_size):
    """Elitist replacement: fill by whole fronts, truncate by crowding.

    ``objectives`` holds the (N, 3) rows of the population and then its
    offspring. Returns the survivors' indices in selection order, with
    their rank and crowding arrays. Whole fronts go in index order; the
    overflowing front, its crowding computed over the whole front, gives
    its members by descending crowding, ties to the lower index. The
    crowding of every front kept is one ``_crowding`` pass. Fronts after
    the cut are not ranked.
    """
    fronts, count = [], 0
    for front in _fronts(objectives):
        fronts.append(front)
        count += len(front)
        if count >= population_size:
            break
    keep = np.concatenate(fronts)
    rank = np.repeat(np.arange(len(fronts)), [len(f) for f in fronts])
    crowding = _crowding(objectives[keep], rank)
    if count > population_size:  # the last front overflows
        head = count - len(front)
        dist, need = crowding[head:], population_size - head
        cut = np.concatenate([np.arange(head), head + np.lexsort((front, -dist))[:need]])
        keep, rank, crowding = keep[cut], rank[cut], crowding[cut]
    return keep, rank, crowding


def _trace(generation, objectives, rank) -> GenerationTrace:
    # The feasible members, or everyone when none is: survivor selection
    # keeps the best feasible f2, so best_f2_error never rises.
    feasible = objectives[objectives[:, 2] == 0.0]
    f1, f2 = (feasible if len(feasible) else objectives)[:, :2].T.tolist()
    return GenerationTrace(
        generation=generation,
        best_f2_error=min(f2),
        mean_f2_error=sum(f2) / len(f2),
        min_f1_fraction=min(f1),
        mean_f1_fraction=sum(f1) / len(f1),
        front0_size=int(np.count_nonzero(rank == 0)),
    )


def run_evolution(dataset: SplitDataset, config: EvolutionConfig, workers=1,
                  on_generation=None):
    """Evolve patch subsets against the validation split.

    ``config.search`` picks the published search or the guided one (see the
    module docstring). Returns (final population, per-generation traces):
    the population is a list of ``Individual``s in its final order. Trace 0
    describes the evaluated initial population. ``on_generation`` receives
    each trace as it is produced. Deterministic in (dataset, config.seed).
    ``workers`` has no effect; genomes are evaluated serially, which beat a
    thread pool.
    """
    config.validate()
    if not dataset.train:
        raise ValueError("train split is empty")
    if not dataset.validation:
        raise ValueError("validation split is empty")

    layout = dataset.layout
    guided = config.search == "guided"
    evaluator = FitnessEvaluator(
        layout, dataset.validation, config.k_neighbors,
        classes=dataset.classes, constrained=guided,
    )
    rng = np.random.default_rng(config.seed)

    n = config.population_size
    relevance = class_relevance(layout) if guided else None
    # Population rows, then offspring rows, as survivor selection reads them. A fresh
    # (2N, P) array per generation raised glibc's mmap threshold and the peak RSS.
    genomes = np.empty((2 * n, layout.total_patches), dtype=bool)
    genomes[:n] = [ind.genome for ind in initialize_population(layout, config, rng, relevance)]
    objectives = evaluator.evaluate(genomes[:n])
    # Everyone survives; the ranking goes back into population order.
    order, rank, crowding = select_survivors(objectives, n)
    back = np.argsort(order)
    rank, crowding = rank[back], crowding[back]
    traces = [_trace(0, objectives, rank)]
    if on_generation:
        on_generation(traces[-1])

    for generation in range(1, config.generations + 1):
        pool = genomes[select_parents(rank, crowding, rng)]
        pairs = safe_uniform_crossover(pool[0::2], pool[1::2], layout, config.crossover_swap_p,
                                       rng)
        # Each pair's two children in turn, the order mutation draws them in.
        genomes[n:] = np.stack(pairs, axis=1).reshape(pool.shape)
        del pool, pairs  # freed before mutation allocates: a lower peak on wide genomes
        genomes[n:] = safe_bitflip_mutation(genomes[n:], layout, config.mutation_flip_p, rng)
        objectives = np.concatenate([objectives, evaluator.evaluate(genomes[n:])])
        keep, rank, crowding = select_survivors(objectives, n)
        genomes[:n], objectives = genomes[keep], objectives[keep]
        traces.append(_trace(generation, objectives, rank))
        if on_generation:
            on_generation(traces[-1])

    population = [Individual(genome, FitnessPair(*row))
                  for genome, row in zip(genomes[:n], objectives.tolist())]
    return population, traces
