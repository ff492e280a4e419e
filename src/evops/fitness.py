"""Objective evaluation: selected-patch fraction and k-NN classification error.

An individual's two objectives, both minimized:

* fraction of training patches its genome keeps, and
* one minus the support-weighted F1 obtained when each evaluation slide
  (represented by the mean of all its patches) is classified by k-NN
  against a reference library of per-slide means over selected patches.

A constrained evaluator also scores a genome's retrieval AUC (see
``FitnessEvaluator``) and reports how far it falls short of the
all-patches library's as a constraint violation; the objectives are the
same either way.

Labels may be any sortable hashable values. The evaluator encodes its
slides' labels once as class indices (``class_codes``) and passes those to
``knn_predict``, so it votes, tallies and scores without building labels.

All operations here are pure functions of immutable inputs; means and
distances accumulate in double precision.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dataset import GenomeLayout, slide_mean_all


class CoverageViolation(Exception):
    """A genome segment has no set bit; signals an operator/repair bug."""


class LabelError(Exception):
    """A label fell outside the declared class list."""


@dataclass(frozen=True)
class FitnessPair:
    """Objective values: (selected fraction, classification error), both in [0,1].

    ``violation`` is how far the genome misses the search's constraint; 0
    means feasible. It is not an objective (``astuple`` leaves it out), but
    ranking compares it first (see ``evolution.dominates``).
    """

    f1_fraction: float
    f2_error: float
    violation: float = 0.0

    def astuple(self) -> tuple[float, float]:
        return (self.f1_fraction, self.f2_error)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts[true, predicted] over an ordered class list."""

    classes: tuple[str, ...]
    counts: np.ndarray  # (C, C) int64

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class ReferenceLibrary:
    """One aggregated vector per training slide, with the slides' labels.

    ``vectors`` is (S, dim), or (N, S, dim) for a batch of N genomes, in the
    layout's slide order; the labels are shared by every row of a batch.
    ``labels`` may be any sortable hashable values: ``aggregate_selected``
    gives the slides' labels, and ``FitnessEvaluator`` class indices.

    ``query_distances``, when set, holds the expanded squared distances
    (``expanded_sq_distances``) from the Q queries that ``knn_predict``
    will be given to every vector, (Q, S) or (N, Q, S); the k-NN then
    shortlists from them instead of expanding again; ``FitnessEvaluator`` always sets them.
    """

    vectors: np.ndarray  # (S, dim) or (N, S, dim) float64
    labels: tuple
    query_distances: np.ndarray | None = None

    def __len__(self) -> int:
        return self.vectors.shape[-2]


def segment_popcounts(genome: np.ndarray, layout: GenomeLayout) -> np.ndarray:
    """Number of set bits in each slide segment, along the last axis."""
    return np.add.reduceat(genome, layout.offsets, axis=-1, dtype=np.int64)


def genome_matrix(genome, layout) -> np.ndarray:
    """``genome`` as an (N, P) bool matrix; one (P,) genome gives one row."""
    genomes = np.asarray(genome, dtype=bool)
    if genomes.ndim not in (1, 2) or genomes.shape[-1] != layout.total_patches:
        raise ValueError(
            f"genome shape {genomes.shape} is neither ({layout.total_patches},) "
            f"nor (N, {layout.total_patches})"
        )
    return genomes.reshape(-1, layout.total_patches)


def aggregate_selected(genome, layout) -> ReferenceLibrary:
    """Build the reference library: per-slide mean over selected patches only.

    ``genome`` is one (P,) genome, giving (S, dim) vectors, or an (N, P)
    matrix, giving (N, S, dim). Each slide's sums are one matrix product of
    its columns of the genome matrix with its rows of ``layout.matrix``.
    The products are exact (each bit is 0 or 1), and so is every sum, in
    any order, of a column that ``dataset.truncate_columns`` leaves
    unchanged. The other columns (``layout.column_slices``) are summed
    again slice by slice, each slice exactly, and the slices are added in
    a fixed order. So a library's bits do not depend on the batch shape,
    the block size, the BLAS kernel or its thread count.

    Row s of a library is ``layout.slides[s]``, and carries its label.
    Raises CoverageViolation naming the slide of the first empty segment
    of the first genome that has one.
    """
    batched = np.ndim(genome) == 2
    genomes = genome_matrix(genome, layout)
    counts = segment_popcounts(genomes, layout)
    if (counts == 0).any():
        row, bad = np.argwhere(counts == 0)[0]
        which = f" of genome {row}" if batched else ""
        raise CoverageViolation(
            f"segment {bad}{which} (slide '{layout.slides[bad].slide_id}') has no selected patch"
        )
    matrix = layout.matrix
    vectors = np.empty((len(genomes), layout.n_slides, matrix.shape[1]))
    for s, (_, offset, length) in enumerate(layout.segments):
        segment = slice(offset, offset + length)
        selected = genomes[:, segment].astype(np.float64)
        np.matmul(selected, matrix[segment], out=vectors[:, s])
        if s in layout.column_slices:
            dims, slices = layout.column_slices[s]
            # Each slice's sums are exact; adding them in slice order rounds
            # the same way in any batch.
            vectors[:, s, dims] = functools.reduce(np.add, selected @ slices)
    vectors /= counts[..., None]
    return ReferenceLibrary(
        vectors=vectors if batched else vectors[0],
        labels=tuple(rec.label for rec in layout.slides),
    )


def expanded_sq_distances(queries, vectors, query_norms) -> np.ndarray:
    """(Q, n) squared Euclidean distances as |q|^2 - 2 q.v + |v|^2.

    ``vectors`` is (n, dim), or (N, n, dim) for a batch of N genomes'
    libraries, giving (N, Q, n). ``query_norms`` holds each query's |q|^2.
    A batch is N stacked products of the same (Q, dim) query matrix with
    each genome's (dim, n) vectors, the shape one genome gets alone: a
    GEMM row's bits can depend on how many rows the product has, so a
    product is never widened to (Q, N * n), and no query row is added to
    or dropped from it, to keep every genome's bits independent of its
    batch. One matrix product, so fast; but rounding may split a tie
    between two equidistant rows, which the difference form would keep.
    """
    flat = vectors.reshape(-1, vectors.shape[-1])  # each row's |v|^2, one row at a time
    dists = (-2.0 * queries) @ vectors.swapaxes(-1, -2)
    dists += query_norms[:, None]
    dists += np.einsum("ij,ij->i", flat, flat).reshape(vectors.shape[:-1])[..., None, :]
    return dists


# Two expanded distances of a query within this share of |q|^2 + d_k of
# each other are a near tie, and so is a row this near d_k, the query's
# k-th smallest expanded distance (at least 0): a query that meets one is
# re-scored exactly. A row within the margin of d_k has |v|^2 <= 2|q|^2 +
# 2(d_k + margin), so its rounding error, about dim * 1e-16 * (|q|^2 +
# |v|^2), stays far inside the margin; a row far from d_k cannot cross it.
_RESCORE_MARGIN = 1e-9


def nearest_rows(queries, vectors, k, approx=None) -> np.ndarray:
    """(Q, min(k, n)) indices of each query's nearest rows, nearest first.

    ``vectors`` is (n, dim), or (N, n, dim) for a batch of N genomes,
    giving (N, Q, min(k, n)). Ordered by squared distance computed from
    explicit differences, ties to the lower row index. A query's shortlist
    is the rows within a margin of its k-th expanded distance d_k
    (``expanded_sq_distances``), the margin being ``_RESCORE_MARGIN``
    times |q|^2 + max(d_k, 0); so only the distances and the re-scored rows
    are read. A shortlist of exactly k rows, no two within the margin of
    each other, is ordered by its expanded distances: their rounding is far
    inside the margin, so exact differences would order it the same. Any
    other shortlist is re-scored from differences.
    ``approx`` may pass the expanded distances, shaped as the result; any
    rounding of them well inside the margin gives the same rows.
    """
    n, dim = vectors.shape[-2:]
    k = min(k, n)
    batch = vectors.reshape(-1, n, dim)
    n_queries = queries.shape[0]
    norms = np.einsum("ij,ij->i", queries, queries)
    if approx is None:
        approx = expanded_sq_distances(queries, batch, norms)
    approx = approx.reshape(len(batch), n_queries, n)
    kth = np.partition(approx, k - 1, axis=-1)[..., k - 1]
    margin = _RESCORE_MARGIN * (norms + np.maximum(kth, 0.0))
    near = approx <= (kth + margin)[..., None]
    # Shortlisted rows in (genome, query, row) order; a cell is one (genome, query).
    flat = np.flatnonzero(near)
    cell, cols = np.divmod(flat, n)
    counts = np.bincount(cell, minlength=margin.size)
    starts = np.cumsum(counts) - counts
    # Every shortlist holds at least k rows. Its first k, sorted by expanded
    # distance, stand unless the cell is re-scored below; a cell that is not
    # holds just those k rows, no two within the margin, in a unique order.
    dists = np.take(approx, flat[starts[:, None] + np.arange(k)])
    order = np.argsort(dists, axis=1)
    dists = np.take_along_axis(dists, order, axis=1)
    nearest = cols[starts[:, None] + order]
    near_tie = (dists[:, 1:] <= dists[:, :-1] + margin.reshape(-1, 1)).any(axis=1)
    tied = np.flatnonzero(near_tie | (counts > k))
    if tied.size:
        # The tied cells' shortlists, one row each, padded with +inf past
        # its count; a stable sort of short rows keeps tied distances in
        # row order (one stable sort of every candidate at once costs more
        # than linear time).
        slots = np.arange(counts[tied].max())
        kept = slots < counts[tied, None]
        picked = (starts[tied, None] + slots)[kept]
        at = cell[picked]
        # np.take gathers the same rows as fancy indexing, faster.
        diffs = np.take(batch.reshape(-1, dim), at // n_queries * n + cols[picked], axis=0)
        diffs -= np.take(queries, at % n_queries, axis=0)  # (v - q)**2 has the bits of (q - v)**2
        padded = np.full(kept.shape, np.inf)
        padded[kept] = np.einsum("ij,ij->i", diffs, diffs)
        order = np.argsort(padded, axis=1, kind="stable")[:, :k]
        nearest[tied] = cols[starts[tied, None] + order]
    return nearest.reshape(vectors.shape[:-2] + (n_queries, k))


@functools.lru_cache(maxsize=16)
def _label_codes(labels: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Distinct labels, sorted, and each label's index among them."""
    return np.unique(np.array(labels), return_inverse=True)


def knn_predict(query, library: ReferenceLibrary, k: int):
    """Majority-vote label of the k nearest library rows (squared Euclidean).

    ``query`` is one vector, giving one label, or a (Q, dim) matrix, giving
    a list of Q labels. A batch library of N genomes gives an array of N
    labels, or of (N, Q) labels. Distance ties resolve to the lower row
    index; vote ties resolve to the label of the nearest neighbor among
    the tied classes. The library's ``query_distances``, when set, must
    belong to these queries. Labels are returned as the library holds them,
    so class-index labels give class indices.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(library) == 0:
        raise ValueError("library is empty")
    queries = np.asarray(query, dtype=np.float64)
    names, codes = _label_codes(tuple(library.labels))
    nearest = nearest_rows(np.atleast_2d(queries), library.vectors, k, library.query_distances)
    neighbors = codes[nearest].reshape(-1, nearest.shape[-1])
    rows = np.arange(neighbors.shape[0])[:, None]
    votes = np.bincount((rows * len(names) + neighbors).ravel(), minlength=rows.size * len(names))
    votes = votes.reshape(rows.size, len(names))
    tied = votes == votes.max(axis=1, keepdims=True)
    nearest_tied = neighbors[rows[:, 0], np.argmax(tied[rows, neighbors], axis=1)]
    labels = names[nearest_tied].reshape(nearest.shape[:-1])
    if queries.ndim == 1:
        labels = labels[..., 0]
    return labels if library.vectors.ndim == 3 else labels.tolist()


def _lost_pairs64(dists, same_bit, same_before) -> np.ndarray:
    """Per row, the (same, other) pairs whose same-class entry is not nearer.

    ``dists`` are non-negative, and are overwritten. ``same_bit`` is 1 for a
    same-class entry and 0 for an other-class one, or for the one +inf entry
    a row may hold, which sorts last and so never counts. ``same_before`` is
    n(n-1)/2 for a row's n same-class entries.
    """
    # A non-negative double's bits sort as an unsigned integer, so a plain
    # sort of (bits << 1 | same) orders each row by distance, other-class
    # entries first within a tie.
    keys = dists.view(np.uint64)
    keys <<= np.uint64(1)
    keys |= same_bit
    keys.sort(axis=-1)
    keys &= np.uint64(1)
    # A same-class entry has every nearer or tied other-class entry before
    # it; the same-class entries before it add up to n(n-1)/2 over the row.
    return keys @ np.arange(keys.shape[-1], dtype=np.uint64) - same_before


def _lost_pairs(dists, same_bit, same_before, work) -> np.ndarray:
    """``_lost_pairs64``'s counts of ``dists`` clamped at zero, ranked on
    32-bit keys where that is exact.

    ``dists`` are left as they are; rounding can dip them just below zero.
    ``work`` is a flat uint32 array of at least ``2 * dists.size`` values
    to rank in, which a caller keeps across calls so that they allocate
    nothing of that size.

    Rounding to float32 is monotone, so distinct float32 distances keep
    their float64 order, and equal float32 distances of one class count as
    any order of them does. Only a same-class and an other-class entry
    that tie in float32 may be counted otherwise; every row holding such a
    tie is counted again by ``_lost_pairs64`` from ``dists``.
    """
    n = dists.shape[-1]
    if n * (n - 1) // 2 >= 1 << 32:  # a row's position sum would wrap in uint32
        return _lost_pairs64(np.maximum(dists, 0.0), same_bit, same_before)
    keys = work[: dists.size].reshape(dists.shape)
    rounded = keys.view(np.float32)
    with np.errstate(over="ignore"):  # beyond float32's range is +inf, still in order
        np.copyto(rounded, dists, casting="same_kind")
    if keys.view(np.int32).min(initial=0) < 0:  # a negative or -0.0: rare
        np.maximum(rounded, np.float32(0.0), out=rounded)
    # As in _lost_pairs64; the shift also drops the sign bit of a -0.0.
    keys <<= np.uint32(1)
    keys |= same_bit
    keys.sort(axis=-1)
    # Sorted neighbours that differ only in the low bit are a mixed tie: a
    # zero of neighbour ^ key ^ 1. One pass over the flat keys, in place;
    # the pairs that straddle two rows are set apart.
    flat = keys.reshape(-1)
    ties = work[dists.size : 2 * dists.size]
    np.bitwise_xor(flat[1:], flat[:-1], out=ties[:-1])
    ties ^= np.uint32(1)
    ties[n - 1 :: n] = 1
    keys &= np.uint32(1)
    lost = np.einsum("...s,s->...", keys, np.arange(n, dtype=np.uint32)) - same_before
    if ties.min(initial=1) == 0:
        redo = np.unique(np.flatnonzero(ties == 0) // n)
        rows = redo % dists.shape[-2]
        lost.reshape(-1)[redo] = _lost_pairs64(
            np.maximum(dists.reshape(-1, n)[redo], 0.0), same_bit[rows], same_before[rows]
        )
    return lost


def class_codes(labels, names) -> tuple[np.ndarray, tuple]:
    """Each label's index in ``names``, and ``names`` extended to cover them.

    A label outside ``names`` gets an index at or past ``len(names)``,
    assigned in order of first appearance and appended to the returned
    names, so every index names its label.
    """
    names = list(names)
    index = {name: i for i, name in enumerate(names)}
    codes = []
    for label in labels:
        if label not in index:
            index[label] = len(names)
            names.append(label)
        codes.append(index[label])
    return np.array(codes, dtype=np.intp), tuple(names)


def _tally(truth, guess, names, n_classes) -> np.ndarray:
    """(N, C, C) counts[n, true, predicted] from one ``bincount``.

    ``truth`` holds Q class indices and ``guess`` N genomes' (N, Q)
    predictions, both indexing ``names`` (see ``class_codes``). An index at
    or past ``n_classes`` raises the LabelError for the first such label of
    the first genome that has one, the true label before the predicted one.
    """
    bad_truth = truth >= n_classes
    bad = bad_truth | (guess >= n_classes)
    if bad.any():
        row, q = np.argwhere(bad)[0]
        kind, code = ("true", truth[q]) if bad_truth[q] else ("predicted", guess[row, q])
        raise LabelError(f"{kind} label '{names[code]}' not in class list")
    n_genomes = len(guess)
    cells = guess + truth * n_classes
    cells += np.arange(0, n_genomes * n_classes**2, n_classes**2)[:, None]
    counts = np.bincount(cells.ravel(), minlength=n_genomes * n_classes**2)
    return counts.astype(np.int64, copy=False).reshape(n_genomes, n_classes, n_classes)


def confusion_matrix(true_labels, predicted_labels, classes) -> ConfusionMatrix:
    """Tally counts[true, predicted]; labels must come from ``classes``.

    ``predicted_labels`` is one list of labels, giving (C, C) counts, or an
    (N, Q) array of N genomes' predictions for the same Q true labels,
    giving (N, C, C); every count comes from one ``bincount``. The
    LabelError names the first label outside ``classes`` in the first
    genome that has one, the true label before the predicted one.
    """
    predicted = np.asarray(predicted_labels, dtype=object)
    n_true = len(true_labels)
    if predicted.shape[-1:] != (n_true,):
        raise ValueError("label lists differ in length")
    if not n_true:
        raise ValueError("label lists are empty")
    codes, names = class_codes([*true_labels, *predicted.flat], classes)
    counts = _tally(codes[:n_true], codes[n_true:].reshape(-1, n_true), names, len(classes))
    return ConfusionMatrix(
        classes=tuple(classes), counts=counts[0] if predicted.ndim == 1 else counts
    )


def weighted_f1_from_confusion(cm: ConfusionMatrix):
    """Support-weighted mean of per-class F1; zero-denominator terms are 0.

    (C, C) counts give a float; a batch's (N, C, C) give an (N,) array.
    Every genome's terms are computed elementwise and summed class by
    class in order, so each genome has the bits it gets alone.
    """
    counts = np.asarray(cm.counts)
    tp = np.diagonal(counts, axis1=-2, axis2=-1)
    support = counts.sum(axis=-1)
    predicted = counts.sum(axis=-2)
    # tp is 0 wherever nothing is predicted or supported, so a zero
    # denominator may be replaced by 1; so may precision + recall where
    # both are 0.
    precision = tp / np.maximum(predicted, 1)
    recall = tp / np.maximum(support, 1)
    both = precision + recall
    f1 = 2 * precision * recall / np.where(both > 0, both, 1.0)
    terms = (support / support.sum(axis=-1, keepdims=True)) * f1
    # accumulate adds the classes one after another, as a scalar loop does.
    score = np.add.accumulate(terms, axis=-1)[..., -1]
    return float(score) if counts.ndim == 2 else score


def weighted_f1(true_labels, predicted_labels, classes) -> float:
    """Support-weighted F1 of a prediction list against the true labels."""
    return weighted_f1_from_confusion(
        confusion_matrix(true_labels, predicted_labels, classes)
    )


# evaluate_full aggregates a batch in blocks of rows whose libraries hold at
# most this many values (1 MiB of float64) or as many as the training
# matrix, whichever is more. Each block reads the whole matrix, so a batch
# whose libraries are smaller than the matrix reads it once, and a block's
# libraries take no more memory than 1 MiB or the matrix. Library bits do
# not depend on the block (see aggregate_selected). A block's libraries are
# dropped once scored; the batch is tallied once, after its last block.
_LIBRARY_CELLS = 1 << 17
# Each library block is scored in blocks of genomes whose k-NN and AUC work
# arrays hold at most about this many float64 values (2 MiB): per genome
# its AUC distance matrix, the k-NN's (queries x S) distances and the rows
# it re-scores from differences (k shortlisted rows per query, times dim,
# when every query has a near tie; most have none).
# The AUC matrix also sizes _lost_pairs' 4-byte keys and tie marks, as
# many bytes again (at most 2 MiB), which the evaluator keeps from block
# to block. Bigger blocks save per-call overhead while they fit the cache;
# a 300-slide cohort's AUC matrix alone is 380 x 300 values, and there two
# or more genomes per block were no faster than one. A block keeps only
# its (genomes x queries) class indices and its AUCs.
_SCORING_CELLS = 1 << 18


class FitnessEvaluator:
    """Evaluates genomes of ``layout`` against one fixed evaluation split.

    The training labels, the default ``classes`` and the retrieval queries
    come from ``layout.slides``, the one handle on the training split.
    Holds the evaluation-slide mean vectors (they never change within a
    run), and memoizes no fitness: every row it is given is scored,
    repeats included. Evaluation is pure and consumes no randomness, so a
    genome's fitness does not depend on when or how often it is evaluated.

    With ``constrained`` set, each genome is also scored by its retrieval
    AUC (``retrieval_auc``, which needs ``constrained=True``), and the
    violation (``evaluate``'s third column, ``FitnessPair.violation``) is
    how far that falls below the AUC of the library that keeps every patch.
    A scoring block's one distance product has a row per evaluation slide,
    which the k-NN reads, then, if constrained, one per training slide.
    """

    def __init__(self, layout, eval_slides, k, classes=None, constrained=False):
        if not eval_slides:
            raise ValueError("eval_slides is empty")
        self.layout = layout
        self.eval_slides = tuple(eval_slides)
        self.k = int(k)
        if classes is None:
            classes = sorted(
                {rec.label for rec in layout.slides}
                | {rec.label for rec in self.eval_slides}
            )
        self.classes = tuple(classes)
        # Slide means: every evaluation slide, then, for the AUC, every training slide.
        queries = self.eval_slides + (layout.slides if constrained else ())
        self._queries = np.stack([slide_mean_all(rec) for rec in queries])
        self._query_norms = np.einsum("ij,ij->i", self._queries, self._queries)
        # Labels as class indices, encoded together so that equal labels
        # outside ``classes`` share an index; the k-NN votes in these.
        n_eval = len(self.eval_slides)
        codes, self._names = class_codes(
            [rec.label for rec in self.eval_slides + layout.slides], self.classes
        )
        self._truth = codes[:n_eval]
        self._train_codes = tuple(codes[n_eval:].tolist())
        self.reference_auc = None
        if constrained:
            self._setup_retrieval()
            self.reference_auc = self.retrieval_auc(np.ones(layout.total_patches, dtype=bool))

    def _setup_retrieval(self) -> None:
        # Query row n_eval + i is training slide i, left out of its own
        # ranking: its self cell, column i, is +inf, which sorts it last.
        n_eval, n_train = len(self.eval_slides), self.layout.n_slides
        codes = np.concatenate([self._truth, self._train_codes])
        same = codes[:, None] == codes[None, n_eval:]
        self._self_cells = (n_eval + np.arange(n_train), np.arange(n_train))
        same[self._self_cells] = False
        n_same = same.sum(axis=1)
        n_other = n_train - 1 - n_same
        n_other[:n_eval] += 1
        self._same_bit = same.astype(np.uint32)
        self._same_before = (n_same * (n_same - 1) // 2).astype(np.uint64)
        # The AUC is 1 minus the mean of lost / pairs over the counted
        # queries, those with both kinds of library slide.
        pairs = n_same * n_other
        self._counted = np.flatnonzero(pairs)
        self._lost_weights = 1.0 / (pairs[self._counted] * len(self._counted))
        # _lost_pairs' keys, kept across calls and grown to the largest block.
        self._auc_work = np.empty(0, dtype=np.uint32)

    def retrieval_auc(self, genome) -> float:
        """Mean over queries of the share of library pairs ranked right.

        Every evaluation slide and every training slide (left out of the
        library) is a query, represented by the mean of all its patches;
        the library is the genome's per-slide selected means. A query's AUC
        is the share of its (same-class, other-class) library pairs whose
        same-class member is strictly nearer. Queries without both kinds of
        library slide are left out of the mean; with none counted the AUC
        is 0. Distances use ``expanded_sq_distances``. Raises ValueError on
        an evaluator built without ``constrained=True``, which has no
        training-slide queries.
        """
        if len(self._queries) == len(self._truth):
            raise ValueError("retrieval_auc needs an evaluator built with constrained=True")
        vectors = aggregate_selected(genome, self.layout).vectors
        return self._library_auc(expanded_sq_distances(self._queries, vectors, self._query_norms))

    def _library_auc(self, dists):
        """``retrieval_auc`` from the block's expanded distances.

        ``dists`` are one library's (Q, S) distances from every query row,
        giving a float, or a batch's (N, Q, S), giving a list of N; their
        self cells are set to +inf in place. Each genome's distances are
        one product of its own shape (see ``expanded_sq_distances``) and
        are never re-scored. ``_lost_pairs`` ranks every row on 32-bit
        keys, in a work array that the evaluator keeps and grows to its
        largest block, and counts a row again from its float64 distances
        wherever float32 ties a same-class with an other-class entry. So
        each row's count, and each AUC, has the same bits in any batch.
        Each AUC's last step is one dot product of the genome's counted rows
        of lost pairs (``np.vecdot`` takes one per genome, as ``row @
        weights`` does alone); a matrix-vector product could sum otherwise.
        """
        dists[(..., *self._self_cells)] = np.inf
        if self._auc_work.size < 2 * dists.size:
            self._auc_work = np.empty(2 * dists.size, dtype=np.uint32)
        lost = _lost_pairs(dists, self._same_bit, self._same_before, self._auc_work)
        if not self._counted.size:  # no query counts: 0
            return np.zeros(lost.shape[:-1]).tolist()
        # np.take keeps C order (lost[..., idx] would not), so each row sums as it does alone.
        counted = np.take(lost, self._counted, axis=-1).astype(np.float64)
        return (1.0 - np.vecdot(counted, self._lost_weights)).tolist()

    def _scoring_rows(self) -> int:
        """Genomes per scoring block, from ``_SCORING_CELLS``."""
        n, dim = self.layout.n_slides, self._queries.shape[1]
        n_eval = len(self._truth)
        n_auc = 0 if self.reference_auc is None else len(self._queries)
        return max(1, _SCORING_CELLS // ((n_auc + n_eval) * n + n_eval * min(self.k, n) * dim))

    def evaluate_full(self, genome):
        """Both objectives plus the evaluation-split confusion matrix.

        ``genome`` is one (P,) genome, giving one (FitnessPair,
        ConfusionMatrix), or an (N, P) matrix, giving a list of N of them,
        in row order. The pairs hold ``evaluate``'s rows, bit for bit.
        """
        rows, counts = self._score(genome)
        results = [(FitnessPair(*row), ConfusionMatrix(self.classes, count))
                   for row, count in zip(rows.tolist(), counts)]
        return results if np.ndim(genome) == 2 else results[0]

    def evaluate(self, genome):
        """Objectives only, as float64 rows of (fraction, error, violation).

        ``genome`` is one (P,) genome, giving a (3,) row, or an (N, P)
        matrix, giving (N, 3) rows in row order. Every row is scored, a
        repeated row as often as it occurs; nothing is memoized. The
        search ranks these rows as they are; ``evaluate_full`` wraps the
        same rows in ``FitnessPair``s.
        """
        rows, _ = self._score(genome)
        return rows if np.ndim(genome) == 2 else rows[0]

    def _score(self, genome) -> tuple[np.ndarray, np.ndarray]:
        """(N, 3) objective rows and (N, C, C) confusion counts of a batch.

        The libraries of an (N, P) matrix are aggregated a block of rows at
        a time, at most ``_LIBRARY_CELLS`` library values or the training
        matrix's size per block, whichever is larger. Each library block is
        scored in blocks of genomes that fit ``_SCORING_CELLS`` work values,
        at least one: distances, k-NN and the retrieval AUC each run once on
        a whole scoring block. The confusion counts, weighted F1 and rows
        are then computed once for the whole batch (F1 is elementwise per
        genome). A row's fraction is its popcount over P, correctly rounded
        as ``int / int`` is; its violation is 0 when unconstrained. A
        genome's bits do not depend on either block.
        """
        genomes = genome_matrix(genome, self.layout)
        cells = max(_LIBRARY_CELLS, self.layout.matrix.size)
        library_rows = max(1, cells // self._queries.shape[1] // self.layout.n_slides)
        scoring_rows = self._scoring_rows()
        # An empty first block lets an empty batch tally too.
        predicted, aucs = [np.empty((0, len(self._truth)), dtype=np.intp)], []
        for start in range(0, len(genomes), library_rows):
            vectors = aggregate_selected(genomes[start : start + library_rows], self.layout).vectors
            for part in range(0, len(vectors), scoring_rows):
                part_predicted, part_aucs = self._score_block(vectors[part : part + scoring_rows])
                predicted.append(part_predicted)
                aucs += part_aucs
        counts = _tally(self._truth, np.concatenate(predicted), self._names, len(self.classes))
        rows = np.zeros((len(genomes), 3))
        np.divide(genomes.sum(axis=1), self.layout.total_patches, out=rows[:, 0])
        rows[:, 1] = 1.0 - weighted_f1_from_confusion(ConfusionMatrix(self.classes, counts))
        if aucs:
            np.maximum(0.0, self.reference_auc - np.array(aucs), out=rows[:, 2])
        return rows, counts

    def _score_block(self, vectors) -> tuple[np.ndarray, list]:
        """(N, Q) k-NN class indices and N retrieval AUCs (none when
        unconstrained) for a block of N libraries' (N, S, dim) vectors, from
        one distance product: the k-NN reads its first Q rows, the AUC all."""
        dists = expanded_sq_distances(self._queries, vectors, self._query_norms)
        n_eval = len(self._truth)
        library = ReferenceLibrary(vectors, self._train_codes, query_distances=dists[:, :n_eval])
        predicted = knn_predict(self._queries[:n_eval], library, self.k)
        return predicted, [] if self.reference_auc is None else self._library_auc(dists)


def evaluate_individual(genome, layout, eval_slides, k, classes=None):
    """One-shot evaluation of a genome: (FitnessPair, ConfusionMatrix).

    Each evaluation slide is represented by the mean of all its patches and
    classified by k-NN against the genome's selected-patch library over
    ``layout.slides``.
    """
    evaluator = FitnessEvaluator(layout, eval_slides, k, classes)
    return evaluator.evaluate_full(genome)
