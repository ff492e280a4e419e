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

All operations here are pure functions of immutable inputs; means and
distances accumulate in double precision.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, replace

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
    """One aggregated vector per represented training slide, with provenance.

    ``vectors`` is (S, dim), or (N, S, dim) for a batch of N genomes; the
    labels and slide ids are shared by every row of a batch.
    """

    vectors: np.ndarray  # (S, dim) or (N, S, dim) float64
    labels: tuple[str, ...]
    slide_ids: tuple[str, ...]

    def __len__(self) -> int:
        return self.vectors.shape[-2]


def stack_train_embeddings(train_slides) -> np.ndarray:
    """Concatenate all training patch rows into one (P, dim) float64 matrix."""
    return np.concatenate([rec.embeddings for rec in train_slides]).astype(np.float64)


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


def aggregate_selected(genome, layout, train_slides, stacked=None) -> ReferenceLibrary:
    """Build the reference library: per-slide mean over selected patches only.

    ``genome`` is one (P,) genome, giving (S, dim) vectors, or an (N, P)
    matrix, giving (N, S, dim). Each slide's sums are one matrix product of
    its columns of the genome matrix with its rows of the training matrix.
    The products are exact (each bit is 0 or 1), so the result depends on
    the summation order only when a float64 sum rounds; float32 embeddings
    within 2**20 of each other in magnitude per slide and dimension give
    exact sums for slides of up to 512 patches, and then every batch shape
    gives the same bits.

    ``stacked`` may pass a precomputed stack_train_embeddings() result so
    per-generation evaluation avoids re-concatenating the training matrix.
    Raises CoverageViolation naming the slide of the first empty segment of
    the first genome that has one.
    """
    batched = np.ndim(genome) == 2
    genomes = genome_matrix(genome, layout)
    counts = segment_popcounts(genomes, layout)
    if (counts == 0).any():
        row, bad = np.argwhere(counts == 0)[0]
        which = f" of genome {row}" if batched else ""
        raise CoverageViolation(
            f"segment {bad}{which} (slide '{train_slides[bad].slide_id}') has no selected patch"
        )
    if stacked is None:
        stacked = stack_train_embeddings(train_slides)
    vectors = np.empty((len(genomes), layout.n_slides, stacked.shape[1]))
    for s, (_, offset, length) in enumerate(layout.segments):
        segment = slice(offset, offset + length)
        np.matmul(genomes[:, segment].astype(np.float64), stacked[segment], out=vectors[:, s])
    vectors /= counts[..., None]
    return ReferenceLibrary(
        vectors=vectors if batched else vectors[0],
        labels=tuple(rec.label for rec in train_slides),
        slide_ids=tuple(rec.slide_id for rec in train_slides),
    )


def expanded_sq_distances(queries, vectors, query_norms) -> np.ndarray:
    """(Q, n) squared Euclidean distances as |q|^2 - 2 q.v + |v|^2.

    ``query_norms`` holds each query's |q|^2. One matrix product, so fast;
    but rounding may split a tie between two equidistant rows, which the
    difference form would keep.
    """
    dists = (-2.0 * queries) @ vectors.T
    dists += query_norms[:, None]
    dists += np.einsum("ij,ij->i", vectors, vectors)
    return dists


# Up to this many difference cells (query, row, dim), nearest_rows scores
# every row from differences; above it, the expansion shortlists first.
_EXACT_CELLS = 1 << 15
# Rows whose expanded distance lies within this share of |q|^2 + max |v|^2
# of the k-th smallest are re-scored exactly. The expansion's rounding error
# is about dim * 1e-16 of the same scale, far inside it.
_RESCORE_MARGIN = 1e-9


def nearest_rows(queries, vectors, k) -> np.ndarray:
    """(Q, min(k, n)) indices of each query's nearest rows, nearest first.

    Ordered by squared distance computed from explicit differences, ties to
    the lower row index. On large inputs the expansion only shortlists:
    every row near enough to the k-th expanded distance is re-scored from
    differences.
    """
    k = min(k, vectors.shape[0])
    if queries.shape[0] * vectors.size <= _EXACT_CELLS:
        diffs = queries[:, None, :] - vectors[None, :, :]
        exact = np.einsum("qij,qij->qi", diffs, diffs)
        return np.argsort(exact, axis=1, kind="stable")[:, :k]
    norms = np.einsum("ij,ij->i", queries, queries)
    approx = expanded_sq_distances(queries, vectors, norms)
    kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
    scale = norms + np.einsum("ij,ij->i", vectors, vectors).max()
    rows, cols = np.nonzero(approx <= (kth + _RESCORE_MARGIN * scale)[:, None])
    diffs = queries[rows] - vectors[cols]
    exact = np.einsum("ij,ij->i", diffs, diffs)
    order = np.lexsort((cols, exact, rows))  # by query, then distance, then row
    starts = np.searchsorted(rows[order], np.arange(queries.shape[0]))
    return cols[order][starts[:, None] + np.arange(k)]


@functools.lru_cache(maxsize=16)
def _label_codes(labels: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Distinct labels, sorted, and each label's index among them."""
    return np.unique(np.array(labels), return_inverse=True)


def knn_predict(query, library: ReferenceLibrary, k: int):
    """Majority-vote label of the k nearest library rows (squared Euclidean).

    ``query`` is one vector, giving one label, or a (Q, dim) matrix, giving
    a list of Q labels. Distance ties resolve to the lower row index; vote
    ties resolve to the label of the nearest neighbor among the tied classes.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(library) == 0:
        raise ValueError("library is empty")
    queries = np.asarray(query, dtype=np.float64)
    names, codes = _label_codes(tuple(library.labels))
    neighbors = codes[nearest_rows(np.atleast_2d(queries), library.vectors, k)]
    rows = np.arange(neighbors.shape[0])[:, None]
    votes = np.bincount((rows * len(names) + neighbors).ravel(), minlength=rows.size * len(names))
    votes = votes.reshape(rows.size, len(names))
    tied = votes == votes.max(axis=1, keepdims=True)
    nearest_tied = neighbors[rows[:, 0], np.argmax(tied[rows, neighbors], axis=1)]
    labels = names[nearest_tied].tolist()
    return labels[0] if queries.ndim == 1 else labels


def _lost_pairs(dists, same_bit, same_before) -> np.ndarray:
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
    keys.sort(axis=1)
    keys &= np.uint64(1)
    # A same-class entry has every nearer or tied other-class entry before
    # it; the same-class entries before it add up to n(n-1)/2 over the row.
    return keys @ np.arange(keys.shape[1], dtype=np.uint64) - same_before


def confusion_matrix(true_labels, predicted_labels, classes) -> ConfusionMatrix:
    """Tally counts[true, predicted]; labels must come from ``classes``."""
    if len(true_labels) != len(predicted_labels):
        raise ValueError("label lists differ in length")
    if not true_labels:
        raise ValueError("label lists are empty")
    index = {label: i for i, label in enumerate(classes)}
    counts = [[0] * len(classes) for _ in classes]
    for t, p in zip(true_labels, predicted_labels):
        if t not in index:
            raise LabelError(f"true label '{t}' not in class list")
        if p not in index:
            raise LabelError(f"predicted label '{p}' not in class list")
        counts[index[t]][index[p]] += 1
    return ConfusionMatrix(classes=tuple(classes), counts=np.array(counts, dtype=np.int64))


def weighted_f1_from_confusion(cm: ConfusionMatrix) -> float:
    """Support-weighted mean of per-class F1; zero-denominator terms are 0."""
    counts = cm.counts.tolist()
    total = sum(map(sum, counts))
    score = 0.0
    for c, row in enumerate(counts):
        tp = row[c]
        support = sum(row)
        predicted = sum(r[c] for r in counts)
        precision = tp / predicted if predicted > 0 else 0.0
        recall = tp / support if support > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        score += (support / total) * f1
    return float(score)


def weighted_f1(true_labels, predicted_labels, classes) -> float:
    """Support-weighted F1 of a prediction list against the true labels."""
    return weighted_f1_from_confusion(
        confusion_matrix(true_labels, predicted_labels, classes)
    )


# evaluate_full aggregates a batch in blocks of rows holding at most this
# many library values (1 MiB of float64), so the memory a batch adds is
# bounded whatever its size.
_LIBRARY_CELLS = 1 << 17


class FitnessEvaluator:
    """Evaluates genomes against one fixed (train, eval) slide pairing.

    Caches the stacked training matrix, the evaluation-slide mean vectors
    (they never change within a run) and previously computed fitness pairs
    keyed by genome digest; ``evaluate`` computes each distinct genome of a
    batch once, whether it repeats a cached genome or an earlier row of the
    same batch. Evaluation consumes no randomness, so a genome's fitness
    does not depend on when or how often it is evaluated.

    With ``constrained`` set, each genome is also scored by its retrieval
    AUC (``retrieval_auc``), and ``FitnessPair.violation`` is how far that
    falls below the AUC of the library that keeps every patch.
    """

    def __init__(self, layout, train_slides, eval_slides, k, classes=None,
                 constrained=False):
        if not eval_slides:
            raise ValueError("eval_slides is empty")
        self.layout = layout
        self.train_slides = tuple(train_slides)
        self.eval_slides = tuple(eval_slides)
        self.k = int(k)
        if classes is None:
            classes = sorted(
                {rec.label for rec in self.train_slides}
                | {rec.label for rec in self.eval_slides}
            )
        self.classes = tuple(classes)
        self._stacked = stack_train_embeddings(self.train_slides)
        self._queries = np.stack([slide_mean_all(rec) for rec in self.eval_slides])
        self._true_labels = [rec.label for rec in self.eval_slides]
        self._cache: dict[bytes, FitnessPair] = {}
        self.reference_auc = None
        if constrained:
            self._setup_retrieval()
            self.reference_auc = self.retrieval_auc(np.ones(layout.total_patches, dtype=bool))

    def _setup_retrieval(self) -> None:
        # Queries: every evaluation slide, then every training slide, each as
        # the mean of all its patches. A training slide is left out of its
        # own ranking: its distance is +inf, which sorts it last.
        n_eval, n_train = len(self.eval_slides), len(self.train_slides)
        _, codes = np.unique(
            [rec.label for rec in self.eval_slides + self.train_slides], return_inverse=True
        )
        same = codes[:, None] == codes[None, n_eval:]
        same[n_eval + np.arange(n_train), np.arange(n_train)] = False  # the query slide itself
        n_same = same.sum(axis=1)
        n_other = n_train - 1 - n_same
        n_other[:n_eval] += 1
        keep = n_same * n_other > 0  # queries with both kinds of library slide
        queries = np.concatenate(
            [self._queries, np.stack([slide_mean_all(rec) for rec in self.train_slides])]
        )[keep]
        self._retrieval_queries = queries
        self._retrieval_norms = np.einsum("ij,ij->i", queries, queries)
        self._same_bit = same[keep].astype(np.uint8)
        self._same_before = (n_same * (n_same - 1) // 2)[keep].astype(np.uint64)
        left_out = np.flatnonzero(keep[n_eval:])  # training slides kept as queries
        self._self_cells = (np.cumsum(keep)[n_eval + left_out] - 1, left_out)
        # The AUC is 1 minus the mean over queries of lost / pairs.
        self._lost_weights = 1.0 / ((n_same * n_other)[keep] * keep.sum())

    def retrieval_auc(self, genome) -> float:
        """Mean over queries of the share of library pairs ranked right.

        Every evaluation slide and every training slide (left out of the
        library) is a query, represented by the mean of all its patches;
        the library is the genome's per-slide selected means. A query's AUC
        is the share of its (same-class, other-class) library pairs whose
        same-class member is strictly nearer. Queries without both kinds of
        library slide are skipped; with none left the AUC is 0. Distances
        use ``expanded_sq_distances``.
        """
        library = aggregate_selected(genome, self.layout, self.train_slides, self._stacked)
        return self._library_auc(library)

    def _library_auc(self, library: ReferenceLibrary) -> float:
        if not len(self._retrieval_queries):
            return 0.0
        dists = expanded_sq_distances(self._retrieval_queries, library.vectors,
                                      self._retrieval_norms)
        # Rounding can dip just below zero; _lost_pairs needs no sign bit.
        np.maximum(dists, 0.0, out=dists)
        dists[self._self_cells] = np.inf
        lost = _lost_pairs(dists, self._same_bit, self._same_before)
        return 1.0 - float(lost @ self._lost_weights)

    def _digest(self, genome: np.ndarray) -> bytes:
        return hashlib.blake2b(genome.tobytes(), digest_size=16).digest()

    def evaluate_full(self, genome):
        """Both objectives plus the evaluation-split confusion matrix.

        ``genome`` is one (P,) genome, giving one (FitnessPair,
        ConfusionMatrix), or an (N, P) matrix, giving a list of N of them.
        The libraries of a matrix are aggregated a block of rows at a time,
        at most ``_LIBRARY_CELLS`` library values per block; k-NN, scoring
        and the retrieval AUC then run on each genome's library in turn.
        """
        genomes = genome_matrix(genome, self.layout)
        block_rows = max(1, _LIBRARY_CELLS // self._stacked.shape[1] // self.layout.n_slides)
        results = []
        for start in range(0, len(genomes), block_rows):
            block = genomes[start : start + block_rows]
            library = aggregate_selected(block, self.layout, self.train_slides, self._stacked)
            for row, vectors in zip(block, library.vectors):
                row_library = replace(library, vectors=vectors)
                predicted = knn_predict(self._queries, row_library, self.k)
                cm = confusion_matrix(self._true_labels, predicted, self.classes)
                violation = 0.0
                if self.reference_auc is not None:
                    violation = max(0.0, self.reference_auc - self._library_auc(row_library))
                pair = FitnessPair(
                    f1_fraction=int(row.sum()) / self.layout.total_patches,
                    f2_error=1.0 - weighted_f1_from_confusion(cm),
                    violation=violation,
                )
                results.append((pair, cm))
        return results if np.ndim(genome) == 2 else results[0]

    def evaluate(self, genome):
        """Objectives only, with digest-keyed memoization.

        ``genome`` is one (P,) genome, giving one FitnessPair, or an (N, P)
        matrix, giving a list of N. Rows already cached, or repeating an
        earlier row of the matrix, are not recomputed; the rest go to one
        ``evaluate_full`` call.
        """
        genomes = genome_matrix(genome, self.layout)
        keys = [self._digest(row) for row in genomes]
        missing: dict[bytes, int] = {}  # digest -> first row holding it
        for i, key in enumerate(keys):
            if key not in self._cache:
                missing.setdefault(key, i)
        if missing:
            scored = self.evaluate_full(genomes[list(missing.values())])
            for key, (pair, _) in zip(missing, scored):
                self._cache[key] = pair
        pairs = [self._cache[key] for key in keys]
        return pairs if np.ndim(genome) == 2 else pairs[0]


def evaluate_individual(genome, layout, train_slides, eval_slides, k, classes=None):
    """One-shot evaluation of a genome: (FitnessPair, ConfusionMatrix).

    Each evaluation slide is represented by the mean of all its patches and
    classified by k-NN against the genome's selected-patch library.
    """
    evaluator = FitnessEvaluator(layout, train_slides, eval_slides, k, classes)
    return evaluator.evaluate_full(genome)
