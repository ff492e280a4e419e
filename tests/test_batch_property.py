"""Property tests: scoring a genome matrix equals scoring its rows one by one.

Layouts, labels, genome matrices (with repeated rows) and k are drawn by
hypothesis; embeddings are seeded float32 standard normals, as the
synthetic cohorts hold them. Their per-slide float64 sums are exact, so
the batched aggregation must give the same bits whatever the batch.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evops import fitness
from evops.dataset import SlideRecord, build_layout
from evops.fitness import FitnessEvaluator, aggregate_selected
from oracles import straight_line_fitness, straight_line_retrieval_auc


def slides(rng, labels, rows, dim, split):
    return [
        SlideRecord(f"{split}{i}", label, split,
                    rng.standard_normal((n, dim)).astype(np.float32))
        for i, (label, n) in enumerate(zip(labels, rows))
    ]


@st.composite
def cohorts(draw):
    """(train, eval, layout, genome matrix with a repeated row, k)."""
    labels = st.sampled_from(["a", "b", "c"])
    n_train = draw(st.integers(1, 6))
    train_labels = draw(st.lists(labels, min_size=n_train, max_size=n_train))
    eval_labels = draw(st.lists(labels, min_size=1, max_size=4))
    rows = draw(st.lists(st.integers(1, 8), min_size=n_train, max_size=n_train))
    dim = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    train = slides(rng, train_labels, rows, dim, "train")
    evals = slides(rng, eval_labels, [draw(st.integers(1, 8)) for _ in eval_labels], dim,
                   "validation")
    layout = build_layout(train)

    distinct = []
    for _ in range(draw(st.integers(1, 4))):
        bits = draw(st.lists(st.booleans(), min_size=layout.total_patches,
                             max_size=layout.total_patches))
        genome = np.array(bits, dtype=bool)
        for _, offset, length in layout.segments:
            if not genome[offset : offset + length].any():
                genome[offset + draw(st.integers(0, length - 1))] = True
        distinct.append(genome)
    order = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=7))
    genomes = np.stack([distinct[i] for i in order + order[:1]])
    return train, evals, layout, genomes, draw(st.integers(1, 4))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cohorts())
def test_batch_equals_rows_and_oracle(cohort):
    train, evals, layout, genomes, k = cohort

    batch = aggregate_selected(genomes, layout, train)
    assert batch.vectors.shape == (len(genomes), len(train), evals[0].embeddings.shape[1])
    assert len(batch) == len(train)
    for row, vectors in zip(genomes, batch.vectors):
        assert vectors.tobytes() == aggregate_selected(row, layout, train).vectors.tobytes()

    batched = FitnessEvaluator(layout, train, evals, k, constrained=True).evaluate(genomes)
    single = FitnessEvaluator(layout, train, evals, k, constrained=True)
    assert batched == [single.evaluate(row) for row in genomes]

    classes = sorted({rec.label for rec in train + evals})
    ones = np.ones(layout.total_patches, dtype=bool)
    reference = straight_line_retrieval_auc(ones, layout, train, evals)
    for row, pair in zip(genomes, batched):
        fraction, error = straight_line_fitness(row, layout, train, evals, k, classes)
        assert abs(pair.f1_fraction - fraction) <= 1e-9
        assert abs(pair.f2_error - error) <= 1e-9
        violation = reference - straight_line_retrieval_auc(row, layout, train, evals)
        assert abs(pair.violation - max(0.0, violation)) <= 1e-9


def _no_train_slide_of_a_validation_class():
    """A cohort whose validation class 'c' has no training slide, so the
    retrieval drops that query and the k-NN expands on its own."""
    rng = np.random.default_rng(11)
    train = slides(rng, ["a", "b", "a", "b"], [3, 4, 2, 5], 3, "train")
    evals = slides(rng, ["c", "a", "b"], [2, 3, 4], 3, "validation")
    layout = build_layout(train)
    genomes = rng.random((5, layout.total_patches)) < 0.5
    for _, offset, length in layout.segments:
        genomes[:, offset] = True
    return train, evals, layout, genomes, 2


def _bits(*values):
    return tuple(float(v).hex() for v in values)


@pytest.mark.parametrize("exact_cells", [0, fitness._EXACT_CELLS], ids=["shortlist", "exact"])
@pytest.mark.parametrize("block_cells", [1, 1 << 62], ids=["genome-blocks", "one-block"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(cohort=cohorts())
@example(cohort=_no_train_slide_of_a_validation_class())
def test_block_and_knn_path_match_single_genome_scoring(cohort, block_cells, exact_cells):
    """Each k-NN path and block size gives every genome its single-genome bits.

    The reference scores one genome at a time with an unconstrained
    evaluator, whose k-NN expands on its own; a constrained evaluator's
    k-NN shortlists from the retrieval distances instead.
    """
    train, evals, layout, genomes, k = cohort
    classes = sorted({rec.label for rec in train + evals})
    ones = np.ones(layout.total_patches, dtype=bool)
    reference_auc = straight_line_retrieval_auc(ones, layout, train, evals)
    with mock.patch.multiple(fitness, _EXACT_CELLS=exact_cells, _LIBRARY_CELLS=block_cells,
                             _SCORING_CELLS=block_cells):
        plain = FitnessEvaluator(layout, train, evals, k)
        singles = [plain.evaluate_full(row) for row in genomes]
        for constrained in (False, True):
            evaluator = FitnessEvaluator(layout, train, evals, k, constrained=constrained)
            batch = evaluator.evaluate_full(genomes)
            for row, (pair, cm), (single, single_cm) in zip(genomes, batch, singles):
                assert _bits(pair.f1_fraction, pair.f2_error) == _bits(
                    single.f1_fraction, single.f2_error)
                assert cm.counts.dtype == np.int64
                assert cm.counts.tobytes() == single_cm.counts.tobytes()
                fraction, error = straight_line_fitness(row, layout, train, evals, k, classes)
                assert abs(pair.f1_fraction - fraction) <= 1e-9
                assert abs(pair.f2_error - error) <= 1e-9
                if constrained:
                    alone = evaluator.evaluate_full(row)[0]
                    assert _bits(pair.violation) == _bits(alone.violation)
                    shortfall = reference_auc - straight_line_retrieval_auc(row, layout, train,
                                                                            evals)
                    assert abs(pair.violation - max(0.0, shortfall)) <= 1e-9
                else:
                    assert pair.violation == 0.0
