"""Property tests: scoring a genome matrix equals scoring its rows one by one.

Layouts, labels, genome matrices (with repeated rows) and k are drawn by
hypothesis; embeddings are seeded float32 standard normals, as the
synthetic cohorts hold them. Large slides of values spanning many
magnitudes, half of them zero, as post-ReLU features hold them, have
per-slide float64 sums that round; there the layout's exact slices must
give every library the bits it has alone, whatever the batch or block.
"""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evops import fitness
from evops.dataset import SlideRecord, build_layout, truncate_columns
from evops.evolution import class_relevance
from evops.fitness import FitnessEvaluator, aggregate_selected
from evops.synthgen import SynthConfig, generate
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

    batch = aggregate_selected(genomes, layout)
    assert batch.vectors.shape == (len(genomes), len(train), evals[0].embeddings.shape[1])
    assert len(batch) == len(train)
    for row, vectors in zip(genomes, batch.vectors):
        assert vectors.tobytes() == aggregate_selected(row, layout).vectors.tobytes()

    batched = FitnessEvaluator(layout, evals, k, constrained=True).evaluate(genomes)
    single = FitnessEvaluator(layout, evals, k, constrained=True)
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
    """A cohort whose validation class 'c' has no training slide, so that
    query stays in the block and is left out of the AUC's mean."""
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


@pytest.mark.parametrize("block_cells", [1, 1 << 62], ids=["genome-blocks", "one-block"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(cohort=cohorts())
@example(cohort=_no_train_slide_of_a_validation_class())
def test_block_and_knn_path_match_single_genome_scoring(cohort, block_cells):
    """Each block size, with either height of distance block, gives every
    genome its single-genome bits.

    The reference scores one genome at a time with an unconstrained
    evaluator, whose block holds the evaluation rows alone; a constrained
    evaluator's block adds a row per training slide, and its k-NN
    shortlists from the block's evaluation rows.
    """
    train, evals, layout, genomes, k = cohort
    classes = sorted({rec.label for rec in train + evals})
    ones = np.ones(layout.total_patches, dtype=bool)
    reference_auc = straight_line_retrieval_auc(ones, layout, train, evals)
    with mock.patch.multiple(fitness, _LIBRARY_CELLS=block_cells, _SCORING_CELLS=block_cells):
        plain = FitnessEvaluator(layout, evals, k)
        singles = [plain.evaluate_full(row) for row in genomes]
        for constrained in (False, True):
            evaluator = FitnessEvaluator(layout, evals, k, constrained=constrained)
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


@functools.lru_cache(maxsize=1)
def _wide_range_cohort(dim):
    """(train, eval, layout, 24 genomes): three 3000-patch float32 training
    slides of lognormal (sigma 3) values, half of them zero."""
    rng = np.random.default_rng(dim)

    def wide(labels, rows, split):
        values = rng.lognormal(0.0, 3.0, (len(labels), rows, dim))
        values[rng.random(values.shape) < 0.5] = 0.0
        return [SlideRecord(f"{split}{i}", label, split, x.astype(np.float32))
                for i, (label, x) in enumerate(zip(labels, values))]

    train = wide(["a", "b", "a"], 3000, "train")
    evals = wide(["a", "b"], 40, "validation")
    layout = build_layout(train)
    genomes = rng.random((24, layout.total_patches)) < 0.5
    genomes[:, layout.offsets] = True
    return train, evals, layout, genomes


@pytest.mark.parametrize("library_cells", [1, 1 << 62], ids=["small-cap", "large-cap"])
@pytest.mark.parametrize("dim", [64, 384])
def test_wide_range_libraries_have_single_genome_bits(dim, library_cells):
    train, evals, layout, genomes = _wide_range_cohort(dim)
    singles = [aggregate_selected(row, layout).vectors.tobytes() for row in genomes]
    for size in (5, len(genomes)):
        rows = [vectors.tobytes()
                for start in range(0, len(genomes), size)
                for vectors in aggregate_selected(genomes[start : start + size], layout).vectors]
        assert rows == singles

    libraries = []

    def recording(*args):
        library = aggregate_selected(*args)
        libraries.extend(vectors.tobytes() for vectors in library.vectors)
        return library

    with mock.patch.multiple(fitness, _LIBRARY_CELLS=library_cells,
                             aggregate_selected=recording):
        FitnessEvaluator(layout, evals, 3).evaluate_full(genomes)
    assert libraries == singles


@pytest.mark.parametrize("dim", [64, 384])
def test_class_relevance_has_the_float32_slides_bits(dim):
    """Relevance read from the layout's float64 matrix has the bits of the
    same formula over the training slides' float32 rows."""
    train, _, layout, _ = _wide_range_cohort(dim)
    sums, counts = {}, {}
    for rec in train:
        sums[rec.label] = sums.get(rec.label, 0.0) + rec.embeddings.sum(axis=0, dtype=np.float64)
        counts[rec.label] = counts.get(rec.label, 0) + rec.rows
    means = {label: sums[label] / counts[label] for label in sums}
    centre = np.mean(list(means.values()), axis=0)
    expected = np.concatenate(
        [rec.embeddings.astype(np.float64) @ (means[rec.label] - centre) for rec in train]
    )
    assert class_relevance(layout).tobytes() == expected.tobytes()


def test_one_tally_for_a_batch_of_several_library_blocks():
    """14 patches over 4 slides: at the smallest cap a library block holds
    14 // 4 = 3 genomes, so 10 genomes are aggregated in 4 blocks."""
    rng = np.random.default_rng(3)
    train = slides(rng, ["a", "b", "a", "b"], [3, 4, 2, 5], 3, "train")
    evals = slides(rng, ["a", "b", "b"], [2, 3, 4], 3, "validation")
    layout = build_layout(train)
    genomes = rng.random((10, layout.total_patches)) < 0.5
    genomes[:, layout.offsets] = True
    evaluator = FitnessEvaluator(layout, evals, 2, constrained=True)
    blocks, tallies = [], []
    aggregate, tally = fitness.aggregate_selected, fitness._tally

    def aggregating(*args):
        blocks.append(len(args[0]))
        return aggregate(*args)

    def tallying(*args):
        tallies.append(args[1].shape)
        return tally(*args)

    with mock.patch.multiple(fitness, _LIBRARY_CELLS=1, aggregate_selected=aggregating,
                             _tally=tallying):
        batch = evaluator.evaluate_full(genomes)
    assert blocks == [3, 3, 3, 1]
    assert tallies == [(10, 3)]
    assert evaluator.evaluate_full(genomes[:0]) == []
    for row, (pair, cm) in zip(genomes, batch):
        single, single_cm = evaluator.evaluate_full(row)
        assert pair == single
        assert cm.counts.tobytes() == single_cm.counts.tobytes()


def _rule_bits(columns):
    """E - L per column, from the rule's own terms: sum(|x|) < 2**E, with a
    bit to spare for rounding that sum, and each value a multiple of 2**L."""
    high = np.frexp(np.abs(columns).sum(axis=0))[1] + 1
    mantissa, exponent = np.frexp(columns)
    digits = np.ldexp(mantissa, 53).astype(np.int64)  # the 53-bit significands
    low = exponent - 54 + np.frexp(digits & -digits)[1]  # each value's lowest set bit
    low = np.where(columns == 0, high, low).min(axis=0)
    return high - low


def test_columns_over_the_bound_split_into_exact_slices():
    _, _, layout, _ = _wide_range_cohort(64)
    split = layout.column_slices
    assert split  # wide-range sums round
    for s, (_, offset, length) in enumerate(layout.segments):
        rows = layout.matrix[offset : offset + length]
        over = np.flatnonzero(_rule_bits(rows) > 53)
        assert np.array_equal(np.flatnonzero(~truncate_columns(rows)[1]), over)
        if not over.size:
            assert s not in split
            continue
        dims, slices = split[s]
        assert np.array_equal(dims, over)
        assert functools.reduce(np.add, slices).tobytes() == rows[:, dims].tobytes()
        for piece in slices:
            assert (_rule_bits(piece) <= 53).all()
            assert truncate_columns(piece)[1].all()
            for column in piece.T[:4].tolist():  # any order gives the exact sum
                assert sum(column) == sum(reversed(column)) == math.fsum(column)


@pytest.mark.parametrize("config", [
    SynthConfig(seed=7),
    SynthConfig(classes=4, train_slides_per_class=20, validation_slides_per_class=5,
                test_slides_per_class=5, dim=24, seed=3),
], ids=["quick-start", "four-class"])
def test_gaussian_layouts_need_no_slice(config):
    layout = generate(config).layout
    assert layout.column_slices == {}
    assert (_rule_bits(layout.matrix) <= 53).all()


def test_a_generation_of_a_wide_dim_cohort_aggregates_in_one_pass():
    """30 slides of 130-260 patches at dim 384: 100 genomes' libraries take
    less than the training matrix, so they are one block."""
    rng = np.random.default_rng(5)
    train = slides(rng, ["a", "b", "c"] * 10, rng.integers(130, 261, 30), 384, "train")
    evals = slides(rng, ["a", "b", "c"], [20, 20, 20], 384, "validation")
    layout = build_layout(train)
    genomes = rng.random((100, layout.total_patches)) < 0.1
    genomes[:, layout.offsets] = True
    calls = []

    def counting(*args):
        calls.append(len(args[0]))
        return aggregate_selected(*args)

    with mock.patch.object(fitness, "aggregate_selected", counting):
        FitnessEvaluator(layout, evals, 5).evaluate_full(genomes)
    assert calls == [100]


def test_the_all_patches_genome_is_feasible_inside_a_batch():
    train, evals, layout, genomes = _wide_range_cohort(64)
    ones = np.ones(layout.total_patches, dtype=bool)
    evaluator = FitnessEvaluator(layout, evals, 1, constrained=True)
    batch = np.concatenate([genomes[:12], ones[None], genomes[12:]])
    assert evaluator.evaluate_full(batch)[12][0].violation == 0.0


def test_columns_with_non_finite_values_are_not_split():
    values = np.array([[1.0, np.inf, np.nan], [2.0**-60, 1.0, 1.0]], dtype=np.float32)
    train = [SlideRecord("train0", "a", "train", values)]
    layout = build_layout(train)
    assert layout.column_slices[0][0].tolist() == [0]  # 1 + 2**-60 rounds
    mean = aggregate_selected(np.ones(2, dtype=bool), layout).vectors[0]
    assert mean[0] == 0.5 and mean[1] == np.inf and np.isnan(mean[2])


def test_a_split_column_adds_its_slices_in_slice_order():
    # The column splits into the slices 2**54, 2 and 2**-51. In slice order
    # 2**54 + 2 ties to even, at 2**54, and 2**-51 is then lost; in reverse
    # order 2 + 2**-51 lifts 2**54 to 2**54 + 4.
    values = np.array([[2.0**54], [2.0], [2.0**-51]], dtype=np.float32)
    layout = build_layout([SlideRecord("train0", "a", "train", values)])
    assert len(layout.column_slices[0][1]) == 3
    mean = aggregate_selected(np.ones(3, dtype=bool), layout).vectors[0, 0]
    assert mean == 2.0**54 / 3
