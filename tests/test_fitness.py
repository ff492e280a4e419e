import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evops.dataset import SlideRecord, build_layout, slide_mean_all
from evops.fitness import (
    ConfusionMatrix,
    CoverageViolation,
    FitnessEvaluator,
    LabelError,
    ReferenceLibrary,
    _lost_pairs,
    _lost_pairs64,
    aggregate_selected,
    confusion_matrix,
    evaluate_individual,
    expanded_sq_distances,
    knn_predict,
    nearest_rows,
    weighted_f1,
    weighted_f1_from_confusion,
)
from evops.synthgen import SynthConfig, generate
from oracles import (
    full_sort_knn,
    hand_weighted_f1,
    masked_mean,
    straight_line_fitness,
    straight_line_retrieval_auc,
)


def make_slides(rng, n_slides, dim, labels, min_rows=2, max_rows=9, split="train"):
    slides = []
    for i in range(n_slides):
        rows = int(rng.integers(min_rows, max_rows + 1))
        slides.append(
            SlideRecord(
                slide_id=f"{split}{i}",
                label=labels[i % len(labels)],
                split=split,
                embeddings=rng.standard_normal((rows, dim)).astype(np.float32),
            )
        )
    return slides


def random_covered_genome(rng, layout, density=0.5):
    genome = rng.random(layout.total_patches) < density
    for _, offset, length in layout.segments:
        if not genome[offset : offset + length].any():
            genome[offset + rng.integers(0, length)] = True
    return genome


def test_aggregate_hand_case():
    slide = SlideRecord("s", "a", "train",
                        np.array([[0, 0], [2, 2], [4, 4]], dtype=np.float32))
    layout = build_layout([slide])
    lib = aggregate_selected(np.array([1, 0, 1], dtype=bool), layout)
    assert lib.vectors.tolist() == [[2.0, 2.0]]
    assert lib.labels == ("a",)


def test_aggregate_all_ones_equals_full_means():
    rng = np.random.default_rng(0)
    slides = make_slides(rng, 5, 4, ["a", "b"])
    layout = build_layout(slides)
    lib = aggregate_selected(np.ones(layout.total_patches, dtype=bool), layout)
    for row, slide in zip(lib.vectors, slides):
        assert np.allclose(row, slide_mean_all(slide), atol=1e-12)


def test_aggregate_matches_masked_mean_oracle():
    rng = np.random.default_rng(1)
    slides = make_slides(rng, 20, 6, ["a", "b", "c"])
    layout = build_layout(slides)
    genome = random_covered_genome(rng, layout)
    lib = aggregate_selected(genome, layout)
    for (_, offset, length), slide, row in zip(layout.segments, slides, lib.vectors):
        mask = genome[offset : offset + length].tolist()
        oracle = masked_mean(slide.embeddings.tolist(), mask)
        assert np.allclose(row, oracle, atol=1e-5)


def test_aggregate_raises_on_empty_segment():
    rng = np.random.default_rng(2)
    slides = make_slides(rng, 3, 4, ["a"])
    layout = build_layout(slides)
    genome = np.ones(layout.total_patches, dtype=bool)
    _, offset, length = layout.segments[1]
    genome[offset : offset + length] = False
    with pytest.raises(CoverageViolation, match="train1"):
        aggregate_selected(genome, layout)


def library(vectors, labels):
    return ReferenceLibrary(
        vectors=np.asarray(vectors, dtype=np.float64),
        labels=tuple(labels),
    )


def test_knn_exact_match_wins():
    lib = library([[0, 0], [5, 5], [9, 9]], ["a", "b", "c"])
    assert knn_predict([5, 5], lib, 1) == "b"


def test_knn_majority_vote():
    lib = library([[1, 0], [2, 0], [3, 0]], ["a", "a", "b"])
    assert knn_predict([0, 0], lib, 3) == "a"


def test_knn_distance_tie_lower_index():
    lib = library([[1, 0], [-1, 0]], ["b", "a"])
    # equidistant from origin: row 0 wins with k=1
    assert knn_predict([0, 0], lib, 1) == "b"


def test_knn_vote_tie_nearest_label():
    lib = library([[1, 0], [2, 0], [3, 0], [4, 0]], ["b", "a", "a", "b"])
    # k=4: two votes each; nearest neighbor's label (b) wins
    assert knn_predict([0, 0], lib, 4) == "b"


def test_knn_k_larger_than_library():
    lib = library([[0, 0], [1, 1]], ["a", "b"])
    assert knn_predict([0.1, 0.1], lib, 10) == "a"


def test_knn_against_full_sort_oracle():
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((50, 8))
    labels = [["a", "b", "c"][i % 3] for i in range(50)]
    lib = library(rows, labels)
    for _ in range(200):
        query = rng.standard_normal(8)
        assert knn_predict(query, lib, 5) == full_sort_knn(query, rows.tolist(),
                                                           labels, 5)


def test_knn_invariant_under_orthogonal_transform():
    rng = np.random.default_rng(4)
    dim = 6
    rows = rng.standard_normal((30, dim))
    labels = [["a", "b"][i % 2] for i in range(30)]
    queries = rng.standard_normal((40, dim))
    for _ in range(5):
        q_mat, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        before = [knn_predict(q, library(rows, labels), 5) for q in queries]
        after = [knn_predict(q @ q_mat, library(rows @ q_mat, labels), 5)
                 for q in queries]
        assert before == after


def test_weighted_f1_perfect_is_one():
    assert weighted_f1(["a", "b", "a"], ["a", "b", "a"], ["a", "b"]) == 1.0


def test_weighted_f1_hand_case():
    value = weighted_f1(["A", "A", "B", "B"], ["A", "B", "B", "B"], ["A", "B"])
    assert abs(value - 11.0 / 15.0) < 1e-12  # (2*(2/3) + 2*(4/5)) / 4


def test_weighted_f1_zero_denominator_class():
    # class A has support but is never predicted: F1_A = 0 still weighted in
    value = weighted_f1(["A", "A", "B"], ["B", "B", "B"], ["A", "B"])
    assert abs(value - (1 / 3) * (2 * (1 / 3) * 1 / ((1 / 3) + 1))) < 1e-12


def test_weighted_f1_zero_support_class_ignored():
    assert weighted_f1(["a", "a"], ["a", "a"], ["a", "b"]) == 1.0


def test_weighted_f1_label_outside_classes():
    with pytest.raises(LabelError):
        weighted_f1(["a", "z"], ["a", "a"], ["a", "b"])
    with pytest.raises(LabelError):
        weighted_f1(["a", "a"], ["a", "z"], ["a", "b"])


def test_weighted_f1_matches_hand_oracle_randomized():
    rng = np.random.default_rng(5)
    classes = ["a", "b", "c", "d"]
    for _ in range(50):
        n = int(rng.integers(1, 40))
        true = [classes[i] for i in rng.integers(0, 4, size=n)]
        pred = [classes[i] for i in rng.integers(0, 4, size=n)]
        value = weighted_f1(true, pred, classes)
        assert 0.0 <= value <= 1.0
        assert abs(value - hand_weighted_f1(true, pred, classes)) < 1e-12


def test_evaluate_all_ones_fraction():
    rng = np.random.default_rng(6)
    train = make_slides(rng, 6, 4, ["a", "b"])
    evals = make_slides(rng, 4, 4, ["a", "b"], split="validation")
    layout = build_layout(train)
    pair, cm = evaluate_individual(
        np.ones(layout.total_patches, dtype=bool), layout, evals, 3
    )
    assert pair.f1_fraction == 1.0
    assert cm.total == len(evals)


def test_evaluate_one_bit_per_segment_fraction():
    rng = np.random.default_rng(7)
    train = make_slides(rng, 6, 4, ["a", "b"])
    evals = make_slides(rng, 4, 4, ["a", "b"], split="validation")
    layout = build_layout(train)
    genome = np.zeros(layout.total_patches, dtype=bool)
    genome[layout.offsets] = True
    pair, _ = evaluate_individual(genome, layout, evals, 3)
    assert pair.f1_fraction == len(train) / layout.total_patches


def test_evaluate_matches_straight_line_oracle():
    ds = generate(SynthConfig(classes=3, train_slides_per_class=4,
                              validation_slides_per_class=2, test_slides_per_class=2,
                              patches_min=4, patches_max=10, dim=8,
                              class_separation=3.0, seed=9))
    layout = build_layout(ds.train)
    rng = np.random.default_rng(10)
    for _ in range(10):
        genome = random_covered_genome(rng, layout, density=float(rng.uniform(0.2, 0.9)))
        pair, _ = evaluate_individual(genome, layout, ds.validation, 5,
                                      classes=ds.classes)
        frac, err = straight_line_fitness(genome, layout, ds.train, ds.validation,
                                          5, ds.classes)
        assert abs(pair.f1_fraction - frac) <= 1e-9
        assert abs(pair.f2_error - err) <= 1e-9


def test_duplication_invariance():
    # duplicating every patch (and mirroring genome bits) keeps f2 unchanged
    rng = np.random.default_rng(11)
    train = make_slides(rng, 6, 4, ["a", "b", "c"])
    evals = make_slides(rng, 6, 4, ["a", "b", "c"], split="validation")
    layout = build_layout(train)
    genome = random_covered_genome(rng, layout)

    doubled = [
        SlideRecord(rec.slide_id, rec.label, rec.split,
                    np.repeat(rec.embeddings, 2, axis=0))
        for rec in train
    ]
    doubled_evals = [
        SlideRecord(rec.slide_id, rec.label, rec.split,
                    np.repeat(rec.embeddings, 2, axis=0))
        for rec in evals
    ]
    doubled_layout = build_layout(doubled)
    doubled_genome = np.repeat(genome, 2)

    pair, _ = evaluate_individual(genome, layout, evals, 3)
    pair2, _ = evaluate_individual(doubled_genome, doubled_layout, doubled_evals, 3)
    assert abs(pair.f2_error - pair2.f2_error) < 1e-12


def test_segment_permutation_invariance():
    # permuting patch rows within a slide (all-ones genome) keeps f2 unchanged
    rng = np.random.default_rng(12)
    train = make_slides(rng, 5, 4, ["a", "b"])
    evals = make_slides(rng, 4, 4, ["a", "b"], split="validation")
    layout = build_layout(train)
    ones = np.ones(layout.total_patches, dtype=bool)
    permuted = [
        SlideRecord(rec.slide_id, rec.label, rec.split,
                    rec.embeddings[rng.permutation(rec.rows)])
        for rec in train
    ]
    pair, _ = evaluate_individual(ones, layout, evals, 3)
    pair2, _ = evaluate_individual(ones, build_layout(permuted), evals, 3)
    assert abs(pair.f2_error - pair2.f2_error) < 1e-12


@pytest.mark.parametrize("k", [1, 5])
def test_scores_follow_the_layouts_slide_order(k):
    # Labels, class codes and retrieval queries all come from the layout: a
    # layout of the reversed training slides, with each genome's segments
    # moved to match, scores every genome alike. Only the AUC's sum over
    # queries runs in another order.
    ds = generate(SynthConfig(classes=3, train_slides_per_class=5,
                              validation_slides_per_class=3, test_slides_per_class=1,
                              patches_min=3, patches_max=9, dim=6,
                              class_separation=1.5, seed=13))
    layout = build_layout(ds.train)
    rng = np.random.default_rng(13)
    genomes = np.stack([random_covered_genome(rng, layout, float(rng.uniform(0.1, 0.9)))
                        for _ in range(24)])
    moved = np.concatenate(
        [genomes[:, offset : offset + length] for _, offset, length in layout.segments[::-1]],
        axis=1,
    )
    scored = FitnessEvaluator(layout, ds.validation, k, constrained=True).evaluate(genomes)
    reversed_layout = build_layout(ds.train[::-1])
    rescored = FitnessEvaluator(reversed_layout, ds.validation, k,
                                constrained=True).evaluate(moved)
    assert scored[:, :2].tobytes() == rescored[:, :2].tobytes()
    assert np.abs(scored[:, 2] - rescored[:, 2]).max() <= 1e-12
    assert len(set(scored[:, 1].tolist())) > 1
    assert (scored[:, 2] > 0).any()


def test_knn_batch_matches_single_queries():
    rng = np.random.default_rng(14)
    rows = rng.standard_normal((400, 6))
    labels = [("a", "b", "c")[i % 3] for i in range(400)]
    lib = library(rows, labels)
    queries = rng.standard_normal((90, 6))
    assert knn_predict(queries, lib, 5) == [knn_predict(q, lib, 5) for q in queries]
    for q, got in zip(queries[:10], knn_predict(queries, lib, 5)):
        assert got == full_sort_knn(q, rows.tolist(), labels, 5)


def test_knn_batch_ties_on_duplicate_rows():
    # many identical rows straddle the k-th place: the lowest indices win
    rows = np.array([[0.0, 0.0]] * 3 + [[1.0, 1.0]] * 300 + [[0.0, 0.0]] * 2)
    labels = ["a"] * 3 + ["b"] * 300 + ["c"] * 2
    queries = np.array([[0.0, 0.0]] * 200)
    assert knn_predict(queries, library(rows, labels), 4) == ["a"] * 200


@pytest.mark.parametrize("n_rows", [12, 300])
def test_knn_of_an_empty_batch_or_query_matrix_is_empty(n_rows):
    rng = np.random.default_rng(n_rows)
    rows = rng.standard_normal((n_rows, 16))
    labels = [("a", "b")[i % 2] for i in range(n_rows)]
    queries = rng.standard_normal((80, 16))
    no_libraries = np.empty((0, n_rows, 16))
    no_queries = np.empty((0, 16))
    assert nearest_rows(queries, no_libraries, 5).shape == (0, 80, 5)
    assert nearest_rows(no_queries, rows, 5).shape == (0, 5)
    assert nearest_rows(no_queries, np.stack([rows] * 3), 5).shape == (3, 0, 5)
    assert knn_predict(queries, library(no_libraries, labels), 5).shape == (0, 80)
    assert knn_predict(no_queries, library(rows, labels), 5) == []
    assert knn_predict(no_queries, library(np.stack([rows] * 3), labels), 5).shape == (3, 0)


def test_knn_keeps_interleaved_ties_in_row_order():
    # 60 rows of three distinct vectors, interleaved: each query ties 20 rows
    # per distance and shortlists 40, more than a small (always stable) sort
    # ever sees.
    levels = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    rows = levels[np.arange(60) % 3]
    queries = np.array([[0.4, 0.0], [2.5, 0.0], [0.5, 0.0]])
    exact = ((queries[:, None, :] - rows[None, :, :]) ** 2).sum(axis=-1)
    expected = np.argsort(exact, axis=1, kind="stable")[:, :25]
    assert nearest_rows(queries, rows, 25).tolist() == expected.tolist()


def test_shortlist_rescores_rows_the_expansion_misorders():
    # A common norm of 1e16 rounds the expanded distances to multiples of
    # about 2, far coarser than the gaps of 0-9 between the exact ones.
    # The k-th distance is at most 9 here: the margin's |q|^2 term keeps
    # these rows on the shortlist.
    rng = np.random.default_rng(40)
    rows = np.column_stack([np.full(200, 1e8), rng.uniform(0.0, 3.0, 200)])
    queries = np.column_stack([np.full(100, 1e8), rng.uniform(0.0, 3.0, 100)])
    exact = ((queries[:, None, :] - rows[None, :, :]) ** 2).sum(axis=-1)
    expected = np.argsort(exact, axis=1, kind="stable")[:, :3]
    approx = expanded_sq_distances(queries, rows, (queries**2).sum(axis=1))
    assert (np.argsort(approx, axis=1, kind="stable")[:, :3] != expected).any()
    assert nearest_rows(queries, rows, 3).tolist() == expected.tolist()


def test_rescore_margin_scales_with_the_kth_distance():
    # Queries near the origin and rows 1e8 away: the expanded distances
    # round at about 2 (|v|^2 is 1e16), yet |q|^2 is at most 27, so only
    # the margin's d_k term keeps the rows they misorder on the shortlist.
    rng = np.random.default_rng(0)
    rows = np.column_stack([np.full(300, 1e8), rng.uniform(0.0, 100.0, (300, 2))])
    queries = rng.uniform(0.0, 3.0, (200, 3))
    expected = brute_force_nearest(queries, rows, 3)
    approx = expanded_sq_distances(queries, rows, (queries**2).sum(axis=1))
    assert (np.argsort(approx, axis=1, kind="stable")[:, :3] != expected).any()
    assert nearest_rows(queries, rows, 3).tolist() == expected.tolist()


def brute_force_nearest(queries, vectors, k):
    """Every row's squared distance from explicit differences, over the
    whole library, stably sorted: ties go to the lower row. Each distance
    is one row's dot product with itself, as ``nearest_rows`` takes it, so
    it has the same bits where it rounds."""
    diffs = vectors[..., None, :, :] - queries[:, None, :]
    flat = diffs.reshape(-1, diffs.shape[-1])
    exact = np.einsum("ij,ij->i", flat, flat).reshape(diffs.shape[:-1])
    return np.argsort(exact, axis=-1, kind="stable")[..., :k]


OFFSETS = [0.0, 1e4, 1e8]


@st.composite
def knn_cases(draw):
    """(queries, (N, n, dim) libraries, k, approx or None) on integer grids.

    Each library holds interleaved duplicates of a few rows (tied cells) or
    rows far apart (mostly clean cells), so a batch mixes both. The queries
    and each library draw their own offset from ``OFFSETS``: a common
    offset of 1e8 rounds the expanded distances more coarsely than their
    gaps, and offsets that differ make |q|^2 small beside |v|^2, or large
    beside the k-th distance. Some libraries hold one row 1e8 away, which
    makes its |v|^2 far larger than any near row's. ``approx`` is the
    expansion, or None, as the evaluator passes it: the first rows of a
    taller query matrix's distances.
    """
    n, dim, n_queries = draw(st.integers(1, 30)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    libraries = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            levels = rng.integers(-3, 4, (draw(st.integers(1, 4)), dim))
            library = levels[np.arange(n) % len(levels)] + draw(st.sampled_from(OFFSETS))
        else:
            library = rng.integers(-1000, 1001, (n, dim)) + draw(st.sampled_from(OFFSETS))
        if draw(st.booleans()):
            library[rng.integers(n), rng.integers(dim)] += 1e8
        libraries.append(library)
    vectors = np.stack(libraries)
    queries = rng.integers(-3, 4, (n_queries + 2, dim)) + draw(st.sampled_from(OFFSETS))
    k = draw(st.integers(1, n + 2))
    approx = None
    if draw(st.booleans()):
        approx = expanded_sq_distances(queries, vectors, np.einsum("ij,ij->i", queries, queries))
        approx = approx[:, :n_queries]
    return queries[:n_queries], vectors, k, approx


@settings(max_examples=150, deadline=None, derandomize=True)
@given(knn_cases())
def test_nearest_rows_matches_brute_force(case):
    queries, vectors, k, approx = case
    expected = brute_force_nearest(queries, vectors, k).tolist()
    assert nearest_rows(queries, vectors, k, approx).tolist() == expected
    # One library alone, (n, dim), gives its own rows of the batch.
    for i, library in enumerate(vectors):
        alone = None if approx is None else approx[i]
        assert nearest_rows(queries, library, k, alone).tolist() == expected[i]


def _lost_pairs_cases(rng, n_libraries, n_rows, n_cols):
    """(N, Q, S) distances and the (Q, S) class bits they share. Each row
    draws from values distinct in float64 but equal in float32, exact ties,
    values past float32's range, tiny negatives and -0.0, and holds one
    +inf self cell and both classes."""
    d = 1.0 + 2.0**-30
    levels = np.array([
        d, np.nextafter(d, 2.0), np.nextafter(d, 0.0), 2.5, 2.5, 0.75,
        -0.0, 0.0, -1e-300, -3e-12, 3.5e38, np.nextafter(3.5e38, np.inf), 1e300,
    ])
    dists = rng.choice(levels, size=(n_libraries, n_rows, n_cols))
    same = (rng.random((n_rows, n_cols)) < 0.5).astype(np.uint32)
    same[:, 0], same[:, 1] = 1, 0
    self_cell = rng.integers(2, n_cols, n_rows)
    dists[:, np.arange(n_rows), self_cell] = np.inf
    same[np.arange(n_rows), self_cell] = 0
    n_same = same.sum(axis=1).astype(np.uint64)
    return dists, same, n_same * (n_same - 1) // 2


def _per_pair_lost(dists, same):
    """Per row, the (same, other) pairs whose same-class entry is not
    strictly nearer, counted pair by pair."""
    return [int((row[bits == 0][None, :] <= row[bits == 1][:, None]).sum())
            for row, bits in zip(dists, same)]


def test_lost_pairs_on_32_bit_keys_match_the_64_bit_kernel():
    rng = np.random.default_rng(41)
    dists, same, before = _lost_pairs_cases(rng, 3, 400, 9)
    clamped = np.maximum(dists, 0.0)  # _lost_pairs64 takes no negatives
    expected = [_per_pair_lost(matrix, same) for matrix in clamped]
    # Float32 distances alone would count some rows differently.
    with np.errstate(over="ignore"):
        assert [_per_pair_lost(m.astype(np.float32), same) for m in clamped] != expected
    kept = dists.tobytes()
    for matrix, positive, want in zip(dists, clamped, expected):  # one library: (Q, S)
        assert _lost_pairs64(positive.copy(), same, before).tolist() == want
        work = np.empty(2 * matrix.size, np.uint32)
        assert _lost_pairs(matrix, same, before, work).tolist() == want
    work = np.empty(2 * dists.size, np.uint32)
    batch = _lost_pairs(dists, same, before, work)
    assert batch.dtype == np.uint64 and batch.tolist() == expected
    assert batch.tobytes() == _lost_pairs64(clamped.copy(), same, before).tobytes()
    assert dists.tobytes() == kept
    # A block of one library reuses the larger work array.
    assert _lost_pairs(dists[1:2], same, before, work).tolist() == expected[1:2]


def test_lost_pairs_position_sums_never_wrap():
    # n(n-1)/2 >= 2**32: every same-class entry sorts after one nearer
    # other-class entry, and the positions add up past uint32.
    n = 92683
    dists = np.linspace(1.0, 2.0, n)[None, :]
    same = np.ones((1, n), dtype=np.uint32)
    same[0, 0] = 0
    before = np.array([(n - 1) * (n - 2) // 2], dtype=np.uint64)
    work = np.empty(2 * dists.size, np.uint32)
    assert _lost_pairs(dists, same, before, work).tolist() == [n - 1]


def test_retrieval_auc_hand_case():
    def slide(name, label, split, x):
        return SlideRecord(name, label, split, np.array([[x]], dtype=np.float32))

    train = [slide("a0", "a", "train", 0), slide("a1", "a", "train", 1),
             slide("b0", "b", "train", 3), slide("b1", "b", "train", 4)]
    # distances from 2: a0 4, a1 1, b0 1, b1 4; ties count as lost
    evals = [slide("q", "a", "validation", 2)]
    layout = build_layout(train)
    evaluator = FitnessEvaluator(layout, evals, 1, constrained=True)
    ones = np.ones(layout.total_patches, dtype=bool)
    # training queries: a0 [a1 1 | b0 9, b1 16] -> 1, a1 [a0 1 | 4, 9] -> 1,
    # b0 [b1 1 | a0 9, a1 4] -> 1, b1 [b0 1 | 16, 9] -> 1
    assert evaluator.retrieval_auc(ones) == pytest.approx((0.25 + 4) / 5, abs=1e-12)
    assert evaluator.reference_auc == evaluator.retrieval_auc(ones)


def test_retrieval_auc_leaves_out_queries_without_both_kinds():
    def slide(name, label, split, x):
        return SlideRecord(name, label, split, np.array([[x]], dtype=np.float32))

    train = [slide("a0", "a", "train", 0), slide("a1", "a", "train", 1),
             slide("b0", "b", "train", 3), slide("b1", "b", "train", 4)]
    # q as in the hand case above; r has no same-class library slide, so it
    # stays in the block but not in the mean.
    evals = [slide("q", "a", "validation", 2), slide("r", "c", "validation", 5)]
    layout = build_layout(train)
    evaluator = FitnessEvaluator(layout, evals, 1, constrained=True)
    ones = np.ones(layout.total_patches, dtype=bool)
    assert len(evaluator._queries) == 6
    assert evaluator.reference_auc == pytest.approx((0.25 + 4) / 5, abs=1e-12)
    assert evaluator.reference_auc == pytest.approx(
        straight_line_retrieval_auc(ones, layout, train, evals), abs=1e-12)
    assert evaluator.evaluate_full(ones)[1].counts.sum() == 2


def test_retrieval_auc_matches_straight_line_oracle():
    ds = generate(SynthConfig(classes=3, train_slides_per_class=5,
                              validation_slides_per_class=2, test_slides_per_class=1,
                              patches_min=3, patches_max=9, dim=6,
                              class_separation=2.0, seed=15))
    layout = build_layout(ds.train)
    evaluator = FitnessEvaluator(layout, ds.validation, 5,
                                 classes=ds.classes, constrained=True)
    ones = np.ones(layout.total_patches, dtype=bool)
    reference = straight_line_retrieval_auc(ones, layout, ds.train, ds.validation)
    assert abs(evaluator.reference_auc - reference) <= 1e-9
    rng = np.random.default_rng(16)
    for _ in range(10):
        genome = random_covered_genome(rng, layout, density=float(rng.uniform(0.1, 0.9)))
        expected = straight_line_retrieval_auc(genome, layout, ds.train, ds.validation)
        assert abs(evaluator.retrieval_auc(genome) - expected) <= 1e-9
        assert abs(evaluator.evaluate(genome)[2] - max(0.0, reference - expected)) <= 1e-9


@pytest.mark.parametrize("labels", [("a", "b", "c"), ("a",)])
def test_library_auc_batch_matches_the_per_row_dot(labels):
    # Each AUC is 1 minus one genome's counted lost pairs dotted with the
    # weights, bit for bit, in a batch as alone; with no query counted (one
    # label) it is 0.
    rng = np.random.default_rng(21)
    train = make_slides(rng, 40, 5, labels)
    evals = make_slides(rng, 9, 5, labels, split="validation")
    layout = build_layout(train)
    evaluator = FitnessEvaluator(layout, evals, 3, constrained=True)
    genomes = np.stack([random_covered_genome(rng, layout) for _ in range(17)])
    dists = expanded_sq_distances(evaluator._queries, aggregate_selected(genomes, layout).vectors,
                                  evaluator._query_norms)
    aucs = evaluator._library_auc(dists.copy())
    alone = [evaluator._library_auc(matrix) for matrix in dists.copy()]
    dists[(..., *evaluator._self_cells)] = np.inf
    lost = _lost_pairs64(np.maximum(dists, 0.0), evaluator._same_bit, evaluator._same_before)
    lost = lost[:, evaluator._counted]
    if evaluator._counted.size:
        expected = [1.0 - float(row @ evaluator._lost_weights) for row in lost]
    else:
        expected = [0.0] * len(genomes)
    assert [auc.hex() for auc in aucs] == [auc.hex() for auc in alone]
    assert [auc.hex() for auc in aucs] == [auc.hex() for auc in expected]
    assert all(type(auc) is float for auc in aucs + alone)


def test_retrieval_auc_needs_a_constrained_evaluator():
    ds = generate(SynthConfig())
    evaluator = FitnessEvaluator(ds.layout, ds.validation, 5)
    ones = np.ones(evaluator.layout.total_patches, dtype=bool)
    with pytest.raises(ValueError, match="constrained=True"):
        evaluator.retrieval_auc(ones)


def test_unconstrained_evaluator_reports_no_violation():
    rng = np.random.default_rng(17)
    train = make_slides(rng, 6, 4, ["a", "b"])
    evals = make_slides(rng, 4, 4, ["a", "b"], split="validation")
    layout = build_layout(train)
    evaluator = FitnessEvaluator(layout, evals, 3)
    assert evaluator.reference_auc is None
    assert evaluator.evaluate(random_covered_genome(rng, layout))[2] == 0.0


@pytest.mark.parametrize("constrained", [False, True])
def test_evaluate_rows_are_evaluate_fulls_pairs_bit_for_bit(constrained):
    # Row i of evaluate is (f1_fraction, f2_error, violation) of evaluate_full's
    # pair i, in row order, repeats included; a (P,) genome gives its (3,) row.
    rng = np.random.default_rng(18)
    train = make_slides(rng, 6, 4, ["a", "b"])
    evals = make_slides(rng, 4, 4, ["a", "b"], split="validation")
    layout = build_layout(train)
    first, second, third = (random_covered_genome(rng, layout, density)
                            for density in (0.2, 0.5, 0.8))
    batch = np.stack([first, second, first, third, first, second])
    evaluator = FitnessEvaluator(layout, evals, 3, constrained=constrained)

    rows = evaluator.evaluate(batch)
    assert rows.shape == (6, 3) and rows.dtype == np.float64
    expected = np.array([(p.f1_fraction, p.f2_error, p.violation)
                         for p, _ in evaluator.evaluate_full(batch)])
    assert rows.tobytes() == expected.tobytes()
    assert rows[0].tobytes() == rows[2].tobytes() == rows[4].tobytes() != rows[1].tobytes()
    assert len({row.tobytes() for row in rows}) == 3
    singles = np.stack([evaluator.evaluate(genome) for genome in batch])
    assert singles.tobytes() == rows.tobytes()
    assert evaluator.evaluate(batch[:0]).shape == (0, 3)
    if not constrained:
        assert not rows[:, 2].any()


def test_evaluate_full_batch_matches_single_genomes():
    rng = np.random.default_rng(19)
    train = make_slides(rng, 5, 4, ["a", "b", "c"])
    evals = make_slides(rng, 6, 4, ["a", "b", "c"], split="validation")
    layout = build_layout(train)
    genomes = np.stack([random_covered_genome(rng, layout) for _ in range(3)])
    evaluator = FitnessEvaluator(layout, evals, 3)
    batched = evaluator.evaluate_full(genomes)
    assert isinstance(batched, list) and len(batched) == 3
    for genome, (pair, cm) in zip(genomes, batched):
        single_pair, single_cm = evaluator.evaluate_full(genome)
        assert pair == single_pair
        assert np.array_equal(cm.counts, single_cm.counts)


def test_aggregate_batch_names_first_empty_segment_of_first_bad_row():
    rng = np.random.default_rng(20)
    slides = make_slides(rng, 4, 4, ["a", "b"])
    layout = build_layout(slides)
    genomes = np.ones((3, layout.total_patches), dtype=bool)
    for row, seg in ((1, 2), (1, 3), (2, 0)):
        _, offset, length = layout.segments[seg]
        genomes[row, offset : offset + length] = False
    with pytest.raises(CoverageViolation, match=r"segment 2 of genome 1 \(slide 'train2'\)"):
        aggregate_selected(genomes, layout)
    evals = make_slides(rng, 2, 4, ["a", "b"], split="validation")
    with pytest.raises(CoverageViolation, match="train2"):
        FitnessEvaluator(layout, evals, 1).evaluate(genomes)


def test_evaluate_names_the_callers_row_of_an_empty_segment():
    # A repeated row before the bad one still counts: the message indexes
    # the rows evaluate was given, as evaluate_full's does.
    rng = np.random.default_rng(22)
    slides = make_slides(rng, 4, 4, ["a", "b"])
    evals = make_slides(rng, 2, 4, ["a", "b"], split="validation")
    layout = build_layout(slides)
    genomes = np.ones((3, layout.total_patches), dtype=bool)
    _, offset, length = layout.segments[2]
    genomes[2, offset : offset + length] = False
    evaluator = FitnessEvaluator(layout, evals, 1)
    for score in (evaluator.evaluate, evaluator.evaluate_full):
        with pytest.raises(CoverageViolation, match=r"segment 2 of genome 2 \(slide 'train2'\)"):
            score(genomes)


@pytest.mark.parametrize("shape", ["3d", "short", "long"])
def test_batch_rejects_bad_genome_shapes(shape):
    rng = np.random.default_rng(21)
    slides = make_slides(rng, 3, 4, ["a", "b"])
    evals = make_slides(rng, 2, 4, ["a", "b"], split="validation")
    layout = build_layout(slides)
    total = layout.total_patches
    genome = {
        "3d": np.ones((2, 1, total), dtype=bool),
        "short": np.ones((2, total - 1), dtype=bool),
        "long": np.ones(total + 1, dtype=bool),
    }[shape]
    evaluator = FitnessEvaluator(layout, evals, 1)
    with pytest.raises(ValueError, match="genome shape"):
        aggregate_selected(genome, layout)
    with pytest.raises(ValueError, match="genome shape"):
        evaluator.evaluate(genome)
    with pytest.raises(ValueError, match="genome shape"):
        evaluator.evaluate_full(genome)


def test_batched_weighted_f1_matches_each_matrix_and_hand_oracle():
    rng = np.random.default_rng(22)
    classes = ("a", "b", "c", "d")
    counts = rng.integers(0, 4, size=(60, 4, 4))
    counts[::3, 1, :] = 0  # class b has no support
    counts[::4, :, 2] = 0  # class c is never predicted
    counts[::5, 3, :] = 0
    counts[::5, :, 3] = 0  # class d is neither
    counts[7] = 0
    counts[:, 0, 0] += 1  # every matrix counts at least one slide
    batched = weighted_f1_from_confusion(ConfusionMatrix(classes, counts))
    assert batched.shape == (len(counts),)
    for value, matrix in zip(batched, counts):
        single = weighted_f1_from_confusion(ConfusionMatrix(classes, matrix))
        assert isinstance(single, float)
        assert float(value).hex() == single.hex()
        pairs = [(t, p) for (i, t) in enumerate(classes) for (j, p) in enumerate(classes)
                 for _ in range(matrix[i, j])]
        true, pred = map(list, zip(*pairs))
        assert abs(single - hand_weighted_f1(true, pred, classes)) <= 1e-12


def test_weighted_f1_adds_twelve_classes_in_order():
    # numpy's sum adds eight or more terms pairwise; at 12 classes that
    # differs from the classes added in order on many of these matrices.
    rng = np.random.default_rng(24)
    classes = tuple(f"c{i:02d}" for i in range(12))
    counts = rng.integers(0, 5, size=(300, 12, 12))
    batched = weighted_f1_from_confusion(ConfusionMatrix(classes, counts))
    for value, matrix in zip(batched, counts):
        pairs = [(t, p) for (i, t) in enumerate(classes) for (j, p) in enumerate(classes)
                 for _ in range(matrix[i, j])]
        expected = hand_weighted_f1(*map(list, zip(*pairs)), classes)
        assert weighted_f1_from_confusion(ConfusionMatrix(classes, matrix)) == expected
        assert value == expected


def test_batched_confusion_matrix_matches_each_row():
    rng = np.random.default_rng(23)
    classes = ["b", "a", "c"]  # not sorted: counts follow the list's order
    true = [classes[i] for i in rng.integers(0, 3, size=9)]
    predicted = np.array(classes)[rng.integers(0, 3, size=(5, 9))]
    batch = confusion_matrix(true, predicted, classes)
    assert batch.counts.shape == (5, 3, 3) and batch.counts.dtype == np.int64
    for row, counts in zip(predicted, batch.counts):
        assert np.array_equal(counts, confusion_matrix(true, row.tolist(), classes).counts)
    bad = predicted.copy()
    bad[3, 2] = "z"
    bad[4, 0] = "y"
    with pytest.raises(LabelError, match="predicted label 'z'"):
        confusion_matrix(true, bad, classes)
    with pytest.raises(LabelError, match="true label 'q'"):
        confusion_matrix(true[:4] + ["q"] + true[5:], bad, classes)
    with pytest.raises(ValueError, match="differ in length"):
        confusion_matrix(true[:-1], predicted, classes)


def test_block_path_raises_label_error_for_a_training_label_outside_classes():
    rng = np.random.default_rng(24)
    train = make_slides(rng, 4, 4, ["x"])
    evals = make_slides(rng, 3, 4, ["a"], split="validation")
    layout = build_layout(train)
    genomes = np.stack([random_covered_genome(rng, layout) for _ in range(3)])
    evaluator = FitnessEvaluator(layout, evals, 1, classes=["a"])
    with pytest.raises(LabelError, match="predicted label 'x' not in class list"):
        evaluator.evaluate_full(genomes)
    with pytest.raises(LabelError, match="predicted label 'x' not in class list"):
        evaluator.evaluate(genomes)


def label_path_scores(evaluator, genomes, classes):
    """Confusion counts and errors from knn_predict's labels and confusion_matrix."""
    queries = np.stack([slide_mean_all(rec) for rec in evaluator.eval_slides])
    true = [rec.label for rec in evaluator.eval_slides]
    library = aggregate_selected(genomes, evaluator.layout)
    cms = confusion_matrix(true, knn_predict(queries, library, evaluator.k), classes)
    return cms.counts, 1.0 - weighted_f1_from_confusion(cms)


@pytest.mark.parametrize("constrained", [False, True])
def test_class_index_scoring_matches_the_label_path(constrained):
    rng = np.random.default_rng(31)
    classes = ["c", "a", "d", "b"]  # not sorted; "d" has no training slide
    train = make_slides(rng, 9, 5, ["b", "c", "a"])
    evals = make_slides(rng, 8, 5, ["a", "d", "c", "b"], split="validation")
    layout = build_layout(train)
    genomes = np.stack([random_covered_genome(rng, layout, density)
                        for density in (0.1, 0.3, 0.6, 0.9, 1.0)])
    for k in (1, 3, 4):  # k=4 splits votes 2-2 or 2-1-1
        evaluator = FitnessEvaluator(layout, evals, k, classes=classes,
                                     constrained=constrained)
        counts, errors = label_path_scores(evaluator, genomes, classes)
        scored = evaluator.evaluate_full(genomes)
        for (pair, cm), expected_counts, expected_error in zip(scored, counts, errors):
            assert cm.classes == tuple(classes)
            assert np.array_equal(cm.counts, expected_counts)
            assert pair.f2_error == float(expected_error)


def label_error_message(fn, *args):
    with pytest.raises(LabelError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("train_labels, eval_labels, message", [
    (["x", "x", "a"], ["a", "b", "a", "b"], "predicted label 'x'"),
    (["a", "b", "a"], ["a", "b", "q", "b"], "true label 'q'"),
    (["x", "x", "a"], ["q", "b", "a", "b"], "true label 'q'"),  # same query: true first
    (["x", "x", "a"], ["a", "b", "q", "b"], "predicted label 'x'"),  # earlier query
])
def test_class_index_scoring_raises_the_label_path_error(train_labels, eval_labels, message):
    rng = np.random.default_rng(32)
    classes = ["b", "a"]
    # Six training slides, k=6: where "x" holds 4 of them, every vote is "x".
    train = make_slides(rng, 6, 4, train_labels)
    evals = make_slides(rng, 4, 4, eval_labels, split="validation")
    layout = build_layout(train)
    genomes = np.stack([random_covered_genome(rng, layout) for _ in range(3)])
    evaluator = FitnessEvaluator(layout, evals, 6, classes=classes, constrained=True)
    # Labels outside the class list still rank retrieval by equality.
    ones = np.ones(layout.total_patches, dtype=bool)
    assert abs(evaluator.reference_auc
               - straight_line_retrieval_auc(ones, layout, train, evals)) <= 1e-9
    expected = label_error_message(label_path_scores, evaluator, genomes, classes)
    assert expected == f"{message} not in class list"
    assert label_error_message(evaluator.evaluate_full, genomes) == expected
    assert label_error_message(evaluator.evaluate, genomes) == expected


def test_degenerate_scoring_inputs_are_rejected():
    lib = library([[0.0, 0.0], [1.0, 1.0]], ["a", "b"])
    with pytest.raises(ValueError, match="k must be >= 1"):
        knn_predict(np.zeros(2), lib, 0)
    with pytest.raises(ValueError, match="library is empty"):
        knn_predict(np.zeros(2), library(np.zeros((0, 2)), []), 1)
    with pytest.raises(ValueError, match="label lists are empty"):
        confusion_matrix([], [], ("a", "b"))
    slides = make_slides(np.random.default_rng(0), 4, 3, ["a", "b"])
    with pytest.raises(ValueError, match="eval_slides is empty"):
        FitnessEvaluator(build_layout(slides), [], 1)
