import json

import numpy as np
import pytest

from evops.dataset import build_layout, load_dataset
from evops.fitness import evaluate_individual
from evops.pareto_report import compute_baseline
from evops.synthgen import SynthConfig, generate, ground_truth_indices, oracle_genome


def test_config_validation():
    SynthConfig().validate()
    with pytest.raises(ValueError):
        SynthConfig(classes=1).validate()
    with pytest.raises(ValueError):
        SynthConfig(informative_fraction=0.0).validate()
    with pytest.raises(ValueError):
        SynthConfig(informative_fraction=1.2).validate()
    with pytest.raises(ValueError):
        SynthConfig(patches_min=0).validate()
    with pytest.raises(ValueError):
        SynthConfig(patches_min=9, patches_max=3).validate()
    with pytest.raises(ValueError):
        SynthConfig(noise_sigma=0.0).validate()
    with pytest.raises(ValueError):
        SynthConfig(test_slides_per_class=0).validate()


def test_same_seed_bit_identical():
    cfg = SynthConfig(seed=99)
    a, b = generate(cfg), generate(cfg)
    assert a.content_hash == b.content_hash
    for ra, rb in zip(a.slides, b.slides):
        assert ra.embeddings.tobytes() == rb.embeddings.tobytes()


def test_different_seeds_differ():
    assert generate(SynthConfig(seed=1)).content_hash != generate(
        SynthConfig(seed=2)
    ).content_hash


def test_perfect_separation_gives_perfect_baseline():
    cfg = SynthConfig(informative_fraction=1.0, class_separation=50.0,
                      noise_sigma=1.0, seed=5)
    baseline = compute_baseline(generate(cfg), 5)
    assert baseline.test_f1 == 1.0
    assert baseline.validation_f1 == 1.0


def test_zero_separation_is_chance_level():
    scores = []
    for seed in range(10):
        cfg = SynthConfig(classes=3, train_slides_per_class=6,
                          validation_slides_per_class=2, test_slides_per_class=10,
                          class_separation=0.0, seed=seed)
        scores.append(compute_baseline(generate(cfg), 5).test_f1)
    assert abs(float(np.mean(scores)) - 1.0 / 3.0) <= 0.15


def test_generated_dataset_passes_load_validation(tmp_path):
    ds = generate(SynthConfig(seed=13), out_dir=tmp_path)
    loaded = load_dataset(tmp_path)
    assert loaded.content_hash == ds.content_hash
    truth = json.loads((tmp_path / "ground_truth.json").read_text())
    assert set(truth) == {rec.slide_id for rec in ds.slides}


def test_ground_truth_matches_informative_prefix():
    cfg = SynthConfig(seed=17, informative_fraction=0.3)
    ds = generate(cfg)
    truth = ground_truth_indices(ds, cfg.informative_fraction)
    for rec in ds.slides:
        expected = int(np.ceil(cfg.informative_fraction * rec.rows))
        assert truth[rec.slide_id] == list(range(expected))


def test_oracle_genome_beats_or_matches_baseline():
    # diluted slide means hurt the all-patches baseline; the planted subset
    # must recover at least baseline quality on the test split
    cfg = SynthConfig(classes=3, train_slides_per_class=10,
                      validation_slides_per_class=4, test_slides_per_class=6,
                      patches_min=30, patches_max=60, informative_fraction=0.2,
                      dim=24, class_separation=3.0, noise_sigma=1.0, seed=23)
    ds = generate(cfg)
    layout = build_layout(ds.train)
    baseline = compute_baseline(ds, 5)
    genome = oracle_genome(ds, cfg.informative_fraction)
    pair, _ = evaluate_individual(genome, layout, ds.test, 5,
                                  classes=ds.classes)
    assert 1.0 - pair.f2_error >= baseline.test_f1


def test_patch_counts_within_configured_range():
    cfg = SynthConfig(patches_min=5, patches_max=9, seed=29)
    for rec in generate(cfg).slides:
        assert 5 <= rec.rows <= 9


def test_all_splits_and_classes_present():
    cfg = SynthConfig(classes=4, seed=31)
    ds = generate(cfg)
    assert len(ds.classes) == 4
    assert {rec.label for rec in ds.train} == set(ds.classes)
    assert {rec.label for rec in ds.validation} == set(ds.classes)
    assert {rec.label for rec in ds.test} == set(ds.classes)


def test_config_rejects_zero_dim():
    with pytest.raises(ValueError, match="dim must be >= 1"):
        SynthConfig(dim=0).validate()
