"""Seeded synthetic cohorts with a planted class signal.

Each class gets a Gaussian centroid; each slide mixes a minority of
"informative" patches drawn around its class centroid with class-agnostic
noise patches drawn around the origin. Mean-pooling a whole slide therefore
dilutes the class signal, which is exactly the effect subset selection is
supposed to undo. Informative patches always occupy the first rows of a
slide, so ground truth is recoverable by row index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import (SlideRecord, SplitDataset, check_number_fields, make_dataset,
                      write_dataset, write_json)


@dataclass
class SynthConfig:
    classes: int = 3
    train_slides_per_class: int = 4
    validation_slides_per_class: int = 2
    test_slides_per_class: int = 2
    patches_min: int = 8
    patches_max: int = 16
    informative_fraction: float = 0.25
    dim: int = 16
    class_separation: float = 6.0  # expected centroid-to-centroid distance
    noise_sigma: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        check_number_fields(self)
        if self.classes < 2:
            raise ValueError("classes must be >= 2")
        for name in ("train_slides_per_class", "validation_slides_per_class",
                     "test_slides_per_class"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 1 <= self.patches_min <= self.patches_max:
            raise ValueError("need 1 <= patches_min <= patches_max")
        if not 0.0 < self.informative_fraction <= 1.0:
            raise ValueError("informative_fraction must be in (0, 1]")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        # A NaN fails every comparison, so finiteness is checked first.
        if not math.isfinite(self.class_separation) or self.class_separation < 0:
            raise ValueError("class_separation must be finite and >= 0")
        if not math.isfinite(self.noise_sigma) or self.noise_sigma <= 0:
            raise ValueError("noise_sigma must be finite and > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _class_label(c: int) -> str:
    return f"class{c:02d}"


def informative_count(rows: int, informative_fraction: float) -> int:
    return math.ceil(informative_fraction * rows)


def generate(config: SynthConfig, out_dir=None) -> SplitDataset:
    """Generate a cohort; optionally write it plus its ground-truth sidecar.

    Deterministic per seed: identical configs produce bit-identical
    datasets. Centroids are scaled so the expected pairwise distance is
    class_separation; with separation 0 every class collapses onto the
    origin and classification degrades to chance.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    # Random directions with one shared norm: pairwise centroid distances
    # concentrate at class_separation, and no class sits closer to the
    # origin (where the noise patches live) than any other.
    directions = rng.standard_normal((config.classes, config.dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    centroids = (config.class_separation / math.sqrt(2)) * directions

    per_split = {
        "train": config.train_slides_per_class,
        "validation": config.validation_slides_per_class,
        "test": config.test_slides_per_class,
    }
    slides: dict[str, list[SlideRecord]] = {name: [] for name in per_split}
    for split, per_class in per_split.items():
        for c in range(config.classes):
            label = _class_label(c)
            for s in range(per_class):
                rows = int(rng.integers(config.patches_min, config.patches_max + 1))
                n_inf = informative_count(rows, config.informative_fraction)
                patches = np.empty((rows, config.dim))
                patches[:n_inf] = centroids[c] + config.noise_sigma * rng.standard_normal(
                    (n_inf, config.dim)
                )
                patches[n_inf:] = config.noise_sigma * rng.standard_normal(
                    (rows - n_inf, config.dim)
                )
                slides[split].append(
                    SlideRecord(
                        slide_id=f"{split}_{label}_{s:03d}",
                        label=label,
                        split=split,
                        embeddings=patches.astype(np.float32),
                    )
                )

    dataset = make_dataset(slides["train"], slides["validation"], slides["test"])
    if out_dir is not None:
        truth = Path(out_dir) / "ground_truth.json"
        truth.unlink(missing_ok=True)  # an earlier cohort's must not outlive its manifest
        write_dataset(dataset, out_dir)
        write_json(truth, ground_truth_indices(dataset, config.informative_fraction))
    return dataset


def ground_truth_indices(dataset: SplitDataset, informative_fraction: float) -> dict:
    """Per-slide row indices of the planted informative patches."""
    return {
        rec.slide_id: list(range(informative_count(rec.rows, informative_fraction)))
        for rec in dataset.slides
    }


def oracle_genome(dataset: SplitDataset, informative_fraction: float) -> np.ndarray:
    """Genome selecting exactly the planted informative patches per train slide."""
    parts = []
    for rec in dataset.train:
        seg = np.zeros(rec.rows, dtype=bool)
        seg[: informative_count(rec.rows, informative_fraction)] = True
        parts.append(seg)
    return np.concatenate(parts)
