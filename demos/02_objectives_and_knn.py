"""How a genome is scored: masked means, k-NN retrieval, weighted F1.

A genome is one bit per training patch, slide segments contiguous. Scoring
builds a reference library (per-slide mean over *selected* patches only),
represents every evaluation slide by the mean of *all* its patches, and
classifies each by majority vote among its k nearest library rows.
"""

import numpy as np

from evops.fitness import aggregate_selected, evaluate_individual, knn_predict, weighted_f1
from evops.synthgen import SynthConfig, generate, oracle_genome

dataset = generate(SynthConfig(classes=3, train_slides_per_class=5,
                               validation_slides_per_class=3, test_slides_per_class=3,
                               patches_min=10, patches_max=20,
                               informative_fraction=0.2, dim=16,
                               class_separation=4.0, seed=7))
layout = dataset.layout  # built once per dataset, with its float64 training matrix
P = layout.total_patches
print(f"{len(dataset.train)} training slides, P={P} patches, "
      f"{len(layout.segments)} genome segments")

# --- the all-ones genome reproduces plain slide means -----------------------
ones = np.ones(P, dtype=bool)
library = aggregate_selected(ones, layout)
print(f"\nreference library: {library.vectors.shape[0]} rows x "
      f"{library.vectors.shape[1]} dims")

query = dataset.validation[0]
predicted = knn_predict(query.embeddings.mean(axis=0, dtype=np.float64), library, 5)
print(f"slide {query.slide_id} (true {query.label}) -> predicted {predicted}")

# --- weighted F1 is the quality half of the fitness pair --------------------
true = ["A", "A", "B", "B"]
pred = ["A", "B", "B", "B"]
print(f"\nweighted F1 for true={true}, pred={pred}: "
      f"{weighted_f1(true, pred, ['A', 'B']):.6f}")

# --- both objectives at once -------------------------------------------------
for name, genome in [
    ("all patches", ones),
    ("planted informative subset", oracle_genome(dataset, 0.2)),
]:
    pair, confusion = evaluate_individual(genome, layout, dataset.validation, 5,
                                          classes=dataset.classes)
    print(f"\n{name}: fraction={pair.f1_fraction:.3f}  "
          f"validation error={pair.f2_error:.3f}")
    print("confusion (rows true, cols predicted):")
    for cls, row in zip(confusion.classes, confusion.counts):
        print(f"  {cls}: {row.tolist()}")
