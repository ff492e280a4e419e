"""Multi-objective selection of patch-embedding subsets for slide k-NN retrieval.

Evolves binary patch-selection genomes against two objectives, the fraction
of training patches kept and the k-NN classification error on a held-out
split, and reports the resulting Pareto front with validation/test scores.
"""

from .dataset import (
    EmbeddingFormatError,
    GenomeLayout,
    ManifestParseError,
    SlideRecord,
    SplitDataset,
    ValidationError,
    build_layout,
    load_dataset,
    slide_mean_all,
    write_dataset,
)
from .evolution import (
    EvolutionConfig,
    GenerationTrace,
    Individual,
    crowding_distance,
    dominates,
    fast_non_dominated_sort,
    initialize_population,
    run_evolution,
    safe_bitflip_mutation,
    safe_uniform_crossover,
    select_parents,
    select_survivors,
)
from .fitness import (
    ConfusionMatrix,
    CoverageViolation,
    FitnessPair,
    LabelError,
    ReferenceLibrary,
    aggregate_selected,
    evaluate_individual,
    knn_predict,
    weighted_f1,
)
from .pareto_report import (
    AggregateReport,
    FrontSolution,
    MixedDatasetError,
    RunReport,
    aggregate_runs,
    build_report,
    compute_baseline,
    evaluate_front,
    export_report,
    extract_front,
)
from .synthgen import SynthConfig, generate

__version__ = "0.1.0"
