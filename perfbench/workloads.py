"""The benchmark's workloads: a family of seeded synthetic cohorts and run settings each.

Every workload runs population 100, k=5, swap 0.9 and flip 0.01, the
defaults of `evops run`. The benchmark's ``--seed`` names a few cohort
seeds; each cohort seed is also the evolution seed of the runs on that
cohort, so one benchmark seed names its inputs exactly. How long a search
takes depends on how hard its cohort is to classify (the front keeps more
patches on a harder one), so the metrics average over several cohorts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from evops.evolution import EvolutionConfig
from evops.synthgen import SynthConfig, generate

POPULATION = 100
K_NEIGHBORS = 5
SWAP_P = 0.9
FLIP_P = 0.01
# Not 2: on a 2-core host, one busy core elsewhere slows a 2-worker search by
# 20-33% (the workers contend for the GIL), which swamps the bounds; a
# 1-worker search does not notice it.
WORKERS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cohort: SynthConfig  # its seed is replaced by each cohort seed
    generations: int
    cohorts: int  # cohorts per benchmark seed
    # Rounds (one run on each cohort) made however long they take. They fix
    # the smallest number of generation samples, which fixes the tail
    # percentile reported.
    min_rounds: int

    def cohort_seeds(self, seed: int) -> list[int]:
        """The cohort seeds of benchmark seed ``seed``; two seeds share none."""
        return [seed * self.cohorts + i for i in range(self.cohorts)]

    def synth_config(self, seed: int) -> SynthConfig:
        return replace(self.cohort, seed=seed)

    def evolution_config(self, seed: int) -> EvolutionConfig:
        return EvolutionConfig(
            population_size=POPULATION,
            generations=self.generations,
            crossover_swap_p=SWAP_P,
            mutation_flip_p=FLIP_P,
            k_neighbors=K_NEIGHBORS,
            seed=seed,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tiny-cohort",
            why="README quick-start cohort (12 train slides, dim 16): per-call "
                "overhead, ranking and the genome cache dominate",
            cohort=SynthConfig(),
            generations=50,
            cohorts=12,
            min_rounds=2,
        ),
        Workload(
            name="wide-dim",
            why="~5.8k training patches at dim 384: the masked-mean aggregation and "
                "report restacking are bandwidth-bound",
            cohort=SynthConfig(
                classes=3,
                train_slides_per_class=10,
                validation_slides_per_class=10,
                test_slides_per_class=10,
                patches_min=130,
                patches_max=260,
                dim=384,
                class_separation=2.5,
            ),
            generations=10,
            cohorts=6,
            min_rounds=1,
        ),
        Workload(
            name="many-slides",
            why="300 train slides of 2-8 patches at dim 16: thousands of cheap k-NN "
                "queries per generation and no cache hits",
            cohort=SynthConfig(
                classes=4,
                train_slides_per_class=75,
                validation_slides_per_class=20,
                test_slides_per_class=20,
                patches_min=2,
                patches_max=8,
                dim=16,
                class_separation=3.0,
            ),
            generations=20,
            cohorts=4,
            min_rounds=1,
        ),
    )
}


def write_cohort(workload: Workload, seed: int, out_dir):
    """Generate the workload's cohort for ``seed`` and write it to ``out_dir``."""
    return generate(workload.synth_config(seed), out_dir=out_dir)
