"""Multi-seed protocol: repeat runs, aggregate, confirm determinism.

Runs are deterministic functions of (dataset, seed): genetic operators draw
from one sequential stream and fitness evaluation consumes no randomness,
so repeating a seed repeats the run exactly. Repeating with several seeds
and averaging mirrors the reporting protocol used for the per-run summary
tables.
"""

from dataclasses import replace

from evops.evolution import EvolutionConfig, run_evolution
from evops.pareto_report import aggregate_runs, build_report
from evops.synthgen import SynthConfig, generate

dataset = generate(SynthConfig(classes=3, train_slides_per_class=6,
                               validation_slides_per_class=3, test_slides_per_class=3,
                               patches_min=12, patches_max=24,
                               informative_fraction=0.25, dim=16,
                               class_separation=4.0, seed=100))
base_config = EvolutionConfig(population_size=20, generations=10)

reports = []
for seed in (1, 2, 3):
    config = replace(base_config, seed=seed)
    population, traces = run_evolution(dataset, config)
    reports.append(build_report(dataset, config, population, traces))
    best = reports[-1].front[reports[-1].best_val]
    print(f"seed {seed}: best-val {best.patch_count:4d} patches, "
          f"val F1 {best.validation_f1:.3f}, test F1 {best.test_f1:.3f}")

aggregate = aggregate_runs(reports)
bv = aggregate.best_val
print(f"\naggregate over {aggregate.runs} seeds:")
print(f"  best-val test F1:  {bv['test_f1']['mean']:.3f} +/- {bv['test_f1']['std']:.3f}")
print(f"  best-val patches:  {bv['patch_count']['mean']:.1f} "
      f"+/- {bv['patch_count']['std']:.1f}")
print(f"  reduction:         {bv['reduction_percent']['mean']:.1f}%")
print("  mean selected patches per slide, by class:")
for label, count in aggregate.per_class_patches_per_slide.items():
    print(f"    {label}: {count:.2f}")

# Same seed, run twice: identical populations and traces.
config = replace(base_config, seed=1)
pop_first, traces_first = run_evolution(dataset, config)
pop_again, traces_again = run_evolution(dataset, config)
identical = traces_first == traces_again and all(
    (a.genome == b.genome).all() for a, b in zip(pop_first, pop_again)
)
print(f"\nthe same seed run twice gives identical runs: {identical}")
