"""Command-line orchestration: gen-synth, run, baseline.

Exit codes: 0 success, 2 configuration error, 3 dataset error, 4 runtime
failure. Progress goes to stderr; machine-readable output only to files.
Flag values override config-file values, which override built-in defaults.
Config keys are the field names of ``EvolutionConfig`` (less ``seed``, which
``run --seeds`` sets) and of ``SynthConfig``; each config flag stores into the
field of the same name (``--pop-size`` sets ``population_size``).
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import sys
from dataclasses import fields, replace
from pathlib import Path

from .dataset import (
    EmbeddingFormatError,
    ManifestParseError,
    ValidationError,
    load_dataset,
    write_json,
)
from .evolution import SEARCHES, EvolutionConfig, run_evolution
from .pareto_report import (
    aggregate_runs,
    baseline_scores,
    build_report,
    compute_baseline,
    export_aggregate,
    export_report,
    write_confusion_csvs,
)
from .synthgen import SynthConfig, generate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATASET = 3
EXIT_RUNTIME = 4

DATASET_ERRORS = (ManifestParseError, EmbeddingFormatError, ValidationError)


class ConfigError(Exception):
    pass


def parse_seeds(text: str) -> list[int]:
    """Parse '1..10' ranges and comma lists like '1,3,7..9' into distinct seeds.

    Every entry is checked before any range is expanded, so a bad entry after
    a huge range fails at once.
    """
    ranges: list[tuple[int, int]] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ConfigError(f"empty seed entry in '{text}'")
        lo_text, hi_text = part.split("..", 1) if ".." in part else (part, part)
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError as exc:
            raise ConfigError(f"bad seed entry '{part}'") from exc
        if hi < lo:
            raise ConfigError(f"descending seed range '{part}'")
        if lo < 0:
            raise ConfigError(f"seeds must be >= 0: '{text}'")
        ranges.append((lo, hi))
    ordered = sorted(ranges)
    if any(prev_hi >= lo for (_, prev_hi), (lo, _) in zip(ordered, ordered[1:])):
        raise ConfigError(f"seeds must be distinct: '{text}'")
    return [seed for lo, hi in ranges for seed in range(lo, hi + 1)]


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return data


def _config(cls, args, exclude=()):
    """A validated ``cls``: defaults <- config file <- flags.

    Flags carry ``dest=<field name>``, so the field names are the only list of
    keys. Fields in ``exclude`` keep their defaults and are unknown config keys.
    """
    names = [f.name for f in fields(cls) if f.name not in exclude]
    values = {}
    for key, value in _load_config_file(args.config).items():
        if key not in names:
            raise ConfigError(f"unknown config key '{key}'")
        values[key] = value
    for name in names:
        value = getattr(args, name, None)
        if value is not None:
            values[name] = value
    config = cls(**values)
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def _run_one_seed(dataset, config, baseline, seed, out_dir):
    cfg = replace(config, seed=seed)

    def progress(trace):
        print(
            f"[seed {seed}] gen {trace.generation:4d}  "
            f"best_err={trace.best_f2_error:.4f}  "
            f"mean_err={trace.mean_f2_error:.4f}  "
            f"min_frac={trace.min_f1_fraction:.4f}  "
            f"front0={trace.front0_size}",
            file=sys.stderr,
        )

    population, traces = run_evolution(dataset, cfg, on_generation=progress)
    report = build_report(dataset, cfg, population, traces, baseline)
    # Export beside the seed's directory, then swap it in: a run killed on
    # the way leaves the earlier seed_<n> or none, never a mix of the two.
    final = Path(out_dir) / f"seed_{seed}"
    partial = final.with_name(f".{final.name}.partial")
    old = final.with_name(f".{final.name}.old")
    export_report(report, partial)
    if final.exists():
        final.rename(old)
    partial.rename(final)
    shutil.rmtree(old, ignore_errors=True)
    return report


def cmd_run(args) -> int:
    dataset = load_dataset(args.dataset)
    dataset.require_runnable()
    config = _config(EvolutionConfig, args, exclude=("seed",))
    seeds = parse_seeds(args.seeds)
    # The reference depends only on (dataset, k). Scoring it before --out is
    # touched lets a run that cannot score it fail with the earlier run intact.
    baseline = compute_baseline(dataset, config.k_neighbors)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # An earlier run's other seeds and aggregate must not pass for part of
    # this run's result, also when this run is killed before it finishes;
    # nor may a killed run's half-swapped seed directories.
    kept = {f"seed_{s}" for s in seeds}
    for path in out_dir.iterdir():
        stale = re.fullmatch(r"seed_\d+", path.name) and path.name not in kept
        if path.is_dir() and (stale or re.fullmatch(r"\.seed_\d+\.(partial|old)", path.name)):
            shutil.rmtree(path)
    (out_dir / "aggregate.json").unlink(missing_ok=True)

    reports = [_run_one_seed(dataset, config, baseline, s, out_dir) for s in seeds]
    export_aggregate(aggregate_runs(reports), out_dir / "aggregate.json")
    return EXIT_OK


def cmd_gen_synth(args) -> int:
    config = _config(SynthConfig, args)
    dataset = generate(config, out_dir=args.out)
    n_patches = sum(rec.rows for rec in dataset.slides)
    print(
        f"wrote {len(dataset.slides)} slides, {n_patches} patches, "
        f"dim {dataset.dim} -> {args.out}"
    )
    return EXIT_OK


def cmd_baseline(args) -> int:
    dataset = load_dataset(args.dataset)
    config = _config(EvolutionConfig, args, exclude=("seed",))
    baseline = compute_baseline(dataset, config.k_neighbors)
    print(
        f"baseline: patch_count={baseline.patch_count}  "
        f"validation_f1={baseline.validation_f1:.6f}  "
        f"test_f1={baseline.test_f1:.6f}"
    )
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        # baseline.json goes last, so that it stands beside complete CSVs.
        (out_dir / "baseline.json").unlink(missing_ok=True)
        write_confusion_csvs(out_dir, "baseline", baseline)
        write_json(out_dir / "baseline.json", baseline_scores(baseline))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evops",
        description="Evolve minimal patch-embedding subsets per training slide.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="multi-seed optimization runs plus reports")
    run.add_argument("--dataset", required=True, help="dataset dir or manifest path")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--config", default=None, help="JSON config file")
    run.add_argument("--seeds", default="0", help="e.g. '0', '1..10', '1,4,9'")
    # --workers and --parallel-seeds are accepted for existing scripts and
    # change nothing: threads lost to serial evaluation (the work holds the GIL).
    run.add_argument("--workers", type=int, default=1,
                     help="accepted for compatibility; evaluation runs serially")
    run.add_argument("--parallel-seeds", type=int, default=1,
                     help="accepted for compatibility; seeds run one after another")
    run.add_argument("--generations", dest="generations", type=int)
    run.add_argument("--pop-size", dest="population_size", type=int)
    run.add_argument("--swap-p", dest="crossover_swap_p", type=float)
    run.add_argument("--flip-p", dest="mutation_flip_p", type=float)
    run.add_argument("--k", dest="k_neighbors", type=int)
    run.add_argument("--search", dest="search", choices=SEARCHES,
                     help="'guided' (default) or the published method, 'paper'")
    run.set_defaults(func=cmd_run)

    gen = sub.add_parser("gen-synth", help="generate a synthetic cohort")
    gen.add_argument("--out", required=True, help="output dataset directory")
    gen.add_argument("--config", default=None, help="JSON config file")
    gen.add_argument("--classes", dest="classes", type=int)
    gen.add_argument("--train-per-class", dest="train_slides_per_class", type=int)
    gen.add_argument("--val-per-class", dest="validation_slides_per_class", type=int)
    gen.add_argument("--test-per-class", dest="test_slides_per_class", type=int)
    gen.add_argument("--min-patches", dest="patches_min", type=int)
    gen.add_argument("--max-patches", dest="patches_max", type=int)
    gen.add_argument("--informative-fraction", dest="informative_fraction", type=float)
    gen.add_argument("--dim", dest="dim", type=int)
    gen.add_argument("--separation", dest="class_separation", type=float)
    gen.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    gen.add_argument("--seed", dest="seed", type=int)
    gen.set_defaults(func=cmd_gen_synth)

    base = sub.add_parser("baseline", help="score the all-patches reference")
    base.add_argument("--dataset", required=True, help="dataset dir or manifest path")
    base.add_argument("--out", default=None, help="optional output directory")
    base.add_argument("--config", default=None, help="JSON config file (k_neighbors)")
    base.add_argument("--k", dest="k_neighbors", type=int)
    base.set_defaults(func=cmd_baseline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        # An exception without a message, such as MemoryError(), is named by its type.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        if isinstance(exc, ConfigError):
            return EXIT_CONFIG
        return EXIT_DATASET if isinstance(exc, DATASET_ERRORS) else EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
