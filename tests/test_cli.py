import json
import os
import struct
import subprocess
import sys
import tracemalloc
from functools import cached_property
from pathlib import Path

import pytest

from evops import cli, pareto_report
from evops import dataset as dataset_mod
from evops.cli import ConfigError, main, parse_seeds
from evops.dataset import GenomeLayout, load_dataset
from evops.synthgen import SynthConfig


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def small_ds(tmp_path_factory):
    path = tmp_path_factory.mktemp("ds")
    code = run_cli("gen-synth", "--out", path, "--classes", "3", "--dim", "8",
                   "--seed", "7", "--train-per-class", "3", "--val-per-class", "2",
                   "--test-per-class", "2", "--min-patches", "4",
                   "--max-patches", "8", "--separation", "40")
    assert code == 0
    return path


def test_parse_seeds_forms():
    assert parse_seeds("0") == [0]
    assert parse_seeds("1..4") == [1, 2, 3, 4]
    assert parse_seeds("1,4,9") == [1, 4, 9]
    assert parse_seeds("1,3..5,9") == [1, 3, 4, 5, 9]
    with pytest.raises(ConfigError):
        parse_seeds("1,1")
    with pytest.raises(ConfigError):
        parse_seeds("5..2")
    with pytest.raises(ConfigError):
        parse_seeds("a")


def test_gen_synth_roundtrips(small_ds):
    ds = load_dataset(small_ds)
    assert len(ds.classes) == 3
    assert ds.dim == 8
    assert (small_ds / "ground_truth.json").exists()


def test_gen_synth_deterministic(tmp_path):
    args = ("gen-synth", "--classes", "2", "--dim", "4", "--seed", "11")
    assert run_cli(*args, "--out", tmp_path / "a") == 0
    assert run_cli(*args, "--out", tmp_path / "b") == 0
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_gen_synth_rejects_zero_informative(tmp_path, capsys):
    code = run_cli("gen-synth", "--out", tmp_path / "x",
                   "--informative-fraction", "0")
    assert code == 2
    assert "informative_fraction" in capsys.readouterr().err


def test_baseline_on_separated_cohort(small_ds, tmp_path, capsys):
    code = run_cli("baseline", "--dataset", small_ds, "--out", tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "test_f1=1.000000" in out
    payload = json.loads((tmp_path / "baseline.json").read_text())
    ds = load_dataset(small_ds)
    assert payload["patch_count"] == sum(rec.rows for rec in ds.train)
    assert (tmp_path / "confusion_val_baseline.csv").exists()
    assert (tmp_path / "confusion_test_baseline.csv").exists()


def test_baseline_accepts_shared_config_file(small_ds, tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"k_neighbors": 3, "population_size": 8}))
    code = run_cli("baseline", "--dataset", small_ds, "--config", config_path)
    assert code == 0
    assert "patch_count" in capsys.readouterr().out


def test_baseline_repeat_identical(small_ds, tmp_path):
    assert run_cli("baseline", "--dataset", small_ds, "--out", tmp_path / "a") == 0
    assert run_cli("baseline", "--dataset", small_ds, "--out", tmp_path / "b") == 0
    assert (tmp_path / "a" / "baseline.json").read_bytes() == (
        tmp_path / "b" / "baseline.json"
    ).read_bytes()


def test_missing_manifest_exit_3(tmp_path, capsys):
    code = run_cli("baseline", "--dataset", tmp_path / "nope")
    assert code == 3
    assert "nope" in capsys.readouterr().err


def test_run_multi_seed_layout(small_ds, tmp_path, capsys):
    code = run_cli("run", "--dataset", small_ds, "--out", tmp_path,
                   "--seeds", "1..3", "--pop-size", "8", "--generations", "2")
    assert code == 0
    for seed in (1, 2, 3):
        assert (tmp_path / f"seed_{seed}" / "pareto_front.csv").exists()
        assert (tmp_path / f"seed_{seed}" / "summary.json").exists()
    agg = json.loads((tmp_path / "aggregate.json").read_text())
    assert agg["runs"] == 3 and agg["seeds"] == [1, 2, 3]
    # progress lines went to stderr, one per generation plus the initial one
    err = capsys.readouterr().err
    assert err.count("[seed 1]") == 3


def test_run_defaults_echo_configured_values(small_ds, tmp_path):
    code = run_cli("run", "--dataset", small_ds, "--out", tmp_path,
                   "--seeds", "1", "--generations", "1")
    assert code == 0
    summary = json.loads((tmp_path / "seed_1" / "summary.json").read_text())
    config = summary["config"]
    assert config["population_size"] == 100
    assert config["crossover_swap_p"] == 0.9
    assert config["mutation_flip_p"] == 0.01
    assert config["k_neighbors"] == 5
    assert config["generations"] == 1  # flag override
    assert config["seed"] == 1


def test_run_config_file_layering(small_ds, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"population_size": 6, "generations": 3}))
    code = run_cli("run", "--dataset", small_ds, "--out", tmp_path / "r",
                   "--seeds", "1", "--config", config_path, "--generations", "2")
    assert code == 0
    summary = json.loads((tmp_path / "r" / "seed_1" / "summary.json").read_text())
    assert summary["config"]["population_size"] == 6  # from file
    assert summary["config"]["generations"] == 2  # flag wins


def test_run_rejects_unknown_config_key(small_ds, tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"popsize": 6}))
    code = run_cli("run", "--dataset", small_ds, "--out", tmp_path / "r",
                   "--seeds", "1", "--config", config_path)
    assert code == 2
    assert "popsize" in capsys.readouterr().err


def test_run_rejects_odd_population(small_ds, tmp_path, capsys):
    code = run_cli("run", "--dataset", small_ds, "--out", tmp_path / "r",
                   "--seeds", "1", "--pop-size", "7")
    assert code == 2
    assert "population_size" in capsys.readouterr().err


def test_run_parallel_seeds_same_outputs(small_ds, tmp_path):
    base = ("run", "--dataset", small_ds, "--seeds", "1..2",
            "--pop-size", "8", "--generations", "2")
    assert run_cli(*base, "--out", tmp_path / "serial") == 0
    assert run_cli(*base, "--out", tmp_path / "parallel", "--parallel-seeds", "2") == 0
    for seed in (1, 2):
        a = (tmp_path / "serial" / f"seed_{seed}" / "pareto_front.csv").read_bytes()
        b = (tmp_path / "parallel" / f"seed_{seed}" / "pareto_front.csv").read_bytes()
        assert a == b


def test_unwritable_output_exit_4(small_ds, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("plain file where a directory is needed")
    code = run_cli("run", "--dataset", small_ds, "--out", blocker / "results",
                   "--seeds", "1", "--pop-size", "4", "--generations", "0")
    assert code == 4
    assert capsys.readouterr().err.startswith("error:")


def test_run_on_dataset_missing_test_split_exit_3(tmp_path, capsys):
    # build a dataset with an empty test split: runnable check must fail
    import numpy as np

    from evops.dataset import SlideRecord, make_dataset, write_dataset

    rng = np.random.default_rng(0)
    slides = [
        SlideRecord(f"s{i}", "a", split, rng.standard_normal((3, 4)).astype(np.float32))
        for i, split in enumerate(["train", "train", "validation"])
    ]
    ds = make_dataset(slides[:2], slides[2:], [])
    write_dataset(ds, tmp_path / "partial")
    code = run_cli("run", "--dataset", tmp_path / "partial", "--out", tmp_path / "r",
                   "--seeds", "1")
    assert code == 3
    assert "test" in capsys.readouterr().err


def test_run_records_search_rule(small_ds, tmp_path):
    code = run_cli("run", "--dataset", small_ds, "--out", tmp_path / "default",
                   "--seeds", "1", "--pop-size", "6", "--generations", "1")
    assert code == 0
    summary = json.loads((tmp_path / "default" / "seed_1" / "summary.json").read_text())
    assert summary["config"]["search"] == "guided"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"search": "paper"}))
    code = run_cli("run", "--dataset", small_ds, "--out", tmp_path / "paper", "--seeds", "1",
                   "--pop-size", "6", "--generations", "1", "--config", config_path)
    assert code == 0
    summary = json.loads((tmp_path / "paper" / "seed_1" / "summary.json").read_text())
    assert summary["config"]["search"] == "paper"
    code = run_cli("run", "--dataset", small_ds, "--out", tmp_path / "flag", "--seeds", "1",
                   "--pop-size", "6", "--generations", "1", "--config", config_path,
                   "--search", "guided")
    assert code == 0
    summary = json.loads((tmp_path / "flag" / "seed_1" / "summary.json").read_text())
    assert summary["config"]["search"] == "guided"  # flag wins


@pytest.mark.parametrize("config", [{"k_neighbors": "5"}, {"generations": 1.5},
                                    {"mutation_flip_p": True}, {"crossover_swap_p": "0.5"}])
def test_run_rejects_wrongly_typed_config_exit_2(small_ds, tmp_path, capsys, config):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code = run_cli("run", "--dataset", small_ds, "--out", tmp_path / "r", "--seeds", "1",
                   "--pop-size", "4", "--config", config_path)
    assert code == 2
    assert next(iter(config)) in capsys.readouterr().err
    assert not list((tmp_path / "r").glob("seed_*"))


def test_gen_synth_rejects_wrongly_typed_config_exit_2(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"dim": "4"}))
    code = run_cli("gen-synth", "--out", tmp_path / "x", "--config", config_path)
    assert code == 2
    assert "dim" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag, field", [("--separation", "class_separation"),
                                         ("--noise-sigma", "noise_sigma")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_gen_synth_rejects_non_finite_exit_2(tmp_path, capsys, flag, field, value):
    code = run_cli("gen-synth", "--out", tmp_path / "x", flag, value)
    assert code == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_run_flags_reach_summary_config(small_ds, tmp_path):
    code = run_cli("run", "--dataset", small_ds, "--out", tmp_path, "--seeds", "1",
                   "--generations", "1", "--pop-size", "6", "--swap-p", "0.5",
                   "--flip-p", "0.125", "--k", "2", "--search", "paper")
    assert code == 0
    summary = json.loads((tmp_path / "seed_1" / "summary.json").read_text())
    assert summary["config"] == {
        "population_size": 6, "generations": 1, "crossover_swap_p": 0.5,
        "mutation_flip_p": 0.125, "k_neighbors": 2, "seed": 1, "search": "paper",
    }


# Distinct non-default values, so a flag stored into the wrong field shows.
SYNTH_FLAGS = {
    "--classes": ("classes", 5),
    "--train-per-class": ("train_slides_per_class", 3),
    "--val-per-class": ("validation_slides_per_class", 1),
    "--test-per-class": ("test_slides_per_class", 4),
    "--min-patches": ("patches_min", 2),
    "--max-patches": ("patches_max", 7),
    "--informative-fraction": ("informative_fraction", 0.5),
    "--dim": ("dim", 6),
    "--separation": ("class_separation", 2.5),
    "--noise-sigma": ("noise_sigma", 0.75),
    "--seed": ("seed", 9),
}


def test_gen_synth_flags_reach_synth_config(tmp_path, monkeypatch):
    configs = []
    generate = cli.generate

    def recording_generate(config, out_dir=None):
        configs.append(config)
        return generate(config, out_dir)

    monkeypatch.setattr(cli, "generate", recording_generate)
    argv = [arg for flag, (_, value) in SYNTH_FLAGS.items() for arg in (flag, value)]
    assert run_cli("gen-synth", "--out", tmp_path / "x", *argv) == 0
    assert configs == [SynthConfig(**dict(SYNTH_FLAGS.values()))]


@pytest.mark.parametrize("config, flags, k", [({"k_neighbors": 4}, ["--k", "3"], 3),
                                               ({"k_neighbors": 4}, [], 4),
                                               ({}, [], 5)])
def test_baseline_k_flag_beats_config_file(small_ds, tmp_path, monkeypatch, config, flags, k):
    seen = []
    compute_baseline = cli.compute_baseline

    def recording_compute_baseline(dataset, k_neighbors):
        seen.append(k_neighbors)
        return compute_baseline(dataset, k_neighbors)

    monkeypatch.setattr(cli, "compute_baseline", recording_compute_baseline)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert run_cli("baseline", "--dataset", small_ds, "--config", config_path, *flags) == 0
    assert seen == [k]


def test_json_artifacts_keep_their_bytes(small_ds, tmp_path):
    """Indent 2 and a final newline; selections are one line."""
    assert run_cli("run", "--dataset", small_ds, "--out", tmp_path / "r",
                   "--seeds", "1..2", "--pop-size", "6", "--generations", "2") == 0
    assert run_cli("baseline", "--dataset", small_ds, "--out", tmp_path / "b") == 0
    paths = [small_ds / "manifest.json", small_ds / "ground_truth.json",
             *sorted(tmp_path.rglob("*.json"))]
    assert {"summary.json", "aggregate.json", "baseline.json"} <= {p.name for p in paths}
    assert any(p.parent.name == "selections" for p in paths)
    for path in paths:
        text = path.read_bytes().decode("utf-8")
        indent = None if path.parent.name == "selections" else 2
        assert text == json.dumps(json.loads(text), indent=indent) + "\n", path


def test_gen_synth_rerun_removes_stale_embedding_files(tmp_path):
    out = tmp_path / "cohort"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    assert run_cli("gen-synth", "--out", out, "--classes", "3", "--dim", "4") == 0
    assert run_cli("gen-synth", "--out", out, "--classes", "2", "--dim", "4") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(p.name for p in out.glob("*.emb")) == sorted(
        s["path"] for s in manifest["slides"])
    assert (out / "notes.txt").read_text() == "kept"
    assert len(load_dataset(out).classes) == 2


def test_run_removes_earlier_seeds_and_aggregate(small_ds, tmp_path):
    base = ("run", "--dataset", small_ds, "--out", tmp_path, "--pop-size", "4",
            "--generations", "1")
    assert run_cli(*base, "--seeds", "1..3") == 0
    (tmp_path / "seed_x").mkdir()
    (tmp_path / "seed_9.txt").write_text("kept")
    assert run_cli(*base, "--seeds", "1") == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "aggregate.json", "seed_1", "seed_9.txt", "seed_x"]
    assert json.loads((tmp_path / "aggregate.json").read_text())["seeds"] == [1]


def test_run_removes_a_killed_runs_hidden_seed_directories(small_ds, tmp_path):
    for name in (".seed_5.partial", ".seed_1.old"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "summary.json").write_text("{}")
    assert run_cli("run", "--dataset", small_ds, "--out", tmp_path, "--pop-size", "4",
                   "--generations", "1", "--seeds", "1") == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["aggregate.json", "seed_1"]


def test_run_removes_old_aggregate_before_the_first_seed(small_ds, tmp_path, monkeypatch):
    base = ("run", "--dataset", small_ds, "--out", tmp_path, "--pop-size", "4",
            "--generations", "1")
    assert run_cli(*base, "--seeds", "1..2") == 0

    def killed(*args, **kwargs):
        raise RuntimeError("killed")

    monkeypatch.setattr(cli, "run_evolution", killed)
    assert run_cli(*base, "--seeds", "2") == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["seed_2"]


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_a_rerun_killed_mid_export_keeps_the_earlier_seed_directory(small_ds, tmp_path,
                                                                    monkeypatch):
    base = ("run", "--dataset", small_ds, "--out", tmp_path, "--pop-size", "4",
            "--seeds", "1")
    assert run_cli(*base, "--generations", "1") == 0
    before = _tree_bytes(tmp_path / "seed_1")
    write_json = pareto_report.write_json

    def killed_at_the_summary(path, *args, **kwargs):
        if path.name == "summary.json":  # after the front, confusions and trace
            raise RuntimeError("killed")
        return write_json(path, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(pareto_report, "write_json", killed_at_the_summary)
        assert run_cli(*base, "--generations", "3") == 4
    assert _tree_bytes(tmp_path / "seed_1") == before

    # The next run removes the killed run's temporary directory.
    assert run_cli(*base, "--generations", "3") == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["aggregate.json", "seed_1"]
    assert _tree_bytes(tmp_path / "seed_1") != before


def test_a_run_interrupted_in_the_aggregate_leaves_no_aggregate(small_ds, tmp_path,
                                                                 monkeypatch):
    dump = json.dump

    def interrupted_in_the_aggregate(value, fh, **kwargs):
        if "runs" in value:  # the aggregate, written after every seed
            fh.write('{"runs": ')
            raise KeyboardInterrupt
        return dump(value, fh, **kwargs)

    monkeypatch.setattr(json, "dump", interrupted_in_the_aggregate)
    with pytest.raises(KeyboardInterrupt):
        run_cli("run", "--dataset", small_ds, "--out", tmp_path, "--pop-size", "4",
                "--generations", "1", "--seeds", "1")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["seed_1"]


def test_an_interrupted_baseline_leaves_no_baseline_json(small_ds, tmp_path, monkeypatch):
    assert run_cli("baseline", "--dataset", small_ds, "--out", tmp_path) == 0

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "write_confusion_csvs", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_cli("baseline", "--dataset", small_ds, "--out", tmp_path)
    assert not (tmp_path / "baseline.json").exists()


def test_an_interrupted_gen_synth_leaves_no_manifest(tmp_path, monkeypatch):
    out = tmp_path / "cohort"
    assert run_cli("gen-synth", "--out", out, "--seed", "7") == 0
    write = dataset_mod.write_embedding_file
    written = []

    def interrupted_after_four(path, embeddings):
        if len(written) == 4:
            raise KeyboardInterrupt
        written.append(path)
        write(path, embeddings)

    monkeypatch.setattr(dataset_mod, "write_embedding_file", interrupted_after_four)
    with pytest.raises(KeyboardInterrupt):
        run_cli("gen-synth", "--out", out, "--seed", "8")
    # The earlier cohort's manifest would name files of two cohorts.
    assert not (out / "manifest.json").exists()
    assert not (out / "ground_truth.json").exists()
    assert len(written) == 4


def test_parse_seeds_rejects_negative_entries():
    for text in ("-1", "1,-1", "-2..1"):
        with pytest.raises(ConfigError, match=">= 0"):
            parse_seeds(text)


def test_run_negative_seed_exit_2_keeps_earlier_run(small_ds, tmp_path, capsys):
    base = ("run", "--dataset", small_ds, "--out", tmp_path, "--pop-size", "4",
            "--generations", "1")
    assert run_cli(*base, "--seeds", "1..2") == 0
    before = _tree_bytes(tmp_path)
    assert {"aggregate.json", "seed_1", "seed_2"} <= {p.name for p in tmp_path.iterdir()}
    capsys.readouterr()
    assert run_cli(*base, "--seeds=-1") == 2
    assert "seeds" in capsys.readouterr().err
    assert _tree_bytes(tmp_path) == before


def test_run_with_a_negative_seed_writes_nothing(small_ds, tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--dataset", small_ds, "--out", out, "--pop-size", "4",
                   "--generations", "1", "--seeds", "1,-1") == 2
    assert not out.exists()


def test_gen_synth_negative_seed_exit_2(tmp_path, capsys):
    assert run_cli("gen-synth", "--out", tmp_path / "x", "--seed", "-1") == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_baseline_csvs_equal_the_run_seed_csvs(tmp_path):
    ds = tmp_path / "ds"
    assert run_cli("gen-synth", "--out", ds, "--classes", "3", "--dim", "8", "--seed", "4",
                   "--separation", "1.5") == 0
    assert run_cli("baseline", "--dataset", ds, "--out", tmp_path / "b", "--k", "3") == 0
    assert run_cli("run", "--dataset", ds, "--out", tmp_path / "r", "--k", "3",
                   "--seeds", "1", "--pop-size", "4", "--generations", "1") == 0
    for split in ("val", "test"):
        name = f"confusion_{split}_baseline.csv"
        assert (tmp_path / "b" / name).read_bytes() == (
            tmp_path / "r" / "seed_1" / name).read_bytes()


def test_run_builds_one_layout_and_one_training_matrix(small_ds, tmp_path, monkeypatch):
    calls = {"layout": 0, "matrix": 0}
    build_layout, stack = dataset_mod.build_layout, GenomeLayout.matrix.func

    def counting_layout(train):
        calls["layout"] += 1
        return build_layout(train)

    def counting_matrix(layout):
        calls["matrix"] += 1
        return stack(layout)

    matrix = cached_property(counting_matrix)
    matrix.__set_name__(GenomeLayout, "matrix")
    monkeypatch.setattr(dataset_mod, "build_layout", counting_layout)
    monkeypatch.setattr(GenomeLayout, "matrix", matrix)
    assert run_cli("run", "--dataset", small_ds, "--out", tmp_path, "--seeds", "1..3",
                   "--pop-size", "4", "--generations", "2") == 0
    assert calls == {"layout": 1, "matrix": 1}


def test_seed_of_a_multi_seed_run_equals_that_seed_alone(small_ds, tmp_path):
    base = ("run", "--dataset", small_ds, "--pop-size", "6", "--generations", "3")
    assert run_cli(*base, "--out", tmp_path / "many", "--seeds", "1..3") == 0
    assert run_cli(*base, "--out", tmp_path / "one", "--seeds", "3") == 0
    alone = _tree_bytes(tmp_path / "one" / "seed_3")
    assert alone and _tree_bytes(tmp_path / "many" / "seed_3") == alone


def test_error_without_a_message_names_its_type(monkeypatch, capsys):
    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_baseline", out_of_memory)
    assert run_cli("baseline", "--dataset", "unused") == 4
    assert "error: MemoryError" in capsys.readouterr().err


def _count_baselines(monkeypatch, score=None):
    """Patch one counting wrapper onto both modules' ``compute_baseline``."""
    calls = []
    original = pareto_report.compute_baseline

    def counting(dataset, k):
        calls.append(k)
        return (score or original)(dataset, k)

    monkeypatch.setattr(cli, "compute_baseline", counting)
    monkeypatch.setattr(pareto_report, "compute_baseline", counting)
    return calls


def test_run_scores_the_baseline_once(small_ds, tmp_path, monkeypatch):
    calls = _count_baselines(monkeypatch)
    assert run_cli("run", "--dataset", small_ds, "--out", tmp_path, "--seeds", "1..3",
                   "--pop-size", "4", "--generations", "1", "--k", "3") == 0
    assert calls == [3]
    baselines = {(tmp_path / f"seed_{s}" / "confusion_test_baseline.csv").read_bytes()
                 for s in (1, 2, 3)}
    assert len(baselines) == 1


def test_run_that_cannot_score_its_baseline_keeps_the_earlier_run(
        small_ds, tmp_path, monkeypatch, capsys):
    base = ("run", "--dataset", small_ds, "--out", tmp_path, "--pop-size", "4",
            "--generations", "1")
    assert run_cli(*base, "--seeds", "1..2") == 0
    before = _tree_bytes(tmp_path)
    searches = []

    def unscorable(dataset, k):
        raise RuntimeError("cannot score the reference")

    _count_baselines(monkeypatch, unscorable)
    monkeypatch.setattr(cli, "run_evolution", lambda *a, **kw: searches.append(a))
    capsys.readouterr()
    assert run_cli(*base, "--seeds", "2") == 4
    assert "cannot score the reference" in capsys.readouterr().err
    assert searches == []
    assert _tree_bytes(tmp_path) == before


def test_parse_seeds_checks_every_entry_before_expanding_a_range():
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=">= 0"):
            parse_seeds("0..99999999999,-1")
        with pytest.raises(ConfigError, match="distinct"):
            parse_seeds("0..99999999999,5")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_parse_seeds_finds_overlaps_in_any_order():
    assert parse_seeds("7..9,1..6") == [7, 8, 9, 1, 2, 3, 4, 5, 6]
    assert parse_seeds("1..2,3..4") == [1, 2, 3, 4]
    for text in ("1..3,3", "3,1..3", "4..6,1..4", "1..3,5..7,3..4"):
        with pytest.raises(ConfigError, match="distinct"):
            parse_seeds(text)


@pytest.mark.parametrize("seeds, message", [("0..99999999999,-1", ">= 0"),
                                            ("1,,2", "empty seed entry"),
                                            ("1,", "empty seed entry")])
def test_run_bad_seeds_exit_2_before_scoring_or_writing(small_ds, tmp_path, capsys,
                                                        monkeypatch, seeds, message):
    calls = _count_baselines(monkeypatch)
    out = tmp_path / "out"
    assert run_cli("run", "--dataset", small_ds, "--out", out, "--seeds", seeds) == 2
    assert message in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("content, message", [(None, "cannot read config"),
                                              ("{not json", "cannot read config"),
                                              ("[1, 2]", "must be a JSON object")])
@pytest.mark.parametrize("command", ["run", "baseline", "gen-synth"])
def test_unusable_config_file_exit_2(small_ds, tmp_path, capsys, command, content, message):
    config_path = tmp_path / "config.json"
    if content is not None:
        config_path.write_text(content)
    out = tmp_path / "out"
    args = ["--out", out, "--config", config_path]
    if command != "gen-synth":
        args += ["--dataset", small_ds]
    assert run_cli(command, *args) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("manifest, message", [
    ([1, 2], "must be a JSON object"),
    ({"dim": 8}, "missing manifest key 'slides'"),
    ({"dim": 8, "slides": []}, "'slides' must be a non-empty array"),
    ({"dim": 8, "slides": [{}], "normalization": 1}, "'normalization' must be a string"),
])
def test_malformed_manifest_exit_3(tmp_path, capsys, manifest, message):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli("baseline", "--dataset", tmp_path) == 3
    assert message in capsys.readouterr().err


def _without(entry, key):
    return {k: v for k, v in entry.items() if k != key}


@pytest.mark.parametrize("fault, named, detail", [
    (lambda e: 5, "slide entry 1", "must be objects"),
    (lambda e: _without(e, "path"), "slide 'probe'", "missing key 'path'"),
    (lambda e: _without(e, "slide_id"), "slide entry 1", "missing key 'slide_id'"),
    (lambda e: dict(e, slide_id=7), "slide entry 1", "must be strings"),
    (lambda e: dict(e, label=3), "slide 'probe'", "must be strings"),
    (lambda e: dict(e, path="missing.emb"), "slide 'probe'", "missing.emb"),
    (lambda e: dict(e, path="short.emb"), "slide 'probe'", "short.emb"),
], ids=["not-an-object", "no-path", "no-slide-id", "int-slide-id", "int-label",
        "missing-file", "short-file"])
def test_every_per_slide_load_error_names_the_slide(small_ds, tmp_path, capsys,
                                                    fault, named, detail):
    manifest = json.loads((small_ds / "manifest.json").read_text())
    entries = [dict(e, path=str(small_ds / e["path"])) for e in manifest["slides"]]
    entries[1] = fault(dict(entries[1], slide_id="probe"))
    manifest["slides"] = entries
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "short.emb").write_bytes(b"EVOPS")
    assert run_cli("baseline", "--dataset", tmp_path) == 3
    err = capsys.readouterr().err
    assert named in err and detail in err


# Run in a child whose address space is capped: a loader that reads a file
# before checking its size raises MemoryError (exit 4) there, at once.
LIMITED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from evops.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _sparse_4gib(path):
    with open(path, "wb") as fh:
        fh.write(b"EVOPSEMB" + struct.pack("<II", 1, 4))
        fh.truncate(4 << 30)
    return path


def _declares_16gib(path):
    path.write_bytes(b"EVOPSEMB" + struct.pack("<II", 1 << 16, 1 << 16))
    return path


def _fifo(path):
    os.mkfifo(path)
    return path


@pytest.mark.parametrize("make, detail", [
    (_sparse_4gib, "trailing bytes"),
    (lambda path: "/dev/zero", "not a regular file"),
    (_declares_16gib, "truncated payload"),
    (_fifo, "not a regular file"),
], ids=["sparse-4gib", "dev-zero", "declares-16gib", "fifo"])
def test_a_file_is_not_read_past_its_declared_size(small_ds, tmp_path, make, detail):
    manifest = json.loads((small_ds / "manifest.json").read_text())
    entries = [dict(e, path=str(small_ds / e["path"])) for e in manifest["slides"]]
    entries[1] = dict(entries[1], slide_id="probe", path=str(make(tmp_path / "probe.emb")))
    manifest["slides"] = entries
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", LIMITED_CLI, "baseline", "--dataset",
                           str(tmp_path)], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 3, done.stderr
    assert "slide 'probe'" in done.stderr and detail in done.stderr
