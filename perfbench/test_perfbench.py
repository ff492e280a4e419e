"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def grid_hypervolume(points, cells=64):
    """Share of the unit square's cell centres that some point dominates."""
    hit = 0
    for i in range(cells):
        for j in range(cells):
            x, y = (i + 0.5) / cells, (j + 0.5) / cells
            if any(px <= x and py <= y for px, py in points):
                hit += 1
    return hit / cells**2


FRONTS = [
    [(0.5, 0.5)],
    [(0.0, 0.0)],
    [(0.125, 0.75), (0.25, 0.5), (0.75, 0.125)],
    # dominated, duplicated and out-of-reference points add nothing
    [(0.25, 0.5), (0.5, 0.625), (0.25, 0.5), (0.125, 1.0), (1.0, 0.0), (0.375, 0.25)],
    [(0.875, 0.875), (0.0, 1.0), (0.625, 0.125)],
]


@pytest.mark.parametrize("front", FRONTS)
def test_hypervolume_matches_grid_on_hand_made_fronts(front):
    assert stats.hypervolume(front) == pytest.approx(grid_hypervolume(front), abs=1e-12)


def test_hypervolume_matches_grid_on_random_fronts():
    rng = random.Random(5)
    for _ in range(20):
        front = [(rng.randrange(17) / 16, rng.randrange(17) / 16)
                 for _ in range(rng.randrange(1, 8))]
        assert stats.hypervolume(front) == pytest.approx(grid_hypervolume(front), abs=1e-12)


def test_hypervolume_of_empty_front_is_zero():
    assert stats.hypervolume([]) == 0.0


def test_tail_percentile_leaves_ten_samples_beyond():
    assert stats.tail_percentile(20) == 50
    assert stats.tail_percentile(1000) == 99
    assert stats.tail_percentile(10) == 0
    values = list(range(1, 61))
    p = stats.tail_percentile(len(values))
    assert sum(v > stats.percentile(values, p) for v in values) >= 10


def test_self_time_subtracts_same_thread_children_only():
    spans = [
        tracing.Span(1, "root", 0.0, 10.0, None, 1, 0),
        tracing.Span(2, "child", 1.0, 3.0, 1, 1, 0),
        tracing.Span(3, "child", 4.0, 5.0, 1, 1, 0),
        tracing.Span(4, "worker", 2.0, 9.0, 1, 2, 0),
        tracing.Span(5, "grandchild", 1.5, 2.5, 2, 1, 0),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 7.0, 2: 1.0, 3: 1.0, 4: 7.0, 5: 1.0}


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_cohort_is_byte_identical_for_a_seed(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    workloads.write_cohort(workload, 11, tmp_path / "a")
    workloads.write_cohort(workload, 11, tmp_path / "b")
    workloads.write_cohort(workload, 12, tmp_path / "c")
    first = tree_bytes(tmp_path / "a")
    assert first == tree_bytes(tmp_path / "b")
    assert first != tree_bytes(tmp_path / "c")


def test_cohort_seeds_of_two_benchmark_seeds_are_disjoint():
    for workload in workloads.WORKLOADS.values():
        first, second = workload.cohort_seeds(11), workload.cohort_seeds(12)
        assert first == workload.cohort_seeds(11)
        assert len(set(first)) == workload.cohorts
        assert not set(first) & set(second)


def test_cohort_mean_averages_each_cohorts_median():
    by_cohort = [[{"x": 1.0}, {"x": 3.0}, {"x": 100.0}], [{"x": 5.0}]]
    assert run.cohort_mean(by_cohort, lambda r: r["x"]) == 4.0


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["paths"] == [HERE.name]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
