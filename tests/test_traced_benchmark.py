"""The benchmark's traced child run, end to end.

perfbench/tracing.py wraps evops' layer functions by module name and
divides by the number of k-NN spans, so scoring that stops calling the
wrapped names would crash the traced benchmark; this runs it here.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from evops.synthgen import SynthConfig, generate

ROOT = Path(__file__).resolve().parents[1]


def test_traced_seed_run_reports_knn_and_scoring_layers(tmp_path):
    dataset = tmp_path / "cohort"
    generate(SynthConfig(), out_dir=dataset)
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")])))
    subprocess.run(
        [sys.executable, "perfbench/seed_run.py", "--workload", "tiny-cohort", "--seed", "1",
         "--dataset", str(dataset), "--out", str(tmp_path / "out"), "--result", str(result),
         "--spawned-at", str(time.monotonic()), "--trace"],
        cwd=ROOT, env=env, check=True, timeout=300,
    )
    payload = json.loads(result.read_text(encoding="utf-8"))
    assert payload["failures"] == []
    assert payload["layers"]["fitness.knn.queries"] > 0
    assert payload["layers"]["fitness.scoring.calls"] > 0
