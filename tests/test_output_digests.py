"""The paper search's output files, pinned by sha256 digest.

On the quick-start cohort and a 4-class dim-24 cohort, at k 1 and 5, this
runs ``evops run --search paper`` for seeds 1 and 2 and ``evops baseline
--out``, and compares the sha256 of each seed's ``pareto_front.csv``,
``trace.csv``, ``summary.json`` and selections, and of every baseline file,
with ``output_digests.json``. So a changed output byte fails here on any
machine, not only against a base commit on one machine.

The paper search's outputs do not depend on the BLAS kernel: library sums
are exact and every k-NN re-scores its near ties from exact differences.
The guided search is left out, because its retrieval AUC and class
relevance still rank by distance bits that another kernel may round
otherwise.

``python tests/test_output_digests.py`` rewrites ``output_digests.json``;
a change that moves a digest says why.
"""

import hashlib
import json
import sys
from pathlib import Path

from evops.cli import main

DIGESTS = Path(__file__).with_name("output_digests.json")
COHORTS = {
    "quick": ["--seed", "7"],
    "four": ["--classes", "4", "--train-per-class", "20", "--val-per-class", "5",
             "--test-per-class", "5", "--dim", "24", "--seed", "3"],
}
SEEDS = (1, 2)


def evops(*argv):
    """Run one evops command in process; a nonzero exit code raises."""
    code = main([str(arg) for arg in argv])
    if code != 0:
        raise RuntimeError(f"evops {argv[0]} exited {code}")


def output_digests(work: Path) -> dict[str, str]:
    """sha256 of every pinned output file, keyed by its path under ``work``."""
    files = []
    for cohort, flags in COHORTS.items():
        data = work / cohort
        evops("gen-synth", "--out", data, *flags)
        for k in (1, 5):
            run, baseline = work / f"run-{cohort}-k{k}", work / f"baseline-{cohort}-k{k}"
            evops("run", "--dataset", data, "--out", run, "--k", k, "--search", "paper",
                  "--seeds", ",".join(map(str, SEEDS)), "--generations", 20)
            evops("baseline", "--dataset", data, "--out", baseline, "--k", k)
            for seed in SEEDS:
                out = run / f"seed_{seed}"
                files += [out / "pareto_front.csv", out / "trace.csv", out / "summary.json"]
                files += sorted((out / "selections").iterdir())
            files += sorted(baseline.iterdir())
    return {f.relative_to(work).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in files}


def test_paper_search_outputs_match_committed_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = output_digests(tmp_path)
    assert sorted(got) == sorted(expected)
    assert [name for name in got if got[name] != expected[name]] == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = output_digests(Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
