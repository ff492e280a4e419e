#!/usr/bin/env python3
"""Mutant catalogue: each mutant of evops below must fail the tier-1 tests.

Usage: python3 scripts/mutants.py

Each entry of MUTANTS is (file, exact old text, new text, rule it breaks).
The old text must occur exactly once in its file. The tree, without
``.git``, ``perfbench/_work`` and caches, is copied once for a clean run
and once per mutant; a mutant's copy has its old text replaced, and
``python -m pytest -x -q -p no:cacheprovider`` runs in it with
``PYTHONPATH=<copy>/src``. A mutant the tests pass is a survivor.

Exit codes: 0 when every mutant is killed; 1 naming each survivor; 2 when
an entry's old text is missing or occurs more than once (so a refactor
cannot skip an entry silently), or when the unmutated copy fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FITNESS = "src/evops/fitness.py"
EVOLUTION = "src/evops/evolution.py"
CLI = "src/evops/cli.py"
PARETO = "src/evops/pareto_report.py"
DATASET = "src/evops/dataset.py"

MUTANTS = [
    (FITNESS, "    vectors /= counts[..., None]\n", "    vectors /= counts[..., None] + 1\n",
     "a library row is the mean of its slide's selected patches"),
    (FITNESS, 'order = np.argsort(padded, axis=1, kind="stable")[:, :k]',
     "order = np.argsort(padded, axis=1)[:, :k]",
     "a distance tie goes to the lower row index (k-NN re-score)"),
    (FITNESS, "_RESCORE_MARGIN = 1e-9", "_RESCORE_MARGIN = 0.0",
     "the k-NN shortlist holds every row its expansion may misorder"),
    (FITNESS, "margin = _RESCORE_MARGIN * (norms + np.maximum(kth, 0.0))",
     "margin = _RESCORE_MARGIN * np.broadcast_to(norms, kth.shape)",
     "the k-NN margin grows with the query's k-th distance"),
    (FITNESS, "margin = _RESCORE_MARGIN * (norms + np.maximum(kth, 0.0))",
     "margin = _RESCORE_MARGIN * np.maximum(kth, 0.0)",
     "the k-NN margin grows with the query's |q|^2"),
    (FITNESS, "functools.reduce(np.add, selected @ slices)",
     "functools.reduce(np.add, (selected @ slices)[::-1])",
     "a library adds a column's exact slices in slice order"),
    (FITNESS, "    if tied.size:\n", "    if False:\n",
     "a k-NN shortlist with a near tie is re-scored from exact differences"),
    (FITNESS, "tied = np.flatnonzero(near_tie | (counts > k))", "tied = np.flatnonzero(counts > k)",
     "a k-NN shortlist of k rows, two of them within the margin, is re-scored"),
    (FITNESS, "tied = np.flatnonzero(near_tie | (counts > k))", "tied = np.flatnonzero(near_tie)",
     "a k-NN shortlist of more than k rows is re-scored"),
    (FITNESS, "nearest_tied = neighbors[rows[:, 0], np.argmax(tied[rows, neighbors], axis=1)]",
     "nearest_tied = np.argmax(tied, axis=1)",
     "a vote tie goes to the nearest tied label"),
    (FITNESS, "    if ties.min(initial=1) == 0:\n", "    if False:\n",
     "a row with a float32 tie across classes is counted again in float64"),
    (FITNESS, "dists[(..., *self._self_cells)] = np.inf", "pass",
     "a training slide is left out of its own retrieval ranking"),
    (FITNESS, "self._self_cells = (n_eval + np.arange(n_train), np.arange(n_train))",
     "self._self_cells = (n_eval + np.arange(n_train), np.roll(np.arange(n_train), 1))",
     "a training query's self cell is its own column"),
    (FITNESS, "1.0 / (pairs[self._counted] * len(self._counted))",
     "1.0 / (pairs[self._counted] * len(pairs))",
     "a query without both kinds of library slide is left out of the AUC's mean"),
    (FITNESS, "    keys <<= np.uint64(1)\n    keys |= same_bit\n", "    keys -= same_bit\n",
     "a same-class entry wins a pair only when strictly nearer"),
    (FITNESS, "max(0.0, self.reference_auc - aucs[i])", "max(0.0, aucs[i] - self.reference_auc)",
     "the violation is how far a genome's AUC falls below the all-patches AUC"),
    (FITNESS, "f1_fraction=count / self.layout.total_patches,",
     "f1_fraction=count / (self.layout.total_patches + 1),",
     "the first objective is the fraction of training patches kept"),
    (EVOLUTION, "return (viol[:, None] < viol[None, :])", "return (viol[:, None] > viol[None, :])",
     "a smaller violation dominates (constrained domination)"),
    (EVOLUTION, "        dist[order[0]] = math.inf\n", "        dist[order[0]] = 0.0\n",
     "crowding boundaries are at +inf"),
    (EVOLUTION, "rng = np.random.default_rng(config.seed)",
     'rng = np.random.default_rng(__import__("time").time_ns())',
     "a run is a function of (dataset, seed)"),
    (EVOLUTION, "cut = np.lexsort((front, -dist))[:need]",
     "cut = np.lexsort((-front, -dist))[:need]",
     "the survivor cut breaks crowding ties by lower index"),
    (EVOLUTION, "slide @ (means[rec.label] - centre)", "slide @ (centre - means[rec.label])",
     "relevance leans towards a patch's own class"),
    (EVOLUTION, "winner = a if crowding[a] > crowding[b] else b",
     "winner = a if crowding[a] < crowding[b] else b",
     "a tournament at equal rank prefers the larger crowding distance"),
    (EVOLUTION, "np.concatenate([objectives, _objectives(evaluator.evaluate(genomes[n:]))])",
     "np.concatenate([_objectives(evaluator.evaluate(genomes[n:])), objectives])\n"
     "        genomes = np.concatenate([genomes[n:], genomes[:n]])",
     "survivor selection ranks the population before its offspring"),
    (EVOLUTION, "winner = a if rng.integers(2) == 0 else b",
     "winner = b if rng.integers(2) == 0 else a",
     "a tournament's coin flip of 0 picks its first draw"),
    (EVOLUTION, "np.stack(pairs, axis=1).reshape(pool.shape)", "np.concatenate(pairs)",
     "children go in pair order, each pair's child_a before its child_b"),
    (EVOLUTION, "        if first < m - 1:\n"
                "            rng.bit_generator.state = saved\n"
                "            rng.random(out=draws[: first + 1])\n"
                "        repair(row + first, has[first])\n"
                "        row += first + 1\n",
     "        for first in np.flatnonzero(~has.reshape(m, -1).all(axis=1)):\n"
     "            repair(row + first, has[first])\n"
     "        row += m\n",
     "a repair draws before the next row's uniforms (variation windows rewind)"),
    (EVOLUTION, "for child, child_has in zip(children[i], has):",
     "for child, child_has in zip(children[i, ::-1], has[::-1]):",
     "a pair's repairs draw for child_a's segments before child_b's"),
    (CLI, '    run.add_argument("--swap-p", dest="crossover_swap_p", type=float)\n'
          '    run.add_argument("--flip-p", dest="mutation_flip_p", type=float)\n',
     '    run.add_argument("--swap-p", dest="mutation_flip_p", type=float)\n'
     '    run.add_argument("--flip-p", dest="crossover_swap_p", type=float)\n',
     "each run flag sets the config field of its name"),
    (CLI, '        write_confusion_csvs(out_dir, "baseline", baseline)\n'
          '        write_json(out_dir / "baseline.json", baseline_scores(baseline))\n',
     '        write_json(out_dir / "baseline.json", baseline_scores(baseline))\n'
     '        write_confusion_csvs(out_dir, "baseline", baseline)\n',
     "baseline --out writes baseline.json after its confusion CSVs"),
    (CLI, '        (out_dir / "baseline.json").unlink(missing_ok=True)\n', "",
     "baseline --out removes an earlier baseline.json before it writes"),
    (PARETO, "(key(front[i]), -front[i].patch_count, -i)",
     "(key(front[i]), front[i].patch_count, -i)",
     "a best solution's tie goes to fewer patches"),
    (PARETO, "(key(front[i]), -front[i].patch_count, -i)",
     "(key(front[i]), -front[i].patch_count, i)",
     "a best solution's tie at equal patches goes to the lower index"),
    (PARETO, "for label, counts in sorted(per_class.items())",
     "for label, counts in per_class.items()",
     "per-class patch counts are keyed in lexicographic class order"),
    (PARETO, "    for i in fronts[0]:\n", "    for i in reversed(fronts[0]):\n",
     "the front keeps the lowest-index individual of a duplicate fitness pair"),
    (DATASET, '    try:\n'
              '        with open(partial, "w", encoding="utf-8", newline="\\n") as fh:\n'
              '            json.dump(value, fh, indent=indent)\n'
              '            fh.write("\\n")\n'
              '        os.replace(partial, path)\n'
              '    finally:\n'
              '        partial.unlink(missing_ok=True)\n',
     '    with open(path, "w", encoding="utf-8", newline="\\n") as fh:\n'
     '        json.dump(value, fh, indent=indent)\n'
     '        fh.write("\\n")\n',
     "a JSON file is replaced whole"),
    (DATASET, 'kind = {"int": numbers.Integral, "float": numbers.Real}.get(annotation)',
     'kind = {"int": numbers.Integral}.get(annotation)',
     "a float config field needs a real number, not a bool or a string"),
    (DATASET, "    manifest_path.unlink(missing_ok=True)\n", "",
     "a dataset rewritten in place has no manifest until its files are written"),
    (DATASET, "            if size == expected:  # read no further than the header declares\n"
              "                payload = fh.read(expected - len(head))\n",
     "            if True:\n"
     "                payload = fh.read()\n",
     "a file is not read past the size its header declares"),
    (FITNESS, "score = np.add.accumulate(terms, axis=-1)[..., -1]", "score = terms.sum(axis=-1)",
     "the weighted F1 adds its classes in order"),
    (FITNESS, "[pair for pair, _ in scored]", "[pair for pair, _ in scored[::-1]]",
     "evaluate returns each row's pair in row order"),
    (FITNESS, "        if len(self._queries) == len(self._truth):\n", "        if False:\n",
     "retrieval_auc on an unconstrained evaluator raises a ValueError naming constrained=True"),
    (PARETO, 'if field.name != "seed" and value != expected:',
     'if field.name not in ("seed", "search") and value != expected:',
     "runs aggregate only when every config field but the seed matches"),
    (CLI, r'(stale or re.fullmatch(r"\.seed_\d+\.(partial|old)", path.name))', "stale",
     "a run removes a killed run's hidden .seed_<n>.partial and .seed_<n>.old directories"),
]

IGNORE = shutil.ignore_patterns(".git", "_work", "__pycache__", ".pytest_cache", ".hypothesis",
                                "*.egg-info")


def check_entries() -> list[str]:
    """One message per entry whose old text does not occur exactly once."""
    problems = []
    for path, old, _, rule in MUTANTS:
        found = (ROOT / path).read_text(encoding="utf-8").count(old)
        if found != 1:
            problems.append(f"{path}: {old.strip()!r} occurs {found} times ({rule})")
    return problems


def run_tests(tree: Path) -> bool:
    """True when the tier-1 tests pass in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return result.returncode == 0


def passes_with(work: Path, mutant=None) -> bool:
    """Copy the tree into ``work``, apply ``mutant`` if given, and run the tests."""
    tree = work / "tree"
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    if mutant is not None:
        path, old, new, _ = mutant
        target = tree / path
        target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    try:
        return run_tests(tree)
    finally:
        shutil.rmtree(tree)


def main() -> int:
    problems = check_entries()
    for problem in problems:
        print(f"entry not applicable: {problem}", file=sys.stderr)
    if problems:
        return 2
    with tempfile.TemporaryDirectory(prefix="evops-mutants-") as tmp:
        work = Path(tmp)
        if not passes_with(work):
            print("the unmutated tree fails its tests", file=sys.stderr)
            return 2
        survivors = []
        for mutant in MUTANTS:
            start = time.monotonic()
            survived = passes_with(work, mutant)
            verdict = "SURVIVED" if survived else "killed"
            print(f"{verdict:8} {time.monotonic() - start:5.1f} s  {mutant[0]}: {mutant[3]}",
                  flush=True)
            if survived:
                survivors.append(mutant)
    for path, _, _, rule in survivors:
        print(f"surviving mutant: {path}: {rule}", file=sys.stderr)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
