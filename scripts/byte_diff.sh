#!/usr/bin/env bash
# Byte-identity check of evops's outputs between two source trees.
#
# Usage: scripts/byte_diff.sh BASE_TREE HEAD_TREE WORK_DIR
#
# Runs the same commands once with each tree's own package
# (PYTHONPATH=<tree>/src python -m evops.cli), in WORK_DIR/base and
# WORK_DIR/head, with the same relative paths. Every output file is kept,
# and so are each command's stdout, stderr and exit code (logs/). Exits 1
# when the two trees' outputs differ in any byte; `diff -r` names where.
#
# The commands: the quick-start cohort (gen-synth --seed 7) and a 4-class
# dim-24 cohort; on each,
# run --seeds 1..2 --generations 15 under the guided and the paper search,
# and baseline --out. Then a 300-slide cohort shaped like the benchmark's
# many-slides workload, with run --seeds 1..2 --generations 5: its
# retrieval AUC meets same-class and other-class distances that tie in
# float32, so the AUC's exact 64-bit recount runs there. Last, the
# quick-start cohort with every training slide listed twice, the second
# time as <slide_id>_twin, with run under both searches and baseline --out:
# a slide and its twin give equal library rows wherever a genome selects
# the same patches in both, so the k-NN re-scores its tied queries from
# exact differences there. Both sides should run on one machine with one
# BLAS.
set -euo pipefail

if [ $# -ne 3 ]; then
  echo "usage: $0 BASE_TREE HEAD_TREE WORK_DIR" >&2
  exit 2
fi
mkdir -p "$3"
work=$(cd "$3" && pwd -P)
python=${PYTHON:-python}

# step NAME ARGS...: one evops command, its streams and exit code kept.
step() {
  local name=$1 code=0
  shift
  "$python" -m evops.cli "$@" >"logs/$name.stdout" 2>"logs/$name.stderr" || code=$?
  echo "$code" >"logs/$name.exit"
}

run_tree() {
  local src side=$2
  src=$(cd "$1/src" && pwd -P)
  mkdir "$work/$side"  # fails if an earlier check left it
  cd "$work/$side"
  export PYTHONPATH=$src
  local found
  found=$("$python" -c 'import os, evops; print(os.path.realpath(evops.__file__))')
  case $found in
    "$src"/*) echo "$side: evops from $found" ;;
    *) echo "$side: evops imported from $found, not from $src" >&2; exit 1 ;;
  esac
  mkdir logs
  step gen-quick gen-synth --out quick --seed 7
  step gen-four gen-synth --out four --classes 4 --train-per-class 20 \
    --val-per-class 5 --test-per-class 5 --dim 24 --seed 3
  for cohort in quick four; do
    for search in guided paper; do
      step "run-$cohort-$search" run --dataset "$cohort" --out "runs/$cohort-$search" \
        --seeds 1..2 --generations 15 --search "$search"
    done
    step "baseline-$cohort" baseline --dataset "$cohort" --out "baseline/$cohort"
  done
  step gen-many gen-synth --out many --classes 4 --train-per-class 75 \
    --val-per-class 20 --test-per-class 20 --min-patches 2 --max-patches 8 \
    --dim 16 --separation 3.0 --seed 3
  step run-many-guided run --dataset many --out runs/many-guided --seeds 1..2 --generations 5
  cp -R quick twins
  "$python" - twins/manifest.json <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    manifest = json.load(f)
manifest["slides"] += [dict(entry, slide_id=entry["slide_id"] + "_twin")
                       for entry in manifest["slides"] if entry["split"] == "train"]
with open(sys.argv[1], "w") as f:
    json.dump(manifest, f, indent=2)
PY
  for search in guided paper; do
    step "run-twins-$search" run --dataset twins --out "runs/twins-$search" \
      --seeds 1..2 --generations 15 --search "$search"
  done
  step baseline-twins baseline --dataset twins --out baseline/twins
}

(run_tree "$1" base)
(run_tree "$2" head)
diff -r "$work/base" "$work/head"
echo "identical: $(find "$work/head" -type f | wc -l) files"
