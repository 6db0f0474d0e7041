#!/usr/bin/env bash
# Write the outputs that a change claiming unchanged values compares with its
# parent (ROADMAP.md, "Standing checks") into OUT_DIR, computed from the
# sources of the tree this script sits in:
#
#     tools/standing_outputs.sh OUT_DIR
#
# Run it in a copy of the parent commit (git archive) and in the change,
# then `diff -r` the two directories: an empty diff means unchanged outputs.
# OUT_DIR holds only deterministic outputs: every seed is fixed. The wide
# test's 152 MB of input CSV is made in a temporary directory and removed.
# PYTHON names the interpreter (default python3).
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 OUT_DIR" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
export PYTHONPATH="$root/src"
py=${PYTHON:-python3}
cd "$out"  # relative paths, so that printed paths do not name OUT_DIR

covcusum() { "$py" -m covcusum.cli "$@"; }

# An experiment: its stdout and its CSV.
experiment() {
  local name=$1
  shift
  covcusum experiment "$@" --out-csv "$name.csv" > "$name.txt"
}

# The cell-iv workload of perfbench at two seeds.
for seed in 7 411; do
  experiment "cell-iv-$seed" --cases IV --dims 10 --scenario none --tests q-breve,v-breve \
    --replications 1000 --n-grid 1000 --n-rep 10000 --workers 2 --seed "$seed"
done

# Experiments on learning blocks, in control and with a change, at one and two workers.
for workers in 1 2; do
  experiment "learning-$workers" --cases I,II --dims 3 --replications 200 \
    --tests q-breve,v-breve --n-grid 500 --n-rep 2000 --seed 5 --learning-length 300 \
    --workers "$workers"
  experiment "learning-change-$workers" --cases I --dims 3 --replications 200 \
    --scenario coefficient-change --change-times 300,600 --tests q-breve,v-breve \
    --n-grid 500 --n-rep 2000 --seed 5 --learning-length 300 --workers "$workers"
done

# Simulated panels, in control and with a change, as CSV files.
covcusum simulate --out-dir simulate --K 4 --d 5 --N 300,200,250,150 --rho0 0.3 \
  --seed 3 > simulate.txt
covcusum simulate --out-dir simulate-change --K 2 --d 3 --N 200,150 --rho0 0.2 \
  --rho1 0.6 --sigma1 1.5,2 --tau 100,50 --seed 4 --rep 2 > simulate-change.txt
printf '0.2\n%.0s' 1 2 3 4 5 > "$tmp/v.txt"

# The four tests on the simulated panel, with and without learning blocks.
for kind in q q-breve v v-breve; do
  targets=()
  case $kind in q | v) targets=(--targets 1,1,1,1) ;; esac
  for learning in in-sample 60; do
    flags=()
    [ "$learning" = in-sample ] || flags=(--learning-length "$learning")
    for workers in 1 2; do
      name="test-$kind-$learning-$workers"
      covcusum test --kind "$kind" "${targets[@]}" "${flags[@]}" --data simulate/sample_*.csv \
        --v "$tmp/v.txt" --n-grid 500 --n-rep 2000 --seed 3 --workers "$workers" \
        --out "$name.json" > "$name.txt"
    done
  done
done

# The test-wide workload of perfbench, on its own inputs (perfbench is only read).
"$py" - "$root/perfbench" "$tmp/wide" <<'EOF'
import os, sys
sys.dont_write_bytecode = True
sys.path.insert(0, sys.argv[1])
import inputs
os.makedirs(sys.argv[2])
inputs.make_test_wide(7, sys.argv[2])
EOF
covcusum test --kind v-breve --data "$tmp"/wide/sample_*.csv --v "$tmp/wide/v.txt" \
  --n-grid 1000 --n-rep 10000 --workers 2 --seed 7 --out test-wide.json > test-wide.txt

# The critval-k6 workload of perfbench.
covcusum critval --kind q-breve --K 6 --level 0.95 --n-grid 2000 --n-rep 100000 \
  --workers 2 --seed 7 --out critval-k6.csv > critval-k6.txt

for demo in "$root"/demos/*.py; do
  "$py" -W error "$demo" > "demo-$(basename "$demo" .py).txt"
done
