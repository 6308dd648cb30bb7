#!/usr/bin/env bash
# Golden-output regression gate: run a bench binary at smoke scale in a
# scratch directory and byte-compare one of its output files against a
# golden committed under tests/goldens/. Refactors that promise unchanged
# behaviour (the tier-vector memory API, the single ClusterSim epoch loop)
# must reproduce the golden numbers exactly, not approximately.
#
# The bench runs with every inherited MTAT_* variable unset except
# MTAT_SCALE=smoke, so a developer's MTAT_CLUSTER_FAULTS, MTAT_TOPOLOGY or
# MTAT_NODES cannot flip the gate. MTAT_JOBS is unset too; outputs are
# bit-identical at any job count.
#
# Regenerate a golden only when a change deliberately alters outputs: run
# the bench with MTAT_SCALE=smoke in an empty directory and copy the produced
# file over tests/goldens/<name>.smoke.csv.
#
# usage: golden_cmp.sh <bench-binary> <golden-file> <produced-filename>
set -euo pipefail

bench=$(realpath "$1")
golden=$2
produced=$3

if [[ ! -f "$golden" ]]; then
  echo "golden_cmp: missing golden $golden" >&2
  echo "golden_cmp: regenerate it by running 'MTAT_SCALE=smoke $bench' in an empty" \
       "directory and copying the $produced it writes to $golden" >&2
  exit 1
fi

scratch=$(mktemp -d "${TMPDIR:-/tmp}/mtat_golden.XXXXXX")
trap 'rm -rf "$scratch"' EXIT

mtat_vars=()
while IFS= read -r name; do mtat_vars+=(-u "$name"); done < <(compgen -e | grep '^MTAT_' || true)

(cd "$scratch" && env "${mtat_vars[@]}" MTAT_SCALE=smoke "$bench" >stdout.txt 2>stderr.txt) || {
  echo "golden_cmp: $bench failed:" >&2
  cat "$scratch/stderr.txt" >&2
  exit 1
}

if [[ ! -f "$scratch/$produced" ]]; then
  echo "golden_cmp: $bench did not write $produced" >&2
  exit 1
fi

if ! cmp "$golden" "$scratch/$produced"; then
  echo "golden_cmp: $produced differs from $golden" >&2
  echo "--- diff (golden vs produced) ---" >&2
  diff "$golden" "$scratch/$produced" >&2 || true
  exit 1
fi
echo "golden_cmp: $produced is byte-identical to $(basename "$golden")"
