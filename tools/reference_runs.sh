#!/bin/sh
# Run the reference CLI commands into one directory, one subdirectory each.
#
#   tools/reference_runs.sh OUT_DIR
#
# Runs from the checkout that holds this script, with the package under its
# src/, so two checkouts compare with one `diff -r`:
#
#   parent/tools/reference_runs.sh /tmp/ref_parent
#   change/tools/reference_runs.sh /tmp/ref_change
#   diff -r /tmp/ref_parent /tmp/ref_change
#   change/tools/compare_runs.py /tmp/ref_parent /tmp/ref_change
set -eu

if [ "$#" -ne 1 ]; then
    echo "usage: $0 OUT_DIR" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
cd "$root"  # run_manifest.json echoes the relative --config path

ENTRY_ALL=homogeneity,zero-cross,monotonicity,concavity,complementarity
GAME_ALL=exchangeability,adjustment-cost,linearity,mono-own-lag,mono-rivals

run() {
    name=$1
    shift
    echo "$name" >&2
    PYTHONPATH=src python3 -m ddcident.cli run "$@" --out-dir "$out/$name"
}

# the three README commands
run readme-entry --scenario entry --restrictions homogeneity,zero-cross --beta-grid 0.85:1.05:401
run readme-entry-fd --scenario entry-fd --restrictions homogeneity
run readme-game --scenario entry-game --firm 1 --restrictions exchangeability
# the command of tests/test_cli.py::test_runs_are_byte_identical
run entry-zc-mono --scenario entry --restrictions zero-cross,monotonicity --beta-grid 0:1:101
run entry-five --scenario entry --restrictions "$ENTRY_ALL"
run entry-six --scenario entry --restrictions "$ENTRY_ALL,linearity"
run entry-mono-w --scenario entry --restrictions "monotonicity(axis=w),homogeneity"
# every entry builder rebuilt from arguments, on non-default axes and orders
run entry-rebuilt --scenario entry --restrictions \
    "monotonicity(axis=w,direction=decreasing),concavity(axis=w),complementarity(direction=substitutes),zero-cross(diff_axis=z),homogeneity(axis=z)"
run fd-six --scenario entry-fd --restrictions "$ENTRY_ALL,linearity"
run fd-zc-mono --scenario entry-fd --restrictions zero-cross,monotonicity
run game-firm1 --scenario entry-game --firm 1 --restrictions "$GAME_ALL"
run game-firm2 --scenario entry-game --firm 2 --restrictions "$GAME_ALL"
run game-firm3 --scenario entry-game --firm 3 --restrictions "$GAME_ALL"
run config-six --config configs/entry_model.json \
    --restrictions homogeneity,zero_cross,monotonicity,concavity,complementarity,linearity
