#!/usr/bin/env bash
# Builds --release once and runs all four workloads.
#
#   e2e/run.sh            the untraced benchmark (end-to-end metrics)
#   e2e/run.sh --trace    the traced run (per-layer metrics, e2e/out/trace-*.json)
#   e2e/run.sh --quick    N/10 passes, 2 set-ups: a smoke run, flagged
#                         "quick": true in its context and never comparable
#
# SEED=<n> picks the seed (default 1).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mode=run
extra=()
for arg in "$@"; do
    case "$arg" in
        --trace) mode=trace ;;
        --quick) extra+=(--quick) ;;
        *) echo "usage: e2e/run.sh [--trace] [--quick]" >&2; exit 2 ;;
    esac
done
cargo build --release --offline --manifest-path e2e/Cargo.toml
for workload in shuffle_m3r shuffle_hadoop wordcount_m3r servermix; do
    echo "== $workload"
    "${CARGO_TARGET_DIR:-e2e/target}/release/e2e" "$mode" --workload "$workload" \
        --seed "${SEED:-1}" ${extra[@]+"${extra[@]}"}
done
