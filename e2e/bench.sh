#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark from source inside
# the checkout (release, offline; into $CARGO_TARGET_DIR when the caller
# sets one) and runs one workload:
#
#   bash e2e/bench.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The last line of standard output is the result object. Fails without
# printing one when the repository's crates are not beside e2e/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path e2e/Cargo.toml
exec "${CARGO_TARGET_DIR:-e2e/target}/release/e2e" run "$@"
