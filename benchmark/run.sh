#!/usr/bin/env bash
# Builds the benchmark crate and runs it. With --workload it is one run
# whose last output line is the result the driver reads; without, it runs
# every workload, each in a fresh process, and writes out/results.json.
# Exits non-zero if anything failed to build, run or check out.
set -euo pipefail
here="$(dirname "$0")"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- \
    --out-dir "$here/out" "$@"
