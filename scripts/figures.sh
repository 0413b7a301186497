#!/usr/bin/env bash
# Runs the 14 simulated-clock figure binaries in release and writes each
# one's stdout to OUT_DIR/<bin>.txt. Every number they print is on the
# simulated clock, so two checkouts that should not change a figure can
# be compared byte for byte:
#
#   scripts/figures.sh /tmp/figs-a              # in one checkout
#   scripts/figures.sh /tmp/figs-b              # in the other
#   diff -r /tmp/figs-a /tmp/figs-b             # empty: same figures
#
#   scripts/figures.sh --check                  # against figures/<bin>.txt
#
# `--check` runs them into a temporary directory and compares each output
# with the copy committed under `figures/`; it exits 1 naming every
# figure that differs (or is missing). A change that moves a figure
# commits the new output in its own diff.
#
# `io_queue_depth` is left out: it prints wall-clock columns.
set -euo pipefail
if [ "$#" -ne 1 ]; then
    echo "usage: $0 OUT_DIR | --check" >&2
    exit 2
fi
cd "$(dirname "$0")/.."

bins="ablation batch_throughput dedup_merge fig3_bloom_overhead fig4_insertion_cost
fig5_spurious_rate fig6_clam_latency_cdf fig7_bdb_latency_cdf fig8_eviction_policies
fig9_wan_bandwidth fig10_per_object ops_per_dollar table2_lookup_breakdown
table3_lookup_fraction"

check=false
out=$1
if [ "$out" = "--check" ]; then
    check=true
    out=$(mktemp -d)
    trap 'rm -rf "$out"' EXIT
fi

cargo build --release -q -p bench --bins
mkdir -p "$out"
for bin in $bins; do
    echo "$bin" >&2
    "target/release/$bin" >"$out/$bin.txt"
done

if $check; then
    moved=""
    for bin in $bins; do
        if ! cmp -s "figures/$bin.txt" "$out/$bin.txt"; then
            diff -u "figures/$bin.txt" "$out/$bin.txt" | head -20 >&2 || true
            moved="$moved $bin"
        fi
    done
    if [ -n "$moved" ]; then
        echo "figures that differ from figures/:$moved" >&2
        exit 1
    fi
    echo "all 14 figures match figures/" >&2
fi
