#!/usr/bin/env bash
# Non-test lines of Rust per crate, the way ROADMAP counts them (its
# per-crate line counts and largest files, and CI's 800-line file rule):
# for every file under crates/<crate>/src, the lines above its first
# `#[cfg(test)]` at the start of a line (the file's `mod tests`; a file
# without one counts whole, a file that is nothing but a test module —
# `tests.rs` — not at all). Prints one line per crate and a total.
#
#   scripts/loc.sh                 every crate under crates/
#   scripts/loc.sh bufferhash flashsim
#   scripts/loc.sh --files [CRATE...]
#                                  one line per file instead, largest
#                                  first (ROADMAP's "largest product files")
#   scripts/loc.sh --check LINES [CRATE...]
#                                  exits non-zero, naming every file over
#                                  LINES counted lines (CI holds the
#                                  800-line rule with it)
set -euo pipefail
cd "$(dirname "$0")/.."

mode=totals
case "${1:-}" in
--files)
    mode=files
    shift
    ;;
--check)
    mode=check
    limit=${2:?usage: scripts/loc.sh --check LINES [CRATE...]}
    shift 2
    ;;
esac
if [ "$#" -eq 0 ]; then
    set -- $(ls crates)
fi

# Prints "<lines> <file>" for every counted file of the named crates.
count() {
    for crate in "$@"; do
        find "crates/$crate/src" -name '*.rs' ! -name 'tests.rs' | sort | while IFS= read -r file; do
            n=$(awk '/^#\[cfg\(test\)\]/ { print NR - 1; found = 1; exit } END { if (!found) print NR }' "$file")
            echo "$n $file"
        done
    done
}

if [ "$mode" = files ]; then
    count "$@" | sort -k1,1nr -k2 | awk '{ printf "%6d %s\n", $1, $2 }'
    exit 0
fi

if [ "$mode" = check ]; then
    over=$(count "$@" | awk -v limit="$limit" '$1 > limit' | sort -k1,1nr -k2)
    if [ -n "$over" ]; then
        echo "files over $limit lines:" >&2
        echo "$over" | awk '{ printf "%6d %s\n", $1, $2 }' >&2
        exit 1
    fi
    echo "no file over $limit lines"
    exit 0
fi

total=0
for crate in "$@"; do
    lines=$(count "$crate" | awk '{ s += $1 } END { print s + 0 }')
    printf '%-12s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
