#!/usr/bin/env bash
# Non-test lines of Rust per crate, the way ROADMAP counts them (item 10
# holds the bufferhash + flashsim line target):
# for every file under crates/<crate>/src, the lines above its first
# `#[cfg(test)]` at the start of a line (the file's `mod tests`; a file
# without one counts whole, a file that is nothing but a test module —
# `tests.rs` — not at all). Prints one line per crate and a total.
#
#   scripts/loc.sh                 every crate under crates/
#   scripts/loc.sh bufferhash flashsim
#   scripts/loc.sh --files [CRATE...]
#                                  one line per file instead, largest
#                                  first (the 800-line rule, and
#                                  ROADMAP's "largest product files")
set -euo pipefail
cd "$(dirname "$0")/.."

files=false
if [ "${1:-}" = "--files" ]; then
    files=true
    shift
fi
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

if $files; then
    count "$@" | sort -k1,1nr -k2 | awk '{ printf "%6d %s\n", $1, $2 }'
    exit 0
fi

total=0
for crate in "$@"; do
    lines=$(count "$crate" | awk '{ s += $1 } END { print s + 0 }')
    printf '%-12s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
