#!/usr/bin/env bash
# Non-test lines of Rust per crate, the way ROADMAP counts them (item 2
# holds the bufferhash + flashsim line target):
# for every file under crates/<crate>/src, the lines above its first
# `#[cfg(test)]` at the start of a line (the file's `mod tests`; a file
# without one counts whole, a file that is nothing but a test module —
# `tests.rs` — not at all). Prints one line per crate and a total.
#
#   scripts/loc.sh                 every crate under crates/
#   scripts/loc.sh bufferhash flashsim
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
    set -- $(ls crates)
fi

total=0
for crate in "$@"; do
    lines=0
    while IFS= read -r file; do
        n=$(awk '/^#\[cfg\(test\)\]/ { print NR - 1; found = 1; exit } END { if (!found) print NR }' "$file")
        lines=$((lines + n))
    done < <(find "crates/$crate/src" -name '*.rs' ! -name 'tests.rs' | sort)
    printf '%-12s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
