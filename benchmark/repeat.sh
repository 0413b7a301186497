#!/usr/bin/env bash
# repeat.sh N [run.sh arguments]: N full sets with the same seed, then per
# metric and workload the median, quartiles, spreads and bound, printed
# and written to out/repeat.json.
set -euo pipefail
sets="${1:?usage: repeat.sh N [--trace] [--seed N]}"
shift
exec "$(dirname "$0")/run.sh" --repeat "$sets" "$@"
