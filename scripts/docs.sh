#!/usr/bin/env bash
# Code references in the prose docs that no longer resolve. Every
# backticked `path.rs`, `path.rs:LINE` (or `:LINE-LINE`) and `Type::item`
# in DESIGN.md, README.md and EXPERIMENTS.md is checked against the Rust
# sources under crates/, src/, tests/ and scripts/, and under benchmark/
# and vendor/, which the docs cite too:
#
#   path.rs[:LINE]  some source file's path ends in `path.rs`, and one of
#                   them has at least LINE lines;
#   A::b            `A` (the segment before the last, generics and a
#                   trailing call dropped) and `b` are each the name of
#                   something the sources define: a fn, const, static,
#                   type, struct, enum, trait, module, field or variant,
#                   or a crate, source file or source directory. Paths into
#                   std, core or alloc are not checked.
#
# Prints one `FILE:LINE: reference` per reference that does not resolve.
#
#   scripts/docs.sh            list them
#   scripts/docs.sh --check    and exit non-zero if there is any (CI)
set -euo pipefail
cd "$(dirname "$0")/.."

check=false
if [ "${1:-}" = "--check" ]; then
    check=true
fi
docs=(DESIGN.md README.md EXPERIMENTS.md)
roots=(crates src tests scripts benchmark vendor)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

find "${roots[@]}" -name '*.rs' -not -path '*/target/*' | sort > "$work/files"
ident='[A-Za-z_][A-Za-z0-9_]*'
# Every name the sources define, one a line.
{
    xargs grep -hoE "\b(fn|const|static|type|struct|enum|trait|mod|union)\s+$ident" < "$work/files" |
        awk '{ print $2 }'
    # A field or a variant: the first word of a line, before `:`, `,`,
    # `(`, `{` or `=>` (a `ledger!` entry reads `pub name: Type => Kind,`).
    xargs grep -hoE "^\s*(pub(\([a-z]+\))?\s+)?$ident\s*(:[^:]|,|\(|\{|=>)" < "$work/files" |
        sed -E "s/^\s*(pub(\([a-z]+\))?\s+)?($ident).*/\3/"
    sed -E 's#.*/##; s#\.rs$##' "$work/files"
    tr '/' '\n' < "$work/files"
    ls crates
} | sort -u > "$work/defs"

defined() {
    grep -qxF "$1" "$work/defs"
}

# A `path.rs` resolves when a source path ends in it, and, with a line,
# when one such file has that many lines.
path_resolves() {
    local path=${1%%:*} line=${1#*:}
    [ "$line" = "$1" ] && line=0
    line=${line%%-*}
    local file
    while IFS= read -r file; do
        if [ "$file" = "$path" ] || [ "${file%/"$path"}" != "$file" ]; then
            [ "$(wc -l < "$file")" -ge "$line" ] && return 0
        fi
    done < "$work/files"
    return 1
}

item_resolves() {
    local ref=${1%%(*}
    ref=$(sed -E 's/<[^>]*>//g' <<< "$ref")
    case "$ref" in
    std::* | core::* | alloc::*) return 0 ;;
    esac
    local item=${ref##*::} rest=${ref%::*}
    local container=${rest##*::}
    defined "$container" && defined "$item"
}

unresolved=0
while IFS= read -r hit; do
    doc=${hit%%:*}
    rest=${hit#*:}
    line=${rest%%:*}
    ref=${rest#*:}
    ref=${ref#\`}
    ref=${ref%\`}
    if [[ $ref =~ ^[A-Za-z0-9_./-]*\.rs(:[0-9]+(-[0-9]+)?)?$ ]]; then
        path_resolves "$ref" && continue
    elif [[ $ref =~ ^$ident(\<[^\`]*\>)?(::$ident)+(\(.*\))?$ ]]; then
        item_resolves "$ref" && continue
    else
        continue
    fi
    echo "$doc:$line: $ref"
    unresolved=$((unresolved + 1))
done < <(grep -noE '`[^`]+`' "${docs[@]}")

if $check && [ "$unresolved" -gt 0 ]; then
    echo "$unresolved code reference(s) in ${docs[*]} no longer resolve" >&2
    exit 1
fi
