#!/usr/bin/env bash
# What the prose docs (DESIGN.md, README.md, EXPERIMENTS.md) say that is
# no longer true of the repo. Five rules, each printing one
# `FILE:LINE: what` per breach:
#
#   code        every backticked `path.rs`, `path.rs:LINE` (or
#               `:LINE-LINE`) and `Type::item` in the docs resolves in the
#               Rust sources under crates/, src/, tests/, scripts/,
#               examples/, benchmark/ and vendor/:
#                 path.rs[:LINE]  some source file's path ends in
#                                 `path.rs`, and one of them has at least
#                                 LINE lines;
#                 A::b            `b` is defined in what `A` (the
#                                 segment before the last, generics and a
#                                 trailing call dropped) names: where `A`
#                                 is a source file's stem, a directory (a
#                                 crate's, or a module's) or an inline
#                                 `mod`, in that file or the files under
#                                 it; where `A` is a type, in a file that
#                                 defines or implements it. Defined means
#                                 a fn, const, static, type, struct, enum,
#                                 trait, module, field or variant of that
#                                 name. Paths into std, core or alloc are
#                                 not checked. A test is named
#                                 `module::test_name`.
#   length      DESIGN.md has at most 900 lines (the 800-line rule for
#               product files, for the design); the line past the limit
#               is named.
#   history     no line of DESIGN.md names a PR (`PR 12`, `PR-7`,
#               `PRs 21`) except the one History line, which opens with
#               `**History.**` and points to CHANGES.md.
#   anchors     every `DESIGN.md#anchor` and `EXPERIMENTS.md#anchor` link
#               in the docs is the slug of a heading of its target, by
#               GitHub's rule (lower case; everything but letters,
#               digits, spaces, `-` and `_` dropped; each space a `-`; a
#               repeated heading's slug takes `-1`, `-2`, ...).
#   citations   every `DESIGN.md "Title"` citation in a `.rs` source or a
#               doc is a prefix of a heading or of a bold paragraph lead
#               (`**Lead.**`) of DESIGN.md. A prefix, because a citation
#               wraps across comment lines; a title that starts on the
#               line after `DESIGN.md` is read from there.
#
#   scripts/docs.sh            list every breach
#   scripts/docs.sh --check    and exit non-zero if there is any (CI)
set -euo pipefail
cd "$(dirname "$0")/.."

check=false
if [ "${1:-}" = "--check" ]; then
    check=true
fi
docs=(DESIGN.md README.md EXPERIMENTS.md)
roots=(crates src tests scripts examples benchmark vendor)
design_limit=900

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

find "${roots[@]}" -name '*.rs' -not -path '*/target/*' | sort > "$work/files"
ident='[A-Za-z_][A-Za-z0-9_]*'

# The files a container `A` names: `A.rs`, the files under a directory
# `A`, a file with an inline `mod A`, and a file that defines or
# implements a type `A`.
container_files() {
    grep -E "(^|/)$1(\.rs|/)" "$work/files" || true
    xargs grep -lE "\bmod\s+$1\s*\{|\b(struct|enum|trait|type|union)\s+$1\b|^\s*impl(<.*>)?\s+$1\b|^\s*impl\b.*\bfor\s+$1\b" < "$work/files" || true
}

# Whether one of the files on stdin defines `$1`: an item of that name,
# or a field or a variant, the first word of a line before `:`, `,`, `(`,
# `{` or `=>` (a `ledger!` entry reads `pub name: Type => Kind,`).
defines() {
    [ -n "$(xargs -r grep -lE "\b(fn|const|static|type|struct|enum|trait|mod|union)\s+$1\b|^\s*(pub(\([a-z]+\))?\s+)?$1\s*(:[^:]|,|\(|\{|=>)")" ]
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
    container_files "$container" | sort -u | defines "$item"
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

# The docs' own rules. Each prints `FILE:LINE: what`.
{
    # length
    lines=$(wc -l < DESIGN.md)
    if [ "$lines" -gt "$design_limit" ]; then
        echo "DESIGN.md:$((design_limit + 1)): DESIGN.md has $lines lines, over $design_limit"
    fi

    # history
    grep -nE '\bPRs?[ -][0-9]' DESIGN.md | awk -F: '
        $2 ~ /^\*\*History\.\*\*/ && !seen { seen = 1; next }
        { print "DESIGN.md:" $1 ": names a PR outside the History line" }'

    # The headings of a doc, one `slug<TAB>title` a line; fenced code
    # blocks hold no headings.
    headings() {
        awk '
            /^```/ { fenced = !fenced; next }
            fenced || !/^#+ / { next }
            {
                title = $0
                sub(/^#+ +/, "", title)
                sub(/ +$/, "", title)
                slug = tolower(title)
                gsub(/[^a-z0-9 _-]/, "", slug)
                gsub(/ /, "-", slug)
                n = seen[slug]++
                print (n ? slug "-" n : slug) "\t" title
            }' "$1"
    }
    headings DESIGN.md > "$work/design_headings"
    headings EXPERIMENTS.md > "$work/experiments_headings"

    # anchors
    grep -noE '(DESIGN|EXPERIMENTS)\.md#[A-Za-z0-9_-]*' "${docs[@]}" | while IFS=: read -r doc line link; do
        target=${link%%#*}
        anchor=${link#*#}
        table=$work/design_headings
        [ "$target" = EXPERIMENTS.md ] && table=$work/experiments_headings
        cut -f1 "$table" | grep -qxF -- "$anchor" || echo "$doc:$line: $link names no heading of $target"
    done

    # citations: what a citation may start, the titles of DESIGN.md.
    {
        cut -f2 "$work/design_headings"
        grep -oE '^ *([-*] +)?\*\*[^*]+\*\*' DESIGN.md | sed -E 's/^ *([-*] +)?\*\*//; s/\*\*$//'
    } > "$work/titles"
    {
        cat "$work/files"
        printf '%s\n' "${docs[@]}"
    } | xargs awk '
        FNR == 1 { flush() }
        { text[FNR] = $0; name = FILENAME; last = FNR }
        END { flush() }
        # The text of a line with its comment or list marker dropped.
        function body(s) {
            sub(/^[ \t]*(\/\/[\/!]?|#|\*)?[ \t]*/, "", s)
            return s
        }
        function flush(    i, rest, title) {
            for (i = 1; i <= last; i++) {
                rest = text[i]
                while (match(rest, /DESIGN\.md/)) {
                    rest = substr(rest, RSTART + RLENGTH)
                    title = rest
                    if (title ~ /^[ (]*$/ && i < last) title = " " body(text[i + 1])
                    if (title !~ /^ \(?"/) continue
                    sub(/^ \(?"/, "", title)
                    sub(/".*/, "", title)
                    sub(/[ \t]+$/, "", title)
                    if (title != "") print name ":" i "\t" title
                }
            }
            delete text
            last = 0
        }' | while IFS=$'\t' read -r where title; do
        awk -v t="$title" 'index($0, t) == 1 { found = 1; exit } END { exit !found }' "$work/titles" ||
            echo "$where: DESIGN.md \"$title\" starts no heading or bold lead of DESIGN.md"
    done
} > "$work/breaches"
cat "$work/breaches"
breaches=$(wc -l < "$work/breaches")

if $check && [ $((unresolved + breaches)) -gt 0 ]; then
    echo "$unresolved code reference(s) that no longer resolve and $breaches breach(es) of the docs' rules in ${docs[*]}" >&2
    exit 1
fi
