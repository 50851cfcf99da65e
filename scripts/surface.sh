#!/usr/bin/env bash
# The repo's one size measure. Per crate: the non-blank lines of every
# crates/<crate>/src/**/*.rs above that file's first `#[cfg(test)]` line
# (the whole file when it has none), and the `pub fn` count in that region.
# Information only: scripts/verify.sh prints it last and never fails on it.
#
#   ./scripts/surface.sh                     # every crate
#   ./scripts/surface.sh alihbase modelserver
#   ./scripts/surface.sh --unreferenced      # each `pub fn` (in that same
#                                            # region) whose name appears in
#                                            # no other .rs file
#
# --unreferenced prints `file:line name`, plus ` # reason` for a name kept
# on purpose (the list below); its last line counts both. The match is by
# name only, so a common name (`new`, `run`) always looks referenced.
set -euo pipefail
cd "$(dirname "$0")/.."

# Unreferenced on purpose, one line each: `name reason`.
KEEP='
feature_importance ROADMAP 7(c) reads the split-gain share of the DeepWalk columns
k_hop_neighborhood ROADMAP 7(a) counts the victims within 2 hops of a fraud hub
'

if [[ "${1:-}" == "--unreferenced" ]]; then
    defs=$(find crates -path '*/src/*' -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { live = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
        live && match($0, /(^|[[:space:]])pub fn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/) {
            name = substr($0, RSTART, RLENGTH); sub(/.*pub fn[[:space:]]+/, "", name)
            print name, FILENAME, FNR
        }')
    # Every (word, file) pair of the Rust sources that could call a pub fn.
    words=$(find crates src tests examples benchmark/src -name '*.rs' -not -path '*/target/*' -print0 |
        sort -z | xargs -0 awk '{
            n = split($0, w, /[^A-Za-z0-9_]+/)
            for (i = 1; i <= n; i++) if (w[i] != "") print w[i], FILENAME
        }' | sort -u)
    awk -v keep="$KEEP" '
        BEGIN {
            n = split(keep, lines, "\n")
            for (i = 1; i <= n; i++) if (lines[i] != "") {
                name = lines[i]; sub(/ .*/, "", name)
                reason[name] = substr(lines[i], length(name) + 2)
            }
        }
        FILENAME == "-" { files[$1] = files[$1] " " $2; next }
        {
            n = split(files[$1], f, " "); other = 0
            for (i = 1; i <= n; i++) if (f[i] != $2) other = 1
            if (other) next
            if ($1 in reason) { kept++; print $2 ":" $3, $1, "# " reason[$1] }
            else { bare++; print $2 ":" $3, $1 }
        }
        END { printf "unreferenced pub fn: %d without a reason, %d kept with one\n", bare, kept }
    ' - <(echo "$defs") <<<"$words"
    exit 0
fi

if [[ $# -gt 0 ]]; then crates=("$@"); else crates=($(ls crates)); fi
printf '%-12s %7s %7s\n' crate lines 'pub fn'
total_lines=0
total_fns=0
for crate in "${crates[@]}"; do
    read -r lines fns < <(find "crates/$crate/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { live = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
        live && NF { lines++ }
        live && /(^|[[:space:]])pub fn[[:space:]]/ { fns++ }
        END { print lines + 0, fns + 0 }')
    printf '%-12s %7d %7d\n' "$crate" "$lines" "$fns"
    total_lines=$((total_lines + lines))
    total_fns=$((total_fns + fns))
done
printf '%-12s %7d %7d\n' total "$total_lines" "$total_fns"
