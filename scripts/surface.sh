#!/usr/bin/env bash
# The repo's one size measure. Per crate: the non-blank lines of every
# crates/<crate>/src/**/*.rs above that file's first `#[cfg(test)]` line
# (the whole file when it has none), and the `pub fn` count in that region.
# Information only: scripts/verify.sh prints it last and never fails on it.
#
#   ./scripts/surface.sh                     # every crate
#   ./scripts/surface.sh alihbase modelserver
set -euo pipefail
cd "$(dirname "$0")/.."

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
