#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it; see README.md.
#
#   run.sh                                   every workload: untraced, then traced
#   run.sh --workload NAME [--seed N]        one workload, both passes
#   run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                            one pass; last stdout line is the result
#   run.sh --selfcheck                       everything twice + once on seed 1, compared
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/titant-benchmark" --out "$here/out" "$@"
