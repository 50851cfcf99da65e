#!/usr/bin/env bash
# Tier-1 verification recipe: build, the full test suite, lints, formatting.
# Run from anywhere; exits non-zero on the first failure.
#
#   ./scripts/verify.sh           # build + tests + clippy + fmt
#                                 # + the vendored bytes crate's own tests
#                                 # + benchmark/ package build, tests and clippy
#                                 # + the surface.sh size table (never fails)
#   ./scripts/verify.sh --quick   # also run the nine gates through the one
#                                 # `gates` runner, each writing its
#                                 # BENCH_<name>.json at the repo root, and
#                                 # fail if any report differs from the one
#                                 # in the git index; then a four-workload
#                                 # benchmark smoke (below):
#     offline          cross-thread determinism of the offline fit
#     chaos            seeded read faults vs the serving SLOs
#     serving_scale    blooms, row cache, batch == single scores
#     ingest           batched writes, compaction drain, group commit
#     serving_million  dynamic region splitting under Zipf-hot traffic
#     offline_sql      distributed SQL byte-identity and work scaling
#     crash            write faults and crash-restart recovery
#     stream           windowed velocity features closing the T+1 gap
#     predict          flat inference bit-identity, counted traversal
#
# Gate reports hold counters and booleans only, so a run on a correct tree
# rewrites them byte for byte; timing belongs to benchmark/.
#
# The clippy gate runs with -D warnings across every target (libs, tests,
# benches, examples); crates/modelserver additionally denies unwrap/expect
# in non-test code via a crate-level lint (see its lib.rs) so the serving
# hot path stays panic-free.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
    case "$arg" in
    --quick) QUICK=1 ;;
    *)
        echo "unknown argument: $arg" >&2
        exit 2
        ;;
    esac
done

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# vendor/ is outside the workspace, so the test run above skips the
# stand-in crates' own tests. The bytes stand-in is the one with a
# representation of its own (small payloads inline) and tests pinning it
# to the byte-slice semantics; its Cargo.lock is tracked.
echo "==> vendored bytes: tests"
cargo test --offline -q --manifest-path vendor/bytes/Cargo.toml --target-dir target

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

# benchmark/ is a package of its own (not a workspace member) that names
# every crate item it uses in benchmark/src/api.rs; building it here makes
# a rename of a pinned item fail verify instead of the benchmark run. Its
# unit tests pin the fixture layout and BENCHMARK.json's metric list.
# --locked: benchmark/Cargo.lock is tracked and pinned, so a new crate or
# dependency edge fails here instead of silently rewriting the lock file.
echo "==> benchmark package: build + tests + clippy"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
cargo test --release --offline --locked --manifest-path benchmark/Cargo.toml
cargo clippy --release --offline --locked --manifest-path benchmark/Cargo.toml -- -D warnings

if [[ $QUICK -eq 1 ]]; then
    echo "==> the nine gates"
    cargo run --release -q -p titant-bench --bin gates

    # The reports are a checked contract: a gate whose counters moved, or
    # a report nobody refreshed, fails here. The diff is against the index,
    # so a staged refresh passes.
    echo "==> gate reports match the index"
    git diff --exit-code -- 'BENCH_*.json'

    # Both read entries (score, score_batch) and the write workload,
    # untraced then traced: any FAULT line (oracle mismatch, lost delta,
    # trace.coverage out of range) exits 1. At BENCHMARK.json's own run
    # length, not a shorter one: a short traced pass is mostly tracer
    # warm-up, and serve_cold's coverage reads ~0.76 at 1 second and
    # 0.91-0.93 at 3 against a floor of 0.90. serve_batch is the other
    # coverage-gated workload; its traced pass rests on 320 calls.
    # Then stream_mixed, untraced only (~25 s): the one pass through the
    # velocity flush (`advance_and_ingest`), where a failed flush, a
    # refused event or a score that differs from the oracle exits 1.
    echo "==> benchmark smoke: serve_cold, serve_batch, ingest_durable, stream_mixed"
    bash benchmark/run.sh --workload serve_cold --seconds 10
    bash benchmark/run.sh --workload serve_batch --seconds 10
    bash benchmark/run.sh --workload ingest_durable --seconds 10
    bash benchmark/run.sh --workload stream_mixed --trace 0
fi

# Information only: the one size measure (see scripts/surface.sh).
echo "==> surface (non-test lines and pub fn per crate)"
bash scripts/surface.sh || true

echo "verify: all green"
