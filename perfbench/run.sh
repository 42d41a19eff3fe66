#!/usr/bin/env bash
# Builds the benchmark and the daemon it drives (release, offline), then
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig5-drop --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh run --seed 1 --out runs.ndjson
#
# Build output goes to stderr, so the result stays the last stdout line.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/perfbench" "$@"
