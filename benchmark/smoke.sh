#!/usr/bin/env bash
# Every workload for one second, timed and traced, all checks on, no
# bounds: under a minute once built. Run from anywhere; a CI job can call
# this without knowing anything else about the directory.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- run --smoke "$@"
