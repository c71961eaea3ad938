#!/usr/bin/env bash
# The benchmark's own CI entry point (`.github/` belongs to the repository):
# format, lints, unit and process tests, then a smoke run of every pass.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"

cargo fmt --check
cargo clippy --release --offline --all-targets -- -D warnings
cargo test --release --offline
./run.sh --smoke
