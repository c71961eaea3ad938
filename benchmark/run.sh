#!/usr/bin/env bash
# Builds the benchmark and runs it. README.md has the definitions.
#
#   run.sh [--seed N] [--seconds S] [--smoke] [--out FILE]
#       every workload, every pass: prints `workload metric value unit n`,
#       writes benchmark/out/result.json and one Chrome trace per workload;
#       exits non-zero if any repetition failed to verify.
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one pass on one workload; the last stdout line is the result object
#       (the form BENCHMARK.json's `command` is run in).
#   run.sh --repeat-check [--seed N] [--seconds S] [--smoke]
#       the whole benchmark twice, then `compare --strict` on the two files.
#   run.sh compare A.json B.json [--strict]
#   run.sh --manifest
#       prints BENCHMARK.json as the metric tables define it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# A relative CARGO_TARGET_DIR is relative to the caller's directory.
target="${CARGO_TARGET_DIR:-$here/target}"
[[ "$target" = /* ]] || target="$PWD/$target"
export CARGO_TARGET_DIR="$target"

# Every path the binary uses (benchmark/out, crates/) is relative to the
# repository root.
cd "$here/.."

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/hipmcl-benchmark"

if [[ "${1:-}" == compare ]]; then
    exec "$bin" "$@"
fi

mode=all
args=()
for arg in "$@"; do
    case "$arg" in
    --workload) mode=run ;;
    --repeat-check)
        mode=repeat
        continue
        ;;
    --manifest)
        mode=manifest
        continue
        ;;
    esac
    args+=("$arg")
done

case "$mode" in
run | all | manifest)
    exec "$bin" "$mode" ${args[@]+"${args[@]}"}
    ;;
repeat)
    "$bin" all ${args[@]+"${args[@]}"} --out benchmark/out/repeat_a.json
    "$bin" all ${args[@]+"${args[@]}"} --out benchmark/out/repeat_b.json
    exec "$bin" compare --strict benchmark/out/repeat_a.json benchmark/out/repeat_b.json
    ;;
esac
