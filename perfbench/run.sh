#!/usr/bin/env bash
# Build the CLIs and the benchmark from source, then run the benchmark.
#
#   bash perfbench/run.sh --workload <blastn-reads|blastn-widedb|som-paper|all> \
#       --seed <n> --seconds <s> --trace <0|1> [--record <file.jsonl>]
#   bash perfbench/run.sh compare <base.jsonl> <new.jsonl>
#
# Build output goes to stderr, so the last line of stdout is the result.
# CARGO_TARGET_DIR defaults to .bench_build at the repository root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [ ! -f Cargo.toml ] || [ ! -d crates/core ]; then
  echo "perfbench: $root is not a checkout of the repository (no Cargo.toml / crates/core)" >&2
  exit 2
fi
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p mrbio --bins >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
if [ "${1:-}" = compare ]; then
  exec "$target/release/perfbench" "$@"
fi
# Spill files and other temporaries stay inside the checkout.
mkdir -p .bench_out/tmp
export TMPDIR="$root/.bench_out/tmp"
exec "$target/release/perfbench" --bin-dir "$target/release" "$@"
