#!/usr/bin/env bash
# Tier-1 pre-merge gate: release build, workspace-wide clippy, every
# package's tests in one workspace run, and the fault-injection smoke tests
# run explicitly by name so a filter or harness change can never silently
# drop them.
#
# Every step runs even when an earlier one fails, so one red step cannot
# hide the state of the rest; the failed steps are listed at the end and
# the script exits non-zero if there is any.
set -uo pipefail
cd "$(dirname "$0")/.."

failed=()

# step <name> <command...>: run one step and record its name if it fails.
step() {
  local name="$1"
  shift
  echo "== $name =="
  if ! "$@"; then
    echo "!! step failed: $name"
    failed+=("$name")
  fi
}

step "cargo build --release" \
  cargo build --release

step "cargo clippy --workspace --all-targets -- -D warnings" \
  cargo clippy --workspace --all-targets -- -D warnings

step "cargo test -q --workspace --no-fail-fast (every package's unit, integration, property and doc tests)" \
  cargo test -q --workspace --no-fail-fast

step "cargo test -q -p mrbio --test cli (the shipped CLIs as subprocesses)" \
  cargo test -q -p mrbio --test cli

step "fault-mode smoke: 2 of 8 workers killed mid-map, bit-for-bit BLAST" \
  cargo test -q --test parallel_equivalence blast_equivalence_with_two_of_eight_workers_killed_mid_map

step "fault-mode smoke: locality-aware master with a worker killed mid-map, bit-for-bit BLAST" \
  cargo test -q --test parallel_equivalence locality_with_worker_death_matches_serial

step "fault-mode smoke: DES dead-worker closed form" \
  cargo test -q --test perfmodel_validation faulty_des_matches_reduced_worker_closed_form

step "crash-consistency smoke: BLAST kill-and-restart, bit-for-bit output" \
  cargo test -q --test crash_restart blast_crash_restart_bit_for_bit

step "crash-consistency smoke: SOM resumes past a corrupt newest checkpoint" \
  cargo test -q --test crash_restart som_resume_with_corrupt_newest_checkpoint_falls_back

step "straggler smoke: speculation hides a stalled worker, bit-for-bit BLAST" \
  cargo test -q --test stragglers speculation_hides_a_straggler_and_output_stays_bit_for_bit

step "failover smoke: rank 0 (master) killed mid-map, bit-for-bit BLAST" \
  cargo test -q --test chaos_soak failover_smoke_master_kill_mid_map_bit_for_bit

step "chaos-soak smoke: master kill + worker kill + stall + poison + disk faults in one run" \
  cargo test -q --test chaos_soak chaos_campaign_composes_every_injection_in_one_run

step "golden-trace: same-seed runs share digest, fault-free trace is quiet (serial)" \
  cargo test -q --test golden_trace -- --test-threads=1

step "obs off is a no-op: run without a collector records nothing process-wide" \
  cargo test -q --test obs_noop

OBS_SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_SMOKE_DIR"' EXIT
obs_smoke() {
  cargo build --release -p mrbio -p obs --bins || return 1
  # Deterministic pseudo-random DNA; the LCG multiplier is small enough that
  # every intermediate stays exactly representable in awk's doubles.
  awk 'BEGIN {
    s = 12345; bases = "ACGT";
    for (r = 0; r < 6; r++) {
      printf(">ref%d\n", r);
      for (i = 0; i < 1200; i++) {
        s = (s * 69069 + 1) % 2147483648;
        printf("%s", substr(bases, int(s / 1024) % 4 + 1, 1));
        if (i % 60 == 59) printf("\n");
      }
    }
  }' > "$OBS_SMOKE_DIR/refs.fa" || return 1
  # Queries = the first 120 bases of each reference, so hits are guaranteed.
  awk '/^>/ { n++; printf(">q%d\n", n); getline l1; getline l2; print l1; print l2 }' \
    "$OBS_SMOKE_DIR/refs.fa" > "$OBS_SMOKE_DIR/reads.fa" || return 1
  target/release/mb-formatdb --in "$OBS_SMOKE_DIR/refs.fa" --out "$OBS_SMOKE_DIR/db" \
    --name refdb --partition-bytes 1024 || return 1
  target/release/mb-blast --db "$OBS_SMOKE_DIR/db" --name refdb \
    --queries "$OBS_SMOKE_DIR/reads.fa" --ranks 9 --block-size 2 --locality \
    --out "$OBS_SMOKE_DIR/hits" --trace "$OBS_SMOKE_DIR/trace.json" || return 1
  target/release/trace-lint "$OBS_SMOKE_DIR/trace.json"
}
step "obs smoke: 9-rank traced BLAST via mb-blast (locality-aware master), trace schema-validated" \
  obs_smoke

if [ "${#failed[@]}" -gt 0 ]; then
  echo "check.sh: ${#failed[@]} step(s) failed:"
  printf '  - %s\n' "${failed[@]}"
  exit 1
fi
echo "check.sh: all green"
