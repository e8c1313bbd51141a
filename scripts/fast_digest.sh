#!/usr/bin/env bash
# One digest per deterministic experiment run, so "the FAST stdout did not
# move" is a diff of two outputs rather than a claim.
#
# Builds the release experiment binaries of the checkout this script lives
# in, runs each with NTI_EXP_FAST=1, and prints one line per run:
#
#     <sha256 of stdout>  <exit status>  <run>
#
# The runs: e1–e8 and e10–e15 (full), e16_chaos and e18_churn (full and
# --smoke), and nti_analyze --smoke. e9, e19 and e20 read the wall clock,
# so their stdout varies from run to run and they are left out.
#
# Usage: scripts/fast_digest.sh > digests.txt
#        diff parent-digests.txt digests.txt
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p nti-bench
bin="${CARGO_TARGET_DIR:-target}/release"

run() {
  local status=0 digest
  digest=$(NTI_EXP_FAST=1 "$bin/$1" "${@:2}" 2>/dev/null | sha256sum | cut -d' ' -f1) || status=$?
  # With pipefail, a failing binary makes the substitution fail: report
  # its status next to the digest of whatever it printed.
  printf '%s  %s  %s\n' "$digest" "$status" "$*"
}

for e in e1_epsilon e2_granularity e3_fosc_crossover e4_rate_sync e5_gps_validation \
  e6_class_table e7_adder_clock e8_lower_bound e10_wan_of_lans e11_rtt_measurement \
  e12_ntp_wan e13_aposteriori e14_header_base e15_convergence_functions; do
  run "$e"
done
for e in e16_chaos e18_churn; do
  run "$e"
  run "$e" --smoke
done
run nti_analyze --smoke
