#!/usr/bin/env bash
# Repo-wide gate: format, lints, tests, and an observability smoke run.
# Usage: scripts/check.sh  (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy --workspace (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test --workspace -q

echo "== observability smoke run (e1_epsilon --obs-summary) =="
out=$(NTI_EXP_FAST=1 cargo run --release -q -p nti-bench --bin e1_epsilon -- --obs-summary)
echo "$out" | tail -25
echo "$out" | grep -q "== observability summary ==" \
  || { echo "check.sh: missing observability summary" >&2; exit 1; }
echo "$out" | grep -q "cluster/precision_ns" \
  || { echo "check.sh: missing cluster precision metric" >&2; exit 1; }

echo "== fault-matrix smoke run (e16_chaos --smoke) =="
NTI_EXP_FAST=1 cargo run --release -q -p nti-bench --bin e16_chaos -- --smoke \
  || { echo "check.sh: chaos smoke failed (containment or reintegration)" >&2; exit 1; }

echo "== churn-matrix smoke run (e18_churn --smoke) =="
NTI_EXP_FAST=1 cargo run --release -q -p nti-bench --bin e18_churn -- --smoke \
  || { echo "check.sh: churn smoke failed (final states, containment, recovery, or bit-identity)" >&2; exit 1; }

echo "== benchmark harness tests (perfbench, release) =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml \
  || { echo "check.sh: perfbench tests failed (pinned sim-lan128 event counts, or observed/paced runs diverging from plain ones)" >&2; exit 1; }

echo "== serving-layer smoke run (e19_serve --smoke) =="
NTI_EXP_FAST=1 cargo run --release -q -p nti-bench --bin e19_serve -- --smoke \
  || { echo "check.sh: serve smoke failed (malformed, loss, latency, or containment)" >&2; exit 1; }

echo "== telemetry-plane gate (e19_serve --telemetry-gate) =="
NTI_EXP_FAST=1 cargo run --release -q -p nti-bench --bin e19_serve -- --telemetry-gate \
  || { echo "check.sh: telemetry gate failed (scrape content or >5% qps overhead)" >&2; exit 1; }

echo "== abuse-hardening smoke run (e20_abuse --smoke) =="
NTI_EXP_FAST=1 cargo run --release -q -p nti-bench --bin e20_abuse -- --smoke \
  || { echo "check.sh: abuse smoke failed (fuzz replay, goodput protection, legit KoD, containment, or stall degradation)" >&2; exit 1; }

echo "== span/monitor smoke run (nti_analyze --smoke) =="
cargo run --release -q -p nti-bench --bin nti_analyze -- --smoke \
  || { echo "check.sh: nti_analyze smoke failed (span chain or monitors)" >&2; exit 1; }

echo
echo "check.sh: all gates passed"
