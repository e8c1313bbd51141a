#!/usr/bin/env bash
# Repo-wide gate: format, lints, rustdoc, tests, and the smoke runs.
# Usage: scripts/check.sh  (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo fmt --check (perfbench workspace) =="
cargo fmt --manifest-path perfbench/Cargo.toml --all --check

echo "== cargo clippy --workspace (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy (perfbench workspace, deny warnings) =="
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "== cargo doc --workspace (deny rustdoc warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo test =="
cargo test --workspace -q

echo "== goldens in release mode, benchmark shapes included (cargo test --release --test golden) =="
cargo test --release -q --test golden \
  || { echo "check.sh: release goldens failed (a fingerprint moved, bench_lan128 and bench_mesh included)" >&2; exit 1; }

echo "== shape sweep in release mode (cargo test --release --test shapes) =="
cargo test --release -q --test shapes \
  || { echo "check.sh: shape sweep failed (a containment violation, monitor violation or CF failure on a swept shape)" >&2; exit 1; }

echo "== observability smoke run (e1_epsilon --obs-summary) =="
out=$(NTI_EXP_FAST=1 cargo run --release -q -p nti-bench --bin e1_epsilon -- --obs-summary)
echo "$out" | tail -25
echo "$out" | grep -q "== observability summary ==" \
  || { echo "check.sh: missing observability summary" >&2; exit 1; }
echo "$out" | grep -q "cluster/precision_ns" \
  || { echo "check.sh: missing cluster precision metric" >&2; exit 1; }
for metric in engine/events_fired engine/queue_depth; do
  echo "$out" | grep -q "$metric" \
    || { echo "check.sh: missing engine metric $metric" >&2; exit 1; }
done
# e1's observer traces nothing: hop durations must not depend on tracing.
for metric in span/hop_rcv_trigger_ns span/hop_accept_ns; do
  echo "$out" | grep -q "$metric" \
    || { echo "check.sh: missing hop histogram $metric in a metrics-only run" >&2; exit 1; }
done

echo "== observability smoke run (e6_class_table --obs-summary) =="
out=$(NTI_EXP_FAST=1 cargo run --release -q -p nti-bench --bin e6_class_table -- --obs-summary)
echo "$out" | grep -q "== observability summary ==" \
  || { echo "check.sh: e6_class_table printed no observability summary" >&2; exit 1; }

echo "== simulator metrics-cost gate (e9_sixteen_nodes --obs-gate) =="
cargo run --release -q -p nti-bench --bin e9_sixteen_nodes -- --obs-gate \
  || { echo "check.sh: obs gate failed (metrics-on default_lan(16) median wall ratio > 1.25, or an observed run reported differently)" >&2; exit 1; }

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
