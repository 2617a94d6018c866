#!/usr/bin/env bash
# Repo CI gate. Run from anywhere; fails fast on the first broken step.
#
#   1. cargo fmt --check                        — formatting (rustfmt.toml)
#   1a. one runtime surface                     — no source or manifest may
#      name the removed mcps-sim facade (mcps_sim / mcps-sim / mcps::sim);
#      the kernel is imported from mcps_runtime only
#   1b. the bed runs the pump core              — crates/serve/src may not
#      name Simulation or actor_as: the live bed drives PumpCore directly,
#      with no private kernel
#   1c. one property, two engines               — no .rs file may name the
#      removed per-engine checker entry points (check_safety*,
#      check_bounded_response*, check_{pca,failover}_variant_{stats,
#      reference}) or the removed MetricsHub: properties are stated once
#      as a Property and checked via Network::check / check_with /
#      check_reference
#   2. cargo clippy --workspace -D warnings     — lints, all targets
#   2a. cargo doc --workspace --no-deps         — rustdoc with -D warnings:
#      no broken, private or ambiguous intra-doc links
#   3. cargo build --release && cargo test -q   — the tier-1 gate (ROADMAP.md)
#
# Extras the tier-1 gate does not cover:
#   4. cargo test --workspace -q                — every crate incl. shims
#   5. cargo build --benches                    — criterion benches compile
#   5a. scheduler conformance                   — timer-wheel engine ==
#      reference heap engine in lockstep (pop-for-pop, seq-exact)
#   5b. scheduler golden pins                   — the fabric_golden
#      baseline hashes must be the pre-wheel constants (the wheel must
#      reproduce them, never re-record them), and the pinned test passes;
#      then the pump lockstep: the sim PumpActor adapter and a bed-style
#      PumpCore driver agree send-for-send on seeded command programs
#   5c. runtime scheduler smoke budget          — bench_runtime --quick
#      fails if wheel/heap pop streams diverge, if the steady-state
#      dispatch path allocates, or past its wall-clock ceiling
#   6. checker conformance tests                — packed engine ==
#      reference engine, serial == parallel (bit-identical)
#   7. checker smoke + property gate            — bench_checker fails if
#      state_space_bound20 regresses past a generous wall-clock ceiling
#      or if ANY E13 failover property verdict is wrong (the three
#      protocol properties must hold, the seeded mutants must violate)
#   8. network fabric smoke budget              — bench_fabric fails if
#      the routing/256 fan-out workload regresses past its ceiling, and
#      BENCH_net.json must be emitted
#   9. fault-campaign smoke                     — bench_faults --quick
#      fails on ANY invariant violation in the reduced fault grid
#      (no-overdose, plus failover/split-brain for the supervisor-crash
#      and partition cells), or if the campaign blows its ceiling
#   9a. campus-scale smoke                      — bench_campus --quick
#      fails on any admission/association invariant violation in the
#      reduced campus, under an events/s floor, or past its ceiling
#  10. serve-mode smoke                          — the serve crate's
#      crash harness (kill -9 the live supervisor mid-bolus; the
#      device-local fail-safe must latch), then bench_serve --quick
#      (live ingest throughput + danger-to-stop cycles, zero trace
#      allocations with tracing disabled), emitting BENCH_serve.json
#  11. crash/soak smoke                          — journal + wire
#      recovery tests (torn tails, corrupt records, every-offset frame
#      truncation, chaos reconnect, zero steady-state allocations on
#      the binary wire path), then bench_soak --quick: kill -9 /
#      restart cycles under chaos with a durable journal; fails on ANY
#      fault-campaign invariant violation (epoch must climb, danger→stop
#      ≤ 30 protocol-s across a restart, watchdog latch on long outages,
#      zero double actuations), emitting BENCH_soak.json

set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt =="
cargo fmt --check

echo "== one runtime surface (no mcps-sim facade paths) =="
if git grep -nE 'mcps[_-]sim|mcps::sim' -- '*.rs' '*.toml'; then
    echo "the mcps-sim facade is gone; import the kernel from mcps_runtime"
    exit 1
fi

echo "== the bed runs the pump core (no kernel in mcps-serve) =="
if git grep -nE '\bSimulation\b|actor_as' -- crates/serve/src; then
    echo "the bed drives PumpCore directly; crates/serve/src must not run a Simulation"
    exit 1
fi

echo "== one property, two engines (no per-engine checker entry points) =="
if git grep -nE 'check_(safety|bounded_response)|check_(pca|failover)_variant_(stats|reference)|MetricsHub' -- '*.rs'; then
    echo "state the property once as a Property and check it via Network::check, check_with or check_reference"
    exit 1
fi

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (no broken or private intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== workspace tests =="
cargo test --workspace -q

echo "== benches compile =="
cargo build --benches

echo "== scheduler conformance (timer wheel vs reference heap, lockstep) =="
cargo test -q -p mcps-runtime --release --test wheel_lockstep

echo "== scheduler golden pins (wheel must not re-record fabric baselines) =="
grep -q "0x4d92_0ea0_52ae_358b" tests/fabric_golden.rs \
    || { echo "E4 grid golden hash pin was altered"; exit 1; }
grep -q "0x8af6_1fb4_7ea4_288a" tests/fabric_golden.rs \
    || { echo "multibed golden hash pin was altered"; exit 1; }
cargo test -q --release --test fabric_golden
cargo test -q -p mcps-core --release --test pump_core

echo "== runtime scheduler smoke budget =="
cargo build --release -q -p mcps-bench --bin bench_runtime
./target/release/bench_runtime --quick --out target/BENCH_runtime.json --max-ms 30000 > /dev/null
test -s target/BENCH_runtime.json || { echo "BENCH_runtime.json missing"; exit 1; }
echo "wheel/heap conformance hashes match, zero steady-state allocs (target/BENCH_runtime.json)"

echo "== checker conformance (packed vs reference, serial vs parallel) =="
cargo test -q -p mcps-safety --release --test packed_engine

echo "== checker smoke budget + E13 failover property gate =="
cargo build --release -q -p mcps-bench --bin bench_checker
./target/release/bench_checker --out target/BENCH_checker.json --max-ms 10000 > /dev/null
echo "all E13 failover verdicts as proved; state_space_bound20 under the 10s ceiling (target/BENCH_checker.json)"

echo "== network fabric smoke budget =="
cargo build --release -q -p mcps-bench --bin bench_fabric
./target/release/bench_fabric --out target/BENCH_net.json --max-ms 5000 > /dev/null
test -s target/BENCH_net.json || { echo "BENCH_net.json missing"; exit 1; }
echo "routing/256 under the 5s ceiling (target/BENCH_net.json)"

echo "== fault-campaign smoke (no-overdose + failover invariants) =="
cargo build --release -q -p mcps-bench --bin bench_faults
./target/release/bench_faults --quick --out target/BENCH_faults.json --max-ms 60000 > /dev/null
test -s target/BENCH_faults.json || { echo "BENCH_faults.json missing"; exit 1; }
echo "quick fault grid: zero invariant violations (target/BENCH_faults.json)"

echo "== campus-scale smoke (10k-bed scenario engine, reduced census) =="
cargo build --release -q -p mcps-bench --bin bench_campus
./target/release/bench_campus --quick --out target/BENCH_campus.json \
    --max-ms 60000 --min-events-per-sec 100000 > /dev/null
test -s target/BENCH_campus.json || { echo "BENCH_campus.json missing"; exit 1; }
echo "quick campus: zero invariant violations, events/s over floor (target/BENCH_campus.json)"

echo "== serve-mode smoke (live host, crash harness, smoke budget) =="
cargo test -q -p mcps-serve --release --test crash --test live_loop
cargo build --release -q -p mcps-bench --bin bench_serve
./target/release/bench_serve --quick --out target/BENCH_serve.json --max-ms 30000 > /dev/null
test -s target/BENCH_serve.json || { echo "BENCH_serve.json missing"; exit 1; }
echo "live serve loop under the 30s ceiling, zero trace allocations (target/BENCH_serve.json)"

echo "== crash/soak smoke (durable journal, chaos links, kill -9 cycles) =="
cargo test -q -p mcps-serve --release --test journal_recovery --test wire_props --test chaos_reconnect \
    --test wire_alloc
cargo build --release -q -p mcps-bench --bin bench_soak
cargo build --release -q -p mcps-serve --bin mcps-serve
./target/release/bench_soak --quick --out target/BENCH_soak.json --max-ms 60000 > /dev/null
test -s target/BENCH_soak.json || { echo "BENCH_soak.json missing"; exit 1; }
echo "quick soak: zero invariant violations across kill -9 restarts (target/BENCH_soak.json)"

echo "CI OK"
