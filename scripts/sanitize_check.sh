#!/usr/bin/env bash
# Builds the tree with AddressSanitizer + UndefinedBehaviorSanitizer, runs the
# full test suite, and gives the scenario fuzzer a fixed-seed budget. This is
# the acceptance gate for the invariant-checking layer: every fuzzed scenario
# runs all three buffer mechanisms with the invariant registry attached, so a
# clean exit means no memory error, no UB, and no invariant violation.
#
# A second build with ThreadSanitizer then runs the concurrency tests (the
# thread pool and the parallel-sweep determinism contract), gating the
# parallel machinery on data-race freedom.
#
# Usage: scripts/sanitize_check.sh [build_dir] [fuzz_runs] [fuzz_seed]
set -euo pipefail

BUILD_DIR="${1:-build-asan}"
FUZZ_RUNS="${2:-50}"
FUZZ_SEED="${3:-1}"
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"

cmake -B "$BUILD_DIR" -S "$SRC_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSDNBUF_SANITIZE=address,undefined
cmake --build "$BUILD_DIR" -j"$(nproc)"

export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="print_stacktrace=1"

ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

# Model-validation pass, explicitly: the analytical oracle (src/model) does
# heavy floating-point work (Erlang recurrences, fixed-point iteration,
# pow/exp on mixture moments) where UB — overflow in the factorial-free
# recurrences, bad casts, division by zero at saturation boundaries — would
# silently corrupt predictions. A clean -L model run under UBSan gates that.
ctest --test-dir "$BUILD_DIR" --output-on-failure -L model

# Observability pass: bench_obs_overhead runs E1 with metrics + tracing +
# profiler attached, and again with the telemetry plane on, so the whole
# instrumentation hot path (histogram record, span open/close, profiler
# rows, INT stamping, the fate ledger) gets an ASan/UBSan run. Timings are
# meaningless under sanitizers; the exit code is not: it is 1 when any
# obs-on run's result differs from its same-seed obs-off run.
"$BUILD_DIR/bench/bench_obs_overhead"

"$BUILD_DIR/tests/fuzz_scenarios" --runs "$FUZZ_RUNS" --seed "$FUZZ_SEED"
# Second pass with channel faults forced on: every scenario exercises the
# loss/duplication/outage code paths under the sanitizers.
"$BUILD_DIR/tests/fuzz_scenarios" --runs "$FUZZ_RUNS" --seed "$FUZZ_SEED" --force-faults
# Third pass with the fabric cross-check forced on: every scenario also runs
# a small multi-switch fabric (topology routing, ECMP, per-switch invariant
# registries) under the sanitizers.
"$BUILD_DIR/tests/fuzz_scenarios" --runs "$FUZZ_RUNS" --seed "$FUZZ_SEED" --force-fabric
# Fourth pass with data-plane link faults forced on: every fabric runs under
# seeded flap schedules, exercising send-time loss, port_status handling,
# route repair and the fate policies under the sanitizers.
"$BUILD_DIR/tests/fuzz_scenarios" --runs "$FUZZ_RUNS" --seed "$FUZZ_SEED" --force-link-faults
# Fifth pass with the telemetry plane forced on: every scenario attaches the
# fabric observatory (INT stamping, deterministic sampling, fate ledger) and
# cross-checks the drop-attribution ledger against the invariant registry's
# own accounting under the sanitizers.
"$BUILD_DIR/tests/fuzz_scenarios" --runs "$FUZZ_RUNS" --seed "$FUZZ_SEED" --force-telemetry
# Sixth pass with the shared-memory MMU forced on: every scenario runs the
# pool-accounting hot path (admission, split release, pool-conservation
# invariant) under a sampled policy/pool/alpha, under the sanitizers.
"$BUILD_DIR/tests/fuzz_scenarios" --runs "$FUZZ_RUNS" --seed "$FUZZ_SEED" --force-mmu
# Data-fault unit/integration suite, explicitly (it is part of ctest above,
# but run it by name so a label change can't silently drop the coverage).
"$BUILD_DIR/tests/test_data_fault"

# ThreadSanitizer pass over the concurrent pieces. TSan cannot be combined
# with ASan, hence the separate build tree.
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S "$SRC_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSDNBUF_SANITIZE=thread
cmake --build "$TSAN_DIR" -j"$(nproc)" --target test_thread_pool test_parallel_sweep test_mmu

export TSAN_OPTIONS="halt_on_error=1"
"$TSAN_DIR/tests/test_thread_pool"
"$TSAN_DIR/tests/test_parallel_sweep"
# The MMU suite spawns no threads today; it stays under TSan so the pool
# accounting is checked the moment a parallel driver runs it.
"$TSAN_DIR/tests/test_mmu"

echo "sanitize_check: OK (6 x ${FUZZ_RUNS} scenarios x 3 modes, seed ${FUZZ_SEED}; TSan clean)"
