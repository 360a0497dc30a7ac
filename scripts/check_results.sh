#!/usr/bin/env bash
# Regenerates the committed deterministic artifacts under results/ into a
# temporary directory and compares each byte for byte with the committed
# copy. Exits non-zero on the first missing file or any difference, so a
# refactor cannot drift a published figure silently.
#
# Checked (all 39 files):
#   - the 17 paper-figure CSVs (fig2a/b-fig8, fig8_avg, fig9a/b-fig13a/b)
#     written by one bench_figures run at its default settings;
#   - model_validation.csv from bench_model_oracle;
#   - the five bench_telemetry --quick artifacts;
#   - the fabric-experiment artifacts from --quick runs: fabric.csv
#     (bench_fabric), failover.csv and failover_crash.csv (bench_failover),
#     mmu.csv (bench_mmu), robustness_loss.csv and robustness_outage.csv
#     (bench_robustness_loss). These cover the closed-loop, link-fault,
#     switch-crash and channel-fault paths;
#   - results/extensions/<bench>.txt: the --quick stdout of the ten
#     extension benches that write no file (ablations, baselines, gigabit,
#     mixed traffic, multihop, QoS, realistic workload, Table I).
#
# Usage: scripts/check_results.sh [build_dir] [jobs]
set -euo pipefail

SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$SRC_DIR/build}"
JOBS="${2:-$(nproc)}"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

run() {
  "$BUILD_DIR/bench/$1" "${@:2}" > /dev/null
}

run bench_figures --csv-dir "$OUT" --jobs "$JOBS" --quiet
run bench_model_oracle --csv-dir "$OUT" --jobs "$JOBS"
run bench_telemetry --quick --csv-dir "$OUT" --jobs "$JOBS"
for bench in bench_fabric bench_failover bench_mmu bench_robustness_loss; do
  run "$bench" --quick --csv-dir "$OUT" --jobs "$JOBS"
done

extensions=(bench_ablation_buffer_sizing bench_ablation_eviction bench_ablation_protocol
            bench_baseline_proactive bench_gigabit bench_mixed_traffic bench_multihop
            bench_qos_scheduling bench_realistic_workload bench_table1_testbed)
mkdir -p "$OUT/extensions"
for bench in "${extensions[@]}"; do
  "$BUILD_DIR/bench/$bench" --quick --jobs "$JOBS" > "$OUT/extensions/$bench.txt"
done

status=0
for name in fig2a fig2b fig3 fig4 fig5 fig6 fig7 fig8 fig8_avg fig9a fig9b fig10 fig11 fig12a \
            fig12b fig13a fig13b model_validation fabric failover failover_crash mmu \
            robustness_loss robustness_outage; do
  files+=("$name.csv")
done
files+=(bench_telemetry_contention.csv bench_telemetry_heatmap.csv bench_telemetry_fates.csv
        bench_telemetry_paths.csv bench_telemetry_summary.json)
for bench in "${extensions[@]}"; do
  files+=("extensions/$bench.txt")
done
for f in "${files[@]}"; do
  if cmp -s "$SRC_DIR/results/$f" "$OUT/$f"; then
    echo "same     results/$f"
  else
    echo "DIFFERS  results/$f"
    status=1
  fi
done
exit "$status"
