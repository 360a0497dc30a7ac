#!/usr/bin/env bash
# Regenerates the committed deterministic artifacts under results/ into a
# temporary directory and compares each byte for byte with the committed
# copy. Exits non-zero on the first missing file or any difference, so a
# refactor cannot drift a published figure silently.
#
# Checked (all 29 files):
#   - the 15 paper-figure CSVs written by the bench_fig* binaries
#     (fig3-fig8, fig8_avg, fig9a/b-fig13a/b) at their default settings;
#   - fig2a/fig2b from bench_fig2_control_path_load --rates-coarse --quick;
#   - model_validation.csv from bench_model_oracle;
#   - the five bench_telemetry --quick artifacts;
#   - the fabric-experiment artifacts from --quick runs: fabric.csv
#     (bench_fabric), failover.csv and failover_crash.csv (bench_failover),
#     mmu.csv (bench_mmu), robustness_loss.csv and robustness_outage.csv
#     (bench_robustness_loss). These cover the closed-loop, link-fault,
#     switch-crash and channel-fault paths.
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

for fig in fig3_controller_usage fig4_switch_usage fig5_flow_setup_delay \
           fig6_controller_delay fig7_switch_delay fig8_buffer_utilization \
           fig9_control_path_load fig10_controller_usage fig11_switch_usage \
           fig12_flow_delays fig13_buffer_utilization; do
  run "bench_$fig" --csv-dir "$OUT" --jobs "$JOBS" --quiet
done
run bench_fig2_control_path_load --rates-coarse --quick --csv-dir "$OUT" --jobs "$JOBS" --quiet
run bench_model_oracle --csv-dir "$OUT" --jobs "$JOBS"
run bench_telemetry --quick --csv-dir "$OUT" --jobs "$JOBS"
for bench in bench_fabric bench_failover bench_mmu bench_robustness_loss; do
  run "$bench" --quick --csv-dir "$OUT" --jobs "$JOBS"
done

status=0
for name in fig2a fig2b fig3 fig4 fig5 fig6 fig7 fig8 fig8_avg fig9a fig9b fig10 fig11 fig12a \
            fig12b fig13a fig13b model_validation fabric failover failover_crash mmu \
            robustness_loss robustness_outage; do
  files+=("$name.csv")
done
files+=(bench_telemetry_contention.csv bench_telemetry_heatmap.csv bench_telemetry_fates.csv
        bench_telemetry_paths.csv bench_telemetry_summary.json)
for f in "${files[@]}"; do
  if cmp -s "$SRC_DIR/results/$f" "$OUT/$f"; then
    echo "same     results/$f"
  else
    echo "DIFFERS  results/$f"
    status=1
  fi
done
exit "$status"
