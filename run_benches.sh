#!/bin/bash
# Regenerates every experiment: one bench binary per paper table/figure.
# Ordered paper-critical-first. Every binary runs from build/, so all
# artifacts (bench_output.txt, BENCH_*.json, CSVs) land in build/ and
# never dirty the repo root.
#
#   --check-baseline   After the run, diff every fresh build/BENCH_*.json
#                      against its committed twin under bench/baselines/
#                      with laco-bench-check (warn-only drift report;
#                      see docs/OBSERVABILITY.md).
cd "$(dirname "$0")"
CHECK_BASELINE=0
for arg in "$@"; do
  case "$arg" in
    --check-baseline) CHECK_BASELINE=1 ;;
    *) echo "run_benches.sh: unknown option '$arg'" >&2; exit 2 ;;
  esac
done
ORDER="bench_table1_comparison bench_fig6_scheme_ablation bench_fig7_flow_ablation \
bench_fig1_distribution_shift bench_fig3_cellflow bench_fig8_runtime \
bench_quasivox_ablation bench_lookahead_horizon bench_history_frames \
bench_eta_sweep bench_inflation_baseline bench_serve_throughput \
bench_kernels bench_nn_ops"
cd build || { echo "run_benches.sh: no build/ directory (configure first)" >&2; exit 2; }
{
  for name in $ORDER; do
    echo
    echo "########## $name ##########"
    echo
    "bench/$name"
  done
} > bench_output.txt 2>&1
echo "machine-readable reports (laco-bench schema, docs/OBSERVABILITY.md):"
ls -1 BENCH_*.json 2>/dev/null || echo "  (none written)"
if [ "$CHECK_BASELINE" = 1 ]; then
  echo
  echo "baseline drift (bench/baselines/, warn-only):"
  for report in BENCH_*.json; do
    [ -e "$report" ] || continue
    baseline="../bench/baselines/$report"
    if [ -e "$baseline" ]; then
      tools/laco-bench-check "$report" "$baseline"
    else
      echo "  $report: no baseline committed (add one under bench/baselines/)"
    fi
  done
fi
echo DONE > /tmp/bench_sweep_done
