#!/usr/bin/env bash
# Regenerates every paper artefact. PTB_SCALE=small is the recorded scale.
#
# Runs are incremental: every simulated point is cached in the ptb-farm
# result store (default target/farm; override with PTB_FARM_DIR, disable
# with PTB_NO_CACHE=1), so a rerun only simulates points whose config
# changed, and a killed run resumes where it left off (`farm_ctl resume`).
#
# Failure semantics: by default every binary runs fail-fast and this
# script stops at the first broken figure (set -e), exiting nonzero.
# With KEEP_GOING=1 each binary quarantines failed points to the farm's
# failed.jsonl, emits partial artefacts (dropped points are named in a
# `# dropped:` footer), and the script runs every figure before exiting
# nonzero if anything was quarantined.
set -euo pipefail
cd "$(dirname "$0")"

export PTB_SCALE="${PTB_SCALE:-small}" PTB_OUT="${PTB_OUT:-target/figures}" PTB_JOBS="${PTB_JOBS:-1}"
FARM_DIR="${PTB_FARM_DIR:-target/farm}"
B=./target/release

FLAGS=()
if [ "${KEEP_GOING:-0}" != "0" ]; then
    FLAGS+=(--keep-going)
fi

cleanup() {
    # Unpublished store temporaries (crash or injected-fault debris).
    # Published entries and the journal are left untouched: they are
    # exactly what `farm_ctl resume` needs.
    find "$FARM_DIR" -name '.*.tmp' -delete 2>/dev/null || true
}
on_err() {
    echo "run_experiments: FAILED (see above). The farm journal is intact:" >&2
    echo "  $B/farm_ctl resume    # re-run exactly the unfinished/failed jobs" >&2
    if [ -f "$FARM_DIR/failed.jsonl" ]; then
        echo "  $B/sim_check --replay $FARM_DIR/failed.jsonl   # oracle-check the failures" >&2
    fi
}
trap cleanup EXIT
trap on_err ERR

rc=0
run() {
    # Under KEEP_GOING, record failures but keep producing artefacts.
    if [ "${KEEP_GOING:-0}" != "0" ]; then
        "$@" "${FLAGS[@]}" || rc=1
    else
        "$@"
    fi
}

run "$B/show_config"
run "$B/tdp_packing"
run "$B/fig07_token_flow"
run "$B/fig06_spin_trace"
run "$B/fig05_power_trace"
run "$B/fig02_naive_budget"
run "$B/fig03_breakdown"
run "$B/fig04_spin_power"
run "$B/fig10_detail_toall"
run "$B/fig11_detail_toone"
run "$B/fig12_dynamic"
run "$B/fig13_performance"
run "$B/fig09_scaling"
run "$B/fig14_relaxed"
run "$B/ext_future_work"

if [ -f "$FARM_DIR/failed.jsonl" ]; then
    echo "run_experiments: $(wc -l < "$FARM_DIR/failed.jsonl") quarantined job(s) in $FARM_DIR/failed.jsonl" >&2
    rc=1
fi
if [ "$rc" -ne 0 ]; then
    exit "$rc"
fi
echo ALL_FIGURES_DONE
