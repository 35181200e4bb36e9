#!/usr/bin/env bash
# Final verification pass: full test suite + throughput headline, logs
# kept in the checkout this script lives in (run it from anywhere).
# Exits nonzero if any stage fails; partial logs are still written.
set -euo pipefail
cd "$(dirname "$0")"

cleanup() {
    find "${PTB_FARM_DIR:-target/farm}" -name '.*.tmp' -delete 2>/dev/null || true
}
trap cleanup EXIT

rc=0
cargo test --workspace 2>&1 | tee test_output.txt || rc=1
# Throughput headline: simulated cycles per host second (quick matrix).
cargo run --release -q --bin sim_throughput -- \
    --quick --out BENCH_simthroughput.json 2>/dev/null \
    | grep -E '^SIM_THROUGHPUT:' || rc=1
if [ "$rc" -ne 0 ]; then
    echo "FINAL_VERIFY_FAILED (see test_output.txt)" >&2
    exit "$rc"
fi
echo FINAL_VERIFY_DONE
