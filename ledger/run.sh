#!/usr/bin/env bash
# The PACT benchmark's one command. Builds the ledger from source (release,
# with the repository's target-cpu=native from .cargo/config.toml), then:
#
#   ledger/run.sh                        every workload, untraced -> ledger/out/<git-rev>.json
#   ledger/run.sh --trace                every workload, traced -> ledger/out/<git-rev>.trace.json,
#                                        spans in ledger/out/trace/, tracing overhead vs untraced
#   ledger/run.sh --smoke [--trace]      the same code paths on tiny inputs, every gate on
#   ledger/run.sh --seed N --seconds S   other seeds or run lengths for the above
#   ledger/run.sh --workload W --seed N --seconds S --trace 0|1
#                                        one workload; the last line is the JSON result
#   ledger/run.sh compare A.json B.json  BENCHMARK.json bounds applied to two result files
#   ledger/run.sh reference              re-record the correctness references
#
# Each workload runs in a process of its own. Exits non-zero when a
# correctness check fails, or when `compare` finds a metric worse.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --manifest-path ledger/Cargo.toml 1>&2
ledger="$CARGO_TARGET_DIR/release/ledger"

LEDGER_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
LEDGER_GIT_DIRTY=unknown
if [ "$LEDGER_GIT_REV" != unknown ]; then
    LEDGER_GIT_DIRTY="$(git status --porcelain 2>/dev/null | grep -q . && echo 1 || echo 0)"
fi
LEDGER_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export LEDGER_GIT_REV LEDGER_GIT_DIRTY LEDGER_RUSTC

case "${1:-}" in
    compare | reference) exec "$ledger" "$@" ;;
esac
for a in "$@"; do
    if [ "$a" = --workload ]; then
        exec "$ledger" run "$@"
    fi
done

trace=0
args=()
for a in "$@"; do
    if [ "$a" = --trace ]; then trace=1; else args+=("$a"); fi
done
if [ "$trace" = 0 ]; then
    exec "$ledger" run --workload all ${args[@]+"${args[@]}"}
fi
status=0
"$ledger" run --workload all --trace 1 ${args[@]+"${args[@]}"} || status=$?
smoke=""
for a in "$@"; do
    if [ "$a" = --smoke ]; then smoke=.smoke; fi
done
untraced="ledger/out/$LEDGER_GIT_REV$smoke.json"
if [ -f "$untraced" ]; then
    echo "tracing overhead (A = untraced, B = traced):"
    "$ledger" compare "$untraced" "ledger/out/$LEDGER_GIT_REV$smoke.trace.json" || true
fi
exit "$status"
