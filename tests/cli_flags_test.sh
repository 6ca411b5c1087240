#!/usr/bin/env bash
# CLI contract for flag validation (see usage() exit-code docs):
#
#   malformed / out-of-range numeric values   -> 2, one-line reason
#   unknown scheduler/gate, missing value     -> 2, one-line reason
#   conflicting or nonsensical combinations   -> 2, one-line reason
#   --backend analytic                        -> deterministic report,
#                                                cycle-only flags rejected
#
# Usage: cli_flags_test.sh /path/to/mitts_sim
set -u

SIM="${1:?usage: cli_flags_test.sh /path/to/mitts_sim}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fails=0
fail() {
    echo "FAIL: $*" >&2
    fails=$((fails + 1))
}

expect_exit() {
    local want="$1"; shift
    "$@" >"$WORK/out" 2>"$WORK/err"
    local got=$?
    if [ "$got" -ne "$want" ]; then
        fail "expected exit $want, got $got: $*"
        sed 's/^/    /' "$WORK/err" >&2
    fi
}

# Rejected flags must explain themselves in exactly one stderr line.
reject() {
    expect_exit 2 "$@"
    local lines
    lines=$(wc -l < "$WORK/err")
    if [ "$lines" -ne 1 ]; then
        fail "expected a one-line reason on stderr, got $lines: $*"
        sed 's/^/    /' "$WORK/err" >&2
    fi
}

# Malformed or out-of-range numerics.
reject "$SIM" --apps gcc --instr 0
reject "$SIM" --apps gcc --instr -5
reject "$SIM" --apps gcc --instr 12k
reject "$SIM" --apps gcc --instr 99999999999999999999999
reject "$SIM" --apps gcc --cycles 0
reject "$SIM" --apps gcc --cycles abc
reject "$SIM" --apps gcc --seed 1.5
reject "$SIM" --apps gcc --sample-interval 0
reject "$SIM" --apps gcc --sample-interval -100
reject "$SIM" --apps gcc --checkpoint-out "$WORK/ck" \
    --checkpoint-every 0
reject "$SIM" --apps gcc --checkpoint-out "$WORK/ck" \
    --checkpoint-every -1
reject "$SIM" --apps gcc --static-gbps 0
reject "$SIM" --apps gcc --static-gbps -2
reject "$SIM" --apps gcc --static-gbps fast
reject "$SIM" --apps gcc --bins 1,2,three,4,5,6,7,8,9,10
reject "$SIM" --apps gcc --noc 0x5
reject "$SIM" --apps gcc --noc 5xq
reject "$SIM" --apps gcc --noc 5
reject "$SIM" --apps gcc --llc -5
reject "$SIM" --apps gcc --llc 0
reject "$SIM" --apps gcc --llc 3000
reject "$SIM" --apps gcc --bins 4294967296,0,0,0,0,0,0,0,0,0
reject "$SIM" --apps gcc --bins 1,2,3

# Unknown names and missing values (names come from the registry).
reject "$SIM" --apps gcc --gate foo
reject "$SIM" --apps gcc --sched warp-drive
reject "$SIM" --apps
reject "$SIM" --apps gcc,,mcf

# Conflicting combinations.
reject "$SIM" --apps gcc --checkpoint-every 100
printf 'name = x\n' > "$WORK/dummy.scenario"
reject "$SIM" --scenario "$WORK/dummy.scenario" --tune fairness
reject "$SIM" --scenario "$WORK/dummy.scenario" --apps gcc
reject "$SIM" --apps gcc,mcf --tune fairness \
    --checkpoint-out "$WORK/ck"
reject "$SIM" --apps gcc,mcf --tune fairness \
    --restore "$WORK/absent.mitts"
reject "$SIM" --apps gcc,mcf --tune sideways
reject "$SIM" --apps gcc,mcf --prefilter
reject "$SIM" --apps gcc --backend warp
reject "$SIM" --apps gcc --backend analytic --cycles 1000
reject "$SIM" --apps gcc --backend analytic --stats
reject "$SIM" --apps gcc --backend analytic --no-skip
reject "$SIM" --apps gcc --backend analytic --sample-interval 500
reject "$SIM" --apps gcc --backend analytic \
    --telemetry-out "$WORK/t"
reject "$SIM" --apps gcc --backend analytic --trace-events
reject "$SIM" --apps gcc --backend analytic \
    --checkpoint-out "$WORK/ck"
reject "$SIM" --apps gcc --backend analytic \
    --checkpoint-out "$WORK/ck" --checkpoint-every 100
reject "$SIM" --apps gcc --backend analytic \
    --restore "$WORK/absent.mitts"
reject "$SIM" --apps gcc --backend analytic --tune fairness

# The analytic backend itself: exit 0, reports every app plus the
# shared-run metrics line, byte-identical across repeated runs and
# thread-count settings (it is closed-form arithmetic).
expect_exit 0 "$SIM" --apps gcc,mcf,libquantum,sjeng \
    --backend analytic --gate mitts --bins 8,8,8,8,8,8,8,8,8,8
grep -q "^gcc " "$WORK/out" || fail "analytic report lacks gcc row"
grep -q "S_avg=" "$WORK/out" || fail "analytic report lacks metrics"
cp "$WORK/out" "$WORK/ref"

expect_exit 0 "$SIM" --apps gcc,mcf,libquantum,sjeng \
    --backend analytic --gate mitts --bins 8,8,8,8,8,8,8,8,8,8
cmp -s "$WORK/ref" "$WORK/out" \
    || fail "analytic backend not deterministic across runs"

MITTS_THREADS=3 "$SIM" --apps gcc,mcf,libquantum,sjeng \
    --backend analytic --gate mitts --bins 8,8,8,8,8,8,8,8,8,8 \
    >"$WORK/out" 2>"$WORK/err" \
    || fail "analytic backend failed under MITTS_THREADS=3"
cmp -s "$WORK/ref" "$WORK/out" \
    || fail "analytic backend depends on MITTS_THREADS"

if [ "$fails" -ne 0 ]; then
    echo "cli_flags_test: $fails failure(s)" >&2
    exit 1
fi
echo "cli_flags_test: all checks passed"
