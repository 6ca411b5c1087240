#!/usr/bin/env bash
# CLI contract for the sweep orchestrator:
#
#   merged results.txt/summary.json byte-identical for workers 0/1/4
#   repeated run against a warm cache: dispatched=0, all units cached
#   kill-and-resume (MITTS_SWEEP_TEST_DIE_AFTER_UNITS): byte-identical
#   worker crash (MITTS_SWEEP_TEST_CRASH_UNIT): retried, respawned,
#     still byte-identical
#   usage errors -> exit 2, one stderr line; spec errors -> exit 1
#
# Usage: cli_sweep_test.sh /path/to/mitts_sweep
set -u

SWEEP="${1:?usage: cli_sweep_test.sh /path/to/mitts_sweep}"
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

reject() {
    expect_exit 2 "$@"
    local lines
    lines=$(wc -l < "$WORK/err")
    if [ "$lines" -ne 1 ]; then
        fail "expected a one-line reason on stderr, got $lines: $*"
        sed 's/^/    /' "$WORK/err" >&2
    fi
}

cat > "$WORK/grid.sweep" <<'EOF'
name  = cli-grid
mode  = grid
apps  = mcf,libquantum
instr = 3000
sweep sched = frfcfs,tcm
sweep seed  = 1,2
EOF

# --- usage / spec errors -------------------------------------------------
reject "$SWEEP"
reject "$SWEEP" --spec "$WORK/grid.sweep"
reject "$SWEEP" --spec "$WORK/grid.sweep" --out "$WORK/o" --workers 999
reject "$SWEEP" --spec "$WORK/grid.sweep" --out "$WORK/o" --workers -1
reject "$SWEEP" --spec "$WORK/grid.sweep" --out "$WORK/o" --timeout x
reject "$SWEEP" --spec "$WORK/grid.sweep" --out "$WORK/o" --timeout nan
reject "$SWEEP" --spec "$WORK/grid.sweep" --out "$WORK/o" --timeout -1
reject "$SWEEP" --spec "$WORK/grid.sweep" --out "$WORK/o" --retries 1.5
reject "$SWEEP" --bogus-flag

expect_exit 1 "$SWEEP" --spec "$WORK/absent.sweep" --out "$WORK/o"
printf 'mode = grid\napps = no-such-app\n' > "$WORK/bad.sweep"
expect_exit 1 "$SWEEP" --spec "$WORK/bad.sweep" --out "$WORK/o"

# --- determinism across worker counts ------------------------------------
for w in 0 1 4; do
    expect_exit 0 "$SWEEP" --spec "$WORK/grid.sweep" \
        --out "$WORK/w$w" --cache "$WORK/c$w" --workers "$w"
done
for w in 1 4; do
    cmp -s "$WORK/w0/results.txt" "$WORK/w$w/results.txt" \
        || fail "results.txt differs: workers=0 vs workers=$w"
    cmp -s "$WORK/w0/summary.json" "$WORK/w$w/summary.json" \
        || fail "summary.json differs: workers=0 vs workers=$w"
done

# --- warm cache: 100% hits, nothing dispatched ---------------------------
expect_exit 0 "$SWEEP" --spec "$WORK/grid.sweep" \
    --out "$WORK/warm" --cache "$WORK/c0" --workers 0
grep -q "dispatched=0 cached=4" "$WORK/out" \
    || fail "warm rerun did not report 100% cache hits: $(cat "$WORK/out")"
cmp -s "$WORK/w0/results.txt" "$WORK/warm/results.txt" \
    || fail "warm rerun results differ from cold run"

# --- kill-and-resume -----------------------------------------------------
MITTS_SWEEP_TEST_DIE_AFTER_UNITS=2 "$SWEEP" --spec "$WORK/grid.sweep" \
    --out "$WORK/kr" --cache "$WORK/ckr" --workers 0 \
    >"$WORK/out" 2>"$WORK/err"
[ $? -eq 3 ] || fail "die-after-units hook did not exit 3"
[ -f "$WORK/kr/results.txt" ] && fail "killed run left a results.txt"

expect_exit 0 "$SWEEP" --spec "$WORK/grid.sweep" \
    --out "$WORK/kr" --cache "$WORK/ckr" --workers 0
grep -q "dispatched=2 cached=2" "$WORK/out" \
    || fail "resume did not reuse the 2 stored units: $(cat "$WORK/out")"
cmp -s "$WORK/w0/results.txt" "$WORK/kr/results.txt" \
    || fail "resumed run differs from uninterrupted run"

# --- tune mode: concurrent cold workers race on the warm checkpoint -----
cat > "$WORK/tune.sweep" <<'EOF'
name = cli-tune
mode = tune
apps = mcf,libquantum
instr = 3000
objective = throughput
generations = 2
population = 6
warmup = 1500
EOF
expect_exit 0 "$SWEEP" --spec "$WORK/tune.sweep" \
    --out "$WORK/t0" --cache "$WORK/tc0" --workers 0
for i in 1 2 3; do
    expect_exit 0 "$SWEEP" --spec "$WORK/tune.sweep" \
        --out "$WORK/t$i" --cache "$WORK/tcr$i" --workers 4
    cmp -s "$WORK/t0/results.txt" "$WORK/t$i/results.txt" \
        || fail "tune results differ: workers=0 vs cold race iter $i"
done

# --- worker crash: retried on a respawned worker -------------------------
MITTS_SWEEP_TEST_CRASH_UNIT=1 \
MITTS_SWEEP_TEST_CRASH_MARKER="$WORK/crashed" \
    "$SWEEP" --spec "$WORK/grid.sweep" \
    --out "$WORK/cr" --cache "$WORK/ccr" --workers 2 \
    >"$WORK/out" 2>"$WORK/err" \
    || fail "sweep with one crashing worker failed"
[ -f "$WORK/crashed" ] || fail "crash hook never fired"
grep -q "retried=1" "$WORK/out" \
    || fail "crash was not counted as a retry: $(cat "$WORK/out")"
cmp -s "$WORK/w0/results.txt" "$WORK/cr/results.txt" \
    || fail "post-crash results differ from clean run"

if [ "$fails" -ne 0 ]; then
    echo "cli_sweep_test: $fails failure(s)" >&2
    exit 1
fi
echo "cli_sweep_test: all checks passed"
