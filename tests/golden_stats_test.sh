#!/usr/bin/env bash
# Golden-output test: pins the simulator's output across commits.
#
# The determinism jobs diff skip-ahead against --no-skip, thread
# counts and resumes within one build, so a change that alters every
# kernel alike passes them. This test hashes the --stats report of a
# fixed set of runs (every scheduler, both gates, the saturated mix
# with and without skip-ahead, a checkpoint image and its resume, the
# small cloud scenario and its checkpoint images) and compares each
# digest with
# tests/golden_stats.digests.
#
# It also checks that no scheduler or gate case prints the FR-FCFS
# ungated report: a comparator that never acts within the run is
# FR-FCFS under another name. This check runs with --update too, so a
# re-record cannot pin such a clone.
#
# Usage: golden_stats_test.sh /path/to/mitts_sim [--update]
#   --update  rewrite the digest file from this binary's output. Only
#             a change that is meant to alter simulated output does
#             this, and it says so in CHANGES.md.
set -u

SIM="${1:?usage: golden_stats_test.sh /path/to/mitts_sim [--update]}"
UPDATE=0
case "${2:-}" in
    "") ;;
    --update) UPDATE=1 ;;
    *) echo "golden_stats_test: unknown flag '$2'" >&2; exit 2 ;;
esac

HERE="$(cd "$(dirname "$0")" && pwd)"
GOLDEN="$HERE/golden_stats.digests"
SCENARIO="$HERE/../scenarios/ci-small.scn"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

MIX=(--apps gcc,mcf,libquantum,sjeng --instr 100000)
SATURATED=(--apps mcf,libquantum,omnetpp,astar --cycles 2000000)
CKPT_AT=65536

fails=0
names=()
digests=()

# sim NAME ARGS...: run mitts_sim with its stdout in $WORK/NAME.out.
sim() {
    local name="$1"; shift
    if ! "$SIM" "$@" >"$WORK/$name.out" 2>"$WORK/$name.err"; then
        echo "FAIL: $name: mitts_sim $* exited non-zero" >&2
        sed 's/^/    /' "$WORK/$name.err" >&2
        fails=$((fails + 1))
    fi
}

# record NAME FILE...: digest of the files' concatenated bytes.
record() {
    local name="$1"; shift
    names+=("$name")
    digests+=("$(cat "$@" | sha256sum | cut -d' ' -f1)")
}

# report NAME ARGS...: run mitts_sim and record its stdout.
report() {
    sim "$@"
    record "$1" "$WORK/$1.out"
}

for sched in frfcfs fairqueue atlas tcm fst memguard mise; do
    report "sched-$sched" "${MIX[@]}" --sched "$sched" --stats
done
report gate-mitts "${MIX[@]}" --gate mitts \
    --bins 8,8,8,8,8,8,8,8,8,8 --stats
report gate-static "${MIX[@]}" --gate static --static-gbps 2 --stats
report saturated-skip "${SATURATED[@]}" --stats
report saturated-noskip "${SATURATED[@]}" --stats --no-skip

# Checkpoint image bytes, then the resumed report minus the line that
# names the restored file.
sim ckpt-save "${MIX[@]}" --checkpoint-out "$WORK/ck" \
    --checkpoint-every "$CKPT_AT"
record ckpt-image "$WORK/ck/ckpt-$CKPT_AT.mitts"
sim ckpt-resume "${MIX[@]}" --stats \
    --restore "$WORK/ck/ckpt-$CKPT_AT.mitts"
grep -v '^restored ' "$WORK/ckpt-resume.out" > "$WORK/ckpt-resume.txt"
record ckpt-resume "$WORK/ckpt-resume.txt"

# Cloud scenario: its report files (stdout names the output paths).
sim scenario --scenario "$SCENARIO" --scenario-out "$WORK/scn" --stats
record scenario "$WORK/scn/summary.txt" "$WORK/scn/stats.txt" \
    "$WORK/scn/billing.csv" "$WORK/scn"/socket*/timeseries.csv

# Datacenter checkpoint image bytes: the engine's image and every
# socket's, from a mid-scenario save.
sim ckpt-datacenter --scenario "$SCENARIO" --scenario-until 100000 \
    --checkpoint-every 50000 --checkpoint-out "$WORK/dc"
record ckpt-datacenter "$WORK/dc/ckpt-50000/cloud.mitts" \
    "$WORK/dc/ckpt-50000"/socket*.mitts

# Distinctness: every scheduler and gate case against FR-FCFS.
frfcfs=""
for i in "${!names[@]}"; do
    [ "${names[$i]}" = sched-frfcfs ] && frfcfs="${digests[$i]}"
done
for i in "${!names[@]}"; do
    case "${names[$i]}" in
        sched-frfcfs) ;;
        sched-*|gate-*)
            if [ "${digests[$i]}" = "$frfcfs" ]; then
                echo "FAIL: ${names[$i]}: prints the sched-frfcfs" \
                     "report" >&2
                fails=$((fails + 1))
            fi ;;
    esac
done

if [ "$UPDATE" -eq 1 ]; then
    if [ "$fails" -ne 0 ]; then
        echo "golden_stats_test: $fails failure(s); digest file" \
             "unchanged" >&2
        exit 1
    fi
    {
        echo "# sha256 of mitts_sim output per case; regenerate with"
        echo "#   tests/golden_stats_test.sh <mitts_sim> --update"
        for i in "${!names[@]}"; do
            echo "${names[$i]} ${digests[$i]}"
        done
    } > "$GOLDEN"
    echo "golden_stats_test: wrote ${#names[@]} digests to $GOLDEN"
    exit 0
fi

[ -f "$GOLDEN" ] || { echo "FAIL: missing $GOLDEN" >&2; exit 1; }
for i in "${!names[@]}"; do
    want=$(awk -v n="${names[$i]}" '$1 == n { print $2 }' "$GOLDEN")
    if [ -z "$want" ]; then
        echo "FAIL: ${names[$i]}: no golden digest" >&2
        fails=$((fails + 1))
    elif [ "$want" != "${digests[$i]}" ]; then
        echo "FAIL: ${names[$i]}: output differs from the golden" \
             "digest" >&2
        fails=$((fails + 1))
    fi
done
want_cases=$(grep -cv '^#' "$GOLDEN")
if [ "$want_cases" -ne "${#names[@]}" ]; then
    echo "FAIL: golden file has $want_cases cases, the test ran" \
         "${#names[@]}" >&2
    fails=$((fails + 1))
fi

if [ "$fails" -ne 0 ]; then
    echo "golden_stats_test: $fails failure(s)" >&2
    exit 1
fi
echo "golden_stats_test: all ${#names[@]} digests match"
