#!/usr/bin/env bash
# CLI contract for the checkpoint flags and version/exit-code surface:
#
#   mitts_sim --version                  -> 0, prints tool + format version
#   bad flags / invalid --restore        -> 2, one-line stderr reason
#   save at a boundary, restore, run on  -> byte-identical report
#
# Usage: cli_ckpt_test.sh /path/to/mitts_sim
set -u

SIM="${1:?usage: cli_ckpt_test.sh /path/to/mitts_sim}"
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

one_line_stderr() {
    local lines
    lines=$(wc -l < "$WORK/err")
    if [ "$lines" -ne 1 ]; then
        fail "expected a one-line reason on stderr, got $lines lines"
        sed 's/^/    /' "$WORK/err" >&2
    fi
}

# --version: exit 0 and both version numbers present.
expect_exit 0 "$SIM" --version
grep -q "mitts_sim" "$WORK/out" || fail "--version lacks tool name"
grep -q "checkpoint format v" "$WORK/out" \
    || fail "--version lacks checkpoint format version"

# Usage errors exit 2.
expect_exit 2 "$SIM" --no-such-flag
expect_exit 2 "$SIM"                       # --apps missing
expect_exit 2 "$SIM" --apps gcc --checkpoint-every 100   # no out dir

# Invalid --restore inputs: each exits 2 with a one-line reason.
expect_exit 2 "$SIM" --apps gcc --restore "$WORK/absent.mitts"
one_line_stderr

# A directory is not a checkpoint (reading one used to abort).
mkdir -p "$WORK/adir"
expect_exit 2 "$SIM" --apps mcf,gcc --cycles 1000 --restore "$WORK/adir"
one_line_stderr
grep -q "not a regular file" "$WORK/err" \
    || fail "directory reason not surfaced"

printf 'NOTMITTS_and_then_some_padding_to_look_like_a_file' \
    > "$WORK/badmagic.mitts"
expect_exit 2 "$SIM" --apps gcc --restore "$WORK/badmagic.mitts"
one_line_stderr
grep -qi "magic" "$WORK/err" || fail "bad-magic reason not surfaced"

# A real checkpoint, then the mismatch/corruption cases against it.
expect_exit 0 "$SIM" --apps gcc --instr 20000 \
    --checkpoint-out "$WORK/ck" --checkpoint-every 8192
CKPT="$WORK/ck/ckpt-8192.mitts"
[ -f "$CKPT" ] || fail "periodic checkpoint $CKPT not written"
[ -f "$WORK/ck/ckpt-final.mitts" ] || fail "final checkpoint missing"

# Wrong version byte (offset 8, right after the 8-byte magic).
cp "$CKPT" "$WORK/badver.mitts"
printf '\x63' | dd of="$WORK/badver.mitts" bs=1 seek=8 \
    conv=notrunc 2>/dev/null
expect_exit 2 "$SIM" --apps gcc --restore "$WORK/badver.mitts"
one_line_stderr
grep -qi "version" "$WORK/err" || fail "version reason not surfaced"

# Config-hash mismatch (different seed).
expect_exit 2 "$SIM" --apps gcc --seed 777 --restore "$CKPT"
one_line_stderr
grep -qi "hash" "$WORK/err" || fail "hash-mismatch reason not surfaced"

# Truncation.
head -c 100 "$CKPT" > "$WORK/trunc.mitts"
expect_exit 2 "$SIM" --apps gcc --restore "$WORK/trunc.mitts"
one_line_stderr

# Resume parity: restored run must reproduce the uninterrupted report.
expect_exit 0 "$SIM" --apps gcc --instr 20000 --stats
mv "$WORK/out" "$WORK/ref"
expect_exit 0 "$SIM" --apps gcc --instr 20000 --stats --restore "$CKPT"
grep -v '^restored ' "$WORK/out" > "$WORK/resumed"
if ! cmp -s "$WORK/ref" "$WORK/resumed"; then
    fail "resumed report differs from uninterrupted report"
    diff "$WORK/ref" "$WORK/resumed" | head -20 >&2
fi

if [ "$fails" -ne 0 ]; then
    echo "cli_ckpt_test: $fails failure(s)" >&2
    exit 1
fi
echo "cli_ckpt_test: all checks passed"
