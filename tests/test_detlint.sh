#!/usr/bin/env bash
# Golden-file tests for tools/detlint: each fixture under
# tests/detlint_fixtures/ is a miniature repo root (its own src/);
# detlint must produce exactly the recorded diagnostics for the bad
# snippets, nothing for the allowed ones, and the expected exit code.
# The R5 fixture's diagnostic embeds compiler-specific text, so it is
# prefix-matched instead of byte-compared.
set -euo pipefail
cd "$(dirname "$0")/.."

DETLINT="python3 tools/detlint/detlint.py --no-cache"
FIXTURES=tests/detlint_fixtures
fail=0

check_case() {
    local case_dir="$1" want_exit="$2"
    local out got
    out=$($DETLINT --root "$case_dir" 2>/dev/null) && got=0 || got=$?
    if [ "$got" -ne "$want_exit" ]; then
        echo "FAIL $case_dir: exit $got, want $want_exit"
        fail=1
    fi
    {
        if [ -n "$out" ]; then printf '%s\n' "$out"; fi
    } > /tmp/detlint_got.$$
    if ! diff -u "$case_dir/expected.txt" /tmp/detlint_got.$$; then
        echo "FAIL $case_dir: diagnostics differ"
        fail=1
    fi
    rm -f /tmp/detlint_got.$$
}

for d in r1_bad r2_bad r3_bad r4_bad r6_bad r7_bad r8_bad \
         r9_bad stale_allow; do
    check_case "$FIXTURES/$d" 1
done
for d in r1_allowed r2_allowed r3_allowed r4_allowed r5_allowed \
         r6_allowed r7_allowed r8_allowed r9_allowed; do
    check_case "$FIXTURES/$d" 0
done

# R5 bad: exact prefix (rule, file, line), compiler text varies.
out=$($DETLINT --root "$FIXTURES/r5_bad" 2>/dev/null) && got=0 || got=$?
if [ "$got" -ne 1 ]; then
    echo "FAIL r5_bad: exit $got, want 1"
    fail=1
fi
case "$out" in
    "src/bad.hh:1: detlint(R5): MITTS_ASSERT-bearing header does not compile standalone:"*) ;;
    *)  echo "FAIL r5_bad: unexpected diagnostic: $out"
        fail=1 ;;
esac

# The real tree must be clean (suppressions included, none stale).
if ! $DETLINT; then
    echo "FAIL: detlint reports findings on the repository tree"
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "test_detlint: FAILED"
    exit 1
fi
echo "test_detlint: all fixture diagnostics exact, tree clean"
