#!/usr/bin/env bash
# Build with AddressSanitizer + UndefinedBehaviorSanitizer and run the
# checkpoint/restore suites and the config parsers under them:
# serialization walks raw bytes and rebuilds object graphs, and the
# scenario/sweep/flag parsers face outside input.
# Usage: scripts/asan.sh [extra test binaries...]
set -euo pipefail
cd "$(dirname "$0")/.."

EXTRAS=()
for arg in "$@"; do
    case "$arg" in
        -h|--help)
            sed -n '2,6p' "$0" | sed 's/^# \{0,1\}//'
            exit 0 ;;
        -*)
            echo "asan.sh: unknown flag '$arg' (try --help)" >&2
            exit 2 ;;
        *) EXTRAS+=("$arg") ;;
    esac
done

BUILD=build-asan
SAN="-fsanitize=address,undefined -fno-sanitize-recover=all"
cmake -B "$BUILD" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="$SAN -g" \
    -DCMAKE_EXE_LINKER_FLAGS="$SAN"
cmake --build "$BUILD" -j \
    --target test_ckpt test_sim test_base test_orchestrate test_cloud \
    mitts_sim_tool mitts_sweep_tool

export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"

"$BUILD"/tests/test_ckpt
"$BUILD"/tests/test_sim
"$BUILD"/tests/test_base
"$BUILD"/tests/test_orchestrate
"$BUILD"/tests/test_cloud
bash tests/cli_ckpt_test.sh "$BUILD"/tools/mitts_sim
bash tests/cli_flags_test.sh "$BUILD"/tools/mitts_sim

for extra in ${EXTRAS[@]+"${EXTRAS[@]}"}; do
    cmake --build "$BUILD" -j --target "$extra"
    "$BUILD"/tests/"$extra"
done

echo "asan: checkpoint/restore and parser suites clean"
