#!/usr/bin/env bash
# Configure, build and run the full test suite under AddressSanitizer
# in a separate build tree (build-<san>/). Usage: scripts/asan_check.sh
# [undefined|thread] — pass 'undefined' for UBSan or 'thread' for
# TSan (the sharded runtime is the multi-threaded path TSan covers).
set -euo pipefail
cd "$(dirname "$0")/.."

SAN="${1:-address}"
BUILD_DIR="build-${SAN}"

# The default RelWithDebInfo flags carry -DNDEBUG; drop it so the
# runtime's causality asserts (SwarmRuntime::drain/release_staged) run
# under the sanitizer too.
cmake -B "$BUILD_DIR" -S . -DHIVEMIND_SANITIZE="$SAN" \
    -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure
# Reduced-seed chaos fuzz soak: a few random fault plans at shard
# counts {1, 2, 4} with the oracles on — enough for the sanitizer to
# sweep the fuzz/oracle/shrinker code paths without the 200-plan CI
# budget.
"$BUILD_DIR"/bench/fuzz_soak --seed 11 --runs 10
