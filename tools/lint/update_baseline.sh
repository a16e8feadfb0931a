#!/usr/bin/env sh
# Regenerates tools/lint/baseline.txt from the current tree.
#
# The baseline records intentional debt as `file:line:rule` fingerprints;
# the dufs_lint_tree ctest (and the `lint` build target) fail on any
# finding not listed here. Prefer fixing or `// dufs-lint: allow(...)`
# annotations — only baseline findings you mean to keep.
#
# Usage: tools/lint/update_baseline.sh [BUILD_DIR]   (default: ./build)
set -eu

ROOT="$(cd "$(dirname "$0")/../.." && pwd)"
BUILD="${1:-$ROOT/build}"

cmake --build "$BUILD" --target dufs_lint
"$BUILD/tools/lint/dufs_lint" --root="$ROOT" \
  --write-baseline="$ROOT/tools/lint/baseline.txt"
echo "updated $ROOT/tools/lint/baseline.txt"
