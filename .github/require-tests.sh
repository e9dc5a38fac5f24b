#!/usr/bin/env bash
# Fails unless every |-separated alternative of a `go test -run` (or -fuzz)
# pattern names at least one test, fuzz target or benchmark in the package.
# `go test -run X` passes silently when X matches nothing, so a step that
# selects tests by name would stay green after those tests were renamed or
# deleted. Alternatives are split on every `|`: keep patterns free of
# grouping parentheses.
#
# Usage: .github/require-tests.sh PACKAGE PATTERN
set -euo pipefail
pkg=$1
IFS='|' read -ra alts <<< "$2"
for alt in "${alts[@]}"; do
  listed=$(go test -list "$alt" "$pkg")
  if ! grep -qE '^(Test|Fuzz|Benchmark|Example)' <<< "$listed"; then
    echo "no test in $pkg matches '$alt'" >&2
    exit 1
  fi
done
