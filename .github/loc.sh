#!/usr/bin/env bash
# Prints the non-test Go line count CHANGES.md quotes: every .go file in the
# repository root, internal/ and cmd/ except *_test.go, counting neither
# blank lines nor lines holding only a // comment. Informational only.
#
# Usage: .github/loc.sh [REPO_DIR]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
{
  find . -maxdepth 1 -name '*.go' ! -name '*_test.go'
  find internal cmd -name '*.go' ! -name '*_test.go'
} | xargs grep -hvE '^[[:space:]]*(//.*)?$' | wc -l
