#!/bin/sh
# Usage: loc.sh [REPO_ROOT]
#
# Prints the non-test line count: every .rs file under crates/, src/ and
# examples/ (integration tests in crates/*/tests/ excluded), each counted up
# to its first `#[cfg(test)]` line. A report, not a gate.
set -eu
cd "${1:-.}"
find crates src examples -name '*.rs' ! -path 'crates/*/tests/*' |
  xargs awk '
    FNR == 1 { counting = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
    counting { n++ }
    END { print n + 0 }
  ' |
  awk '{ n += $1 } END { print n + 0 }'
