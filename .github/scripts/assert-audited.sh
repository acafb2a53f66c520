#!/bin/sh
# Usage: assert-audited.sh METRICS_FILE
#
# Reads the `--metrics json` capture of an `aspp` run built with
# `--features debug-audit` and asserts the run audited every equilibrium
# it computed. Each compute is exactly one clean-cache hit or miss, and the
# engine audits each outcome it returns exactly once, so `audit_checks` must
# be nonzero and equal their sum — a caller that computed un-audited (or
# audited twice) breaks the equality.
set -eu
n() { grep -oE "\"$1\":[0-9]+" "$2" | tail -n 1 | cut -d: -f2; }
checks=$(n audit_checks "$1")
computes=$(( $(n clean_cache_hits "$1") + $(n clean_cache_misses "$1") ))
violations=$(n audit_violations "$1")
echo "$1: audit_checks=$checks computes=$computes audit_violations=$violations"
test "$checks" -gt 0
test "$checks" -eq "$computes"
test "$violations" -eq 0
