#!/bin/bash
# Usage: check-results.sh ASPP_BINARY [RESULTS_DIR]
#
# Re-derives every checked-in `results/*.txt` with the command documented in
# EXPERIMENTS.md and diffs it against the checked-in copy, wall-clock
# timings (`12.34 ms`) masked. Each row of the table names the file, how the
# command delivers it (`stdout`, `out` for `--out FILE`, `feed` for the
# record/alarm/determinism lines of a `feed --baseline` run, whose other
# lines are throughput and latency) and the command's arguments. Exits
# nonzero on the first file that differs or has no row, or when the
# `*.manifest.json` files were stamped at more than one commit.
set -euo pipefail
aspp=$1
dir=${2:-results}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mask() { sed -E 's/[0-9]+\.[0-9]+ ms/X ms/g' "$1"; }
feed_lines() { grep -E '^(feed|alarms|determinism):' "$1"; }

table=(
  "case_study        stdout case-study --seed 2024"
  "usage_paper       stdout usage --paper --seed 2024"
  "impact_paper      stdout impact --paper --seed 2024"
  "detection_paper   stdout detection --paper --seed 2024"
  "mitigation_paper  stdout mitigate --paper --seed 2024"
  "selection_smoke   stdout selection --scale smoke --seed 2024"
  "sweep_paper       stdout sweep --paper --seed 2024"
  "impact_internet   stdout impact --scale internet --seed 2024"
  "stealth           stdout stealth --seed 2024"
  "defense_paper     out    defense --paper --seed 2024"
  "scenario_paper    out    scenario --scale paper --seed 2024"
  "estimate_internet out    estimate --scale internet --seed 2024"
  "feed_paper        feed   feed --paper --seed 2024 --baseline"
)

revs=$(cat "$dir"/*.manifest.json | grep -o '"git_rev":"[^"]*"' | sort -u || true)
if [ "$(printf '%s' "$revs" | grep -c .)" -gt 1 ]; then
  echo "$dir/*.manifest.json carry more than one git_rev:" >&2
  echo "$revs" >&2
  exit 1
fi

declare -A covered
for row in "${table[@]}"; do
  read -r name how args <<<"$row"
  covered[$name]=1
  got=$work/$name.txt
  # shellcheck disable=SC2086 # $args is a word list on purpose
  if [ "$how" = out ]; then
    "$aspp" $args --out "$got" >/dev/null
  else
    "$aspp" $args >"$got"
  fi
  if [ "$how" = feed ]; then
    diff <(feed_lines "$got") <(feed_lines "$dir/$name.txt")
  else
    diff <(mask "$got") <(mask "$dir/$name.txt")
  fi
  echo "$dir/$name.txt: ok"
done

for f in "$dir"/*.txt; do
  name=$(basename "$f" .txt)
  if [ -z "${covered[$name]:-}" ]; then
    echo "$f: no command in the table" >&2
    exit 1
  fi
done
