#!/bin/bash
# Usage: check-results.sh ASPP_BINARY    (from the repository root)
#
# The one table of checked artifacts and audited runs. ASPP_BINARY must be
# a `--features debug-audit` release build. Each row is `name how counters
# args` and runs once, in a work directory with its own `results/`:
#   - `name` is a `results/` stem (the row re-derives `results/NAME.txt`)
#     or `-` (an audit-only run). A name may repeat, e.g. a `--workers 1`
#     row diffed against the same file; its first row owns the manifest.
#   - `how` is how the command delivers the file: `stdout`, `out` for
#     `--out results/NAME.txt`, or `feed` for the record, alarm and
#     determinism lines of a `feed --baseline` run (its other lines are
#     throughput and latency).
#   - `counters` is `-` or a comma list read from the run's `--manifest`:
#     `c` must be nonzero, `c=N` exactly N.
# Every row checks that
#   1. the file matches the checked-in copy, `N.N ms` timings masked;
#   2. every compute was audited once, cleanly: `audit_checks` equals
#      `clean_cache_hits + clean_cache_misses`, is nonzero, and
#      `audit_violations` is 0;
#   3. its counters hold;
#   4. its manifest matches `results/NAME.manifest.json`, if one is checked
#      in, with the rev, the clock and the scheduling- or audit-dependent
#      counters masked.
# Every file under `results/` must belong to a row. On a failure it prints
# the row and its command, which rewrites the row's files when run from
# the repository root, and exits 1.
set -euo pipefail
aspp=$(realpath "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/results"

table=(
  "case_study        stdout -                        case-study --seed 2024"
  "usage_paper       stdout clean_cache_misses=520   usage --paper --seed 2024"
  "impact_paper      stdout -                        impact --paper --seed 2024"
  "detection_paper   stdout batch_victims            detection --paper --seed 2024"
  "mitigation_paper  stdout -                        mitigate --paper --seed 2024"
  "selection_smoke   stdout batch_victims            selection --scale smoke --seed 2024"
  "sweep_paper       stdout batch_victims,batch_scratch_reuses sweep --paper --seed 2024"
  "sweep_paper       stdout -                        sweep --paper --seed 2024 --workers 1"
  "impact_internet   stdout delta_passes             impact --scale internet --seed 2024"
  "stealth           stdout -                        stealth --seed 2024"
  "defense_paper     out    policy_rejects,delta_passes defense --paper --seed 2024"
  "defense_paper     out    -                        defense --paper --seed 2024 --workers 1"
  "scenario_paper    out    scenario_steps,delta_passes=5,delta_frontier_nodes scenario --scale paper --seed 2024"
  "scenario_paper    out    -                        scenario --scale paper --seed 2024 --workers 1"
  "estimate_internet out    mc_samples,mc_resamples  estimate --scale internet --seed 2024"
  "estimate_internet out    -                        estimate --scale internet --seed 2024 --workers 1"
  "feed_paper        feed   feed_records_in,feed_alarms feed --paper --seed 2024 --baseline"
  "-                 -      clean_cache_hits         impact --scale smoke --figure 12 --seed 2024"
  "-                 -      mc_samples,mc_resamples  estimate --scale smoke --seed 2024 --exact"
  "-                 -      policy_rejects=36,delta_passes=48 defense --scale smoke --seed 2024 --pairs 2 --deploy top-degree --fractions 0,0.5,1"
  "-                 -      batch_victims,batch_scratch_reuses sweep --scale internet --seed 2024"
  "-                 -      policy_rejects=141,delta_passes=192 defense --scale internet --seed 2024 --deploy top-degree"
  "-                 -      scenario_steps           scenario --scale internet --seed 2024"
  "-                 -      batch_victims            detection --scale internet --seed 2024"
  "-                 -      clean_cache_misses=110   usage --scale internet --seed 2024"
)

mask() { sed -E 's/[0-9]+\.[0-9]+ ms/X ms/g' "$1"; }
feed_lines() { grep -E '^(feed|alarms|determinism):' "$1"; }
mask_manifest() {
  sed -E -e 's/"(git_rev|created_unix|total_wall_ms)":("[^"]*"|[0-9.]+)/"\1":X/g' \
    -e 's/"wall_ms":\{[^}]*\}/"wall_ms":X/' \
    -e 's/"(batch_steals|batch_scratch_reuses|clean_cache_hits|clean_cache_misses|audit_checks|audit_violations)":[0-9]+/"\1":X/g' \
    "$1"
}
counter() { grep -oE "\"$1\":[0-9]+" "$2" | cut -d: -f2 || true; }
fail() {
  echo "row $name ($args): $1" >&2
  echo "command: $shown" >&2
  exit 1
}

declare -A owned
for row in "${table[@]}"; do
  read -r name _ <<<"$row"
  owned[$name.txt]=1
  owned[$name.manifest.json]=1
done
for f in results/*; do
  if [ -z "${owned[$(basename "$f")]:-}" ]; then
    echo "$f: no row in the table" >&2
    exit 1
  fi
done

declare -A seen
for row in "${table[@]}"; do
  read -r name how counters args <<<"$row"
  txt=results/$name.txt
  manifest=results/$name.manifest.json
  cmd=$args
  [ "$how" = out ] && cmd+=" --out $txt"
  if [ "$name" != - ] && [ -z "${seen[$name]:-}" ] && [ -e "$manifest" ]; then
    cmd+=" --manifest $manifest"
    run=$cmd
  else
    manifest=
    run="$cmd --manifest run.manifest.json"
  fi
  seen[$name]=1
  sink=/dev/null
  shown="$1 $cmd"
  if [ "$how" = stdout ] || [ "$how" = feed ]; then
    sink=$txt
    shown+=" > $txt"
  fi
  # shellcheck disable=SC2086 # $run is a word list on purpose
  (cd "$work" && "$aspp" $run >"$sink") || fail "exited nonzero"
  if [ "$how" = feed ]; then
    diff <(feed_lines "$work/$txt") <(feed_lines "$txt") || fail "$txt differs"
  elif [ "$name" != - ]; then
    diff <(mask "$work/$txt") <(mask "$txt") || fail "$txt differs"
  fi

  m=$work/${manifest:-run.manifest.json}
  checks=$(counter audit_checks "$m")
  hits=$(counter clean_cache_hits "$m")
  misses=$(counter clean_cache_misses "$m")
  violations=$(counter audit_violations "$m")
  if ! ((checks > 0 && checks == hits + misses && violations == 0)); then
    fail "audit_checks=$checks computes=$((hits + misses)) audit_violations=$violations"
  fi
  for c in ${counters//,/ }; do
    [ "$c" = - ] && continue
    got=$(counter "${c%%=*}" "$m")
    if [[ $c == *=* ]]; then
      [ "$got" = "${c#*=}" ] || fail "${c%%=*}=${got:-missing}, expected $c"
    elif ! ((got > 0)); then
      fail "$c=${got:-missing}, expected nonzero"
    fi
  done
  if [ -n "$manifest" ]; then
    diff <(mask_manifest "$m") <(mask_manifest "$manifest") || fail "$manifest differs"
  fi
  echo "${name/#-/$args}: ok (audit_checks=$checks)"
done
