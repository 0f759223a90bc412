#!/usr/bin/env bash
# Bench regression guard: compares a fresh bench summary against the
# committed BENCH_results.json. Each section is checked only when the
# fresh file carries it, so `bench simulator --summary fresh.json` and
# `bench scaling --summary fresh.json` both gate through this script —
# but a section the fresh run produced MUST have a committed baseline to
# gate against: a missing baseline fails the script (exit 2) rather than
# silently skipping the gate, unless ALLOW_MISSING_BASELINE=1
# deliberately bootstraps it.
# The `meta` block (git rev, OCaml version, domain count, quick flag)
# is informational and deliberately ignored here.
#
# Simulator section — machine-independent by construction: bench/main.ml
# times the optimized Pipeline against the verbatim pre-optimization
# Pipeline_reference in the same process, so the ratio cancels the
# host's absolute speed. CI fails when the fresh ratio falls more than
# 20% below the committed one, or when either bit-identity check in the
# fresh run failed. Per workload class (simulator.classes: the X4
# balanced, chain-limited and memory-bound mixes) the fresh stats must be bit-identical
# to the reference and the simulated cycles must equal the committed
# count exactly: the count is deterministic, so this gate cannot flake.
#
# Scaling section — the fresh run's artifacts must be bit-identical
# across domain counts, and parallel efficiency at 2 domains must not
# drop below the committed baseline minus SCALING_TOLERANCE (absolute).
#
#   dune exec bench/main.exe -- simulator --quick --summary fresh.json
#   scripts/check_bench_regression.sh BENCH_results.json fresh.json
set -eu

committed=${1:-BENCH_results.json}
fresh=${2:-sim_bench_fresh.json}
tolerance=${TOLERANCE:-0.8}               # fresh simulator speedup >= tolerance * committed
scaling_tolerance=${SCALING_TOLERANCE:-0.15} # fresh efficiency@2 >= committed - this

for f in "$committed" "$fresh"; do
  if [ ! -f "$f" ]; then
    echo "check_bench_regression: $f not found" >&2
    exit 2
  fi
done

# A section carried by the fresh summary is an *expected* section: the
# committed baseline must carry it too, or the gate has nothing to
# compare against and must say so loudly — a silently skipped gate reads
# as a pass in CI. Set ALLOW_MISSING_BASELINE=1 only when deliberately
# bootstrapping a new section into BENCH_results.json.
require_committed_section() {
  section=$1
  if ! jq -e --arg s "$section" 'has($s)' "$committed" > /dev/null; then
    if [ "${ALLOW_MISSING_BASELINE:-0}" = 1 ]; then
      echo "check_bench_regression: WARNING: $committed has no \"$section\" section; gate skipped because ALLOW_MISSING_BASELINE=1"
      return 1
    fi
    echo "check_bench_regression: fresh summary carries a \"$section\" section but $committed does not — refusing to skip its gate (set ALLOW_MISSING_BASELINE=1 to bootstrap a new baseline)" >&2
    exit 2
  fi
}

checked=0

if jq -e 'has("simulator")' "$fresh" > /dev/null; then
  checked=1
  if ! jq -e '.simulator.stats_bit_identical == true' "$fresh" > /dev/null; then
    echo "check_bench_regression: optimized pipeline stats are NOT bit-identical to the reference" >&2
    exit 1
  fi
  if ! jq -e '.simulator.batch.results_bit_identical == true' "$fresh" > /dev/null; then
    echo "check_bench_regression: parallel run_batch results are NOT bit-identical to serial" >&2
    exit 1
  fi

  if require_committed_section simulator; then
    committed_speedup=$(jq -er '.simulator.speedup' "$committed")
    fresh_speedup=$(jq -er '.simulator.speedup' "$fresh")

    echo "simulator speedup: committed ${committed_speedup}x, fresh ${fresh_speedup}x (floor: ${tolerance} * committed)"

    if ! awk -v c="$committed_speedup" -v f="$fresh_speedup" -v t="$tolerance" \
        'BEGIN { exit !(f + 0 >= t * c) }'; then
      echo "check_bench_regression: simulator speedup regressed more than $(awk -v t="$tolerance" 'BEGIN { printf "%d%%", (1 - t) * 100 }') below the committed value" >&2
      exit 1
    fi

    # Every committed class must be present in the fresh run with the
    # same simulated cycles; a fresh class without a committed count is
    # a missing baseline.
    if ! jq -e '.simulator.classes | type == "array" and length > 0' "$fresh" > /dev/null; then
      echo "check_bench_regression: fresh simulator section has no per-class results" >&2
      exit 2
    fi
    if ! jq -e '[.simulator.classes[].stats_bit_identical] | all' "$fresh" > /dev/null; then
      echo "check_bench_regression: a per-class optimized run is NOT bit-identical to the reference" >&2
      exit 1
    fi
    if ! jq -e '.simulator.classes | type == "array" and length > 0' "$committed" > /dev/null; then
      if [ "${ALLOW_MISSING_BASELINE:-0}" = 1 ]; then
        echo "check_bench_regression: WARNING: $committed has no simulator.classes baseline; per-class gate skipped because ALLOW_MISSING_BASELINE=1"
        classes=""
      else
        echo "check_bench_regression: $committed has no simulator.classes baseline — refusing to skip the per-class cycle gate (set ALLOW_MISSING_BASELINE=1 to bootstrap it)" >&2
        exit 2
      fi
    else
      classes=$(jq -r '.simulator.classes[].class' "$committed" "$fresh" | sort -u)
    fi
    for cls in $classes; do
      committed_cycles=$(jq -r --arg c "$cls" '.simulator.classes[] | select(.class == $c) | .sim_cycles' "$committed")
      fresh_cycles=$(jq -r --arg c "$cls" '.simulator.classes[] | select(.class == $c) | .sim_cycles' "$fresh")
      fresh_class_speedup=$(jq -r --arg c "$cls" '.simulator.classes[] | select(.class == $c) | .speedup' "$fresh")
      echo "simulator class $cls: committed ${committed_cycles:-none} cycles, fresh ${fresh_cycles:-none} cycles (${fresh_class_speedup:-?}x vs reference)"
      if [ -z "$committed_cycles" ] || [ -z "$fresh_cycles" ] || [ "$committed_cycles" != "$fresh_cycles" ]; then
        echo "check_bench_regression: simulated cycles for class $cls differ from the committed count" >&2
        exit 1
      fi
    done
  fi
fi

if jq -e 'has("scaling")' "$fresh" > /dev/null; then
  checked=1
  if ! jq -e '.scaling.artifacts_bit_identical == true' "$fresh" > /dev/null; then
    echo "check_bench_regression: scaling run artifacts are NOT bit-identical across domain counts" >&2
    exit 1
  fi

  fresh_eff=$(jq -er '[.scaling.points[] | select(.domains == 2) | .efficiency] | first // empty' "$fresh" || true)
  if [ -z "$fresh_eff" ]; then
    echo "check_bench_regression: fresh scaling section has no 2-domain point" >&2
    exit 2
  elif ! require_committed_section scaling; then
    : # bootstrap explicitly allowed
  else
    committed_eff=$(jq -er '[.scaling.points[] | select(.domains == 2) | .efficiency] | first // empty' "$committed" || true)
    if [ -z "$committed_eff" ]; then
      echo "check_bench_regression: committed scaling baseline has no 2-domain point — refusing to skip the efficiency gate" >&2
      exit 2
    else
      echo "scaling efficiency @2 domains: committed ${committed_eff}, fresh ${fresh_eff} (floor: committed - ${scaling_tolerance})"
      if ! awk -v c="$committed_eff" -v f="$fresh_eff" -v t="$scaling_tolerance" \
          'BEGIN { exit !(f + 0 >= c - t) }'; then
        echo "check_bench_regression: parallel efficiency at 2 domains dropped below the committed baseline minus ${scaling_tolerance}" >&2
        exit 1
      fi
    fi
  fi
fi

if [ "$checked" = 0 ]; then
  echo "check_bench_regression: fresh summary $fresh has neither a simulator nor a scaling section" >&2
  exit 2
fi
echo "check_bench_regression: OK"
