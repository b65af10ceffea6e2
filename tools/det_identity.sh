#!/usr/bin/env bash
# Deterministic-output identity check between two builds of this repository,
# for refactors that must not move a single virtual-time bit.
#
#   tools/det_identity.sh PARENT_BUILD CHANGE_BUILD
#
# Each argument is a CMake build directory (e.g. one build of the parent
# commit and one of the change). Both must be built with the same compiler
# and flags: deterministic clocks price migrated stack bytes, so a different
# frame size of fork()/join() moves every clock (docs/internals.md,
# "live_stack_bytes").
#
# It runs critical_path, ablation_placement, ablation_steal_batch and serving
# with --smoke in both builds and compares each pair with
# `stats_diff --check --tolerance 0` in both directions; then it runs
# examples/sort_demo and examples/uts_mem_demo under ITYR_DETERMINISTIC=1
# ITYR_CRITPATH=1 with ITYR_TRACE and ITYR_STATS_JSON set and compares stdout,
# the trace and the stats dump byte for byte. Exits nonzero on any
# difference or failed run.
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
builds=("$1" "$2")
sides=(parent change)
stats_diff="$2/tools/stats_diff"
work=$(mktemp -d)
trap '[ "$fail" -eq 0 ] && rm -rf "$work"' EXIT
fail=0

report() {
  echo "det_identity: FAIL $*" >&2
  fail=1
}

for bench in critical_path ablation_placement ablation_steal_batch serving; do
  for i in 0 1; do
    if ! "${builds[$i]}/bench/$bench" --smoke "$work/${sides[$i]}-$bench.json" \
        > "$work/${sides[$i]}-$bench.log" 2>&1; then
      report "$bench --smoke exited nonzero in ${builds[$i]}"
    fi
  done
  for pair in "parent change" "change parent"; do
    set -- $pair
    if ! "$stats_diff" --check "$work/$1-$bench.json" "$work/$2-$bench.json" --tolerance 0 \
        > /dev/null; then
      report "$bench: $1 -> $2 outputs differ"
    fi
  done
done

for demo in sort_demo uts_mem_demo; do
  for i in 0 1; do
    out="$work/${sides[$i]}-$demo"
    if ! ITYR_DETERMINISTIC=1 ITYR_CRITPATH=1 ITYR_TRACE="$out.trace.json" \
        ITYR_STATS_JSON="$out.stats.json" "${builds[$i]}/examples/$demo" > "$out.stdout" 2>&1; then
      report "$demo exited nonzero in ${builds[$i]}"
    fi
  done
  for f in stdout trace.json stats.json; do
    cmp -s "$work/parent-$demo.$f" "$work/change-$demo.$f" || report "$demo: $f differs"
  done
done

if [ "$fail" -eq 0 ]; then
  echo "det_identity: OK (4 smoke benches, 2 examples bit-identical)"
else
  echo "det_identity: outputs kept in $work" >&2
fi
exit "$fail"
