#!/usr/bin/env bash
# Thread-count determinism of panagree-sweep: every mode's stdout must be
# byte-identical at --threads 1 and --threads 4. The 600-AS synthetic
# topology with 40 sources is the smallest setting whose per-source
# fan-outs leave the serial path (paths::kMinParallelSources = 32), so the
# diff compares the parallel driver against the serial one. Also checks
# that malformed and zero option values are usage errors (exit 2).
#
#   sweep_determinism.sh BIN_DIR
set -euo pipefail

bin=$1
sweep=$bin/panagree-sweep
export PANAGREE_ASES=600 PANAGREE_SOURCES=40

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

modes=(
  ""
  "--optimize greedy --steps 2"
  "--optimize beam --steps 2"
  "--failures 1 --samples 8"
  "--fail-ases --samples 8"
)
for mode in "${modes[@]}"; do
  for threads in 1 4; do
    # shellcheck disable=SC2086 # each mode is a flag list
    "$sweep" 8 5 $mode --threads "$threads" > "$work/t$threads.out" \
      || fail "panagree-sweep 8 5 $mode --threads $threads"
  done
  diff "$work/t1.out" "$work/t4.out" \
    || fail "'$mode': --threads 1 and --threads 4 differ"
done
grep -q 'ranked by worst-case surviving' "$work/t1.out" \
  || fail "--fail-ases output lacks the surviving-diversity ranking"

for args in "--optimize beam --beam -1" "--optimize beam --beam 0"; do
  status=0
  # shellcheck disable=SC2086
  "$sweep" 8 5 $args > /dev/null 2>&1 || status=$?
  [ "$status" -eq 2 ] || fail "'$args' exited $status, expected 2"
done
echo "ok: ${#modes[@]} modes byte-identical at 1 and 4 threads"
