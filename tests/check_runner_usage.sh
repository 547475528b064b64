#!/bin/sh
# check_runner refuses an unknown name or a zero size with exit status 2
# before it runs any cell: nothing reaches stdout, where the run summary
# goes after a sweep.
#
#   tests/check_runner_usage.sh CHECK_RUNNER
bin=${1:?CHECK_RUNNER}
status=0
for args in "--nemesis crahs" "--nemesis crash;crahs" "--protocol rafft" \
    "--adversary meteor" "--protocol sharper --num-shards 0" \
    "--protocol ahl --num-shards 0" "--cluster-size 0" \
    "--cluster-size 4,0"; do
  # $args is split into flags on purpose.
  out=$("$bin" $args --seeds 1 --txns 5 --quiet 2>/dev/null)
  code=$?
  if [ "$code" -ne 2 ] || [ -n "$out" ]; then
    echo "FAIL: check_runner $args: exit $code, stdout: $out"
    status=1
  fi
done
# The control: good values run the one cell they name.
out=$("$bin" --protocol raft --nemesis none --seeds 1 --txns 5 --quiet)
code=$?
case "$code:$out" in
  "0:check_runner: 1 runs, "*) ;;
  *) echo "FAIL: control run: exit $code, stdout: $out"; status=1 ;;
esac
exit $status
