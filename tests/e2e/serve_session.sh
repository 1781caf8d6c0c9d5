#!/usr/bin/env bash
# Daemon-vs-library session diff: compiles the CAIDA fixture, starts
# panagree-serve on an ephemeral port, sends a scripted session over the
# socket, and requires the responses to be byte-identical to
# panagree-query --direct (the same ShardRouter::handle_line calls with no
# socket). Then checks the SIGTERM drain.
#
#   serve_session.sh BIN_DIR FIXTURE SHARDS
#
# SHARDS=1 runs the plain session on a freshly primed daemon. SHARDS>1
# compiles the shard plan + primed baseline into the snapshot, requires
# the mmap-only cold start (primed=snapshot), adds a mid-session rebase
# whose effect the following what-if must show, and drains an admin
# rebase sent right before SIGTERM: its response must still arrive.
set -euo pipefail

bin=$1
fixture=$2
shards=$3
sources=14

work=$(mktemp -d)
serve_pid=""
cleanup() {
  if [ -n "$serve_pid" ]; then
    kill -KILL "$serve_pid" 2>/dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  for log in "$work"/serve.out "$work"/serve.err; do
    [ -f "$log" ] && sed "s|^|$(basename "$log"): |" "$log" >&2
  done
  exit 1
}

snapshot=$work/fixture.pansnap
compile_args=()
if [ "$shards" -gt 1 ]; then
  compile_args=(--shards "$shards" --sources "$sources")
fi
"$bin/panagree-compile" "$snapshot" --caida "$fixture" "${compile_args[@]}" \
  > /dev/null 2>&1 || fail "panagree-compile"

"$bin/panagree-serve" --snapshot "$snapshot" --port 0 --threads 2 \
  --sources "$sources" --shards "$shards" \
  > "$work/serve.out" 2> "$work/serve.err" &
serve_pid=$!
for _ in $(seq 300); do
  grep -q listening "$work/serve.out" 2>/dev/null && break
  kill -0 "$serve_pid" 2>/dev/null || fail "daemon exited before readiness"
  sleep 0.1
done
port=$(sed -n 's/^listening on [^ ]*:\([0-9]*\) .*/\1/p' "$work/serve.out")
[ -n "$port" ] || fail "no readiness line"
if [ "$shards" -gt 1 ]; then
  grep -Eq "listening .*shards=$shards primed=snapshot" "$work/serve.out" \
    || fail "cold start did not adopt the snapshot baseline"
fi

requests=(
  '{"v":1,"id":1,"kind":"paths","source":3}'
  '{"v":1,"id":2,"kind":"diversity","source":5}'
  '{"v":1,"id":3,"kind":"whatif","add":[{"a":0,"b":9,"type":"peering"}]}'
)
if [ "$shards" -gt 1 ]; then
  # id 5 re-adds the link id 4 just deployed: it must be rejected against
  # the rebased base, proving the whole fleet moved.
  requests+=(
    '{"v":1,"id":4,"kind":"rebase","add":[{"a":0,"b":9,"type":"peering"}]}'
    '{"v":1,"id":5,"kind":"whatif","add":[{"a":0,"b":9,"type":"peering"}]}'
  )
fi
requests+=('{"v":1,"id":6,"kind":"paths","source":999}')
printf '%s\n' "${requests[@]}" > "$work/requests.txt"

"$bin/panagree-query" --port "$port" < "$work/requests.txt" \
  > "$work/served.out" || fail "panagree-query over the socket"
"$bin/panagree-query" --direct --snapshot "$snapshot" --sources "$sources" \
  --shards "$shards" < "$work/requests.txt" > "$work/direct.out" \
  2> /dev/null || fail "panagree-query --direct"
diff "$work/served.out" "$work/direct.out" || fail "served != direct"
[ "$(wc -l < "$work/served.out")" -eq "${#requests[@]}" ] \
  || fail "expected one response per request"

if [ "$shards" -gt 1 ]; then
  grep -q '"id":4,"ok":true,"kind":"rebase","epoch":1' "$work/served.out" \
    || fail "rebase did not answer epoch 1"
  grep -q '"id":5,.*re-adds a pair' "$work/served.out" \
    || fail "post-rebase what-if was not rejected"
  # An admin rebase in flight at SIGTERM: wait until the daemon has
  # started handling it (its request counter moved), then signal.
  printf '%s\n' '{"v":1,"id":7,"kind":"rebase","remove":[[0,9]]}' \
    | "$bin/panagree-query" --port "$port" > "$work/rebase.out" &
  query_pid=$!
  for _ in $(seq 300); do
    "$bin/panagree-query" --port "$port" --stats 2>/dev/null \
      | grep -q '"serve.requests.rebase":2' && break
    sleep 0.05
  done
  kill -TERM "$serve_pid"
  wait "$query_pid" || fail "in-flight rebase client"
  grep -q '"id":7,"ok":true,"kind":"rebase","epoch":2' "$work/rebase.out" \
    || fail "in-flight rebase response lost in the drain"
else
  kill -TERM "$serve_pid"
fi
wait "$serve_pid" || fail "daemon exit status"
serve_pid=""
grep -q 'drained after' "$work/serve.err" || fail "no drain report"
echo "ok: $shards-shard session byte-identical to --direct, drained"
