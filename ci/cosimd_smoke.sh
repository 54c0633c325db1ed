#!/usr/bin/env bash
# cosimd_smoke.sh COSIMD
#
# Smoke-tests the cosimd daemon end to end through its HTTP API, with
# curl and jq. It starts the COSIMD binary on a free local port (4
# workers, queue 32), submits the 12-session matrix (gdb-wrapper,
# gdb-kernel and driver-kernel over pipe and ring, for 2 ms and 10 ms
# each), waits for every session to end, and requires:
#   - every session done, none failed;
#   - nonzero iss.instructions in every session, nonzero driver.messages
#     in every Driver-Kernel session and nonzero rsp.round_trips in every
#     GDB-scheme session;
#   - both pipe and ring among the sessions' transports;
#   - no 429 rejection in /varz, and as many sessions completed as
#     accepted;
#   - a 400 naming cpu_period for a spec that sets it;
#   - exit 0 and the "drained cleanly" log line after SIGTERM.
# It leaves the final session statuses in cosimd-sessions.json and the
# daemon's log in cosimd.log, in the current directory.
#
#   go build -o cosimd ./cmd/cosimd && ci/cosimd_smoke.sh ./cosimd
set -euo pipefail

cosimd=${1:?usage: ci/cosimd_smoke.sh COSIMD}
log=cosimd.log
out=cosimd-sessions.json

fail() {
  echo "cosimd smoke: $*" >&2
  exit 1
}

tmp=$(mktemp -d)
"$cosimd" -addr 127.0.0.1:0 -workers 4 -queue 32 2> "$log" &
pid=$!
trap 'kill -KILL "$pid" 2> /dev/null || true; rm -rf "$tmp"' EXIT

# The daemon logs the address it bound.
base=
for _ in $(seq 1 50); do
  base=$(sed -nE 's/^cosimd: serving on (http:[^ ]*)$/\1/p' "$log")
  [ -n "$base" ] && curl -sf "$base/healthz" > /dev/null && break
  sleep 0.2
done
if [ -z "$base" ] || ! curl -sf "$base/healthz" > /dev/null; then
  cat "$log" >&2
  fail "cosimd never became healthy"
fi

ids=()
for scheme in gdb-wrapper gdb-kernel driver-kernel; do
  for tr in pipe ring; do
    for t in 2ms 10ms; do
      spec=$(printf '{"scheme":"%s","transport":"%s","sim_time":"%s","seed":1}' "$scheme" "$tr" "$t")
      code=$(curl -s -o "$tmp/post.json" -w '%{http_code}' -X POST -d "$spec" "$base/v1/sessions")
      [ "$code" = 202 ] || fail "POST $spec answered $code: $(cat "$tmp/post.json")"
      ids+=("$(jq -r .id "$tmp/post.json")")
    done
  done
done

# Wait for every session to reach a terminal state, then keep its status.
deadline=$((SECONDS + 120))
for id in "${ids[@]}"; do
  while :; do
    st=$(curl -sf "$base/v1/sessions/$id") || fail "GET session $id failed"
    jq -e '.state | IN("done", "failed", "canceled")' <<<"$st" > /dev/null && break
    [ "$SECONDS" -lt "$deadline" ] || fail "session $id still $(jq -r .state <<<"$st") after 120 s"
    sleep 0.1
  done
  echo "$st" >> "$tmp/sessions.ndjson"
done
jq -s . "$tmp/sessions.ndjson" > "$out"

jq -e 'length >= 8' "$out" > /dev/null \
  || fail "fewer than 8 sessions ran"
jq -e 'all(.state == "done")' "$out" > /dev/null \
  || fail "a session ended non-done: $(jq -c '[.[] | select(.state != "done") | {id, state, error}]' "$out")"
jq -e 'all(.metrics.counters["iss.instructions"] > 0)' "$out" > /dev/null \
  || fail "a session reported zero guest instructions"
jq -e '[.[] | select(.metrics.scheme == "Driver-Kernel")]
       | length > 0 and all(.metrics.counters["driver.messages"] > 0)' "$out" > /dev/null \
  || fail "driver.messages missing or zero in Driver-Kernel sessions"
jq -e '[.[] | select(.metrics.scheme != "Driver-Kernel")]
       | length > 0 and all(.metrics.counters["rsp.round_trips"] > 0)' "$out" > /dev/null \
  || fail "rsp.round_trips missing or zero in GDB-scheme sessions"
jq -e '[.[].metrics.transport] | unique == ["pipe", "ring"]' "$out" > /dev/null \
  || fail "the sessions did not cover pipe and ring"
curl -sf "$base/varz" \
  | jq -e '.sessions_rejected_429 == 0 and .sessions_completed == .sessions_accepted' > /dev/null \
  || fail "varz counters disagree with the sessions run"

# The guest cycle length is fixed: cpu_period is an unknown key, a 400 naming it.
code=$(curl -s -o "$tmp/period.json" -w '%{http_code}' -X POST \
  -d '{"scheme":"gdb-kernel","cpu_period":"10ns"}' "$base/v1/sessions")
if [ "$code" != 400 ] || ! jq -e '.error | contains("cpu_period")' "$tmp/period.json" > /dev/null; then
  fail "cpu_period POST answered $code: $(cat "$tmp/period.json")"
fi

kill -TERM "$pid"
status=0
wait "$pid" || status=$?
[ "$status" -eq 0 ] || { cat "$log" >&2; fail "cosimd exited $status after SIGTERM"; }
grep -q "drained cleanly" "$log" \
  || { cat "$log" >&2; fail "drain log line missing"; }
echo "cosimd smoke: ${#ids[@]} sessions done; cosimd exited 0 after SIGTERM"
