#!/usr/bin/env bash
# Loopback integration smoke for turtled + turtlectl (CI job daemon-smoke).
#
# Proves the acceptance criteria end to end on a real socket round trip:
#
#   0. an unknown flag exits 2, and a daemon started without a snapshot
#      answers a zero timeout that turtlectl does not adopt as its
#      deadline (it keeps the 5 s bootstrap cap);
#   1. turtled serving a mmap'd snapshot-v1 file answers QUERY over both
#      TCP and UDP, and every network answer is byte-identical to
#      `turtlectl --local` running the same lookup + codec in-process on
#      the same file — the daemon serves the oracle unmodified;
#   2. hot SWAP succeeds mid-traffic and subsequent answers carry the new
#      snapshot version;
#   3. malformed input gets a counted ERR, never a crash;
#   4. QUIT runs the graceful drain: the daemon exits 0 and its metrics
#      dump passes validate_obs.py --serve (offered == daemon.proto.queries
#      == served + shed) plus daemon.* ledger sanity, and the same dump
#      with serve.offered off by one fails it.
#
# Usage: scripts/daemon_smoke.sh [build-dir]   (default: build)
set -euo pipefail

BUILD=${1:-build}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"

WORK=$(mktemp -d)
DAEMON_PID=
cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "daemon_smoke: FAIL: $*" >&2
  exit 1
}

TURTLED="$BUILD/tools/turtled"
TURTLECTL="$BUILD/tools/turtlectl"
[ -x "$TURTLED" ] || fail "$TURTLED not built"
[ -x "$TURTLECTL" ] || fail "$TURTLECTL not built"

# --- Fixtures: two snapshots distinguishable by version. -------------------
"$BUILD"/bench/micro_snapshot --blocks=50 --addrs=8 --rounds=20 \
  --snapshot-out="$WORK/v41.snap" --snapshot-version=41 > /dev/null
"$BUILD"/bench/micro_snapshot --blocks=50 --addrs=8 --rounds=20 \
  --snapshot-out="$WORK/v42.snap" --snapshot-version=42 > /dev/null

# Starts turtled on ephemeral loopback ports, writing port file $1 (the
# other arguments are its flags), and waits for the port file.
launch() {
  local ports=$1
  shift
  "$TURTLED" --port-file="$ports" "$@" > "$WORK/turtled.log" 2>&1 &
  DAEMON_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$ports" ] && return 0
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "turtled died at startup: $(cat "$WORK/turtled.log")"
    sleep 0.1
  done
  fail "port file $ports never appeared"
}

# Waits for the QUIT-ed daemon to exit 0.
await_exit() {
  for _ in $(seq 1 100); do
    kill -0 "$DAEMON_PID" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$DAEMON_PID" 2>/dev/null; then
    fail "turtled still running after QUIT"
  fi
  wait "$DAEMON_PID" || fail "turtled exited non-zero"
  DAEMON_PID=
}

# --- 0. Flag typos; a snapshotless daemon's zero answer. -------------------
rc=0
timeout 10 "$TURTLED" --idle_ms=300 > /dev/null 2> "$WORK/typo.err" || rc=$?
[ "$rc" -eq 2 ] || fail "turtled --idle_ms=300 exited $rc, want 2"
grep -q "unknown flag --idle_ms" "$WORK/typo.err" || fail "typo not named: $(cat "$WORK/typo.err")"
rc=0
"$TURTLECTL" --timeout_ms=5000 --local="$WORK/v41.snap" query 10.0.0.1 > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || fail "turtlectl --timeout_ms=5000 exited $rc, want 2"

launch "$WORK/bare-ports.txt"
"$TURTLECTL" --port-file="$WORK/bare-ports.txt" query 10.0.0.1 \
  2> "$WORK/bare-bootstrap.err" > "$WORK/bare.out" || fail "snapshotless query"
grep -qx "OK QUERY timeout_us=0 scope=global samples=0 confidence=0.000000 version=0" \
  "$WORK/bare.out" || fail "snapshotless answer: $(cat "$WORK/bare.out")"
grep -qx "# timeout from oracle: 5000 ms" "$WORK/bare-bootstrap.err" || \
  fail "zero-confidence answer became the deadline: $(cat "$WORK/bare-bootstrap.err")"
"$TURTLECTL" --port-file="$WORK/bare-ports.txt" --timeout-ms=5000 quit > /dev/null || \
  fail "snapshotless QUIT"
await_exit
echo "daemon_smoke: typos exit 2; a snapshotless daemon's zero timeout is not adopted"

# --- Launch on ephemeral loopback ports. -----------------------------------
launch "$WORK/ports.txt" --snapshot="$WORK/v41.snap" --metrics-out="$WORK/metrics.json"

ctl() { "$TURTLECTL" --port-file="$WORK/ports.txt" --timeout-ms=5000 "$@"; }

# --- 1. QUERY matrix: TCP == UDP == in-process, byte for byte. -------------
queries=(
  "query 10.0.0.1"
  "query 10.0.5.9 scope=as"
  "query 10.0.7.1 scope=global"
  "query 10.0.3.2 addr-coverage=50 ping-coverage=99"
)
for q in "${queries[@]}"; do
  # shellcheck disable=SC2086 # word splitting is the request grammar
  tcp=$(ctl $q) || fail "TCP $q"
  # shellcheck disable=SC2086
  udp=$(ctl --udp=true $q) || fail "UDP $q"
  # shellcheck disable=SC2086
  local_answer=$("$TURTLECTL" --local="$WORK/v41.snap" $q) || fail "--local $q"
  [ "$tcp" = "$local_answer" ] || fail "TCP answer diverges for '$q': '$tcp' vs '$local_answer'"
  [ "$udp" = "$local_answer" ] || fail "UDP answer diverges for '$q': '$udp' vs '$local_answer'"
  case "$tcp" in "OK QUERY timeout_us="*) ;; *) fail "malformed answer '$tcp'" ;; esac
done
echo "daemon_smoke: ${#queries[@]} queries byte-identical across TCP/UDP/in-process"

# The adaptive default: with no --timeout-ms, turtlectl bootstraps its
# deadline from the oracle's own global recommendation.
"$TURTLECTL" --port-file="$WORK/ports.txt" query 10.0.0.1 \
  2> "$WORK/bootstrap.err" > /dev/null || fail "bootstrap-timeout query"
grep -q "timeout from oracle" "$WORK/bootstrap.err" || \
  fail "bootstrap timeout not sourced from the oracle"

# --- 2. Admin surface + malformed input (counted, not fatal). --------------
ctl version | grep -q "^OK VERSION proto=1 snapshot=41$" || fail "VERSION before swap"
ctl stats | grep -q "snapshot_version=41" || fail "STATS before swap"
if ctl bogus-command > "$WORK/err.out"; then
  fail "malformed command exited 0"
fi
grep -q "^ERR unknown-command" "$WORK/err.out" || fail "malformed command reply: $(cat "$WORK/err.out")"

# --- 3. Hot SWAP mid-traffic. ----------------------------------------------
(
  for _ in $(seq 1 40); do
    ctl --udp=true query 10.0.1.1 > /dev/null 2>&1 || true
  done
) &
TRAFFIC_PID=$!
ctl swap "$WORK/v42.snap" | grep -q "^OK SWAP version=42 blocks=50$" || fail "SWAP"
wait "$TRAFFIC_PID"
ctl version | grep -q "snapshot=42" || fail "VERSION after swap"
ctl query 10.0.0.1 | grep -q "version=42" || fail "answers still on old snapshot"
# A bad path is a counted refusal, not a crash.
if ctl swap /nonexistent.snap > "$WORK/swapfail.out"; then
  fail "SWAP of a nonexistent file exited 0"
fi
grep -q "^ERR swap-failed" "$WORK/swapfail.out" || fail "bad SWAP reply"
echo "daemon_smoke: hot swap 41 -> 42 under concurrent traffic"

# --- 4. Graceful shutdown + ledger validation. -----------------------------
ctl quit | grep -q "^OK BYE$" || fail "QUIT reply"
await_exit

python3 scripts/validate_obs.py --metrics "$WORK/metrics.json" --serve
# The ledger check must catch a dump that is off by one query.
python3 - "$WORK/metrics.json" "$WORK/tampered.json" <<'EOF'
import json, sys
metrics = json.load(open(sys.argv[1]))
metrics["counters"]["serve.offered"] += 1
json.dump(metrics, open(sys.argv[2], "w"))
EOF
if python3 scripts/validate_obs.py --metrics "$WORK/tampered.json" --serve 2> "$WORK/tampered.err"; then
  fail "validate_obs.py --serve passed a dump with serve.offered bumped by 1"
fi
grep -q "offered" "$WORK/tampered.err" || fail "tampered dump failed for another reason"
python3 - "$WORK/metrics.json" <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
assert counters["daemon.proto.requests"] > 0, "no requests counted"
assert counters["daemon.proto.rejected"] >= 1, "malformed line not counted"
assert counters["daemon.proto.queries"] > 0, "no queries counted"
assert counters["daemon.conn.accepted"] == counters["daemon.conn.closed"], \
    "connection ledger does not close"
assert counters["serve.snapshot_swaps"] == 1, "hot swap not in the serve ledger"
assert counters["daemon.swap.failed"] == 1, "failed swap not counted"
print("daemon_smoke: daemon.* ledger closes "
      f"({counters['daemon.proto.requests']} requests, "
      f"{counters['daemon.conn.accepted']} connections)")
EOF

echo "daemon_smoke: OK"
