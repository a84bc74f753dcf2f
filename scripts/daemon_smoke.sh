#!/usr/bin/env bash
# Loopback integration smoke for turtled + turtlectl (CI job daemon-smoke).
#
# Proves the acceptance criteria end to end on a real socket round trip:
#
#   0. an unknown flag, and a numeric flag that is malformed or out of
#      range, exits 2 naming the flag; a snapshot header whose counts wrap
#      the 64-bit layout sum fails validate_obs.py --snapshot and is
#      refused by turtlectl --local (exit 2) and turtled (exit 1), never
#      an abort; a daemon started without a snapshot answers a zero
#      timeout that turtlectl does not adopt as its deadline (it keeps the
#      5 s bootstrap cap);
#   1. turtled serving a snapshot-v1 file, read and validated once into
#      its own memory, answers QUERY over both TCP and UDP, and every
#      network answer is byte-identical to `turtlectl --local` running the
#      same lookup + codec in-process on the same file — the daemon serves
#      the oracle unmodified;
#   2. hot SWAP succeeds mid-traffic and subsequent answers carry the new
#      snapshot version; rewriting the served file in place and then
#      truncating it, mid-traffic, change no answer and no VERSION;
#   3. malformed input gets a counted ERR, never a crash;
#   4. QUIT runs the graceful drain: the daemon exits 0 and its metrics
#      dump passes validate_obs.py --serve (offered == daemon.proto.queries
#      == served + shed) plus daemon.* ledger sanity, and the same dump
#      with serve.offered off by one fails it;
#   5. turtled --idle-ms=300 closes a silent TCP client after 300 ms to
#      1 s, and STATS counts it under reaped_idle.
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
# Each bad value must exit 2 and name its flag, not abort or wrap.
expect_usage_error() {
  local flag=$1
  shift
  rc=0
  timeout 10 "$@" > /dev/null 2> "$WORK/usage.err" || rc=$?
  [ "$rc" -eq 2 ] || fail "$* exited $rc, want 2"
  grep -q -- "--$flag" "$WORK/usage.err" || fail "$* did not name --$flag: $(cat "$WORK/usage.err")"
}
for bad in --idle-ms=abc --idle-ms=0 --idle-ms=-5 --idle-ms=18446744073709552; do
  expect_usage_error idle-ms "$TURTLED" "$bad"
done
expect_usage_error tcp-port "$TURTLED" --tcp-port=70000
expect_usage_error tcp-port "$TURTLED" --tcp-port=abc
expect_usage_error udp-port "$TURTLED" --udp-port=-1
expect_usage_error max-connections "$TURTLED" --max-connections=0
expect_usage_error port "$TURTLECTL" --port=abc query 10.0.0.1
expect_usage_error port "$TURTLECTL" --port=70000 query 10.0.0.1
expect_usage_error timeout-ms "$TURTLECTL" --port=4774 --timeout-ms=abc query 10.0.0.1
expect_usage_error timeout-ms "$TURTLECTL" --port=4774 --timeout-ms=-1 query 10.0.0.1

# A header-only file with valid checksums whose counts (R = 2^31-1,
# C = 2^30-1) wrap an unchecked 64-bit layout sum to its own 256 bytes.
python3 - "$WORK/crafted.snap" <<'EOF'
import struct, sys
sys.path.insert(0, "scripts")
from validate_obs import crc64
rows, cols = 2**31 - 1, 2**30 - 1
rows_at = 264
cols_at = rows_at + rows * 8
cells_at = cols_at + cols * 8
file_bytes = (cells_at + rows * cols * 8) % 2**64
assert file_bytes == 256
header = b"TRTLSNAP" + struct.pack("<IIQQQQQQQQ", 1, 256, file_bytes, crc64(b""), 0, 41,
                                   0, 0, 0, 0)
header += struct.pack("<6I", 1, 0, 0, rows, cols, 1)
header += struct.pack("<9Q", 256, *[rows_at] * 6, cols_at, cells_at)
header = bytearray(header.ljust(256, b"\0"))
header[32:40] = struct.pack("<Q", crc64(bytes(header)))
open(sys.argv[1], "wb").write(header)
EOF
if python3 scripts/validate_obs.py --snapshot "$WORK/crafted.snap" > /dev/null 2>&1; then
  fail "validate_obs.py --snapshot passed the crafted header"
fi
rc=0
"$TURTLECTL" --local="$WORK/crafted.snap" query 10.0.0.1 > /dev/null 2> "$WORK/crafted.err" || rc=$?
[ "$rc" -eq 2 ] || fail "turtlectl --local on the crafted header exited $rc, want 2"
grep -q "cannot load" "$WORK/crafted.err" || fail "turtlectl --local gave no error: $(cat "$WORK/crafted.err")"
rc=0
timeout 10 "$TURTLED" --snapshot="$WORK/crafted.snap" > /dev/null 2> "$WORK/crafted.err" || rc=$?
[ "$rc" -eq 1 ] || fail "turtled --snapshot= on the crafted header exited $rc, want 1"
grep -q "cannot load" "$WORK/crafted.err" || fail "turtled gave no error: $(cat "$WORK/crafted.err")"

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
echo "daemon_smoke: typos and bad numeric flags exit 2; a crafted header is refused;" \
  "a snapshotless daemon's zero timeout is not adopted"

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

# --- 3b. The served file changes on disk mid-traffic. ---------------------
# turtled serves the image it read at the SWAP: an in-place rewrite by the
# repo's own writer, then a truncation, change nothing until the next
# SWAP. No SWAP here, so step 4's swap ledger stands.
answers() {
  for q in "${queries[@]}"; do
    # shellcheck disable=SC2086
    ctl $q || fail "TCP $q after the served file changed"
  done
  ctl version || fail "VERSION after the served file changed"
}
served=$(answers)
grep -qx "OK VERSION proto=1 snapshot=42" <<< "$served" || fail "not serving v42: $served"
(
  for _ in $(seq 1 40); do
    ctl --udp=true query 10.0.1.1 > /dev/null 2>&1 || true
  done
) &
TRAFFIC_PID=$!
"$BUILD"/bench/micro_snapshot --blocks=50 --addrs=8 --rounds=20 \
  --snapshot-out="$WORK/v42.snap" --snapshot-version=43 --seed=7 > /dev/null
[ "$(answers)" = "$served" ] || fail "answers changed after an in-place rewrite of the served file"
: > "$WORK/v42.snap"
[ "$(answers)" = "$served" ] || fail "answers changed after the served file was truncated"
wait "$TRAFFIC_PID"
echo "daemon_smoke: rewriting and truncating the served file changed no answer"

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

# --- 5. Idle reaping on the real binary. ----------------------------------
launch "$WORK/idle-ports.txt" --idle-ms=300
python3 - "$WORK/idle-ports.txt" <<'EOF'
import socket, sys, time
ports = dict(token.split("=") for token in open(sys.argv[1]).read().split())
start = time.monotonic()
client = socket.create_connection(("127.0.0.1", int(ports["tcp"])), timeout=5)
data = client.recv(1)
elapsed_ms = (time.monotonic() - start) * 1000
assert data == b"", f"silent client was sent {data!r}"
assert 300 <= elapsed_ms < 1000, f"silent client closed after {elapsed_ms:.0f} ms, want 300-1000"
print(f"daemon_smoke: --idle-ms=300 closed a silent client after {elapsed_ms:.0f} ms")
EOF
"$TURTLECTL" --port-file="$WORK/idle-ports.txt" --timeout-ms=5000 stats > "$WORK/idle-stats.out" || \
  fail "STATS after the reap"
grep -q " reaped_idle=1 " "$WORK/idle-stats.out" || fail "reap not counted: $(cat "$WORK/idle-stats.out")"
"$TURTLECTL" --port-file="$WORK/idle-ports.txt" --timeout-ms=5000 quit > /dev/null || fail "idle QUIT"
await_exit

echo "daemon_smoke: OK"
