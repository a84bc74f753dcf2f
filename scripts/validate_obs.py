#!/usr/bin/env python3
"""Validates the observability outputs of a bench run (CI gate).

Usage:
    scripts/validate_obs.py --metrics M.json --trace T.json [--stdout OUT.txt]
                            [--fault] [--serve] [--snapshot S.snap]
                            [--flight F.json]

Checks:
  * the metrics file is valid JSON with the turtle-metrics-v1 schema,
    non-empty counter/histogram sections, and no wall.* names (the
    deterministic dump must exclude them);
  * histogram bucket_counts are consistent (len == bounds + 1 overflow,
    sum == count);
  * the trace file is valid JSON in Chrome trace-event shape: every event
    has name/ph/pid/tid/ts, complete spans carry non-negative dur;
  * with --stdout pointing at table1_matching's captured output, the
    printed Table 1 rows exactly equal the pipeline.* counters — the live
    metrics are the analysis, not a parallel reimplementation of it;
  * with --fault (a run under --fault-plan), the fault.* counters
    reconcile: every injected fault is observed somewhere — drops, delays
    and extra copies match between injector and network, crashes match
    between injector and prober/server, and every corrupted record is
    classified and either skipped by the loader or passed through
    silently. A missing counter counts as zero, so the equations also
    hold for plans that only use some fault kinds;
  * with --serve, the serving ledger closes and each lookup is answered by
    exactly one scope tier. For a bench/serve_loadgen run: every offered
    request is served, shed (with an attributed reason), or still queued
    at finalize; cache hits + misses == lookups; the latency histogram
    holds one observation per served request; and a crashed server
    recovered its snapshot at least once (file reload or log rebuild).
    For a turtled dump (it has daemon.proto.queries): every QUERY the
    daemon parsed is offered, offered == served + shed, lookups == served,
    and serve.timeout_answered holds one observation per served query;
  * with --snapshot (a snapshot-v1 file from micro_snapshot/serve_loadgen
    --snapshot-out), the file itself is audited with an independent
    CRC-64/XZ implementation: magic, version, header checksum, body
    checksum, and declared vs actual size must all hold, the header tier
    counts must equal the snapshot.* gauges the build published, and the
    build ledger must close (records_in == records_folded +
    records_skipped);
  * with --flight (a turtle-flight-v1 dump from --flight-out), the
    conservation contract holds exactly: baseline + sum(frames) equals the
    dump's cumulative section for every counter and every histogram
    bucket; the cumulative counters agree with the --metrics dump; frame
    windows tile [0, end) contiguously; watchdog fires recorded in frames
    sum to the watchdog.* counters; every exemplar's value lands in the
    bucket it claims and its trace id resolves to a tagged event in the
    --trace file; and no wall.* name appears anywhere.
"""
import argparse
import json
import re
import struct
import sys

FAILURES = []


def check(cond, message):
    if not cond:
        FAILURES.append(message)


def validate_metrics(path):
    with open(path) as f:
        m = json.load(f)
    check(m.get("schema") == "turtle-metrics-v1", "metrics: bad schema field")
    for section in ("counters", "gauges", "histograms"):
        check(isinstance(m.get(section), dict), f"metrics: missing {section}")
    check(m.get("counters"), "metrics: no counters recorded")
    check(m.get("histograms"), "metrics: no histograms recorded")
    for name in list(m.get("counters", {})) + list(m.get("gauges", {})) + list(
            m.get("histograms", {})):
        check(not name.startswith("wall."),
              f"metrics: wall-clock metric {name!r} leaked into deterministic dump")
    bounds = m.get("histogram_bucket_bounds_us", [])
    check(bounds and bounds == sorted(bounds), "metrics: bucket bounds missing/unsorted")
    check(5_000_000 in bounds, "metrics: 5 s is not a bucket boundary")
    for name, h in m.get("histograms", {}).items():
        counts = h.get("bucket_counts", [])
        check(len(counts) == len(bounds) + 1,
              f"metrics: {name} has {len(counts)} buckets, want {len(bounds) + 1}")
        check(sum(counts) == h.get("count"),
              f"metrics: {name} bucket sum {sum(counts)} != count {h.get('count')}")
    return m


def validate_trace(path):
    with open(path) as f:
        t = json.load(f)
    events = t.get("traceEvents")
    check(isinstance(events, list), "trace: no traceEvents array")
    check(events, "trace: empty traceEvents")
    for e in events or []:
        for key in ("name", "cat", "ph", "pid", "tid", "ts"):
            check(key in e, f"trace: event missing {key!r}: {e}")
        check(e.get("ph") in ("X", "i", "C"), f"trace: unexpected phase {e.get('ph')!r}")
        if e.get("ph") == "X":
            check(e.get("dur", -1) >= 0, f"trace: complete span with bad dur: {e}")
        if e.get("ph") == "C":
            check("value" in e.get("args", {}), f"trace: counter without value: {e}")
    return t


# Table 1 as printed by table1_matching: "<label>  <packets>  <addresses>".
TABLE1_ROWS = {
    "Survey-detected": "survey_detected",
    "Naive matching": "naive",
    "Broadcast responses": "broadcast",
    "Duplicate responses": "duplicate",
    "Survey + Delayed": "combined",
}


def validate_table1(metrics, stdout_path):
    with open(stdout_path) as f:
        text = f.read()
    counters = metrics.get("counters", {})
    matched = 0
    for label, key in TABLE1_ROWS.items():
        m = re.search(rf"^{re.escape(label)}\s+(\d+)\s+(\d+)\s*$", text, re.M)
        check(m, f"table1: printed row {label!r} not found")
        if not m:
            continue
        matched += 1
        packets, addresses = int(m.group(1)), int(m.group(2))
        check(counters.get(f"pipeline.{key}.packets") == packets,
              f"table1: {label}: printed {packets} packets, "
              f"counter {counters.get(f'pipeline.{key}.packets')}")
        check(counters.get(f"pipeline.{key}.addresses") == addresses,
              f"table1: {label}: printed {addresses} addresses, "
              f"counter {counters.get(f'pipeline.{key}.addresses')}")
    check(matched == len(TABLE1_ROWS), "table1: incomplete table in stdout")


# The turtle::fault reconciliation contract (see fault_injector.h): each
# entry is (sum of injected-side counters) == (sum of observed-side
# counters). Absent counters read as zero.
FAULT_EQUATIONS = [
    (("fault.injected.outage_drops", "fault.injected.loss_drops"),
     ("fault.net.dropped_packets",)),
    (("fault.injected.delayed_packets",), ("fault.net.delayed_packets",)),
    (("fault.injected.dup_copies", "fault.injected.broadcast_copies"),
     ("fault.net.extra_copies",)),
    (("fault.injected.crashes",), ("fault.survey.crashes", "fault.serve.crashes")),
    (("fault.records.hit",),
     ("fault.records.detectable", "fault.records.silent")),
    (("fault.records.detectable",), ("fault.records.load_skipped",)),
]


def validate_fault(metrics):
    counters = metrics.get("counters", {})
    fault_counters = {k: v for k, v in counters.items() if k.startswith("fault.")}
    check(fault_counters, "fault: no fault.* counters in a --fault run")
    for injected, observed in FAULT_EQUATIONS:
        lhs = sum(counters.get(name, 0) for name in injected)
        rhs = sum(counters.get(name, 0) for name in observed)
        check(lhs == rhs,
              f"fault: {' + '.join(injected)} = {lhs} but "
              f"{' + '.join(observed)} = {rhs}")
    # Note: survey.* aggregate counters (matched/timeouts) intentionally
    # diverge from the record log under crashes — records roll back to the
    # last checkpoint while counters keep counting — so they are NOT
    # asserted here.


def validate_serve(metrics):
    counters = metrics.get("counters", {})
    check(any(k.startswith("serve.") for k in counters),
          "serve: no serve.* counters in a --serve run")
    c = lambda name: counters.get(name, 0)

    # One scope tier answers each lookup.
    check(c("serve.scope_block") + c("serve.scope_as") + c("serve.scope_global")
          == c("serve.lookups"),
          "serve: scope counters do not sum to serve.lookups")

    if "daemon.proto.queries" in counters:
        validate_daemon_serve(metrics)
        return

    # The admission ledger: nothing offered is ever silently dropped.
    check(c("serve.served") + c("serve.shed") + c("serve.queued") == c("serve.offered"),
          f"serve: served {c('serve.served')} + shed {c('serve.shed')} + "
          f"queued {c('serve.queued')} != offered {c('serve.offered')}")
    check(c("serve.shed_overload") + c("serve.shed_down") + c("serve.shed_net")
          == c("serve.shed"),
          "serve: shed reasons do not sum to serve.shed")

    # The execution ledger: one cache consult per lookup.
    check(c("serve.cache_hits") + c("serve.cache_misses") == c("serve.lookups"),
          f"serve: cache hits {c('serve.cache_hits')} + misses "
          f"{c('serve.cache_misses')} != lookups {c('serve.lookups')}")

    # One latency observation per served request.
    latency = metrics.get("histograms", {}).get("serve.latency", {})
    check(latency.get("count", 0) == c("serve.served"),
          f"serve: latency histogram count {latency.get('count', 0)} != "
          f"served {c('serve.served')}")

    # Crash recovery actually recovered a snapshot — either the preferred
    # zero-copy reload of the snapshot file or the rebuild-from-log path.
    if c("fault.serve.crashes") > 0:
        check(c("serve.snapshot_rebuilds") + c("serve.snapshot_reloads") >= 1,
              "serve: server crashed but never reloaded or rebuilt a snapshot")


def validate_daemon_serve(metrics):
    """turtled answers each QUERY from its snapshot as it reads it: no
    queue, cache or latency model, so its ledger is the wire's."""
    counters = metrics["counters"]
    c = lambda name: counters.get(name, 0)
    check(c("serve.offered") == c("daemon.proto.queries"),
          f"serve: offered {c('serve.offered')} != daemon.proto.queries "
          f"{c('daemon.proto.queries')}")
    check(c("serve.served") + c("serve.shed") == c("serve.offered"),
          f"serve: served {c('serve.served')} + shed {c('serve.shed')} != "
          f"offered {c('serve.offered')}")
    check(c("serve.lookups") == c("serve.served"),
          f"serve: lookups {c('serve.lookups')} != served {c('serve.served')}")
    answered = metrics.get("histograms", {}).get("serve.timeout_answered", {})
    check(answered.get("count", 0) == c("serve.served"),
          f"serve: timeout_answered count {answered.get('count', 0)} != "
          f"served {c('serve.served')}")


# --- flight-recorder dump audit (see src/obs/flight.h) -----------------


def _add_counts(acc, section):
    for name, value in section.items():
        acc[name] = acc.get(name, 0) + value


def _add_slices(acc, section, num_buckets):
    for name, h in section.items():
        slot = acc.setdefault(name, {"count": 0, "sum_us": 0,
                                     "bucket_counts": [0] * num_buckets})
        slot["count"] += h.get("count", 0)
        slot["sum_us"] += h.get("sum_us", 0)
        counts = h.get("bucket_counts", [])
        check(len(counts) == num_buckets,
              f"flight: {name} slice has {len(counts)} buckets, want {num_buckets}")
        for i, c in enumerate(counts[:num_buckets]):
            slot["bucket_counts"][i] += c


def validate_flight(path, metrics, trace):
    with open(path) as f:
        flight = json.load(f)
    check(flight.get("schema") == "turtle-flight-v1", "flight: bad schema field")
    window_us = flight.get("window_us", 0)
    check(window_us > 0, "flight: window_us must be positive")
    bounds = flight.get("histogram_bucket_bounds_us", [])
    check(bounds and bounds == sorted(bounds), "flight: bucket bounds missing/unsorted")
    num_buckets = len(bounds) + 1

    frames = flight.get("frames", [])
    baseline = flight.get("baseline", {})
    cumulative = flight.get("cumulative", {})

    # No wall-clock name anywhere in a deterministic dump.
    sections = [baseline] + frames + [cumulative]
    for section in sections:
        for kind in ("counters", "gauges", "histograms", "watchdog"):
            for name in section.get(kind, {}):
                check(not name.startswith("wall."),
                      f"flight: wall-clock metric {name!r} leaked into flight dump")

    # Frames tile simulated time contiguously, one window each (the final
    # frame may be partial; a zero-length trailing frame carries post-drain
    # bookkeeping).
    for i, frame in enumerate(frames):
        check(frame.get("index") == frames[0].get("index", 0) + i,
              f"flight: frame {i} has index {frame.get('index')}, not contiguous")
        if i > 0:
            check(frame.get("start_us") == frames[i - 1].get("end_us"),
                  f"flight: frame {i} starts at {frame.get('start_us')} but the "
                  f"previous frame ended at {frames[i - 1].get('end_us')}")
        if i + 1 < len(frames):
            check(frame.get("end_us") - frame.get("start_us") == window_us,
                  f"flight: interior frame {i} is not exactly one window long")

    # Conservation: baseline + sum(frames) == cumulative, exactly.
    counter_sum = {}
    _add_counts(counter_sum, baseline.get("counters", {}))
    hist_sum = {}
    _add_slices(hist_sum, baseline.get("histograms", {}), num_buckets)
    for frame in frames:
        _add_counts(counter_sum, frame.get("counters", {}))
        _add_slices(hist_sum, frame.get("histograms", {}), num_buckets)
    cumulative_counters = cumulative.get("counters", {})
    for name, total in cumulative_counters.items():
        check(counter_sum.get(name, 0) == total,
              f"flight: counter {name}: baseline+frames {counter_sum.get(name, 0)} "
              f"!= cumulative {total}")
    for name in counter_sum:
        check(name in cumulative_counters,
              f"flight: counter {name} in frames but missing from cumulative")
    cumulative_histograms = cumulative.get("histograms", {})
    for name, h in cumulative_histograms.items():
        got = hist_sum.get(name, {"count": 0, "sum_us": 0,
                                  "bucket_counts": [0] * num_buckets})
        check(got["count"] == h.get("count"),
              f"flight: histogram {name}: baseline+frames count {got['count']} "
              f"!= cumulative {h.get('count')}")
        check(got["sum_us"] == h.get("sum_us"),
              f"flight: histogram {name}: baseline+frames sum_us {got['sum_us']} "
              f"!= cumulative {h.get('sum_us')}")
        check(got["bucket_counts"] == h.get("bucket_counts"),
              f"flight: histogram {name}: per-bucket conservation violated")

    # Cross-check against the registry dump: the flight's cumulative view
    # and --metrics-out describe the same registry.
    if metrics:
        for name, value in metrics.get("counters", {}).items():
            check(cumulative_counters.get(name, 0) == value,
                  f"flight: cumulative counter {name} {cumulative_counters.get(name, 0)} "
                  f"!= metrics dump {value}")

    # Watchdog fires recorded per frame must equal the watchdog.* counters.
    frame_fires = {}
    for section in [baseline] + frames:
        _add_counts(frame_fires, section.get("watchdog", {}))
    counters = metrics.get("counters", {}) if metrics else cumulative_counters
    for name, value in counters.items():
        if name.startswith("watchdog."):
            rule = name[len("watchdog."):]
            check(frame_fires.get(rule, 0) == value,
                  f"flight: frame fires for {rule} = {frame_fires.get(rule, 0)} "
                  f"!= counter {name} = {value}")
    for rule, fires in frame_fires.items():
        check(counters.get(f"watchdog.{rule}", 0) == fires,
              f"flight: frames record {fires} fires for {rule} but counter "
              f"watchdog.{rule} is {counters.get(f'watchdog.{rule}', 0)}")

    # Exemplars: the value must land in the claimed bucket, and the trace
    # id must resolve to at least one tagged event in the trace output.
    traced_ids = set()
    if trace:
        for e in trace.get("traceEvents", []):
            tid = e.get("args", {}).get("trace_id")
            if tid:
                traced_ids.add(tid)
    for name, exemplars in flight.get("exemplars", {}).items():
        check(name in cumulative_histograms,
              f"flight: exemplars for unknown histogram {name!r}")
        seen_buckets = set()
        for ex in exemplars:
            bucket, value_us = ex.get("bucket"), ex.get("value_us")
            check(ex.get("trace_id", 0) != 0, f"flight: {name} exemplar without trace id")
            check(bucket not in seen_buckets,
                  f"flight: {name} has two exemplars for bucket {bucket}")
            seen_buckets.add(bucket)
            check(0 <= bucket < num_buckets, f"flight: {name} exemplar bucket {bucket}")
            lo = bounds[bucket - 1] if bucket > 0 else None
            hi = bounds[bucket] if bucket < len(bounds) else None
            check((lo is None or value_us > lo) and (hi is None or value_us <= hi),
                  f"flight: {name} exemplar value {value_us} us outside bucket {bucket}")
            hist = cumulative_histograms.get(name, {})
            if 0 <= bucket < num_buckets and hist:
                check(hist.get("bucket_counts", [0] * num_buckets)[bucket] > 0,
                      f"flight: {name} exemplar pinned to empty bucket {bucket}")
            if trace:
                check(ex.get("trace_id") in traced_ids,
                      f"flight: {name} exemplar trace id {ex.get('trace_id')} has no "
                      f"tagged event in the trace")
    return flight


# --- snapshot-v1 file audit (see src/serve/snapshot_format.h) ----------

_CRC64_POLY = 0xC96C5795D7870F42  # CRC-64/XZ, reflected


def _crc64_table():
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ (_CRC64_POLY if crc & 1 else 0)
        table.append(crc)
    return table


def crc64(data, table=_crc64_table()):
    """CRC-64/XZ, independent of the C++ implementation it audits."""
    crc = 0xFFFFFFFFFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFFFFFFFFFF


SNAPSHOT_MAGIC = b"TRTLSNAP"
SNAPSHOT_HEADER_BYTES = 256


def validate_snapshot(path, metrics):
    with open(path, "rb") as f:
        data = f.read()
    check(len(data) >= SNAPSHOT_HEADER_BYTES, f"snapshot: {len(data)} bytes, no header")
    if len(data) < SNAPSHOT_HEADER_BYTES:
        return
    check(data[:8] == SNAPSHOT_MAGIC, "snapshot: bad magic")
    format_version, header_bytes = struct.unpack_from("<II", data, 8)
    check(format_version == 1, f"snapshot: format_version {format_version}, want 1")
    check(header_bytes == SNAPSHOT_HEADER_BYTES,
          f"snapshot: header_bytes {header_bytes}, want {SNAPSHOT_HEADER_BYTES}")
    file_bytes, body_crc, header_crc = struct.unpack_from("<QQQ", data, 16)
    check(file_bytes == len(data),
          f"snapshot: header declares {file_bytes} bytes, file has {len(data)}")
    # Header CRC covers the 256 header bytes with its own field zeroed.
    header = bytearray(data[:SNAPSHOT_HEADER_BYTES])
    header[32:40] = b"\x00" * 8
    computed_header_crc = crc64(header)
    check(computed_header_crc == header_crc,
          f"snapshot: header crc {computed_header_crc:#x} != stored {header_crc:#x}")
    computed_body_crc = crc64(data[SNAPSHOT_HEADER_BYTES:])
    check(computed_body_crc == body_crc,
          f"snapshot: body crc {computed_body_crc:#x} != stored {body_crc:#x}")

    total_samples = struct.unpack_from("<Q", data, 48)[0]
    block_count, as_count = struct.unpack_from("<II", data, 84)

    # The header's tier counts must be the counts the build served into the
    # metrics registry — the file and the observability agree.
    gauges = metrics.get("gauges", {})
    for gauge, header_value in (("snapshot.blocks", block_count),
                                ("snapshot.ases", as_count),
                                ("snapshot.total_samples", total_samples)):
        if gauge in gauges:
            check(gauges[gauge] == header_value,
                  f"snapshot: header {gauge.split('.')[1]} {header_value} != "
                  f"gauge {gauge} {gauges[gauge]}")

    # The build ledger closes: every input record folded or counted skipped.
    counters = metrics.get("counters", {})
    if "snapshot.build.records_in" in counters:
        records_in = counters["snapshot.build.records_in"]
        folded = counters.get("snapshot.build.records_folded", 0)
        skipped = counters.get("snapshot.build.records_skipped", 0)
        check(records_in == folded + skipped,
              f"snapshot: ledger records_in {records_in} != folded {folded} "
              f"+ skipped {skipped}")


def validate_policy(metrics):
    """The PolicyEngine ledger (see src/serve/policy_engine.h).

    For the aggregate and for every per-policy namespace — any counter
    named `policy.<...>.decisions` — the decision ledger must close:
    decisions == timeouts + correct_waits, with false_timeouts a subset of
    timeouts and answered_cold a subset of answered where the serving-side
    counters exist.
    """
    counters = metrics.get("counters", {})
    ledgers = [name[:-len(".decisions")] for name in counters
               if name.startswith("policy.") and name.endswith(".decisions")]
    check(ledgers, "policy: no policy.*.decisions counters in a --policy run")
    for base in sorted(ledgers):
        c = lambda suffix: counters.get(f"{base}.{suffix}", 0)
        check(c("decisions") == c("timeouts") + c("correct_waits"),
              f"policy: {base}.decisions {c('decisions')} != timeouts "
              f"{c('timeouts')} + correct_waits {c('correct_waits')}")
        check(c("false_timeouts") <= c("timeouts"),
              f"policy: {base}.false_timeouts {c('false_timeouts')} > "
              f"timeouts {c('timeouts')}")
        if f"{base}.answered" in counters or f"{base}.answered_cold" in counters:
            check(c("answered_cold") <= c("answered"),
                  f"policy: {base}.answered_cold {c('answered_cold')} > "
                  f"answered {c('answered')}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--metrics",
                        help="metrics JSON dump (required unless only "
                             "auditing a --snapshot file)")
    parser.add_argument("--trace")
    parser.add_argument("--stdout", help="captured table1_matching output")
    parser.add_argument("--fault", action="store_true",
                        help="the run used --fault-plan: check fault.* reconciliation")
    parser.add_argument("--serve", action="store_true",
                        help="a serve_loadgen run or a turtled dump: check the serve.* "
                             "accounting ledger")
    parser.add_argument("--policy", action="store_true",
                        help="a policy_tournament run: check every policy.* "
                             "decision ledger closes")
    parser.add_argument("--snapshot",
                        help="snapshot-v1 file to audit (checksums, header counts, ledger)")
    parser.add_argument("--flight",
                        help="turtle-flight-v1 dump to audit (conservation, watchdog "
                             "fires, exemplar resolution)")
    args = parser.parse_args()
    if args.metrics is None and not ((args.snapshot or args.flight) and not args.stdout
                                     and not args.fault and not args.serve
                                     and not args.policy):
        parser.error("--metrics is required unless only --snapshot/--flight is given")

    metrics = validate_metrics(args.metrics) if args.metrics else {}
    trace = validate_trace(args.trace) if args.trace else {}
    if args.stdout:
        validate_table1(metrics, args.stdout)
    if args.fault:
        validate_fault(metrics)
    if args.serve:
        validate_serve(metrics)
    if args.policy:
        validate_policy(metrics)
    if args.snapshot:
        validate_snapshot(args.snapshot, metrics)
    if args.flight:
        validate_flight(args.flight, metrics, trace)

    if FAILURES:
        for failure in FAILURES:
            print(f"validate_obs: {failure}", file=sys.stderr)
        return 1
    print("validate_obs: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
