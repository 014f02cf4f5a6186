#!/usr/bin/env python3
"""CI gate for the comm benchmark trajectory.

Validates a freshly produced BENCH_comm.json (usually a --smoke run)
against the committed trajectory:

  1. both files parse and carry the schema_version-2 keys;
  2. the committed trajectory's acceptance claims hold (prefetch >= +20%
     with ingest latency; prefetch on/off bit-identical);
  3. for every (collective, topology, ranks, payload_bytes) entry present
     in BOTH files, the deterministic per-round byte/message counters
     agree exactly. The counters are exact functions of the topology, so
     a drift means a collective silently changed shape — the regression
     wall-clock timing cannot flag on a noisy shared runner.

Usage: check_bench_comm.py FRESH_JSON COMMITTED_JSON
"""

import sys

import benchlib
from benchlib import fail

REQUIRED_TOP = [
    "bench",
    "schema_version",
    "collectives",
    "prefetch",
    "prefetch_zero_latency",
]
REQUIRED_ENTRY = [
    "collective",
    "topology",
    "ranks",
    "payload_bytes",
    "seconds",
    "bytes_per_round",
    "messages_per_round",
    "root_bytes_per_round",
]
GATED_COUNTERS = ["bytes_per_round", "messages_per_round", "root_bytes_per_round"]


def load(path):
    return benchlib.load_record(
        path, "comm", 2, REQUIRED_TOP, {"collectives": REQUIRED_ENTRY})


def entry_key(e):
    return (e["collective"], e["topology"], e["ranks"], e["payload_bytes"])


def main(argv):
    fresh_path, committed_path, _ = benchlib.parse_gate_args(argv, __doc__)
    fresh = load(fresh_path)
    committed = load(committed_path)

    pref = committed["prefetch"]
    if not pref.get("bit_identical"):
        fail("committed trajectory: prefetch results not bit-identical")
    gain = pref["sync_seconds"] / pref["prefetch_seconds"] - 1.0
    if gain < 0.20:
        fail(
            f"committed trajectory: prefetch gain {gain * 100:.1f}% "
            "below the 20% acceptance bar"
        )
    if not committed["prefetch_zero_latency"].get("bit_identical"):
        fail("committed trajectory: zero-latency prefetch not bit-identical")

    compared = 0
    for key, e, ref in benchlib.match_entries(
            fresh["collectives"], committed["collectives"], entry_key):
        for counter in GATED_COUNTERS:
            benchlib.gate_exact(key, counter, e[counter], ref[counter])
        compared += 1
    benchlib.require_compared(compared)

    if not fresh["prefetch"].get("bit_identical"):
        fail("fresh run: prefetch results not bit-identical")

    print(
        f"OK: {compared} collective entries match exactly, claims hold "
        f"(prefetch {gain * 100:+.1f}%)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
