#!/usr/bin/env python3
"""CI gate for the dense-kernel benchmark trajectory.

Validates a freshly produced BENCH_kernels.json (usually a --smoke run)
against the committed full-size trajectory:

  1. both files parse, carry the schema_version-2 keys (including the
     blocking profile actually used), and report zero correctness
     failures (every kernel matched its reference and the
     compensated-dot fixtures were exact);
  2. claim fields are honest: a smoke run must emit them as null —
     never as fabricated zeros — and a full run must emit them all;
  3. the committed trajectory's acceptance claim holds: the packed GEMM
     beats the seed kernel at 512^3, and the recorded speedup field is
     consistent with the seconds it was derived from;
  4. for every result entry present in BOTH files (matched on
     kernel/m/n/k/threads) the deterministic flop model agrees exactly —
     a drift means a kernel changed its arithmetic, which wall-clock
     noise on a shared runner can never flag;
  5. if the committed run carried an autotune section, the recorded
     GEMM winner is sane: best_seconds <= default_seconds and the sweep
     visited at least one candidate.

Usage: check_bench_kernels.py FRESH_JSON COMMITTED_JSON
"""

import sys

import benchlib
from benchlib import fail

REQUIRED_TOP = [
    "bench",
    "schema_version",
    "smoke",
    "hardware_concurrency",
    "blocking",
    "results",
    "autotune",
    "gemm_512_seed_seconds",
    "gemm_512_packed_seconds",
    "gemm_512_speedup_vs_seed",
    "failures",
]
REQUIRED_RESULT = ["kernel", "m", "n", "k", "threads", "seconds", "gflops", "flops"]
REQUIRED_BLOCKING = ["mc", "kc", "nc", "mr", "nr"]
CLAIM_FIELDS = [
    "gemm_512_seed_seconds",
    "gemm_512_packed_seconds",
    "gemm_512_speedup_vs_seed",
]


def load(path):
    doc = benchlib.load_record(
        path, "kernels", 2, REQUIRED_TOP, {"results": REQUIRED_RESULT})
    blocking = doc["blocking"]
    if "f64" not in blocking:
        fail(f"{path}: blocking missing 'f64'")
    for key in REQUIRED_BLOCKING:
        if not isinstance(blocking["f64"].get(key), int):
            fail(f"{path}: blocking.f64.{key} missing or not an int")
    if not isinstance(blocking.get("qr_block"), int):
        fail(f"{path}: blocking.qr_block missing or not an int")
    if "tuned" not in blocking:
        fail(f"{path}: blocking.tuned missing")
    if doc["failures"] != 0:
        fail(f"{path}: {doc['failures']} correctness failures recorded")
    # Honesty gate (the bug this schema revision fixed): a smoke run has
    # no full-size measurements, so its claim fields must be null — a
    # zero here is a fabricated number.
    for field in CLAIM_FIELDS:
        value = doc[field]
        if doc["smoke"]:
            if value is not None:
                fail(
                    f"{path}: smoke run carries claim field '{field}'="
                    f"{value!r} (must be null — smoke sizes cannot "
                    f"support the claims)"
                )
        else:
            if not isinstance(value, (int, float)) or value <= 0:
                fail(f"{path}: full run claim field '{field}'={value!r} invalid")
    return doc


def result_key(e):
    return (e["kernel"], e["m"], e["n"], e["k"], e["threads"])


def check_speedup_consistency(doc, num_key, den_key, speedup_key):
    num, den, speedup = doc[num_key], doc[den_key], doc[speedup_key]
    want = num / den
    if abs(speedup - want) / want > 1e-6:
        fail(
            f"committed trajectory: {speedup_key}={speedup:.6g} inconsistent "
            f"with {num_key}/{den_key}={want:.6g}"
        )


def check_committed_claims(doc):
    if doc["smoke"]:
        fail("committed trajectory is a smoke run — claims need a full run")
    check_speedup_consistency(
        doc, "gemm_512_seed_seconds", "gemm_512_packed_seconds",
        "gemm_512_speedup_vs_seed")
    if doc["gemm_512_speedup_vs_seed"] <= 1.0:
        fail(
            "committed trajectory: packed gemm "
            f"{doc['gemm_512_speedup_vs_seed']:.2f}x does not beat the seed "
            "kernel at 512^3"
        )
    autotune = doc["autotune"]
    if autotune is not None:
        entry = autotune.get("f64")
        if entry is None:
            fail("committed trajectory: autotune section missing 'f64'")
        if entry.get("candidates", 0) < 1:
            fail("committed trajectory: autotune.f64 visited no candidates")
        if entry["best_seconds"] > entry["default_seconds"]:
            fail(
                "committed trajectory: autotune.f64 winner "
                f"({entry['best_seconds']:.3e}s) slower than the default "
                f"blocking ({entry['default_seconds']:.3e}s)"
            )


def main(argv):
    fresh_path, committed_path, _ = benchlib.parse_gate_args(argv, __doc__)
    fresh = load(fresh_path)
    committed = load(committed_path)
    check_committed_claims(committed)

    compared = 0
    for key, e, ref in benchlib.match_entries(
            fresh["results"], committed["results"], result_key):
        # The flop model is an exact function of (kernel, shape): any
        # drift means a kernel changed its arithmetic.
        benchlib.gate_exact(key, "flop model", e["flops"], ref["flops"])
        compared += 1
    benchlib.require_compared(compared)

    print(
        f"OK: {compared} matched entries, claim holds (packed "
        f"{committed['gemm_512_speedup_vs_seed']:.2f}x vs seed at 512^3)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
