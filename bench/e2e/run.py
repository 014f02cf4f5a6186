#!/usr/bin/env python3
"""End-to-end benchmark of the paper pipelines with a per-layer time split.

One command builds the benchmark driver (bench/e2e/parsvd_e2e.cpp) in a
separate Release tree, runs the workloads (one process each), checks their
outputs and prints every metric by name with its unit.

  run.py [--seed=S] [--seconds=T] [--traced] [--smoke] [--repeat=N]
      Run all four workloads. --traced adds a traced run per workload
      (the per-layer split); --repeat=N runs each workload N times with
      the same seed and checks that the exact counters repeat.

  run.py --workload NAME --seed S --seconds T --trace 0|1
      Run one workload. The last line of stdout is one JSON object
      {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
      end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
      metrics.

The exit status is non-zero when any check fails: a failed operation,
singular values that differ between units (or between the traced and the
untraced run), an accuracy check outside its tolerance, dropped trace
events, per-rank span coverage below 95%, or counters that differ between
repeated runs of one seed.

Everything the benchmark builds or writes stays in build-bench/ at the
repository root; every PARSVD_* variable is stripped from the children's
environment, so all configuration comes from the flags above.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
BUILD = ROOT / "build-bench"
DRIVER = BUILD / "parsvd_e2e"
HOOK = pathlib.Path(__file__).resolve().parent / "hook.cmake"

WORKLOADS = ["burgers_stream", "burgers_monitor", "era5_stream", "apmos_weak"]
# Workloads checked against a batch SVD computed by a --reference process;
# the two Burgers streams factor the same matrix.
REFERENCE_KIND = {"burgers_stream": "burgers", "burgers_monitor": "burgers",
                  "apmos_weak": "apmos"}

# Accuracy tolerances (absolute). sigma_err: max |sigma_k - sigma_ref_k| /
# sigma_ref_1 over the retained modes; the streaming value is the K = 10
# truncation error of one pass (~3e-3 at full size).
TOL_SIGMA_STREAM = 2e-2
TOL_SIGMA_APMOS = 1e-3
TOL_MODE_COS = 0.99      # era5_stream: min |cos| vs the planted modes
TOL_RECON = 0.1          # burgers_monitor: mean ||B - Phi Phi^T B|| / ||B||
MIN_COVERAGE_PCT = 95.0

DRIVER_TIMEOUT_S = 170


def child_env() -> dict:
    return {k: v for k, v in os.environ.items() if not k.startswith("PARSVD_")}


def run(cmd, timeout):
    return subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                          capture_output=True, text=True, check=False)


def build() -> None:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit(f"run.py: {ROOT} holds no parsvd source tree")
    if shutil.which("cmake") is None:
        raise SystemExit("run.py: cmake not found")
    BUILD.mkdir(exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DPARSVD_BUILD_TESTS=OFF", "-DPARSVD_BUILD_BENCH=OFF",
                      "-DPARSVD_BUILD_EXAMPLES=OFF",
                      f"-DCMAKE_PROJECT_parsvd_INCLUDE={HOOK}"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "--target", "parsvd_e2e",
                  "-j", jobs])
    with open(BUILD / "e2e-build.log", "a", encoding="utf-8") as out:
        for cmd in steps:
            res = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=out,
                                 stderr=subprocess.STDOUT, timeout=850,
                                 check=False)
            if res.returncode != 0:
                raise SystemExit(f"run.py: build step failed: {' '.join(cmd)} "
                                 f"(see {BUILD / 'e2e-build.log'})")


def driver_json(cmd) -> dict:
    res = run(cmd, DRIVER_TIMEOUT_S)
    lines = res.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"run.py: {' '.join(cmd)} printed nothing "
                         f"(exit {res.returncode}): {res.stderr.strip()}")
    try:
        out = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise SystemExit(f"run.py: {' '.join(cmd)} printed no JSON result")
    out["_exit"] = res.returncode
    return out


def reference(workload: str, seed: int, smoke: bool):
    kind = REFERENCE_KIND.get(workload)
    if kind is None:
        return None
    cache = BUILD / "e2e-cache" / f"ref-{kind}-{seed}{'-smoke' if smoke else ''}.json"
    if cache.is_file():
        return json.loads(cache.read_text(encoding="utf-8"))
    cmd = [str(DRIVER), "--reference", f"--workload={workload}", f"--seed={seed}"]
    if smoke:
        cmd.append("--smoke")
    ref = driver_json(cmd)
    if ref["_exit"] != 0:
        raise SystemExit(f"run.py: reference for {workload} failed")
    cache.parent.mkdir(exist_ok=True)
    cache.write_text(json.dumps(ref), encoding="utf-8")
    return ref


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 smoke: bool) -> dict:
    data = BUILD / "e2e-data"
    data.mkdir(exist_ok=True)
    cmd = [str(DRIVER), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--data-dir={data}"]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    return driver_json(cmd)


def sigma_err(got, ref) -> float:
    k = min(len(got), len(ref))
    if k == 0 or ref[0] <= 0:
        return math.inf
    return max(abs(got[i] - ref[i]) for i in range(k)) / ref[0]


def checks(out: dict, ref) -> list:
    """(name, value, ok) for every check of one driver result."""
    res = []
    chk = out["check"]
    res.append(("exit_status", out["_exit"], out["_exit"] == 0))
    res.append(("failed_ops", out["failed"], out["failed"] == 0 and not out["error"]))
    res.append(("finite", chk["finite"], chk["finite"]))
    res.append(("sigma_bit_identical_across_units", chk["sigma_stable"],
                chk["sigma_stable"]))
    res.append(("counters_identical_across_units", out["exact"]["counts_stable"],
                out["exact"]["counts_stable"]))
    if ref is not None:
        tol = TOL_SIGMA_APMOS if out["workload"] == "apmos_weak" else TOL_SIGMA_STREAM
        e = sigma_err(chk["sigma"], ref["sigma"])
        res.append(("sigma_err", e, e <= tol))
        if "sigma_p1" in ref:
            e1 = sigma_err(chk.get("sigma_p1", []), ref["sigma_p1"])
            res.append(("sigma_err_p1", e1, e1 <= tol))
    if "mode_cos_min" in chk:
        res.append(("mode_cos_min", chk["mode_cos_min"],
                    chk["mode_cos_min"] >= TOL_MODE_COS))
    if "recon_err" in chk:
        res.append(("recon_err", chk["recon_err"], chk["recon_err"] <= TOL_RECON))
    if out["traced"]:
        m = out["metrics"]
        dropped = m["obs.trace_dropped"]["value"]
        cov = m["obs.coverage_min_pct"]["value"]
        res.append(("trace_dropped", dropped, dropped == 0))
        res.append(("coverage_min_pct", cov, cov >= MIN_COVERAGE_PCT))
    return res


def benchmark_metrics():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None, None
    doc = json.loads(spec.read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def fmt(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "NO"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def print_result(out: dict, results: list) -> None:
    mode = "traced" if out["traced"] else "untraced"
    print(f"== {out['workload']} (seed {out['seed']}, {mode}, "
          f"{out['info']['ops']} timed ops, tail = p{out['info']['tail_pct']:g})")
    for name, m in out["metrics"].items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
    for key, val in out["info"].items():
        if key not in ("ops", "tail_pct"):
            print(f"  info.{key:<25} {fmt(val) if not isinstance(val, list) else val}")
    if out["traced"]:
        print("  spans on rank 0 (self ms per op, count):")
        for name, s in sorted(out["spans"].items(),
                              key=lambda kv: -kv[1]["self_ms_per_op"]):
            print(f"    {name:<30} {s['self_ms_per_op']:>12.5f} {s['count']:>9}")
    for name, value, ok in results:
        print(f"  check {name:<34} {fmt(value):>14}  {'ok' if ok else 'FAIL'}")


def host_line(out: dict) -> str:
    h = out["host"]
    model = "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown"
    try:
        top = run(["git", "rev-parse", "--show-toplevel"], 10)
        if top.returncode == 0 and pathlib.Path(top.stdout.strip()) == ROOT:
            sha = run(["git", "rev-parse", "HEAD"], 10).stdout.strip() or sha
    except (OSError, subprocess.SubprocessError):
        pass
    return (f"host: nproc {h['nproc']}, cpu {model}, L2 {h['l2_kb']} KiB, "
            f"L3 {h['l3_kb']} KiB, gcc {h['compiler']}, git {sha}, "
            f"ranks {h['ranks']} x {h['threads_per_rank']} thread(s), "
            f"tune profile {h['tune_profile']} (tuned: {h['tune_tuned']})")


def run_one(args) -> int:
    traced = bool(args.trace)
    out = run_workload(args.workload, args.seed, args.seconds, traced, args.smoke)
    results = checks(out, reference(args.workload, args.seed, args.smoke))
    print(host_line(out))
    print_result(out, results)
    e2e, layer = benchmark_metrics()
    want = layer if traced else e2e
    metrics = out["metrics"]
    ok = all(r[2] for r in results)
    if want is not None:
        missing = sorted(set(want) - set(metrics))
        if missing:
            print(f"  metrics missing from the driver: {missing}")
            ok = False
        metrics = {k: metrics[k] for k in want if k in metrics}
    print(json.dumps({"correct": ok, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if ok else 1


def full(args) -> int:
    sel = run([str(DRIVER), "--selftest"], 60)
    print(sel.stdout.strip())
    ok = sel.returncode == 0
    printed_host = False
    for wl in WORKLOADS:
        ref = reference(wl, args.seed, args.smoke)
        exact = []
        untraced = None
        for rep in range(args.repeat):
            out = run_workload(wl, args.seed, args.seconds, False, args.smoke)
            if not printed_host:
                print(host_line(out))
                printed_host = True
            results = checks(out, ref)
            if rep == 0:
                untraced = out
            exact.append(out["exact"])
            print_result(out, results)
            ok &= all(r[2] for r in results)
        if args.repeat > 1:
            same = all(e == exact[0] for e in exact)
            print(f"  check {'counters_identical_across_runs':<34} "
                  f"{fmt(same):>14}  {'ok' if same else 'FAIL'}")
            ok &= same
        if args.trace:
            out = run_workload(wl, args.seed, args.seconds, True, args.smoke)
            results = checks(out, ref)
            same = out["check"]["sigma"] == untraced["check"]["sigma"]
            results.append(("sigma_bit_identical_traced_untraced", same, same))
            print_result(out, results)
            ok &= all(r[2] for r in results)
    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


def main(argv) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds per run (default 25, 1 with --smoke)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--repeat", type=int, default=1)
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else 25.0
    if args.seed < 0 or args.seconds <= 0 or args.repeat < 1:
        p.error("--seed must be >= 0, --seconds > 0 and --repeat >= 1")
    if args.trace is None:
        args.trace = 1 if args.traced else 0
    build()
    if args.workload:
        return run_one(args)
    return full(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
