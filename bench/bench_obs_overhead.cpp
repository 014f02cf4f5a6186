// Overhead of the obs tracing layer — what an instrumented production
// run pays with recording disarmed, and what arming the per-thread
// trace rings costs on a realistic distributed workload. Two
// configurations run the same P=4 Burgers streaming SVD:
//
//   disabled   spans compiled in but disarmed: every PARSVD_TRACE_SCOPE
//              costs one relaxed atomic load (the production default)
//   armed      every span/instant recorded into the per-thread rings
//
// The PR's acceptance target is < 2% overhead for the armed
// configuration. The bench records — it does not hard-gate — the
// timing, because shared CI runners make wall-clock assertions flaky;
// smoke mode instead asserts the invariants that cannot be
// load-sensitive: bit-identical singular values across configurations,
// per-rank trace rows covering >= 95% of that rank's wall time, and a
// Perfetto-loadable flush.
//
// Usage:
//   bench_obs_overhead                 full sweep, writes BENCH_obs.json
//   bench_obs_overhead --smoke         small sizes, correctness asserts
//   bench_obs_overhead --out=F         write the JSON to F
//   bench_obs_overhead --trace-out=F   also flush the last armed trace
//   PARSVD_BENCH_OUT=F                 same as --out=F
//
// JSON schema (schema_version 1):
//   { bench, schema_version, smoke, ranks, rows_per_rank, snapshots,
//     batch, reps, disabled_seconds, armed_seconds, overhead_pct,
//     trace_events, trace_dropped, coverage_min_pct,
//     results_bit_identical }
// `*_seconds` is the best of `reps` interleaved repetitions.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/parallel_streaming.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "pmpi/comm.hpp"
#include "support/env.hpp"
#include "support/timer.hpp"
#include "workloads/batch_source.hpp"
#include "workloads/burgers.hpp"
#include "workloads/streaming_executor.hpp"

namespace {

namespace wl = parsvd::workloads;
using parsvd::Index;
using parsvd::Vector;
using parsvd::pmpi::Communicator;

constexpr int kRanks = 4;

struct Interval {
  std::int64_t start, end;
};

struct RunResult {
  double seconds = 0.0;
  Vector svals;
  // Per rank, [entry, exit] of its body on the obs clock: the wall time
  // that rank's trace row should cover.
  std::vector<Interval> rank_windows;
};

RunResult run_streaming_once(Index rows_per_rank, Index snapshots,
                             Index batch) {
  wl::BurgersConfig cfg;
  cfg.grid_points = rows_per_rank * kRanks;
  cfg.snapshots = snapshots;
  const wl::Burgers burgers(cfg);

  parsvd::StreamingOptions sopts;
  sopts.num_modes = 8;
  sopts.forget_factor = 1.0;

  RunResult out;
  out.rank_windows.resize(kRanks);
  parsvd::Stopwatch sw;
  sw.start();
  parsvd::pmpi::run(kRanks, [&](Communicator& comm) {
    const std::int64_t entry = parsvd::obs::clock().now_ns();
    const auto part = wl::partition_rows(cfg.grid_points, kRanks, comm.rank());
    auto gen = [&burgers, part](Index col0, Index ncols) {
      return burgers.snapshot_block(part.offset, part.count, col0, ncols);
    };
    auto source = std::make_unique<wl::GeneratorBatchSource>(
        part.count, snapshots, std::move(gen));
    parsvd::ParallelStreamingSVD svd(comm, sopts);
    wl::StreamingExecutorOptions eopts;
    eopts.batch_cols = batch;
    wl::run_streaming(svd, std::move(source), eopts);
    if (comm.is_root()) out.svals = svd.singular_values();
    out.rank_windows[static_cast<std::size_t>(comm.rank())] = {
        entry, parsvd::obs::clock().now_ns()};
  });
  out.seconds = sw.stop();
  return out;
}

bool bit_identical(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return false;
  for (Index i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

struct TraceStats {
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
  double coverage_min_pct = 0.0;  // min over ranks of span-union / wall
  int rank_rows = 0;
};

// Coverage of each rank's traced wall time by its process row: union of
// that rank's span intervals over the rank's own [entry, exit] window.
// Per-rank windows keep OS scheduling skew out of the figure — a rank
// thread launched late, or one that leaves while the root finishes the
// final mode gather, is not running untraced work.
TraceStats analyze_trace(const std::vector<Interval>& rank_windows) {
  namespace trace = parsvd::obs::trace;
  TraceStats stats;
  const std::vector<trace::FlushedEvent> events = trace::snapshot();
  stats.dropped = trace::dropped();

  // pid -> intervals; pids are small (rank+1, 0 = shared).
  std::vector<std::vector<Interval>> by_pid(
      static_cast<std::size_t>(kRanks) + 1);
  for (const auto& fe : events) {
    if (fe.event.dur_ns < 0) continue;  // instants don't cover time
    ++stats.events;
    if (fe.pid >= 1 && fe.pid <= kRanks) {
      by_pid[static_cast<std::size_t>(fe.pid)].push_back(
          {fe.event.start_ns, fe.event.start_ns + fe.event.dur_ns});
    }
  }
  if (stats.events == 0) return stats;

  stats.coverage_min_pct = 100.0;
  for (int pid = 1; pid <= kRanks; ++pid) {
    auto& ivals = by_pid[static_cast<std::size_t>(pid)];
    const Interval& window = rank_windows[static_cast<std::size_t>(pid - 1)];
    const double wall = static_cast<double>(window.end - window.start);
    if (ivals.empty() || wall <= 0.0) continue;
    ++stats.rank_rows;
    std::sort(ivals.begin(), ivals.end(),
              [](const Interval& a, const Interval& b) {
                return a.start < b.start;
              });
    std::int64_t covered = 0;
    std::int64_t last_end = std::numeric_limits<std::int64_t>::min();
    for (const Interval& iv : ivals) {
      if (iv.start > last_end) {
        covered += iv.end - iv.start;
        last_end = iv.end;
      } else if (iv.end > last_end) {
        covered += iv.end - last_end;
        last_end = iv.end;
      }
    }
    stats.coverage_min_pct = std::min(
        stats.coverage_min_pct, 100.0 * static_cast<double>(covered) / wall);
  }
  if (stats.rank_rows == 0) stats.coverage_min_pct = 0.0;
  return stats;
}

double overhead_pct(double base, double other) {
  return base > 0.0 ? (other / base - 1.0) * 100.0 : 0.0;
}

bool write_json(const std::string& path, bool smoke, Index rows_per_rank,
                Index snapshots, Index batch, int reps,
                const RunResult& disabled, const RunResult& armed,
                const TraceStats& stats, bool identical) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"obs\",\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"ranks\": %d,\n", kRanks);
  std::fprintf(f, "  \"rows_per_rank\": %lld,\n",
               static_cast<long long>(rows_per_rank));
  std::fprintf(f, "  \"snapshots\": %lld,\n", static_cast<long long>(snapshots));
  std::fprintf(f, "  \"batch\": %lld,\n", static_cast<long long>(batch));
  std::fprintf(f, "  \"reps\": %d,\n", reps);
  std::fprintf(f, "  \"disabled_seconds\": %.6e,\n", disabled.seconds);
  std::fprintf(f, "  \"armed_seconds\": %.6e,\n", armed.seconds);
  std::fprintf(f, "  \"overhead_pct\": %.3f,\n",
               overhead_pct(disabled.seconds, armed.seconds));
  std::fprintf(f, "  \"trace_events\": %llu,\n",
               static_cast<unsigned long long>(stats.events));
  std::fprintf(f, "  \"trace_dropped\": %llu,\n",
               static_cast<unsigned long long>(stats.dropped));
  std::fprintf(f, "  \"coverage_min_pct\": %.2f,\n", stats.coverage_min_pct);
  std::fprintf(f, "  \"results_bit_identical\": %s\n",
               identical ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  namespace trace = parsvd::obs::trace;
  bool smoke = false;
  std::string out = parsvd::env::get_string("PARSVD_BENCH_OUT", "BENCH_obs.json");
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=PATH] [--trace-out=PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  // The armed cost has a fixed component (each fresh thread's first span
  // allocates its ring), so the full sweep must run long enough for that
  // to amortize — the < 2% claim is about steady-state production runs,
  // not few-millisecond toys.
  const Index rows_per_rank = smoke ? 96 : 1024;
  const Index snapshots = smoke ? 48 : 240;
  const Index batch = 12;
  const int reps = smoke ? 2 : 5;

  // Interleave configurations (disabled, armed, disabled, armed, ...)
  // and keep the per-config best, so load spikes on a shared runner hit
  // both configurations equally.
  RunResult disabled, armed;
  disabled.seconds = armed.seconds = std::numeric_limits<double>::max();
  TraceStats stats;
  for (int rep = 0; rep < reps; ++rep) {
    trace::arm(false);
    RunResult d = run_streaming_once(rows_per_rank, snapshots, batch);
    if (d.seconds < disabled.seconds) {
      disabled.seconds = d.seconds;
      disabled.svals = d.svals;
    }

    trace::reset();  // only this rep's spans feed the coverage analysis
    trace::arm(true);
    RunResult a = run_streaming_once(rows_per_rank, snapshots, batch);
    trace::arm(false);
    if (a.seconds < armed.seconds) {
      armed.seconds = a.seconds;
      armed.svals = a.svals;
    }
    // Writers quiescent: run() joined its threads.
    stats = analyze_trace(a.rank_windows);
  }

  int failures = 0;
  const bool identical = bit_identical(disabled.svals, armed.svals);
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: singular values differ between disabled and armed\n");
    ++failures;
  }
  if (stats.events == 0) {
    std::fprintf(stderr, "FAIL: armed run recorded no spans\n");
    ++failures;
  }
  if (stats.rank_rows != kRanks) {
    std::fprintf(stderr, "FAIL: trace has %d rank rows, expected %d\n",
                 stats.rank_rows, kRanks);
    ++failures;
  }
  if (stats.coverage_min_pct < 95.0) {
    std::fprintf(stderr, "FAIL: min rank coverage %.2f%% < 95%%\n",
                 stats.coverage_min_pct);
    ++failures;
  }

  if (!trace_out.empty()) {
    if (trace::flush_json_to(trace_out)) {
      std::printf("wrote %s\n", trace_out.c_str());
    } else {
      std::fprintf(stderr, "FAIL: cannot write trace to %s\n",
                   trace_out.c_str());
      ++failures;
    }
  }

  std::printf(
      "obs overhead (%d ranks, %lld rows/rank, %lld snapshots, best of %d): "
      "disabled %.3f ms, armed %.3f ms (%+.2f%%), %llu spans "
      "(%llu dropped), min rank coverage %.1f%%\n",
      kRanks, static_cast<long long>(rows_per_rank),
      static_cast<long long>(snapshots), reps, disabled.seconds * 1e3,
      armed.seconds * 1e3, overhead_pct(disabled.seconds, armed.seconds),
      static_cast<unsigned long long>(stats.events),
      static_cast<unsigned long long>(stats.dropped), stats.coverage_min_pct);

  const bool wrote = write_json(out, smoke, rows_per_rank, snapshots, batch,
                                reps, disabled, armed, stats, identical);
  return (failures == 0 && wrote) ? 0 : 1;
}
