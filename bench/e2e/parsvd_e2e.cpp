// parsvd_e2e — end-to-end benchmark of the paper's pipelines, with the
// wall time of each run split across the library's layers.
//
//   parsvd_e2e --workload=NAME --seed=S [--seconds=T] [--traced] [--smoke]
//              [--data-dir=DIR]
//   parsvd_e2e --reference --workload=NAME --seed=S [--smoke]
//   parsvd_e2e --selftest
//
// Workloads (ranks are threads, never more than 4; the kernel pool is
// pinned to one thread and prefetch is off, so no run keeps more threads
// busy than a 4-core host has):
//
//   burgers_stream   closed loop: ParallelStreamingSVD over the Burgers
//                    matrix plus seeded noise, replayed pass after pass;
//                    the update-latency regime (TSQR + mode gather).
//   burgers_monitor  closed loop where every update also projects,
//                    reconstructs and gathers the modes, so work moved
//                    from writes onto reads shows up here.
//   era5_stream      the ERA5 analogue written to a SnapshotStore during
//                    set-up and streamed back through run_streaming; the
//                    root-SVD-bound regime with real ingest.
//   apmos_weak       one-shot APMOS solves at P=4 and P=1 (Fig 1c); the
//                    kernel-bound regime that bypasses the streaming code.
//
// Every input comes from --seed. The program under test only ever sees the
// generated matrices; references (batch SVDs) are computed by a separate
// --reference process so they never touch the timings or peak RSS.
//
// Timing: a run repeats whole, identical units (a pass over the stream, a
// solve) until --seconds are spent; the first unit is a discarded warm-up.
// All ranks meet twice between units and rank 0 reads the counters in
// between, so every counter delta covers whole units and nothing else:
// byte, message and flop counts per operation are exact.
//
// An op's time is the largest thread-CPU time any rank spent on it. The
// ranks block (not spin) while they wait for each other, so this is the
// op's cost on dedicated cores: unlike wall time it excludes scheduler
// delays and hypervisor steal, which on a shared host more than double an
// op's wall-time p90 in some runs and not in others.
//
// Tracing (--traced): units alternate armed / disarmed. The armed ones
// feed the per-layer split (nesting-aware self time of every recorded
// span, read back with obs::trace::snapshot()); comparing the two halves
// gives the tracing overhead. Untraced runs give the end-to-end metrics.
//
// Output: one JSON object on stdout; bench/e2e/run.py checks it against
// the references and prints the report.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/apmos.hpp"
#include "core/parallel_streaming.hpp"
#include "io/snapshot_store.hpp"
#include "linalg/autotune.hpp"
#include "linalg/svd.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pmpi/comm.hpp"
#include "post/metrics.hpp"
#include "span_split.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "workloads/batch_source.hpp"
#include "workloads/burgers.hpp"
#include "workloads/era5_synthetic.hpp"
#include "workloads/streaming_executor.hpp"

namespace parsvd::e2e {
namespace {

namespace wl = workloads;
namespace trace = obs::trace;
using pmpi::Communicator;

constexpr int kRanks = 4;
// Set-up repeats at least kMinSetups times and until kSetupSeconds are
// spent (at most kMaxSetups); setup_s is the median. Short set-ups get
// more repetitions, since single-core speed on a shared host swings by
// tens of percent from one second to the next.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 25;
constexpr double kSetupSeconds = 1.0;
// Per-thread trace rings. The rank threads of the timed job record up to
// ~10^5 spans each in a traced run, far above the 16384-event default;
// the short-lived set-up threads record a handful and get small rings.
constexpr std::size_t kRingEvents = std::size_t{1} << 18;
constexpr std::size_t kSetupRingEvents = 4096;

std::int64_t now_ns() { return obs::clock().now_ns(); }
double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-6;
}

// ------------------------------------------------------------ arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string data_dir = ".";
  bool traced = false;
  bool smoke = false;
  bool reference = false;
  bool selftest = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&](std::string_view key, std::string& out) {
      if (arg.substr(0, key.size()) != key) return false;
      out = std::string(arg.substr(key.size()));
      return true;
    };
    std::string v;
    if (value("--workload=", v)) {
      a.workload = v;
    } else if (value("--seed=", v)) {
      char* end = nullptr;
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return false;
    } else if (value("--seconds=", v)) {
      char* end = nullptr;
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (value("--data-dir=", v)) {
      a.data_dir = v;
    } else if (arg == "--traced") {
      a.traced = true;
    } else if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--reference") {
      a.reference = true;
    } else if (arg == "--selftest") {
      a.selftest = true;
    } else {
      return false;
    }
  }
  return a.selftest || !a.workload.empty();
}

// ------------------------------------------------------------- sizes

// White noise added to every Burgers snapshot, so the inputs (and the
// solver's work) depend on --seed.
constexpr double kNoiseRms = 1e-3;

// Burgers stream (Fig 1a/b): the paper's 16384 x 800 matrix, K = 10, B = 10.
struct BurgersSize {
  Index grid, snapshots, batch, modes;
};
BurgersSize burgers_size(bool smoke) {
  if (smoke) return {1024, 80, 10, 10};
  return {16384, 800, 10, 10};
}

// ERA5 analogue (Fig 2): the 2.5-degree grid; 2000 six-hourly snapshots
// (a quarter of the paper's 8-year record keeps the store write inside a
// run's set-up budget), K = 4, B = 200.
struct Era5Size {
  Index n_lon, n_lat, snapshots, batch, modes;
};
Era5Size era5_size(bool smoke) {
  if (smoke) return {36, 18, 400, 40, 4};
  return {144, 72, 2000, 200, 4};
}

// APMOS weak scaling (Fig 1c): 1024 rows per rank, r1 = 50, r2 = 5. 256
// snapshots instead of the paper's 800: an 800-snapshot solve takes ~0.9 s
// here, too few samples per run for a tail; the local stage stays in the
// method-of-snapshots regime (M_i = 1024 >> N).
struct ApmosSize {
  Index rows_per_rank, snapshots, r1, r2;
};
ApmosSize apmos_size(bool smoke) {
  if (smoke) return {128, 64, 16, 4};
  return {1024, 256, 50, 5};
}

// Seed streams: one derived generator per input, so no two inputs share
// random numbers and each is reproducible from --seed alone.
enum : std::uint64_t { kNoiseStream = 1, kSketchStream = 2 };

Rng seed_stream(std::uint64_t seed, std::uint64_t stream, std::uint64_t sub) {
  return Rng(seed).split(stream * 1000003ULL + sub);
}

// The row blocks of the Burgers matrix (grid x snapshots) over `ranks`
// ranks, with seeded white noise. Partition and noise streams depend only
// on (ranks, seed), so the --reference process rebuilds the same matrix.
std::vector<Matrix> noisy_burgers(Index grid, Index snapshots, int ranks,
                                  std::uint64_t seed) {
  wl::BurgersConfig cfg;
  cfg.grid_points = grid;
  cfg.snapshots = snapshots;
  const wl::Burgers burgers(cfg);
  std::vector<Matrix> blocks;
  for (int rk = 0; rk < ranks; ++rk) {
    const auto part = wl::partition_rows(grid, ranks, rk);
    Matrix block = burgers.snapshot_block(part.offset, part.count, 0, snapshots);
    Rng rng = seed_stream(seed, kNoiseStream,
                          static_cast<std::uint64_t>(ranks) * 64 +
                              static_cast<std::uint64_t>(rk));
    double* d = block.data();
    for (Index i = 0; i < block.size(); ++i) d[i] += kNoiseRms * rng.gaussian();
    blocks.push_back(std::move(block));
  }
  return blocks;
}

wl::Era5Config era5_config(const Era5Size& s, std::uint64_t seed) {
  wl::Era5Config cfg;
  cfg.n_lon = s.n_lon;
  cfg.n_lat = s.n_lat;
  cfg.snapshots = s.snapshots;
  cfg.seed = seed;
  return cfg;
}

ApmosOptions apmos_options(const ApmosSize& s) {
  ApmosOptions o;
  o.r1 = s.r1;
  o.r2 = s.r2;
  o.low_rank = true;  // the paper's randomized+parallel deployment
  o.randomized.oversampling = 8;
  o.randomized.power_iterations = 1;
  o.method = SvdMethod::MethodOfSnapshots;  // M_i >> N local stage
  o.eigh_method = EighMethod::Tridiagonal;
  return o;
}

// ------------------------------------------------------------ small math

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

bool bit_identical(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(double)) == 0;
}

// ------------------------------------------------------------ JSON out

class Json {
 public:
  Json& key(std::string_view k) {
    sep();
    out_ += '"';
    out_ += k;
    out_ += "\":";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    sep();
    char buf[40];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    out_ += buf;
    return *this;
  }
  Json& integer(std::uint64_t v) {
    sep();
    out_ += std::to_string(v);
    return *this;
  }
  Json& boolean(bool v) {
    sep();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& str(std::string_view s) {
    sep();
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += (c == '\n') ? ' ' : c;
    }
    out_ += '"';
    return *this;
  }
  Json& vec(const Vector& v) {
    return arr(std::vector<double>(v.begin(), v.end()));
  }
  Json& arr(const std::vector<double>& v) {
    sep();
    out_ += '[';
    fresh_ = true;
    for (double x : v) num(x);
    out_ += ']';
    fresh_ = false;
    return *this;
  }
  Json& open() {
    sep();
    out_ += '{';
    fresh_ = true;
    return *this;
  }
  Json& close() {
    out_ += '}';
    fresh_ = false;
    return *this;
  }
  const std::string& text() const { return out_; }

 private:
  void sep() {
    if (!fresh_ && !out_.empty()) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

// ------------------------------------------------------------ counters

// Registry counters the benchmark reads as deltas across whole units.
struct Counters {
  std::uint64_t gemm_flops = 0, gemm_calls = 0, qr_flops = 0, qr_calls = 0;
  std::uint64_t bytes = 0, messages = 0, retransmits = 0, timeouts = 0;

  static Counters read(pmpi::Context& ctx) {
    obs::Registry& g = obs::Registry::global();
    Counters c;
    c.gemm_flops = g.counter("linalg.gemm.flops").value();
    c.gemm_calls = g.counter("linalg.gemm.calls").value();
    c.qr_flops = g.counter("linalg.qr.flops").value();
    c.qr_calls = g.counter("linalg.qr.calls").value();
    c.bytes = ctx.total_bytes();
    c.messages = ctx.total_messages();
    c.retransmits = ctx.retransmits();
    c.timeouts = ctx.metrics().counter("comm.timeouts").value();
    return c;
  }
  Counters operator-(const Counters& o) const {
    return {gemm_flops - o.gemm_flops, gemm_calls - o.gemm_calls,
            qr_flops - o.qr_flops,     qr_calls - o.qr_calls,
            bytes - o.bytes,           messages - o.messages,
            retransmits - o.retransmits, timeouts - o.timeouts};
  }
  bool operator==(const Counters&) const = default;
};

// ------------------------------------------------------------ run state

struct Op {
  int unit;
  double ms;  // this rank's thread-CPU time
};

// What one rank records. Written only by its own thread; read after the
// job has joined.
struct RankLog {
  std::vector<Op> ops;
  std::vector<Interval> armed_windows;
  std::vector<double> recon_num, recon_den;  // burgers_monitor, per update
};

// Times `op` in this thread's CPU time and logs it for `unit`.
template <class F>
void timed_op(RankLog& log, int unit, F&& op) {
  const double cpu0 = thread_cpu_seconds();
  op();
  log.ops.push_back({unit, (thread_cpu_seconds() - cpu0) * 1e3});
}

// State the rank threads of one job share through the harness (never
// through the algorithm). Rank 0 writes between the two unit barriers,
// while every other rank is parked in the second one.
struct Job {
  explicit Job(int p) : logs(static_cast<std::size_t>(p)) {}
  std::vector<RankLog> logs;
  std::atomic<bool> stop{false};
  std::atomic<bool> armed{false};
  std::int64_t timed_start = 0;
  Counters last{};
  std::vector<Counters> unit_counts;  // per timed unit
  std::vector<char> unit_armed;
  std::vector<Vector> unit_sigma;     // root's singular values per unit
  Matrix first_modes;                 // root's modes after unit 0
};

// Runs `unit(k)` on this rank until the time budget is spent. Unit 0 is
// the warm-up. Between units every rank meets twice; in between, rank 0
// reads the counters (the previous unit's delta), decides whether to stop
// and, in a traced run, arms every other unit.
void unit_loop(Communicator& comm, Job& job, double seconds, bool traced,
               const std::function<void(int)>& unit) {
  RankLog& log = job.logs[static_cast<std::size_t>(comm.rank())];
  for (int k = 0;; ++k) {
    comm.barrier();
    if (comm.is_root()) {
      const Counters now = Counters::read(comm.context());
      if (k >= 2) {
        job.unit_counts.push_back(now - job.last);
        job.unit_armed.push_back(job.armed.load() ? 1 : 0);
      }
      job.last = now;
      if (k == 1) job.timed_start = now_ns();
      const int min_units = traced ? 3 : 2;  // warm-up + timed (both kinds)
      const bool spent =
          k >= min_units &&
          ms_between(job.timed_start, now_ns()) >= seconds * 1e3;
      job.stop.store(spent);
      const bool arm = traced && k >= 1 && (k % 2 == 1) && !spent;
      job.armed.store(arm);
      trace::arm(arm);
    }
    comm.barrier();
    if (job.stop.load()) break;
    const bool armed = job.armed.load();
    const std::int64_t t0 = now_ns();
    unit(k);
    if (armed) log.armed_windows.push_back({t0, now_ns()});
  }
}

// Times every streaming update run_streaming drives through it; the
// bench.update span is the request id the per-layer split groups by.
class TimedSvd final : public SvdBase {
 public:
  TimedSvd(ParallelStreamingSVD& inner, RankLog& log, int unit)
      : SvdBase(inner.options()), inner_(inner), log_(log), unit_(unit) {}

  void initialize(const Matrix& batch) override {
    PARSVD_TRACE_SCOPE("bench.initialize");
    inner_.initialize(batch);
  }
  void incorporate_data(const Matrix& batch) override {
    PARSVD_TRACE_SCOPE("bench.update");
    timed_op(log_, unit_, [&] { inner_.incorporate_data(batch); });
  }

 private:
  ParallelStreamingSVD& inner_;
  RankLog& log_;
  int unit_;
};

// ------------------------------------------------------------ results

struct Result {
  std::string workload;
  std::vector<double> setup_s;
  double tail_q = 0.9;  // op_ms_tail percentile, set per workload
  // Per timed op: the slowest rank's CPU time and the unit's armed flag.
  std::vector<double> op_ms;
  std::vector<char> op_armed;
  double snaps_per_op = 0.0;   // snapshots one op absorbs (snaps_per_s)
  double ingest_mb_per_op = 0.0;
  Counters per_op{};           // exact per-op counters
  bool counts_stable = true;
  std::uint64_t attempted = 0, failed = 0;
  std::string error;
  // Correctness.
  Vector sigma;                // checkpoint singular values (root)
  Vector sigma_p1;             // apmos_weak P=1 solve
  bool sigma_stable = true;    // every unit (armed or not) bit-identical
  double mode_cos_min = -1.0;  // era5_stream
  double recon_err = -1.0;     // burgers_monitor
  bool finite = true;
  double apmos_p1_ms_p50 = 0.0;  // apmos_weak: median P=1 solve CPU
  // Traced run: per_layer metrics (value, unit) and, per span name seen
  // on rank 0, its self time per op and count.
  std::map<std::string, std::pair<double, std::string>> layer;
  std::map<std::string, std::pair<double, std::uint64_t>> spans;
};

void collect_ops(Result& r, const Job& job, int ranks) {
  const std::vector<Op>& root_ops = job.logs[0].ops;
  for (std::size_t i = 0; i < root_ops.size(); ++i) {
    if (root_ops[i].unit < 1) continue;  // warm-up
    double slowest = 0.0;
    for (int rk = 0; rk < ranks; ++rk) {
      slowest = std::max(slowest, job.logs[static_cast<std::size_t>(rk)].ops[i].ms);
    }
    r.op_ms.push_back(slowest);
    r.op_armed.push_back(job.unit_armed[static_cast<std::size_t>(root_ops[i].unit - 1)]);
  }
}

// Exact per-op counters: every timed unit runs the same ops, so every
// unit's delta must match and per-op = delta / ops-per-unit.
void collect_counts(Result& r, const Job& job, double ops_per_unit) {
  if (job.unit_counts.empty()) return;
  const Counters& first = job.unit_counts.front();
  for (const Counters& c : job.unit_counts) {
    if (!(c == first)) r.counts_stable = false;
  }
  const auto per = [&](std::uint64_t v) {
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(v) / ops_per_unit));
  };
  r.per_op = {per(first.gemm_flops), per(first.gemm_calls),
              per(first.qr_flops),   per(first.qr_calls),
              per(first.bytes),      per(first.messages),
              0, 0};
  for (const Counters& c : job.unit_counts) {
    r.per_op.retransmits += c.retransmits;
    r.per_op.timeouts += c.timeouts;
  }
}

void check_units_sigma(Result& r, const Job& job) {
  if (job.unit_sigma.empty()) return;
  r.sigma = job.unit_sigma.front();
  for (const Vector& s : job.unit_sigma) {
    if (!bit_identical(s, r.sigma)) r.sigma_stable = false;
    for (Index i = 0; i < s.size(); ++i) {
      if (!std::isfinite(s[i])) r.finite = false;
    }
  }
}

// ------------------------------------------------------------ set-up

// Runs `build` repeatedly (the last result is kept) and records each
// duration, including the start-up of a P-rank pmpi job.
template <class Build>
void timed_setups(Result& r, int ranks, Build&& build) {
  double spent = 0.0;
  for (int i = 0; i < kMinSetups || (spent < kSetupSeconds && i < kMaxSetups);
       ++i) {
    const std::int64_t t0 = now_ns();
    build();
    {
      PARSVD_TRACE_SCOPE("bench.pmpi.startup");
      pmpi::run(ranks, [](Communicator& comm) { comm.barrier(); });
    }
    r.setup_s.push_back(ms_between(t0, now_ns()) * 1e-3);
    spent += r.setup_s.back();
  }
  trace::set_ring_capacity(kRingEvents);  // for the timed job's rank threads
}

void split_layers(Result& r, const Job& job, int ranks);

// ------------------------------------------------------------ workloads

// ff = 1: every pass reproduces the batch SVD's subspace up to the
// truncation, so results are comparable against the batch reference.
StreamingOptions streaming_options(Index modes) {
  StreamingOptions o;
  o.num_modes = modes;
  o.forget_factor = 1.0;
  return o;
}

std::vector<Matrix> burgers_blocks(const BurgersSize& s, std::uint64_t seed) {
  return noisy_burgers(s.grid, s.snapshots, kRanks, seed);
}

// Column slices of an in-memory row block: the workloads-layer source the
// in-memory inputs are ingested through.
std::unique_ptr<wl::BatchSource> slicer(const Matrix& block) {
  return std::make_unique<wl::GeneratorBatchSource>(
      block.rows(), block.cols(), [&block](Index col0, Index ncols) {
        return block.block(0, col0, block.rows(), ncols);
      });
}

void run_burgers_stream(const Args& a, Result& r) {
  const BurgersSize s = burgers_size(a.smoke);
  std::vector<Matrix> blocks;
  timed_setups(r, kRanks, [&] {
    PARSVD_TRACE_SCOPE("bench.workloads.generate");
    blocks = burgers_blocks(s, a.seed);
  });
  const StreamingOptions opts = streaming_options(s.modes);
  wl::StreamingExecutorOptions eopts;
  eopts.batch_cols = s.batch;
  eopts.prefetch = false;

  Job job(kRanks);
  pmpi::run(kRanks, [&](Communicator& comm) {
    RankLog& log = job.logs[static_cast<std::size_t>(comm.rank())];
    const Matrix& block = blocks[static_cast<std::size_t>(comm.rank())];
    unit_loop(comm, job, a.seconds, a.traced, [&](int k) {
      ParallelStreamingSVD psvd(comm, opts);
      TimedSvd timed(psvd, log, k);
      wl::run_streaming(timed, slicer(block), eopts);
      if (comm.is_root()) job.unit_sigma.push_back(psvd.singular_values());
    });
  });
  const double updates = static_cast<double>(s.snapshots / s.batch - 1);
  collect_ops(r, job, kRanks);
  collect_counts(r, job, updates);
  check_units_sigma(r, job);
  r.snaps_per_op = static_cast<double>(s.batch);
  r.ingest_mb_per_op = static_cast<double>(s.grid * s.snapshots) * 8.0 /
                       updates / (1024.0 * 1024.0);
  r.tail_q = 0.9;
  if (a.traced) split_layers(r, job, kRanks);
}

void run_burgers_monitor(const Args& a, Result& r) {
  const BurgersSize s = burgers_size(a.smoke);
  std::vector<Matrix> blocks;
  timed_setups(r, kRanks, [&] {
    PARSVD_TRACE_SCOPE("bench.workloads.generate");
    blocks = burgers_blocks(s, a.seed);
  });
  const StreamingOptions opts = streaming_options(s.modes);
  const Index per_pass = s.snapshots / s.batch - 1;  // batch 0 initializes

  // One solver for the whole run; a unit is one pass over batches
  // 1..per_pass, which cycle forever.
  Job job(kRanks);
  Vector final_sigma;
  pmpi::run(kRanks, [&](Communicator& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    RankLog& log = job.logs[me];
    const Matrix& block = blocks[me];
    ParallelStreamingSVD psvd(comm, opts);
    psvd.initialize(block.block(0, 0, block.rows(), s.batch));
    wl::GeneratorBatchSource source(
        block.rows(), INT64_MAX / 2, [&block, &s, per_pass](Index col0, Index n) {
          const Index b = 1 + (col0 / s.batch) % per_pass;
          return block.block(0, b * s.batch, block.rows(), n);
        });
    unit_loop(comm, job, a.seconds, a.traced, [&](int k) {
      for (Index i = 0; i < per_pass; ++i) {
        Matrix batch;
        Matrix recon;
        timed_op(log, k, [&] {
          PARSVD_TRACE_SCOPE("bench.update");
          {
            PARSVD_TRACE_SCOPE("bench.workloads.ingest");
            batch = source.next_batch(s.batch);
          }
          Matrix coeffs;
          {
            PARSVD_TRACE_SCOPE("bench.core.project");
            coeffs = psvd.project(batch);
          }
          {
            PARSVD_TRACE_SCOPE("bench.core.reconstruct");
            recon = psvd.reconstruct(coeffs);
          }
          {
            PARSVD_TRACE_SCOPE("bench.core.physical_modes");
            (void)psvd.physical_modes();
          }
          psvd.incorporate_data(batch);
        });
        if (k == 1) {
          // The accuracy check covers the second pass, once the model has
          // seen the whole stream (every run has one), outside the timing.
          PARSVD_TRACE_SCOPE("bench.check");
          const double den = batch.norm_fro();
          recon -= batch;
          const double num = recon.norm_fro();
          log.recon_num.push_back(num * num);
          log.recon_den.push_back(den * den);
        }
      }
      // Checkpoint after one full pass: the stream so far is exactly the
      // 800-column matrix the batch reference factors.
      if (comm.is_root() && k == 0) job.unit_sigma.push_back(psvd.singular_values());
    });
    if (comm.is_root()) final_sigma = psvd.singular_values();
  });

  collect_ops(r, job, kRanks);
  collect_counts(r, job, static_cast<double>(per_pass));
  check_units_sigma(r, job);
  for (Index i = 0; i < final_sigma.size(); ++i) {
    if (!std::isfinite(final_sigma[i])) r.finite = false;
  }
  double err_sum = 0.0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(per_pass); ++i) {
    double num = 0.0, den = 0.0;
    for (const RankLog& log : job.logs) {
      num += log.recon_num[i];
      den += log.recon_den[i];
    }
    err_sum += den > 0.0 ? std::sqrt(num / den) : 0.0;
  }
  r.recon_err = err_sum / static_cast<double>(per_pass);
  r.snaps_per_op = static_cast<double>(s.batch);
  r.ingest_mb_per_op = static_cast<double>(s.grid * s.batch) * 8.0 /
                       (1024.0 * 1024.0);
  r.tail_q = 0.9;
  if (a.traced) split_layers(r, job, kRanks);
}

void run_era5_stream(const Args& a, Result& r) {
  const Era5Size s = era5_size(a.smoke);
  const wl::Era5Config cfg = era5_config(s, a.seed);
  const std::string store =
      a.data_dir + "/era5-" + std::to_string(a.seed) + ".snap";
  std::unique_ptr<wl::Era5Synthetic> era;
  // Set-up generates the field and writes it to the store in 256-snapshot
  // slabs, as the Fig 2 bench does; the store is read back every pass.
  timed_setups(r, kRanks, [&] {
    {
      PARSVD_TRACE_SCOPE("bench.workloads.generate");
      era = std::make_unique<wl::Era5Synthetic>(cfg);
    }
    io::SnapshotWriter writer(store, era->grid_size(), 64);
    for (Index written = 0; written < cfg.snapshots;) {
      const Index take = std::min<Index>(256, cfg.snapshots - written);
      Matrix chunk;
      {
        PARSVD_TRACE_SCOPE("bench.workloads.generate");
        chunk = era->snapshot_block(0, era->grid_size(), written, take,
                                    /*subtract_mean=*/true);
      }
      PARSVD_TRACE_SCOPE("bench.io.write");
      writer.append_batch(chunk);
      written += take;
    }
    PARSVD_TRACE_SCOPE("bench.io.write");
    writer.close();
  });

  const StreamingOptions opts = streaming_options(s.modes);
  wl::StreamingExecutorOptions eopts;
  eopts.batch_cols = s.batch;
  eopts.prefetch = false;

  Job job(kRanks);
  pmpi::run(kRanks, [&](Communicator& comm) {
    RankLog& log = job.logs[static_cast<std::size_t>(comm.rank())];
    const auto part = wl::partition_rows(era->grid_size(), kRanks, comm.rank());
    unit_loop(comm, job, a.seconds, a.traced, [&](int k) {
      ParallelStreamingSVD psvd(comm, opts);
      TimedSvd timed(psvd, log, k);
      wl::run_streaming(
          timed,
          std::make_unique<wl::StoreBatchSource>(store, part.offset, part.count),
          eopts);
      if (comm.is_root()) {
        job.unit_sigma.push_back(psvd.singular_values());
        if (k == 0) job.first_modes = psvd.modes();
      }
    });
  });
  std::remove(store.c_str());

  const double updates =
      static_cast<double>((s.snapshots + s.batch - 1) / s.batch - 1);
  collect_ops(r, job, kRanks);
  collect_counts(r, job, updates);
  check_units_sigma(r, job);
  r.mode_cos_min = 1.0;
  for (Index m = 0; m < s.modes; ++m) {
    r.mode_cos_min = std::min(
        r.mode_cos_min, post::mode_cosine(job.first_modes, m, era->true_modes(), m));
  }
  r.snaps_per_op = static_cast<double>(s.batch);
  r.ingest_mb_per_op = static_cast<double>(era->grid_size() * s.snapshots) *
                       8.0 / updates / (1024.0 * 1024.0);
  r.tail_q = 0.75;  // ~110 updates per 25 s run: 25+ samples beyond p75
  if (a.traced) split_layers(r, job, kRanks);
}

// One APMOS phase at P ranks: every unit loads the rank's block through
// the workloads layer and solves; the op is the solve.
void run_apmos_phase(const Args& a, const std::vector<Matrix>& blocks,
                     double seconds, bool traced, Job& job) {
  const ApmosSize s = apmos_size(a.smoke);
  const ApmosOptions opts = apmos_options(s);
  const int ranks = static_cast<int>(blocks.size());
  pmpi::run(ranks, [&](Communicator& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    RankLog& log = job.logs[me];
    const Matrix& block = blocks[me];
    unit_loop(comm, job, seconds, traced, [&](int k) {
      Matrix local;
      {
        PARSVD_TRACE_SCOPE("bench.workloads.ingest");
        local = slicer(block)->next_batch(block.cols());
      }
      Rng rng = seed_stream(a.seed, kSketchStream, static_cast<std::uint64_t>(ranks));
      ApmosResult res;
      timed_op(log, k, [&] {
        PARSVD_TRACE_SCOPE("bench.solve");
        res = apmos_svd(comm, local, opts, &rng);
      });
      if (comm.is_root()) job.unit_sigma.push_back(res.s);
    });
  });
}

std::vector<Matrix> apmos_blocks(const ApmosSize& s, int ranks,
                                 std::uint64_t seed) {
  return noisy_burgers(s.rows_per_rank * ranks, s.snapshots, ranks, seed);
}

void run_apmos_weak(const Args& a, Result& r) {
  const ApmosSize s = apmos_size(a.smoke);
  std::vector<Matrix> blocks4, blocks1;
  timed_setups(r, kRanks, [&] {
    PARSVD_TRACE_SCOPE("bench.workloads.generate");
    blocks4 = apmos_blocks(s, kRanks, a.seed);
    blocks1 = apmos_blocks(s, 1, a.seed);
  });
  // P=4 is the measured configuration; P=1 is the single-thread baseline
  // for the weak-scaling efficiency and is never traced.
  Job job4(kRanks), job1(1);
  run_apmos_phase(a, blocks4, 0.9 * a.seconds, a.traced, job4);
  run_apmos_phase(a, blocks1, 0.1 * a.seconds, false, job1);

  collect_ops(r, job4, kRanks);
  collect_counts(r, job4, 1.0);
  check_units_sigma(r, job4);
  Result p1;
  collect_ops(p1, job1, 1);
  check_units_sigma(p1, job1);
  r.sigma_p1 = p1.sigma;
  r.sigma_stable = r.sigma_stable && p1.sigma_stable;
  r.finite = r.finite && p1.finite;
  r.apmos_p1_ms_p50 = median(p1.op_ms);
  r.snaps_per_op = static_cast<double>(s.snapshots);
  r.ingest_mb_per_op = static_cast<double>(s.rows_per_rank * kRanks *
                                           s.snapshots) *
                       8.0 / (1024.0 * 1024.0);
  // p75: the slowest of 4 ranks' CPU time jumps whenever one core of the
  // shared host is contended, which swings p90 by ~25% between runs.
  r.tail_q = 0.75;
  r.attempted += p1.op_ms.size();
  if (a.traced) split_layers(r, job4, kRanks);
}

// ------------------------------------------------------------ layer split

// Layer of a span name: library spans by module prefix; bench-side spans
// `bench.<layer>.<call>` by the layer whose call they wrap. The harness's
// own spans (bench.update, bench.solve, ...) form the `bench` layer.
std::string layer_of(std::string_view name) {
  static const std::pair<std::string_view, std::string_view> kPrefix[] = {
      {"linalg.", "linalg"}, {"comm.", "pmpi"},       {"pssvd.", "core"},
      {"tsqr.", "core"},     {"apmos.", "core"},      {"sketch.", "sketch"},
      {"stream.", "workloads"}, {"prefetch.", "workloads"},
      {"pool.", "support"}};
  for (const auto& [prefix, layer] : kPrefix) {
    if (name.substr(0, prefix.size()) == prefix) return std::string(layer);
  }
  static const std::string_view kWrapped[] = {"linalg", "pmpi", "core",
                                              "workloads", "io"};
  if (name.substr(0, 6) == "bench.") {
    const std::string_view rest = name.substr(6);
    for (const std::string_view layer : kWrapped) {
      if (rest.size() > layer.size() && rest.substr(0, layer.size()) == layer &&
          rest[layer.size()] == '.') {
        return std::string(layer);
      }
    }
    return "bench";
  }
  return "other";
}

bool in_windows(std::int64_t t, const std::vector<Interval>& windows) {
  for (const Interval& w : windows) {
    if (t >= w.start && t < w.end) return true;
  }
  return false;
}

// Per-layer split of the traced run. Only spans that start inside an
// armed unit of their rank count; everything is normalized per op of
// rank 0, so the layer times plus the unattributed rest add up to the
// armed wall time per op.
void split_layers(Result& r, const Job& job, int ranks) {
  const std::vector<trace::FlushedEvent> events = trace::snapshot();
  std::vector<std::string> names;
  std::map<std::string, int, std::less<>> name_id;
  std::vector<Span> spans;
  std::vector<Span> setup_spans;
  for (const trace::FlushedEvent& fe : events) {
    if (fe.event.dur_ns < 0) continue;  // instants cover no time
    const std::string nm = fe.event.name;
    auto [it, fresh] = name_id.emplace(nm, static_cast<int>(names.size()));
    if (fresh) names.push_back(nm);
    const Span sp{fe.pid, fe.tid, it->second, fe.event.start_ns,
                  fe.event.start_ns + fe.event.dur_ns};
    if (fe.pid >= 1 && fe.pid <= ranks) {
      if (in_windows(sp.start, job.logs[static_cast<std::size_t>(fe.pid - 1)]
                                   .armed_windows)) {
        spans.push_back(sp);
      }
    } else {
      setup_spans.push_back(sp);
    }
  }
  const std::vector<std::int64_t> self = self_times(spans);

  double armed_ops = 0.0;
  for (char armed : r.op_armed) armed_ops += armed ? 1.0 : 0.0;
  const double per_op = armed_ops > 0.0 ? 1e-6 / armed_ops : 0.0;  // ns -> ms/op

  std::map<std::string, double> layer_ns;       // rank 0
  std::vector<double> wait_ns(static_cast<std::size_t>(ranks), 0.0);
  std::map<std::string, double> incl_ns;        // rank 0, inclusive
  std::map<std::string, std::uint64_t> count;   // rank 0
  std::map<std::string, double> name_self_ns;   // rank 0
  double gemm_self_all_ns = 0.0;
  std::vector<std::vector<Interval>> by_rank(static_cast<std::size_t>(ranks));
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    const std::string& nm = names[static_cast<std::size_t>(sp.name)];
    const auto rk = static_cast<std::size_t>(sp.pid - 1);
    by_rank[rk].push_back({sp.start, sp.end});
    const auto s = static_cast<double>(self[i]);
    if (nm == "comm.wait") wait_ns[rk] += s;
    if (nm == "linalg.gemm" || nm == "linalg.gram") gemm_self_all_ns += s;
    if (rk != 0) continue;
    layer_ns[layer_of(nm)] += s;
    incl_ns[nm] += static_cast<double>(sp.end - sp.start);
    name_self_ns[nm] += s;
    ++count[nm];
  }

  double coverage_min = 100.0;
  double root_wall_ns = 0.0, root_union_ns = 0.0;
  for (int rk = 0; rk < ranks; ++rk) {
    const auto& windows = job.logs[static_cast<std::size_t>(rk)].armed_windows;
    std::int64_t wall = 0;
    for (const Interval& w : windows) wall += w.end - w.start;
    const std::int64_t covered = union_length(by_rank[static_cast<std::size_t>(rk)]);
    if (wall > 0) {
      coverage_min = std::min(coverage_min, 100.0 * static_cast<double>(covered) /
                                                static_cast<double>(wall));
    }
    if (rk == 0) {
      root_wall_ns = static_cast<double>(wall);
      root_union_ns = static_cast<double>(covered);
    }
  }

  const auto get = [](const std::map<std::string, double>& m, const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  const auto put = [&r](const char* name, double value, const char* unit) {
    r.layer[name] = {value, unit};
  };
  // The stage spans differ by pipeline: the streaming solver factors
  // through TSQR and gathers modes; APMOS factors locally and gathers W.
  const bool apmos = r.workload == "apmos_weak";
  put("op.wall_ms", root_wall_ns * per_op, "ms");
  put("linalg.self_ms", get(layer_ns, "linalg") * per_op, "ms");
  put("linalg.gemm_ms",
      (get(name_self_ns, "linalg.gemm") + get(name_self_ns, "linalg.gram")) * per_op,
      "ms");
  put("pmpi.self_ms", get(layer_ns, "pmpi") * per_op, "ms");
  put("pmpi.wait_ms", wait_ns[0] * per_op, "ms");
  put("pmpi.wait_ms_max",
      *std::max_element(wait_ns.begin(), wait_ns.end()) * per_op, "ms");
  put("core.self_ms", get(layer_ns, "core") * per_op, "ms");
  put("core.factor_ms",
      get(incl_ns, apmos ? "apmos.stage12.local_svd" : "tsqr.direct") * per_op, "ms");
  put("core.root_svd_ms",
      get(incl_ns, apmos ? "apmos.stage45.root_svd" : "pssvd.root_svd") * per_op,
      "ms");
  put("core.gather_ms",
      get(incl_ns, apmos ? "apmos.stage3.gather" : "pssvd.gather_modes") * per_op,
      "ms");
  put("workloads.self_ms", get(layer_ns, "workloads") * per_op, "ms");
  // Only the randomized APMOS root sketches, so a time would read 0 on
  // the other workloads; its share of the armed wall is reported instead.
  put("sketch.self_pct",
      root_wall_ns > 0.0 ? 100.0 * get(layer_ns, "sketch") / root_wall_ns : 0.0, "%");
  put("bench.self_ms", get(layer_ns, "bench") * per_op, "ms");
  put("obs.unattributed_ms", (root_wall_ns - root_union_ns) * per_op, "ms");
  put("obs.coverage_min_pct", coverage_min, "%");
  put("obs.trace_events", static_cast<double>(spans.size() + setup_spans.size()),
      "count");
  put("obs.trace_dropped", static_cast<double>(trace::dropped()), "count");
  put("linalg.gemm_gflops",
      gemm_self_all_ns > 0.0
          ? static_cast<double>(r.per_op.gemm_flops) * armed_ops / gemm_self_all_ns
          : 0.0,
      "GFLOP/s");
  put("pmpi.bytes_per_op", static_cast<double>(r.per_op.bytes), "bytes");
  put("pmpi.messages_per_op", static_cast<double>(r.per_op.messages), "count");
  put("pmpi.retransmits", static_cast<double>(r.per_op.retransmits), "count");
  put("pmpi.timeouts", static_cast<double>(r.per_op.timeouts), "count");
  put("linalg.gemm_flops_per_op", static_cast<double>(r.per_op.gemm_flops), "flop");
  put("linalg.gemm_calls_per_op", static_cast<double>(r.per_op.gemm_calls), "count");
  put("linalg.qr_flops_per_op", static_cast<double>(r.per_op.qr_flops), "flop");
  put("linalg.qr_calls_per_op", static_cast<double>(r.per_op.qr_calls), "count");
  put("workloads.ingest_mb_per_op", r.ingest_mb_per_op, "MiB");

  for (const auto& [nm, ns] : name_self_ns) {
    r.spans[nm] = {ns * per_op, count[nm]};
  }
  // Set-up spans (main thread): generation time and the store write's
  // share of set-up.
  const std::vector<std::int64_t> setup_self = self_times(setup_spans);
  double gen_ns = 0.0, io_ns = 0.0;
  for (std::size_t i = 0; i < setup_spans.size(); ++i) {
    const std::string& nm = names[static_cast<std::size_t>(setup_spans[i].name)];
    if (nm == "bench.workloads.generate") gen_ns += static_cast<double>(setup_self[i]);
    if (nm == "bench.io.write") io_ns += static_cast<double>(setup_self[i]);
  }
  double setup_total = 0.0;
  for (double t : r.setup_s) setup_total += t;
  put("setup.generate_s", gen_ns * 1e-9 / static_cast<double>(r.setup_s.size()), "s");
  put("setup.io_write_pct",
      setup_total > 0.0 ? 100.0 * io_ns * 1e-9 / setup_total : 0.0, "%");

  // Tracing overhead: median op time of armed vs disarmed units.
  std::vector<double> on, off;
  for (std::size_t i = 0; i < r.op_ms.size(); ++i) {
    (r.op_armed[i] ? on : off).push_back(r.op_ms[i]);
  }
  put("obs.trace_overhead_pct",
      (!on.empty() && !off.empty()) ? (median(on) / median(off) - 1.0) * 100.0 : 0.0,
      "%");
}

// ------------------------------------------------------------ host facts

std::string autotune_summary() {
  const autotune::Profile& p = autotune::active_profile();
  char buf[160];
  std::snprintf(buf, sizeof(buf), "f64 %lld/%lld/%lld %lldx%lld qr %lld",
                static_cast<long long>(p.f64.mc), static_cast<long long>(p.f64.kc),
                static_cast<long long>(p.f64.nc), static_cast<long long>(p.f64.mr),
                static_cast<long long>(p.f64.nr), static_cast<long long>(p.qr_block));
  return buf;
}

void write_host(Json& j) {
  j.key("host").open();
  j.key("nproc").integer(std::thread::hardware_concurrency());
  j.key("l2_kb").integer(static_cast<std::uint64_t>(
      std::max<long>(0, sysconf(_SC_LEVEL2_CACHE_SIZE)) / 1024));
  j.key("l3_kb").integer(static_cast<std::uint64_t>(
      std::max<long>(0, sysconf(_SC_LEVEL3_CACHE_SIZE)) / 1024));
  j.key("compiler").str(__VERSION__);
  j.key("ranks").integer(kRanks);
  j.key("threads_per_rank").integer(ThreadPool::global().size() + 1);
  j.key("tune_profile").str(autotune_summary());
  j.key("tune_tuned").boolean(autotune::active_profile().tuned);
  j.close();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ------------------------------------------------------------ output

void emit(const Args& a, Result& r) {
  Json j;
  j.open();
  j.key("workload").str(r.workload);
  j.key("seed").integer(a.seed);
  j.key("seconds").num(a.seconds);
  j.key("traced").boolean(a.traced);
  j.key("smoke").boolean(a.smoke);
  write_host(j);
  j.key("attempted").integer(r.attempted);
  j.key("failed").integer(r.failed);
  j.key("error").str(r.error);

  j.key("metrics").open();
  const auto metric = [&](const char* name, double v, const char* unit) {
    j.key(name).open().key("value").num(v).key("unit").str(unit).close();
  };
  if (!a.traced) {
    metric("setup_s", median(r.setup_s), "s");
    metric("op_ms_p50", median(r.op_ms), "ms");
    metric("op_ms_tail", percentile(r.op_ms, r.tail_q), "ms");
    // Snapshots absorbed per second of op time (the mean op, not the median).
    double op_s = 0.0;
    for (double ms : r.op_ms) op_s += ms * 1e-3;
    metric("snaps_per_s",
           op_s > 0.0 ? r.snaps_per_op * static_cast<double>(r.op_ms.size()) / op_s : 0.0,
           "snapshots/s");
    metric("peak_rss_mb", peak_rss_mb(), "MiB");
  } else {
    for (const auto& [name, v] : r.layer) metric(name.c_str(), v.first, v.second.c_str());
  }
  j.close();

  j.key("exact").open();
  j.key("bytes_per_op").integer(r.per_op.bytes);
  j.key("messages_per_op").integer(r.per_op.messages);
  j.key("gemm_flops_per_op").integer(r.per_op.gemm_flops);
  j.key("qr_flops_per_op").integer(r.per_op.qr_flops);
  j.key("counts_stable").boolean(r.counts_stable);
  j.close();

  j.key("check").open();
  j.key("sigma").vec(r.sigma);
  if (r.sigma_p1.size() > 0) j.key("sigma_p1").vec(r.sigma_p1);
  j.key("sigma_stable").boolean(r.sigma_stable);
  j.key("finite").boolean(r.finite);
  if (r.mode_cos_min >= 0.0) j.key("mode_cos_min").num(r.mode_cos_min);
  if (r.recon_err >= 0.0) j.key("recon_err").num(r.recon_err);
  j.close();

  j.key("info").open();
  j.key("ops").integer(r.op_ms.size());
  j.key("tail_pct").num(100.0 * r.tail_q);
  j.key("setup_runs").arr(r.setup_s);
  for (const double q : {0.9, 0.95, 0.99}) {
    char name[24];
    std::snprintf(name, sizeof(name), "op_ms_p%g", 100.0 * q);
    j.key(name).num(percentile(r.op_ms, q));
  }
  if (r.apmos_p1_ms_p50 > 0.0) {
    j.key("apmos_p1_ms_p50").num(r.apmos_p1_ms_p50);
    j.key("weak_eff").num(r.apmos_p1_ms_p50 / median(r.op_ms));
  }
  j.close();

  if (a.traced) {
    j.key("spans").open();
    for (const auto& [name, v] : r.spans) {
      j.key(name).open().key("self_ms_per_op").num(v.first).key("count")
          .integer(v.second).close();
    }
    j.close();
  }
  j.close();
  std::printf("%s\n", j.text().c_str());
}

// ------------------------------------------------------------ reference

// Batch SVDs of the exact matrices the workloads stream, for the
// accuracy checks run.py applies; computed in a process of their own.
int run_reference(const Args& a) {
  ThreadPool::set_global_threads(kRanks);
  SvdOptions so;
  so.method = SvdMethod::MethodOfSnapshots;
  so.eigh_method = EighMethod::Tridiagonal;
  Json j;
  j.open();
  j.key("workload").str(a.workload);
  j.key("seed").integer(a.seed);
  if (a.workload == "burgers_stream" || a.workload == "burgers_monitor") {
    const BurgersSize s = burgers_size(a.smoke);
    so.rank = s.modes;
    j.key("sigma").vec(svd(vcat(burgers_blocks(s, a.seed)), so).s);
  } else if (a.workload == "apmos_weak") {
    const ApmosSize s = apmos_size(a.smoke);
    so.rank = s.r2;
    j.key("sigma").vec(svd(vcat(apmos_blocks(s, kRanks, a.seed)), so).s);
    j.key("sigma_p1").vec(svd(vcat(apmos_blocks(s, 1, a.seed)), so).s);
  } else {
    std::fprintf(stderr, "parsvd_e2e: no reference for workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  j.close();
  std::printf("%s\n", j.text().c_str());
  return 0;
}

// ------------------------------------------------------------ selftest

int selftest() {
  int failures = 0;
  const auto expect = [&](const char* what, std::int64_t got, std::int64_t want) {
    if (got != want) {
      std::fprintf(stderr, "selftest FAIL %s: got %lld, want %lld\n", what,
                   static_cast<long long>(got), static_cast<long long>(want));
      ++failures;
    }
  };
  const auto total = [](const std::vector<std::int64_t>& v) {
    std::int64_t t = 0;
    for (std::int64_t x : v) t += x;
    return t;
  };
  {  // nested spans and siblings: A ⊃ B ⊃ C, and D a sibling of B
    const std::vector<Span> s = {
        {1, 0, 0, 0, 100}, {1, 0, 1, 10, 40}, {1, 0, 2, 20, 30}, {1, 0, 3, 50, 70}};
    const auto self = self_times(s);
    expect("nested A", self[0], 50);
    expect("nested B", self[1], 20);
    expect("nested C", self[2], 10);
    expect("sibling D", self[3], 20);
  }
  {  // equal timestamps: identical spans count once; equal starts nest
    const std::vector<Span> s = {
        {1, 0, 0, 0, 10}, {1, 0, 1, 0, 10}, {1, 0, 2, 20, 30}, {1, 0, 3, 20, 25}};
    const auto self = self_times(s);
    expect("identical spans", self[0] + self[1], 10);
    expect("equal start parent", self[2], 5);
    expect("equal start child", self[3], 5);
  }
  {  // zero-length spans: never parents, never take time
    const std::vector<Span> s = {
        {1, 0, 0, 0, 0}, {1, 0, 1, 0, 10}, {1, 0, 2, 5, 5}, {1, 0, 3, 10, 10}};
    const auto self = self_times(s);
    expect("zero-length first", self[0], 0);
    expect("zero-length parent", self[1], 10);
    expect("zero-length inside", self[2], 0);
    expect("zero-length at end", self[3], 0);
  }
  {  // adjacent siblings and a child outliving its parent
    const std::vector<Span> s = {
        {1, 0, 0, 0, 10}, {1, 0, 1, 10, 20}, {1, 0, 2, 30, 40}, {1, 0, 3, 35, 50}};
    const auto self = self_times(s);
    expect("adjacent a", self[0], 10);
    expect("adjacent b", self[1], 10);
    expect("overhang parent", self[2], 5);
    expect("overhang child", self[3], 15);
    expect("self sums to union", total(self),
           union_length({{0, 10}, {10, 20}, {30, 40}, {35, 50}}));
  }
  {  // separate thread tracks never nest into each other
    const std::vector<Span> s = {
        {1, 0, 0, 0, 100}, {1, 1, 1, 10, 20}, {2, 0, 2, 10, 20}, {1, 0, 3, 10, 20}};
    const auto self = self_times(s);
    expect("track parent", self[0], 90);
    expect("other tid", self[1], 10);
    expect("other pid", self[2], 10);
    expect("same track child", self[3], 10);
  }
  expect("union", union_length({{0, 10}, {5, 15}, {20, 25}, {21, 22}}), 20);
  {
    const std::pair<const char*, const char*> cases[] = {
        {"linalg.gemm", "linalg"},     {"comm.wait", "pmpi"},
        {"tsqr.factor_panel", "core"}, {"stream.ingest", "workloads"},
        {"bench.update", "bench"},     {"bench.core.project", "core"},
        {"bench.io.write", "io"},      {"bench.corex", "bench"}};
    for (const auto& [name, want] : cases) {
      if (layer_of(name) != want) {
        std::fprintf(stderr, "selftest FAIL layer_of(%s) = %s, want %s\n", name,
                     layer_of(name).c_str(), want);
        ++failures;
      }
    }
  }
  if (failures == 0) std::printf("parsvd_e2e selftest: ok\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace parsvd::e2e

int main(int argc, char** argv) {
  using namespace parsvd::e2e;
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: parsvd_e2e --workload=NAME --seed=S [--seconds=T] "
                 "[--traced] [--smoke] [--data-dir=DIR]\n"
                 "       parsvd_e2e --reference --workload=NAME --seed=S [--smoke]\n"
                 "       parsvd_e2e --selftest\n");
    return 2;
  }
  if (a.selftest) return selftest();
  if (a.reference) return run_reference(a);

  parsvd::ThreadPool::set_global_threads(1);
  trace::set_ring_capacity(kSetupRingEvents);

  Result r;
  r.workload = a.workload;
  using Runner = void (*)(const Args&, Result&);
  static const std::pair<const char*, Runner> kWorkloads[] = {
      {"burgers_stream", run_burgers_stream},
      {"burgers_monitor", run_burgers_monitor},
      {"era5_stream", run_era5_stream},
      {"apmos_weak", run_apmos_weak}};
  Runner runner = nullptr;
  for (const auto& [name, fn] : kWorkloads) {
    if (a.workload == name) runner = fn;
  }
  if (runner == nullptr) {
    std::fprintf(stderr, "parsvd_e2e: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  // Setup spans are recorded too in a traced run (the generate/write split).
  trace::arm(a.traced);
  try {
    runner(a, r);
  } catch (const std::exception& e) {
    r.error = e.what();
    r.failed += 1;
  }
  trace::arm(false);
  r.attempted += r.op_ms.size();
  if (r.attempted == 0) r.attempted = 1;
  emit(a, r);
  return r.failed == 0 ? 0 : 1;
}
