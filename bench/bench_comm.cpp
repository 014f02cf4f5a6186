// Collective and streaming-prefetch benchmark.
//
// Part 1 sweeps the three collectives the solvers lean on over rank
// counts and payload sizes, each in its one topology: flat root-loop
// gather, flat fan-out bcast, and allreduce as a flat reduce to rank 0
// followed by the bcast (DESIGN §7 records the measurements that chose
// these). Each entry records
//   * seconds            measured (best of reps; informational only —
//                        ranks are threads, often on fewer cores)
//   * per-round counters exact bytes/messages moved, and root's posted
//                        bytes — deterministic, so CI gates on them
//                        exactly
//
// Part 2 times the pipelined streaming executor end-to-end on the
// Burgers weak-scaling workload: ParallelStreamingSVD fed by a
// GeneratorBatchSource whose generator carries a configurable ingest
// latency (the paper's streaming setting is I/O-bound: snapshots arrive
// from disk or a running simulation). With prefetch on, a background
// thread pulls the next batch while the solver factors the current one,
// so the sleep overlaps compute even on a single core. A zero-latency
// variant is recorded too — on a CPU-bound all-core run prefetch cannot
// win wall-clock, and pretending otherwise would be dishonest. Both
// variants assert bit-identical singular values with prefetch on/off.
//
// Usage:
//   bench_comm            full sweep, writes BENCH_comm.json
//   bench_comm --smoke    tiny rounds, correctness asserts only
//   bench_comm --out=F    write the JSON to F
//   PARSVD_BENCH_OUT=F    same as --out=F
//
// JSON schema (schema_version 2): see write_json below.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel_streaming.hpp"
#include "pmpi/comm.hpp"
#include "support/env.hpp"
#include "support/timer.hpp"
#include "workloads/batch_source.hpp"
#include "workloads/burgers.hpp"
#include "workloads/streaming_executor.hpp"

namespace {

using parsvd::Index;
using parsvd::Matrix;
using parsvd::Vector;
using parsvd::pmpi::Communicator;
using parsvd::pmpi::Context;
namespace wl = parsvd::workloads;

/// The topology Communicator runs for each swept collective.
const char* topology_of(const std::string& coll) {
  if (coll == "gather") return "flat";
  if (coll == "bcast") return "flat";
  return "flat-reduce+flat-bcast";
}

struct CollectiveEntry {
  std::string collective;
  int ranks = 0;
  std::size_t payload_bytes = 0;  // one rank's contribution
  int rounds = 0;
  double seconds = 0.0;
  double bytes_per_round = 0.0;
  double messages_per_round = 0.0;
  double root_bytes_per_round = 0.0;
  int failures = 0;
};

// One timed run of `rounds` iterations of one collective on a fresh
// context. Every round checks the result exactly (the payloads are
// small integers, so the sums are exact).
CollectiveEntry run_collective(const std::string& coll, int p,
                               std::size_t doubles, int rounds) {
  CollectiveEntry e;
  e.collective = coll;
  e.ranks = p;
  e.payload_bytes = doubles * sizeof(double);
  e.rounds = rounds;

  auto ctx = std::make_shared<Context>(p);
  std::vector<int> failures(static_cast<std::size_t>(p), 0);

  parsvd::Stopwatch sw;
  sw.start();
  parsvd::pmpi::run_on(ctx, [&](Communicator& comm) {
    const int r = comm.rank();
    int& fail = failures[static_cast<std::size_t>(r)];
    std::vector<double> mine(doubles);
    for (std::size_t i = 0; i < doubles; ++i) {
      mine[i] = static_cast<double>(r + 1);
    }
    for (int round = 0; round < rounds; ++round) {
      if (coll == "gather") {
        std::vector<double> all =
            comm.gatherv(std::span<const double>(mine), 0);
        if (comm.is_root()) {
          if (all.size() != doubles * static_cast<std::size_t>(p)) ++fail;
          for (int src = 0; src < p && fail == 0; ++src) {
            const std::size_t at = static_cast<std::size_t>(src) * doubles;
            if (all[at] != static_cast<double>(src + 1)) ++fail;
          }
        }
      } else if (coll == "bcast") {
        std::vector<double> buf;
        if (comm.is_root()) buf = mine;
        comm.bcast(buf, 0);
        if (buf.size() != doubles || buf.front() != 1.0) ++fail;
      } else if (coll == "allreduce") {
        std::vector<double> acc = mine;
        comm.allreduce(std::span<double>(acc), parsvd::pmpi::Op::Sum);
        const double want = static_cast<double>(p) * (p + 1) / 2.0;
        if (acc.front() != want || acc.back() != want) ++fail;
      }
    }
  });
  e.seconds = sw.stop();
  e.bytes_per_round = static_cast<double>(ctx->total_bytes()) / rounds;
  e.messages_per_round = static_cast<double>(ctx->total_messages()) / rounds;
  e.root_bytes_per_round = static_cast<double>(ctx->rank_bytes(0)) / rounds;
  for (int f : failures) e.failures += f;
  return e;
}

struct PrefetchRun {
  double seconds = 0.0;
  Vector svals;
};

// End-to-end distributed streaming SVD over Burgers snapshots, every
// rank ingesting through a generator that sleeps `latency_ms` per batch
// (emulated disk/simulation latency) before producing its row block.
PrefetchRun run_streaming_once(int p, Index rows_per_rank, Index snapshots,
                               Index batch, double latency_ms, bool prefetch) {
  wl::BurgersConfig cfg;
  cfg.grid_points = rows_per_rank * p;
  cfg.snapshots = snapshots;
  const wl::Burgers burgers(cfg);

  parsvd::StreamingOptions sopts;
  sopts.num_modes = 8;
  sopts.forget_factor = 1.0;

  PrefetchRun out;
  parsvd::Stopwatch sw;
  sw.start();
  parsvd::pmpi::run(p, [&](Communicator& comm) {
    const auto part = wl::partition_rows(cfg.grid_points, p, comm.rank());
    auto gen = [&burgers, part, latency_ms](Index col0, Index ncols) {
      if (latency_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(latency_ms));
      }
      return burgers.snapshot_block(part.offset, part.count, col0, ncols);
    };
    auto source = std::make_unique<wl::GeneratorBatchSource>(
        part.count, snapshots, std::move(gen));
    parsvd::ParallelStreamingSVD svd(comm, sopts);
    wl::StreamingExecutorOptions eopts;
    eopts.batch_cols = batch;
    eopts.prefetch = prefetch;
    wl::run_streaming(svd, std::move(source), eopts);
    if (comm.is_root()) out.svals = svd.singular_values();
  });
  out.seconds = sw.stop();
  return out;
}

double gain_pct(double sync_s, double pref_s) {
  return pref_s > 0.0 ? (sync_s / pref_s - 1.0) * 100.0 : 0.0;
}

bool bit_identical(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return false;
  for (Index i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

struct PrefetchEntry {
  int ranks = 0;
  Index rows_per_rank = 0;
  Index snapshots = 0;
  Index batch = 0;
  double latency_ms = 0.0;
  double sync_seconds = 0.0;
  double prefetch_seconds = 0.0;
  bool identical = false;
};

bool write_json(const std::string& path, bool smoke,
                const std::vector<CollectiveEntry>& sweep,
                const PrefetchEntry& latent, const PrefetchEntry& zero) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"comm\",\n");
  std::fprintf(f, "  \"schema_version\": 2,\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"host_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"collectives\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const CollectiveEntry& e = sweep[i];
    std::fprintf(
        f,
        "    {\"collective\": \"%s\", \"topology\": \"%s\", \"ranks\": %d, "
        "\"payload_bytes\": %zu, \"rounds\": %d, \"seconds\": %.6e, "
        "\"bytes_per_round\": %.1f, \"messages_per_round\": %.1f, "
        "\"root_bytes_per_round\": %.1f}%s\n",
        e.collective.c_str(), topology_of(e.collective), e.ranks,
        e.payload_bytes, e.rounds, e.seconds, e.bytes_per_round,
        e.messages_per_round, e.root_bytes_per_round,
        i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");

  const auto prefetch_block = [f](const char* key, const PrefetchEntry& e,
                                  bool last) {
    std::fprintf(f, "  \"%s\": {\n", key);
    std::fprintf(f, "    \"ranks\": %d,\n", e.ranks);
    std::fprintf(f, "    \"rows_per_rank\": %lld,\n",
                 static_cast<long long>(e.rows_per_rank));
    std::fprintf(f, "    \"snapshots\": %lld,\n",
                 static_cast<long long>(e.snapshots));
    std::fprintf(f, "    \"batch_cols\": %lld,\n",
                 static_cast<long long>(e.batch));
    std::fprintf(f, "    \"ingest_latency_ms\": %.3f,\n", e.latency_ms);
    std::fprintf(f, "    \"sync_seconds\": %.6e,\n", e.sync_seconds);
    std::fprintf(f, "    \"prefetch_seconds\": %.6e,\n", e.prefetch_seconds);
    std::fprintf(f, "    \"gain_pct\": %.2f,\n",
                 gain_pct(e.sync_seconds, e.prefetch_seconds));
    std::fprintf(f, "    \"bit_identical\": %s\n",
                 e.identical ? "true" : "false");
    std::fprintf(f, "  }%s\n", last ? "" : ",");
  };
  prefetch_block("prefetch", latent, false);
  prefetch_block("prefetch_zero_latency", zero, true);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out =
      parsvd::env::get_string("PARSVD_BENCH_OUT", "BENCH_comm.json");
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=PATH]\n", argv[0]);
      return 2;
    }
  }

  int failures = 0;

  // ----------------------------------------------------- collective sweep
  const std::vector<int> rank_counts = {4, 8, 16};
  const std::vector<std::size_t> payloads = {1024, 131072};  // 8 KiB, 1 MiB
  const int reps = smoke ? 1 : 3;
  std::vector<CollectiveEntry> sweep;
  std::printf("%-10s %-26s %6s %12s %10s %14s\n", "collective", "topology",
              "ranks", "bytes/rank", "time[ms]", "rootB/round");
  for (const char* coll : {"gather", "bcast", "allreduce"}) {
    for (int p : rank_counts) {
      for (std::size_t doubles : payloads) {
        const bool big = doubles >= 65536;
        const int rounds = smoke ? 2 : (big ? 6 : 20);
        CollectiveEntry best;
        best.seconds = std::numeric_limits<double>::max();
        for (int rep = 0; rep < reps; ++rep) {
          CollectiveEntry e = run_collective(coll, p, doubles, rounds);
          failures += e.failures;
          if (e.seconds < best.seconds) best = e;
        }
        std::printf("%-10s %-26s %6d %12zu %10.3f %14.0f\n",
                    best.collective.c_str(), topology_of(coll), p,
                    best.payload_bytes, best.seconds * 1e3,
                    best.root_bytes_per_round);
        sweep.push_back(std::move(best));
      }
    }
  }

  // --------------------------------------------------- streaming prefetch
  const int sp = 4;
  const Index rows_per_rank = smoke ? 64 : 512;
  const Index snapshots = smoke ? 48 : 320;
  const Index batch = 16;
  const double latency_ms = smoke ? 2.0 : 3.0;
  const int preps = smoke ? 1 : 3;

  const auto measure = [&](double lat) {
    PrefetchEntry e;
    e.ranks = sp;
    e.rows_per_rank = rows_per_rank;
    e.snapshots = snapshots;
    e.batch = batch;
    e.latency_ms = lat;
    e.sync_seconds = e.prefetch_seconds = std::numeric_limits<double>::max();
    Vector sync_sv, pref_sv;
    for (int rep = 0; rep < preps; ++rep) {
      PrefetchRun s =
          run_streaming_once(sp, rows_per_rank, snapshots, batch, lat, false);
      PrefetchRun q =
          run_streaming_once(sp, rows_per_rank, snapshots, batch, lat, true);
      if (s.seconds < e.sync_seconds) e.sync_seconds = s.seconds;
      if (q.seconds < e.prefetch_seconds) e.prefetch_seconds = q.seconds;
      sync_sv = std::move(s.svals);
      pref_sv = std::move(q.svals);
    }
    e.identical = bit_identical(sync_sv, pref_sv) && sync_sv.size() > 0;
    return e;
  };

  PrefetchEntry latent = measure(latency_ms);
  PrefetchEntry zero = measure(0.0);
  if (!latent.identical || !zero.identical) {
    std::fprintf(stderr,
                 "FAIL: prefetch on/off singular values not bit-identical\n");
    ++failures;
  }
  std::printf(
      "prefetch (P=%d, %.1f ms ingest latency): sync %.3f s, prefetch %.3f s "
      "(%+.1f%%); zero-latency %+.1f%%\n",
      sp, latency_ms, latent.sync_seconds, latent.prefetch_seconds,
      gain_pct(latent.sync_seconds, latent.prefetch_seconds),
      gain_pct(zero.sync_seconds, zero.prefetch_seconds));

  if (failures != 0) {
    std::fprintf(stderr, "FAIL: %d collective/prefetch check(s) failed\n",
                 failures);
  }
  const bool wrote = write_json(out, smoke, sweep, latent, zero);
  return (failures == 0 && wrote) ? 0 : 1;
}
