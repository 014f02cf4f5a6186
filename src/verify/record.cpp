#include "verify/record.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "core/apmos.hpp"
#include "core/parallel_streaming.hpp"
#include "core/tsqr.hpp"
#include "obs/trace.hpp"
#include "pmpi/fault.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace parsvd::verify {

namespace {

/// Hang protection: a recorded job that deadlocks ends in CommTimeout.
constexpr std::chrono::milliseconds kRecordTimeout{10'000};

/// Rank threads kept across recordings: starting P threads costs more
/// than a tiny job itself, so unlike pmpi::run_on this starts them once.
/// Thread r runs rank r of every job with p > r.
class RankThreads {
 public:
  RankThreads() = default;
  RankThreads(const RankThreads&) = delete;
  RankThreads& operator=(const RankThreads&) = delete;
  ~RankThreads() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    start_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  /// pmpi::run_on's contract on these threads.
  void run(const std::shared_ptr<pmpi::Context>& ctx,
           const std::function<void(pmpi::Communicator&)>& fn) {
    std::vector<std::exception_ptr> errors(
        static_cast<std::size_t>(ctx->size()));
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (static_cast<int>(threads_.size()) < ctx->size()) {
        const int r = static_cast<int>(threads_.size());
        threads_.emplace_back([this, r] { loop(r); });
      }
      ctx_ = &ctx;
      fn_ = &fn;
      errors_ = &errors;
      size_ = ctx->size();
      pending_ = size_;
      ++generation_;
    }
    start_.notify_all();
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_.wait(lock, [this] { return pending_ == 0; });
    }
    pmpi::rethrow_job_error(errors);
  }

 private:
  void loop(int r) {
    obs::set_thread_identity(r, 0, "rank-main");
    std::uint64_t ran = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      start_.wait(lock,
                  [&] { return stop_ || (generation_ != ran && r < size_); });
      if (stop_) return;
      ran = generation_;
      {
        const std::shared_ptr<pmpi::Context> ctx = *ctx_;
        const std::function<void(pmpi::Communicator&)>& fn = *fn_;
        std::exception_ptr* error = &(*errors_)[static_cast<std::size_t>(r)];
        lock.unlock();
        pmpi::run_rank(ctx, r, fn, error);
      }
      lock.lock();
      if (--pending_ == 0) done_.notify_one();
    }
  }

  std::mutex mu_;  // guards the job fields; threads_ is the owner's
  std::condition_variable start_;
  std::condition_variable done_;
  bool stop_ = false;
  std::uint64_t generation_ = 0;
  int size_ = 0;
  int pending_ = 0;
  const std::shared_ptr<pmpi::Context>* ctx_ = nullptr;
  const std::function<void(pmpi::Communicator&)>* fn_ = nullptr;
  std::vector<std::exception_ptr>* errors_ = nullptr;
  std::vector<std::thread> threads_;
};

/// Run `job` on a fresh Context under `plan` with a tap; returns the tap.
pmpi::WireTap run_tapped(const Job& job, pmpi::FaultPlan plan) {
  thread_local RankThreads threads;
  auto ctx = std::make_shared<pmpi::Context>(job.p);
  ctx->set_fault_plan(std::move(plan));  // also replaces a PARSVD_FAULT_* plan
  ctx->set_wait_timeout(kRecordTimeout);
  if (job.setup) job.setup(*ctx);
  pmpi::WireTap tap(job.p);
  ctx->set_tap(&tap);
  threads.run(ctx, job.body);
  ctx->set_tap(nullptr);
  return tap;
}

Schedule to_schedule(const std::string& name, const pmpi::WireTap& tap,
                     int p) {
  Schedule s = make_schedule(name, p);
  for (int r = 0; r < p; ++r) {
    for (const pmpi::WireEvent& w : tap.events(r)) {
      CommEvent e;
      e.kind = w.send ? CommEvent::Kind::Send : CommEvent::Kind::Recv;
      e.peer = w.peer;
      e.tag = w.tag;
      e.bytes = w.resolved_dead ? kAnyBytes : w.bytes;
      e.bounded = w.bounded;
      e.op = static_cast<std::int64_t>(w.op);
      if (w.resolved_dead) e.note = "resolved dead";
      s.ranks[static_cast<std::size_t>(r)].append(std::move(e));
    }
  }
  return s;
}

/// Whether a liveness read of `f.victim` answered "alive" while the
/// victim may already have been dead (see record.hpp).
bool racy(const pmpi::WireTap& tap, const std::vector<CommEvent>& victim,
          const FaultScenario& f, int p) {
  for (int r = 0; r < p; ++r) {
    if (r == f.victim) continue;
    const std::vector<pmpi::WireEvent>& ev = tap.events(r);
    const auto seen = std::find_if(ev.begin(), ev.end(), [&](const auto& e) {
      return !e.send && e.peer == f.victim && e.resolved_dead;
    });
    for (const pmpi::WireTap::LivenessRead& read : tap.reads(r)) {
      if (read.peer != f.victim) continue;
      if (seen - ev.begin() < static_cast<std::ptrdiff_t>(read.at)) continue;
      // The reader's next message to the victim: its n-th on the channel.
      const auto next = std::find_if(
          ev.begin() + static_cast<std::ptrdiff_t>(read.at), ev.end(),
          [&](const auto& e) { return e.send && e.peer == f.victim; });
      if (next == ev.end()) continue;
      const auto n = std::count_if(ev.begin(), next, [&](const auto& e) {
        return e.send && e.peer == f.victim && e.tag == next->tag;
      });
      // The victim's receive that consumes it.
      std::ptrdiff_t seen_recvs = 0;
      for (std::size_t j = 0; j < victim.size(); ++j) {
        const CommEvent& e = victim[j];
        if (e.kind != CommEvent::Kind::Recv || e.peer != r ||
            e.tag != next->tag) {
          continue;
        }
        if (seen_recvs++ == n) {
          if (f.kill_step <= j) return true;
          break;
        }
      }
    }
  }
  return false;
}

/// Seeded Gaussian payload data.
Matrix seeded_matrix(Index rows, Index cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  rng.fill_gaussian(m.data(), static_cast<std::size_t>(m.size()));
  return m;
}

std::uint64_t seed_of(const pmpi::Communicator& comm, std::uint64_t salt) {
  return 1000 * salt + static_cast<std::uint64_t>(comm.rank());
}

std::string p_root(int p, int root) {
  return "(p=" + std::to_string(p) + ", root=" + std::to_string(root);
}

std::string rows_suffix(const std::vector<Index>& rows) {
  std::string s;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i) s += '/';
    s += std::to_string(rows[i]);
  }
  return s;
}

std::vector<double> doubles(std::uint64_t bytes, double value) {
  PARSVD_REQUIRE(bytes % sizeof(double) == 0,
                 "recorded job: payload must be whole doubles");
  return std::vector<double>(bytes / sizeof(double), value);
}

}  // namespace

Schedule record(const Job& job) {
  return to_schedule(job.name, run_tapped(job, pmpi::FaultPlan{}), job.p);
}

Recording record(const Job& job, const Schedule& kill_free,
                 const FaultScenario& f) {
  PARSVD_REQUIRE(f.victim >= 0 && f.victim < job.p && kill_free.size() == job.p,
                 "record: victim outside the job, or a foreign kill-free run");
  Recording out;
  out.scenario = f;
  const std::vector<CommEvent>& victim =
      kill_free.ranks[static_cast<std::size_t>(f.victim)].events();
  if (f.kill_step >= victim.size()) {
    out.schedule = kill_free;
    return out;
  }
  pmpi::FaultPlan plan;
  plan.kill_rank(f.victim, static_cast<std::uint64_t>(victim[f.kill_step].op));
  const pmpi::WireTap tap = run_tapped(job, std::move(plan));
  PARSVD_REQUIRE(tap.events(f.victim).size() == f.kill_step,
                 "record: the victim of " + job.name + f.suffix() +
                     " did not run exactly its first kill_step events");
  out.schedule = to_schedule(job.name, tap, job.p);
  out.schedule.ranks[static_cast<std::size_t>(f.victim)] =
      kill_free.ranks[static_cast<std::size_t>(f.victim)];
  out.racy = racy(tap, victim, f, job.p);
  return out;
}

void restart_recording(pmpi::Communicator& comm) {
  if (pmpi::WireTap* tap = comm.context().tap()) tap->restart(comm.world_rank());
}

// ---------------------------------------------------------------- jobs

Job bcast_job(int p, int root, std::uint64_t bytes) {
  return {"bcast" + p_root(p, root) + ", " + std::to_string(bytes) + " B)", p,
          [root, bytes](pmpi::Communicator& comm) {
            std::vector<double> v =
                doubles(bytes, comm.rank() == root ? 1.0 : 0.0);
            comm.bcast(v, root);
          },
          {}};
}

Job gather_job(int p, int root, std::vector<std::uint64_t> bytes) {
  PARSVD_REQUIRE(static_cast<int>(bytes.size()) == p,
                 "gather_job: need one byte count per rank");
  return {"gather" + p_root(p, root) + ")", p,
          [root, bytes = std::move(bytes)](pmpi::Communicator& comm) {
            comm.gather_bytes(std::vector<std::byte>(
                                  bytes[static_cast<std::size_t>(comm.rank())]),
                              root);
          },
          {}};
}

Job scatter_rows_job(int p, int root, std::vector<Index> rows, Index cols) {
  PARSVD_REQUIRE(static_cast<int>(rows.size()) == p,
                 "scatter_rows_job: need one row count per rank");
  Index total = 0;
  for (const Index r : rows) total += r;
  return {"scatter_rows" + p_root(p, root) + ", rows=" + rows_suffix(rows) +
              ")",
          p,
          [root, rows = std::move(rows), total, cols](pmpi::Communicator& comm) {
            const Matrix full = comm.rank() == root
                                    ? seeded_matrix(total, cols, 1)
                                    : Matrix{};
            comm.scatter_rows(full, rows, root);
          },
          {}};
}

Job reduce_job(int p, int root, std::uint64_t bytes) {
  return {"reduce" + p_root(p, root) + ", " + std::to_string(bytes) + " B)",
          p,
          [root, bytes](pmpi::Communicator& comm) {
            std::vector<double> v =
                doubles(bytes, static_cast<double>(comm.rank()));
            std::vector<int> missing;
            comm.reduce(v, pmpi::Op::Sum, root, &missing);
          },
          {}};
}

Job allreduce_job(int p, std::uint64_t bytes) {
  return {"allreduce(p=" + std::to_string(p) + ", " + std::to_string(bytes) +
              " B)",
          p,
          [bytes](pmpi::Communicator& comm) {
            std::vector<double> v =
                doubles(bytes, static_cast<double>(comm.rank()));
            std::vector<int> missing;
            comm.allreduce(v, pmpi::Op::Sum, &missing);
          },
          {}};
}

Job allgather_job(int p) {
  return {"allgather(p=" + std::to_string(p) + ")", p,
          [](pmpi::Communicator& comm) {
            comm.allgather_double(static_cast<double>(comm.rank()));
          },
          {}};
}

Job tsqr_job(std::vector<Index> rows, Index k, Index y_cols) {
  const int p = static_cast<int>(rows.size());
  return {"tsqr(p=" + std::to_string(p) + ", k=" + std::to_string(k) +
              ", c=" + std::to_string(y_cols) + ", rows=" + rows_suffix(rows) +
              ")",
          p,
          [rows = std::move(rows), k, y_cols](pmpi::Communicator& comm) {
            const TsqrResult qr = tsqr(
                comm, seeded_matrix(rows[static_cast<std::size_t>(comm.rank())],
                                    k, seed_of(comm, 2)));
            const Matrix y = comm.is_root()
                                 ? seeded_matrix(qr.r.rows(), y_cols, 3)
                                 : Matrix{};
            qr.q_times(comm, y);
          },
          {}};
}

Job apmos_job(std::vector<Index> rows, Index n_cols, Index r1, Index r2,
              bool fault_tolerant) {
  const int p = static_cast<int>(rows.size());
  return {"apmos(p=" + std::to_string(p) + ", n=" + std::to_string(n_cols) +
              ", r1=" + std::to_string(r1) + ", r2=" + std::to_string(r2) +
              ", rows=" + rows_suffix(rows) +
              (fault_tolerant ? ", fault_tolerant)" : ")"),
          p,
          [rows = std::move(rows), n_cols, r1, r2,
           fault_tolerant](pmpi::Communicator& comm) {
            ApmosOptions opts;
            opts.r1 = r1;
            opts.r2 = r2;
            opts.fault_tolerant = fault_tolerant;
            apmos_svd(comm,
                      seeded_matrix(rows[static_cast<std::size_t>(comm.rank())],
                                    n_cols, seed_of(comm, 4)),
                      opts);
          },
          {}};
}

Job streaming_job(std::vector<Index> rows, Index num_modes, Index batch_cols,
                  int rounds, bool fault_tolerant) {
  const int p = static_cast<int>(rows.size());
  return {"streaming(p=" + std::to_string(p) + ", K=" +
              std::to_string(num_modes) + ", B=" + std::to_string(batch_cols) +
              ", T=" + std::to_string(rounds) + ", rows=" + rows_suffix(rows) +
              (fault_tolerant ? ", fault_tolerant)" : ")"),
          p,
          [rows = std::move(rows), num_modes, batch_cols, rounds,
           fault_tolerant](pmpi::Communicator& comm) {
            const Index m = rows[static_cast<std::size_t>(comm.rank())];
            StreamingOptions opts;
            opts.num_modes = num_modes;
            opts.fault_tolerant = fault_tolerant;
            ParallelStreamingSVD svd(comm, opts);
            svd.initialize(seeded_matrix(m, num_modes, seed_of(comm, 5)));
            restart_recording(comm);
            for (int t = 0; t < rounds; ++t) {
              svd.incorporate_data(seeded_matrix(
                  m, batch_cols, seed_of(comm, 6 + static_cast<std::uint64_t>(t))));
            }
          },
          {}};
}

const char* to_string(GroupProtocol proto) {
  switch (proto) {
    case GroupProtocol::Bcast:
      return "bcast";
    case GroupProtocol::Gather:
      return "gather";
    case GroupProtocol::Reduce:
      return "reduce";
    case GroupProtocol::Allreduce:
      return "allreduce";
    case GroupProtocol::Allgather:
      return "allgather";
    case GroupProtocol::Barrier:
      return "barrier";
    case GroupProtocol::Tsqr:
      return "tsqr";
    case GroupProtocol::Apmos:
      return "apmos";
  }
  return "?";
}

namespace {

/// The body one group of a partition runs on its subgroup communicator.
std::function<void(pmpi::Communicator&)> group_body(GroupProtocol proto, int p,
                                                    std::uint64_t bytes) {
  // Ragged layouts, so the min(rows, k) extents are exercised.
  std::vector<Index> rows(static_cast<std::size_t>(p));
  std::vector<std::uint64_t> per(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    rows[static_cast<std::size_t>(r)] = 2 + r % 4;
    per[static_cast<std::size_t>(r)] = bytes + 8 * static_cast<std::uint64_t>(r);
  }
  switch (proto) {
    case GroupProtocol::Bcast:
      return bcast_job(p, 0, bytes).body;
    case GroupProtocol::Gather:
      return gather_job(p, 0, per).body;  // asymmetric, as gatherv allows
    case GroupProtocol::Reduce:
      return reduce_job(p, 0, bytes).body;
    case GroupProtocol::Allreduce:
      return allreduce_job(p, bytes).body;
    case GroupProtocol::Allgather:
      return allgather_job(p).body;
    case GroupProtocol::Barrier:
      return [](pmpi::Communicator& comm) { comm.barrier(); };
    case GroupProtocol::Tsqr:
      return tsqr_job(rows, 3, 2).body;
    case GroupProtocol::Apmos:
      return apmos_job(rows, 6, 3, 2, /*fault_tolerant=*/false).body;
  }
  PARSVD_REQUIRE(false, "group_body: unknown protocol");
  return {};
}

}  // namespace

Job partition_job(int world_p, std::vector<std::vector<int>> groups,
                  std::vector<GroupProtocol> protocols, std::uint64_t bytes) {
  PARSVD_REQUIRE(groups.size() == protocols.size(),
                 "partition_job: one protocol per group");
  std::string name = "partition(P=" + std::to_string(world_p);
  std::vector<int> group_of(static_cast<std::size_t>(world_p), -1);
  std::vector<std::function<void(pmpi::Communicator&)>> bodies;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    for (const int m : groups[i]) {
      PARSVD_REQUIRE(m >= 0 && m < world_p &&
                         group_of[static_cast<std::size_t>(m)] < 0,
                     "partition_job: groups must be disjoint world ranks");
      group_of[static_cast<std::size_t>(m)] = static_cast<int>(i);
    }
    name += ", g" + std::to_string(i + 1) + "[" +
            std::to_string(groups[i].size()) + "]=" + to_string(protocols[i]);
    bodies.push_back(group_body(
        protocols[i], static_cast<int>(groups[i].size()), bytes));
  }
  name += ", " + std::to_string(bytes) + " B)";
  // Minting the groups in order before the ranks start pins their ids,
  // and with them the scoped wire tags.
  auto setup = [groups](pmpi::Context& ctx) {
    for (const std::vector<int>& g : groups) ctx.group_for(g);
  };
  auto body = [groups = std::move(groups), group_of = std::move(group_of),
               bodies = std::move(bodies)](pmpi::Communicator& comm) {
    const int g = group_of[static_cast<std::size_t>(comm.rank())];
    if (g < 0) return;
    std::optional<pmpi::Communicator> sub =
        comm.subgroup(groups[static_cast<std::size_t>(g)]);
    bodies[static_cast<std::size_t>(g)](*sub);
  };
  return {std::move(name), world_p, std::move(body), std::move(setup)};
}

std::vector<PartitionCase> group_sweep(int p) {
  constexpr GroupProtocol kProtos[] = {
      GroupProtocol::Tsqr,     GroupProtocol::Allreduce,
      GroupProtocol::Gather,   GroupProtocol::Bcast,
      GroupProtocol::Barrier,  GroupProtocol::Allgather,
      GroupProtocol::Reduce,   GroupProtocol::Apmos,
  };
  std::vector<std::vector<int>> shapes[4];
  // halves
  shapes[0].assign(2, {});
  for (int r = 0; r < p; ++r) {
    shapes[0][r < p / 2 ? 0u : 1u].push_back(r);
  }
  // singleton + rest
  shapes[1].assign(2, {});
  shapes[1][0].push_back(0);
  for (int r = 1; r < p; ++r) shapes[1][1].push_back(r);
  // three-way
  shapes[2].assign(3, {});
  for (int r = 0; r < p; ++r) {
    shapes[2][static_cast<std::size_t>(std::min(r / ((p + 2) / 3), 2))]
        .push_back(r);
  }
  // even/odd interleave
  shapes[3].assign(2, {});
  for (int r = 0; r < p; ++r) shapes[3][static_cast<std::size_t>(r % 2)]
      .push_back(r);

  std::vector<PartitionCase> out;
  std::size_t next = static_cast<std::size_t>(p);
  for (auto& shape : shapes) {
    PartitionCase c;
    for (auto& members : shape) {
      if (members.empty()) continue;
      c.groups.push_back(std::move(members));
      c.protocols.push_back(kProtos[next++ % std::size(kProtos)]);
    }
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace parsvd::verify
