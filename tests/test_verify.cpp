// Tests of the verification layer (src/verify):
//   * the seeded-defect schedules are all detected, each with the
//     expected violation kind and a non-empty counterexample trace;
//   * the recorder (verify/record.hpp): schedules recorded from the
//     threaded runtime pass the checker, carry the group layer's wire
//     translation, and are identical run to run;
//   * traffic pins — each protocol's closed-form message and byte count,
//     read both off its recording and off the context's registry
//     counters after a plain pmpi::run_on of the same job, so the tap
//     sees every post and the counters count every message.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <vector>

#include "core/parallel_streaming.hpp"
#include "core/tsqr.hpp"
#include "pmpi/comm.hpp"
#include "test_utils.hpp"
#include "verify/checker.hpp"
#include "verify/record.hpp"
#include "verify/selftest.hpp"

namespace parsvd::verify {
namespace {

// ------------------------------------------------------- negative tests

TEST(VerifyNegative, SeededDefectsAllDetected) {
  for (const SeededDefect& defect : seeded_defects()) {
    const CheckReport report = check_schedule(defect.schedule);
    ASSERT_FALSE(report.ok()) << defect.schedule.name;
    bool found = false;
    for (const Violation& v : report.violations) {
      if (v.kind == defect.expected) {
        found = true;
        EXPECT_FALSE(v.trace.empty())
            << defect.schedule.name << ": counterexample trace missing";
      }
    }
    EXPECT_TRUE(found) << defect.schedule.name << ": expected a "
                       << to_string(defect.expected) << " violation, got\n"
                       << report.to_string();
  }
}

TEST(VerifyNegative, ReportRendersCounterexample) {
  const SeededDefect defect = seeded_defects().front();
  const std::string rendered = check_schedule(defect.schedule).to_string();
  EXPECT_NE(rendered.find("FAIL"), std::string::npos);
  EXPECT_NE(rendered.find("rank "), std::string::npos);
}

TEST(VerifyNegative, TagRegistry) {
  EXPECT_TRUE(tag_registered(pmpi::tags::kBcast));
  EXPECT_TRUE(tag_registered(pmpi::tags::kReduce));
  EXPECT_TRUE(tag_registered(pmpi::tags::tsqr_down(0)));
  EXPECT_TRUE(tag_registered(pmpi::tags::tsqr_down(30)));
  EXPECT_TRUE(tag_registered(pmpi::tags::kUserBase));
  EXPECT_TRUE(tag_registered(pmpi::tags::kUserBase + 12345));
  EXPECT_FALSE(tag_registered(0));
  EXPECT_FALSE(tag_registered(7));
  EXPECT_FALSE(tag_registered(-1));
  // Vacant tag slots stay unregistered, including the retired
  // fault-tolerant twins' -6/-7 and the retired APMOS band.
  EXPECT_FALSE(tag_registered(pmpi::tags::kReduce - 1));
  EXPECT_FALSE(tag_registered(-7));
  EXPECT_FALSE(tag_registered(pmpi::tags::kTsqrDownBase - 1));
  // kBarrier is wire traffic only inside a group's scoped band; the
  // world barrier is the context's central rendezvous.
  EXPECT_FALSE(tag_registered(pmpi::tags::kBarrier));
  EXPECT_FALSE(tag_registered(pmpi::tags::kTsqrDownBase +
                              pmpi::tags::kRangeWidth));
}

TEST(VerifyNegative, TagRegistryGroupScoped) {
  namespace tags = pmpi::tags;
  // A group band holds the group's whole local tag space...
  EXPECT_TRUE(tag_registered(tags::group_scope(1, tags::kBcast)));
  EXPECT_TRUE(tag_registered(tags::group_scope(1, tags::kBarrier)));
  EXPECT_TRUE(tag_registered(tags::group_scope(3, tags::tsqr_down(12))));

  EXPECT_TRUE(tag_registered(tags::group_scope(7, tags::kUserBase)));
  EXPECT_TRUE(tag_registered(
      tags::group_scope(tags::kMaxGroups, tags::kGroupUserLimit - 1)));
  // ...but scoping does not launder unregistered base tags, and band
  // offsets past the last mintable group are rejected.
  EXPECT_FALSE(tag_registered(tags::group_scope(1, 0)));
  EXPECT_FALSE(tag_registered(tags::group_scope(2, 7)));
  EXPECT_FALSE(tag_registered(
      tags::group_scope(1, tags::kTsqrDownBase + tags::kRangeWidth)));
  EXPECT_FALSE(tag_registered(
      tags::group_scope(tags::kMaxGroups + 1, tags::kBcast)));
}

// ------------------------------------------------------------ helpers

struct Totals {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

Totals send_totals(const Schedule& s) {
  Totals t;
  for (const CommScript& script : s.ranks) {
    for (const CommEvent& e : script.events()) {
      if (e.kind != CommEvent::Kind::Send) continue;
      ++t.messages;
      t.bytes += e.bytes;
    }
  }
  return t;
}

/// Per-group send totals of a recording, decoded from the scoped tags.
std::map<int, Totals> group_totals(const Schedule& s) {
  std::map<int, Totals> out;
  for (const CommScript& script : s.ranks) {
    for (const CommEvent& e : script.events()) {
      if (e.kind != CommEvent::Kind::Send) continue;
      EXPECT_TRUE(pmpi::tags::is_group_scoped(e.tag)) << to_string(e);
      Totals& t = out[pmpi::tags::scoped_group(e.tag)];
      ++t.messages;
      t.bytes += e.bytes;
    }
  }
  return out;
}

/// The context of a plain (untapped) pmpi::run_on of `job`.
std::shared_ptr<pmpi::Context> run_plain(const Job& job) {
  auto ctx = std::make_shared<pmpi::Context>(job.p);
  if (job.setup) job.setup(*ctx);
  return pmpi::run_on(ctx, job.body);
}

/// Record `job`, require the checker to pass, and pin its traffic: the
/// recording's sends and the registry of a plain run must both post
/// `messages` messages of `bytes` payload bytes in total.
void expect_traffic(const Job& job, std::uint64_t messages,
                    std::uint64_t bytes) {
  const Schedule s = record(job);
  const CheckReport report = check_schedule(s);
  EXPECT_TRUE(report.ok()) << report.to_string();
  const Totals t = send_totals(s);
  EXPECT_EQ(t.messages, messages) << job.name;
  EXPECT_EQ(t.bytes, bytes) << job.name;
  const auto ctx = run_plain(job);
  EXPECT_EQ(ctx->total_messages(), messages) << job.name;
  EXPECT_EQ(ctx->total_bytes(), bytes) << job.name;
}

/// pack_matrix framing: 16-byte [rows, cols] header + doubles.
std::uint64_t matrix_bytes(Index rows, Index cols) {
  return 16 + 8 * static_cast<std::uint64_t>(rows * cols);
}

std::uint64_t u64(Index v) { return static_cast<std::uint64_t>(v); }

const int kRankCounts[] = {1, 2, 3, 5, 8, 16};

// ------------------------------------------------------ group schedules

TEST(VerifyGroups, EmbedTranslatesPeersAndScopesTags) {
  // A bcast on the subgroup {3, 1} of a 4-rank world: group rank 0 is
  // world 3, group rank 1 is world 1, and the wire carries the group's
  // scoped tag.
  const Schedule world =
      record(partition_job(4, {{3, 1}}, {GroupProtocol::Bcast}, 48));
  // World ranks 0 and 2 stay silent.
  EXPECT_TRUE(world.ranks[0].events().empty());
  EXPECT_TRUE(world.ranks[2].events().empty());
  ASSERT_EQ(world.ranks[3].events().size(), 1u);
  ASSERT_EQ(world.ranks[1].events().size(), 1u);
  const CommEvent& send = world.ranks[3].events()[0];
  const CommEvent& recv = world.ranks[1].events()[0];
  EXPECT_EQ(send.kind, CommEvent::Kind::Send);
  EXPECT_EQ(send.peer, 1);  // group rank 1, translated
  EXPECT_EQ(send.tag, pmpi::tags::group_scope(1, pmpi::tags::kBcast));
  EXPECT_EQ(send.bytes, 48u);
  EXPECT_EQ(recv.kind, CommEvent::Kind::Recv);
  EXPECT_EQ(recv.peer, 3);
  EXPECT_EQ(recv.tag, send.tag);
  EXPECT_TRUE(check_schedule(world).ok());
}

TEST(VerifyGroups, PartitionSchedulesPass) {
  // Interleaved membership plus a bystander world rank (8 is in no
  // group): the checker must prove the whole choreography.
  const Schedule s = record(partition_job(
      9, {{0, 2, 4, 6}, {1, 3, 5, 7}},
      {GroupProtocol::Tsqr, GroupProtocol::Allreduce}, 512));
  const CheckReport report = check_schedule(s);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_TRUE(s.ranks[8].events().empty());
  // Every send is scoped to one of the two groups, and both talk.
  const std::map<int, Totals> totals = group_totals(s);
  ASSERT_EQ(totals.size(), 2u);
  std::uint64_t msg_sum = 0;
  std::uint64_t byte_sum = 0;
  for (const auto& [id, t] : totals) {
    EXPECT_GT(t.messages, 0u) << "group " << id;
    msg_sum += t.messages;
    byte_sum += t.bytes;
  }
  const Totals all = send_totals(s);
  EXPECT_EQ(msg_sum, all.messages);
  EXPECT_EQ(byte_sum, all.bytes);
}

TEST(VerifyGroups, OverlappingPartitionRejected) {
  EXPECT_THROW(partition_job(3, {{0, 1}, {1, 2}},
                             {GroupProtocol::Bcast, GroupProtocol::Bcast}, 8),
               Error);
}

TEST(VerifyGroups, SweepRunsEveryProtocolAtEveryP) {
  // schedule_check's subgroup sweep (--groups) runs group_sweep(p). Each
  // p >= 2 has 8 or 9 groups across the four partition shapes, enough
  // for every protocol to run inside a subgroup partition; the members
  // of each partition are disjoint and cover the world.
  const std::vector<GroupProtocol> all{
      GroupProtocol::Bcast,     GroupProtocol::Gather, GroupProtocol::Reduce,
      GroupProtocol::Allreduce, GroupProtocol::Allgather,
      GroupProtocol::Barrier,   GroupProtocol::Tsqr,   GroupProtocol::Apmos};
  for (const int p : {2, 3, 4, 5, 8, 16, 33, 64}) {
    std::vector<GroupProtocol> seen;
    for (const PartitionCase& c : group_sweep(p)) {
      ASSERT_EQ(c.groups.size(), c.protocols.size()) << "p = " << p;
      std::vector<int> members;
      for (const std::vector<int>& g : c.groups) {
        members.insert(members.end(), g.begin(), g.end());
      }
      std::sort(members.begin(), members.end());
      std::vector<int> world(static_cast<std::size_t>(p));
      std::iota(world.begin(), world.end(), 0);
      EXPECT_EQ(members, world) << "p = " << p;
      seen.insert(seen.end(), c.protocols.begin(), c.protocols.end());
    }
    for (const GroupProtocol proto : all) {
      EXPECT_NE(std::find(seen.begin(), seen.end(), proto), seen.end())
          << to_string(proto) << " never runs at p = " << p;
    }
  }
}

// ---------------------------------------------------------- recorder

TEST(Record, Deterministic) {
  // Twenty recordings of one scenario must be identical event for event:
  // a kill-free partition job (concurrent groups), a deterministic APMOS
  // kill, and a racy streaming kill — the victim dies at its round-1
  // sigma receive, unobserved by the root's bcast guard.
  const auto same = [](const Schedule& a, const Schedule& b) {
    if (a.size() != b.size()) return false;
    for (int r = 0; r < a.size(); ++r) {
      const auto& x = a.ranks[static_cast<std::size_t>(r)].events();
      const auto& y = b.ranks[static_cast<std::size_t>(r)].events();
      if (x.size() != y.size()) return false;
      for (std::size_t i = 0; i < x.size(); ++i) {
        if (to_string(x[i]) != to_string(y[i])) return false;
      }
    }
    return true;
  };
  const Job partition = partition_job(
      7, {{0, 2, 4, 6}, {1, 3}, {5}},
      {GroupProtocol::Tsqr, GroupProtocol::Gather, GroupProtocol::Barrier},
      64);
  const Job apmos = apmos_job({3, 4, 5, 6, 3}, 6, 3, 2, true);
  const Job streaming = streaming_job({4, 5, 6, 4, 5}, 2, 2, 2, true);
  const Schedule partition_ref = record(partition);
  const Schedule apmos_free = record(apmos);
  const Schedule streaming_free = record(streaming);
  const FaultScenario apmos_kill{2, 1};
  const FaultScenario streaming_kill{3, 3};
  const Recording apmos_ref = record(apmos, apmos_free, apmos_kill);
  const Recording streaming_ref =
      record(streaming, streaming_free, streaming_kill);
  EXPECT_TRUE(streaming_ref.racy);
  EXPECT_TRUE(check_fault_schedule(streaming_ref.schedule, streaming_kill).ok());
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(same(record(partition), partition_ref)) << "run " << i;
    const Recording a = record(apmos, apmos_free, apmos_kill);
    EXPECT_TRUE(same(a.schedule, apmos_ref.schedule)) << "run " << i;
    EXPECT_EQ(a.racy, apmos_ref.racy);
    const Recording s = record(streaming, streaming_free, streaming_kill);
    EXPECT_TRUE(same(s.schedule, streaming_ref.schedule)) << "run " << i;
    EXPECT_TRUE(s.racy);
  }
}

TEST(Record, StreamingMessagesPerUpdate) {
  // P = 4, read off the recorded updates: TSQR R gather, Q·U block
  // scatter, sigma bcast and mode gather are four legs of P-1 = 3
  // messages; the fault-tolerant policy adds the energy-ledger gather
  // and the FaultReport bcast.
  constexpr int rounds = 3;
  for (const bool fault_tolerant : {false, true}) {
    const Schedule s =
        record(streaming_job({6, 7, 6, 7}, 2, 2, rounds, fault_tolerant));
    EXPECT_TRUE(check_schedule(s).ok());
    EXPECT_EQ(send_totals(s).messages, (fault_tolerant ? 18u : 12u) * rounds)
        << s.name;
  }
}

TEST(Record, KillStepIsTheVictimsEventIndex) {
  // The victim runs exactly its first kill_step events; the rest of the
  // job completes degraded, and the recording keeps the victim's
  // kill-free script for the checker to truncate.
  const Job job = tsqr_job({5, 6, 7, 8}, 3, 2);
  const Schedule kill_free = record(job);
  ASSERT_EQ(kill_free.ranks[2].events().size(), 2u);  // R post, Q·Y block
  const Recording rec = record(job, kill_free, {2, 0});
  EXPECT_FALSE(rec.racy);
  EXPECT_EQ(rec.schedule.ranks[2].events().size(), 2u);
  // The root's wait on rank 2 resolved dead, so no Q·Y block goes out.
  const auto& root = rec.schedule.ranks[0].events();
  const auto dead = std::find_if(root.begin(), root.end(), [](const auto& e) {
    return e.kind == CommEvent::Kind::Recv && e.peer == 2;
  });
  ASSERT_NE(dead, root.end());
  EXPECT_TRUE(dead->bounded);
  EXPECT_EQ(dead->bytes, kAnyBytes);
  const auto root_sends =
      std::count_if(root.begin(), root.end(), [](const auto& e) {
        return e.kind == CommEvent::Kind::Send;
      });
  EXPECT_EQ(root_sends, 2);  // Q·Y blocks to ranks 1 and 3 only
  EXPECT_TRUE(check_fault_schedule(rec.schedule, rec.scenario).ok());
}

// ------------------------------------------------------ traffic pins

TEST(VerifyCrossValidation, Bcast) {
  for (const int p : kRankCounts) {
    for (const int root : {0, p - 1}) {
      expect_traffic(bcast_job(p, root, 7 * sizeof(double)), u64(p - 1),
                     u64(p - 1) * 7 * sizeof(double));
    }
  }
}

TEST(VerifyCrossValidation, Gatherv) {
  for (const int p : kRankCounts) {
    std::uint64_t bytes = 0;
    for (int r = 1; r < p; ++r) bytes += sizeof(double) * u64(3 + r);
    expect_traffic({"gatherv", p,
                    [](pmpi::Communicator& comm) {
                      std::vector<double> local(
                          static_cast<std::size_t>(3 + comm.rank()), 2.0);
                      comm.gatherv<double>(local, 0);
                    },
                    {}},
                   u64(p - 1), bytes);
  }
}

TEST(VerifyCrossValidation, Allgather) {
  // Gather of one double per rank, then the p-entry table to the rest.
  for (const int p : kRankCounts) {
    expect_traffic(allgather_job(p), 2 * u64(p - 1),
                   u64(p - 1) * sizeof(double) * (1 + u64(p)));
  }
}

TEST(VerifyCrossValidation, ReduceAndAllreduce) {
  for (const int p : kRankCounts) {
    // Small and large payloads share one topology; both are pinned.
    for (const std::uint64_t n : {std::uint64_t{16}, std::uint64_t{4096}}) {
      const std::uint64_t leg = u64(p - 1) * n * sizeof(double);
      expect_traffic(reduce_job(p, 0, n * sizeof(double)), u64(p - 1), leg);
      expect_traffic(allreduce_job(p, n * sizeof(double)), 2 * u64(p - 1),
                     2 * leg);
    }
  }
}

TEST(VerifyCrossValidation, ScatterRows) {
  for (const int p : kRankCounts) {
    constexpr Index cols = 3;
    std::vector<Index> rows(static_cast<std::size_t>(p));
    std::uint64_t bytes = 0;
    for (int r = 0; r < p; ++r) {
      rows[static_cast<std::size_t>(r)] = r + 1;
      if (r > 0) bytes += matrix_bytes(r + 1, cols);
    }
    expect_traffic(scatter_rows_job(p, 0, rows, cols), u64(p - 1), bytes);
  }
}

TEST(VerifyCrossValidation, TsqrDirect) {
  constexpr Index k = 4;
  for (const int p : kRankCounts) {
    // Uniform tall panels, and a ragged layout where some ranks hold
    // fewer rows than k (their R factors and Q·Y blocks shrink).
    std::vector<Index> uniform(static_cast<std::size_t>(p), 8);
    std::vector<Index> ragged(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      ragged[static_cast<std::size_t>(r)] = 2 + r % 5;
    }
    for (const auto& rows : {uniform, ragged}) {
      for (const Index c : {Index{1}, k}) {
        // Each non-root posts its min(rows, k) x k R factor and gets its
        // min(rows, k) x c block of Q·Y back.
        std::uint64_t bytes = 0;
        for (int r = 1; r < p; ++r) {
          const Index kr = std::min(rows[static_cast<std::size_t>(r)], k);
          bytes += matrix_bytes(kr, k) + matrix_bytes(kr, c);
        }
        expect_traffic(tsqr_job(rows, k, c), 2 * u64(p - 1), bytes);
      }
    }
  }
}

TEST(VerifyCrossValidation, Apmos) {
  for (const int p : kRankCounts) {
    // a_local: 8 x 5 per rank, r1 = 3, r2 = 2: each non-root gathers an
    // 8-byte row header + its 5 x 3 W; X (5 x 2) and Λ (2) come back,
    // plus the 7-double FaultReport under the fault-tolerant policy.
    for (const bool fault_tolerant : {false, true}) {
      const std::uint64_t per_rank = 8 + matrix_bytes(5, 3) +
                                     matrix_bytes(5, 2) + 2 * sizeof(double) +
                                     (fault_tolerant ? 7 * sizeof(double) : 0);
      expect_traffic(
          apmos_job(std::vector<Index>(static_cast<std::size_t>(p), 8), 5, 3,
                    2, fault_tolerant),
          u64(p - 1) * (fault_tolerant ? 4 : 3), u64(p - 1) * per_rank);
    }
  }
}

// The per-context registry behind total_messages / total_bytes: pin the
// series themselves — dotted names, per-sender split, payload histogram
// — for an allreduce (every rank sends in the reduce leg, the root fans
// the total out), against the recording's per-rank sends, so a metric
// rename or a half-done migration cannot silently detach the Context
// accessors from the registry.
TEST(VerifyCrossValidation, MetricsRegistryTotals) {
  constexpr int p = 8;
  constexpr std::uint64_t bytes = 48 * sizeof(double);
  const Job job = allreduce_job(p, bytes);
  const Schedule s = record(job);
  ASSERT_TRUE(check_schedule(s).ok());
  const auto ctx = run_plain(job);
  obs::Registry& reg = ctx->metrics();
  const std::uint64_t messages = 2 * (p - 1);
  EXPECT_EQ(reg.counter("comm.messages").value(), messages);
  EXPECT_EQ(reg.counter("comm.bytes").value(), messages * bytes);
  // Per-sender series against each rank's script: the root posts the
  // p-1 copies of the total, every other rank its addend.
  std::uint64_t rank_sum = 0;
  for (int r = 0; r < p; ++r) {
    std::uint64_t sent = 0;
    for (const CommEvent& e : s.ranks[static_cast<std::size_t>(r)].events()) {
      if (e.kind == CommEvent::Kind::Send) sent += e.bytes;
    }
    EXPECT_EQ(sent, r == 0 ? (p - 1) * bytes : bytes) << "rank " << r;
    const std::uint64_t got =
        reg.counter("comm.rank" + std::to_string(r) + ".bytes").value();
    EXPECT_EQ(got, sent) << "rank " << r;
    rank_sum += got;
  }
  EXPECT_EQ(rank_sum, messages * bytes);
  // Every post records its payload in the size histogram.
  const obs::Histogram& h = reg.histogram("comm.payload_bytes");
  EXPECT_EQ(h.count(), messages);
  EXPECT_EQ(h.sum(), messages * bytes);
  // And the accessors must read the same registry, not a copy.
  EXPECT_EQ(ctx->total_messages(), messages);
  EXPECT_EQ(ctx->total_bytes(), messages * bytes);
}

/// tsqr of a deterministic panel, then the collective q_times.
void tsqr_then_q_times(pmpi::Communicator& comm, Index rows, Index k,
                       Index y_cols) {
  const TsqrResult qr =
      tsqr(comm, testing::random_matrix(rows, k, 700 + comm.rank()));
  const Matrix y =
      comm.is_root() ? testing::random_matrix(qr.r.rows(), y_cols, 5) : Matrix{};
  qr.q_times(comm, y);
}

// Two concurrent jobs on disjoint subgroups of one context. Pins the
// per-group registry series "comm.group<id>.messages"/".bytes" to each
// group's own traffic (and to the recording's scoped sends), and the
// world totals to their sum — subgroup() is purely local, so group
// traffic is ALL the traffic.
TEST(VerifyCrossValidation, GroupRegistryTotals) {
  constexpr int p = 8;
  constexpr Index k = 4;
  constexpr std::size_t n = 64;  // allreduce payload, doubles
  const std::vector<int> evens{0, 2, 4, 6};
  const std::vector<int> odds{1, 3, 5, 7};
  // Ragged TSQR panels: group rank 0 holds fewer rows than k.
  const std::vector<Index> rows{3, 8, 5, 6};
  // Group 1 (evens) runs a direct TSQR, group 2 (odds) an allreduce
  // followed by a group barrier. Minting the groups in a fixed order
  // before the ranks start keeps their ids stable.
  const Job job{"two subgroup jobs", p,
                [&](pmpi::Communicator& comm) {
                  if (comm.rank() % 2 == 0) {
                    auto sub = comm.subgroup(evens);
                    ASSERT_TRUE(sub.has_value());
                    tsqr_then_q_times(
                        *sub, rows[static_cast<std::size_t>(sub->rank())], k,
                        2);
                  } else {
                    auto sub = comm.subgroup(odds);
                    ASSERT_TRUE(sub.has_value());
                    std::vector<double> v(n, 1.0);
                    sub->allreduce(v, pmpi::Op::Sum);
                    sub->barrier();
                  }
                },
                [&](pmpi::Context& ctx) {
                  ctx.group_for(evens);
                  ctx.group_for(odds);
                }};
  // Group 1: three R factors (4 x 4) up, three Q·Y blocks (4 x 2) down.
  // Group 2: reduce + bcast legs of 3 messages, then the 6-message
  // zero-byte barrier.
  const std::map<int, Totals> want{
      {1, {6, 3 * (matrix_bytes(4, 4) + matrix_bytes(4, 2))}},
      {2, {12, 6 * n * sizeof(double)}},
  };
  const Schedule s = record(job);
  const CheckReport report = check_schedule(s);
  ASSERT_TRUE(report.ok()) << report.to_string();
  const std::map<int, Totals> recorded = group_totals(s);
  const auto ctx = run_plain(job);
  obs::Registry& reg = ctx->metrics();
  std::uint64_t msg_sum = 0;
  std::uint64_t byte_sum = 0;
  for (const auto& [id, t] : want) {
    const std::string prefix = "comm.group" + std::to_string(id);
    EXPECT_EQ(reg.counter(prefix + ".messages").value(), t.messages)
        << "group " << id;
    EXPECT_EQ(reg.counter(prefix + ".bytes").value(), t.bytes)
        << "group " << id;
    EXPECT_EQ(recorded.at(id).messages, t.messages) << "group " << id;
    EXPECT_EQ(recorded.at(id).bytes, t.bytes) << "group " << id;
    msg_sum += t.messages;
    byte_sum += t.bytes;
  }
  EXPECT_EQ(ctx->total_messages(), msg_sum);
  EXPECT_EQ(ctx->total_bytes(), byte_sum);
}

TEST(VerifyCrossValidation, GroupBarrierTotals) {
  // The flat gather+release barrier: 2(p-1) zero-byte messages, all in
  // the group's series.
  for (const int p : kRankCounts) {
    std::vector<int> all(static_cast<std::size_t>(p));
    std::iota(all.begin(), all.end(), 0);
    const Job job = partition_job(p, {all}, {GroupProtocol::Barrier}, 0);
    const std::uint64_t messages = p > 1 ? 2 * u64(p - 1) : 0;
    expect_traffic(job, messages, 0);
    const auto ctx = run_plain(job);
    EXPECT_EQ(ctx->metrics().counter("comm.group1.messages").value(), messages)
        << "p=" << p;
  }
}

// The streaming update loop at the burgers_stream shape (P=4, K=10,
// B=10, 4096 rows per rank): messages and bytes of the updates alone,
// from a registry run of `updates` updates minus an initialize-only
// probe, and from the recording (which leaves initialize() out).
void pin_streaming_updates(bool fault_tolerant) {
  constexpr int p = 4;
  constexpr Index rows = 4096;
  constexpr Index K = 10;
  constexpr Index B = 10;
  constexpr int updates = 3;
  // Per update, from each of the 3 non-roots: its (K+B) x (K+B) R factor
  // up, its (K+B) x K block of Q·U down, σ (K doubles) down, its
  // rows x K modes up; plus, fault-tolerant, its batch energy up and the
  // 7-double FaultReport down.
  const std::uint64_t messages = 3 * (fault_tolerant ? 6 : 4);
  const std::uint64_t bytes =
      3 * (matrix_bytes(K + B, K + B) + matrix_bytes(K + B, K) +
           K * sizeof(double) + matrix_bytes(rows, K) +
           (fault_tolerant ? 8 * sizeof(double) : 0));
  const auto job = [&](int rounds) {
    return Job{"streaming", p,
               [=](pmpi::Communicator& comm) {
                 const auto r = static_cast<std::uint64_t>(comm.rank());
                 StreamingOptions opts;
                 opts.num_modes = K;
                 opts.fault_tolerant = fault_tolerant;
                 ParallelStreamingSVD svd(comm, opts);
                 svd.initialize(testing::random_matrix(rows, K, 300 + r));
                 restart_recording(comm);
                 for (int t = 0; t < rounds; ++t) {
                   svd.incorporate_data(testing::random_matrix(
                       rows, B, 400 + 10 * static_cast<std::uint64_t>(t) + r));
                 }
               },
               {}};
  };
  const Schedule s = record(job(updates));
  ASSERT_TRUE(check_schedule(s).ok());
  EXPECT_EQ(send_totals(s).messages, messages * updates);
  EXPECT_EQ(send_totals(s).bytes, bytes * updates);
  const auto probe = run_plain(job(0));
  const auto ctx = run_plain(job(updates));
  EXPECT_EQ(ctx->total_messages() - probe->total_messages(),
            messages * updates);
  EXPECT_EQ(ctx->total_bytes() - probe->total_bytes(), bytes * updates);
}

TEST(VerifyCrossValidation, StreamingUpdatesDefaultPolicy) {
  pin_streaming_updates(/*fault_tolerant=*/false);
}

TEST(VerifyCrossValidation, StreamingUpdatesFaultTolerantPolicy) {
  pin_streaming_updates(/*fault_tolerant=*/true);
}

}  // namespace
}  // namespace parsvd::verify
